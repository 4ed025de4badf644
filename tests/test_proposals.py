"""Dense block witnesses by proposal.

``model.propose_realizers`` names, for every assignment of a dense block's
first c slot times to distinct centers among its values, the start of the
pattern whose digits spell the assignment; ``model.check_realizers``
confirms each proposal by the definition, reading its symbols with one
``Trajectory.symbol_indices`` call. Here they are pinned to
``is_independence_set``, ``itinerary_hits`` and ``symbol_index_at``, and a
proposer that is off by one pattern must fall back with the same output.
"""

import itertools
import random

import pytest

import seqent.checks
import seqent.entropy
from seqent.checks import verify_dense_block_independence
from seqent.cli import main
from seqent.construct import build_log_infty
from seqent.entropy import h_star_lower_bound
from seqent.errors import HorizonExceeded, ResourceBudgetExceeded
from seqent.independence import SearchBudget, is_independence_set
from seqent.model import (
    ModelPoint,
    NeighborhoodSpec,
    Symbol,
    check_realizers,
    itinerary_hits,
    propose_realizers,
)


def _specs(indices, level):
    return tuple(NeighborhoodSpec(Symbol.dense(j), level) for j in indices)


def _shifted(block, specs, c):
    """The proposer, with every start moved to the next pattern's."""
    got = propose_realizers(block, specs, c)
    if got is None:
        return None
    starts = block.piece_starts
    index = {u: p for p, u in enumerate(starts)}
    return ((sigma, starts[(index[u] + 1) % len(starts)])
            for sigma, u in got)


def _spy(monkeypatch, module, name):
    """The first argument of each call made through module.name."""
    calls, real = [], getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


def _refuse(*_args, **_kwargs):
    raise AssertionError("the fold ran")


def _offset_sets(block):
    """Offsets that stay in a pattern, leave it on either side, repeat or
    come out of order."""
    times, L = block.times, block.times[-1] + 1
    return [times, times[:1], times[::-1], (0, 0, times[-1]),
            (1, L - 1, L), (L, L + 3), (-1, 0, 2), tuple(range(L + 2))]


def _agrees(traj, t, offsets):
    if not all(0 <= t + o < traj.n_points for o in offsets):
        with pytest.raises(HorizonExceeded):
            traj.symbol_indices(t, offsets)
        return
    assert traj.symbol_indices(t, offsets) == [
        traj.symbol_index_at(t + o) for o in offsets], (t, offsets)


class TestSymbolIndices:
    @pytest.mark.parametrize("nmax", [1, 2, 3])
    def test_every_pattern_start(self, nmax):
        traj = build_log_infty(nmax)
        for block in traj.manifest.blocks:
            sets = _offset_sets(block)
            for u in block.piece_starts:
                for offsets in sets:
                    _agrees(traj, u, offsets)
                    _agrees(traj, u + 1, offsets)

    @pytest.mark.parametrize("nmax", [4, 5, 6])
    def test_seeded_samples(self, nmax):
        traj = build_log_infty(nmax)
        rng = random.Random(5200 + nmax)
        for block in traj.manifest.blocks:
            sets = _offset_sets(block)
            starts = block.piece_starts
            for p in rng.sample(range(len(starts)), min(60, len(starts))):
                for offsets in sets:
                    _agrees(traj, starts[p], offsets)
        # any time, glues and tails included, with small offset sets
        for t in rng.sample(range(traj.n_points), 400):
            _agrees(traj, t, tuple(rng.sample(range(-3, 40), 4)))

    def test_times_past_the_horizon(self, dense2):
        h = dense2.horizon
        assert dense2.symbol_indices(h, (0,)) == [dense2.symbol_index_at(h)]
        for t, offsets in [(h, (0, 1)), (h + 1, (0,)), (h - 2, (3, 0)),
                           (0, (-1,)), (-2, (1, 2))]:
            with pytest.raises(HorizonExceeded):
                dense2.symbol_indices(t, offsets)
        assert dense2.symbol_indices(5, ()) == []

    def test_head_indexed_family(self, m2k2):
        # near run boundaries, where the offsets cross into the next run
        rng = random.Random(5300)
        for start, _, length in m2k2.runs:
            t = start + rng.randrange(length)
            for offsets in [(0, 3, 1, 40), (-2, 0), (length,)]:
                _agrees(m2k2, t, offsets)
                _agrees(m2k2, start, offsets)


class TestProposerAgainstTheFold:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_combo_level_and_cap(self, dense4, n):
        # at the block's last time, as the entropy evidence asks it
        block = dense4.manifest.block(n)
        horizon = block.end - 1
        for k in range(1, n + 2):
            for combo in itertools.combinations(range(1, n + 2), k):
                for level in range(1, n + 1):
                    specs = _specs(combo, level)
                    for cap in range(1, n + 2):
                        J = block.times[:cap]
                        proposals = list(propose_realizers(block, specs, cap))
                        assert len(proposals) == k ** cap
                        ok = check_realizers(J, specs, proposals, dense4,
                                             horizon=horizon) is None
                        assert ok == is_independence_set(
                            J, specs, dense4, horizon=horizon).ok
                        if not ok:
                            continue
                        for sigma, u in proposals:
                            assert u + J[-1] <= horizon
                            assert itinerary_hits(
                                ModelPoint.orbit(u), J,
                                tuple(specs[s] for s in sigma), dense4)

    def test_proposals_are_pattern_starts(self, dense4):
        # the digits of sigma's centers, then zeros, read in base n + 1
        block = dense4.manifest.block(3)
        specs = _specs((2, 4, 1), 3)
        for sigma, u in propose_realizers(block, specs, 2):
            digits = [specs[s].center.index - 1 for s in sigma] + [0, 0]
            p = int("".join(map(str, digits)), 4)
            assert u == block.piece_starts[p]

    def test_blocks_that_cannot_propose(self, dense4, m2k2):
        block = dense4.manifest.block(3)
        assert propose_realizers(block, _specs((1, 5), 3), 2) is None
        assert propose_realizers(block, _specs((1, 2), 3), 5) is None
        specs = (NeighborhoodSpec(Symbol.head(0), 1),)
        assert propose_realizers(m2k2.manifest.block(1), specs, 1) is None

    def test_a_cut_horizon_names_a_proposal_that_leaves_it(self, dense4):
        # the last pattern of block 2 ends past the horizon: its
        # assignment is the first whose proposal fails
        block = dense4.manifest.block(2)
        specs = _specs((1, 2, 3), 2)
        last = block.piece_starts[-1]
        horizon = last + block.times[-1] - 1
        failing = check_realizers(block.times, specs,
                                  propose_realizers(block, specs, 3), dense4,
                                  horizon=horizon)
        assert failing == (2, 2, 2)

    def test_thresholds_are_checked(self, dense4):
        # block 2's patterns lie before block 3, the level-3 threshold
        block = dense4.manifest.block(2)
        mixed = (NeighborhoodSpec(Symbol.dense(1), 2),
                 NeighborhoodSpec(Symbol.dense(2), 3))
        failing = check_realizers(block.times[:2], mixed,
                                  propose_realizers(block, mixed, 2), dense4)
        assert failing == (0, 1)
        for specs in (_specs((1, 2), 3),
                      (NeighborhoodSpec(Symbol.dense(1), 2,
                                        block.end - block.start),)):
            failing = check_realizers(block.times[:2], specs,
                                      propose_realizers(block, specs, 2),
                                      dense4)
            assert failing == (0, 0)

    def test_the_check_refuses_infinity_centers(self, m2k2):
        specs = (NeighborhoodSpec(Symbol.head_inf(), 1),)
        with pytest.raises(ValueError, match="finite centers"):
            check_realizers((0,), specs, [((0,), 0)], m2k2)

    def test_the_check_reads_its_own_proposals(self, m2k2):
        # any family: a run start realizes its first index
        start, first, _ = m2k2.runs[3]
        specs = (NeighborhoodSpec(Symbol.head(first), 1),
                 NeighborhoodSpec(Symbol.head(first + 1), 1))
        assert check_realizers((0, 1), specs, [((0, 1), start)], m2k2) is None
        assert check_realizers((0, 1), specs, [((0, 0), start)],
                               m2k2) == (0, 0)


class TestShiftedProposer:
    def test_shifted_proposals_fail_the_check(self, dense4):
        # a full assignment fixes every digit, so the next pattern is wrong
        for block in dense4.manifest.blocks:
            n = block.level
            specs = _specs(range(1, n + 2), n)
            failing = check_realizers(block.times, specs,
                                      _shifted(block, specs, n + 1), dense4)
            assert failing is not None
            starts = block.piece_starts
            p = sum(s * (n + 1) ** (n - i) for i, s in enumerate(failing))
            assert not itinerary_hits(
                ModelPoint.orbit(starts[(p + 1) % len(starts)]), block.times,
                tuple(specs[s] for s in failing), dense4)

    @pytest.mark.parametrize("argv", [
        ("entropy", "--family", "log-infty", "--nmax", "3", "--cap", "4"),
        ("entropy", "--family", "log-infty", "--nmax", "4", "--cap", "5",
         "--levels", "3,4"),
    ])
    def test_entropy_falls_back_with_the_same_output(self, argv, capsys,
                                                     monkeypatch):
        assert main(list(argv)) == 0
        want = capsys.readouterr().out
        monkeypatch.setattr(seqent.entropy, "propose_realizers", _shifted)
        folds = _spy(monkeypatch, seqent.entropy, "is_independence_set")
        assert main(list(argv)) == 0
        assert capsys.readouterr().out == want
        assert folds

    def test_section3_falls_back_with_the_same_reports(self, tmp_path,
                                                       capsys, monkeypatch):
        argv = ["verify", "--suite", "section3", "--nmax", "3", "--out"]
        assert main(argv + [str(tmp_path / "proposed")]) == 0
        monkeypatch.setattr(seqent.checks, "propose_realizers", _shifted)
        folds = _spy(monkeypatch, seqent.checks, "is_independence_set")
        assert main(argv + [str(tmp_path / "shifted")]) == 0
        capsys.readouterr()
        assert len(folds) == 3
        for path in sorted((tmp_path / "proposed").iterdir()):
            assert (tmp_path / "shifted" / path.name).read_bytes() == (
                path.read_bytes()), path.name


class TestBudget:
    def test_reads_are_charged_before_the_check(self, dense4, monkeypatch):
        # four levels, each one block 4 proposal of 5^3 assignments, three
        # reads each
        monkeypatch.setattr(seqent.entropy, "is_independence_set", _refuse)
        centers = [Symbol.dense(j) for j in range(1, 6)]
        budget = SearchBudget(max_nodes=4 * 375)
        ev = h_star_lower_bound(dense4, centers, 3, budget=budget)
        assert (ev.p, budget.nodes) == (5, 1500)
        checks = _spy(monkeypatch, seqent.entropy, "check_realizers")
        with pytest.raises(ResourceBudgetExceeded):
            h_star_lower_bound(dense4, centers, 3,
                               budget=SearchBudget(max_nodes=1499))
        assert len(checks) == 3

    def test_dense_block_check_charges_its_reads(self, dense4):
        budget = SearchBudget()
        report = verify_dense_block_independence(4, dense4, budget=budget)
        assert report.passed and budget.nodes == 5 ** 5 * 5
        assert report.details == [
            "all 3125 assignments realized by 3125 in-block starts"]
