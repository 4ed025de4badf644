"""Verification checks: growth, parts, distances, shiftability, exclusion."""

import itertools
import time
from fractions import Fraction

import pytest

from seqent.checks import (
    CheckReport,
    check_block_parts,
    check_distance_uniqueness,
    check_part_structure,
    check_shiftability,
    far_offsets,
    part_expected_times,
    validate_growth,
    verify_block_independence,
    verify_dense_block_independence,
    verify_far_pair_exclusion,
)
from seqent.construct import (
    GrowthSchedule,
    build_log_m,
    minimal_schedule,
    patterns,
)
from seqent.errors import InvalidConfig
from seqent.model import (
    FAMILY_LOG_INFTY,
    FAMILY_LOG_M,
    SegmentationManifest,
    Trajectory,
    dense_index,
    dense_value,
)


def _dense_edit(traj, n, schedule=None, **tables):
    """A dense trajectory whose block n has the edited tables (the blocks
    after it start where it now ends) and, if given, another schedule."""
    blocks = list(traj.manifest.blocks)
    blocks[n - 1] = blocks[n - 1]._replace(**tables)
    for k in range(n, len(blocks)):
        blocks[k] = blocks[k]._replace(start=blocks[k - 1].end)
    return Trajectory(FAMILY_LOG_INFTY, traj.m, SegmentationManifest(blocks),
                      schedule=schedule or traj.schedule)


def _patterns(traj, n):
    """(start, values) of each pattern segment of block n, in order."""
    man = traj.manifest
    return [(start, f) for (path, _, _, f), start in zip(man.walk(),
                                                          man.starts)
            if path.startswith(f"B{n}/S")]


class TestCheckReport:
    def test_elapsed_is_set_on_every_exit(self):
        def returns_early():
            with CheckReport("early") as report:
                time.sleep(0.01)
                return report

        assert returns_early().elapsed >= 0.01
        with pytest.raises(RuntimeError):
            with CheckReport("raises") as report:
                time.sleep(0.01)
                raise RuntimeError("stop")
        assert report.elapsed >= 0.01


class TestValidateGrowth:
    def test_minimal_log_m_schedules_pass(self, m2k3, m3k2):
        for traj in (m2k3, m3k2):
            rep = validate_growth(traj)
            assert rep.passed, rep.counterexample

    def test_dense_build_passes(self, dense4):
        rep = validate_growth(dense4)
        assert rep.passed, rep.counterexample

    def test_times_that_do_not_mirror_the_winds_fail(self):
        traj = build_log_m(2, 3, minimal_schedule(2, 3))
        blocks = traj.manifest.blocks
        times = blocks[1].times[:-1] + (blocks[1].times[-1] + 1,)
        blocks[1] = blocks[1]._replace(times=times)
        rep = validate_growth(traj)
        assert not rep.passed
        assert rep.counterexample == (
            f"block 2 times {times} do not match its wind lengths")

    def test_undersized_gap_caught(self):
        sched = minimal_schedule(2, 1)
        broken = GrowthSchedule(FAMILY_LOG_M, 2,
                                [list(w) for w in sched.winds],
                                [list(g) for g in sched.inner_gaps],
                                list(sched.outer_gaps))
        broken.inner_gaps[0][0] = 40
        rep = validate_growth(build_log_m(2, 1, broken))
        assert not rep.passed
        assert "B1/IG1" in rep.counterexample

    def test_wrong_first_wind_caught(self):
        sched = minimal_schedule(2, 1)
        broken = GrowthSchedule(FAMILY_LOG_M, 2,
                                [[10]],
                                [list(g) for g in sched.inner_gaps],
                                list(sched.outer_gaps))
        rep = validate_growth(build_log_m(2, 1, broken))
        assert not rep.passed
        assert "first wind" in rep.counterexample

    @pytest.mark.parametrize("farthest", [False, True])
    def test_dense_far_step_caught_at_first_bad_time(self, dense2, farthest):
        # B2/S2 = (e1, e1, e2) is the first pattern to place slot 2's piece
        # for (e1, e2); one interior point of that piece is moved
        block = dense2.manifest.block(2)
        start, f = _patterns(dense2, 2)[1]
        assert f == (1, 1, 2)
        t = start + block.times[1] + 1  # the piece's first point
        prev = dense_value(dense2.symbol_index_at(t - 1))
        if farthest:  # the step after t jumps too
            far = max((Fraction(0), Fraction(1)), key=lambda v: abs(v - prev))
        else:  # exactly the tolerance away
            far = prev + Fraction(1, 4) if prev <= Fraction(3, 4) \
                else prev - Fraction(1, 4)
        slots = [list(slot) for slot in block.slots]
        pair = 0 * 3 + 1  # digits (0, 1)
        slots[1][pair] = (dense_index(far),) + slots[1][pair][1:]
        traj = _dense_edit(dense2, 2, slots=tuple(map(tuple, slots)))
        assert traj.symbol_index_at(t) == dense_index(far)
        rep = validate_growth(traj)
        assert not rep.passed
        assert rep.counterexample == (
            f"step at time {t} jumps {abs(far - prev)} >= 1/4")

    def test_dense_bad_step_in_a_shared_piece_caught_at_its_first_placement(
            self, dense2):
        # slot 2's piece for (e2, e1) is placed by the three patterns
        # (e_, e2, e1); a step inside it is named at the first of them
        block = dense2.manifest.block(2)
        slots = [list(slot) for slot in block.slots]
        pair = 1 * 3 + 0  # digits (1, 0)
        piece = slots[1][pair]
        assert len(piece) >= 3
        first = dense_value(piece[0])
        far = max((Fraction(0), Fraction(1)), key=lambda v: abs(v - first))
        slots[1][pair] = (piece[0], dense_index(far)) + piece[2:]
        traj = _dense_edit(dense2, 2, slots=tuple(map(tuple, slots)))
        placed = [start for start, f in _patterns(traj, 2) if f[1:] == (2, 1)]
        assert len(placed) == 3
        rep = validate_growth(traj)
        assert not rep.passed
        assert rep.counterexample == (
            f"step at time {placed[0] + block.times[1] + 2} jumps "
            f"{abs(far - first)} >= 1/4")

    def test_dense_bad_junction_between_pieces_caught(self, dense2):
        # without its glue, a pattern ending on e1 runs straight into the
        # next, starting on e2: every piece intact, and the step 0 -> 1
        block = dense2.manifest.block(2)
        glues = list(block.glues)
        assert glues[0 * 3 + 1]
        glues[1] = ()
        traj = _dense_edit(dense2, 2, glues=tuple(glues))
        t = next(start for (_, prev), (start, f) in itertools.pairwise(
            _patterns(traj, 2)) if (prev[-1], f[0]) == (1, 2))
        assert (traj.symbol_index_at(t - 1), traj.symbol_index_at(t)) == (1, 2)
        rep = validate_growth(traj)
        assert not rep.passed
        assert rep.counterexample == f"step at time {t} jumps 1 >= 1/4"

    def test_dense_padded_glue_caught(self, dense2):
        # repeat the first interior point of block 2's first glue: every
        # step stays short, and the glue is one point too long
        man = dense2.manifest
        i = next(i for i, (path, *_) in enumerate(man.walk())
                 if path == "B2/G1")
        start, length = man.starts[i], man.lengths[i]
        pair = next((prev[-1], f[0]) for (_, prev), (t, f) in
                    itertools.pairwise(_patterns(dense2, 2))
                    if t == start + length)
        glues = list(man.block(2).glues)
        g = (pair[0] - 1) * 3 + pair[1] - 1
        assert len(glues[g]) == length
        glues[g] = glues[g][:1] + glues[g]
        rep = validate_growth(_dense_edit(dense2, 2, glues=tuple(glues)))
        assert not rep.passed
        assert rep.counterexample == (
            f"B2/G1 has {length + 1} interior points, minimal is {length}")

    def test_dense_padded_glue_with_a_repeated_endpoint_pair_caught(
            self, dense2):
        # the tail goes from e3 back to e1, as earlier glues of block 2
        # do; padding the tail alone leaves those glues minimal
        man = dense2.manifest
        block = man.block(2)
        path, length = man.path(-1), man.lengths[-1]
        assert path.startswith("B2/G") and length > 1
        assert block.glues[2 * 3 + 0] == block.tail[:-1]
        assert any((prev[-1], f[0]) == (3, 1) for (_, prev), (_, f) in
                   itertools.pairwise(_patterns(dense2, 2)))
        tail = block.tail[:1] + block.tail
        traj = _dense_edit(dense2, 2, tail=tail)
        assert traj.manifest.path(-1) == path
        rep = validate_growth(traj)
        assert not rep.passed
        assert rep.counterexample == (
            f"{path} has {length} interior points, minimal is {length - 1}")

    @pytest.mark.parametrize("edit", ["last-value", "length"])
    def test_dense_slot_piece_off_its_slot_realizes_fewer_patterns(
            self, dense2, edit):
        # slot 1's piece for (e1, e1) ends on e2, or is a point short: the
        # 3 patterns (e1, e1, _) no longer realize their second value at
        # their second slot time
        block = dense2.manifest.block(2)
        slots = [list(slot) for slot in block.slots]
        piece = slots[0][0]
        slots[0][0] = piece[:-1] + (2,) if edit == "last-value" else piece[1:]
        rep = validate_growth(
            _dense_edit(dense2, 2, slots=tuple(map(tuple, slots))))
        assert not rep.passed
        assert rep.counterexample == "block 2 realizes 24 patterns, expected 27"

    def test_dense_wrong_tolerance_caught(self, dense2):
        schedule = dense2.schedule._replace(
            eps=[dense2.schedule.eps[0], Fraction(1, 8)])
        rep = validate_growth(_dense_edit(dense2, 2, schedule=schedule))
        assert not rep.passed
        assert rep.counterexample == "block 2 tolerance 1/8, expected 1/4"

    def test_summary_line_shape(self, m2k2):
        rep = validate_growth(m2k2)
        line = rep.summary()
        assert line.startswith("PASS growth")


class TestPartStructure:
    def test_every_piece_both_families(self, m2k3, m3k2):
        for traj, kmax in ((m2k3, 3), (m3k2, 2)):
            m = traj.m
            for k in range(1, kmax + 1):
                block = traj.manifest.block(k)
                for l in range(1, m ** (k + 1) + 1):
                    rep = check_part_structure(k, l, traj)
                    assert rep.passed, (m, k, l, rep.counterexample)

    def test_expected_times_account_for_pattern_offsets(self, m2k3):
        block = m2k3.manifest.block(2)
        for l in (1, 3, 8):
            times = part_expected_times(block, l, m2k3.m)
            assert len(times) == len(block.times)
            assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))

    def test_distance_uniqueness_every_piece(self, m2k3, m3k2):
        for traj, kmax in ((m2k3, 3), (m3k2, 2)):
            m = traj.m
            for k in range(1, kmax + 1):
                for l in range(1, m ** (k + 1) + 1):
                    rep = check_distance_uniqueness(k, l, traj)
                    assert rep.passed, (m, k, l, rep.counterexample)

    def test_expected_times_read_the_pattern_from_the_piece_number(
            self, m2k3, m3k2):
        for traj, kmax in ((m2k3, 3), (m3k2, 2)):
            for k in range(1, kmax + 1):
                block = traj.manifest.block(k)
                for l, s in enumerate(patterns(traj.m, k), 1):
                    j = block.piece_starts[l - 1]
                    assert part_expected_times(block, l, traj.m) == [
                        j + n_c - s_c for n_c, s_c in zip(block.times, s)]

    @pytest.mark.parametrize("l", [0, 9])
    def test_piece_number_out_of_range_refused(self, m2k2, l):
        # block 2 of m2k2 has 2^3 = 8 pieces; l = 0 once read the last one
        block = m2k2.manifest.block(2)
        assert len(block.piece_starts) == 8
        for call in (lambda: part_expected_times(block, l, m2k2.m),
                     lambda: check_part_structure(2, l, m2k2),
                     lambda: check_distance_uniqueness(2, l, m2k2)):
            with pytest.raises(InvalidConfig, match="^block 2 has 8 pieces$"):
                call()

    def test_aggregator_matches_piecewise_checks(self, m2k2):
        rep = check_block_parts(2, m2k2)
        assert rep.passed
        assert isinstance(rep, CheckReport)

    def test_rejects_dense_family(self, dense2):
        with pytest.raises(InvalidConfig):
            check_block_parts(1, dense2)


class TestShiftability:
    def test_end_of_second_block_both_m(self, m2k2, m3k2):
        for traj in (m2k2, m3k2):
            rep = check_shiftability(traj, traj.block_range(2)[1])
            assert rep.passed, rep.counterexample

    def test_hit_and_shift_counts_frozen(self, m2k2, m3k2):
        rep2 = check_shiftability(m2k2, m2k2.block_range(2)[1])
        assert rep2.details == ["32 hits, 50 same-part shifts, 50 split shifts"]
        rep3 = check_shiftability(m3k2, m3k2.block_range(2)[1])
        assert rep3.details == ["99 hits, 442 same-part shifts, 442 split shifts"]


class TestBlockIndependence:
    def test_all_blocks_both_m(self, m2k3, m3k3):
        for traj, kmax in ((m2k3, 3), (m3k3, 3)):
            for k in range(1, kmax + 1):
                rep = verify_block_independence(k, traj)
                assert rep.passed, (traj.m, k, rep.counterexample)

    def test_report_parameters(self, m2k2):
        rep = verify_block_independence(2, m2k2)
        assert rep.params["m"] == "2"
        assert rep.params["assignments"] == "8"


class TestFarPairExclusion:
    def test_offsets_cover_both_signs_and_infinity(self):
        offs = far_offsets(2)
        assert offs == (2, 3, 4, 5, 6, -2, -3, -4, -5, -6, "inf")

    def test_near_offsets_rejected(self, m2k2):
        with pytest.raises(InvalidConfig):
            verify_far_pair_exclusion(m2k2, offsets=(1,))

    def test_mode_keyword_selects_nothing(self, m2k2):
        with pytest.raises(ValueError, match="banana"):
            verify_far_pair_exclusion(m2k2, offsets=(2,), mode="banana")
        level = verify_far_pair_exclusion(m2k2, offsets=(2,), mode="level")
        dfs = verify_far_pair_exclusion(m2k2, offsets=(2,), mode="dfs")
        assert level.passed and dfs.passed
        assert level.details == dfs.details
        assert level.certificates == dfs.certificates

    def test_exclusion_at_second_block_horizon(self, m2k2):
        rep = verify_far_pair_exclusion(
            m2k2, offsets=(2, -2, "inf"), cap=3,
            horizon=m2k2.block_range(2)[1])
        assert rep.passed, rep.counterexample
        assert len(rep.certificates) == 3
        for cert in rep.certificates:
            assert cert.died_level <= 4


class TestDenseBlockIndependence:
    def test_blocks_one_to_four(self, dense4):
        for n in range(1, 5):
            rep = verify_dense_block_independence(n, dense4)
            assert rep.passed, (n, rep.counterexample)

    def test_block_restriction_uses_in_block_starts(self, dense4):
        rep = verify_dense_block_independence(2, dense4)
        assert rep.params["times"] == "0,5,10"
        assert rep.details == ["all 27 assignments realized by 27 in-block starts"]
