"""Verification checks: growth, parts, distances, shiftability, exclusion."""

import bisect
import collections
import time
from array import array
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


def _dense_copy(traj, symbols, blocks=None, starts=None, lengths=None,
                schedule=None):
    """A dense trajectory over edited symbols, manifest columns and
    schedule, with one piece per manifest segment."""
    man = traj.manifest
    starts = array("q", man.starts if starts is None else starts)
    lengths = array("q", man.lengths if lengths is None else lengths)
    manifest = SegmentationManifest(
        list(man.blocks if blocks is None else blocks), starts, lengths)
    table = (tuple(tuple(symbols[s:s + n]) for s, n in zip(starts, lengths)),
             starts, array("I", range(len(starts))))
    return Trajectory(FAMILY_LOG_INFTY, traj.m, manifest, piece_table=table,
                      schedule=schedule or traj.schedule)


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
        symbols = [dense2.symbol_index_at(t) for t in range(dense2.n_points)]
        man = dense2.manifest
        i = next(i for i, (path, *_) in enumerate(man.walk())
                 if path == "B2/S2")
        t = man.starts[i] + 1  # an interior point of a pattern segment's chain
        prev = dense_value(symbols[t - 1])
        if farthest:  # the step after t jumps too
            far = max((Fraction(0), Fraction(1)), key=lambda v: abs(v - prev))
        else:  # exactly the tolerance away
            far = prev + Fraction(1, 4) if prev <= Fraction(3, 4) \
                else prev - Fraction(1, 4)
        symbols[t] = dense_index(far)
        rep = validate_growth(_dense_copy(dense2, symbols))
        assert not rep.passed
        assert rep.counterexample == (
            f"step at time {t} jumps {abs(far - prev)} >= 1/4")

    def test_dense_bad_step_in_a_shared_piece_caught_at_its_first_placement(
            self, dense2):
        pieces, starts, ids = dense2.piece_table
        block = dense2.manifest.block(2)
        lo = bisect.bisect_left(starts, block.start)
        # the most placed piece of block 2 that block 1 does not use and
        # that has an interior point
        counts = collections.Counter(ids[lo:])
        i = max((i for i in counts
                 if i not in ids[:lo] and len(pieces[i]) >= 3),
                key=counts.__getitem__)
        assert counts[i] > 1
        first = dense_value(pieces[i][0])
        far = max((Fraction(0), Fraction(1)), key=lambda v: abs(v - first))
        edited = list(pieces)
        edited[i] = (pieces[i][0], dense_index(far)) + pieces[i][2:]
        traj = Trajectory(FAMILY_LOG_INFTY, dense2.m, dense2.manifest,
                          piece_table=(tuple(edited), starts, ids),
                          schedule=dense2.schedule)
        rep = validate_growth(traj)
        assert not rep.passed
        assert rep.counterexample == (
            f"step at time {starts[ids.index(i)] + 1} jumps "
            f"{abs(far - first)} >= 1/4")

    def test_dense_bad_junction_between_pieces_caught(self, dense2):
        pieces, starts, ids = dense2.piece_table
        block = dense2.manifest.block(2)
        lo = bisect.bisect_left(starts, block.start)
        # the second lone e1 of block 2 starts pattern (e1, e1, e2) after a
        # slot piece that ends on e1; placing a lone e2 there instead keeps
        # every piece intact and makes the step into it 0 -> 1
        e1, e2 = pieces.index((1,)), pieces.index((2,))
        p = [q for q in range(lo, len(ids)) if ids[q] == e1][1]
        assert pieces[ids[p - 1]][-1] == 1
        edited = array("I", ids)
        edited[p] = e2
        traj = Trajectory(FAMILY_LOG_INFTY, dense2.m, dense2.manifest,
                          piece_table=(pieces, starts, edited),
                          schedule=dense2.schedule)
        rep = validate_growth(traj)
        assert not rep.passed
        assert rep.counterexample == f"step at time {starts[p]} jumps 1 >= 1/4"

    def test_dense_padded_glue_caught(self, dense2):
        symbols = [dense2.symbol_index_at(t) for t in range(dense2.n_points)]
        man = dense2.manifest
        path, start, length = man.path(-1), man.starts[-1], man.lengths[-1]
        assert path.startswith("B2/G") and length > 1
        # repeat the tail glue's first interior point: every step stays short
        symbols.insert(start, symbols[start])
        lengths = array("q", man.lengths)
        lengths[-1] += 1
        blocks = man.blocks[:-1] + [man.blocks[-1]._replace(end=len(symbols))]
        rep = validate_growth(
            _dense_copy(dense2, symbols, blocks, lengths=lengths))
        assert not rep.passed
        assert rep.counterexample == (
            f"{path} has {length} interior points, minimal is {length - 1}")

    def test_dense_padded_glue_with_a_repeated_endpoint_pair_caught(
            self, dense2):
        symbols = [dense2.symbol_index_at(t) for t in range(dense2.n_points)]
        man = dense2.manifest
        block = man.block(2)
        glue = [(i, path) for i, (path, *_) in enumerate(man.walk())
                if path.startswith("B2/G")
                and man.starts[i] + man.lengths[i] < block.end]
        pairs = [(symbols[man.starts[i] - 1],
                  symbols[man.starts[i] + man.lengths[i]]) for i, _ in glue]
        # the first glue segment whose endpoint pair an earlier one used
        i, path = glue[next(g for g, pair in enumerate(pairs)
                            if pair in pairs[:g])]
        start, length = man.starts[i], man.lengths[i]
        # repeat its first interior point and shift everything after it
        symbols.insert(start, symbols[start])
        starts = array("q", (s + (s > start) for s in man.starts))
        lengths = array("q", man.lengths)
        lengths[i] += 1
        blocks = man.blocks[:-1] + [block._replace(
            end=block.end + 1,
            piece_starts=tuple(p + (p > start) for p in block.piece_starts))]
        rep = validate_growth(
            _dense_copy(dense2, symbols, blocks, starts, lengths))
        assert not rep.passed
        assert rep.counterexample == (
            f"{path} has {length + 1} interior points, minimal is {length}")

    def test_dense_wrong_tolerance_caught(self, dense2):
        symbols = [dense2.symbol_index_at(t) for t in range(dense2.n_points)]
        schedule = dense2.schedule._replace(
            eps=[dense2.schedule.eps[0], Fraction(1, 8)])
        rep = validate_growth(_dense_copy(dense2, symbols, schedule=schedule))
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
