"""Builder layer: wind planning, growth schedules, and block structure."""

import pytest
from fractions import Fraction
from hypothesis import given
from hypothesis import strategies as st

import hashlib
import random
import tracemalloc

import _oracles
from seqent.construct import (
    GrowthSchedule,
    _chain_interior,
    _least_interior,
    build_log_infty,
    build_log_m,
    chain_min_interior,
    default_dense_schedule,
    minimal_schedule,
    patterns,
    plan_wind,
)
from seqent.errors import Infeasible, ScheduleInvalid
from seqent.formats import manifest_string
from seqent.model import (
    FAMILY_LOG_INFTY,
    FAMILY_LOG_M,
    Symbol,
    dense_dyadic,
    dense_index,
    dense_value,
)

# Frozen values, copied from verified runs of the oracle scripts in this
# repository's history. Any builder change that moves them is a regression.
M2K3_WINDS = [
    [8],
    [84184863601, 8502671223601],
    [9392229642672416386316286145201,
     948615193909914055017944900665201,
     95810134584901319556812434967185201],
]
M2K3_B1_INNER = [801, 81701, 8252601]
M2K3_OUTER = [
    833513501,
    92992372699726894914022635101,
    11346836586892727575891358754320211647146943639920062063470594158301,
]
M2K3_POINTS = 11460304952761654851650272341863413763618413076319262684105300099884
# sha256 over build_log_infty(4)'s comma-joined dense symbols, a newline and
# its rendered manifest, taken from the Fraction-per-point builder.
DENSE4_DIGEST = (
    "2e43ed712f5f6cdecc5451fdc5b1310ca5e5eb399ec62c08e6174899ce6d1ffe")


class TestPlanWind:
    def test_verified_plans(self):
        # these four come from worked examples checked by hand
        assert (plan_wind(0, 0, 8).jump_from, plan_wind(0, 0, 8).jump_depth) == (3, 3)
        assert (plan_wind(0, 1, 8).jump_from, plan_wind(0, 1, 8).jump_depth) == (3, 2)
        assert (plan_wind(1, 0, 10).jump_from, plan_wind(1, 0, 10).jump_depth) == (4, 5)
        assert (plan_wind(0, 1, 15).jump_from, plan_wind(0, 1, 15).jump_depth) == (6, 6)

    def test_too_short_raises(self):
        with pytest.raises(Infeasible):
            plan_wind(0, 1, 5)

    @given(st.integers(min_value=-3, max_value=4),
           st.integers(min_value=-3, max_value=4),
           st.integers(min_value=6, max_value=400))
    def test_plan_length_and_jump_shape(self, p, q, w):
        total = w - 2 + p - q
        min_from = max(p, 0) + 1
        min_depth = max(-q, 0) + 1
        if w < max(q - p + 5, 6) or total < min_from + min_depth:
            with pytest.raises(Infeasible):
                plan_wind(p, q, w)
            return
        plan = plan_wind(p, q, w)
        # ascend p..jump_from, jump, ascend -jump_depth..q, covering w points
        left = plan.jump_from - p + 1
        right = q + plan.jump_depth + 1
        assert left + right == w
        assert plan.jump_from >= min_from
        assert plan.jump_depth >= min_depth
        # the balanced split is almost horizontal unless a clamp moved it
        balanced = total // 2 if total % 2 == 0 or q <= p else (total + 1) // 2
        if balanced >= min_from and total - balanced >= min_depth:
            assert abs(plan.jump_from - plan.jump_depth) <= 1


class TestMinimalSchedule:
    def test_first_wind_length(self):
        for m in (2, 3, 4):
            assert minimal_schedule(m, 1).winds[0][0] == 3 * m + 2

    def test_m2_k3_schedule_frozen(self):
        sched = minimal_schedule(2, 3)
        assert sched.winds == M2K3_WINDS
        assert sched.inner_gaps[0] == M2K3_B1_INNER
        assert sched.outer_gaps == M2K3_OUTER

    def test_every_later_length_clears_hundredfold_growth(self):
        sched = minimal_schedule(2, 2)
        flat = []
        for k in range(2):
            for i, w in enumerate(sched.winds[k]):
                flat.append(("wind", k + 1, i + 1, w))
        # the builder is the authority on prefixes; validate_growth covers
        # the full rule, here we check the lengths are strictly escalating
        lengths = [w for _kind, _k, _i, w in flat]
        assert lengths == sorted(lengths)
        assert all(b > 100 * a for a, b in zip(lengths, lengths[1:]))


class TestBuildLogM:
    def test_point_count_frozen(self, m2k3):
        assert m2k3.n_points == M2K3_POINTS

    def test_block_counts(self, m2k3):
        for k in (1, 2, 3):
            block = m2k3.manifest.block(k)
            assert len(block.piece_starts) == 2 ** (k + 1)
            assert len(block.times) == k + 1

    def test_piece_patterns_realized_in_order(self, m2k3):
        # piece l of block k shows pattern l (lexicographic) at the times
        for k in (1, 2):
            block = m2k3.manifest.block(k)
            pats = patterns(2, k)
            for l, start in enumerate(block.piece_starts):
                want = pats[l]
                got = tuple(m2k3.symbol_index_at(start + t) for t in block.times)
                assert got == want

    def test_blocks_end_on_pattern_tail(self, m3k2):
        for k in (1, 2):
            block = m3k2.manifest.block(k)
            last = block.piece_starts[-1] + block.times[-1]
            assert last == block.end - 1

    def test_bad_schedule_rejected(self):
        sched = minimal_schedule(2, 2)
        broken = GrowthSchedule(FAMILY_LOG_M, 2,
                                [list(w) for w in sched.winds[:1]],
                                [list(g) for g in sched.inner_gaps[:1][:2]],
                                list(sched.outer_gaps[:1]))
        broken.inner_gaps[0] = broken.inner_gaps[0][:1]
        with pytest.raises(ScheduleInvalid):
            build_log_m(2, 1, broken)


def _chain(a, b, eps, n):
    """The builder's eps-chain from the value a to the value b with n
    interior points, as values."""
    interior = _chain_interior(dense_index(a), dense_index(b), eps, n)
    return [a] + [dense_value(j) for j in interior] + [b]


class TestDenseChains:
    def test_chain_endpoints_and_tolerance(self):
        eps = Fraction(1, 4)
        n = chain_min_interior(0, 1, eps)
        chain = _chain(Fraction(0), Fraction(1), eps, n)
        assert chain[0] == 0 and chain[-1] == 1
        assert len(chain) == n + 2
        assert all(abs(b - a) < eps for a, b in zip(chain, chain[1:]))

    def test_chain_respects_requested_interior_count(self):
        for a, b, eps in [(Fraction(0), Fraction(1), Fraction(1, 2)),
                          (Fraction(1, 2), Fraction(1, 2), Fraction(1, 4)),
                          (Fraction(3, 4), Fraction(0), Fraction(1, 8))]:
            least = chain_min_interior(a, b, eps)
            for n in (least, least + 1, least + 3):
                if n < 1:
                    continue
                chain = _chain(a, b, eps, n)
                assert (chain[0], chain[-1]) == (a, b)
                assert len(chain) == n + 2
                assert all(abs(y - x) < eps for x, y in zip(chain, chain[1:]))

    def test_too_few_interior_points_rejected(self):
        # the minimum is tight: one point fewer leaves a step of eps or more
        eps = Fraction(1, 8)
        least = chain_min_interior(0, 1, eps)
        assert Fraction(1, least) >= eps
        # and the builder refuses a slot gap that leaves one point fewer
        sched = GrowthSchedule(FAMILY_LOG_INFTY, 1, eps=[eps],
                               times=[[least]])
        with pytest.raises(ScheduleInvalid, match=f"slot gap {least} cannot "
                                                  f"chain 0 to 1 at 1/8"):
            build_log_infty(1, sched)
        sched.times = [[least + 1]]
        assert build_log_infty(1, sched).n_points > 0


def _reference_chain(a, b, eps, n):
    """The oracle's Fraction chain between e_a and e_b, as positions."""
    return tuple(map(dense_index, _oracles.chain_interior(
        dense_value(a), dense_value(b), eps, n)))


def _default_chain_requests(nmax):
    """Every (a, b, eps, count) the default schedule's builds up to nmax
    ask a chain for: each value pair of a block at its least count (glues
    and tails) and at each slot's count that can chain it."""
    schedule = default_dense_schedule(nmax)
    requests = set()
    for n in range(1, nmax + 1):
        eps = schedule.eps[n - 1]
        rel = [0] + schedule.times[n - 1]
        needs = {rel[i + 1] - rel[i] - 1 for i in range(n)}
        for a in range(1, n + 2):
            for b in range(1, n + 2):
                least = _oracles.chain_min_interior(
                    dense_value(a), dense_value(b), eps)
                requests |= {(a, b, eps, count) for count
                             in {least} | {c for c in needs if c >= least}}
    return sorted(requests)


class TestIntegerChains:
    """The builder's integer chains against the oracle's Fraction ones."""

    def test_default_schedule_chains_match_the_reference(self):
        requests = _default_chain_requests(5)
        assert len(requests) > 100
        for a, b, eps, count in requests:
            least = _oracles.chain_min_interior(
                dense_value(a), dense_value(b), eps)
            assert _least_interior(a, b, eps) == least
            assert chain_min_interior(dense_value(a), dense_value(b),
                                      eps) == least
            assert _chain_interior(a, b, eps, count) == _reference_chain(
                a, b, eps, count), (a, b, eps, count)

    def test_random_dyadic_endpoints_match_the_reference(self):
        rng = random.Random(2201)
        tolerances = ([Fraction(1, 2 ** k) for k in range(7)]
                      + [Fraction(3, 10), Fraction(5, 7), Fraction(2, 3)])
        for _ in range(1500):
            a, b = (dense_index(Fraction(rng.randint(0, 2 ** level),
                                         2 ** level))
                    for level in (rng.randint(0, 7), rng.randint(0, 7)))
            eps = rng.choice(tolerances)
            least = _oracles.chain_min_interior(
                dense_value(a), dense_value(b), eps)
            assert _least_interior(a, b, eps) == least
            for count in {least, least + 1, least + rng.randint(2, 9)}:
                assert _chain_interior(a, b, eps, count) == \
                    _reference_chain(a, b, eps, count), (a, b, eps, count)

    def test_half_way_points_round_to_even(self):
        # one step of an odd gap over 2^level, on that level's grid, puts
        # the middle point half way between two grid points
        assert _chain_interior(1, dense_index(Fraction(5, 8)), Fraction(1),
                               1) == (dense_index(Fraction(1, 4)),)
        assert _chain_interior(1, dense_index(Fraction(7, 8)), Fraction(1),
                               1) == (dense_index(Fraction(1, 2)),)
        rng = random.Random(2202)
        for _ in range(300):
            level = rng.randint(3, 9)
            v = rng.randint(0, 2 ** level - 5)
            w = rng.randrange(v + 5, 2 ** level + 1, 2)
            a, b = (dense_index(Fraction(x, 2 ** level)) for x in (v, w))
            for ends in ((a, b), (b, a)):
                got = _chain_interior(*ends, Fraction(1), 1)
                assert got == _reference_chain(*ends, Fraction(1), 1)
                middle = Fraction(v + w, 2 ** (level + 1))
                assert abs(dense_value(got[0]) - middle) \
                    == Fraction(1, 2 ** (level + 1))
                assert dense_dyadic(got[0])[1] < level  # the even neighbour


class TestBuildLogInfty:
    def test_point_count_and_block_spans(self, dense4):
        assert dense4.n_points == 243994
        spans = [(dense4.manifest.block(n).start, dense4.manifest.block(n).end)
                 for n in (1, 2, 3, 4)]
        assert spans == [(0, 21), (21, 367), (367, 8368), (8368, 243994)]

    def test_piece_counts_per_block(self, dense4):
        for n, want in ((1, 4), (2, 27), (3, 256), (4, 3125)):
            assert len(dense4.manifest.block(n).piece_starts) == want

    def test_designated_times(self, dense4):
        sched = dense4.schedule
        assert sched.times == [[3], [5, 10], [9, 18, 27], [17, 34, 51, 68]]
        assert sched.eps == [Fraction(1, 2), Fraction(1, 4),
                             Fraction(1, 8), Fraction(1, 16)]

    def test_block_one_symbols_frozen(self, dense4):
        got = [dense4.symbol_index_at(t) for t in range(21)]
        assert got == [1, 4, 4, 1, 1, 12, 15, 2, 2, 15, 12, 1,
                       12, 15, 2, 5, 5, 2, 15, 12, 1]

    def test_blocks_start_and_end_at_origin_value(self, dense4):
        for n in (1, 2, 3, 4):
            block = dense4.manifest.block(n)
            assert dense4.symbol_at(block.start) == Symbol.dense(1)
            assert dense4.symbol_at(block.end - 1) == Symbol.dense(1)

    def test_default_schedule_matches_build(self, dense2):
        sched = default_dense_schedule(2)
        assert sched.eps == dense2.schedule.eps
        assert sched.times == dense2.schedule.times

    def test_build_digest_pinned(self, dense4):
        h = hashlib.sha256()
        h.update(",".join(map(str, (dense4.symbol_index_at(t)
                                    for t in range(dense4.n_points)))).encode())
        h.update(b"\n")
        h.update(manifest_string(dense4).encode())
        assert h.hexdigest() == DENSE4_DIGEST

    def test_slot_gap_below_chain_minimum_rejected(self):
        # one slot step from e1 = 0 to e2 = 1 needs two interior points at 1/2
        sched = GrowthSchedule(FAMILY_LOG_INFTY, 1, eps=[Fraction(1, 2)],
                               times=[[1]])
        with pytest.raises(ScheduleInvalid,
                           match="block 1: slot gap 1 cannot chain 0 to 1 at 1/2"):
            build_log_infty(1, sched)

    def test_first_failing_slot_in_pattern_order_named(self):
        # block 2's slot gaps are 3 and 2: e1 -> e2 (0 -> 1) needs three
        # interior points, so pattern (e1, e1, e2) fails first, at its
        # second slot, before (e1, e2, e1) fails at its first
        sched = GrowthSchedule(FAMILY_LOG_INFTY, 2,
                               eps=[Fraction(1, 2), Fraction(1, 4)],
                               times=[[3], [3, 5]])
        with pytest.raises(ScheduleInvalid,
                           match="block 2: slot gap 2 cannot chain 0 to 1 at 1/4"):
            build_log_infty(2, sched)

    def test_whole_build_stays_under_a_megabyte(self):
        # the nmax=4 trajectory, manifest included: the blocks' tables are
        # about 17 kB; the piece table and the manifest's columns that
        # stored every placement and segment were 0.4 MB, and one record
        # per segment 2.0 MB more
        tracemalloc.start()
        try:
            traj = build_log_infty(4)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert traj.n_points == 243994
        assert held < 1_000_000

    def test_build_keeps_no_structure_per_point(self):
        # what the nmax=4 trajectory holds beside its manifest: the memory
        # freed when only the manifest is kept, which holds the blocks'
        # tables. A list with one entry per point would be 1.95 MB.
        tracemalloc.start()
        try:
            traj = build_log_infty(4)
            manifest = traj.manifest
            kept = tracemalloc.get_traced_memory()[0]
            del traj
            kept -= tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert manifest.blocks[-1].end == 243994
        assert kept < 1_000_000
