"""Search engine: realizers, independence, maxima, certificates."""

import itertools
import random
import time
import tracemalloc

import pytest

from _oracles import (
    materialize,
    naive_frontier_sizes,
    naive_has_child,
    naive_is_independence_set,
    naive_max_independence,
    naive_orbit_starts,
    naive_satisfiable,
    random_small_build,
    random_times,
    random_tuple,
)
from seqent import independence
from seqent.construct import build_log_infty
from seqent.errors import CapExceeded, InvalidConfig, ResourceBudgetExceeded
from seqent.formats import replay_certificate
from seqent.independence import (
    ExhaustionCertificate,
    SearchBudget,
    is_independence_set,
    max_independence,
    occupancy,
    shift_property_check,
)
from seqent.model import (
    FAMILY_LOG_INFTY,
    FAMILY_LOG_M,
    KIND_HEAD_INF,
    ModelPoint,
    NeighborhoodSpec,
    Symbol,
    head_member,
    itinerary_hits,
)


def U(center, level, offset=0):
    return NeighborhoodSpec(center, level, offset)


class TestOccupancy:
    def test_level_one_origin_hits(self, m2k3):
        vec = occupancy(U(Symbol.head(0), 1), m2k3)
        block_end = m2k3.block_range(1)[1]
        assert sum(1 for t in vec.times if t <= block_end) == 8
        assert len(vec.times) == 96

    def test_bitmask_matches_membership(self, dense2):
        vec = occupancy(U(Symbol.dense(2), 1), dense2)
        mask = vec.as_int()
        for t in range(dense2.n_points):
            assert bool((mask >> t) & 1) == (t in vec.times)

    def test_limit_head_center_rejected_on_dense_family(self):
        # the dense family has no limit head, so U(a_inf) names nothing
        traj = build_log_infty(1)
        spec = U(Symbol.head_inf(), 1)
        with pytest.raises(InvalidConfig):
            occupancy(spec, traj)
        for specs in ((spec,), (U(Symbol.dense(1), 1), spec)):
            with pytest.raises(InvalidConfig):
                max_independence(specs, cap=3, traj=traj)


def _check_fold(J, specs, traj, horizon, start_range=None):
    """is_independence_set checked against naive_satisfiable.

    The assignments are walked in product order up to the oracle's first
    unrealizable one, which must be the result's ``failing``. An orbit
    witness must be the oracle's first orbit start; a head witness must
    realize its assignment by definition.
    """
    res = is_independence_set(J, specs, traj, horizon=horizon,
                              start_range=start_range)
    syms = materialize(traj, horizon)
    label = (traj.family, J, horizon, start_range,
             [s.render() for s in specs])
    failing = None
    for sigma in itertools.product(range(len(specs)), repeat=len(J)):
        want = naive_satisfiable(J, sigma, specs, traj, horizon=horizon,
                                 start_range=start_range, syms=syms)
        if want is None:
            failing = sigma
            break
        if not res.ok:
            continue
        got = res.witness.realizers[sigma]
        if start_range is None and all(
                specs[c].center.kind == KIND_HEAD_INF for c in sigma):
            # the limit head answers these before any orbit start
            assert got == ModelPoint.head(Symbol.head_inf()), label
        elif want[0] == "orbit":
            assert got == ModelPoint.orbit(want[1]), label
        else:
            assert not got.is_orbit, label
            assert itinerary_hits(got, J, tuple(specs[c] for c in sigma),
                                  traj), label
    assert res.failing == failing, label
    assert res.ok == (failing is None), label
    return res


class TestSatisfiable:
    """Single assignments, read from is_independence_set's witness table
    or its first failing assignment."""

    def test_block_times_are_realizable(self, m2k3):
        block = m2k3.manifest.block(2)
        specs = (U(Symbol.head(0), 2), U(Symbol.head(1), 2))
        res = is_independence_set(block.times, specs, m2k3)
        assert res.ok
        for sigma in ((0, 0, 1), (1, 0, 1), (1, 1, 0)):
            got = res.witness.realizers[sigma]
            assert got.is_orbit
            chosen = tuple(specs[c] for c in sigma)
            assert itinerary_hits(got, block.times, chosen, m2k3)

    def test_head_realizer_closed_form(self, m2k3):
        # at horizon 7 only x0 starts an orbit witness: the ascent from a_0
        # and the descent into a_0 across the infinity window need heads
        specs = (U(Symbol.head(0), 1), U(Symbol.head_inf(), 1))
        res = _check_fold((0, 7), specs, m2k3, 7)
        assert res.witness.realizers == {
            (0, 0): ModelPoint.orbit(0),
            (0, 1): ModelPoint.head(Symbol.head(0)),
            (1, 0): ModelPoint.head(Symbol.head(-7)),
            (1, 1): ModelPoint.head(Symbol.head_inf())}

    def test_limit_head_covers_pure_infinity(self, m2k3):
        specs = (U(Symbol.head_inf(), 1),)
        res = _check_fold((0,), specs, m2k3, 50)
        assert res.witness.realizers == {(0,): ModelPoint.head(
            Symbol.head_inf())}

    def test_start_range_restricts_realizers(self, m2k3):
        b2 = m2k3.manifest.block(2)
        specs = (U(Symbol.head(0), 1),)
        res = is_independence_set((0,), specs, m2k3,
                                  start_range=(b2.start, b2.end - 1))
        inside = res.witness.realizers[(0,)]
        assert inside.is_orbit and inside.time >= b2.start
        assert itinerary_hits(inside, (0,), specs, m2k3)
        none_left = _check_fold((0,), specs, m2k3, 50, start_range=(1, 6))
        assert none_left.failing == (0,)

    def test_negative_start_bound_is_clamped(self, m2k2):
        # the hit of a_0 at time 0 would make start -1 the first candidate
        specs = (U(Symbol.head(0), 1), U(Symbol.head(1), 1))
        res = _check_fold((1,), specs, m2k2, 100, start_range=(-50, 100))
        assert res.witness.realizers[(0,)] == ModelPoint.orbit(6)

    def test_head_clears_infinity_window_exactly(self, m2k2):
        # a_0 reaches a_t at time t, inside U1(a_inf) from the window on
        specs = (U(Symbol.head(0), 1), U(Symbol.head_inf(), 1))
        heads = independence._head_keys(specs, m2k2)
        for t in range(1, 9):
            got = independence._head_realizer((0, t), (0, 1), heads)
            if head_member(specs[1], Symbol.head(t), m2k2):
                assert got == ModelPoint.head(Symbol.head(0)), t
            else:
                assert got is None, t

    def test_start_range_rejects_infinity_centers(self, m2k3):
        # a restricted system holds orbit points only, and an infinity
        # neighborhood's orbit part is co-finite
        for specs in ((U(Symbol.head_inf(), 1),),
                      (U(Symbol.head(0), 1), U(Symbol.head_inf(), 2))):
            for J in ((), (0, 3)):
                with pytest.raises(ValueError, match="finite-center"):
                    is_independence_set(J, specs, m2k3, horizon=200,
                                        start_range=(1, 10**6))


class TestIsIndependenceSet:
    def test_block_one_pair(self, m2k3):
        block = m2k3.manifest.block(1)
        specs = (U(Symbol.head(0), 1), U(Symbol.head(1), 1))
        assert is_independence_set(block.times, specs, m2k3).ok

    def test_witness_table_is_complete_and_valid(self, m3k2):
        block = m3k2.manifest.block(1)
        specs = tuple(U(Symbol.head(i), 1) for i in range(3))
        res = is_independence_set(block.times, specs, m3k2)
        assert res.ok
        assert len(res.witness.realizers) == 3 ** len(block.times)
        from seqent.model import itinerary_hits
        for sigma, point in res.witness.realizers.items():
            chosen = tuple(specs[c] for c in sigma)
            assert itinerary_hits(point, block.times, chosen, m3k2)

    def test_failing_assignment_reported(self, m2k3):
        specs = (U(Symbol.head(0), 1), U(Symbol.head(1), 1))
        res = is_independence_set((0, 1, 2, 3), specs, m2k3, horizon=10 ** 6)
        assert not res.ok
        assert res.failing is not None

    def test_duplicate_times_rejected(self, m2k2):
        with pytest.raises(ValueError):
            is_independence_set((3, 3), (U(Symbol.head(0), 1),), m2k2)

    @pytest.mark.parametrize("call", [
        lambda traj: is_independence_set((0, 1), (), traj),
        lambda traj: max_independence((), cap=2, traj=traj),
        lambda traj: shift_property_check((0, 1), (), traj)],
        ids=["is_independence_set", "max_independence",
             "shift_property_check"])
    def test_empty_tuple_rejected(self, m2k2, call):
        with pytest.raises(ValueError, match="at least one neighborhood"):
            call(m2k2)

    def test_assignment_cap_raises(self, m2k2):
        specs = (U(Symbol.head(0), 1), U(Symbol.head(1), 1))
        times = tuple(range(18))
        assert 2 ** len(times) > independence.DEFAULT_ASSIGNMENT_CAP
        with pytest.raises(CapExceeded):
            is_independence_set(times, specs, m2k2)


class TestMaxIndependence:
    def test_far_pair_dies_at_pair_level(self, m2k3):
        specs = (U(Symbol.head(0), 1), U(Symbol.head(4), 1))
        res = max_independence(specs, cap=5, traj=m2k3,
                               horizon=m2k3.block_range(3)[1])
        assert res.length == 1
        cert = res.certificate
        assert cert is not None
        assert cert.died_level == 2
        assert cert.frontier_sizes == (1, 0)

    def test_adjacent_pair_reaches_cap(self, m2k3):
        specs = (U(Symbol.head(0), 1), U(Symbol.head(1), 1))
        res = max_independence(specs, cap=4, traj=m2k3)
        assert res.length == 4
        assert res.certificate is None

    def test_level_and_dfs_agree_on_capped_searches(self, m2k2):
        # a capped search stops at its first shape of the cap's size,
        # before the levels below are exhausted; the witness it stops at
        # must pass the full check of every assignment over the shape
        specs = (U(Symbol.head(0), 1), U(Symbol.head(1), 1))
        res = max_independence(specs, cap=3, traj=m2k2)
        assert res.length == 3
        assert res.certificate is None
        assert is_independence_set(res.witness.times, specs, m2k2).ok

    def test_fixed_head_answer_obeys_the_assignment_cap(self, m2k2):
        # the limit head lies in both neighborhoods; its table of 2^18
        # realizers is past the cap that is_independence_set enforces,
        # and spends no nodes, so only the cap can stop it
        specs = (U(Symbol.head_inf(), 1), U(Symbol.head_inf(), 2))
        assert 2 ** 18 > independence.DEFAULT_ASSIGNMENT_CAP
        with pytest.raises(CapExceeded, match="2\\^18 assignments"):
            max_independence(specs, cap=18, traj=m2k2,
                             budget=SearchBudget(max_nodes=1))
        res = max_independence(specs, cap=3, traj=m2k2)
        assert res.length == 3 and len(res.witness.realizers) == 8
        # 1^n assignments always pass, so the cap bounds the n times
        specs = (U(Symbol.head_inf(), 1),)
        cap = independence.DEFAULT_ASSIGNMENT_CAP
        assert m2k2.horizon + 1 > cap
        with pytest.raises(CapExceeded,
                           match=f"length {cap + 1} exceeds the cap {cap}"):
            max_independence(specs, cap=cap + 1, traj=m2k2)
        res = max_independence(specs, cap=cap, traj=m2k2)
        assert res.length == cap and res.certificate is None

    def test_huge_cap_allocates_by_the_sizes_reached(self, m2k2):
        # the per-size counts grow with the sizes the search reaches, not
        # with the cap; the first search fills the occupancy caches
        specs = (U(Symbol.head(0), 1), U(Symbol.head(3), 1))
        small = max_independence(specs, cap=5, traj=m2k2, horizon=10 ** 6)
        tracemalloc.start()
        try:
            res = max_independence(specs, cap=10 ** 6, traj=m2k2,
                                   horizon=10 ** 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.certificate == small.certificate._replace(
            target_length=10 ** 6)
        assert res.certificate.frontier_sizes == (1, 0)
        assert res.certificate.nodes_used == 36
        assert peak < 1_000_000

    def test_fixed_head_answer_is_bounded_by_the_horizon(self, m2k2):
        # the horizon bounds the answer and the budget its cost
        specs = (U(Symbol.head_inf(), 1),)
        with pytest.raises(ResourceBudgetExceeded):
            max_independence(specs, cap=10 ** 6, traj=m2k2, horizon=100,
                             budget=SearchBudget(max_nodes=1))
        budget = SearchBudget()
        res = max_independence(specs, cap=10 ** 6, traj=m2k2, horizon=100,
                               budget=budget)
        assert res.length == 101 and res.certificate is None
        assert res.witness.times == tuple(range(101))
        assert budget.nodes == 101

    def test_fixed_head_answer_charges_its_table_before_building_it(
            self, m2k2):
        # 2^17 realizers, one per assignment: a budget of 20 nodes, which
        # the 17 times fit, stops the answer before its table is built
        specs = (U(Symbol.head_inf(), 1), U(Symbol.head_inf(), 2))
        budget = SearchBudget()
        res = max_independence(specs, cap=3, traj=m2k2, budget=budget)
        assert len(res.witness.realizers) == 8 and budget.nodes == 8
        budget = SearchBudget(max_nodes=20)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceBudgetExceeded):
                max_independence(specs, cap=17, traj=m2k2, budget=budget)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert budget.nodes == 2 ** 17
        assert peak < 1_000_000

    def test_fixed_head_shortcut_matches_head_membership(self, m2k2, dense2):
        # the shortcut fires exactly when one fixed head lies in every
        # neighborhood: the limit head on the head-indexed family, whose
        # finite heads move, and a dense head on the dense family
        rng = random.Random(5050)
        fired = {FAMILY_LOG_M: 0, FAMILY_LOG_INFTY: 0}
        for i in range(120):
            traj = (m2k2, dense2)[i % 2]
            if traj.family == FAMILY_LOG_M:
                pool = [Symbol.head_inf(), Symbol.head(0), Symbol.head(1)]
                fixed = pool[:1]
            else:
                pool = fixed = [Symbol.dense(j) for j in (1, 2, 3)]
            k = rng.randrange(1, 4)
            if rng.random() < 0.5:
                centers = [rng.choice(pool)] * k  # one center, mixed levels
            else:
                centers = [rng.choice(pool) for _ in range(k)]
            specs = tuple(U(c, rng.randrange(1, 3)) for c in centers)
            inside = [h for h in fixed
                      if all(head_member(s, h, traj) for s in specs)]
            got = independence._fixed_head_everywhere(specs, traj)
            assert got == (ModelPoint.head(inside[0]) if inside else None), (
                traj.family, [s.render() for s in specs])
            fired[traj.family] += got is not None
        assert min(fired.values()) >= 10, fired

    def test_budget_exhaustion_raises(self, m2k3):
        specs = (U(Symbol.head(0), 1), U(Symbol.head_inf(), 1))
        with pytest.raises(ResourceBudgetExceeded):
            max_independence(specs, cap=5, traj=m2k3,
                             budget=SearchBudget(max_nodes=10))

    def test_five_dense_centers_die_at_block_three(self, dense4):
        # the search that dominates the log 5 evidence at the block-3
        # horizon: 933 pairs survive and no triple does
        horizon = dense4.block_range(3)[1]
        five = [U(Symbol.dense(j), 1) for j in range(1, 6)]
        res = max_independence(five, cap=4, traj=dense4, horizon=horizon)
        assert res.certificate.frontier_sizes == (1, 933, 0)
        assert res.certificate.died_level == 3
        # the search's work counter: one node per start per neighborhood
        # in every child table, as one filter per neighborhood spends,
        # and one per popcount of the dense pigeonhole count
        assert res.certificate.nodes_used == 11_609
        four = max_independence(five[:4], cap=4, traj=dense4,
                                horizon=horizon)
        assert four.certificate is None
        assert four.witness.times == (0, 9, 18, 27)

    def test_dead_pairs_build_one_group_of_their_tables(self, dense4,
                                                         monkeypatch):
        # the pigeonhole count skips 922 of the five-center refutation's
        # 933 pairs, which build no group; each of the 11 other pair
        # tables stops at its first group, the shortest parent list's;
        # only the final witness check of (0,) and its pair builds a full
        # table
        horizon = dense4.block_range(3)[1]
        five = [U(Symbol.dense(j), 1) for j in range(1, 6)]
        pulled = []
        shortest_first = []
        build = independence._extend_table

        def spy(shape, table, *args):
            pulled.append([len(table), 0])
            for i, sigma, lists in build(shape, table, *args):
                if not pulled[-1][1]:
                    shortest_first.append(
                        len(table[i]) == min(map(len, table)))
                pulled[-1][1] += 1
                yield i, sigma, lists

        monkeypatch.setattr(independence, "_extend_table", spy)
        res = max_independence(five, cap=4, traj=dense4, horizon=horizon)
        assert res.certificate.frontier_sizes == (1, 933, 0)
        assert res.certificate.died_level == 3
        assert pulled[:-1] == [[5, 1]] * 11
        assert pulled[-1] == [5, 5]
        assert all(shortest_first) and len(shortest_first) == 12


class TestSearchBudget:
    def test_bulk_spend_checks_the_clock(self):
        budget = SearchBudget(max_seconds=0)
        time.sleep(0.001)
        with pytest.raises(ResourceBudgetExceeded):
            for _ in range(1000):
                budget.spend(SearchBudget.CLOCK_EVERY - 1)
        assert budget.nodes < 3 * SearchBudget.CLOCK_EVERY

    def test_unit_spends_check_at_each_multiple(self):
        budget = SearchBudget(max_seconds=0)
        time.sleep(0.001)
        for _ in range(SearchBudget.CLOCK_EVERY - 1):
            budget.spend()
        with pytest.raises(ResourceBudgetExceeded):
            budget.spend()


def _dense_or_random_builds(rng, dense2, count):
    """Random small builds of both families plus random dense2 tuples."""
    for i in range(count):
        if i % 4 == 3:
            traj = dense2
            specs = tuple(U(Symbol.dense(rng.randrange(1, 6)),
                            rng.randrange(1, 3))
                          for _ in range(rng.randrange(1, 4)))
        else:
            traj = random_small_build(rng)
            specs = random_tuple(rng, traj)
        yield traj, specs


def _root_groups(occs, horizon):
    """The root table as the one group of the empty assignment."""
    return [(0, (), independence._root_table(occs, horizon))]


def _root_extensions(specs, traj, horizon, budget):
    """The candidate generator at the root (0,): the ascending d making
    (0, d) an independence set."""
    occs = [occupancy(s, traj) for s in specs]
    heads = independence._head_keys(specs, traj)
    return independence._extensions(
        (0,), _root_groups(occs, horizon), occs, heads, horizon, budget,
        independence._disjoint(occs, heads, horizon))[0]


def _center_index(specs, traj, horizon):
    """The center index a search at this horizon reads."""
    return independence._center_index(
        [occupancy(s, traj) for s in specs],
        independence._head_keys(specs, traj)[0], 1, horizon)


def _child_table(shape, table, d, occs, index, horizon, budget):
    """The full table of shape + (d,), in product order."""
    k = len(occs)
    child = [None] * (len(table) * k)
    for i, _, lists in independence._extend_table(shape, table, d, occs,
                                                  index, horizon, budget):
        child[i * k:i * k + k] = lists
    return child


class TestPairStage:
    def test_pair_diffs_match_oracle(self, dense2, m2k2):
        rng = random.Random(2718)
        cases = [(traj, specs, min(traj.horizon, rng.randrange(40, 121)))
                 for traj, specs in _dense_or_random_builds(rng, dense2, 48)]
        # every finite assignment admits d = 7 here; only the
        # infinity-centered ones rule it out
        cases.append((m2k2, (U(Symbol.head(3), 1), U(Symbol.head_inf(), 2)),
                      300))
        checked = 0
        for traj, specs, horizon in cases:
            if all(s.center.kind == KIND_HEAD_INF for s in specs):
                continue  # the limit head covers these before the pair stage
            got = _root_extensions(specs, traj, horizon, SearchBudget())
            syms = materialize(traj, horizon)
            want = tuple(d for d in range(1, horizon + 1)
                         if naive_is_independence_set((0, d), specs, traj,
                                                      horizon=horizon,
                                                      syms=syms))
            assert got == want, (traj.family, horizon,
                                 [s.render() for s in specs])
            checked += 1
        assert checked >= 10

    def test_dense_pair_stage_is_exact(self, dense2):
        specs = tuple(U(Symbol.dense(j), 1) for j in (1, 2, 3))
        got = _root_extensions(specs, dense2, dense2.horizon, SearchBudget())
        for d in range(1, 60):
            assert (d in got) == is_independence_set((0, d), specs, dense2).ok

    @pytest.mark.parametrize("label", ["level-shapes", "depth-first"],
                             ids=["level", "dfs"])
    def test_dense_certificate_replays_under_both_labels(self, label,
                                                         dense2):
        # the pairs that fixed dense heads realize count in the frontier;
        # the certificate, under either label a format-1 search wrote,
        # replays
        specs = (U(Symbol.dense(1), 1), U(Symbol.dense(2), 1))
        want = max_independence(specs, cap=6, traj=dense2)
        assert replay_certificate(
            want.certificate._replace(search=label),
            dense2) == (True, "certificate reproduced")
        assert want.certificate.frontier_sizes[1] == 166

    def test_max_independence_matches_oracle(self, dense2):
        rng = random.Random(1618)
        for traj, specs in _dense_or_random_builds(rng, dense2, 40):
            horizon = min(traj.horizon, rng.randrange(8, 19))
            want = naive_max_independence(specs, 3, traj, horizon=horizon)
            got = max_independence(specs, cap=3, traj=traj, horizon=horizon)
            assert got.length == want, (traj.family, horizon,
                                        [s.render() for s in specs])


class TestFrontiers:
    def test_searches_match_brute_force(self, dense2, m2k2):
        rng = random.Random(31415)
        cases = []
        for traj, specs in _dense_or_random_builds(rng, dense2, 40):
            if traj.family == FAMILY_LOG_M and rng.random() < 0.6:
                # adjacent centers share the block's designated times
                a = rng.randrange(-1, traj.m)
                specs = [U(Symbol.head(a + i), 1)
                         for i in range(rng.randrange(1, 3))]
                if len(specs) == 1 or rng.random() < 0.5:
                    specs.append(U(Symbol.head_inf(), 1))
                rng.shuffle(specs)
            if len({s.center for s in specs}) == 1:
                continue  # huge frontiers that dominate the brute force
            cases.append((traj, specs, min(traj.horizon,
                                           rng.randrange(40, 151))))
        for level in (1, 2):
            cases.append((dense2, (U(Symbol.dense(1), level),
                                   U(Symbol.dense(2), level)), 200))
        # no pair survives here, though every finite assignment admits d = 7
        cases.append((m2k2, (U(Symbol.head(3), 1), U(Symbol.head_inf(), 2)),
                      300))
        deep = with_inf = 0
        for traj, specs, horizon in cases:
            label = (traj.family, horizon, [s.render() for s in specs])
            want = naive_frontier_sizes(specs, 4, traj, horizon=horizon)
            res = max_independence(specs, cap=4, traj=traj, horizon=horizon)
            if res.certificate is None:
                assert res.length == len(want) == 4 and want[-1], label
            else:
                assert res.certificate.frontier_sizes == want, label
                assert res.certificate.died_level == len(want), label
            assert res.length == sum(1 for n in want if n), label
            assert naive_is_independence_set(
                res.witness.times, specs, traj, horizon=horizon), label
            deep += res.certificate is not None and len(want) >= 4
            with_inf += len(want) >= 3 and any(
                s.center.kind == KIND_HEAD_INF for s in specs)
        assert deep >= 2 and with_inf >= 3, (deep, with_inf)


    @pytest.mark.parametrize("name,centers,horizon,want", [
        ("dense2", ((1, 1), (2, 1)), 200, (1, 74, 7, 0)),
        ("dense2", ((1, 2), (2, 2), (3, 1)), 120, (1, 1, 0)),
        ("m2k2", ((3, 1), ("inf", 2)), 300, (1, 0)),
        ("m2k2", ((0, 1), (1, 1)), 150, (1, 0)),
        ("m2k2", ((-1, 1), ("inf", 1), (0, 1)), 100, (1, 0)),
        ("m2k2", ((0, 1), ("inf", 1)), 60, (1, 1, 0)),
    ])
    def test_brute_force_keeps_the_per_point_frontiers(self, request, name,
                                                       centers, horizon,
                                                       want):
        # frontiers of the brute force that read each (point, time)'s
        # classes through its own lookup, before it read them from rows
        traj = request.getfixturevalue(name)
        specs = tuple(U(Symbol.dense(c) if name == "dense2"
                        else Symbol.head_inf() if c == "inf"
                        else Symbol.head(c), level) for c, level in centers)
        assert naive_frontier_sizes(specs, 4, traj, horizon=horizon) == want


class TestPigeonholeRule:
    """The childless-survivor rule against the brute-force frontier. On
    pairwise disjoint neighborhoods a shape with a child list of fewer
    than k starts, with no head to help, is counted but never expanded:
    the head-indexed family counts its difference sets, the dense family
    its parent's shortest list by mask popcounts. Where neighborhoods
    overlap, the rule is off and every surviving shape below the cap is
    expanded: one ``_extensions`` call per shape, sum(frontier) in all."""

    @staticmethod
    def _search(traj, specs, horizon, monkeypatch):
        """(frontier, generator calls) of one cap-4 search, the frontier
        pinned to the brute-force one."""
        calls = []
        generate = independence._extensions
        monkeypatch.setattr(independence, "_extensions",
                            lambda *args: calls.append(1) or generate(*args))
        res = max_independence(specs, cap=4, traj=traj, horizon=horizon)
        monkeypatch.setattr(independence, "_extensions", generate)
        label = (horizon, [s.render() for s in specs])
        want = naive_frontier_sizes(specs, 4, traj, horizon=horizon)
        assert res.certificate is not None, label
        assert res.certificate.frontier_sizes == want, label
        assert res.certificate.died_level == len(want), label
        return want, len(calls)

    @staticmethod
    def _log_m_builds(seed, count):
        rng = random.Random(seed)
        while count:
            traj = random_small_build(rng)
            if traj.family == FAMILY_LOG_M:
                count -= 1
                yield rng, traj, min(traj.horizon, rng.randrange(40, 151))

    def test_rule_fires_on_disjoint_tuples(self, m2k2, monkeypatch):
        a0, inf = Symbol.head(0), Symbol.head_inf()
        for horizon in (40, 150):
            want, calls = self._search(m2k2, (U(a0, 1), U(inf, 1)), horizon,
                                       monkeypatch)
            assert want == (1, 1, 0) and calls < want[1] + 1, calls
        for rng, traj, horizon in self._log_m_builds(27182, 6):
            # adjacent centers with a_inf, as the log-m family's far pairs
            a = rng.randrange(-1, traj.m)
            specs = [U(Symbol.head(a + i), 1)
                     for i in range(rng.randrange(1, 3))] + [U(inf, 1)]
            rng.shuffle(specs)
            want, calls = self._search(traj, specs, horizon, monkeypatch)
            assert calls < want[1] + 1, (want, calls)

    def test_head_difference_is_exempt(self, monkeypatch):
        # a synthetic orbit of 7-time blocks x y _ _ _ z _, one per triple
        # over centers a0, a1, a5 but (a0, a1, a5), which head a0 realizes:
        # (0, 1)'s list for (a0, a1) holds 2 < k starts, yet the head
        # fills the third extension at 5, so (0, 1) has a child
        centers = (0, 1, 5)
        specs = tuple(U(Symbol.head(c), 1) for c in centers)
        hits = {c: [] for c in centers}
        triples = [t for t in itertools.product(centers, repeat=3)
                   if t != centers]
        for b, (x, y, z) in enumerate(triples):
            for off, c in ((0, x), (1, y), (5, z)):
                hits[c].append(7 * b + off)

        n_points = 7 * len(triples)
        occs = {s: independence.OccupancyVector(
            n_points, times=tuple(hits[s.center.index])) for s in specs}

        class Orbit:
            family = FAMILY_LOG_M
            horizon = n_points - 1
            _occ_cache = occs

        got, calls = [], []
        generate = independence._extensions
        monkeypatch.setattr(independence, "_extensions",
                            lambda *args: calls.append(1) or generate(*args))
        for disjoint in (True, False):
            calls.clear()
            monkeypatch.setattr(independence, "_disjoint",
                                lambda *args, on=disjoint: on)
            res = max_independence(specs, cap=4, traj=Orbit)
            got.append((res.certificate.frontier_sizes, len(calls)))
        (rule, pruned), (exact, full) = got
        assert rule == exact and rule[2] > 0 and pruned < full, got

    def test_rule_is_off_where_neighborhoods_overlap(self, m2k2,
                                                     monkeypatch):
        a0, inf = Symbol.head(0), Symbol.head_inf()
        # infinity_window(1) = 4 puts a4's hits inside U1(a_inf); a0 at
        # two levels, or at two thresholds, shares its hits
        cases = [(m2k2, (U(a0, 1), U(Symbol.head(4), 1), U(inf, 1)), 150),
                 (m2k2, (U(a0, 1), U(a0, 2)), 150)]
        for _, traj, horizon in self._log_m_builds(1, 3):
            cases += [(traj, (U(a0, 1), U(Symbol.head(4), 1), U(inf, 1)),
                       horizon),
                      (traj, (U(a0, 1), U(a0, 1, 1), U(inf, 1)), horizon)]
        grown = 0
        for traj, specs, horizon in cases:
            want, calls = self._search(traj, specs, horizon, monkeypatch)
            assert calls == sum(want), (want, calls)
            grown += want[1] > 0
        assert grown >= 4, grown


    def test_dense_rule_fires_on_distinct_centers(self, dense2,
                                                 monkeypatch):
        # distinct dense centers are disjoint at any levels; each shape
        # the count skips is one _extensions call fewer, and has no child
        skipped = []
        count = independence._dense_childless

        def spy(shape, *args):
            test = count(shape, *args)

            def childless(d):
                got = test(d)
                if got:
                    skipped.append(shape + (d,))
                return got
            return childless

        monkeypatch.setattr(independence, "_dense_childless", spy)
        cases = [((1, 2), (1, 1), 60), ((1, 2), (1, 2), 100),
                 ((2, 3), (1, 1), 150), ((1, 2, 3), (1, 1, 1), 150)]
        for centers, levels, horizon in cases:
            specs = tuple(U(Symbol.dense(c), level)
                          for c, level in zip(centers, levels))
            skipped.clear()
            want, calls = self._search(dense2, specs, horizon, monkeypatch)
            assert skipped and calls + len(skipped) == sum(want), (
                want, calls, skipped)
            syms = materialize(dense2, horizon)
            for shape in skipped:
                assert not naive_has_child(shape, specs, dense2, horizon,
                                           syms), (centers, shape)

    def test_dense_rule_is_off_for_a_repeated_center(self, dense2,
                                                     monkeypatch):
        # a center at two levels shares its hits
        grown = 0
        for centers, levels, horizon in [((1, 2, 2), (1, 1, 1), 60),
                                         ((1, 2, 2), (2, 2, 2), 150),
                                         ((2, 2, 3), (1, 2, 1), 150)]:
            specs = tuple(U(Symbol.dense(c), level)
                          for c, level in zip(centers, levels))
            want, calls = self._search(dense2, specs, horizon, monkeypatch)
            assert calls == sum(want), (want, calls)
            grown += want[1] > 0
        assert grown == 3, grown

    def test_dense_constant_list_is_exempt(self, monkeypatch):
        # a synthetic orbit of 7-time blocks x y _ _ _ z _, one per
        # non-constant triple over centers e1, e2, as dense heads realize
        # the constant ones: the root lists tie, so e1's is the counted
        # one, and (0, 1)'s list for the constant (e1, e1) holds 1 < k
        # starts, yet head e1 fills (e1, e1, e1), so (0, 1) has a child
        specs = (U(Symbol.dense(1), 1), U(Symbol.dense(2), 1))
        hits = {1: [], 2: []}
        triples = [t for t in itertools.product((1, 2), repeat=3)
                   if len(set(t)) > 1]
        for b, (x, y, z) in enumerate(triples):
            for off, c in ((0, x), (1, y), (5, z)):
                hits[c].append(7 * b + off)

        n_points = 7 * len(triples)
        occs = {s: independence.OccupancyVector(
            n_points, times=tuple(hits[s.center.index])) for s in specs}

        class Orbit:
            family = FAMILY_LOG_INFTY
            horizon = n_points - 1
            _occ_cache = occs

        got, calls = [], []
        generate = independence._extensions
        monkeypatch.setattr(independence, "_extensions",
                            lambda *args: calls.append(1) or generate(*args))
        for disjoint in (True, False):
            calls.clear()
            monkeypatch.setattr(independence, "_disjoint",
                                lambda *args, on=disjoint: on)
            res = max_independence(specs, cap=4, traj=Orbit)
            got.append((res.certificate.frontier_sizes, len(calls)))
            assert res.witness.times == (0, 1, 5), got
        (rule, pruned), (exact, full) = got
        assert rule == exact and rule[2] > 0 and pruned < full, got


def _assert_table_is_exact(shape, table, specs, traj, horizon, syms):
    """Each assignment's list equals every orbit start realizing it."""
    sigmas = itertools.product(range(len(specs)), repeat=len(shape))
    for sigma, starts in zip(sigmas, table):
        if all(specs[c].center.kind == KIND_HEAD_INF for c in sigma):
            assert starts is None
        else:
            assert starts == naive_orbit_starts(
                shape, sigma, specs, traj, horizon, syms), (
                shape, sigma, [s.render() for s in specs])
    return len(table)


class TestRealizerTables:
    def test_tables_list_every_orbit_start(self, dense2):
        rng = random.Random(2024)
        checked = 0
        for traj, specs in _dense_or_random_builds(rng, dense2, 40):
            if all(s.center.kind == KIND_HEAD_INF for s in specs):
                continue  # the limit head covers these before any search
            occs = [occupancy(s, traj) for s in specs]
            horizon = min(traj.horizon, rng.randrange(40, 121))
            # a hit just past the horizon realizes nothing
            edges = [b - 1 for occ in occs if not occ.complement
                     for b in occ.times if 40 < b <= horizon]
            if edges and rng.random() < 0.5:
                horizon = rng.choice(edges)
            syms = materialize(traj, horizon)
            budget = SearchBudget()
            viable = set(_root_extensions(specs, traj, horizon, budget))
            index = _center_index(specs, traj, horizon)
            for _walk in range(3):
                # extend along random shapes whose pairs all survive
                shape = (0,)
                table = independence._root_table(occs, horizon)
                while True:
                    checked += _assert_table_is_exact(shape, table, specs,
                                                      traj, horizon, syms)
                    ds = [d for d in range(shape[-1] + 1, horizon + 1)
                          if all(d - s in viable for s in shape)]
                    if not ds or len(shape) == 4:
                        break
                    d = rng.choice(ds)
                    table = _child_table(shape, table, d, occs, index,
                                         horizon, budget)
                    shape += (d,)
        assert checked >= 200


def _filtered_groups(shape, table, d, occs, horizon):
    """Reference for ``_extend_table``: per list of ``table``, the k lists
    of shape + (d,) made by one membership filter per neighborhood, and
    the nodes the group spends."""
    k = len(occs)
    hits = [set(occ.times or ()) for occ in occs]
    misses = [set(occ.miss_times or ()) for occ in occs]
    sigmas = itertools.product(range(k), repeat=len(shape))
    groups = {}
    for i, (sigma, starts) in enumerate(zip(sigmas, table)):
        lists, spent = [], 0
        for c, occ in enumerate(occs):
            if starts is not None:
                kept = [u for u in starts if u + d <= horizon]
                spent += len(kept)
                lists.append(tuple(u for u in kept if (
                    u + d not in misses[c] if occ.complement
                    else u + d in hits[c])))
            elif occ.complement:
                lists.append(None)
            else:
                # anchored on A_c's hits, each earlier time inside its
                # infinity neighborhood
                anchored = [b - d for b in occ.times if d <= b <= horizon]
                spent += len(anchored)
                lists.append(tuple(
                    u for u in anchored
                    if all(u + t not in misses[s] for t, s in zip(shape,
                                                                   sigma))))
        groups[i] = (sigma, lists, spent)
    return groups


class TestCenterPartition:
    """``_extend_table``'s one pass over the starts against one filter per
    neighborhood, nodes included."""

    def test_groups_match_per_neighborhood_filters(self, dense2, m2k2):
        rng = random.Random(4649)
        e, a = Symbol.dense, Symbol.head
        cases = list(_dense_or_random_builds(rng, dense2, 60))
        cases += [
            # distinct finite centers, one of them at two levels
            (dense2, (U(e(1), 1), U(e(2), 2), U(e(3), 1))),
            (dense2, (U(e(2), 1), U(e(2), 2), U(e(3), 1))),
            (dense2, (U(e(1), 2), U(e(4), 1), U(e(1), 1), U(e(5), 2))),
            # a threshold past the build leaves one of e2's lists empty
            (dense2, (U(e(2), 1), U(e(2), 1, 400), U(e(3), 1))),
            # one finite center, with a_inf or at two levels
            (m2k2, (U(a(0), 1), U(Symbol.head_inf(), 1))),
            (m2k2, (U(a(1), 1), U(a(1), 1), U(Symbol.head_inf(), 2))),
            (m2k2, (U(a(0), 2), U(a(0), 1))),
            (dense2, (U(e(2), 2), U(e(2), 1)))]
        seen = {"distinct": 0, "one-with-inf": 0, "repeated": 0}
        for traj, specs in cases:
            if all(s.center.kind == KIND_HEAD_INF for s in specs):
                continue
            occs = [occupancy(s, traj) for s in specs]
            horizon = min(traj.horizon, rng.randrange(40, 367))
            if traj is m2k2:
                horizon = traj.horizon
            index = _center_index(specs, traj, horizon)
            finite = [s.center for s in specs
                      if s.center.kind != KIND_HEAD_INF]
            kinds = []
            if len(set(finite)) >= 2:
                kinds.append("distinct")
            if len(set(finite)) == 1 and len(finite) < len(specs):
                kinds.append("one-with-inf")
            if len(finite) > len(set(finite)):
                kinds.append("repeated")
            label = (traj.family, horizon, [s.render() for s in specs])
            shape, table = (0,), independence._root_table(occs, horizon)
            while len(shape) < 4:
                # a step of some hit past some start keeps lists nonempty
                pairs = [(u, b) for starts in table if starts
                         for u in starts[:4] for occ in occs
                         if not occ.complement for b in occ.times[:8]
                         if shape[-1] < b - u <= horizon]
                if not pairs:
                    break
                u, b = rng.choice(pairs)
                d = b - u
                want = _filtered_groups(shape, table, d, occs, horizon)
                budget = SearchBudget()
                got = {}
                before = 0
                for i, sigma, lists in independence._extend_table(
                        shape, table, d, occs, index, horizon, budget):
                    got[i] = (sigma, lists, budget.nodes - before)
                    before = budget.nodes
                assert got == want, (label, shape, d)
                # shortest parent list first, None lists last
                sizes = [(table[i] is None, len(table[i] or ())) for i in got]
                assert sizes == sorted(sizes), label
                for kind in kinds:
                    seen[kind] += sum(bool(x) for _, lists, _ in got.values()
                                      for x in lists)
                child = [None] * (len(table) * len(occs))
                for i, (_, lists, _) in got.items():
                    child[i * len(occs):(i + 1) * len(occs)] = lists
                shape, table = shape + (d,), tuple(child)
        assert min(seen.values()) >= 20, seen

    def test_fold_spends_the_reference_nodes(self, dense2, m2k2):
        # is_independence_set's index covers the lists anchored after an
        # all-infinity prefix too, which start below J[0]
        rng = random.Random(1729)
        cases = list(_dense_or_random_builds(rng, dense2, 80))
        cases += [(m2k2, (U(Symbol.head_inf(), 1), U(Symbol.head(0), 1),
                          U(Symbol.head(1), 1)))] * 10
        anchored = 0
        for traj, specs in cases:
            if all(s.center.kind == KIND_HEAD_INF for s in specs):
                continue
            occs = [occupancy(s, traj) for s in specs]
            horizon = min(traj.horizon, rng.randrange(40, 121))
            # short steps after a late first time: a list anchored at the
            # second time is read at the third below J[1]
            span = min(20, horizon // 2)
            t0 = rng.randrange(1, horizon - span + 1)
            J = (t0,) + tuple(sorted(rng.sample(range(t0 + 1,
                                                      t0 + span + 1), 3)))
            shape = tuple(t - t0 for t in J)
            table = independence._root_table(occs, horizon - shape[-1], t0)
            spent = 0
            for n in range(1, len(shape)):
                groups = _filtered_groups(shape[:n], table, shape[n], occs,
                                          horizon)
                spent += sum(g[2] for g in groups.values())
                anchored += any(table[i] is None and any(g[1])
                                for i, g in groups.items())
                table = [x for i in range(len(table)) for x in groups[i][1]]
            budget = SearchBudget()
            is_independence_set(J, specs, traj, horizon=horizon,
                                budget=budget)
            assert budget.nodes == spent, (traj.family, J, horizon,
                                           [s.render() for s in specs])
        assert anchored >= 10, anchored


class TestExtensions:
    """The candidate generator against one set check per d."""

    def test_generated_sets_match_per_d_extension(self, dense2, m2k2):
        # the reference folds a table per d, with none of the generator's
        # set algebra
        rng = random.Random(8128)
        cases = list(_dense_or_random_builds(rng, dense2, 60))
        # shared dense centers; infinity neighborhoods beside finite ones
        cases += [(dense2, (U(Symbol.dense(2), 1), U(Symbol.dense(2), 2),
                            U(Symbol.dense(3), 1))),
                  (m2k2, (U(Symbol.head(0), 1), U(Symbol.head_inf(), 1))),
                  (m2k2, (U(Symbol.head(3), 1), U(Symbol.head_inf(), 2))),
                  (m2k2, (U(Symbol.head_inf(), 1), U(Symbol.head(1), 1),
                          U(Symbol.head(0), 2)))]
        sizes = [0] * 4
        deep_inf = childless_seen = 0
        for traj, specs in cases:
            if all(s.center.kind == KIND_HEAD_INF for s in specs):
                continue  # the limit head answers these before any search
            occs = [occupancy(s, traj) for s in specs]
            heads = independence._head_keys(specs, traj)
            horizon = min(traj.horizon, rng.randrange(40, 121))
            label = (traj.family, horizon, [s.render() for s in specs])
            index = _center_index(specs, traj, horizon)

            disjoint = independence._disjoint(occs, heads, horizon)

            shape = (0,)
            ds, childless, table = independence._extensions(
                shape, _root_groups(occs, horizon), occs, heads, horizon,
                SearchBudget(), disjoint)
            while True:
                want = tuple(d for d in range(shape[-1] + 1, horizon + 1)
                             if is_independence_set(shape + (d,), specs, traj,
                                                    horizon=horizon).ok)
                assert ds == want, (label, shape)
                sizes[len(shape)] += 1
                deep_inf += len(shape) > 1 and any(
                    s.center.kind == KIND_HEAD_INF for s in specs)
                if not want or len(shape) == 3:
                    break
                d = rng.choice(want)
                pruned = childless(d)
                ds, childless, table_d = independence._extensions(
                    shape + (d,), independence._extend_table(
                        shape, table, d, occs, index, horizon,
                        SearchBudget()),
                    occs, heads, horizon, SearchBudget(), disjoint)
                # a shape the pigeonhole count called childless has none
                assert not (pruned and ds), (label, shape, d)
                childless_seen += pruned
                # a surviving shape comes with its full table
                full = _child_table(shape, table, d, occs, index, horizon,
                                    SearchBudget())
                if ds:
                    assert table_d == tuple(full), label
                shape, table = shape + (d,), table_d
        assert min(sizes[1:]) >= 10 and deep_inf >= 4, (sizes, deep_inf)
        assert childless_seen >= 5, childless_seen

    def test_cofinite_heads_match_head_index(self, m2k2):
        # with no orbit start and no hit to anchor on, only a closed-form
        # head realizes a co-finite assignment: the generator's index test
        # must agree with _head_index at every d, window edges included
        specs = (U(Symbol.head(0), 1), U(Symbol.head_inf(), 1),
                 U(Symbol.head(-3), 2), U(Symbol.head_inf(), 3))
        heads = independence._head_keys(specs, m2k2)
        centers = heads[0]
        occs = [occupancy(s, m2k2) if centers[i] is None
                else independence.OccupancyVector(m2k2.n_points, times=())
                for i, s in enumerate(specs)]
        horizon = 40
        partial = 0
        for shape in ((0,), (0, 2), (0, 5, 9)):
            live = set(range(shape[-1] + 1, horizon + 1))
            for sigma in itertools.product(range(4), repeat=len(shape)):
                pure = all(centers[s] is None for s in sigma)
                for c in range(4):
                    if pure == (centers[c] is None):
                        continue  # the limit head's, or not co-finite
                    idx = (None if pure else
                           independence._head_index(shape, sigma, heads))
                    got = independence._cofinite_kept(
                        live, shape, sigma, c, None if pure else (), idx,
                        occs, heads, horizon, SearchBudget())
                    want = {d for d in live if independence._head_index(
                        shape + (d,), sigma + (c,), heads) is not None}
                    assert got == want, (shape, sigma, c)
                    partial += 0 < len(want) < len(live)
        assert partial >= 20, partial

    def test_tuple_without_finite_center_is_an_internal_error(self, m2k2):
        specs = (U(Symbol.head_inf(), 1), U(Symbol.head_inf(), 2))
        occs = [occupancy(s, m2k2) for s in specs]
        with pytest.raises(RuntimeError, match="anchor") as info:
            independence._extensions(
                (0,), _root_groups(occs, 50), occs,
                independence._head_keys(specs, m2k2), 50, SearchBudget(),
                False)
        assert not isinstance(info.value, ValueError)

    @pytest.mark.parametrize("case", ["bitmask", "head-indexed"])
    def test_budget_stops_bulk_generation(self, case, dense2, m2k2,
                                          monkeypatch):
        if case == "head-indexed":
            traj = m2k2
            specs = (U(Symbol.head(0), 1), U(Symbol.head_inf(), 1))
        else:
            traj = dense2
            specs = tuple(U(Symbol.dense(j), 1) for j in (1, 2, 3))
        # for the first generator pass below the root whose first group
        # costs nodes to build and then to read: the nodes spent before
        # the pass, and once that group is built
        entries = []
        generate = independence._extensions

        def spy(shape, groups, occs, heads, horizon, budget, disjoint):
            before = budget.nodes
            marks = []

            def watched():
                for group in groups:
                    marks.append(budget.nodes)
                    yield group
                    marks.append(budget.nodes)

            out = generate(shape, watched(), occs, heads, horizon, budget,
                           disjoint)
            read = marks[1] if len(marks) > 1 else budget.nodes
            if len(shape) > 1 and before < marks[0] < read:
                entries.append((before, marks[0]))
            return out

        monkeypatch.setattr(independence, "_extensions", spy)
        max_independence(specs, cap=5, traj=traj)
        monkeypatch.setattr(independence, "_extensions", generate)
        assert entries
        before, built = entries[0]
        for nodes, tail in ((before, ["_extensions", "_extend_table"]),
                            (built, ["_extensions"])):
            with pytest.raises(ResourceBudgetExceeded) as info:
                max_independence(specs, cap=5, traj=traj,
                                 budget=SearchBudget(max_nodes=nodes))
            names = [entry.name for entry in info.traceback]
            assert names[-len(tail) - 1:] == tail + ["spend"], names


class TestShiftProperty:
    def test_block_times_shift(self, m2k3):
        for k in (2, 3):
            block = m2k3.manifest.block(k)
            specs = (U(Symbol.head(0), k), U(Symbol.head(1), k))
            assert shift_property_check(block.times, specs, m2k3)

    def test_needs_two_times(self, m2k2):
        with pytest.raises(ValueError):
            shift_property_check((0,), (U(Symbol.head(0), 1),), m2k2)

    def test_rejects_dense_family(self, dense2):
        with pytest.raises(ValueError):
            shift_property_check((0, 3), (U(Symbol.dense(1), 1),), dense2)


class TestCertificateShape:
    def test_certificate_fields(self, m2k2):
        specs = (U(Symbol.head(0), 1), U(Symbol.head(5), 1))
        res = max_independence(specs, cap=3, traj=m2k2)
        cert = res.certificate
        assert isinstance(cert, ExhaustionCertificate)
        assert cert.target_length == 3
        assert cert.search == "level-shapes"
        assert cert.nodes_used > 0
        assert cert.frontier_sizes[-1] == 0


class TestEngineAgainstOracle:
    def test_randomized_agreement_small_sample(self):
        rng = random.Random(424242)
        for _ in range(120):
            traj = random_small_build(rng)
            horizon = min(traj.horizon, rng.randrange(40, 201))
            specs = random_tuple(rng, traj)
            J = random_times(rng, horizon)
            got = is_independence_set(J, specs, traj, horizon=horizon).ok
            want = naive_is_independence_set(J, specs, traj, horizon=horizon)
            assert got == want, (traj.family, J,
                                 [s.render() for s in specs])

    def test_randomized_satisfiable_agreement(self):
        rng = random.Random(99)
        for _ in range(120):
            traj = random_small_build(rng)
            horizon = min(traj.horizon, rng.randrange(40, 151))
            specs = random_tuple(rng, traj)
            J = random_times(rng, horizon)
            _check_fold(J, specs, traj, horizon)

    def test_fold_matches_oracle(self, dense2):
        # witnesses per assignment, and the lexicographically first failure
        rng = random.Random(8128)
        cases = []
        for traj, specs in _dense_or_random_builds(rng, dense2, 80):
            if traj.family == FAMILY_LOG_M and rng.random() < 0.4:
                # all-infinity assignments, with and without heads
                specs = specs[:2] + (U(Symbol.head_inf(),
                                       rng.randrange(1, 3)),)
            horizon = min(traj.horizon, rng.randrange(40, 151))
            J = tuple(t + 1 for t in random_times(rng, horizon - 1))
            lo = rng.randrange(0, horizon // 2)
            width = rng.choice((8, horizon))
            start_range = (lo, lo + rng.randrange(0, width))
            cases.append((traj, specs, J, horizon, None))
            if all(s.center.kind != KIND_HEAD_INF for s in specs):
                # restricted systems take finite centers only
                cases.append((traj, specs, J, horizon, start_range))
            if rng.random() < 0.5:
                # a shifted independent shape, so that witness tables show
                shape = max_independence(specs, cap=3, traj=traj,
                                         horizon=horizon).witness.times
                shift = rng.randrange(1, 30)
                if shape[-1] + shift <= horizon:
                    cases.append((traj, specs,
                                  tuple(t + shift for t in shape), horizon,
                                  None))
        for n in (1, 2):
            # in-block starts only, as the dense block check asks
            block = dense2.manifest.block(n)
            specs = tuple(U(Symbol.dense(j), n) for j in range(1, n + 2))
            cases.append((dense2, specs, block.times, dense2.horizon,
                          (block.start, block.end - 1 - block.times[-1])))
        tables = restricted = all_inf = 0
        for traj, specs, J, horizon, start_range in cases:
            res = _check_fold(J, specs, traj, horizon, start_range)
            if res.ok:
                all_inf += sum(
                    all(specs[c].center.kind == KIND_HEAD_INF for c in sigma)
                    for sigma in res.witness.realizers)
            tables += res.ok and J[0] > 0
            restricted += res.ok and start_range is not None
        assert tables >= 20 and all_inf >= 10, (tables, all_inf)
        assert restricted >= 5, restricted

    def test_randomized_start_range_agreement(self):
        # restricted systems hold orbit points only, first start ascending
        rng = random.Random(77)
        for _ in range(120):
            traj = random_small_build(rng)
            horizon = min(traj.horizon, rng.randrange(40, 151))
            specs = random_tuple(rng, traj)
            J = random_times(rng, horizon)
            # the fold always checks the first assignment, so its starts
            # give the adversarial lower bound
            starts = naive_orbit_starts(J, (0,) * len(J), specs, traj,
                                        horizon)
            if starts and rng.random() < 0.5:
                lo = rng.choice(starts) + 1  # starts just below are out
            else:
                lo = rng.randrange(0, horizon // 2)
            start_range = (lo, lo + rng.randrange(0, horizon))
            if any(s.center.kind == KIND_HEAD_INF for s in specs):
                with pytest.raises(ValueError, match="finite-center"):
                    is_independence_set(J, specs, traj, horizon=horizon,
                                        start_range=start_range)
            else:
                _check_fold(J, specs, traj, horizon, start_range)
