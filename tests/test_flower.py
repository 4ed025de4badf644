"""Petal composition, mode calculus, and cross-petal separation."""

import re

import pytest

from seqent.construct import build_log_m, minimal_schedule
from seqent.errors import InvalidConfig, ResourceBudgetExceeded
from seqent.flower import (
    MODE_ACTIVE,
    MODE_COLLAPSED,
    MODE_FROZEN,
    PetalSystem,
    Value,
    _cross_pair_search,
    compose,
    cross_petal_check,
    value_calculus,
)
from seqent.independence import SearchBudget


@pytest.fixture(scope="module")
def petals():
    p2 = PetalSystem("p2", Value.log(2), build_log_m(2, 2, minimal_schedule(2, 2)))
    p3 = PetalSystem("p3", Value.log(3), build_log_m(3, 2, minimal_schedule(3, 2)))
    return p2, p3


class TestValue:
    def test_ordering(self):
        assert Value.zero().sort_key < Value.log(2).sort_key
        assert Value.log(2).sort_key < Value.log(3).sort_key
        assert Value.log(99).sort_key < Value.infinity().sort_key

    def test_render_and_parse(self):
        values = (Value.zero(), Value.log(2), Value.log(7), Value.infinity())
        assert [v.render() for v in values] == ["0", "log 2", "log 7", "inf"]


class TestPetalValidation:
    def test_declared_value_must_match_trajectory(self):
        traj = build_log_m(2, 1, minimal_schedule(2, 1))
        with pytest.raises(InvalidConfig):
            PetalSystem("bad", Value.log(3), traj)

    def test_declared_only_petal_is_fine(self):
        p = PetalSystem("abstract", Value.log(7))
        assert p.trajectory is None


class TestCompose:
    def test_duplicate_ids_rejected(self, petals):
        p2, _ = petals
        with pytest.raises(InvalidConfig):
            compose([p2, p2])

    def test_unknown_mode_rejected(self, petals):
        p2, p3 = petals
        with pytest.raises(InvalidConfig):
            compose([p2, p3], {"p2": "melted"})

    def test_collapse_needs_active_target(self, petals):
        p2, p3 = petals
        with pytest.raises(InvalidConfig):
            compose([p2, p3], {"p2": MODE_COLLAPSED}, {"p2": "p9"})
        with pytest.raises(InvalidConfig):
            compose([p2, p3],
                    {"p2": MODE_COLLAPSED, "p3": MODE_FROZEN},
                    {"p2": "p3"})

    def test_non_collapsed_cannot_name_target(self, petals):
        p2, p3 = petals
        with pytest.raises(InvalidConfig):
            compose([p2, p3], {}, {"p2": "p3"})

    def test_single_petal_composite(self, petals):
        p2, _ = petals
        comp = compose([p2])
        assert value_calculus(comp) == Value.log(2)


class TestValueCalculus:
    def test_active_pair_takes_the_larger_base(self, petals):
        comp = compose(list(petals))
        assert value_calculus(comp) == Value.log(3)

    def test_all_frozen_is_zero(self, petals):
        p2, p3 = petals
        comp = compose([p2, p3], {"p2": MODE_FROZEN, "p3": MODE_FROZEN})
        assert value_calculus(comp) == Value.zero()

    def test_freezing_the_top_petal_lowers_the_value(self, petals):
        p2, p3 = petals
        comp = compose([p2, p3], {"p3": MODE_FROZEN})
        assert value_calculus(comp) == Value.log(2)

    def test_collapsing_never_increases_the_value(self, petals):
        p2, p3 = petals
        full = value_calculus(compose([p2, p3]))
        collapsed = value_calculus(
            compose([p2, p3], {"p3": MODE_COLLAPSED}, {"p3": "p2"}))
        assert collapsed.sort_key <= full.sort_key

    def test_unbounded_family_tops_out(self, petals):
        comp = compose(list(petals), unbounded_family=True)
        assert value_calculus(comp) == Value.infinity()

    def test_unbounded_family_with_nothing_active_is_zero(self, petals):
        p2, p3 = petals
        comp = compose([p2, p3], {"p2": MODE_FROZEN, "p3": MODE_FROZEN},
                       unbounded_family=True)
        assert value_calculus(comp) == Value.zero()


class TestCrossPetalCheck:
    def test_no_cross_pairs_and_in_petal_evidence(self, petals):
        comp = compose(list(petals))
        rep = cross_petal_check(comp)
        assert rep.passed, rep.counterexample
        assert len(rep.certificates) == 2
        for cert in rep.certificates:
            assert cert.died_level == 2
            assert cert.frontier_sizes == (1, 0)
        joined = "\n".join(rep.details)
        assert "p2: in-petal pair independent at difference 7" in joined
        assert "p3: in-petal pair independent at difference 9" in joined

    def test_identical_petals_stay_apart(self, petals):
        # only the petal tags keep the mixed assignments of two copies of
        # one system from being realized at the copy's own differences
        p2, _ = petals
        twin = PetalSystem("q", Value.log(2), p2.trajectory)
        rep = cross_petal_check(compose([PetalSystem(
            "p", Value.log(2), p2.trajectory), twin]))
        assert rep.passed, rep.counterexample
        assert [c.frontier_sizes for c in rep.certificates] == [(1, 0)] * 2

    def test_surviving_cross_pair_has_no_certificate(self, petals):
        # a petal paired with itself shares its id, so every assignment is
        # realized inside one petal and the pair survives: there is no
        # exhaustion to certify, only the surviving difference to name
        p2, _ = petals
        cert, bad = _cross_pair_search(p2, p2)
        assert cert is None
        assert re.fullmatch(r"cross pair p2:p2 realized a mixed assignment "
                            r"at difference \d+", bad)

    def test_budget_bounds_the_check(self, petals):
        comp = compose(list(petals))
        with pytest.raises(ResourceBudgetExceeded):
            cross_petal_check(comp, budget=SearchBudget(max_nodes=1))
        # each cross pair spends |H_i| * |H_j| per assignment, which its
        # certificate records apart from the shared budget
        budget = SearchBudget()
        rep = cross_petal_check(comp, budget=budget)
        assert rep.passed, rep.counterexample
        assert [c.nodes_used for c in rep.certificates] == [
            c.nodes_used for c in cross_petal_check(comp).certificates]
        assert budget.nodes > sum(c.nodes_used for c in rep.certificates)

    def test_needs_two_built_active_petals(self, petals):
        p2, _ = petals
        with pytest.raises(InvalidConfig):
            cross_petal_check(compose([p2]))

    def test_frozen_petals_do_not_count(self, petals):
        p2, p3 = petals
        comp = compose([p2, p3], {"p3": MODE_FROZEN})
        with pytest.raises(InvalidConfig):
            cross_petal_check(comp)
