"""Independence-based lower bounds for the supremum sequence entropy."""

import math
import random

import pytest

import seqent.entropy
import seqent.independence
from _oracles import search_h_star_lower_bound
from seqent.entropy import HStarEvidence, h_star_lower_bound
from seqent.errors import ResourceBudgetExceeded
from seqent.independence import SearchBudget
from seqent.model import Symbol


def _no_search(*_args, **_kwargs):
    raise AssertionError("the search ran")


class TestHStarLowerBound:
    def test_log_m_evidence(self, m3k2):
        ev = h_star_lower_bound(m3k2, [Symbol.head(i) for i in range(3)],
                                cap=3)
        assert isinstance(ev, HStarEvidence)
        assert ev.p == 3
        assert ev.value == pytest.approx(math.log(3))
        assert ev.per_level == {1: 3, 2: 3}

    def test_m2_evidence(self, m2k2):
        ev = h_star_lower_bound(m2k2, [Symbol.head(0), Symbol.head(1)],
                                cap=3)
        assert ev.p == 2
        assert ev.value == pytest.approx(math.log(2))

    def test_far_centers_fall_back_to_smaller_p(self, m2k2):
        # a0 with a far head cannot sustain pairs, so the evidence drops
        # to a single center and value 0
        ev = h_star_lower_bound(m2k2, [Symbol.head(0), Symbol.head(9)],
                                cap=3)
        assert ev.p in (0, 1)
        assert ev.value == 0.0

    def test_huge_cap_forms_no_huge_power(self, m2k2):
        # 2^cap is never formed: the witness check is skipped past the
        # assignment cap and the search runs into its budget
        with pytest.raises(ResourceBudgetExceeded):
            h_star_lower_bound(m2k2, [Symbol.head(0), Symbol.head(1)],
                               cap=10 ** 12, levels=(1,),
                               budget=SearchBudget(max_nodes=1000))

    def test_dense_small_evidence(self, dense2):
        ev = h_star_lower_bound(dense2, [Symbol.dense(j) for j in (1, 2, 3)],
                                cap=3)
        assert ev.p == 3
        assert ev.value == pytest.approx(math.log(3))


class TestWitnessFirst:
    """Block n's designated times answer positive evidence without a
    search; whatever they do not witness goes to the search."""

    def test_block_four_witnesses_log_five(self, dense4, monkeypatch):
        monkeypatch.setattr(seqent.entropy, "max_independence", _no_search)
        ev = h_star_lower_bound(dense4, [Symbol.dense(j) for j in range(1, 6)],
                                cap=4, levels=(4,))
        assert (ev.p, ev.per_level) == (5, {4: 4})
        assert [c.render() for c in ev.centers] == ["e1", "e2", "e3", "e4",
                                                    "e5"]

    def test_highest_block_is_tried_first(self, dense4, monkeypatch):
        # block 4's proposals pass at every level, so each level makes one
        # check; block 3 cannot propose for e5, and its shape fails the five
        # centers on levels 1 to 3, so trying it first would fall back
        checks = []
        check = seqent.entropy.check_realizers

        def counted(times, *args, **kwargs):
            checks.append(times)
            return check(times, *args, **kwargs)

        monkeypatch.setattr(seqent.entropy, "check_realizers", counted)
        monkeypatch.setattr(seqent.entropy, "is_independence_set", _no_search)
        monkeypatch.setattr(seqent.entropy, "max_independence", _no_search)
        ev = h_star_lower_bound(dense4, [Symbol.dense(j) for j in range(1, 6)],
                                cap=4)
        assert (ev.p, ev.per_level) == (5, {1: 4, 2: 4, 3: 4, 4: 4})
        assert checks == [dense4.manifest.block(4).times[:4]] * 4

    def test_block_two_witnesses_three_heads(self, m3k2, monkeypatch):
        monkeypatch.setattr(seqent.entropy, "max_independence", _no_search)
        ev = h_star_lower_bound(m3k2, [Symbol.head(i) for i in range(3)],
                                cap=3)
        assert (ev.p, ev.per_level) == (3, {1: 3, 2: 3})

    def test_horizon_below_block_one_searches(self, dense4, monkeypatch):
        # no block ends by time 19, so only the search can answer
        monkeypatch.setattr(seqent.entropy, "max_independence", _no_search)
        with pytest.raises(AssertionError, match="the search ran"):
            h_star_lower_bound(dense4, [Symbol.dense(1), Symbol.dense(2)],
                               cap=2, horizon=dense4.block_range(1)[1] - 1)

    def test_negative_answers_come_from_the_search(self, dense4,
                                                   monkeypatch):
        # block 3's times do not shatter five classes at its own horizon
        monkeypatch.setattr(seqent.entropy, "max_independence", _no_search)
        with pytest.raises(AssertionError, match="the search ran"):
            h_star_lower_bound(dense4, [Symbol.dense(j) for j in range(1, 6)],
                               cap=4, levels=(1,),
                               horizon=dense4.block_range(3)[1])

    def test_assignment_cap_leaves_the_answer_to_the_search(self, dense2,
                                                            monkeypatch):
        # 4^3 assignments pass the cap: the set check would raise where the
        # search refutes the four centers and reports a shorter length
        monkeypatch.setattr(seqent.independence, "DEFAULT_ASSIGNMENT_CAP", 63)
        centers = [Symbol.dense(j) for j in (1, 2, 3, 4)]
        ev = h_star_lower_bound(dense2, centers, cap=3)
        assert (ev.p, ev.per_level) == (3, {1: 3, 2: 3})
        assert (ev.p, ev.centers, ev.per_level) == search_h_star_lower_bound(
            dense2, centers, 3)


# (build, horizon, cap, largest subset). A horizon (k, delta) is block k's
# last time plus delta: block ends, times just below a block's end, and
# times between blocks, where no shape or only a lower block's fits.
DIFFERENTIAL_CASES = [
    ("m2k2", None, 2, 4), ("m2k2", None, 3, 4), ("m2k2", 5_000, 2, 3),
    ("m2k2", (1, 0), 2, 4), ("m2k2", (1, 56), 3, 3), ("m2k2", (2, 0), 3, 3),
    ("m2k2", (2, -1), 3, 3),
    ("m3k2", (1, 0), 2, 4), ("m3k2", (1, 47), 2, 4), ("m3k2", (2, -1), 3, 3),
    ("dense2", None, 3, 4), ("dense2", None, 2, 4), ("dense2", (1, 0), 2, 4),
    ("dense2", (1, -1), 2, 4), ("dense2", 32, 4, 4), ("dense2", (2, 0), 3, 4),
    ("dense2", (2, -3), 3, 4),
    ("dense4", (1, 0), 2, 4), ("dense4", 67, 4, 3), ("dense4", 200, 3, 4),
    ("dense4", (2, 0), 2, 4), ("dense4", (2, 8), 4, 3), ("dense4", (3, 0), 3, 3),
    ("dense4", (3, -2), 4, 2), ("dense4", (3, 24), 2, 4), ("dense4", None, 2, 3),
]


def _pool(traj):
    if traj.family == "log-m":
        return ([Symbol.head(i) for i in range(-1, traj.m + 2)]
                + [Symbol.head_inf()])
    return [Symbol.dense(j) for j in range(1, traj.kmax + 3)]


def _case_id(case):
    name, horizon, cap, most = case
    if isinstance(horizon, tuple):
        horizon = "b{}{:+d}".format(*horizon)
    return f"{name}-{'full' if horizon is None else horizon}-cap{cap}-{most}"


@pytest.mark.parametrize("name, horizon, cap, most", DIFFERENTIAL_CASES,
                         ids=[_case_id(c) for c in DIFFERENTIAL_CASES])
def test_witness_first_matches_search(request, name, horizon, cap, most):
    traj = request.getfixturevalue(name)
    if isinstance(horizon, tuple):
        k, delta = horizon
        horizon = traj.block_range(k)[1] + delta
    rng = random.Random(f"{name}-{horizon}-{cap}")
    centers = rng.sample(_pool(traj), rng.randrange(2, most + 1))
    ev = h_star_lower_bound(traj, centers, cap, horizon=horizon)
    assert (ev.p, ev.centers, ev.per_level) == search_h_star_lower_bound(
        traj, centers, cap, horizon=horizon)
