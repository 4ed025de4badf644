"""Independence-based lower bounds for the supremum sequence entropy."""

import math

import pytest

from seqent.entropy import HStarEvidence, h_star_lower_bound
from seqent.model import Symbol


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

    def test_dense_small_evidence(self, dense2):
        ev = h_star_lower_bound(dense2, [Symbol.dense(j) for j in (1, 2, 3)],
                                cap=3)
        assert ev.p == 3
        assert ev.value == pytest.approx(math.log(3))
