"""Supremum-entropy evidence from independence.

By Huang and Ye's characterization, h*(T) is log k for the largest tuple
size k that keeps arbitrarily long independence sets. The evidence here
asks the independence engine that question at a finite horizon: the
reported lower bound is log of the largest subset of candidate centers that
keeps independence sets of the requested length alive at every tested level.
"""

from __future__ import annotations

import math
from itertools import combinations

from .independence import (
    SearchBudget, _within_assignment_cap, is_independence_set,
    max_independence,
)
from .model import (
    NeighborhoodSpec, Trajectory, _Record, check_realizers, propose_realizers,
)


class HStarEvidence(_Record):
    """``value`` is log p for the p ``centers`` (Symbols) found;
    ``per_level`` maps each tested level to the length reached there."""

    _fields = ("p", "value", "centers", "per_level")
    _defaults = ((), dict)


def h_star_lower_bound(traj: Trajectory, centers, cap: int,
                       horizon: int | None = None,
                       levels=None,
                       budget: SearchBudget | None = None) -> HStarEvidence:
    """Evidence for the supremum sequence entropy from below.

    Finds the largest p such that some p-subset of the candidate centers,
    taken as a tuple of level-k neighborhoods, admits independence sets of
    length >= cap at every tested level. The reported value is log p.

    Each (combo, level k) first tries the construction's own witness: the
    first cap designated times of each block of level >= k that holds cap
    times and ends inside the horizon, highest block first. The paper
    shatters a block's classes at its level n with these times. A dense
    block whose values hold the combo's centers names a realizer for every
    assignment (``propose_realizers``), and ``check_realizers`` reads each
    at the same horizon; the budget is charged for those reads first.
    When no block's proposals all pass, each block's times go, in the same
    order, to ``is_independence_set``. Raising the level raises the orbit
    threshold, so the level-k hit lists contain the level-n ones and a set
    shattered at level n is shattered at level k; a subset of the
    shattered classes is still shattered; and the heads of dense centers
    do not depend on the level. The checks are the definition and the
    search is exact, so a passing shape is a length the search would also
    reach, and the answer does not change. Only when no shape passes does
    the level run one depth-first ``max_independence`` search, which stops
    at the first shape of length cap and alone refutes a combo.
    """
    centers = tuple(centers)
    if len(set(centers)) != len(centers):
        raise ValueError("candidate centers must be distinct")
    if not centers:
        raise ValueError("at least one candidate center is required")
    if levels is None:
        levels = range(1, traj.kmax + 1)
    levels = tuple(levels)
    horizon = traj.horizon if horizon is None else min(horizon, traj.horizon)
    blocks = traj.manifest.blocks

    def sustains(specs, k: int) -> int:
        # past the assignment cap only the search may answer, and refute
        if _within_assignment_cap(len(specs), cap):
            tried = [b for b in reversed(blocks)
                     if b.level >= k and len(b.times) >= cap
                     and b.end - 1 <= horizon]
            for b in tried:
                proposals = propose_realizers(b, specs, cap)
                if proposals is None:
                    continue
                if budget is not None:  # the reads, before any is made
                    budget.spend(len(specs) ** cap * cap)
                if check_realizers(b.times[:cap], specs, proposals, traj,
                                   horizon=horizon) is None:
                    return cap
            for b in tried:
                if is_independence_set(b.times[:cap], specs, traj,
                                       horizon=horizon, budget=budget).ok:
                    return cap
        return max_independence(specs, cap=cap, traj=traj, horizon=horizon,
                                budget=budget).length

    for p in range(len(centers), 0, -1):
        for combo in combinations(centers, p):
            per_level = {}
            ok = True
            for k in levels:
                specs = tuple(NeighborhoodSpec(c, k) for c in combo)
                per_level[k] = sustains(specs, k)
                if per_level[k] < cap:
                    ok = False
                    break
            if ok:
                return HStarEvidence(p, math.log(p), combo, per_level)
    return HStarEvidence(0, 0.0, (), {})
