"""Supremum-entropy evidence from independence.

By Huang and Ye's characterization, h*(T) is log k for the largest tuple
size k that keeps arbitrarily long independence sets. The evidence here
asks the independence engine that question at a finite horizon: the
reported lower bound is log of the largest subset of candidate centers that
keeps independence sets of the requested length alive at every tested level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

from .independence import SearchBudget, max_independence
from .model import NeighborhoodSpec, Symbol, Trajectory


@dataclass
class HStarEvidence:
    p: int
    value: float
    centers: tuple[Symbol, ...] = ()
    per_level: dict[int, int] = field(default_factory=dict)


def h_star_lower_bound(traj: Trajectory, centers, cap: int,
                       horizon: int | None = None,
                       levels=None,
                       budget: SearchBudget | None = None) -> HStarEvidence:
    """Evidence for the supremum sequence entropy from below.

    Finds the largest p such that some p-subset of the candidate centers,
    taken as a tuple of level-k neighborhoods, admits independence sets of
    length >= cap at every tested level. The reported value is log p.
    Each level is one depth-first ``max_independence`` search, which stops
    at the first shape of length cap, so sustained levels cost little.
    """
    centers = tuple(centers)
    if len(set(centers)) != len(centers):
        raise ValueError("candidate centers must be distinct")
    if not centers:
        raise ValueError("at least one candidate center is required")
    if levels is None:
        levels = range(1, traj.kmax + 1)
    levels = tuple(levels)
    for p in range(len(centers), 0, -1):
        for combo in combinations(centers, p):
            per_level = {}
            ok = True
            for k in levels:
                specs = tuple(NeighborhoodSpec(c, k) for c in combo)
                res = max_independence(specs, cap=cap, traj=traj,
                                       horizon=horizon, budget=budget)
                per_level[k] = res.length
                if res.length < cap:
                    ok = False
                    break
            if ok:
                return HStarEvidence(p, math.log(p), combo, per_level)
    return HStarEvidence(0, 0.0, (), {})
