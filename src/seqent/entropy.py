"""Word counting along time sequences and supremum-entropy evidence.

Counts are exact at any horizon: candidate orbit starts are recovered from
the sparse hit lists of the tracked symbol classes, every start outside
them reads the all-rest word, and head words come from closed-form index
windows. Entropy evidence feeds the independence engine: the reported lower
bound is log of the largest subset of candidate centers that keeps
independence sets of the requested length alive at every tested level.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from itertools import combinations

from .independence import SearchBudget, max_independence
from .model import (
    FAMILY_LOG_M,
    KIND_DENSE,
    KIND_HEAD,
    KIND_HEAD_INF,
    NeighborhoodSpec,
    Symbol,
    Trajectory,
)


@dataclass(frozen=True)
class TimeSequence:
    """Strictly increasing nonnegative times."""

    times: tuple[int, ...]

    def __post_init__(self):
        ts = self.times
        if not ts:
            raise ValueError("a time sequence is nonempty")
        if ts[0] < 0 or any(a >= b for a, b in zip(ts, ts[1:])):
            raise ValueError("times must increase strictly from >= 0")

    def __len__(self):
        return len(self.times)

    def __iter__(self):
        return iter(self.times)

    def prefix(self, n: int) -> "TimeSequence":
        return TimeSequence(self.times[:n])


def as_time_sequence(seq) -> TimeSequence:
    if isinstance(seq, TimeSequence):
        return seq
    return TimeSequence(tuple(seq))


@dataclass(frozen=True)
class PartitionSpec:
    """Finitely many explicit symbol classes plus a catch-all rest class.

    Explicit classes hold finitely indexed symbols only (head or dense);
    the limit head and everything untracked fall into the rest class.
    """

    classes: tuple[tuple[str, frozenset], ...]
    rest_name: str = "rest"

    def __post_init__(self):
        names = [n for n, _ in self.classes] + [self.rest_name]
        if len(set(names)) != len(names):
            raise ValueError("class names must be distinct")
        seen = set()
        for name, syms in self.classes:
            if not syms:
                raise ValueError(f"class {name} is empty")
            for s in syms:
                if s.kind == KIND_HEAD_INF:
                    raise ValueError("the limit head belongs to the rest class")
                if s in seen:
                    raise ValueError(f"symbol {s.render()} in two classes")
                seen.add(s)

    def class_index(self, sym: Symbol) -> int:
        """Position of the symbol's class; -1 means rest."""
        for i, (_name, syms) in enumerate(self.classes):
            if sym in syms:
                return i
        return -1


def make_partition(*symbol_groups, names=None, rest_name="rest") -> PartitionSpec:
    """Convenience builder: each group becomes one class."""
    classes = []
    for i, group in enumerate(symbol_groups):
        name = names[i] if names else f"c{i}"
        classes.append((name, frozenset(group)))
    return PartitionSpec(tuple(classes), rest_name)


# ---------------------------------------------------------------------------
# word counting


def _symbol_hits(sym: Symbol, traj: Trajectory, horizon: int):
    if sym.kind == KIND_HEAD:
        hits = traj.head_hits(sym.index)
    elif sym.kind == KIND_DENSE:
        hits = traj.dense_hits(sym.index)
    else:
        raise ValueError("tracked symbols are finitely indexed")
    return hits[:bisect.bisect_right(hits, horizon)]


def _class_index_map(part: PartitionSpec) -> dict[Symbol, int]:
    table = {}
    for i, (_n, syms) in enumerate(part.classes):
        for s in syms:
            table[s] = i
    return table


def word_count(seq, part: PartitionSpec, traj: Trajectory,
               horizon: int | None = None) -> int:
    """Number of distinct class words read along seq by all model points.

    A point's word is the tuple of partition classes its iterates visit at
    the given times. Orbit starts that never meet a tracked symbol all read
    the same all-rest word, so only starts aligned with tracked hits are
    enumerated; heads contribute through their index windows (head-indexed
    family) or as fixed points (dense family).
    """
    seq = as_time_sequence(seq)
    times = seq.times
    if horizon is None:
        horizon = traj.horizon
    horizon = min(horizon, traj.horizon)
    if times[-1] > horizon:
        raise ValueError("sequence reaches past the horizon")
    table = _class_index_map(part)
    last = times[-1]
    max_start = horizon - last

    def class_at(t: int) -> int:
        return table.get(traj.symbol_at(t), -1)

    words = set()
    starts = set()
    for sym in table:
        for h in _symbol_hits(sym, traj, horizon):
            for a in times:
                u = h - a
                if 0 <= u <= max_start:
                    starts.add(u)
    for u in starts:
        words.add(tuple(class_at(u + a) for a in times))
    all_rest = tuple(-1 for _ in times)
    if len(starts) < max_start + 1:
        words.add(all_rest)

    if traj.family == FAMILY_LOG_M:
        # head a_i reads class(a_{i+t}) at time t; indices far out read rest
        head_indices = set()
        for sym in table:
            if sym.kind == KIND_HEAD:
                for a in times:
                    head_indices.add(sym.index - a)
        for i in head_indices:
            words.add(tuple(
                table.get(Symbol.head(i + a), -1) for a in times))
        words.add(all_rest)  # far heads and the limit head
    else:
        for sym in table:
            idx = table[sym]
            words.add(tuple(idx for _ in times))
        words.add(all_rest)  # untracked dense heads
    return len(words)


@dataclass(frozen=True)
class EntropyEstimate:
    prefix_length: int
    words: int
    value: float


def seq_entropy_estimate(seq, part: PartitionSpec, traj: Trajectory,
                         window: int,
                         horizon: int | None = None) -> list[EntropyEstimate]:
    """Raw estimates (1/n) log word_count over prefixes of the sequence."""
    seq = as_time_sequence(seq)
    if not 1 <= window <= len(seq):
        raise ValueError("window must fit inside the sequence")
    out = []
    for n in range(1, window + 1):
        c = word_count(seq.prefix(n), part, traj, horizon=horizon)
        out.append(EntropyEstimate(n, c, math.log(c) / n))
    return out


# ---------------------------------------------------------------------------
# supremum-entropy evidence


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
