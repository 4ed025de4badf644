"""Exhaustive independence search over built trajectories.

An independence set for a tuple of neighborhoods (A_1 .. A_k) is a set of
times J such that every assignment sigma: J -> {1..k} is realized by one
model point whose iterates visit A_sigma(t) at every t in J. The engine
answers two questions exactly at a finite horizon:

* is_independence_set: are all assignments realizable,
* max_independence: what is the largest independence-set size up to a cap,
  with a replayable exhaustion certificate when the answer is below the cap.

Searches run over normalized difference shapes (min J = 0). That is sound
and complete for existence questions: shifting an independence set down by
any amount up to its minimum keeps it an independence set (orbit witnesses
shift forward along the orbit, head witnesses shift their index), so a size
without a normalized shape is a size without any set at all.

One exact pruning rule skips shapes with no children. When the tuple's
neighborhoods are pairwise disjoint within the horizon (distinct finite
centers; on the head-indexed family also at most one a_inf, and every
finite hit in that one's miss set), a time carries one neighborhood, so
k assignments extending one list need k distinct starts. A shape with a
list of fewer than k starts and no closed-form head for it has no
children, so it is counted in the frontier but never expanded. The
head-indexed family counts such lists from the parent's difference sets;
the dense family counts, per survivor about to be expanded, the
extensions of the parent's shortest list by mask popcounts.
"""

from __future__ import annotations

import bisect
import itertools
import time as _time
from collections import Counter

from .errors import CapExceeded, InvalidConfig, ResourceBudgetExceeded
from .model import (
    FAMILY_LOG_INFTY,
    FAMILY_LOG_M,
    KIND_DENSE,
    KIND_HEAD,
    KIND_HEAD_INF,
    ModelPoint,
    NeighborhoodSpec,
    Symbol,
    Trajectory,
    _Frozen,
    _Record,
    infinity_window,
)

DEFAULT_ASSIGNMENT_CAP = 200_000


# ---------------------------------------------------------------------------
# public result types


class IndependenceWitness(_Record):
    """Realizers, one model point per assignment."""

    _fields = ("times", "realizers")


class IndependenceResult(_Record):
    _fields = ("ok", "witness", "failing")
    _defaults = (None, None)


class ExhaustionCertificate(_Frozen):
    """Replayable record of a completed negative search.

    frontier_sizes[i] is the number of surviving normalized shapes of size
    i + 1; the last entry is 0 and its level is died_level. Replaying the
    same search on the same build reproduces the sizes exactly.
    """

    __slots__ = _fields = ("tuple_rendered", "target_length", "horizon",
                           "search", "frontier_sizes", "died_level",
                           "nodes_used")


class MaxIndependenceResult(_Record):
    _fields = ("length", "witness", "certificate")


class SearchBudget:
    """Node and wall-clock budget shared across one search.

    The clock is read each time the node count passes the next multiple of
    CLOCK_EVERY, so bulk spends cannot step over every check.
    """

    CLOCK_EVERY = 4096

    def __init__(self, max_nodes: int | None = None,
                 max_seconds: float | None = None):
        self.max_nodes = max_nodes
        self.max_seconds = max_seconds
        self.nodes = 0
        self.started = _time.monotonic()
        self._next_clock = self.CLOCK_EVERY

    def spend(self, n: int = 1):
        self.nodes += n
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise ResourceBudgetExceeded(
                f"node budget {self.max_nodes} exhausted; result inconclusive")
        if self.max_seconds is not None and self.nodes >= self._next_clock:
            every = self.CLOCK_EVERY
            self._next_clock = (self.nodes // every + 1) * every
            if _time.monotonic() - self.started > self.max_seconds:
                raise ResourceBudgetExceeded(
                    f"time budget {self.max_seconds}s exhausted; "
                    f"result inconclusive")


# ---------------------------------------------------------------------------
# occupancy


class OccupancyVector:
    """Orbit indices inside one neighborhood, as a sorted hit list.

    Stored sparsely: either the hit times themselves or, for the dense
    orbit part of an infinity neighborhood, the miss times. A hit list can
    also be read as a literal int bitmask, the set representation of the
    candidate generator on the dense family.
    """

    def __init__(self, n_points: int, times: tuple[int, ...] | None = None,
                 miss_times: tuple[int, ...] | None = None):
        if (times is None) == (miss_times is None):
            raise ValueError("exactly one of times/miss_times is required")
        self.n_points = n_points
        self.times = times
        self.miss_times = miss_times
        self._miss_set = set(miss_times) if miss_times is not None else None
        self._mask = None

    @property
    def complement(self) -> bool:
        return self.miss_times is not None

    def as_int(self) -> int:
        """Literal bitmask of the hit times."""
        if self._mask is None:
            self._mask = _bits_to_int(self.times, self.n_points)
        return self._mask


def _bits_to_int(times, n_bits: int) -> int:
    """Int with bit t set for each t in times, all below n_bits."""
    buf = bytearray((n_bits - 1) // 8 + 1)
    for t in times:
        buf[t >> 3] |= 1 << (t & 7)
    return int.from_bytes(buf, "little")


def _int_to_bits(mask: int) -> tuple[int, ...]:
    """Ascending positions of the set bits of a nonnegative int."""
    out = []
    buf = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    for byte_i, byte in enumerate(buf):
        while byte:
            low = byte & -byte
            out.append(byte_i * 8 + low.bit_length() - 1)
            byte ^= low
    return tuple(out)


def occupancy(spec: NeighborhoodSpec, traj: Trajectory) -> OccupancyVector:
    """Occupancy of a neighborhood over orbit indices.

    A finite center's orbit part is its hit list from the level's
    threshold on. An infinity neighborhood's orbit part is co-finite, so it
    is held as its complement, the times near index 0.
    """
    cache = traj._occ_cache
    got = cache.get(spec)
    if got is not None:
        return got
    if spec.level < 1:
        raise ValueError("neighborhood levels are 1-based")
    center = spec.center
    dense = center.kind == KIND_DENSE
    if dense != (traj.family == FAMILY_LOG_INFTY):
        # each family has heads of its own kind only
        raise InvalidConfig(f"{spec.render()} needs the "
                            f"{'dense' if dense else 'head-indexed'} family")
    if center.kind == KIND_HEAD_INF:
        vec = OccupancyVector(traj.n_points, miss_times=traj.near_head_times(
            infinity_window(spec.level) - 1))
    else:
        # levels are tied to built blocks through their thresholds
        threshold = traj.level_threshold(spec.level) + spec.threshold_offset
        hits = traj.hits(center.index)
        vec = OccupancyVector(traj.n_points,
                              times=hits[bisect.bisect_left(hits, threshold):])
    cache[spec] = vec
    return vec


# ---------------------------------------------------------------------------
# closed-form head witnesses


def _head_keys(specs, traj):
    """Per neighborhood, the finite center index (None for a_inf), and the
    infinity windows on the head-indexed family (None on the dense one)."""
    centers = tuple(None if s.center.kind == KIND_HEAD_INF else s.center.index
                    for s in specs)
    log_m = traj.family == FAMILY_LOG_M
    return centers, (tuple(infinity_window(s.level) for s in specs)
                     if log_m else None)


def _head_index(J, sigma, heads) -> int | None:
    """Index of the head realizing an assignment that names a finite
    center, or None.

    Finite centers pin the index (index = center - time), and infinity
    neighborhoods then need the head's image outside their windows. Dense
    heads are fixed points: they realize exactly the constant assignments.
    """
    centers, windows = heads
    if windows is None:
        first = centers[sigma[0]]
        return first if all(centers[c] == first for c in sigma) else None
    idx = None
    for t, c in zip(J, sigma):
        center = centers[c]
        if center is None:
            continue
        if idx is None:
            idx = center - t
        elif idx != center - t:
            return None
    for t, c in zip(J, sigma):
        if centers[c] is None and abs(idx + t) < windows[c]:
            return None
    return idx


def _head_realizer(J, sigma, heads) -> ModelPoint | None:
    """Closed-form head witness for one assignment, or None: the limit
    head for one made purely of infinity neighborhoods, else the head that
    ``_head_index`` names."""
    centers, windows = heads
    if all(centers[c] is None for c in sigma):
        return ModelPoint.head(Symbol.head_inf())
    idx = _head_index(J, sigma, heads)
    if idx is None:
        return None
    return ModelPoint.head(Symbol.dense(idx) if windows is None
                           else Symbol.head(idx))


# ---------------------------------------------------------------------------
# realizer tables


def _root_table(occs, horizon, lo=0):
    """Realizer table of the singleton shape (0,): each hit list cut to
    [lo, horizon], None for an infinity-centered neighborhood."""
    return tuple(None if occ.complement
                 else occ.times[bisect.bisect_left(occ.times, lo):
                                bisect.bisect_right(occ.times, horizon)]
                 for occ in occs)


def _center_index(occs, centers, lo, hi):
    """The time-to-center index of one query, over the times [lo, hi] it
    reads, as (at, m, plan).

    The hits of distinct centers are disjoint, since a time carries one
    symbol, and a center's lists at several levels are suffixes of its
    longest one. So ``at`` maps each time in [lo, hi] of a center's
    longest list to the center's slot, 0 .. m - 1 over the m distinct
    finite ``centers``. With one center only membership is asked, and
    ``at`` is the set of that whole list: a set's sparser table answers
    the many misses faster than a dict or a set cut to the window.
    ``plan`` holds per neighborhood (miss set, slot, first): the miss set
    of an infinity neighborhood, else None, its center's slot and, when
    its list is not the indexed one, its first hit (past hi if empty).
    """
    order = list(dict.fromkeys(c for c in centers if c is not None))
    slots = [None if c is None else order.index(c) for c in centers]
    longest = {}
    for occ, slot in zip(occs, slots):
        if slot is not None and len(occ.times) > len(longest.get(slot, ())):
            longest[slot] = occ.times
    if len(order) == 1:
        at = set(longest.get(0, ()))
    else:
        at = {}
        for slot, times in longest.items():
            at.update(dict.fromkeys(times[bisect.bisect_left(times, lo):
                                          bisect.bisect_right(times, hi)],
                                    slot))
    plan = tuple(
        (occ._miss_set, None, None) if slot is None
        else (None, slot, None) if occ.times is longest.get(slot)
        else (None, slot, occ.times[0] if occ.times else hi + 1)
        for occ, slot in zip(occs, slots))
    return at, len(order), plan


def _extend_table(shape, table, d, occs, index, horizon, budget):
    """Realizer table of shape + (d,), one group per list of ``table``.

    A table lists, per assignment in ``itertools.product`` order, the
    ascending orbit starts u <= horizon - shape[-1] that realize it on
    shape, or None where every neighborhood is infinity-centered (a
    co-finite set, and the limit head realizes the assignment anyway).
    The list of assignment sigma, the i-th of ``table``, yields the
    group (i, sigma, lists): the k lists of sigma + (c,), entries
    i * k + c of the new table. Each keeps the starts whose u + d lands
    in A_c, and is kept even when empty, since a closed-form head may
    still realize its assignment. Groups come shortest list first (None
    last), so a reader that stops early builds the least.

    ``index`` is the query's ``_center_index``, covering every u + d
    read. One pass sorts a list's starts into the parts of the centers
    that u + d carries (with one finite center, a membership filter), and
    A_c's list is its center's part from its first hit - d on; a_inf
    lists filter the starts by A_c's miss set. Each start spends one node
    per neighborhood.
    """
    at, m, plan = index
    k = len(occs)
    cut = horizon - d
    sigmas = list(itertools.product(range(k), repeat=len(shape)))
    order = sorted(range(len(table)),
                   key=lambda i: (table[i] is None, len(table[i] or ())))
    for i in order:
        sigma, starts = sigmas[i], table[i]
        lists = []
        if starts is None:
            misses = [(t, occs[c]._miss_set) for t, c in zip(shape, sigma)]
            for occ in occs:
                if occ.complement:
                    lists.append(None)
                    continue
                # anchor on the new neighborhood's hits b = u + d
                times = occ.times
                anchors = times[bisect.bisect_left(times, d):
                                bisect.bisect_right(times, horizon)]
                budget.spend(len(anchors))
                lists.append(tuple([b - d for b in anchors
                                    if all(b - d + t not in miss
                                           for t, miss in misses)]))
            yield i, sigma, lists
            continue
        starts = starts[:bisect.bisect_right(starts, cut)]
        budget.spend(k * len(starts))
        if m == 1:
            parts = (tuple([u for u in starts if u + d in at]),)
        else:
            parts = [[] for _ in range(m)]
            adds = [part.append for part in parts]
            get = at.get
            for u in starts:
                slot = get(u + d)
                if slot is not None:
                    adds[slot](u)
            parts = [tuple(part) for part in parts]
        for miss, slot, first in plan:
            if miss is not None:
                lists.append(tuple([u for u in starts if u + d not in miss]))
            elif first is None:
                lists.append(parts[slot])
            else:
                part = parts[slot]
                lists.append(part[bisect.bisect_left(part, first - d):])
        yield i, sigma, lists


def _extensions(shape, groups, occs, heads, horizon, budget, disjoint):
    """The d in (shape[-1], horizon] for which shape + (d,) is an
    independence set, ascending, a test naming the childless ones among
    them, and the realizer table of shape; or ((), test, None) once no d
    is left.

    ``groups`` yields the table of shape as ``_extend_table`` does (the
    root table is one group, of the empty assignment), and ``heads`` are
    the tuple's ``_head_keys``. Assignment (sigma, c) of shape + (d,) is
    realized at d by a start u in sigma's list with u + d in A_c, or by a
    closed-form head. Survivors therefore form the intersection, over the
    assignments that no head realizes for every d, of {d : u + d in A_c
    for some u}: tid-list intersection along the time axis. Each group's
    sets are intersected as the group arrives, shortest list first, and
    no further group is read once nothing is left, so only a surviving
    shape has its whole table built.

    The family picks the set representation. The dense family's blocks
    are explicit, bounded orbits, so there each set is an int mask, the OR
    of A_c's mask shifted down by every u, and an assignment whose
    neighborhoods share a dense center is realized by that fixed head and
    imposes nothing. The head-indexed family's horizons grow by a factor
    per segment, so there the sets are sparse, the differences b - u of
    A_c's hits b past u; a finite-center assignment also holds at its one
    head difference, and an assignment with an infinity neighborhood,
    whose set is co-finite, is tested per live d (``_cofinite_kept``).
    Every shifted mask, list element and hit read spends one node.

    The middle item is a test ``childless(d)`` of a survivor d: True
    when shape + (d,) has no children. It can be True only with
    ``disjoint`` (``_disjoint``: the tuple's neighborhoods are pairwise
    disjoint within [0, horizon]), where a list of fewer than k starts
    that no head helps leaves no extension. The sparse backend counts
    every list for every survivor after the intersection, from the
    difference sets (``_childless``), and tests membership in the result.
    The dense backend counts one list per d when asked
    (``_dense_childless``), so a search that stops at its cap pays
    nothing for the survivors it never reaches. Either way a shape that
    dies pays nothing for the count.
    """
    centers, windows = heads
    if all(c is None for c in centers):
        # the limit head lies in every neighborhood, so max_independence
        # answers such a tuple before any search; its survivors would be
        # every d up to the horizon, with no hit list to anchor on
        raise RuntimeError(
            "tuple has no finite-center neighborhood to anchor on")
    k = len(occs)
    lo = shape[-1] + 1
    table = [None] * k ** len(shape)
    dense = windows is None
    live = None
    if dense:
        span = (1 << (horizon + 1)) - 1
        live = span >> lo << lo
        masks = [occ.as_int() & span for occ in occs]
    for i, sigma, lists in groups:
        table[i * k:i * k + k] = lists
        pairs = []
        for j, starts in enumerate(lists):
            sigma_j = sigma + (j,)
            idx = None if starts is None else _head_index(shape, sigma_j,
                                                          heads)
            for c, occ in enumerate(occs):
                if starts is None and occ.complement:
                    continue  # the limit head realizes it
                if dense and idx == centers[c]:
                    continue  # so does the fixed head of a shared dense center
                finite = starts is not None and not occ.complement
                # an all-infinity sigma reads the hits of A_c instead
                size = len(starts if starts is not None else occ.times)
                pairs.append((size, finite, sigma_j, c, starts, idx))
        pairs.sort(key=lambda p: p[0])
        if live is None:
            # the first set is a finite assignment's differences
            first = next(n for n, p in enumerate(pairs) if p[1])
            pairs.insert(0, pairs.pop(first))
        for _, finite, sigma_j, c, starts, idx in pairs:
            occ = occs[c]
            if dense:
                mask = masks[c]
                acc = 0
                for u in starts:
                    budget.spend()
                    acc |= mask >> u
                live &= acc
            elif finite:
                hits = occ.times
                top = bisect.bisect_right(hits, horizon)
                got = set()
                if idx is not None:
                    head = centers[c] - idx
                    if lo <= head <= horizon:
                        got.add(head)
                for u in starts:
                    window = hits[bisect.bisect_left(hits, u + lo):top]
                    budget.spend(len(window))
                    got.update([b - u for b in window])
                live = got if live is None else live & got
            else:
                live = _cofinite_kept(live, shape, sigma_j, c, starts, idx,
                                      occs, heads, horizon, budget)
            if not live:
                return (), frozenset().__contains__, None
    if dense:
        ds = _int_to_bits(live)
        childless = (_dense_childless(shape, table, masks, heads, horizon,
                                      budget)
                     if disjoint else frozenset().__contains__)
    else:
        ds = tuple(sorted(live))
        childless = (_childless(live, shape, table, occs, heads, horizon,
                                budget)
                     if disjoint else frozenset()).__contains__
    return ds, childless, tuple(table)


def _dense_childless(shape, table, masks, heads, horizon, budget):
    """The test ``childless(d)`` of the dense family: whether shape + (d,)
    has no children, by a pigeonhole count over the shortest list of
    shape's ``table`` (dense tables hold no None).

    Valid when the tuple's dense centers are distinct (``_disjoint``): a
    time then lies in one neighborhood, so the k extensions of one list
    need k distinct starts, and a dense head realizes only constant
    assignments. For that list L_sigma and each c with (sigma, c) not
    constant, the list of (sigma, c) on shape + (d,) holds the starts u
    in L_sigma with u + d in A_c, the popcount of (A_c's mask >> d) &
    L_sigma's mask, as ``masks`` are cut to the horizon. A count below k
    leaves the child no extension. Each popcount spends one node, at
    most k per test, each no dearer than one of the shift-ORs that
    expanding shape + (d,) would do.
    """
    centers, _ = heads
    k = len(masks)
    sigmas = itertools.product(range(k), repeat=len(shape))
    sigma, starts = min(zip(sigmas, table), key=lambda p: len(p[1]))
    idx = _head_index(shape, sigma, heads)
    shortest = _bits_to_int(starts, horizon + 1)
    counted = [mask for c, mask in enumerate(masks) if centers[c] != idx]

    def childless(d: int) -> bool:
        for mask in counted:
            budget.spend()
            if ((mask >> d) & shortest).bit_count() < k:
                return True
        return False

    return childless


def _childless(live, shape, table, occs, heads, horizon, budget):
    """The d in ``live`` for which shape + (d,) has no children, by a
    pigeonhole count over the difference sets of shape's table.

    Valid when the tuple's neighborhoods are pairwise disjoint within
    [0, horizon] (``_disjoint``). A time then lies in one neighborhood,
    so at any later time one start of a child's list realizes at most one
    of the k assignments that extend the list's own, and a list of fewer
    than k starts whose assignment no closed-form head realizes leaves
    the child no extension. The list of (sigma, c) on shape + (d,) holds
    the starts u of sigma's list with u + d in A_c, one per difference
    b - u = d, and no head realizes it except at the head difference
    centers[c] - idx when sigma's index idx exists (``_head_index``).
    Lists are taken shortest first, each finite assignment's differences
    re-read at one node per hit, until every d is decided; a list of
    fewer than k starts decides without a read.
    """
    centers, _ = heads
    k = len(occs)
    lo = shape[-1] + 1
    pending = set(live)
    childless = set()
    sigmas = itertools.product(range(k), repeat=len(shape))
    lists = sorted(((starts, sigma) for sigma, starts in zip(sigmas, table)
                    if starts is not None), key=lambda p: len(p[0]))
    for starts, sigma in lists:
        idx = _head_index(shape, sigma, heads)
        for c, occ in enumerate(occs):
            if occ.complement:
                continue
            head = None if idx is None else centers[c] - idx
            if len(starts) < k:
                dead = pending
            else:
                hits = occ.times
                top = bisect.bisect_right(hits, horizon)
                counts = Counter()
                for u in starts:
                    window = hits[bisect.bisect_left(hits, u + lo):top]
                    budget.spend(len(window))
                    counts.update([b - u for b in window])
                dead = [d for d in pending if counts[d] < k]
            childless.update(d for d in dead if d != head)
            pending.difference_update(childless)
            if not pending:
                return frozenset(childless)
    return frozenset(childless)


def _cofinite_kept(live, shape, sigma, c, starts, idx, occs, heads, horizon,
                   budget) -> set[int]:
    """The d in ``live`` at which assignment (sigma, c) of shape + (d,) is
    realized, where its set is co-finite: A_c is an infinity neighborhood,
    or sigma is made purely of them and ``starts`` is None.

    The closed-form head goes first. With ``starts``, sigma's finite
    centers pin its index ``idx`` (``_head_index``), which then has to
    clear A_c's window, |idx + d| >= window; without, the index is
    center - d, which has to clear every earlier time's window. Then the
    realizers are tested as ``_extend_table`` tests them, first one
    first, one node per start read.
    """
    centers, windows = heads
    occ = occs[c]
    read = 0
    kept = set()
    if starts is None:
        # anchor on the new neighborhood's hits b = u + d
        hits = occ.times
        top = bisect.bisect_right(hits, horizon)
        misses = [(t, occs[s]._miss_set) for t, s in zip(shape, sigma)]
        clear = [(centers[c] + t, windows[s]) for t, s in zip(shape, sigma)]
    for d in live:
        if starts is not None:
            if idx is not None and abs(idx + d) >= windows[c]:
                kept.add(d)
                continue
            for u in starts:
                if u > horizon - d:
                    break
                read += 1
                if u + d not in occ._miss_set:
                    kept.add(d)
                    break
        else:
            if all(abs(a - d) >= w for a, w in clear):
                kept.add(d)
                continue
            for i in range(bisect.bisect_left(hits, d), top):
                read += 1
                u = hits[i] - d
                if all(u + t not in miss for t, miss in misses):
                    kept.add(d)
                    break
    budget.spend(read)
    return kept


def _within_assignment_cap(k: int, n: int) -> bool:
    """Are the k^n assignments over n times, and the n times, within the
    cap? As 2^b exceeds a cap of bit length b, no huge power is formed."""
    cap = DEFAULT_ASSIGNMENT_CAP
    return n <= cap and k ** min(n, cap.bit_length()) <= cap


def _check_assignment_cap(k: int, n: int):
    """Raise CapExceeded past the cap on k^n assignments or n times."""
    if not _within_assignment_cap(k, n):
        what = f"length {n} exceeds" if k == 1 else \
            f"{k}^{n} assignments exceed"
        raise CapExceeded(f"{what} the cap {DEFAULT_ASSIGNMENT_CAP}")


def is_independence_set(J, specs, traj: Trajectory,
                        horizon: int | None = None,
                        start_range: tuple[int, int] | None = None,
                        budget: SearchBudget | None = None) -> IndependenceResult:
    """Check every assignment over J; empty J is vacuously independent.

    Returns the full witness table on success, or the lexicographically
    first failing assignment. Folds the search's realizer table over
    the shape J - J[0], keeping every list, since an assignment
    earlier in product order may die later than one whose prefix died
    first. A witness is the first orbit start, else the closed-form head;
    ``start_range`` rules heads out, and with them the co-finite
    neighborhoods of infinity centers, which it rejects.
    """
    if not specs:
        raise ValueError("a tuple needs at least one neighborhood")
    if start_range is not None and any(s.center.kind == KIND_HEAD_INF
                                       for s in specs):
        raise ValueError("start_range needs finite-center neighborhoods")
    J = tuple(sorted(J))
    if len(set(J)) != len(J):
        raise ValueError("independence sets hold distinct times")
    if any(t < 0 for t in J):
        raise ValueError("times are nonnegative")
    k = len(specs)
    _check_assignment_cap(k, len(J))
    if horizon is None:
        horizon = traj.horizon
    horizon = min(horizon, traj.horizon)
    if not J:
        # the empty assignment is realized by any point at all
        point = ModelPoint.orbit(0 if start_range is None else start_range[0])
        return IndependenceResult(True, witness=IndependenceWitness(
            J, {(): point}))
    if J[-1] > horizon:
        raise ValueError("times exceed the queried horizon")
    if budget is None:
        budget = SearchBudget()

    occs = [occupancy(s, traj) for s in specs]
    heads = _head_keys(specs, traj)
    lo, hi = (0, horizon) if start_range is None else start_range
    lo, hi = max(lo, 0), min(hi, horizon - J[-1])
    # the starts of J, shifted by t0, are the starts of its shape; lists
    # anchored after an all-infinity prefix (lo is 0 then) start below t0
    t0 = J[0]
    shape = (0,)
    table = _root_table(occs, hi + t0, lo + t0)
    if len(J) > 1:
        index = _center_index(occs, heads[0], lo + J[1] - t0, hi + J[-1])
    for t in J[1:]:
        child = [None] * (len(table) * k)
        for i, _, lists in _extend_table(shape, table, t - t0, occs, index,
                                         horizon, budget):
            child[i * k:i * k + k] = lists
        table = child
        shape += (t - t0,)

    realizers: dict[tuple[int, ...], ModelPoint] = {}
    sigmas = itertools.product(range(k), repeat=len(J))
    for sigma, starts in zip(sigmas, table):
        # lists anchored after an all-infinity prefix ignore [lo, hi]
        i = bisect.bisect_left(starts or (), lo + t0)
        if starts and i < len(starts) and starts[i] <= hi + t0:
            point = ModelPoint.orbit(starts[i] - t0)
        elif start_range is None:
            point = _head_realizer(J, sigma, heads)
        else:
            point = None
        if point is None:
            return IndependenceResult(False, failing=sigma)
        realizers[sigma] = point
    return IndependenceResult(True, witness=IndependenceWitness(J, realizers))


# ---------------------------------------------------------------------------
# maximum independence search over normalized shapes


def _fixed_head_everywhere(specs, traj) -> ModelPoint | None:
    """A fixed point lying in every neighborhood realizes everything: the
    limit head when every center is a_inf, a dense head when every center
    is that head."""
    centers, windows = _head_keys(specs, traj)
    if len(set(centers)) > 1:
        return None
    if centers[0] is None:
        return ModelPoint.head(Symbol.head_inf())
    if windows is None:
        return ModelPoint.head(Symbol.dense(centers[0]))
    return None  # a head-indexed head moves


def _disjoint(occs, heads, horizon) -> bool:
    """Whether a tuple's neighborhoods are pairwise disjoint on the orbit
    within [0, horizon]: its finite centers are distinct (a time carries
    one symbol, whatever the levels). That is all on the dense family,
    whose centers are all finite; on the head-indexed family at most one
    center is a_inf, and every finite hit up to the horizon lies in that
    one's miss set."""
    centers, windows = heads
    finite = [c for c in centers if c is not None]
    if len(set(finite)) < len(finite):
        return False
    if windows is None:
        return True
    if len(centers) - len(finite) > 1:
        return False
    miss = next((occ._miss_set for occ in occs if occ.complement), None)
    return miss is None or all(
        miss.issuperset(occ.times[:bisect.bisect_right(occ.times, horizon)])
        for occ in occs if not occ.complement)


def _cap_result(specs, traj, horizon, shape, budget,
                cert: ExhaustionCertificate | None = None
                ) -> MaxIndependenceResult:
    """Result of length len(shape) carrying the shape's witness table."""
    res = is_independence_set(shape, specs, traj, horizon=horizon,
                              budget=budget)
    return MaxIndependenceResult(len(shape), res.witness, cert)


def max_independence(specs, cap: int, traj: Trajectory,
                     horizon: int | None = None,
                     budget: SearchBudget | None = None) -> MaxIndependenceResult:
    """Largest independence-set size for the tuple, capped at cap.

    Shapes are explored depth-first, in lexicographic order, so the first
    shape of the largest size found is the least one. Every node, the
    root (0,) included, takes its children from the exact candidate
    generator ``_extensions``, which builds the node's table only as far
    as it needs to. A child that the generator's test names childless
    (the pigeonhole count on a tuple whose neighborhoods are pairwise
    disjoint, decided once per query by ``_disjoint``) is counted, and
    may reach the cap, but its table is never built. The test is asked
    of a child only when it is about to be expanded, below the cap. When
    the search dies below the cap it has visited every surviving shape,
    and its exhaustion certificate records their number per size. A
    fixed point in every neighborhood answers at once, with the first
    n = min(cap, horizon + 1) times and no certificate, within
    ``is_independence_set``'s assignment cap, which also bounds the number
    of times. It charges max(n, k^n) nodes, for its n times or its table of
    k^n realizers, before it builds the table.
    """
    if not specs:
        raise ValueError("a tuple needs at least one neighborhood")
    if cap < 1:
        raise ValueError("cap must be positive")
    if horizon is None:
        horizon = traj.horizon
    horizon = min(horizon, traj.horizon)
    if budget is None:
        budget = SearchBudget()

    # built first: they reject centers of the other family
    occs = [occupancy(s, traj) for s in specs]
    fixed = _fixed_head_everywhere(specs, traj)
    if fixed is not None:
        # a shape holds distinct times up to the horizon
        longest = min(cap, horizon + 1)
        _check_assignment_cap(len(specs), longest)
        # charged before it is built: the times, or the table's entries
        budget.spend(max(longest, len(specs) ** longest))
        shape = tuple(range(longest))
        realizers = {sigma: fixed for sigma in
                     itertools.product(range(len(specs)), repeat=longest)}
        return MaxIndependenceResult(
            longest, IndependenceWitness(shape, realizers), None)

    heads = _head_keys(specs, traj)
    disjoint = _disjoint(occs, heads, horizon)
    # shapes visited per size, grown as the search first reaches a size
    visited = [0, 1]
    best_shape = (0,)
    # the center index is built at the first descent: every u + d that
    # a child table reads lies in [1, horizon]
    index = None

    def extend(shape: tuple[int, ...], groups):
        nonlocal best_shape, index
        ds, childless, table = _extensions(shape, groups, occs, heads,
                                           horizon, budget, disjoint)
        if len(visited) == len(shape) + 1:
            visited.append(0)
        for d in ds:
            cand = shape + (d,)
            visited[len(cand)] += 1
            if len(cand) > len(best_shape):
                best_shape = cand
            if len(cand) == cap:
                return cand
            if childless(d):
                continue
            if index is None:
                index = _center_index(occs, heads[0], 1, horizon)
            got = extend(cand, _extend_table(shape, table, d, occs, index,
                                             horizon, budget))
            if got is not None:
                return got
        return None

    # singletons always embed through the center's own head
    found = (0,) if cap == 1 else extend(
        (0,), [(0, (), _root_table(occs, horizon))])
    if found is not None:
        return _cap_result(specs, traj, horizon, found, budget)
    # exhausted: visited counts the surviving shapes per size, hence the label
    died = len(best_shape) + 1
    cert = ExhaustionCertificate(
        tuple_rendered=",".join(s.render() for s in specs),
        target_length=cap, horizon=horizon, search="level-shapes",
        frontier_sizes=tuple(visited[1:died] + [0]), died_level=died,
        nodes_used=budget.nodes)
    return _cap_result(specs, traj, horizon, best_shape, budget, cert)


# ---------------------------------------------------------------------------
# one-step preimage property


def shift_property_check(J, specs, traj: Trajectory,
                         horizon: int | None = None) -> bool:
    """Drop the minimum time, pull everything back one step, re-verify.

    The shifted tuple recenters every neighborhood one index down and
    relaxes its membership threshold by one step, which is the one-step
    preimage reading of the original tuple. Applies to head-indexed
    trajectories with finite centers.
    """
    if traj.family != FAMILY_LOG_M:
        raise ValueError("the shift property applies to the head-indexed family")
    if any(s.center.kind != KIND_HEAD for s in specs):
        raise ValueError("the shift property needs finite centers")
    J = tuple(sorted(J))
    if len(J) < 2:
        raise ValueError("need at least two times to drop the minimum")
    shifted_times = tuple(t - 1 for t in J[1:])
    shifted = tuple(NeighborhoodSpec(Symbol.head(s.center.index - 1), s.level,
                                     s.threshold_offset - 1)
                    for s in specs)
    return is_independence_set(shifted_times, shifted, traj,
                               horizon=horizon).ok
