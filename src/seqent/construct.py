"""Builders for the two trajectory families.

The head-indexed family realizes every pattern over {0..m-1} at designated
times inside framed pieces, separated by gaps whose lengths obey strict
growth rules (each constrained segment is more than 100 times longer than
everything before it). The dense family walks epsilon-chains through the
dyadic enumeration and realizes every pattern over the first n+1 enumeration
values inside block n.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from .errors import Infeasible, ScheduleInvalid
from .model import (
    FAMILY_LOG_INFTY,
    FAMILY_LOG_M,
    BlockRecord,
    DenseBlock,
    SegmentationManifest,
    Trajectory,
    _Frozen,
    _Record,
    dense_dyadic,
    dense_value,
    dyadic_index,
)

GROWTH_FACTOR = 100  # constrained lengths exceed GROWTH_FACTOR * |prefix|


# ---------------------------------------------------------------------------
# wind planning


class WindPlan(_Frozen):
    """A single wind: ascend a_p .. a_J, jump, ascend a_-P .. a_q.

    jump_from is J, jump_depth is P; the two sides have J - p + 1 and
    q + P + 1 points, totalling w.
    """

    __slots__ = _fields = ("p", "q", "w", "jump_from", "jump_depth")

    @property
    def right_length(self) -> int:
        return self.jump_from - self.p + 1

    @property
    def left_length(self) -> int:
        return self.q + self.jump_depth + 1


def plan_wind(p: int, q: int, w: int) -> WindPlan:
    """Plan the unique wind of length w from a_p to a_q.

    The jump total S = J + P equals w - 2 + p - q. The split is balanced:
    even S gives J = P, odd S leans toward the longer approach side
    (J - P = sign(q - p), falling back to J = P - 1 when p = q). Feasibility
    needs J >= max(p, 0) + 1 and P >= max(-q, 0) + 1; the balanced split is
    clamped into that region when possible, otherwise the wind is infeasible.
    """
    if w < max(q - p + 5, 6):
        raise Infeasible(f"wind of length {w} from a_{p} to a_{q} is too short")
    total = w - 2 + p - q
    min_from = max(p, 0) + 1
    min_depth = max(-q, 0) + 1
    if total < min_from + min_depth:
        raise Infeasible(
            f"no jump split for length {w} from a_{p} to a_{q}")
    if total % 2 == 0:
        jump_from = total // 2
    elif q > p:
        jump_from = (total + 1) // 2
    else:
        jump_from = total // 2  # covers q < p and the p = q fallback
    jump_from = max(jump_from, min_from)
    if total - jump_from < min_depth:
        jump_from = total - min_depth
    if jump_from < min_from:
        raise Infeasible(
            f"no jump split for length {w} from a_{p} to a_{q}")
    return WindPlan(p, q, w, jump_from, total - jump_from)


# ---------------------------------------------------------------------------
# growth schedules


class GrowthSchedule(_Record):
    """Segment lengths for a build.

    Head-indexed family: per block k a list of k wind lengths, the inner gap
    lengths (m^(k+1) - 1 of them), and the outer gap length. Dense family:
    per block n the chain tolerance eps_n and the designated times t_{n,i}.
    """

    _fields = ("family", "m", "winds", "inner_gaps", "outer_gaps", "eps",
               "times")
    _defaults = (list, list, list, list, list)


def patterns(m: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All patterns {0..k} -> {0..m-1} in lexicographic order."""
    return tuple(itertools.product(range(m), repeat=k + 1))


def minimal_schedule(m: int, kmax: int) -> GrowthSchedule:
    """Least schedule obeying the growth rules.

    The very first wind has the pinned length 3m + 2. Every other
    constrained length is the least value strictly greater than 100 times
    the number of points before it. No length needs rounding up to make its
    wind feasible: ``plan_wind`` needs at most m + 6 points between heads
    a_-1 .. a_m, and 3m + 2 is already that many for m >= 2.
    """
    if m < 2:
        raise ScheduleInvalid("alphabet size must be at least 2")
    if kmax < 1:
        raise ScheduleInvalid("at least one block is required")
    winds: list[list[int]] = []
    inner: list[list[int]] = []
    outer: list[int] = []
    pos = 0
    for k in range(1, kmax + 1):
        block_start = pos
        ws = []
        n = 0  # n_{i-1}, offset of the previous wind's endpoint
        for i in range(1, k + 1):
            if k == 1 and i == 1:
                w = 3 * m + 2
            else:
                w = GROWTH_FACTOR * (block_start + n) + 1
            ws.append(w)
            n += w - 1
        piece_len = n + 1
        pos = block_start + piece_len
        igs = []
        for _ in range(1, m ** (k + 1)):
            g = GROWTH_FACTOR * pos + 1
            igs.append(g)
            pos += g + piece_len
        og = GROWTH_FACTOR * pos + 1
        pos += og
        winds.append(ws)
        inner.append(igs)
        outer.append(og)
    return GrowthSchedule(FAMILY_LOG_M, m, winds=winds, inner_gaps=inner,
                          outer_gaps=outer)


# ---------------------------------------------------------------------------
# head-indexed builder


class _Emitter:
    """Runs and the head-indexed manifest's columns, one wind at a time."""

    def __init__(self):
        self.runs: list[tuple[int, int, int]] = []
        self.starts: list[int] = []
        self.lengths: list[int] = []
        self.paths: list[str] = []
        self.kinds: list[str] = []
        self.plans: list[WindPlan] = []
        self.pos = 0

    def emit_wind(self, path: str, kind: str, p: int, q: int, w: int,
                  shared: bool):
        try:
            plan = plan_wind(p, q, w)
        except Infeasible as exc:
            raise ScheduleInvalid(f"segment {path}: {exc}") from exc
        start = self.pos
        right_first = p + 1 if shared else p
        right_len = plan.right_length - (1 if shared else 0)
        if right_len > 0:
            self.runs.append((start, right_first, right_len))
        self.runs.append((start + right_len, -plan.jump_depth,
                          plan.left_length))
        self.starts.append(start)
        self.lengths.append(w - (1 if shared else 0))
        self.paths.append(path)
        self.kinds.append(kind)
        self.plans.append(plan)
        self.pos = start + self.lengths[-1]


def build_log_m(m: int, kmax: int, schedule: GrowthSchedule) -> Trajectory:
    """Assemble the head-indexed trajectory for a schedule.

    Block k holds m^(k+1) pieces, one per pattern in lexicographic order,
    separated by inner gaps; an outer gap trails the block. Piece l realizes
    its pattern at the designated times {n_0 .. n_k}: consecutive winds
    share their endpoint, so x_{j + n_i} carries symbol a_{pattern(i)}.
    """
    if schedule.family != FAMILY_LOG_M:
        raise ScheduleInvalid("schedule family mismatch")
    if schedule.m != m:
        raise ScheduleInvalid("schedule alphabet size mismatch")
    if m < 2:
        raise ScheduleInvalid("alphabet size must be at least 2")
    if not 1 <= kmax <= len(schedule.winds):
        raise ScheduleInvalid(f"schedule covers {len(schedule.winds)} blocks, "
                              f"kmax={kmax} requested")
    if not (len(schedule.inner_gaps) >= kmax and len(schedule.outer_gaps) >= kmax):
        raise ScheduleInvalid("schedule is missing gap lengths")

    em = _Emitter()
    blocks: list[BlockRecord] = []
    for k in range(1, kmax + 1):
        ws = schedule.winds[k - 1]
        igs = schedule.inner_gaps[k - 1]
        og = schedule.outer_gaps[k - 1]
        if len(ws) != k:
            raise ScheduleInvalid(f"block {k} needs {k} wind lengths")
        funcs = patterns(m, k)
        if len(igs) != len(funcs) - 1:
            raise ScheduleInvalid(
                f"block {k} needs {len(funcs) - 1} inner gap lengths")
        times = [0]
        for w in ws:
            times.append(times[-1] + w - 1)
        block_start = em.pos
        piece_starts = []
        for l, f in enumerate(funcs, 1):
            if l > 1:
                prev = funcs[l - 2]
                em.emit_wind(f"B{k}/IG{l - 1}", "inner-gap",
                             prev[k] + 1, f[0] - 1, igs[l - 2], shared=False)
            piece_starts.append(em.pos)
            for i in range(1, k + 1):
                em.emit_wind(f"B{k}/P{l}/W{i}", "wind",
                             f[i - 1], f[i], ws[i - 1], shared=(i > 1))
        block_end = em.pos
        em.emit_wind(f"OG{k}", "outer-gap", m, -1, og, shared=False)
        blocks.append(BlockRecord(k, block_start, block_end, tuple(times),
                                  tuple(piece_starts)))

    manifest = SegmentationManifest(blocks, em.starts, em.lengths,
                                    paths=em.paths, kinds=em.kinds,
                                    plans=em.plans)
    return Trajectory(FAMILY_LOG_M, m, manifest, runs=em.runs,
                      schedule=schedule)


# ---------------------------------------------------------------------------
# epsilon-chains over the dyadic enumeration
#
# The builder computes chains on integers: e_a and e_b as numerators over a
# common 2^L, the tolerance as its numerator and denominator.


def chain_min_interior(a, b, eps) -> int:
    """Least number of interior points an eps-chain from a to b can have.

    A chain takes steps of size strictly below eps, so k steps suffice
    exactly when |b - a| < k * eps; dyadic interiors realizing any such k
    always exist (the dyadics are dense). The least k is floor(|b - a| /
    eps) + 1.
    """
    gap, eps = abs(Fraction(b) - Fraction(a)), Fraction(eps)
    if eps <= 0:
        raise ValueError("tolerance must be positive")
    return gap.numerator * eps.denominator // (gap.denominator * eps.numerator)


def _over_common_level(a: int, b: int) -> tuple[int, int, int]:
    """e_a and e_b as numerators over 2^L, and L: the least level, at least
    1, that holds both."""
    (ua, la), (ub, lb) = dense_dyadic(a), dense_dyadic(b)
    level = max(la, lb, 1)
    return ua << (level - la), ub << (level - lb), level


def _least_interior(a: int, b: int, eps: Fraction) -> int:
    """``chain_min_interior`` between e_a and e_b."""
    ua, ub, level = _over_common_level(a, b)
    return abs(ub - ua) * eps.denominator // (eps.numerator << level)


def _chain_interior(a: int, b: int, eps: Fraction,
                    n: int) -> tuple[int, ...]:
    """Positions of n interior dyadics making (e_a, ..., e_b) an eps-chain;
    n is at least ``_least_interior(a, b, eps)``.

    Equal ends repeat the neighbour one grid step above them (below, at 1)
    on the grid 2^-L of their level, halved until it is finer than eps.
    Otherwise the n + 1 equal steps' inner points are rounded, half to
    even, to the coarsest grid, from the ends' level down, at most half a
    step and half the step's margin below eps.
    """
    if n == 0:
        return ()
    ua, ub, level = _over_common_level(a, b)
    num, den = eps.numerator, eps.denominator
    if ua == ub:
        while den >= num << level:  # 2^-level >= eps
            ua, level = ua << 1, level + 1
        c = ua + 1 if ua < 1 << level else ua - 1
        return (dyadic_index(c, level),) * n
    steps = n + 1
    gap = abs(ub - ua)
    # over 2^level, a step is gap / steps and its margin eps * 2^level -
    # gap / steps; the grid is one unit
    while 2 * steps > gap or (2 * steps + gap) * den > num * steps << level:
        ua, ub, gap, level = ua << 1, ub << 1, gap << 1, level + 1
    out = []
    for i in range(1, steps):
        q, r = divmod(ua * steps + (ub - ua) * i, steps)
        if 2 * r > steps or 2 * r == steps and q & 1:
            q += 1
        out.append(dyadic_index(q, level))
    return tuple(out)


# ---------------------------------------------------------------------------
# dense builder


def default_dense_schedule(nmax: int) -> GrowthSchedule:
    """Tolerances eps_n = 2^-n and the least uniform designated times.

    The slot spacing g_n is one more than the largest minimal chain length
    between any two of the first n+1 enumeration values, so every pattern
    segment can realize every value pair between consecutive slots.
    """
    if nmax < 1:
        raise ScheduleInvalid("at least one block is required")
    eps_list = []
    times_list = []
    for n in range(1, nmax + 1):
        eps = Fraction(1, 2 ** n)
        g = 1 + max(_least_interior(a, b, eps)
                    for a in range(1, n + 2) for b in range(1, n + 2))
        eps_list.append(eps)
        times_list.append([i * g for i in range(1, n + 1)])
    return GrowthSchedule(FAMILY_LOG_INFTY, nmax, eps=eps_list,
                          times=times_list)


def build_log_infty(nmax: int, schedule: GrowthSchedule | None = None) -> Trajectory:
    """Assemble the dense-family trajectory as per-block tables.

    Block n realizes every function {slot times} -> {first n+1 enumeration
    values} in lexicographic order through equal-length pattern segments,
    glued by minimal eps_n-chains; a tail chain returns the block to the
    first enumeration value, so blocks start and end there.

    Only each block's tables are built (``DenseBlock``): per slot and value
    pair the slot's chain followed by the pair's second value, per value
    pair the glue chain, and the tail. A pattern segment is its lone first
    value, then its slots' pieces. Every placement, segment and symbol is
    computed from a pattern's digits, so the build costs O(n^3) chains per
    block, not one entry per pattern: nmax=6 takes a few milliseconds.
    """
    if schedule is None:
        schedule = default_dense_schedule(nmax)
    if schedule.family != FAMILY_LOG_INFTY:
        raise ScheduleInvalid("schedule family mismatch")
    if not 1 <= nmax <= len(schedule.eps):
        raise ScheduleInvalid(f"schedule covers {len(schedule.eps)} blocks, "
                              f"nmax={nmax} requested")

    blocks: list[DenseBlock] = []
    pos = 0
    for n in range(1, nmax + 1):
        eps = schedule.eps[n - 1]
        rel = [0] + list(schedule.times[n - 1])
        if len(rel) != n + 1 or any(rel[i] >= rel[i + 1] for i in range(n)):
            raise ScheduleInvalid(f"block {n} needs {n} increasing times")
        if eps <= 0:
            raise ValueError("tolerance must be positive")
        N = n + 1
        values = range(1, N + 1)  # the block's first n+1 enumeration indices
        # in the tables' order: pair (a, b) at (a - 1) * N + b - 1
        pairs = [(a, b) for a in values for b in values]
        least = {(a, b): _least_interior(a, b, eps) for a, b in pairs}
        # the block's chains, between enumeration indices, each made once
        chain = functools.cache(
            lambda a, b, count: _chain_interior(a, b, eps, count))
        gaps = [rel[i + 1] - rel[i] for i in range(n)]
        # a slot that cannot chain a pair: name the first pattern holding
        # it, pair (a, b) at slots i, i + 1 and zeros elsewhere, and there
        # the first such slot
        short = [(((a - 1) * N + b - 1) * N ** (n - 1 - i), i, a, b)
                 for i, gap in enumerate(gaps) for a, b in pairs
                 if gap - 1 < least[a, b]]
        if short:
            _, i, a, b = min(short)
            raise ScheduleInvalid(
                f"block {n}: slot gap {gaps[i]} cannot chain "
                f"{dense_value(a)} to {dense_value(b)} at {eps}")
        slots = tuple(tuple(chain(a, b, gap - 1) + (b,) for a, b in pairs)
                      for gap in gaps)
        glues = tuple(chain(a, b, least[a, b]) for a, b in pairs)
        # the tail back to the first enumeration value, ending on it
        tail = chain(N, 1, least[N, 1]) + (1,)
        block = DenseBlock(n, pos, tuple(rel), slots, glues, tail)
        blocks.append(block)
        pos = block.end

    return Trajectory(FAMILY_LOG_INFTY, nmax, SegmentationManifest(blocks),
                      schedule=schedule)
