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
from array import array
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import Infeasible, ScheduleInvalid
from .model import (
    FAMILY_LOG_INFTY,
    FAMILY_LOG_M,
    BlockRecord,
    SegmentRecord,
    SegmentationManifest,
    Trajectory,
    dense_index,
    dense_value,
)

GROWTH_FACTOR = 100  # constrained lengths exceed GROWTH_FACTOR * |prefix|


# ---------------------------------------------------------------------------
# wind planning


@dataclass(frozen=True)
class WindPlan:
    """A single wind: ascend a_p .. a_J, jump, ascend a_-P .. a_q.

    jump_from is J, jump_depth is P; the two sides have J - p + 1 and
    q + P + 1 points, totalling w.
    """

    p: int
    q: int
    w: int
    jump_from: int
    jump_depth: int

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


@dataclass
class GrowthSchedule:
    """Segment lengths for a build.

    Head-indexed family: per block k a list of k wind lengths, the inner gap
    lengths (m^(k+1) - 1 of them), and the outer gap length. Dense family:
    per block n the chain tolerance eps_n and the designated times t_{n,i}.
    """

    family: str
    m: int
    winds: list[list[int]] = field(default_factory=list)
    inner_gaps: list[list[int]] = field(default_factory=list)
    outer_gaps: list[int] = field(default_factory=list)
    eps: list[Fraction] = field(default_factory=list)
    times: list[list[int]] = field(default_factory=list)


def patterns(m: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All functions {0..k} -> {0..m-1} in lexicographic order."""
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
        funcs = patterns(m, k)
        pos = block_start + piece_len
        igs = []
        for _ in range(1, len(funcs)):
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
    def __init__(self):
        self.runs: list[tuple[int, int, int]] = []
        self.segments: list[SegmentRecord] = []
        self.pos = 0

    def emit_wind(self, path: str, kind: str, p: int, q: int, w: int,
                  shared: bool) -> SegmentRecord:
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
        rec = SegmentRecord(
            path=path, kind=kind, start=start, length=w - (1 if shared else 0),
            p=p, q=q, w=w, jump_from=plan.jump_from,
            jump_depth=plan.jump_depth, shared=shared)
        self.segments.append(rec)
        self.pos = rec.end
        return rec


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
        og_start = em.pos
        em.emit_wind(f"OG{k}", "outer-gap", m, -1, og, shared=False)
        blocks.append(BlockRecord(
            level=k, start=block_start, end=block_end,
            times=tuple(times), functions=funcs,
            piece_starts=tuple(piece_starts), winds=tuple(ws),
            inner_gaps=tuple(igs), outer_gap=og, outer_gap_start=og_start))

    manifest = SegmentationManifest(FAMILY_LOG_M, m, kmax, blocks, em.segments)
    return Trajectory(FAMILY_LOG_M, m, manifest, runs=em.runs,
                      schedule=schedule)


# ---------------------------------------------------------------------------
# epsilon-chains over the dyadic enumeration


def chain_min_interior(a, b, eps) -> int:
    """Least number of interior points an eps-chain from a to b can have.

    A chain takes steps of size strictly below eps, so k steps suffice
    exactly when |b - a| < k * eps; dyadic interiors realizing any such k
    always exist (the dyadics are dense).
    """
    a, b, eps = Fraction(a), Fraction(b), Fraction(eps)
    if eps <= 0:
        raise ValueError("tolerance must be positive")
    gap = abs(b - a)
    if gap < eps:
        return 0
    return int(gap / eps)  # least k with gap < k * eps, minus one


def _dyadic_level(x: Fraction) -> int:
    den = x.denominator
    if den & (den - 1):
        raise ValueError(f"{x} is not dyadic")
    return den.bit_length() - 1


def _chain_interior(a: Fraction, b: Fraction, eps: Fraction,
                    n: int) -> list[Fraction]:
    """n interior dyadics making (a, ..., b) an eps-chain; n >= minimum."""
    if n == 0:
        return []
    if a == b:
        level = max(_dyadic_level(a), 1)
        delta = Fraction(1, 2 ** level)
        while delta >= eps:
            delta /= 2
        c = a + delta if a + delta <= 1 else a - delta
        return [c] * n
    steps = n + 1
    exact = abs(b - a) / steps
    margin = eps - exact
    level = max(_dyadic_level(a), _dyadic_level(b), 1)
    grid = Fraction(1, 2 ** level)
    while grid > margin / 2 or grid > exact / 2:
        grid /= 2
    sign = 1 if b > a else -1
    out = []
    for i in range(1, steps):
        target = a + sign * exact * i
        snapped = Fraction(round(target / grid)) * grid
        out.append(snapped)
    return out


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
        values = [dense_value(j) for j in range(1, n + 2)]
        g = 1 + max(chain_min_interior(va, vb, eps)
                    for va in values for vb in values)
        eps_list.append(eps)
        times_list.append([i * g for i in range(1, n + 1)])
    return GrowthSchedule(FAMILY_LOG_INFTY, nmax, eps=eps_list,
                          times=times_list)


def build_log_infty(nmax: int, schedule: GrowthSchedule | None = None) -> Trajectory:
    """Assemble the dense-family trajectory as a piece table.

    Block n realizes every function {slot times} -> {first n+1 enumeration
    values} in lexicographic order through equal-length pattern segments,
    glued by minimal eps_n-chains; a tail chain returns the block to the
    first enumeration value, so blocks start and end there.

    No symbol list is built. A pattern segment is its lone first value,
    then per slot the slot's chain followed by the slot's end value; a glue
    is one chain, and the tail its chain followed by e1. Each distinct
    piece is kept once, and each placement as its start and piece id.
    """
    if schedule is None:
        schedule = default_dense_schedule(nmax)
    if schedule.family != FAMILY_LOG_INFTY:
        raise ScheduleInvalid("schedule family mismatch")
    if not 1 <= nmax <= len(schedule.eps):
        raise ScheduleInvalid(f"schedule covers {len(schedule.eps)} blocks, "
                              f"nmax={nmax} requested")

    # each distinct piece once, as a key whose value is its id; then each
    # placement's start and piece id
    piece_ids: dict[tuple[int, ...], int] = {}
    starts = array("q")
    ids = array("I")
    segments: list[SegmentRecord] = []
    blocks: list[BlockRecord] = []
    pos = 0

    def piece_id(piece: tuple[int, ...]) -> int:
        return piece_ids.setdefault(piece, len(piece_ids))

    def place(piece: tuple[int, ...]):
        nonlocal pos
        starts.append(pos)
        ids.append(piece_id(piece))
        pos += len(piece)

    for n in range(1, nmax + 1):
        eps = schedule.eps[n - 1]
        rel = [0] + list(schedule.times[n - 1])
        if len(rel) != n + 1 or any(rel[i] >= rel[i + 1] for i in range(n)):
            raise ScheduleInvalid(f"block {n} needs {n} increasing times")
        # values 1..n+1, the block's first n+1 enumeration indices
        funcs = tuple(itertools.product(range(1, n + 2), repeat=n + 1))
        # the block's chains, between enumeration indices, each made once
        @functools.cache
        def least_interior(a: int, b: int) -> int:
            return chain_min_interior(dense_value(a), dense_value(b), eps)

        @functools.cache
        def chain(a: int, b: int, count: int) -> tuple[int, ...]:
            return tuple(map(dense_index, _chain_interior(
                dense_value(a), dense_value(b), eps, count)))

        # each slot's piece per value pair its gap can chain: the chain and
        # the pair's second value; a pattern segment places its first value,
        # then its slots' pieces
        slots = [{(a, b): piece_id(chain(a, b, need) + (b,))
                  for a in range(1, n + 2) for b in range(1, n + 2)
                  if need >= least_interior(a, b)}
                 for need in (rel[i + 1] - rel[i] - 1 for i in range(n))]
        offsets = [0] + [t + 1 for t in rel[:-1]]
        block_start = pos
        seg_starts = []
        prev: int | None = None
        glue_count = 0
        for li, f in enumerate(funcs, 1):
            if prev is not None:
                interior = chain(prev, f[0], least_interior(prev, f[0]))
                if interior:
                    glue_count += 1
                    segments.append(SegmentRecord(
                        path=f"B{n}/G{glue_count}", kind="glue",
                        start=pos, length=len(interior)))
                    place(interior)
            seg_starts.append(pos)
            starts.extend([pos + o for o in offsets])
            ids.append(piece_id(f[:1]))
            try:
                ids.extend(map(dict.__getitem__, slots, zip(f, f[1:])))
            except KeyError:
                i = next(i for i in range(n) if f[i:i + 2] not in slots[i])
                raise ScheduleInvalid(
                    f"block {n}: slot gap {rel[i + 1] - rel[i]} cannot chain "
                    f"{dense_value(f[i])} to {dense_value(f[i + 1])} "
                    f"at {eps}") from None
            segments.append(SegmentRecord(
                path=f"B{n}/S{li}", kind="pattern", start=pos,
                length=rel[-1] + 1, function=f))
            pos += rel[-1] + 1
            prev = f[-1]
        # tail back to the first enumeration value, ending on it
        tail = chain(prev, 1, least_interior(prev, 1)) + (1,)
        glue_count += 1
        segments.append(SegmentRecord(
            path=f"B{n}/G{glue_count}", kind="glue", start=pos,
            length=len(tail)))
        place(tail)
        blocks.append(BlockRecord(
            level=n, start=block_start, end=pos,
            times=tuple(rel), functions=funcs,
            piece_starts=tuple(seg_starts), eps=eps))

    manifest = SegmentationManifest(FAMILY_LOG_INFTY, nmax, nmax, blocks,
                                    segments)
    return Trajectory(FAMILY_LOG_INFTY, nmax, manifest,
                      piece_table=(tuple(piece_ids), starts, ids),
                      schedule=schedule)
