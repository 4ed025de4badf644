"""Core state space: symbols, model points, trajectories, neighborhoods.

A trajectory is a countable forward orbit x_0, x_1, ... through a space that
also carries a family of distinguished fixed reference points ("heads").
Two families are supported:

* the head-indexed family ("log-m"): symbols are heads a_i for i in Z plus a
  single limit head a_inf; the orbit winds through ascending index runs with
  occasional recorded jumps to negative indices,
* the dense family ("log-infty"): symbols are heads e_j enumerating the dyadic
  rationals of [0, 1]; the orbit walks epsilon-chains through that set.

Orbits can be astronomically long (the growth rules force roughly a factor
of 101 per constrained segment), so the head-indexed family stores symbols as
maximal ascending runs with exact integer arithmetic and never materializes
individual points. The dense family stores a piece table: the few distinct
chain pieces its segments are made of, and where each one is placed.
"""

from __future__ import annotations

import bisect
from array import array
from fractions import Fraction
from itertools import islice, product
from operator import attrgetter

from .errors import HorizonExceeded, UnknownBlock

KIND_HEAD = "head"
KIND_HEAD_INF = "head-inf"
KIND_DENSE = "dense"

FAMILY_LOG_M = "log-m"
FAMILY_LOG_INFTY = "log-infty"

# longest piece Trajectory.symbol_pieces yields, in times; formats renders
# a piece at a time, and its whole-piece temporaries (a dense piece's int
# list and its tuple, a head-indexed span's lines and one digit column)
# this keeps small
PIECE_TIMES = 16_384

_set = object.__setattr__  # sets a field past _Frozen's refusal


# ---------------------------------------------------------------------------
# records


class _Record:
    """A record of the fields named in ``_fields``, compared (same class
    only), shown and copied with changes (``_replace``) field by field.

    A record class without its own ``__init__`` takes its fields in order,
    by position or by name; the last ones default to ``_defaults``, where a
    type (``list``, ``dict``) is called to give each record its own.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: tuple = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        if cls._fields:
            cls._values = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        fields, defaults = self._fields, self._defaults
        first = len(fields) - len(defaults)
        for i, name in enumerate(fields):
            if i < len(args):
                value = args[i]
            elif name in kwargs:
                value = kwargs.pop(name)
            elif i < first:
                raise TypeError(f"{type(self).__name__} needs {name}")
            else:
                value = defaults[i - first]
                if isinstance(value, type):
                    value = value()
            _set(self, name, value)
        if kwargs or len(args) > len(fields):
            raise TypeError(f"{type(self).__name__} has the fields {fields}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == other._values(other)

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def _replace(self, **changes):
        """A new record of this class, with ``changes`` to its fields."""
        values = {f: getattr(self, f) for f in self._fields}
        return type(self)(**{**values, **changes})


class _Frozen(_Record):
    """A record whose fields cannot be assigned; it hashes by its fields."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen: {name}")

    __delattr__ = __setattr__

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __reduce__(self):
        # copy and pickle rebuild the record rather than assign its slots
        return type(self), self._values(self)


# ---------------------------------------------------------------------------
# symbols


class Symbol(_Frozen):
    """A symbol names a head of the space.

    kind "head" carries an integer index (a_i), kind "head-inf" is the limit
    head a_inf, kind "dense" carries a 1-based position in the dyadic
    enumeration (e_j).
    """

    __slots__ = _fields = ("kind", "index")
    _defaults = (0,)

    @staticmethod
    def head(i: int) -> "Symbol":
        return Symbol(KIND_HEAD, i)

    @staticmethod
    def head_inf() -> "Symbol":
        return Symbol(KIND_HEAD_INF, 0)

    @staticmethod
    def dense(j: int) -> "Symbol":
        if j < 1:
            raise ValueError("dense symbols are 1-based")
        return Symbol(KIND_DENSE, j)

    @property
    def value(self) -> Fraction:
        """Dyadic value of a dense symbol."""
        if self.kind != KIND_DENSE:
            raise ValueError("only dense symbols carry a value")
        return dense_value(self.index)

    def render(self) -> str:
        if self.kind == KIND_HEAD:
            return f"a{self.index}"
        if self.kind == KIND_HEAD_INF:
            return "a_inf"
        return f"e{self.index}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Symbol({self.render()})"


def parse_symbol(token: str) -> Symbol:
    """Inverse of Symbol.render, used by file formats and the CLI."""
    token = token.strip()
    if token == "a_inf":
        return Symbol.head_inf()
    if token.startswith("a"):
        return Symbol.head(int(token[1:]))
    if token.startswith("e"):
        return Symbol.dense(int(token[1:]))
    raise ValueError(f"unrecognized symbol token: {token!r}")


# ---------------------------------------------------------------------------
# dyadic enumeration for the dense family
#
# Order: 0, 1, then for each level L >= 1 the odd numerators u/2^L ascending.
# Positions are 1-based.


def dense_dyadic(j: int) -> tuple[int, int]:
    """(u, L) with e_j = u / 2^L in lowest terms (L = 0 for 0 and 1)."""
    if j <= 2:
        return j - 1, 0
    # level L >= 1 holds the positions 2^(L-1) + 2 .. 2^L + 1
    level = (j - 2).bit_length()
    return 2 * j - (1 << level) - 3, level


def dyadic_index(u: int, level: int) -> int:
    """Position of u / 2^level, a dyadic rational from [0, 1], in the
    enumeration; u need not be odd."""
    if u == 0:
        return 1
    zeros = (u & -u).bit_length() - 1
    u, level = u >> zeros, level - zeros
    return 2 if level == 0 else (1 << (level - 1)) + 1 + (u + 1) // 2


def dense_value(j: int) -> Fraction:
    u, level = dense_dyadic(j)
    return Fraction(u, 1 << level)


def dense_index(value: Fraction) -> int:
    """Position of a dyadic rational from [0, 1] in the enumeration."""
    value = Fraction(value)
    if value < 0 or value > 1:
        raise ValueError("dense symbols live in [0, 1]")
    den = value.denominator
    if den & (den - 1):
        raise ValueError(f"{value} is not dyadic")
    return dyadic_index(value.numerator, den.bit_length() - 1)


# ---------------------------------------------------------------------------
# model points


class ModelPoint(_Frozen):
    """Either an orbit point x_t or a head (fixed reference point)."""

    __slots__ = _fields = ("kind", "time", "symbol")

    def __init__(self, kind: str, time: int = 0, symbol: Symbol | None = None):
        _set(self, "kind", kind)  # "orbit" | "head"
        _set(self, "time", time)
        _set(self, "symbol", symbol)

    @staticmethod
    def orbit(t: int) -> "ModelPoint":
        if t < 0:
            raise ValueError("orbit times are nonnegative")
        return ModelPoint("orbit", t, None)

    @staticmethod
    def head(sym: Symbol) -> "ModelPoint":
        return ModelPoint("head", 0, sym)

    @property
    def is_orbit(self) -> bool:
        return self.kind == "orbit"

    def render(self) -> str:
        if self.is_orbit:
            return f"x{self.time}"
        return self.symbol.render()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ModelPoint({self.render()})"


# ---------------------------------------------------------------------------
# segmentation manifest


class BlockRecord(_Frozen):
    """One block: ``end`` is exclusive, the block proper (last piece or
    tail glue end); ``times`` are the designated times relative to a piece
    start, and ``piece_starts`` each piece's first time. Piece l realizes
    the block's l-th pattern in lexicographic order, so the pattern is
    derived, not kept; the lengths are the schedule's."""

    __slots__ = _fields = ("level", "start", "end", "times", "piece_starts")


class SegmentationManifest(_Record):
    """The orbit's segments, held as columns in time order.

    ``starts`` and ``lengths`` give each segment's first owned time and its
    number of owned points; the segments tile the times from 0. The
    head-indexed family also keeps each segment's ``paths`` and ``kinds``
    entry (wind, inner-gap or outer-gap) and its wind plan in ``plans``
    (anything with p, q, w, jump_from and jump_depth); a wind that owns
    one point less than w shares its first point. Its times pass 2^63, so
    its columns are lists. The dense family keeps ``array``s of starts and
    lengths and nothing more: a segment that starts at one of its block's
    ``piece_starts`` is the pattern segment ``B{n}/S{l}`` realizing the
    block's l-th pattern, and any other is the block's next glue
    ``B{n}/G{g}``. ``walk`` names the segments, and ``path(i)`` is its
    per-index form.
    """

    _fields = ("blocks", "starts", "lengths", "paths", "kinds", "plans")
    _defaults = (None, None, None)

    def block(self, k: int) -> BlockRecord:
        if not 1 <= k <= len(self.blocks):
            raise UnknownBlock(f"block {k} not built (have 1..{len(self.blocks)})")
        return self.blocks[k - 1]

    def path(self, i: int) -> str:
        """Segment i's path, from a walk started at i."""
        return next(self.walk(i))[0]

    def walk(self, i: int = 0):
        """(path, kind, plan, function) of segment i and every later one, in
        order: a head-indexed segment's wind plan and no function, or a
        dense segment's "pattern" and the pattern it realizes, or "glue"
        and None, and no plan. i is a sequence index: -1 is the last
        segment, and one out of range raises IndexError."""
        starts = self.starts
        i = range(len(starts))[i]
        if self.plans is not None:
            for i in range(i, len(starts)):
                yield self.paths[i], self.kinds[i], self.plans[i], None
            return
        # segment i's block, and the block's pattern and glue segments
        # before it
        start = starts[i]
        block = self.blocks[bisect.bisect_right(
            self.blocks, start, key=attrgetter("start")) - 1]
        l = bisect.bisect_left(block.piece_starts, start)
        g = i - bisect.bisect_left(starts, block.start) - l
        for block in self.blocks[block.level - 1:]:
            n, piece_starts = block.level, block.piece_starts
            patterns = islice(product(range(1, n + 2), repeat=n + 1), l, None)
            end = bisect.bisect_left(starts, block.end)
            for i in range(i, end):
                if l < len(piece_starts) and piece_starts[l] == starts[i]:
                    l += 1
                    yield f"B{n}/S{l}", "pattern", None, next(patterns)
                else:
                    g += 1
                    yield f"B{n}/G{g}", "glue", None, None
            i, l, g = end, 0, 0


# ---------------------------------------------------------------------------
# neighborhoods


class NeighborhoodSpec(_Frozen):
    """U^level(center), the level-th basic neighborhood of a head.

    threshold_offset shifts the orbit membership threshold and exists for
    one-step preimage reasoning; regular callers leave it at 0.
    """

    __slots__ = _fields = ("center", "level", "threshold_offset")
    _defaults = (0,)

    def render(self) -> str:
        return f"U{self.level}({self.center.render()})"


def infinity_window(level: int) -> int:
    """Head indices with |i| >= infinity_window(level) sit inside
    U^level(a_inf)."""
    return 3 + level


# ---------------------------------------------------------------------------
# trajectory


class Trajectory:
    """A built orbit plus its segmentation manifest.

    Use the builders in ``construct`` to create one. Symbol queries accept
    any time below ``n_points`` regardless of how long the orbit is, by
    binary search over the head-indexed family's ascending runs or the
    dense family's placements.

    The dense ``piece_table`` is (pieces, starts, ids): the distinct pieces
    (tuples of dense positions) and, per placement in time order, its first
    time and its piece's index (``array``s). Placements cover the times
    from 0 without gaps, and each block starts at one.

    ``symbol_pieces`` takes its paths from one manifest walk.
    """

    def __init__(
        self,
        family: str,
        m: int,
        manifest: SegmentationManifest,
        runs: list[tuple[int, int, int]] | None = None,
        piece_table: tuple[tuple[tuple[int, ...], ...], array, array]
        | None = None,
        schedule=None,
    ):
        self.family = family
        self.m = m
        self.manifest = manifest
        self.schedule = schedule
        self._runs = runs or []
        self._run_starts = [r[0] for r in self._runs]
        self.piece_table = piece_table
        # hit lists, one per asked index, and each dense piece's starts
        self._hits: dict[int, tuple[int, ...]] = {}
        self._placed: list[array] | None = None
        if family == FAMILY_LOG_M:
            last = self._runs[-1]
            self.n_points = last[0] + last[2]
        else:
            pieces, starts, ids = piece_table
            self.n_points = starts[-1] + len(pieces[ids[-1]])
        # search caches filled by ``independence``, keyed by neighborhood
        self._occ_cache: dict = {}

    # -- basic queries ------------------------------------------------------

    @property
    def horizon(self) -> int:
        """Largest valid orbit time."""
        return self.n_points - 1

    @property
    def kmax(self) -> int:
        return len(self.manifest.blocks)

    def check_time(self, t: int) -> None:
        if not 0 <= t < self.n_points:
            raise HorizonExceeded(f"time {t} outside [0, {self.n_points})")

    def symbol_index_at(self, t: int) -> int:
        """Head index (log-m) or dense position (log-infty) of x_t."""
        self.check_time(t)
        if self.piece_table is not None:
            pieces, starts, ids = self.piece_table
            i = bisect.bisect_right(starts, t) - 1
            return pieces[ids[i]][t - starts[i]]
        i = bisect.bisect_right(self._run_starts, t) - 1
        start, first, _length = self._runs[i]
        return first + (t - start)

    def symbol_at(self, t: int) -> Symbol:
        idx = self.symbol_index_at(t)
        if self.family == FAMILY_LOG_M:
            return Symbol.head(idx)
        return Symbol.dense(idx)

    def block_range(self, k: int) -> tuple[int, int]:
        """Inclusive time range of block k proper (no trailing outer gap)."""
        b = self.manifest.block(k)
        return b.start, b.end - 1

    def level_threshold(self, level: int) -> int:
        """Orbit membership threshold for level: start of block ``level``."""
        return self.manifest.block(level).start

    # -- runs and hit lists -------------------------------------------------

    @property
    def runs(self) -> list[tuple[int, int, int]]:
        return list(self._runs)

    def hits(self, j: int) -> tuple[int, ...]:
        """All orbit times whose symbol index is j, ascending: the times of
        a_j (log-m) or of e_j (log-infty).

        Only index j is looked up, and its tuple is cached: one time per run
        that passes j, or each start of a dense piece's placements plus each
        offset of j in that piece. The first dense call lists every piece's
        placement starts.
        """
        hits = self._hits.get(j)
        if hits is None:
            if self.piece_table is None:
                hits = tuple(start + (j - first)
                             for start, first, length in self._runs
                             if first <= j < first + length)
            else:
                pieces, starts, ids = self.piece_table
                if self._placed is None:
                    self._placed = [array("q") for _ in pieces]
                    for start, i in zip(starts, ids):
                        self._placed[i].append(start)
                hits = tuple(sorted(
                    start + offset
                    for piece, placed in zip(pieces, self._placed)
                    if j in piece
                    for offset, index in enumerate(piece) if index == j
                    for start in placed))
            self._hits[j] = hits
        return hits

    def near_head_times(self, width: int) -> tuple[int, ...]:
        """Orbit times with |symbol index| <= width (log-m), ascending.

        This is the sparse complement of the orbit part of an infinity
        neighborhood: only a handful of points per run fall in the window.
        """
        out = []
        for start, first, length in self._runs:
            lo = max(first, -width)
            hi = min(first + length - 1, width)
            for idx in range(lo, hi + 1):
                out.append(start + (idx - first))
        out.sort()
        return tuple(out)

    def symbol_pieces(self, lo: int, hi: int):
        """Yield (t0, indices, path) pieces that cover the times [lo, hi].

        A piece holds the symbol indices of at most PIECE_TIMES times from t0
        on that share one segment and, for the head-indexed family, one run:
        a ``range`` there, a list read from the piece table for the dense
        family. Symbol files render each piece into one bytes object.
        """
        if lo <= hi:
            self.check_time(lo)
            self.check_time(hi)
        if self.piece_table is not None:
            pieces, starts, ids = self.piece_table
            p = bisect.bisect_right(starts, lo) - 1
        seg_starts = self.manifest.starts
        # lo's segment and each later one; a piece starts in the segment of
        # the piece before it or at the next one's start
        walk = self.manifest.walk(bisect.bisect_right(seg_starts, lo) - 1)
        t = lo
        while t <= hi:  # cut where the segment and the run or placement switch
            s = bisect.bisect_right(seg_starts, t)
            if t == lo or t == seg_starts[s - 1]:
                path = next(walk)[0]
            end = min(hi + 1, t + PIECE_TIMES, *seg_starts[s:s + 1])
            if self.piece_table is not None:
                indices, u = [], t
                while u < end:  # placement p holds time u
                    start, piece = starts[p], pieces[ids[p]]
                    indices += piece[u - start:end - start]
                    if start + len(piece) > end:
                        break
                    u = start + len(piece)
                    p += 1
            else:
                r = bisect.bisect_right(self._run_starts, t)
                end = min(end, *self._run_starts[r:r + 1])
                start, first, _length = self._runs[r - 1]
                indices = range(first + t - start, first + end - start)
            yield t, indices, path
            t = end


# ---------------------------------------------------------------------------
# dynamics


def step(point: ModelPoint, traj: Trajectory) -> ModelPoint:
    """One forward step of the map.

    Orbit points advance along the orbit; the head a_i maps to a_{i+1}; the
    limit head and all dense heads are fixed.
    """
    if point.is_orbit:
        t = point.time + 1
        if t >= traj.n_points:
            raise HorizonExceeded(f"step past the built horizon {traj.horizon}")
        return ModelPoint.orbit(t)
    sym = point.symbol
    if sym.kind == KIND_HEAD:
        return ModelPoint.head(Symbol.head(sym.index + 1))
    return point


def iterate(point: ModelPoint, t: int, traj: Trajectory) -> ModelPoint:
    """t-th forward image of point, computed in closed form."""
    if t < 0:
        raise ValueError("iterate count must be nonnegative")
    if point.is_orbit:
        tt = point.time + t
        if tt >= traj.n_points:
            raise HorizonExceeded(f"time {tt} past the built horizon")
        return ModelPoint.orbit(tt)
    sym = point.symbol
    if sym.kind == KIND_HEAD:
        return ModelPoint.head(Symbol.head(sym.index + t))
    return point


# ---------------------------------------------------------------------------
# membership


def orbit_member(spec: NeighborhoodSpec, t: int, traj: Trajectory) -> bool:
    """Does the orbit point x_t lie in the neighborhood."""
    if not 0 <= t < traj.n_points:
        return False
    center = spec.center
    if center.kind == KIND_HEAD_INF:
        return abs(traj.symbol_index_at(t)) >= infinity_window(spec.level)
    threshold = traj.level_threshold(spec.level) + spec.threshold_offset
    if t < threshold:
        return False
    return traj.symbol_index_at(t) == center.index


def head_member(spec: NeighborhoodSpec, sym: Symbol, traj: Trajectory) -> bool:
    """Does the head named by sym lie in the neighborhood."""
    center = spec.center
    if center.kind == KIND_HEAD_INF:
        if sym.kind == KIND_HEAD_INF:
            return True
        if sym.kind == KIND_HEAD:
            return abs(sym.index) >= infinity_window(spec.level)
        return False
    return sym == center


def point_member(spec: NeighborhoodSpec, point: ModelPoint, traj: Trajectory) -> bool:
    if point.is_orbit:
        return orbit_member(spec, point.time, traj)
    return head_member(spec, point.symbol, traj)


def itinerary_hits(
    point: ModelPoint,
    times: tuple[int, ...],
    specs: tuple[NeighborhoodSpec, ...],
    traj: Trajectory,
) -> bool:
    """Does step^t(point) land in the matching neighborhood for every t."""
    if len(times) != len(specs):
        raise ValueError("times and neighborhood specs must align")
    for t, spec in zip(times, specs):
        if not point_member(spec, iterate(point, t, traj), traj):
            return False
    return True
