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
individual points. The dense family stores per block the few tables its
segments are made of (``DenseBlock``): every time, segment and placement is
computed from a pattern's base-(n+1) digits.
"""

from __future__ import annotations

import bisect
from fractions import Fraction
from itertools import (
    accumulate, chain, islice, product, repeat, zip_longest,
)
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
    """One head-indexed block: ``end`` is exclusive, the block proper (last
    piece end); ``times`` are the designated times relative to a piece
    start, and ``piece_starts`` each piece's first time. Piece l realizes
    the block's l-th pattern in lexicographic order, so the pattern is
    derived, not kept; the lengths are the schedule's. A dense block is a
    ``DenseBlock``: the same first four fields, and piece starts derived
    from its tables."""

    __slots__ = _fields = ("level", "start", "end", "times", "piece_starts")


class _Ints:
    """A read-only sequence of ints that holds none of them: ``item(i)``
    computes entry i, 0 <= i < length, and ``each()`` iterates them all."""

    __slots__ = ("_length", "_item", "_each")

    def __init__(self, length: int, item, each):
        self._length, self._item, self._each = length, item, each

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._item(j) for j in range(self._length)[i]]
        return self._item(range(self._length)[i])

    def __iter__(self):
        return self._each()


class _Layout:
    """Where the units of a dense block fall, for one weight per pattern and
    one per glue.

    A block over N digits lists its N^N patterns in lexicographic order;
    unit p is the glue into pattern p, weighed by its digit pair (the last
    of pattern p - 1, the first of pattern p), then pattern p. Unit p's
    pair is ((p - 1) mod N, p // N^(N-1)); unit 0, which no pattern
    precedes, takes that pair's weight too, and the layout is shifted back
    by it. So the units with first digit d form N^(N-2) equal periods of N
    units, whose pairs run (N - 1, d), (0, d), ..., (N - 2, d): pattern p's
    offset is a few products, and an offset's unit a division and two
    bisects over N + 1 entries.
    """

    __slots__ = ("N", "M", "weights", "units", "patterns", "groups", "shift",
                 "total")

    def __init__(self, N: int, pattern: int, weights: list[int]):
        # weights[a * N + b] weighs the glue between the digits a and b
        self.N, self.M, self.weights = N, N ** (N - 1), weights
        # per first digit d: the offsets in a period of each unit (and the
        # period's length), of each pattern, and of the first unit of d
        self.units, self.patterns, self.groups = [], [], [0]
        for d in range(N):
            glue = [weights[(i - 1) % N * N + d] for i in range(N)]
            units = list(accumulate((pattern + g for g in glue), initial=0))
            self.units.append(units)
            self.patterns.append([u + g for u, g in zip(units, glue)])
            self.groups.append(self.groups[-1] + self.M // N * units[-1])
        self.shift = weights[(N - 1) * N]
        self.total = self.groups[-1] - self.shift  # the last pattern's end

    def offset(self, p: int) -> int:
        """Pattern p's offset from the block start."""
        d, r = divmod(p, self.M)
        c, i = divmod(r, self.N)
        return (self.groups[d] + c * self.units[d][-1] + self.patterns[d][i]
                - self.shift)

    def locate(self, x: int) -> tuple[int, int, int]:
        """(p, z, g) for an offset 0 <= x < total: x lies z into unit p, whose
        glue weighs g, so z < g is in the glue and z - g in the pattern."""
        x += self.shift
        d = bisect.bisect_right(self.groups, x) - 1
        units = self.units[d]
        c, y = divmod(x - self.groups[d], units[-1])
        i = bisect.bisect_right(units, y) - 1
        return (d * self.M + c * self.N + i, y - units[i],
                self.weights[(i - 1) % self.N * self.N + d])

    def spread(self, base: int, rel: list[list[int]]):
        """base plus each offset of rel[d], a period's offsets, for every
        period of every first digit d, in order."""
        for d, group in enumerate(self.groups[:-1]):
            start, period = base - self.shift + group, self.units[d][-1]
            for c in range(self.M // self.N):
                yield from map((start + c * period).__add__, rel[d])


def _lex_from(values: list[int], N: int):
    """The tuples over 1..N from values on, in lexicographic order."""
    k, full = len(values), range(1, N + 1)
    return chain.from_iterable(
        product(*([v] for v in values[:i]),
                range(values[i] + (i < k - 1), N + 1), *[full] * (k - 1 - i))
        for i in range(k - 1, -1, -1))


class DenseBlock(_Frozen):
    """Block n of the dense family, as the tables its segments are made of.

    With N = n + 1, the block realizes the N^N functions from its n + 1
    slot times to the values e_1 .. e_N in lexicographic order: pattern p
    (from 0) is the n + 1 base-N digits of p, digit d standing for e_{d+1}.
    ``times`` are the slot times relative to a pattern start, from 0, so a
    pattern segment has L = times[-1] + 1 points: its first value, then per
    slot i the piece ``slots[i][a * N + b]`` for its digits a and b at
    slots i and i + 1, the eps_n-chain that fills the slot's gap followed
    by e_{b+1}. ``glues[a * N + b]`` glues a pattern ending on digit a to
    the next, starting on digit b: the interior of a minimal chain, empty
    when the two values are close. ``tail``, a chain back to e_1 and then
    e_1, ends the block. Pieces are tuples of dense positions.

    Everything else is derived in O(n) per query (``_Layout``): pattern p
    starts at start + p * L + the glue lengths before it; ``end``
    (exclusive) follows the tail; ``piece_starts`` lists the pattern
    starts without holding them; ``walk``, ``segment``, ``symbol_index_at``
    and ``hits`` read the segments and symbols from the digits, and
    ``Trajectory.reader`` reads ``_reads`` directly at pattern starts.
    """

    _fields = ("level", "start", "times", "slots", "glues", "tail")
    __slots__ = _fields + ("end", "_at", "_seg", "_reads")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        N, times = self.level + 1, self.times
        # the same layout over times and over segment indices
        lengths = [len(g) for g in self.glues]
        _set(self, "_at", _Layout(N, times[-1] + 1, lengths))
        _set(self, "_seg", _Layout(N, 1, [int(g > 0) for g in lengths]))
        _set(self, "end", self.start + self._at.total + len(self.tail))
        # per offset z into a pattern, (table, divisor, modulus, k): pattern
        # p's symbol there is table[p // divisor % modulus][k], its first
        # digit's value at 0, and then slot i's piece for its digits at i
        # and i + 1, which holds the offsets times[i] + 1 .. times[i + 1]
        reads = [(tuple((d + 1,) for d in range(N)), N ** (N - 1), N, 0)]
        for i, slot in enumerate(self.slots):
            reads += ((slot, N ** (N - 2 - i), N * N, k)
                      for k in range(times[i + 1] - times[i]))
        _set(self, "_reads", tuple(reads))

    @property
    def piece_starts(self) -> _Ints:
        at, start = self._at, self.start
        return _Ints(self._at.M * (self.level + 1),
                     lambda p: start + at.offset(p),
                     lambda: at.spread(start, at.patterns))

    @property
    def segments(self) -> int:
        """The number of segments: patterns, non-empty glues and the tail."""
        return self._seg.total + 1

    def _pair(self, p: int) -> int:
        """The glue index of the pair (last digit of pattern p - 1, first
        digit of pattern p)."""
        N = self.level + 1
        return (p - 1) % N * N + p // self._at.M

    def glue_into(self, p: int) -> tuple[int, ...]:
        """The glue before pattern p, or the tail for p = N^N."""
        return (self.tail if p == self._at.M * (self.level + 1)
                else self.glues[self._pair(p)])

    def segment(self, s: int) -> tuple[int, int]:
        """(start, length) of the block's segment s, from 0."""
        if s == self._seg.total:
            return self.end - len(self.tail), len(self.tail)
        p, z, g = self._seg.locate(s)
        start = self.start + self._at.offset(p)
        if z < g:  # the glue into pattern p
            length = len(self.glues[self._pair(p)])
            return start - length, length
        return start, self.times[-1] + 1

    def segment_at(self, t: int) -> tuple[int, int, int]:
        """(s, start, p) for a time t in the block: the block's segment s
        that holds t, its start, and the pattern p that is segment s or
        follows it (N^N after the tail)."""
        at = self._at
        x = t - self.start
        if x >= at.total:
            return self._seg.total, self.start + at.total, at.M * (
                self.level + 1)
        p, z, g = at.locate(x)
        glue = z < g  # t lies in the glue into pattern p
        return (self._seg.offset(p) - glue, self.start + at.offset(p)
                - glue * g, p)

    def column(self, lengths: bool):
        """Every segment's start, or its length, in order."""
        at, N, L = self._at, self.level + 1, self.times[-1] + 1
        starts, sizes = [], []  # per first digit, one period's segments
        for d in range(N):
            offsets, counts = [], []
            for i in range(N):
                glue = at.weights[(i - 1) % N * N + d]
                if glue:
                    offsets.append(at.units[d][i])
                    counts.append(glue)
                offsets.append(at.patterns[d][i])
                counts.append(L)
            starts.append(offsets)
            sizes.append(counts)
        tail = len(self.tail)
        if lengths:
            out = chain.from_iterable(chain.from_iterable(
                repeat(s, at.M // N)) for s in sizes)
            last = tail
        else:
            out = at.spread(self.start, starts)
            last = self.end - tail
        # pattern 0 has no glue before it
        return chain(islice(out, int(at.shift > 0), None), (last,))

    def walk(self, s: int = 0):
        """(path, kind, None, function) of the block's segment s and every
        later one: ``B{n}/S{l}``, "pattern" and the l-th pattern's values,
        or ``B{n}/G{g}``, "glue" and None for the g-th non-empty glue, the
        tail last."""
        n, N = self.level, self.level + 1
        glues, tail = self.glues, self._seg.total
        if s == tail:
            yield f"B{n}/G{tail - N ** N + 1}", "glue", None, None
            return
        p, z, g = self._seg.locate(s)
        glued = s - p  # the non-empty glues before segment s
        last = (p - 1) % N + 1  # the value pattern p - 1 ends on
        skip = z >= g  # segment s is pattern p, not its glue
        values = [p // N ** (n - i) % N + 1 for i in range(N)]
        for f in _lex_from(values, N):
            if skip:
                skip = False
            elif glues[(last - 1) * N + f[0] - 1]:
                glued += 1
                yield f"B{n}/G{glued}", "glue", None, None
            p += 1
            yield f"B{n}/S{p}", "pattern", None, f
            last = f[-1]
        yield f"B{n}/G{glued + 1}", "glue", None, None

    def pattern_symbols(self, f) -> list[int]:
        """The symbols of the pattern segment realizing the values f."""
        N = self.level + 1
        out = [f[0]]
        for slot, a, b in zip(self.slots, f, f[1:]):
            out += slot[a * N + b - N - 1]
        return out

    def symbol_index_at(self, t: int) -> int:
        """The dense position of x_t, for a time t in the block."""
        at = self._at
        x = t - self.start
        if x >= at.total:
            return self.tail[x - at.total]
        p, z, g = at.locate(x)
        if z < g:
            return self.glues[self._pair(p)][z]
        table, div, mod, k = self._reads[z - g]
        return table[p // div % mod][k]

    def hits(self, j: int) -> list[int]:
        """The block's times of e_j, in no set order: per piece that holds
        j, each pattern that places the piece, from the digits it fixes."""
        n, N, at = self.level, self.level + 1, self._at
        count, M, times = N ** N, at.M, self.times
        starts = []  # every pattern start, one first digit at a time
        for d, group in enumerate(at.groups[:-1]):
            base, period = self.start - at.shift + group, at.units[d][-1]
            starts += [b + r for b in range(base, base + M // N * period,
                                            period)
                       for r in at.patterns[d]]
        out = []
        if 1 <= j <= N:  # the first value of every pattern of first digit j
            out += starts[(j - 1) * M:j * M]
        for i, slot in enumerate(self.slots):
            # the patterns of digits a, b at i, i + 1: N^i runs of
            # N^(n-1-i), read as runs or as strided slices, whichever are
            # fewer
            run, runs = N ** (n - 1 - i), N ** i
            stride = N * N * run
            for pair, piece in enumerate(slot):
                for o, index in enumerate(piece, times[i] + 1):
                    if index != j:
                        continue
                    first = pair * run
                    if run >= runs:
                        for p in range(first, count, stride):
                            out += map(o.__add__, starts[p:p + run])
                    else:
                        for p in range(first, first + run):
                            out += map(o.__add__, starts[p::stride])
        for pair, glue in enumerate(self.glues):
            # the patterns after a pattern ending on a, starting on b
            a, b = divmod(pair, N)
            first = b * M + (a + 1) % N or N
            for o, index in enumerate(glue, -len(glue)):
                if index == j:
                    out += map(o.__add__, starts[first:(b + 1) * M:N])
        out += (self.end - len(self.tail) + o
                for o, index in enumerate(self.tail) if index == j)
        return out


class SegmentationManifest(_Record):
    """The orbit's segments, held as columns in time order.

    ``starts`` and ``lengths`` give each segment's first owned time and its
    number of owned points; the segments tile the times from 0. The
    head-indexed family keeps them as lists, since its times pass 2^63,
    with each segment's ``paths`` and ``kinds`` entry (wind, inner-gap or
    outer-gap) and its wind plan in ``plans`` (anything with p, q, w,
    jump_from and jump_depth); a wind that owns one point less than w
    shares its first point. A dense manifest is made from its
    ``DenseBlock``s alone, and its columns are sequences that compute each
    entry from its block's tables: a block's segments are each pattern
    ``B{n}/S{l}``, realizing its l-th pattern, after the glue into it if
    that is not empty, and the tail; the g-th glue or tail is
    ``B{n}/G{g}``. ``walk`` names the segments, and ``path(i)`` is its
    per-index form.
    """

    _fields = ("blocks", "starts", "lengths", "paths", "kinds", "plans")
    _defaults = (None, None, None, None, None)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.starts is None:  # dense: columns from the blocks' tables
            blocks = self.blocks
            firsts = list(accumulate((b.segments for b in blocks), initial=0))

            def column(lengths: bool):
                def item(i):
                    k = bisect.bisect_right(firsts, i) - 1
                    return blocks[k].segment(i - firsts[k])[lengths]
                return _Ints(firsts[-1], item, lambda: chain.from_iterable(
                    b.column(lengths) for b in blocks))

            self.starts, self.lengths = column(False), column(True)
            self._firsts = firsts

    def block(self, k: int) -> BlockRecord | DenseBlock:
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
        # segment i's block and its index there, from the digits
        k = bisect.bisect_right(self._firsts, i) - 1
        s = i - self._firsts[k]
        for block in self.blocks[k:]:
            yield from block.walk(s)
            s = 0


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
    any time below ``n_points`` regardless of how long the orbit is: by
    binary search over the head-indexed family's ascending runs, or over
    the dense family's blocks and then from a pattern's digits
    (``DenseBlock``). A dense trajectory holds its blocks' tables and
    nothing per pattern or per point, so nmax=7's 16,777,216 patterns of
    block 7 build in an instant.

    ``symbol_pieces`` takes its paths from one manifest walk.
    """

    def __init__(
        self,
        family: str,
        m: int,
        manifest: SegmentationManifest,
        runs: list[tuple[int, int, int]] | None = None,
        schedule=None,
    ):
        self.family = family
        self.m = m
        self.manifest = manifest
        self.schedule = schedule
        self._runs = runs or []
        self._run_starts = [r[0] for r in self._runs]
        # hit lists, one per asked index
        self._hits: dict[int, tuple[int, ...]] = {}
        if family == FAMILY_LOG_M:
            last = self._runs[-1]
            self.n_points = last[0] + last[2]
        else:
            self._block_starts = [b.start for b in manifest.blocks]
            self.n_points = manifest.blocks[-1].end
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

    def _dense_block(self, t: int) -> DenseBlock:
        return self.manifest.blocks[
            bisect.bisect_right(self._block_starts, t) - 1]

    def symbol_index_at(self, t: int) -> int:
        """Head index (log-m) or dense position (log-infty) of x_t."""
        self.check_time(t)
        if self.family == FAMILY_LOG_INFTY:
            return self._dense_block(t).symbol_index_at(t)
        i = bisect.bisect_right(self._run_starts, t) - 1
        start, first, _length = self._runs[i]
        return first + (t - start)

    def reader(self, offsets):
        """A function of a time t that gives ``symbol_index_at(t + o)`` for
        each offset, in order (``HorizonExceeded`` past the horizon).

        On the dense family it keeps the block of the last t it read, that
        block's layout and its ``_reads`` entries at the offsets: a t that
        starts a pattern there, every offset inside the pattern, costs one
        locate and a table read per offset. Any other t (in a glue or the
        tail, with an offset outside the pattern or the block, or past the
        horizon) and the head-indexed family are read offset by offset.
        """
        offsets = tuple(offsets)
        at_time = self.symbol_index_at

        def each(t):
            return [at_time(t + o) for o in offsets]

        if self.family != FAMILY_LOG_INFTY or min(offsets, default=-1) < 0:
            return each
        last = max(offsets)
        blocks, block_starts = self.manifest.blocks, self._block_starts
        lo = end = total = 0  # the kept block's start, end and pattern end
        locate = entries = None

        def read(t):
            nonlocal lo, end, total, locate, entries
            if not lo <= t < end:
                if not 0 <= t < self.n_points:
                    return each(t)
                block = blocks[bisect.bisect_right(block_starts, t) - 1]
                lo, end, reads = block.start, block.end, block._reads
                total, locate = block._at.total, block._at.locate
                entries = ([reads[o] for o in offsets] if last < len(reads)
                           else None)
            x = t - lo
            if x < total and entries is not None:
                p, z, g = locate(x)
                if z == g:  # t starts pattern p
                    return [table[p // div % mod][k]
                            for table, div, mod, k in entries]
            return each(t)

        return read

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
        that passes j, or, block by block, each placement of each dense
        piece that holds j, read from the digits it fixes.
        """
        hits = self._hits.get(j)
        if hits is None:
            if self.family == FAMILY_LOG_M:
                hits = tuple(start + (j - first)
                             for start, first, length in self._runs
                             if first <= j < first + length)
            else:
                hits = tuple(chain.from_iterable(
                    sorted(b.hits(j)) for b in self.manifest.blocks))
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
        a ``range`` there, and for the dense family a slice of the
        segment's symbols, read from its block's tables. Symbol files render
        each piece into one bytes object.
        """
        if lo <= hi:
            self.check_time(lo)
            self.check_time(hi)
        if self.family == FAMILY_LOG_INFTY:
            yield from self._dense_pieces(lo, hi)
            return
        seg_starts = self.manifest.starts
        # lo's segment and each later one; a piece starts in the segment of
        # the piece before it or at the next one's start
        walk = self.manifest.walk(bisect.bisect_right(seg_starts, lo) - 1)
        t = lo
        while t <= hi:  # cut where the segment and the run switch
            s = bisect.bisect_right(seg_starts, t)
            if t == lo or t == seg_starts[s - 1]:
                path = next(walk)[0]
            end = min(hi + 1, t + PIECE_TIMES, *seg_starts[s:s + 1])
            r = bisect.bisect_right(self._run_starts, t)
            end = min(end, *self._run_starts[r:r + 1])
            start, first, _length = self._runs[r - 1]
            yield t, range(first + t - start, first + end - start), path
            t = end

    def _dense_pieces(self, lo: int, hi: int):
        """``symbol_pieces`` on the dense family: one walk from lo's
        segment, each segment's symbols from its pattern's values, or from
        the glue into the pattern that comes next."""
        if lo > hi:
            return
        blocks = self.manifest.blocks
        k = bisect.bisect_right(self._block_starts, lo) - 1
        block = blocks[k]
        s, start, p = block.segment_at(lo)
        walk = self.manifest.walk(self.manifest._firsts[k] + s)
        t = lo
        while t <= hi:
            path, _, _, function = next(walk)
            if function is not None:
                symbols = block.pattern_symbols(function)
                p += 1
            else:
                symbols = block.glue_into(p)
            end = start + len(symbols)
            while t < end and t <= hi:
                cut = min(end, hi + 1, t + PIECE_TIMES)
                yield t, symbols[t - start:cut - start], path
                t = cut
            start = end
            if start == block.end and k + 1 < len(blocks):
                k, p = k + 1, 0
                block = blocks[k]


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


# ---------------------------------------------------------------------------
# proposed realizers


def propose_realizers(block, specs, c: int):
    """The construction's orbit start for every assignment of a dense
    block's first c slot times to ``specs``, or None when it names none.

    Pattern p of block n carries at slot time i the value of its i-th
    base-(n + 1) digit, plus one. So an assignment sigma, a tuple of spec
    indices in product order, is proposed the pattern whose digits are
    sigma's centers' digits followed by zeros, and its start
    ``block.piece_starts[p]``. That needs a dense block, c <= n + 1 and
    every center among e1 .. e(n+1). When c = n + 1 and the centers are
    e1 .. e(n+1) in order, the assignments are the patterns in order. The
    (sigma, u) pairs come lazily, and nothing of them is trusted:
    ``check_realizers`` decides.
    """
    if not isinstance(block, DenseBlock) or c > len(block.times):
        return None
    N = block.level + 1
    if any(s.center.kind != KIND_DENSE or s.center.index > N for s in specs):
        return None
    sigmas = product(range(len(specs)), repeat=c)
    if c == N and [s.center.index for s in specs] == list(range(1, N + 1)):
        return zip(sigmas, block.piece_starts)
    places = [[(s.center.index - 1) * N ** (N - 1 - i) for s in specs]
              for i in range(c)]
    # block.piece_starts[p], without its per-index checks
    return zip(sigmas, map(block.start.__add__,
                           map(block._at.offset, map(sum, product(*places)))))


def check_realizers(J, specs, proposals, traj: Trajectory,
                    horizon: int | None = None):
    """The first assignment that the proposals do not realize, or None
    when they realize every one.

    ``proposals`` gives (sigma, u) pairs, sigma a tuple of indices into
    ``specs``, one per time of J: one pair per assignment, in product
    order (``itertools.product``). The check walks the assignments in
    lockstep and returns the expected one where a proposal's sigma is out
    of order or missing, or a surplus proposal's sigma. u realizes sigma
    when 0 <= u, u + max(J) <= horizon (the built one by default) and
    x(u + J[i]) lies in specs[sigma[i]] for every i as ``orbit_member``
    decides: at or past its threshold, on its center. Centers are finite.
    Thresholds and centers are read once per call, and each proposal's
    symbols through one ``Trajectory.reader`` of J.
    """
    if any(s.center.kind == KIND_HEAD_INF for s in specs):
        raise ValueError("proposed realizers need finite centers")
    J = tuple(J)
    horizon = traj.horizon if horizon is None else min(horizon, traj.horizon)
    top = horizon - max(J, default=0)
    lows = [traj.level_threshold(s.level) + s.threshold_offset for s in specs]
    centers = [s.center.index for s in specs]
    # u + t >= lows[s] for every t when u + min(J) >= max(lows)
    sure = max(lows, default=0) - min(J, default=0)
    read = traj.reader(J)
    # each assignment and its centers at J, in lockstep with the proposals
    for want, symbols, got in zip_longest(
            product(range(len(specs)), repeat=len(J)),
            map(list, product(centers, repeat=len(J))), proposals):
        if want is None:  # a surplus proposal
            return got[0]
        if got is None:  # a missing one
            return want
        sigma, u = got
        if (sigma != want or not 0 <= u <= top or read(u) != symbols
                or u < sure and any(u + t < lows[s]
                                    for t, s in zip(J, sigma))):
            return want
    return None
