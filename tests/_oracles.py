"""Brute-force reference implementations used to validate the engine.

Everything here works by direct enumeration over materialized symbol
sequences. No occupancy vectors, no closed-form head reasoning, no pruning:
each assignment is checked by scanning every candidate point and comparing
symbols. Slow on purpose, and only usable on short builds.
"""

import functools
import itertools
import random
from fractions import Fraction

from seqent.construct import (
    GrowthSchedule,
    build_log_infty,
    build_log_m,
    default_dense_schedule,
)
from seqent.errors import Infeasible, ScheduleInvalid
from seqent.model import (
    FAMILY_LOG_M,
    KIND_DENSE,
    KIND_HEAD,
    KIND_HEAD_INF,
    Symbol,
    dense_index,
    dense_value,
)

# candidate points are plain tuples so the oracle cannot lean on ModelPoint
ORBIT = "orbit"
HEAD = "head"
HEAD_INF = "head-inf"
DENSE_HEAD = "dense-head"


def materialize(traj, horizon):
    """Symbol list for times 0..horizon, one point query per time."""
    return [traj.symbol_at(t) for t in range(horizon + 1)]


def naive_symbol_lines(traj, lo, hi):
    """Symbol-file data lines for times lo..hi, one point query per time."""
    return [f"{t}\t{traj.symbol_at(t).render()}\t{traj.segment_at(t).path}"
            for t in range(lo, hi + 1)]


def chain_min_interior(a, b, eps):
    """Least interior count of an eps-chain between the values a and b, in
    Fraction arithmetic: k steps below eps cover |b - a| exactly when
    |b - a| < k * eps."""
    gap = abs(Fraction(b) - Fraction(a))
    return 0 if gap < Fraction(eps) else int(gap / Fraction(eps))


def _dyadic_level(x):
    return x.denominator.bit_length() - 1


def chain_interior(a, b, eps, n):
    """The builder's n interior dyadics of an eps-chain from the value a to
    the value b, in Fraction arithmetic: equal ends repeat their neighbour
    one grid step up (down at 1) on their level's grid, halved until below
    eps; other ends split into n + 1 equal steps whose inner points are
    rounded, half to even, to the grid halved from the ends' level until it
    is at most half a step and half the step's margin below eps."""
    a, b, eps = Fraction(a), Fraction(b), Fraction(eps)
    if n == 0:
        return []
    if a == b:
        delta = Fraction(1, 2 ** max(_dyadic_level(a), 1))
        while delta >= eps:
            delta /= 2
        return [a + delta if a + delta <= 1 else a - delta] * n
    steps = n + 1
    exact = abs(b - a) / steps
    margin = eps - exact
    grid = Fraction(1, 2 ** max(_dyadic_level(a), _dyadic_level(b), 1))
    while grid > margin / 2 or grid > exact / 2:
        grid /= 2
    sign = 1 if b > a else -1
    return [round((a + sign * exact * i) / grid) * grid
            for i in range(1, steps)]


@functools.lru_cache(maxsize=None)
def _chain_indices(a, b, eps, count):
    """The count interior dense positions of the reference eps-chain from
    e_a to e_b."""
    return tuple(map(dense_index, chain_interior(
        dense_value(a), dense_value(b), eps, count)))


def naive_dense_symbols(nmax):
    """The default dense build as one flat list of dense positions.

    Per block n, every pattern over e_1 .. e_(n+1) in lexicographic order:
    its first value, then per slot the slot's chain and its end value; a
    minimal chain glues consecutive patterns, and a minimal chain and e_1
    end the block.
    """
    schedule = default_dense_schedule(nmax)
    symbols = []
    for n in range(1, nmax + 1):
        eps = schedule.eps[n - 1]
        rel = [0] + schedule.times[n - 1]

        def glue(a, b):
            least = chain_min_interior(dense_value(a), dense_value(b), eps)
            return _chain_indices(a, b, eps, least)

        prev = None
        for f in itertools.product(range(1, n + 2), repeat=n + 1):
            if prev is not None:
                symbols.extend(glue(prev, f[0]))
            symbols.append(f[0])
            for slot in range(n):
                need = rel[slot + 1] - rel[slot] - 1
                symbols.extend(_chain_indices(f[slot], f[slot + 1], eps, need))
                symbols.append(f[slot + 1])
            prev = f[-1]
        symbols.extend(glue(prev, 1))
        symbols.append(1)
    return symbols


def naive_dense_hits(symbols):
    """{index: ascending times} for every dense index in a flat symbol
    list, in one pass."""
    table = {}
    for t, j in enumerate(symbols):
        table.setdefault(j, []).append(t)
    return {j: tuple(times) for j, times in table.items()}


def _threshold(traj, level, offset):
    return traj.manifest.block(level).start + offset


def _orbit_ok(syms, traj, spec, tau):
    """Definitional membership of orbit point x_tau in the neighborhood."""
    if tau >= len(syms):
        return False
    sym = syms[tau]
    center = spec.center
    if center.kind == KIND_HEAD_INF:
        if sym.kind != KIND_HEAD:
            return False
        return abs(sym.index) >= 3 + spec.level
    if tau < _threshold(traj, spec.level, spec.threshold_offset):
        return False
    return sym == center


def _head_ok(spec, kind, index, t):
    """Membership of the t-step image of a head point."""
    center = spec.center
    if kind == HEAD_INF:
        return center.kind == KIND_HEAD_INF
    if kind == HEAD:
        if center.kind == KIND_HEAD_INF:
            return abs(index + t) >= 3 + spec.level
        return center.kind == KIND_HEAD and index + t == center.index
    if kind == DENSE_HEAD:
        return center.kind == KIND_DENSE and index == center.index
    raise ValueError(kind)


def candidate_points(specs, J, traj, horizon, start_range):
    """Every point that could realize some assignment, by enumeration."""
    max_j = max(J) if J else 0
    if start_range is not None:
        lo, hi = start_range
        lo = max(lo, 0)
        hi = min(hi, horizon - max_j)
        return [(ORBIT, u) for u in range(lo, hi + 1)]
    points = [(ORBIT, u) for u in range(0, horizon - max_j + 1)]
    if traj.family == FAMILY_LOG_M:
        reach = max((abs(s.center.index) for s in specs
                     if s.center.kind == KIND_HEAD), default=0)
        window = 3 + max(s.level for s in specs)
        bound = reach + max_j + window + 4
        points.extend((HEAD, j) for j in range(-bound, bound + 1))
        points.append((HEAD_INF, 0))
    else:
        top = max(s.center.index for s in specs)
        points.extend((DENSE_HEAD, j) for j in range(1, top + 2))
    return points


def _realizes(point, J, sigma, specs, syms, traj):
    kind, base = point
    for t, c in zip(J, sigma):
        spec = specs[c]
        if kind == ORBIT:
            if not _orbit_ok(syms, traj, spec, base + t):
                return False
        elif not _head_ok(spec, kind, base, t):
            return False
    return True


def naive_satisfiable(J, sigma, specs, traj, horizon=None, start_range=None,
                      syms=None):
    specs = tuple(specs)
    J = tuple(J)
    if horizon is None:
        horizon = traj.horizon
    horizon = min(horizon, traj.horizon)
    if syms is None:
        syms = materialize(traj, horizon)
    for point in candidate_points(specs, J, traj, horizon, start_range):
        if _realizes(point, J, tuple(sigma), specs, syms, traj):
            return point
    return None


def naive_orbit_starts(J, sigma, specs, traj, horizon=None, syms=None):
    """Every orbit start u <= horizon - max(J) realizing the assignment."""
    specs = tuple(specs)
    J = tuple(J)
    if horizon is None:
        horizon = traj.horizon
    horizon = min(horizon, traj.horizon)
    if syms is None:
        syms = materialize(traj, horizon)
    return tuple(u for u in range(0, horizon - J[-1] + 1)
                 if _realizes((ORBIT, u), J, tuple(sigma), specs, syms, traj))


def naive_is_independence_set(J, specs, traj, horizon=None, start_range=None,
                              syms=None):
    """Scan all assignments over J against all candidate points."""
    specs = tuple(specs)
    J = tuple(sorted(J))
    if horizon is None:
        horizon = traj.horizon
    horizon = min(horizon, traj.horizon)
    if syms is None:
        syms = materialize(traj, horizon)
    candidates = candidate_points(specs, J, traj, horizon, start_range)
    for sigma in itertools.product(range(len(specs)), repeat=len(J)):
        if not any(_realizes(p, J, sigma, specs, syms, traj)
                   for p in candidates):
            return False
    return True


def naive_has_child(shape, specs, traj, horizon=None, syms=None):
    """Whether some d in (shape[-1], horizon] makes shape + (d,) an
    independence set, checked one d at a time."""
    if horizon is None:
        horizon = traj.horizon
    horizon = min(horizon, traj.horizon)
    if syms is None:
        syms = materialize(traj, horizon)
    return any(naive_is_independence_set(tuple(shape) + (d,), specs, traj,
                                         horizon=horizon, syms=syms)
               for d in range(shape[-1] + 1, horizon + 1))


def naive_max_independence(specs, cap, traj, horizon=None):
    """Largest independence-set size up to cap, over every normalized shape.

    Shapes (0, d_1, ..., d_{n-1}) with d_{n-1} <= horizon are enumerated in
    full at each size, without pruning, until a size has no shape.
    """
    specs = tuple(specs)
    if horizon is None:
        horizon = traj.horizon
    horizon = min(horizon, traj.horizon)
    syms = materialize(traj, horizon)
    best = 0
    for size in range(1, cap + 1):
        found = False
        for rest in itertools.combinations(range(1, horizon + 1), size - 1):
            J = (0,) + rest
            candidates = candidate_points(specs, J, traj, horizon, None)
            if all(any(_realizes(p, J, sigma, specs, syms, traj)
                       for p in candidates)
                   for sigma in itertools.product(range(len(specs)),
                                                  repeat=size)):
                found = True
                break
        if not found:
            break
        best = size
    return best


def naive_frontier_sizes(specs, cap, traj, horizon=None):
    """Number of normalized independence shapes of each size up to cap.

    Each shape (0, d_1, ..., d_{n-1}) with d_{n-1} <= horizon is checked
    against every candidate point. Shapes of size n + 1 are the one-time
    extensions of the size-n independence shapes: a point realizing an
    assignment also realizes its restriction to a prefix, so no shape is
    missed. The list stops after the first size with no shape, as an
    exhaustion certificate does.
    """
    specs = tuple(specs)
    if horizon is None:
        horizon = traj.horizon
    horizon = min(horizon, traj.horizon)
    syms = materialize(traj, horizon)
    inside = {}

    def classes(point, t):
        key = (point, t)
        got = inside.get(key)
        if got is None:
            got = tuple(c for c in range(len(specs))
                        if _realizes(point, (t,), (c,), specs, syms, traj))
            inside[key] = got
        return got

    def independent(J):
        words = set()
        for point in candidate_points(specs, J, traj, horizon, None):
            words.update(itertools.product(*(classes(point, t) for t in J)))
        return len(words) == len(specs) ** len(J)

    sizes = []
    shapes = [(0,)]
    while True:
        shapes = [J for J in shapes if independent(J)]
        sizes.append(len(shapes))
        if not shapes or len(sizes) == cap:
            return tuple(sizes)
        shapes = [J + (d,) for J in shapes
                  for d in range(J[-1] + 1, horizon + 1)]


def search_h_star_lower_bound(traj, centers, cap, horizon=None,
                              levels=None):
    """(p, combo, per_level) of the entropy evidence from search alone.

    Not brute force: one exact ``max_independence`` search per combo and
    level, largest combos first, with no witness shortcut, so it pins the
    witness-first evidence to the search it replaces.
    """
    from seqent.independence import max_independence
    from seqent.model import NeighborhoodSpec

    if levels is None:
        levels = range(1, traj.kmax + 1)
    for p in range(len(centers), 0, -1):
        for combo in itertools.combinations(centers, p):
            per_level = {}
            for k in levels:
                specs = tuple(NeighborhoodSpec(c, k) for c in combo)
                per_level[k] = max_independence(specs, cap=cap, traj=traj,
                                                horizon=horizon).length
                if per_level[k] < cap:
                    break
            else:
                return p, combo, per_level
    return 0, (), {}


# ---------------------------------------------------------------------------
# randomized small instances


def random_schedule(rng: random.Random, m: int) -> GrowthSchedule:
    """A single-block schedule with small, feasible segment lengths."""
    pieces = m ** 2
    winds = [[rng.randrange(3 * m + 2, 3 * m + 14)]]
    inner = [[rng.randrange(m + 6, m + 24) for _ in range(pieces - 1)]]
    outer = [rng.randrange(m + 6, m + 30)]
    return GrowthSchedule(FAMILY_LOG_M, m, winds, inner, outer)


def random_small_build(rng: random.Random):
    """A short trajectory: a random one-block log-m build, or a tiny dense
    build of one or two blocks (block 2 starts at time 21)."""
    while True:
        roll = rng.random()
        try:
            if roll < 0.45:
                return build_log_m(2, 1, random_schedule(rng, 2))
            if roll < 0.85:
                return build_log_m(3, 1, random_schedule(rng, 3))
            return build_log_infty(1 if roll < 0.925 else 2)
        except (ScheduleInvalid, Infeasible):
            continue


def random_tuple(rng: random.Random, traj, max_k: int = 3):
    """Random neighborhood tuple, inf and repeated specs included.

    Levels are 1 and, on a build with a second block, 2, so one center
    can sit at two levels, with nested hit lists.
    """
    from seqent.model import NeighborhoodSpec

    k = rng.randrange(1, max_k + 1)
    specs = []
    for _ in range(k):
        level = 1 if traj.kmax < 2 else rng.randrange(1, 3)
        if traj.family == FAMILY_LOG_M:
            if rng.random() < 0.2:
                specs.append(NeighborhoodSpec(Symbol.head_inf(), level))
            else:
                c = rng.randrange(-2, traj.m + 2)
                specs.append(NeighborhoodSpec(Symbol.head(c), level))
        else:
            specs.append(NeighborhoodSpec(Symbol.dense(rng.randrange(1, 4)),
                                          level))
    return tuple(specs)


def random_times(rng: random.Random, horizon: int, max_size: int = 3):
    size = rng.randrange(1, max_size + 1)
    times = sorted(rng.sample(range(0, horizon + 1), size))
    return tuple(times)
