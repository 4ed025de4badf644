"""Structural verification of built trajectories.

Every check runs an exhaustive finite enumeration and returns a report with
a pass flag, a counterexample line when something fails, and enough detail
lines to audit what was actually examined. Nothing here samples: growth
rules are checked on every constrained segment, part structure on every
designated-time hit, shiftability on every shifted pair of hits within the
horizon.
"""

from __future__ import annotations

import bisect
import functools
import time as _time
from fractions import Fraction

from .construct import chain_min_interior
from .errors import InvalidConfig
from .independence import (
    SearchBudget,
    _check_assignment_cap,
    is_independence_set,
    max_independence,
    occupancy,
)
from .model import (
    FAMILY_LOG_INFTY,
    FAMILY_LOG_M,
    BlockRecord,
    NeighborhoodSpec,
    Symbol,
    Trajectory,
    _Record,
    check_realizers,
    dense_value,
    propose_realizers,
)


class CheckReport(_Record):
    """Outcome of one verification procedure."""

    _fields = ("name", "params", "passed", "counterexample", "details",
               "certificates", "elapsed")
    _defaults = (dict, False, None, list, list, 0.0)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        ps = " ".join(f"{k}={v}" for k, v in self.params.items())
        line = f"{status} {self.name}"
        if ps:
            line += f" [{ps}]"
        line += f" ({self.elapsed:.2f}s)"
        if not self.passed and self.counterexample:
            line += f" counterexample: {self.counterexample}"
        return line

    def __enter__(self):
        """Time the check: ``elapsed`` is set however the block exits."""
        self._started = _time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = _time.monotonic() - self._started
        return False


def _require_family(traj: Trajectory, family: str, op: str):
    if traj.family != family:
        raise InvalidConfig(f"{op} applies to {family} trajectories")


# ---------------------------------------------------------------------------
# growth rules


def validate_growth(traj: Trajectory) -> CheckReport:
    """Check every constrained segment length against the growth rules.

    Head-indexed family: the very first wind has length exactly 3m + 2 and
    every other first-piece wind, inner gap, and outer gap is strictly longer
    than 100 times the number of points before it. Dense family: block n uses
    tolerance 2^-n, realizes all (n+1)^(n+1) patterns, and glue chains are
    minimal for their endpoints.
    """
    with CheckReport("growth",
                     {"family": traj.family, "m": str(traj.m)}) as report:
        if traj.family == FAMILY_LOG_M:
            _validate_growth_log_m(traj, report)
        else:
            _validate_growth_dense(traj, report)
    return report


def _validate_growth_log_m(traj: Trajectory, report: CheckReport):
    m = traj.m
    checked = 0
    manifest = traj.manifest
    for (path, kind, plan, _), start, length in zip(
            manifest.walk(), manifest.starts, manifest.lengths):
        if kind == "wind" and not path.split("/")[1] == "P1":
            continue  # only first-piece winds carry their own length rule
        checked += 1
        w = plan.w
        if path == "B1/P1/W1":
            if w != 3 * m + 2:
                report.counterexample = (
                    f"first wind has length {w}, expected {3 * m + 2}")
                return
            continue
        # a shared wind owns one point less than its planned length, so the
        # prefix is everything before its true first point
        wind_start = start - (length < w)
        if w <= 100 * wind_start:
            report.counterexample = (
                f"{path} has length {w} <= 100 * {wind_start}")
            return
    # designated times must mirror the wind lengths
    for block in manifest.blocks:
        acc = [0]
        for w in traj.schedule.winds[block.level - 1]:
            acc.append(acc[-1] + w - 1)
        if tuple(acc) != block.times:
            report.counterexample = (
                f"block {block.level} times {block.times} do not match "
                f"its wind lengths")
            return
    report.details.append(f"{checked} constrained segments checked")
    report.passed = True


def _validate_growth_dense(traj: Trajectory, report: CheckReport):
    """Growth rules, block by block, read from the blocks' tables.

    A block realizes all its patterns when each slot piece fills its slot's
    gap and ends on its pair's second value. Every step of the block is then
    a step into a piece from the value before it: into a slot piece from
    its pair's first value, into a glue (and on to the next pattern) from
    the value it leaves, into the tail from e_{n+1}. So each piece is read
    once, and a bad step is named at its first time, in the piece's first
    placement: the least pattern with the digits it needs. Each glue that
    joins two patterns, and the tail, must be a minimal chain for its ends.
    """
    value = functools.cache(dense_value)
    manifest = traj.manifest
    for block in manifest.blocks:
        n = block.level
        N, M = n + 1, (n + 1) ** n
        eps = traj.schedule.eps[n - 1]
        if eps != Fraction(1, 2 ** n):
            report.counterexample = (
                f"block {n} tolerance {eps}, expected 1/{2 ** n}")
            return
        times, starts, tail = block.times, block.piece_starts, block.tail
        # patterns realized, counted slot by slot per last digit
        counts = [1] * N
        for i, slot in enumerate(block.slots):
            gap = times[i + 1] - times[i]
            counts = [sum(c for a, c in enumerate(counts)
                          if len(slot[a * N + b]) == gap
                          and slot[a * N + b][-1] == b + 1)
                      for b in range(N)]
        seen, want = sum(counts), N ** N
        if seen != want:
            report.counterexample = (
                f"block {n} realizes {seen} patterns, expected {want}")
            return
        # (first time, value before it, symbols) of each piece: a slot
        # piece is first placed by the pattern of its two digits and zeros;
        # a glue from a to b, then the value it leads to, first where a
        # pattern ending on a precedes one starting on b; the tail last
        runs = [(starts[pair * N ** (n - 1 - i)] + times[i] + 1,
                 pair // N + 1, piece)
                for i, slot in enumerate(block.slots)
                for pair, piece in enumerate(slot)]
        glued = {}
        for pair, glue in enumerate(block.glues):
            a, b = divmod(pair, N)
            p = b * M + (a + 1) % N or N
            if p < (b + 1) * M:
                glued[pair] = starts[p] - len(glue)
                runs.append((glued[pair], a + 1, glue + (b + 1,)))
        runs.append((block.end - len(tail), N, tail))
        # each distinct step is measured once
        far = functools.cache(lambda x, y: abs(value(y) - value(x)) >= eps)
        bad = [(t + k, x, y) for t, before, piece in runs
               for k, (x, y) in enumerate(zip((before,) + piece, piece))
               if far(x, y)]
        if bad:
            t, x, y = min(bad)
            report.counterexample = (
                f"step at time {t} jumps {abs(value(y) - value(x))} >= {eps}")
            return
        # glue chains, and the tail's, are minimal for their end values
        ends = [(t, len(block.glues[pair]), *divmod(pair, N))
                for pair, t in glued.items()]
        ends.append((block.end - len(tail), len(tail) - 1, N - 1, 0))
        bad = [(t, interior, need) for t, interior, a, b in ends
               if interior != (need := chain_min_interior(
                   value(a + 1), value(b + 1), eps))]
        if bad:
            t, interior, need = min(bad)
            path = manifest.path(bisect.bisect_right(manifest.starts, t) - 1)
            report.counterexample = (
                f"{path} has {interior} interior points, minimal is {need}")
            return
        # blocks start and end at the first enumeration value
        if block.symbol_index_at(block.start) != 1:
            report.counterexample = f"block {n} does not start at e1"
            return
        if block.symbol_index_at(block.end - 1) != 1:
            report.counterexample = f"block {n} does not end at e1"
            return
    report.details.append(f"{len(manifest.blocks)} blocks checked")
    report.passed = True


# ---------------------------------------------------------------------------
# part structure


def part_expected_times(block: BlockRecord, l: int, m: int) -> list[int]:
    """Times of the designated-time hits of piece l (1-based) of a block
    over the alphabet {0..m-1}.

    Piece l realizes the l-th pattern s in lexicographic order, whose values
    s(0) .. s(k) are the k + 1 base-m digits of l - 1. It places the
    center's hits at piece_start + n_c - s(c) for each designated index c;
    the c = 0 hit sits inside the preceding gap when s(0) > 0.
    """
    pieces = len(block.piece_starts)
    if not 1 <= l <= pieces:
        raise InvalidConfig(f"block {block.level} has {pieces} pieces")
    j, k = block.piece_starts[l - 1], len(block.times) - 1
    return [j + n_c - (l - 1) // m ** (k - c) % m
            for c, n_c in enumerate(block.times)]


def check_part_structure(k: int, l: int, traj: Trajectory) -> CheckReport:
    """Exact hit set of the level-1 neighborhood of a_0 around one piece.

    Verifies that the hits of U1(a0) inside the piece's window are exactly
    the designated-time positions shifted by the piece's pattern.
    """
    _require_family(traj, FAMILY_LOG_M, "check_part_structure")
    with CheckReport("part-structure",
                     {"m": str(traj.m), "k": str(k), "l": str(l)}) as report:
        block = traj.manifest.block(k)
        expected = part_expected_times(block, l, traj.m)
        j = block.piece_starts[l - 1]
        lo = j - (traj.m - 1)
        hi = j + block.times[-1]
        occ = occupancy(NeighborhoodSpec(Symbol.head(0), 1), traj)
        a = bisect.bisect_left(occ.times, lo)
        b = bisect.bisect_right(occ.times, hi)
        actual = list(occ.times[a:b])
        if actual != expected:
            report.counterexample = (
                f"hits {actual} != expected {expected} in window "
                f"[{lo}, {hi}]")
        else:
            report.passed = True
            report.details.append(
                f"{len(expected)} hits at designated offsets "
                f"{[t - j for t in expected]}")
    return report


def check_distance_uniqueness(k: int, l: int, traj: Trajectory) -> CheckReport:
    """Pairwise distances within one piece's hit set are pairwise distinct
    and each falls in the window of exactly one designated-time pair.

    The window for the pair (d, c) is n_c - n_d plus or minus (m - 1); the
    growth rules keep these windows disjoint, so every realized distance
    identifies its pair of designated indices.
    """
    _require_family(traj, FAMILY_LOG_M, "check_distance_uniqueness")
    with CheckReport("distance-uniqueness",
                     {"m": str(traj.m), "k": str(k), "l": str(l)}) as report:
        block = traj.manifest.block(k)
        pts = part_expected_times(block, l, traj.m)
        times = block.times
        tol = traj.m - 1
        seen: dict[int, tuple[int, int]] = {}
        for i1 in range(len(pts)):
            for i2 in range(i1 + 1, len(pts)):
                dist = pts[i2] - pts[i1]
                hits = [(d, c)
                        for d in range(len(times))
                        for c in range(d + 1, len(times))
                        if abs(dist - (times[c] - times[d])) <= tol]
                if hits != [(i1, i2)]:
                    report.counterexample = (
                        f"distance {dist} of hits ({pts[i1]}, {pts[i2]}) "
                        f"matches windows {hits}, expected [({i1}, {i2})]")
                    return report
                if dist in seen:
                    report.counterexample = (
                        f"distance {dist} realized by both {seen[dist]} "
                        f"and ({i1}, {i2})")
                    return report
                seen[dist] = (i1, i2)
        report.passed = True
        report.details.append(f"{len(seen)} pairwise distances, all unique")
    return report


def check_block_parts(k: int, traj: Trajectory) -> CheckReport:
    """Part structure and distance uniqueness across every piece of block k."""
    _require_family(traj, FAMILY_LOG_M, "check_block_parts")
    with CheckReport("block-parts", {"m": str(traj.m), "k": str(k)}) as report:
        block = traj.manifest.block(k)
        pieces = len(block.piece_starts)
        for l in range(1, pieces + 1):
            for sub in (check_part_structure(k, l, traj),
                        check_distance_uniqueness(k, l, traj)):
                if not sub.passed:
                    report.counterexample = (
                        f"piece {l}: {sub.name}: {sub.counterexample}")
                    return report
        report.passed = True
        report.details.append(
            f"{pieces} pieces: hit sets and distance windows all exact")
    return report


# ---------------------------------------------------------------------------
# shiftability


def check_shiftability(traj: Trajectory, horizon: int) -> CheckReport:
    """Exhaustive audit of shifted pairs of U1(a0) hits up to a horizon.

    Enumerates every pair of hits (u < v) and every shift that keeps both
    images inside the hit set, then verifies the location constraints: all
    four points share one block; a same-part pair lands in exactly one other
    part with both positions preserved; a split pair keeps each point in its
    own part and its two points sit at the same designated position.
    Cross-block pairs must admit no shift at all.
    """
    _require_family(traj, FAMILY_LOG_M, "check_shiftability")
    with CheckReport("shiftability",
                     {"m": str(traj.m), "horizon": str(horizon)}) as report:
        location: dict[int, tuple[int, int, int]] = {}
        for block in traj.manifest.blocks:
            for l in range(1, len(block.piece_starts) + 1):
                for c, t in enumerate(part_expected_times(block, l, traj.m)):
                    if t <= horizon:
                        location[t] = (block.level, l, c)
        occ = occupancy(NeighborhoodSpec(Symbol.head(0), 1), traj)
        hits = list(occ.times[:bisect.bisect_right(occ.times, horizon)])
        hit_set = set(hits)
        unlocated = [t for t in hits if t not in location]
        if unlocated:
            report.counterexample = (
                f"{len(unlocated)} hits outside all parts, first at "
                f"{unlocated[0]}")
            return report

        violations: list[str] = []
        same_part_shifts = 0
        split_shifts = 0

        def violate(msg: str):
            if len(violations) < 20:
                violations.append(msg)

        for i, u in enumerate(hits):
            ku, lu, cu = location[u]
            for v in hits[i + 1:]:
                kv, lv, cv = location[v]
                for h in hits:
                    delta = h - u
                    if delta == 0:
                        continue
                    if (v + delta) not in hit_set:
                        continue
                    kiu, liu, ciu = location[h]
                    kiv, liv, civ = location[v + delta]
                    pair = (f"({u}, {v}) shifted by {delta:+d} to "
                            f"({h}, {v + delta})")
                    if not (ku == kv == kiu == kiv):
                        violate(f"{pair}: blocks {ku},{kv} -> {kiu},{kiv} "
                                f"are not all equal")
                        continue
                    if lu == lv:
                        same_part_shifts += 1
                        if liu != liv:
                            violate(f"{pair}: image splits into parts "
                                    f"{liu} and {liv}")
                        elif liu == lu:
                            violate(f"{pair}: image stays in part {lu}")
                        if ciu != cu or civ != cv:
                            violate(f"{pair}: positions ({cu},{cv}) -> "
                                    f"({ciu},{civ}) not preserved")
                    else:
                        split_shifts += 1
                        if liu != lu or liv != lv:
                            violate(f"{pair}: split pair leaves its parts "
                                    f"({lu},{lv}) -> ({liu},{liv})")
                        if cu != cv:
                            violate(f"{pair}: split pair at unequal "
                                    f"positions {cu} != {cv}")

        report.details.append(f"{len(hits)} hits, "
                              f"{same_part_shifts} same-part shifts, "
                              f"{split_shifts} split shifts")
        if violations:
            report.counterexample = violations[0]
            report.details.extend(violations[1:])
        else:
            report.passed = True
    return report


# ---------------------------------------------------------------------------
# independence suites


def verify_block_independence(k: int, traj: Trajectory,
                              budget: SearchBudget | None = None) -> CheckReport:
    """The designated times of block k form an independence set for the
    tuple of level-k neighborhoods of a_0 .. a_{m-1}."""
    _require_family(traj, FAMILY_LOG_M, "verify_block_independence")
    with CheckReport("block-independence",
                     {"m": str(traj.m), "k": str(k)}) as report:
        block = traj.manifest.block(k)
        specs = tuple(NeighborhoodSpec(Symbol.head(i), k)
                      for i in range(traj.m))
        res = is_independence_set(block.times, specs, traj, budget=budget)
        count = traj.m ** len(block.times)
        report.params["assignments"] = str(count)
        if res.ok:
            report.passed = True
            sample = sorted(res.witness.realizers.items())[:4]
            for sigma, point in sample:
                report.details.append(
                    f"assignment {sigma} realized by {point.render()}")
            report.details.append(f"all {count} assignments realized")
        else:
            report.counterexample = f"assignment {res.failing} unrealizable"
    return report


def far_offsets(m: int, reach: int = 6) -> tuple:
    """Head offsets past the alphabet in both directions, plus infinity."""
    out: list = []
    for j in range(m, reach + 1):
        out.append(j)
    for j in range(m, reach + 1):
        out.append(-j)
    out.append("inf")
    return tuple(out)


def verify_far_pair_exclusion(traj: Trajectory, offsets=None, cap: int = 5,
                              horizon: int | None = None,
                              mode: str = "level",
                              budget: SearchBudget | None = None) -> CheckReport:
    """No long independence sets for pairs of a_0 with a far head.

    For each offset j (with |j| >= m, or infinity) the pair
    (U1(a_0), U1(a_j)) is searched for independence sets up to the cap;
    the check passes when every search dies below the cap and returns the
    exhaustion certificates.

    ``mode`` selects nothing: there is one search, and "level" and "dfs"
    are accepted for callers written when there were two.
    """
    if mode not in ("level", "dfs"):
        raise ValueError(f"unknown search mode {mode!r}")
    _require_family(traj, FAMILY_LOG_M, "verify_far_pair_exclusion")
    if offsets is None:
        offsets = far_offsets(traj.m)
    if horizon is None:
        horizon = traj.block_range(traj.kmax)[1]
    with CheckReport("far-pair-exclusion",
                     {"m": str(traj.m), "cap": str(cap),
                      "horizon": str(horizon),
                      "offsets": ",".join(str(o) for o in offsets)}) as report:
        failures = []
        for off in offsets:
            if off == "inf":
                partner = Symbol.head_inf()
            else:
                if abs(int(off)) < traj.m:
                    raise InvalidConfig(
                        f"offset {off} is within the alphabet; far pairs "
                        f"need |j| >= {traj.m}")
                partner = Symbol.head(int(off))
            specs = (NeighborhoodSpec(Symbol.head(0), 1),
                     NeighborhoodSpec(partner, 1))
            res = max_independence(specs, cap=cap, traj=traj,
                                   horizon=horizon, budget=budget)
            label = f"j={off}"
            if res.length >= cap:
                failures.append(
                    f"{label}: reached length {res.length} with times "
                    f"{res.witness.times}")
                continue
            cert = res.certificate
            report.certificates.append(cert)
            report.details.append(
                f"{label}: max length {res.length}, frontier "
                f"{list(cert.frontier_sizes)}, died at level "
                f"{cert.died_level}")
        if failures:
            report.counterexample = failures[0]
            report.details.extend(failures[1:])
        else:
            report.passed = True
    return report


def verify_dense_block_independence(n: int, traj: Trajectory,
                                    budget: SearchBudget | None = None) -> CheckReport:
    """Block n of the dense family admits an in-block independence set of
    length n + 1 for the level-n neighborhoods of the first n + 1 heads.

    Realizers are restricted to orbit starts inside block n, so the witness
    is carried entirely by the block's own pattern segments. The block
    proposes one per assignment (``propose_realizers``), within the
    assignment cap and after the budget is charged for the reads, and
    ``check_realizers`` reads them up to the block's last time: level n's
    threshold is the block's start. Only when a proposal fails does
    ``is_independence_set`` search the block's starts.
    """
    _require_family(traj, FAMILY_LOG_INFTY, "verify_dense_block_independence")
    with CheckReport("dense-block-independence", {"n": str(n)}) as report:
        block = traj.manifest.block(n)
        specs = tuple(NeighborhoodSpec(Symbol.dense(j), n)
                      for j in range(1, n + 2))
        times = block.times
        _check_assignment_cap(len(specs), len(times))
        count = (n + 1) ** len(times)
        report.params["assignments"] = str(count)
        report.params["times"] = ",".join(str(t) for t in times)
        if budget is not None:
            budget.spend(count * len(times))
        proposals = propose_realizers(block, specs, len(times))
        if check_realizers(times, specs, proposals, traj,
                           horizon=block.end - 1) is None:
            # the check saw every assignment proposed once, and distinct
            # centers give distinct symbols at the times: the proposals
            # have as many starts as there are assignments
            starts = count
        else:
            start_range = (block.start, block.end - 1 - times[-1])
            res = is_independence_set(times, specs, traj,
                                      start_range=start_range, budget=budget)
            if not res.ok:
                report.counterexample = (f"assignment {res.failing} "
                                         f"unrealizable")
                return report
            starts = len({p.time for p in res.witness.realizers.values()})
        report.passed = True
        report.details.append(f"all {count} assignments realized by "
                              f"{starts} in-block starts")
    return report
