"""Composite systems glued from petal subsystems at one shared point.

Each petal is a full trajectory system; the composite identifies all the
petals' orbit origins into a single fixed junction point. Neighborhoods keep
their petal tags and exclude the junction, so membership never crosses
petals. Petals carry a mode: active petals contribute their declared value
and their points, frozen petals are stopped (every point fixed, contributing
nothing), collapsed petals are retracted onto a point of an active petal.

The value of the composite is the supremum of the active petals' declared
values; a composite declared over an unbounded family of alphabet sizes has
infinite value as soon as any petal is active.
"""

from __future__ import annotations

import itertools

from .checks import CheckReport
from .errors import InvalidConfig
from .independence import (
    ExhaustionCertificate, SearchBudget, is_independence_set, occupancy,
)
from .model import (
    FAMILY_LOG_M, NeighborhoodSpec, Symbol, Trajectory, _Frozen, _Record,
)

MODE_ACTIVE = "active"
MODE_FROZEN = "frozen"
MODE_COLLAPSED = "collapsed"
_MODES = (MODE_ACTIVE, MODE_FROZEN, MODE_COLLAPSED)


# ---------------------------------------------------------------------------
# values


class Value(_Frozen):
    """Supremum sequence entropy as a symbolic quantity: 0, log b, or inf."""

    __slots__ = _fields = ("kind", "base")  # "zero" | "log" | "infinity", b
    _defaults = (0,)

    @staticmethod
    def zero() -> "Value":
        return Value("zero")

    @staticmethod
    def log(base: int) -> "Value":
        if base < 2:
            raise ValueError("log values need a base of at least 2")
        return Value("log", base)

    @staticmethod
    def infinity() -> "Value":
        return Value("infinity")

    @property
    def sort_key(self):
        if self.kind == "zero":
            return (0, 0)
        if self.kind == "log":
            return (1, self.base)
        return (2, 0)

    def render(self) -> str:
        if self.kind == "zero":
            return "0"
        if self.kind == "log":
            return f"log {self.base}"
        return "inf"


# ---------------------------------------------------------------------------
# petals and composites


class PetalSystem(_Record):
    """One petal: an id, a declared value, and optionally a built trajectory."""

    _fields = ("petal_id", "declared", "trajectory")

    def __init__(self, petal_id: str, declared: Value,
                 trajectory: Trajectory | None = None):
        if not petal_id or "/" in petal_id or "," in petal_id:
            raise InvalidConfig("petal ids are nonempty and contain no '/' or ','")
        if trajectory is not None:
            if trajectory.family == FAMILY_LOG_M:
                want = Value.log(trajectory.m)
            else:
                want = Value.infinity()
            if declared != want:
                raise InvalidConfig(
                    f"petal {petal_id} declares {declared.render()} "
                    f"but its trajectory carries {want.render()}")
        self.petal_id = petal_id
        self.declared = declared
        self.trajectory = trajectory


class CompositeSystem(_Record):
    _fields = ("petals", "modes", "collapse_targets", "unbounded_family")
    _defaults = (dict, False)

    def active_petals(self) -> list[PetalSystem]:
        return [p for p in self.petals
                if self.modes[p.petal_id] == MODE_ACTIVE]


def compose(petals, modes=None, collapse_targets=None,
            unbounded_family: bool = False) -> CompositeSystem:
    """Build a composite from petals, validating modes and collapse targets.

    All petals default to active. A collapsed petal names a target petal
    that must itself be active; the collapsed petal's points retract onto
    the target and contribute nothing to the composite's value.
    """
    petals = list(petals)
    if not petals:
        raise InvalidConfig("a composite needs at least one petal")
    ids = [p.petal_id for p in petals]
    if len(set(ids)) != len(ids):
        raise InvalidConfig("petal ids must be distinct")
    modes = dict(modes or {})
    collapse_targets = dict(collapse_targets or {})
    for pid in modes:
        if pid not in ids:
            raise InvalidConfig(f"mode given for unknown petal {pid}")
    for pid in ids:
        modes.setdefault(pid, MODE_ACTIVE)
        if modes[pid] not in _MODES:
            raise InvalidConfig(f"unknown mode {modes[pid]!r} for petal {pid}")
    for pid, mode in modes.items():
        if mode == MODE_COLLAPSED:
            target = collapse_targets.get(pid)
            if target is None:
                raise InvalidConfig(f"collapsed petal {pid} needs a target")
            if target not in ids or target == pid:
                raise InvalidConfig(
                    f"collapse target {target} of {pid} is not another petal")
            if modes.get(target) != MODE_ACTIVE:
                raise InvalidConfig(
                    f"collapse target {target} of {pid} must be active")
        elif pid in collapse_targets:
            raise InvalidConfig(
                f"petal {pid} is not collapsed but names a collapse target")
    return CompositeSystem(petals, modes, collapse_targets, unbounded_family)


def value_calculus(comp: CompositeSystem) -> Value:
    """Supremum of the active petals' declared values.

    Frozen and collapsed petals contribute nothing. The unbounded-family
    flag records that the composite stands for a family with arbitrarily
    large declared bases, which pushes the supremum to infinity whenever
    any petal is active.
    """
    active = comp.active_petals()
    if not active:
        return Value.zero()
    if comp.unbounded_family:
        return Value.infinity()
    return max((p.declared for p in active), key=lambda v: v.sort_key)


# ---------------------------------------------------------------------------
# cross-petal independence


def _petal_pair_hits(traj: Trajectory, spec: NeighborhoodSpec) -> list[int]:
    """Orbit hit times of a petal neighborhood, junction excluded."""
    return [t for t in occupancy(spec, traj).times if t >= 1]


def cross_petal_check(comp: CompositeSystem,
                      budget: SearchBudget | None = None) -> CheckReport:
    """Cross-petal pairs admit no independence set of length 2; pairs
    inside one petal do.

    For every ordered pair of distinct active built petals, the pair
    (U1 of the first petal's a_0, U1 of the second petal's a_0) runs the
    pair stage over the composite's points: petal orbit points from time 1
    up (the junction is identified away), plus each petal's heads. A mixed
    assignment names two petals, so nothing realizes it, and every cross
    pair carries an exhaustion certificate at level 2; a pair that
    survives is a violation naming its difference, with no certificate.
    Positive evidence comes from each petal's own (a_0, a_1) pair
    restricted to orbit starts past the junction. Each petal is read up
    to its own horizon; the budget, when given, bounds both.
    """
    with CheckReport("cross-petal", {"cap": "2"}) as report:
        built = [p for p in comp.active_petals()
                 if p.trajectory is not None
                 and p.trajectory.family == FAMILY_LOG_M]
        if len(built) < 2:
            raise InvalidConfig(
                "cross-petal checks need at least two active built petals")
        violations = []
        for pa in built:
            for pb in built:
                if pa.petal_id == pb.petal_id:
                    continue
                cert, bad = _cross_pair_search(pa, pb, budget)
                if bad is not None:
                    violations.append(bad)
                else:
                    report.certificates.append(cert)
                    report.details.append(
                        f"{pa.petal_id}:{pb.petal_id} cross pair died at "
                        f"level {cert.died_level}, frontier "
                        f"{list(cert.frontier_sizes)}")
        for p in built:
            line, ok = _petal_internal_evidence(p, budget)
            report.details.append(line)
            if not ok:
                violations.append(line)
        if violations:
            report.counterexample = violations[0]
        else:
            report.passed = True
    return report


def _cross_pair_search(pa: PetalSystem, pb: PetalSystem,
                       budget: SearchBudget | None = None):
    """Pair stage of one cross pair over petal-tagged hit lists.

    Returns (certificate, None) when the pair dies at length 2, and
    (None, violation) naming the largest surviving difference otherwise:
    a pair that survives has no exhaustion to certify.

    (0, d) survives when every assignment (i, j) is realized at d. Inside
    one petal those d are the hit differences b - a (a in H_i, b in H_j,
    b > a), since a head comes back to U1(a_0) only at d = 0. Across
    petals there are none: neighborhoods resolve inside their own petal
    and the junction belongs to none of them. As in the candidate
    generator at the singleton shape (``independence._extensions``, sparse
    backend), the sets are intersected, here in product order, until one
    leaves nothing, and each assignment spends |H_i| * |H_j| nodes, of
    the budget and of the certificate's own count.
    """
    spec = NeighborhoodSpec(Symbol.head(0), 1)
    sides = [(p.petal_id, _petal_pair_hits(p.trajectory, spec))
             for p in (pa, pb)]
    nodes = 0
    viable = None
    for (id_i, hits_i), (id_j, hits_j) in itertools.product(sides, repeat=2):
        cost = len(hits_i) * len(hits_j)
        if budget is not None:
            budget.spend(cost)
        nodes += cost
        diffs = ({b - a for a in hits_i for b in hits_j if b > a}
                 if id_i == id_j else set())
        viable = diffs if viable is None else viable & diffs
        if not viable:
            break
    if viable:
        return None, (f"cross pair {pa.petal_id}:{pb.petal_id} realized a "
                      f"mixed assignment at difference {max(viable)}")
    return ExhaustionCertificate(
        tuple_rendered=(f"{pa.petal_id}:{spec.render()},"
                        f"{pb.petal_id}:{spec.render()}"),
        target_length=2,
        horizon=max(pa.trajectory.horizon, pb.trajectory.horizon),
        search="level-shapes",
        frontier_sizes=(1, 0),
        died_level=2,
        nodes_used=nodes), None


def _petal_internal_evidence(p: PetalSystem,
                             budget: SearchBudget | None = None):
    """One petal's own (a_0, a_1) pair is independent past the junction.

    Pair-level evidence only: the check looks for a difference d making
    (0, d) an independence set with all realizers drawn from orbit starts
    at time 1 or later.
    """
    traj = p.trajectory
    specs = (NeighborhoodSpec(Symbol.head(0), 1),
             NeighborhoodSpec(Symbol.head(1), 1))
    hits = _petal_pair_hits(traj, specs[0])
    diffs = sorted({v - u for i, u in enumerate(hits) for v in hits[i + 1:]})
    for d in diffs:
        res = is_independence_set((0, d), specs, traj,
                                  start_range=(1, traj.horizon), budget=budget)
        if res.ok:
            starts = sorted(pt.time for pt in res.witness.realizers.values())
            return (f"{p.petal_id}: in-petal pair independent at "
                    f"difference {d}, starts {starts}"), True
    return (f"{p.petal_id}: no in-petal independent pair found", False)
