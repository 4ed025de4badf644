"""Command line interface.

Subcommands: ``build`` writes a manifest (and optionally a symbol listing),
``verify`` runs the named verification suite or replays a recorded file,
``entropy`` reports the independence-based entropy evidence, ``flower``
composes petal systems and checks cross-petal separation.

Exit codes: 0 all checks passed, 1 a check failed, 2 invalid configuration,
3 inconclusive (a node, time, or assignment budget ran out), 70 an internal
error (``EX_SOFTWARE``: a bug, with its traceback on standard error), 141
standard output closed early, as for a process stopped by SIGPIPE.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
import traceback
from pathlib import Path

from .checks import (
    check_block_parts, check_shiftability, validate_growth,
    verify_block_independence, verify_dense_block_independence,
    verify_far_pair_exclusion,
)
from .construct import build_log_infty, build_log_m, minimal_schedule
from .entropy import h_star_lower_bound
from .errors import (
    CapExceeded, Infeasible, InvalidConfig, ResourceBudgetExceeded,
    ScheduleInvalid, SeqentError, UnknownBlock,
)
from .flower import (
    MODE_ACTIVE, PetalSystem, Value, compose, cross_petal_check,
    value_calculus,
)
from .formats import (
    MANIFEST_NMAX, SYMBOL_LINE_CAP, config_hash, input_file, parse_field, read_certificate,
    read_manifest, rebuild_from_manifest, replay_certificate,
    replay_manifest, replay_symbols, write_certificate, write_manifest,
    write_report, write_symbols,
)
from .independence import SearchBudget
from .model import FAMILY_LOG_INFTY, FAMILY_LOG_M, parse_symbol

SUITES = ("R1", "R2", "section3", "structure", "shiftability", "growth",
          "all")

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INVALID = 2
EXIT_INCONCLUSIVE = 3
EXIT_SOFTWARE = 70
EXIT_CLOSED_OUTPUT = 141

DEFAULT_SYMBOL_LINES = 4096


_FINGERPRINT_KEYS = ("suite", "family", "m", "kmax", "nmax", "cap",
                     "centers", "levels", "petals", "modes", "collapse",
                     "unbounded")


def _run_fingerprint(args) -> str:
    """Hash of the options that determine this run's outputs."""
    parts = []
    for key in _FINGERPRINT_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            parts.append(f"{key}={value}")
    budget = _budget(args)
    if budget is not None:
        parts.append(f"budget={budget.max_nodes},{budget.max_seconds}")
    return config_hash(";".join(parts))


def _budget(args) -> SearchBudget | None:
    """The budget from the flags, else the environment; flags win."""
    limits = []
    for flag, env, parse in (("budget_nodes", "SEQENT_NODE_BUDGET", int),
                             ("budget_seconds", "SEQENT_TIME_BUDGET", float)):
        value = getattr(args, flag, None)
        label = f"--{flag.replace('_', '-')} {value}"
        if value is None and env in os.environ:
            value = os.environ[env]
            label = f"{env}={value}"
        limits.append(None if value is None
                      else parse_field(label, value, parse, 0))
    if limits == [None, None]:
        return None
    return SearchBudget(*limits)


class _Builds:
    """Small build cache so suites share trajectories."""

    def __init__(self):
        self.cache = {}

    def log_m(self, m: int, kmax: int):
        """The build, if its times can be written: files and reports hold
        them in decimal, which CPython limits to a number of digits (4,300
        by default) that m=5 kmax=4's 7,837-digit horizon passes."""
        key = (FAMILY_LOG_M, m, kmax)
        if key not in self.cache:
            traj = build_log_m(m, kmax, minimal_schedule(m, kmax))
            digits = sys.get_int_max_str_digits()
            if digits and traj.n_points >= 10 ** digits:
                raise InvalidConfig(
                    f"the m={m} kmax={kmax} build has times of more than "
                    f"{digits} decimal digits, past the limit of Python's "
                    f"int-to-text conversion")
            self.cache[key] = traj
        return self.cache[key]

    def log_infty(self, nmax: int):
        key = (FAMILY_LOG_INFTY, nmax)
        if key not in self.cache:
            self.cache[key] = build_log_infty(nmax)
        return self.cache[key]


def _out_dir(args) -> Path | None:
    if getattr(args, "out", None) is None:
        return None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# build


def _cmd_build(args) -> int:
    if args.family == FAMILY_LOG_M:
        if args.m is None:
            raise InvalidConfig("build --family log-m needs --m")
        traj = _Builds().log_m(args.m, args.kmax)
        name = f"manifest-log-m-m{args.m}-k{args.kmax}.txt"
    else:
        if args.out is not None and args.nmax > MANIFEST_NMAX:
            raise InvalidConfig(
                f"--nmax {args.nmax} --out: a log-infty manifest lists every "
                f"segment, (n+1)^(n+1) patterns and their glues in block n, "
                f"and is written up to --nmax {MANIFEST_NMAX}")
        traj = build_log_infty(args.nmax)
        name = f"manifest-log-infty-n{args.nmax}.txt"
    n_lines = args.symbols
    if n_lines is None:
        n_lines = min(traj.n_points, DEFAULT_SYMBOL_LINES)
    limit = min(traj.n_points, SYMBOL_LINE_CAP)
    if not 0 <= n_lines <= limit:
        raise InvalidConfig(
            f"--symbols {n_lines} outside [0, {limit}] for this build")
    print(f"built {traj.family} trajectory: {traj.n_points} points, "
          f"{traj.kmax} blocks")
    out = _out_dir(args)
    if out is not None:
        path = out / name
        write_manifest(traj, path)
        print(f"manifest: {path}")
        if n_lines:
            spath = out / name.replace("manifest", "symbols")
            count = write_symbols(traj, spath, 0, n_lines - 1)
            print(f"symbols: {spath} ({count} lines)")
    return EXIT_PASS


# ---------------------------------------------------------------------------
# verify


def _suite_reports(args, builds: _Builds) -> list:
    budget = _budget(args)
    suite = args.suite
    reports = []
    kmax = args.kmax if args.kmax is not None else 3
    log_m_configs = ([(2, kmax), (3, kmax)] if args.m is None
                     else [(args.m, kmax)])

    if suite in ("R1", "all"):
        for m, kmax in log_m_configs:
            traj = builds.log_m(m, kmax)
            for k in range(1, kmax + 1):
                reports.append(verify_block_independence(k, traj,
                                                         budget=budget))
    if suite in ("R2", "all"):
        traj = builds.log_m(*log_m_configs[0])
        reports.append(verify_far_pair_exclusion(traj, cap=args.cap,
                                                 budget=budget))
    if suite in ("section3", "all"):
        traj = builds.log_infty(args.nmax)
        reports.append(validate_growth(traj))
        for n in range(1, args.nmax + 1):
            reports.append(verify_dense_block_independence(n, traj,
                                                           budget=budget))
    if suite in ("structure", "all"):
        for m, kmax in log_m_configs:
            traj = builds.log_m(m, kmax)
            for k in range(1, kmax + 1):
                reports.append(check_block_parts(k, traj))
    if suite in ("shiftability", "all"):
        for m, kmax in log_m_configs:
            depth = min(kmax, 2)
            traj = builds.log_m(m, depth)
            reports.append(check_shiftability(traj,
                                              traj.block_range(depth)[1]))
    if suite in ("growth", "all"):
        for m, kmax in log_m_configs:
            reports.append(validate_growth(builds.log_m(m, kmax)))
        if suite == "growth":
            reports.append(validate_growth(builds.log_infty(args.nmax)))
    return reports


def _cmd_verify(args) -> int:
    if args.replay is not None:
        return _cmd_replay(args)
    if args.suite is None:
        raise InvalidConfig("verify needs --suite or --replay")
    parse_field(f"--cap {args.cap}", args.cap, int, 1)
    builds = _Builds()
    reports = _suite_reports(args, builds)
    out = _out_dir(args)
    fingerprint = _run_fingerprint(args)
    all_passed = True
    cert_count = 0
    for i, report in enumerate(reports, 1):
        print(report.summary())
        all_passed &= report.passed
        if out is not None:
            write_report(report, out / f"report-{i:02d}-{report.name}.txt",
                         fingerprint)
            for cert in report.certificates:
                cert_count += 1
                write_certificate(cert, out / f"cert-{cert_count:02d}.txt")
    if out is not None:
        for key, traj in sorted(builds.cache.items(), key=lambda kv: str(kv[0])):
            tag = "-".join(str(x) for x in key)
            write_manifest(traj, out / f"manifest-{tag}.txt")
        print(f"wrote {len(reports)} reports, {cert_count} certificates "
              f"to {out}")
    return EXIT_PASS if all_passed else EXIT_FAIL


def _sniff_kind(path: str) -> str:
    with input_file(path, "--replay file") as fh:
        fh.readline()
        kind_line = fh.readline().strip()
    if kind_line.startswith("kind: "):
        return kind_line[len("kind: "):]
    raise InvalidConfig(f"{path} has no kind line")


def _cmd_replay(args) -> int:
    kind = _sniff_kind(args.replay)
    if kind == "manifest":
        ok, message = replay_manifest(args.replay)
    elif kind == "certificate":
        if args.manifest is None:
            raise InvalidConfig(
                "certificate replay needs --manifest for the build")
        cert = read_certificate(args.replay)
        traj = rebuild_from_manifest(read_manifest(args.manifest))
        ok, message = replay_certificate(cert, traj, budget=_budget(args))
    elif kind == "symbols":
        if args.manifest is None:
            raise InvalidConfig(
                "symbol replay needs --manifest for the build")
        traj = rebuild_from_manifest(read_manifest(args.manifest))
        ok, message = replay_symbols(args.replay, traj)
    else:
        raise InvalidConfig(f"cannot replay files of kind {kind!r}")
    print(("PASS " if ok else "FAIL ") + f"replay {args.replay}: {message}")
    return EXIT_PASS if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# entropy evidence


def _cmd_entropy(args) -> int:
    builds = _Builds()
    if args.family == FAMILY_LOG_M:
        if args.m is None:
            raise InvalidConfig("entropy --family log-m needs --m")
        kmax = args.kmax if args.kmax is not None else (3 if args.m == 2 else 2)
        traj = builds.log_m(args.m, kmax)
        default_centers = ",".join(f"a{i}" for i in range(args.m))
    else:
        traj = builds.log_infty(args.nmax)
        default_centers = ",".join(f"e{j}" for j in range(1, args.nmax + 2))
    parse_field(f"--cap {args.cap}", args.cap, int, 1)
    centers = [parse_field(f"--centers {t}", t, parse_symbol)
               for t in (args.centers or default_centers).split(",")]
    if len(set(centers)) != len(centers):
        raise InvalidConfig(f"--centers {args.centers} names a center twice")
    levels = None
    if args.levels:
        levels = [parse_field(f"--levels {x}", x, int, 1)
                  for x in args.levels.split(",")]
    evidence = h_star_lower_bound(traj, centers, args.cap, levels=levels,
                                  budget=_budget(args))
    if evidence.p == 0:
        print("no subset of the candidate centers sustains the cap; "
              "lower bound 0")
        return EXIT_FAIL
    names = ",".join(s.render() for s in evidence.centers)
    per = " ".join(f"level{k}={v}" for k, v in sorted(evidence.per_level.items()))
    print(f"h-star lower bound: log {evidence.p} = {evidence.value:.6f} "
          f"(centers {names}; {per}; cap {args.cap})")
    return EXIT_PASS


# ---------------------------------------------------------------------------
# flower composites


def _name_values(option: str, spec: str | None, parse=str, low=None):
    """The (name, value) pairs of a comma list ``name=value,...``."""
    out = []
    for part in spec.split(",") if spec else ():
        name, eq, value = part.partition("=")
        if not eq:
            raise InvalidConfig(
                f"{option} {part!r} must look like name=value")
        out.append((name.strip(),
                    parse_field(f"{option} {part}", value.strip(), parse,
                                low)))
    return out


def _cmd_flower(args) -> int:
    petal_specs = _name_values("--petals", args.petals, int, 2)
    modes = dict(_name_values("--modes", args.modes))
    collapse = dict(_name_values("--collapse", args.collapse))
    builds = _Builds()
    petals = []
    for name, base in petal_specs:
        traj = None
        if modes.get(name, MODE_ACTIVE) == MODE_ACTIVE:
            traj = builds.log_m(base, args.kmax)
        petals.append(PetalSystem(name, Value.log(base), traj))
    comp = compose(petals, modes=modes, collapse_targets=collapse,
                   unbounded_family=args.unbounded)
    value = value_calculus(comp)
    print(f"composite value: {value.render()}")
    active_built = [p for p in comp.active_petals() if p.trajectory is not None]
    exit_code = EXIT_PASS
    if len(active_built) >= 2:
        report = cross_petal_check(comp, budget=_budget(args))
        print(report.summary())
        for line in report.details:
            print(f"  {line}")
        out = _out_dir(args)
        if out is not None:
            write_report(report, out / "report-cross-petal.txt",
                         _run_fingerprint(args))
            for i, cert in enumerate(report.certificates, 1):
                write_certificate(cert, out / f"cert-cross-{i:02d}.txt")
        if not report.passed:
            exit_code = EXIT_FAIL
    return exit_code


# ---------------------------------------------------------------------------
# parser


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parsing does not
    change it. Each subcommand's handler is ``_cmd_<command>``, looked up
    when it runs."""
    parser = argparse.ArgumentParser(
        prog="seqent",
        description="Construct and verify countable systems with "
                    "prescribed supremum sequence entropy.")
    sub = parser.add_subparsers(dest="command", required=True)
    # subcommands set allow_abbrev=False: options match exactly, so an
    # option a subcommand lacks is refused, not read as a longer one

    def add_common(p, kmax_default, m=True, nmax=True, out=True,
                   budgets=True):
        if m:
            p.add_argument("--m", type=int, default=None,
                           help="alphabet size for the head-indexed family")
        p.add_argument("--kmax", type=int, default=None,
                       help=f"blocks to build (default {kmax_default})")
        if nmax:
            p.add_argument("--nmax", type=int, default=4,
                           help="blocks for the dense family (default 4)")
        if out:
            p.add_argument("--out", default=None,
                           help="directory for manifests, reports, "
                                "certificates")
        if budgets:
            p.add_argument("--budget-nodes", type=int, default=None,
                           help="node budget (env SEQENT_NODE_BUDGET)")
            p.add_argument("--budget-seconds", type=float, default=None,
                           help="time budget (env SEQENT_TIME_BUDGET)")

    b = sub.add_parser("build", help="build a trajectory and write files",
                       allow_abbrev=False)
    b.add_argument("--family", choices=(FAMILY_LOG_M, FAMILY_LOG_INFTY),
                   required=True)
    add_common(b, "3", budgets=False)
    b.set_defaults(kmax=3)
    b.add_argument("--symbols", type=int, default=None,
                   help="symbol lines to write (default "
                        f"{DEFAULT_SYMBOL_LINES}; 0 skips the file)")

    v = sub.add_parser("verify", help="run a verification suite or replay",
                       allow_abbrev=False)
    v.add_argument("--suite", choices=SUITES, default=None)
    v.add_argument("--replay", default=None,
                   help="manifest or certificate file to replay")
    v.add_argument("--manifest", default=None,
                   help="manifest for certificate replays")
    v.add_argument("--cap", type=int, default=5,
                   help="length cap for exclusion searches (default 5)")
    add_common(v, "3")

    e = sub.add_parser("entropy", help="independence-based entropy evidence",
                       allow_abbrev=False)
    e.add_argument("--family", choices=(FAMILY_LOG_M, FAMILY_LOG_INFTY),
                   default=FAMILY_LOG_M)
    e.add_argument("--centers", default=None,
                   help="comma list of candidate centers (default: the "
                        "family's first heads)")
    e.add_argument("--cap", type=int, default=3,
                   help="independence length every level must sustain")
    e.add_argument("--levels", default=None,
                   help="comma list of levels (default: all built)")
    add_common(e, "3 for m=2, else 2", out=False)

    f = sub.add_parser("flower", help="compose petals and check separation",
                       allow_abbrev=False)
    f.add_argument("--petals", required=True,
                   help="comma list name=BASE, e.g. p2=2,p3=3")
    f.add_argument("--modes", default=None,
                   help="comma list name=active|frozen|collapsed")
    f.add_argument("--collapse", default=None,
                   help="comma list collapsedName=targetName")
    f.add_argument("--unbounded", action="store_true",
                   help="declare an unbounded family of alphabet sizes")
    add_common(f, "2", m=False, nmax=False)
    # cross-petal checks are pair searches; the config hash names that cap
    f.set_defaults(kmax=2, cap=2)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = globals()[f"_cmd_{args.command}"](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # send the flush at interpreter exit to the null device
        with contextlib.suppress(AttributeError, OSError, ValueError):
            fd = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return EXIT_CLOSED_OUTPUT
    except (ResourceBudgetExceeded, CapExceeded) as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (InvalidConfig, ScheduleInvalid, Infeasible, UnknownBlock) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except SeqentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except Exception:  # a bug: never read as a failed check
        traceback.print_exc()
        return EXIT_SOFTWARE


if __name__ == "__main__":  # pragma: no cover - module execution hook
    sys.exit(main())
