"""seqent benchmark: time to verdict, one workload per call.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout; it needs ``src/seqent`` and the
standard library only. Each iteration is a fresh process (``worker.py``),
as every CLI call is, so no build or cache carries over. Iterations repeat,
one at a time, while the next one is expected to end within ``--seconds``;
there is always at least one. An untraced run then fills the time left
with set-ups alone, each in a fresh process, so ``setup_s`` is a median
over several set-ups.

With ``--trace 0`` the last line of standard output reports the
end-to-end metrics as medians over the iterations. Their times are scaled
to a reference host speed by a probe kernel timed around every step (see
``worker.py``); the raw seconds are in the record. With ``--trace 1``
untraced, spanned and counting iterations take turns (at least one of
each), and the last line reports the per-layer metrics: self times and
call counts from the spanned ones, hot-leaf call counts from the counting
ones, and the tracing overhead (spanned minus untraced raw wall time). A
full record of every iteration (timings, /proc/loadavg before and after,
verdicts, counters) is written to ``bench/_out/``. The result is correct
only if every verdict matches its pinned value and every counter agrees
across the iterations.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
WORKLOADS = ("logm-far-pairs", "dense-evidence", "artifacts-replay")
RUN_LIMIT_S = 170  # the whole call ends well within three minutes
# an untraced run fills the time its full iterations leave with set-ups
# alone, in fresh processes, up to this many set-up samples in all
SETUP_SAMPLES = 15

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("verdict_s", "s"),
              ("peak_rss_mb", "MB"))

# (metric, unit, how to read it from the traced iterations)
_SIZES = ("size2", "size3", "size4")
PER_LAYER = (
    [("construct.build_log_m.self_s", "s", "self"),
     ("construct.build_log_infty.self_s", "s", "self"),
     ("model.orbit_member.calls", "count", "count")]
    + [(f"independence.is_independence_set.{z}.{f}", u, k)
       for z in _SIZES
       for f, u, k in (("calls", "count", "count"), ("self_s", "s", "self"),
                       ("ok_ratio", "ratio", "ratio"))]
    + [("independence.satisfiable.calls", "count", "count"),
       ("independence.satisfiable.self_s", "s", "self"),
       ("independence.satisfiable.realized_ratio", "ratio", "ratio"),
       ("independence.occupancy.calls", "count", "count"),
       ("independence.occupancy.self_s", "s", "self"),
       ("independence.max_independence.calls", "count", "count"),
       ("independence.max_independence.self_s", "s", "self"),
       ("independence.nodes", "count", "nodes")]
    + [(f"checks.{f}.self_s", "s", "self")
       for f in ("verify_far_pair_exclusion", "validate_growth",
                 "verify_dense_block_independence",
                 "verify_block_independence", "check_block_parts",
                 "check_shiftability")]
    + [("entropy.h_star_lower_bound.self_s", "s", "self"),
       ("entropy.max_independence.calls", "count", "count"),
       ("flower.cross_petal_check.self_s", "s", "self")]
    + [(f"formats.{f}.self_s", "s", "self")
       for f in ("write_symbols", "replay_symbols", "write_manifest",
                 "replay_manifest", "write_certificate",
                 "replay_certificate", "write_report")]
    + [("formats.bytes_written", "bytes", "count"),
       ("cli.main.self_s", "s", "self"),
       ("unattributed_s", "s", "unattributed"),
       ("trace.overhead_s", "s", "overhead")])

# ratio metric -> suffix of the counter holding its numerator
_RATIOS = {"realized_ratio": ".realized", "ok_ratio": ".ok"}


def _loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def _git_revision() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _run_iteration(workload, seed, mode, index, deadline):
    """One worker process; returns its record (or a failure record)."""
    stem = f"{workload}-seed{seed}"
    workdir = OUT / f"work-{stem}-{os.getpid()}-{index}"
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
           mode, str(workdir), str(OUT / f"spans-{stem}")]
    rec = {"mode": mode, "loadavg_before": _loadavg()}
    t = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - t), cwd=ROOT)
    except subprocess.TimeoutExpired:
        rec.update(error="iteration timed out", process_s=time.monotonic() - t)
        return rec
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rec["process_s"] = time.monotonic() - t
    rec["loadavg_after"] = _loadavg()
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode != 0 or not lines:
            raise ValueError(f"worker exited {proc.returncode}")
        rec.update(json.loads(lines[-1]))
    except ValueError as exc:  # JSONDecodeError included
        rec["error"] = f"{exc}: {proc.stderr.strip()[-2000:]}"
    return rec


def _layer_value(rec: dict, name: str, kind: str, counts: dict):
    """One per-layer metric from a spanned iteration's record and the
    call counts of the traced iterations."""
    if kind == "self":
        return rec["layers"].get(name[:-len(".self_s")], 0.0)
    if kind == "unattributed":
        return rec["layers"]["unattributed"]
    if kind == "count":
        return counts.get(name, 0)
    if kind == "nodes":
        return rec["counters"]["independence.nodes"]
    base, _, field = name.rpartition(".")  # a ratio
    calls = counts.get(base + ".calls", 0)
    return counts.get(base + _RATIOS[field], 0) / calls if calls else 0.0


def _agree(records: list[dict], key: str) -> bool:
    return len({json.dumps(r[key], sort_keys=True) for r in records}) <= 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "seqent" / "__init__.py").is_file():
        print(f"bench: no seqent sources under {ROOT / 'src'}; run from a "
              f"source checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # compile once, so the first iteration's set-up does not include it
    for tree in (ROOT / "src" / "seqent", HERE):
        compileall.compile_dir(str(tree), quiet=1)
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "git_revision": _git_revision()}
    modes = ("plain", "spans", "counts") if args.trace else ("plain",)

    records = []

    def fits(mode: str) -> bool:
        """Whether another iteration of ``mode`` is expected to end in time."""
        done = [r["process_s"] for r in records if r["mode"] == mode]
        if not done:  # a set-up alone: the full iterations' set-up, plus start
            done = [r["raw"]["setup_s"] + 0.5 for r in records
                    if r["mode"] == "plain"]
        typical = statistics.median(done)
        now = time.monotonic()
        return (now - started + typical <= args.seconds
                and now + typical <= deadline)

    def run(mode: str) -> bool:
        rec = _run_iteration(args.workload, args.seed, mode, len(records),
                             deadline)
        records.append(rec)
        return "error" not in rec

    # modes in turn, each at least once, while the next fits; then set-ups
    while (run(modes[len(records) % len(modes)])
           and (len(records) < len(modes)
                or fits(modes[len(records) % len(modes)]))):
        pass
    while (not args.trace and len(records) < SETUP_SAMPLES
           and not any("error" in r for r in records) and fits("setup")
           and run("setup")):
        pass

    good = [r for r in records if "error" not in r]
    broken = len(records) - len(good)  # each counts as one failed verdict
    attempted = sum(len(r["verdicts"]) for r in good) + broken
    failed = sum(not v["ok"] for r in good for v in r["verdicts"]) + broken
    by_mode = {m: [r for r in good if r["mode"] == m]
               for m in modes + ("setup",)}
    # deterministic facts must repeat exactly: verdict facts and nodes in
    # every full iteration, call counts in every traced one of the same mode
    full = [r for r in good if r["mode"] != "setup"]
    counters_agree = (_agree(full, "counters")
                      and _agree(by_mode.get("spans", []), "counts")
                      and _agree(by_mode.get("counts", []), "counts"))
    correct = broken == 0 and failed == 0 and counters_agree and bool(full)
    plain = by_mode["plain"]
    summary = {}
    for name, _unit in END_TO_END:
        recs = plain + by_mode["setup"] if name == "setup_s" else plain
        if plain:
            summary[name] = {
                "n": len(recs),
                "median": statistics.median(r[name] for r in recs),
                "raw_median": (statistics.median(r["raw"][name] for r in recs)
                               if name in recs[0]["raw"] else None)}
    metrics = {}
    counts = {}
    if args.trace == 0:
        metrics = {name: {"value": summary[name]["median"], "unit": unit}
                   for name, unit in END_TO_END if name in summary}
    elif correct:
        spanned = by_mode["spans"]
        counts = {**spanned[0]["counts"], **by_mode["counts"][0]["counts"]}
        for name, unit, kind in PER_LAYER:
            if kind == "overhead":
                value = (statistics.median(r["raw"]["wall_s"] for r in spanned)
                         - summary["wall_s"]["raw_median"])
            elif kind in ("self", "unattributed"):
                value = statistics.median(
                    _layer_value(r, name, kind, counts) for r in spanned)
            else:  # equal in every iteration
                value = _layer_value(spanned[0], name, kind, counts)
            metrics[name] = {"value": value, "unit": unit}

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "correct": correct, "counters_agree": counters_agree,
              "attempted": attempted, "failed": failed,
              "failed_ratio": failed / attempted if attempted else None,
              "summary": summary, "metrics": metrics,
              "counters": full[0]["counters"] if full else None,
              "counts": counts or None,
              "iterations": records}
    path = OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for r in records:
        if "error" in r:
            print(f"iteration failed: {r['error']}", file=sys.stderr)
        for v in r.get("verdicts", ()):
            if not v["ok"]:
                print(f"wrong verdict: {v['step']}: {v['facts']}",
                      file=sys.stderr)
    if not counters_agree:
        print("counters differ between iterations", file=sys.stderr)
    nodes = full[0]["counters"]["independence.nodes"] if full else None
    print(f"workload {args.workload} seed {args.seed}: {len(records)} "
          f"iterations, {attempted} verdicts, {failed} failed, "
          f"independence.nodes {nodes}; "
          f"python {env['python']}, nproc {env['nproc']}, "
          f"rev {env['git_revision']}; record {path.relative_to(ROOT)}")
    for name, s in summary.items():
        raw = (f" (raw {s['raw_median']:.4f})"
               if s["raw_median"] is not None else "")
        print(f"  {name}: median {s['median']:.4f}{raw} over {s['n']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
