"""One iteration of one workload, in a fresh process.

Usage: python3 bench/worker.py WORKLOAD SEED MODE WORKDIR SPANS

MODE is "plain" (untraced), "setup" (untraced, set-up only), "spans"
(layer spans, written to SPANS.json and SPANS.bin) or "counts" (hot-leaf
call counts only).

Times run from the top of this script, before seqent is imported, to the
last verdict. Set-up is the seqent import plus the workload's builds; then
each step runs on its own. The speed of a shared host drifts by tens of
percent, switching within a fraction of a second, so an untraced iteration
also samples it: every ``PROBE_EVERY_S`` a timer signal runs a fixed
pure-Python kernel (``probe``, about 3 ms). Probe time is taken out of the
measured time, and each segment's seconds are also scaled to a reference
speed: multiplied by ``REF_PROBE_S`` over the mean of the probes taken
within ``PROBE_WINDOW_S`` of the segment. A burst of probes right after
set-up serves the short set-ups. Both raw and scaled times are reported.
Traced iterations take no probes, so no probe lands in a span.

The last line of standard output is one JSON object with the timings, the
peak resident memory, one verdict per step and the deterministic counters.
Files the workload writes go to WORKDIR.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
MODES = ("plain", "setup", "spans", "counts")

# probe seconds at the reference speed, about its time on an idle vCPU of a
# 2-vCPU x86-64 cloud host; a scaled time is what the segment would take
# at that speed
REF_PROBE_S = 0.003
PROBE_EVERY_S = 0.1
PROBE_WINDOW_S = 0.25
SETUP_PROBES = 5


def probe() -> None:
    """A fixed kernel of the operations the program spends its time on:
    tuple keys in dicts, big-int bit masks, Fraction sums."""
    table = {}
    for i in range(3_000):
        key = ((i * 40503) & 1023, i & 7)
        table[key] = table.get(key, 0) + 1
    a = (1 << 240_000) // 7
    b = (1 << 240_000) // 11
    acc = 0
    for i in range(80):
        acc ^= (a >> i) & b
    total = Fraction(0)
    for i in range(1, 250):
        total += Fraction(i % 7 + 1, i % 13 + 2)
    assert len(table) == 1024 and acc and total


class SpeedSampler:
    """Runs ``probe`` on a timer signal and keeps (start, seconds) of each."""

    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def _tick(self, signum=None, frame=None):
        t = time.perf_counter()
        probe()
        self.starts.append(t)
        self.seconds.append(time.perf_counter() - t)

    def burst(self, n: int):
        for _ in range(n):
            self._tick()

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def within(self, lo: float, hi: float) -> list[float]:
        return [s for t, s in zip(self.starts, self.seconds) if lo <= t < hi]

    def segment(self, lo: float, hi: float) -> tuple[float, float]:
        """Raw and scaled seconds of the segment [lo, hi)."""
        raw = hi - lo - sum(self.within(lo, hi))
        near = self.within(lo - PROBE_WINDOW_S, hi + PROBE_WINDOW_S)
        return raw, raw * REF_PROBE_S * len(near) / sum(near)


def main(argv) -> int:
    workload, seed, mode, workdir = argv[0], int(argv[1]), argv[2], argv[3]
    if mode not in MODES:
        raise SystemExit(f"unknown mode {mode!r}")
    sampler = SpeedSampler() if mode in ("plain", "setup") else None
    if sampler:
        sampler.start()
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    sys.path.insert(0, HERE)
    import seqent.cli  # noqa: F401  (the whole package, as the CLI loads it)
    tracer = None
    if mode in ("spans", "counts"):
        from spans import Tracer
        tracer = Tracer()
        tracer.install(mode)
    import workloads

    wl = workloads.make(workload, workdir)
    wl.setup()
    bounds = [T0, time.perf_counter()]  # segment i is [bounds[i], bounds[i+1])
    if sampler:
        sampler.burst(SETUP_PROBES)
    steps = wl.steps(random.Random(seed)) if mode != "setup" else []
    verdicts = []
    for label, step in steps:
        try:
            ok, facts = step()
        except Exception:  # a raised step is a failed verdict
            ok, facts = False, {"raised": traceback.format_exc(limit=4)}
        bounds.append(time.perf_counter())
        verdicts.append({"step": label, "ok": bool(ok), "facts": facts})
    if sampler:
        sampler.stop()
        segs = [sampler.segment(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        raw, scaled = [r for r, _ in segs], [s for _, s in segs]
    else:
        raw = scaled = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
    for v, seconds in zip(verdicts, raw[1:]):
        v["seconds"] = seconds

    rec = {"wall_s": sum(scaled), "setup_s": scaled[0],
           "verdict_s": sum(scaled[1:]),
           "raw": {"wall_s": sum(raw), "setup_s": raw[0],
                   "verdict_s": sum(raw[1:])},
           "probes": ({"n": len(sampler.seconds),
                       "mean_s": sum(sampler.seconds) / len(sampler.seconds)}
                      if sampler and sampler.seconds else None),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
           "cpu_s": time.process_time(),
           "verdicts": verdicts,
           "counters": {"independence.nodes": wl.nodes(),
                        "steps": {v["step"]: v["facts"] for v in verdicts}}}
    if tracer is not None:
        rec["counts"] = tracer.counts()
    if mode == "spans":
        rec["layers"] = tracer.self_times(sum(raw))
        tracer.write(argv[4], T0)
    print(json.dumps(rec, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
