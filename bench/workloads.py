"""The benchmark's workloads: set-up, independent steps, pinned verdicts.

Each workload builds what it needs in ``setup`` and then returns its
steps. The seed only permutes the order of steps that do not depend on each
other, so every verdict and every counter is the same for every seed.

The layers are reached through module attributes at call time, never
through names bound here, so a traced run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import os
import random

from seqent import checks, cli, construct, entropy, independence
from seqent.model import Symbol

# R2 (criterion 2) at m=2 k=3, cap 5: every finite far pair dies at the
# pair level; a_inf, searched up to the start of block 3's fifth piece,
# dies in the level-3 join. Report details render the certificate.
FAR_FINITE = "max length 1, frontier [1, 0], died at level 2"
FAR_INF = "max length 2, frontier [1, 1065, 0], died at level 3"

# log 5 evidence (criterion 5) on nmax=4 at cap 4
EVIDENCE = {
    "level4": {"p": 5, "centers": ["e1", "e2", "e3", "e4", "e5"],
               "per_level": {"4": 4}},
    "levels1-3": {"p": 4, "centers": ["e1", "e2", "e3", "e4"],
                  "per_level": {"1": 4, "2": 4, "3": 4}},
}

CERTIFICATES = 11  # R2 at m=2 k=2 has eleven far offsets


class LogmFarPairs:
    """Far-pair exclusion on the head-indexed family, level mode."""

    def setup(self):
        self.traj = construct.build_log_m(2, 3, construct.minimal_schedule(2, 3))
        self.budget = independence.SearchBudget()
        self.horizon = self.traj.block_range(3)[1]
        self.inf_horizon = self.traj.manifest.block(3).piece_starts[4] - 1

    def steps(self, rng: random.Random):
        out = [(f"far-pair j={off}", self._far_pair(off))
               for off in checks.far_offsets(self.traj.m)]
        rng.shuffle(out)
        return out

    def _far_pair(self, off):
        def run():
            horizon = self.inf_horizon if off == "inf" else self.horizon
            report = checks.verify_far_pair_exclusion(
                self.traj, offsets=(off,), cap=5, horizon=horizon,
                mode="level", budget=self.budget)
            want = f"j={off}: " + (FAR_INF if off == "inf" else FAR_FINITE)
            return (report.passed and report.details == [want],
                    {"details": report.details})
        return run

    def nodes(self) -> int:
        return self.budget.nodes


class DenseEvidence:
    """Section-3 checks and entropy evidence on the dense family."""

    def setup(self):
        self.traj = construct.build_log_infty(4)
        self.budget = independence.SearchBudget()
        self.horizon3 = self.traj.block_range(3)[1]

    def steps(self, rng: random.Random):
        out = [("growth", self._growth)]
        out += [(f"dense-block n={n}", self._block(n)) for n in range(1, 5)]
        out += [("evidence level4", self._evidence("level4", (4,), None)),
                ("evidence levels1-3",
                 self._evidence("levels1-3", (1, 2, 3), self.horizon3))]
        rng.shuffle(out)
        return out

    def _growth(self):
        report = checks.validate_growth(self.traj)
        return report.passed, {"details": report.details}

    def _block(self, n):
        def run():
            report = checks.verify_dense_block_independence(
                n, self.traj, budget=self.budget)
            return report.passed, {"details": report.details}
        return run

    def _evidence(self, key, levels, horizon):
        def run():
            centers = [Symbol.dense(j) for j in range(1, 6)]
            ev = entropy.h_star_lower_bound(
                self.traj, centers, 4, horizon=horizon, levels=levels,
                budget=self.budget)
            got = {"p": ev.p, "centers": [c.render() for c in ev.centers],
                   "per_level": {str(k): v for k, v in ev.per_level.items()}}
            return got == EVIDENCE[key], got
        return run

    def nodes(self) -> int:
        return self.budget.nodes


class ArtifactsReplay:
    """Write files through the CLI, then replay them."""

    def __init__(self, workdir: str):
        self.out = workdir
        self._budgets: list = []

    def setup(self):
        os.makedirs(self.out, exist_ok=True)
        # the CLI makes its own budgets; record them to read their nodes
        base = independence.SearchBudget
        budgets = self._budgets

        class RecordedBudget(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                budgets.append(self)

        for mod in (independence, cli):
            mod.SearchBudget = RecordedBudget

    def _path(self, name: str) -> str:
        return os.path.join(self.out, name)

    def steps(self, rng: random.Random):
        manifest = self._path("manifest-log-m-m3-k3.txt")
        symbols = self._path("symbols-log-m-m3-k3.txt")
        suite_manifest = self._path("manifest-log-m-2-2.txt")
        build = [("build log-m m3 k3", self._cli(
            ["build", "--family", "log-m", "--m", "3", "--kmax", "3",
             "--symbols", "1000000", "--out", self.out]))]
        replays = [("replay manifest", self._cli(
                        ["verify", "--replay", manifest], replay=True)),
                   ("replay symbols", self._cli(
                        ["verify", "--replay", symbols,
                         "--manifest", manifest], replay=True))]
        rng.shuffle(replays)
        suite = [("verify suite all", self._suite)]
        certs = [(f"replay cert-{i:02d}", self._cli(
                     ["verify", "--replay", self._path(f"cert-{i:02d}.txt"),
                      "--manifest", suite_manifest], replay=True))
                 for i in range(1, CERTIFICATES + 1)]
        rng.shuffle(certs)
        flower = [("flower p2,p3", self._cli(
            ["flower", "--petals", "p2=2,p3=3", "--out", self.out]))]
        groups = [build + replays, suite + certs, flower]
        rng.shuffle(groups)
        return [step for group in groups for step in group]

    def _cli(self, argv, replay=False):
        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            text = buf.getvalue()
            ok = code == 0 and (not replay or text.startswith("PASS "))
            return ok, {"exit": code}
        return run

    def _suite(self):
        ok, got = self._cli(["verify", "--suite", "all", "--m", "2",
                             "--kmax", "2", "--nmax", "2",
                             "--out", self.out])()
        certs = sorted(n for n in os.listdir(self.out)
                       if n.startswith("cert-") and n[5:7].isdigit())
        got["certificates"] = len(certs)
        return ok and len(certs) == CERTIFICATES, got

    def nodes(self) -> int:
        return sum(b.nodes for b in self._budgets)


def make(name: str, workdir: str):
    if name == "logm-far-pairs":
        return LogmFarPairs()
    if name == "dense-evidence":
        return DenseEvidence()
    if name == "artifacts-replay":
        return ArtifactsReplay(workdir)
    raise ValueError(f"unknown workload {name!r}")
