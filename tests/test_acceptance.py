"""Acceptance gate: the nine headline requirements, one test each, and
log 6 evidence on the nmax=5 build beside criterion 5.

Each test is self-contained, exact (no tolerances beyond float printing),
and prints a single PASS line via its pytest verdict. Random criteria use
fixed seeds so reruns are reproducible.
"""

import itertools
import math
import random
import subprocess
import sys
import time

from seqent.checks import (
    check_distance_uniqueness,
    check_part_structure,
    check_shiftability,
    verify_block_independence,
    verify_dense_block_independence,
    verify_far_pair_exclusion,
)
from seqent.construct import build_log_infty, build_log_m, minimal_schedule
from seqent.entropy import h_star_lower_bound
from seqent.flower import (
    PetalSystem,
    Value,
    compose,
    cross_petal_check,
    value_calculus,
)
from seqent.formats import manifest_string, replay_certificate, write_symbols
from seqent.independence import (
    is_independence_set,
    max_independence,
    shift_property_check,
)
from seqent.model import FAMILY_LOG_M, KIND_HEAD, NeighborhoodSpec, Symbol

from _oracles import (
    naive_is_independence_set,
    random_small_build,
    random_times,
    random_tuple,
)


def run_cli(*argv):
    return subprocess.run([sys.executable, "-m", "seqent", *argv],
                          capture_output=True, text=True)


def test_criterion_1_adjacent_tuple_independence(m2k3, m3k3):
    """Block times N(k) are independence sets for the adjacent tuple."""
    for m, traj in ((2, m2k3), (3, m3k3)):
        for k in (1, 2, 3):
            report = verify_block_independence(k, traj)
            block = traj.manifest.block(k)
            assert len(block.times) == k + 1
            assert report.passed, report.counterexample
            assert report.elapsed < 10.0
            res = is_independence_set(
                block.times,
                tuple(NeighborhoodSpec(Symbol.head(i), k) for i in range(m)),
                traj)
            assert res.ok
        proc = run_cli("verify", "--suite", "R1", "--m", str(m),
                       "--kmax", "3")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.count("PASS block-independence") == 3
    print("criterion 1: PASS (R1 for m=2 and m=3, k=1..3, via engine and CLI)")


def test_criterion_2_far_pair_exclusion(m2k3):
    """No length-5 independence set for any far pair at the B3 horizon."""
    start = time.monotonic()
    horizon = m2k3.block_range(3)[1]
    report = verify_far_pair_exclusion(m2k3, cap=5, horizon=horizon,
                                       mode="level")
    elapsed = time.monotonic() - start
    assert report.passed, report.counterexample
    certs = report.certificates
    assert len(certs) == 11
    for cert in certs:
        assert cert.target_length == 5
        assert cert.died_level <= 4
        assert cert.horizon == horizon
        ok, message = replay_certificate(cert, m2k3)
        assert ok, message
    assert elapsed < 300.0
    print(f"criterion 2: PASS (11 exhaustion certificates, all replayed, "
          f"{elapsed:.0f}s)")


def test_criterion_3_part_structure_and_distances(m2k3, m3k2):
    """Part structure and distance uniqueness for every piece."""
    for traj, kmax in ((m2k3, 3), (m3k2, 2)):
        m = traj.m
        for k in range(1, kmax + 1):
            for l in range(1, m ** (k + 1) + 1):
                structure = check_part_structure(k, l, traj)
                assert structure.passed, (m, k, l, structure.counterexample)
                distance = check_distance_uniqueness(k, l, traj)
                assert distance.passed, (m, k, l, distance.counterexample)
    print("criterion 3: PASS (28 pieces for m=2, 36 pieces for m=3)")


def test_criterion_4_shiftability(m2k2, m3k2):
    """Shiftable visit pairs stay in one part or split across blocks."""
    start = time.monotonic()
    for traj in (m2k2, m3k2):
        report = check_shiftability(traj, traj.block_range(2)[1])
        assert report.passed, report.counterexample
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(f"criterion 4: PASS (m=2 and m=3 at the B2 horizon, {elapsed:.0f}s)")


def test_criterion_5_dense_blocks_and_unbounded_evidence(dense4):
    """Every dense block shatters its symbol classes; five centers give
    log 5."""
    for n in range(1, 5):
        report = verify_dense_block_independence(n, dense4)
        assert report.passed, (n, report.counterexample)
        assert len(report.params["times"].split(",")) == n + 1
    centers = [Symbol.dense(j) for j in range(1, 6)]
    evidence = h_star_lower_bound(dense4, centers, cap=4)
    assert evidence.p == 5
    assert evidence.value == math.log(5)
    assert all(evidence.per_level[level] >= 4 for level in (1, 2, 3, 4))
    print(f"criterion 5: PASS (blocks 1..4 shatter; bound log 5 = "
          f"{evidence.value:.6f})")


def test_criterion_5_log_6_at_nmax_5():
    """The stretch goal beside criterion 5: on the nmax=5 build, block 5's
    times give six centers independence sets of length 3 at every level,
    so the CLI prints log 6."""
    result = run_cli("entropy", "--family", "log-infty", "--nmax", "5")
    assert result.returncode == 0, result.stderr
    assert result.stdout == (
        "h-star lower bound: log 6 = 1.791759 (centers e1,e2,e3,e4,e5,e6; "
        "level1=3 level2=3 level3=3 level4=3 level5=3; cap 3)\n")
    print("criterion 5, nmax=5: PASS (bound log 6)")


def test_criterion_6_engine_matches_oracle():
    """1,000 random small instances: bit-vector engine vs brute force."""
    rng = random.Random(60006)
    checked = 0
    while checked < 1000:
        traj = random_small_build(rng)
        horizon = min(traj.horizon, 200)
        for _ in range(10):
            specs = random_tuple(rng, traj)
            J = random_times(rng, horizon)
            fast = is_independence_set(J, specs, traj, horizon=horizon).ok
            slow = naive_is_independence_set(J, specs, traj, horizon=horizon)
            assert fast == slow, (traj.family, specs, J, fast, slow)
            checked += 1
            if checked == 1000:
                break
    print("criterion 6: PASS (1000/1000 agreements)")


def _collect_witnesses(rng, target, finite_centers_only):
    """Random (trajectory, horizon, tuple, J) with J verified independent.

    At most five witnesses come from any one build so easy tuples cannot
    flood the pool.
    """
    collected = []
    while len(collected) < target:
        traj = random_small_build(rng)
        if finite_centers_only and traj.family != FAMILY_LOG_M:
            continue
        horizon = min(traj.horizon, 200)
        found_here = 0
        for _ in range(80):
            specs = random_tuple(rng, traj)
            if finite_centers_only:
                specs = tuple(
                    s if s.center.kind == KIND_HEAD
                    else NeighborhoodSpec(
                        Symbol.head(rng.randint(-2, traj.m + 1)), s.level)
                    for s in specs)
            J = random_times(rng, horizon)
            if len(J) < 2:
                continue
            if not is_independence_set(J, specs, traj, horizon=horizon).ok:
                continue
            collected.append((traj, horizon, specs, J))
            found_here += 1
            if len(collected) == target or found_here == 5:
                break
    return collected


def test_criterion_7_monotonicity_of_witnesses():
    """500 random witnesses: subsets, sub-tuples, and the one-step
    preimage shift all re-verify."""
    rng = random.Random(70007)
    witnesses = (_collect_witnesses(rng, 250, finite_centers_only=False)
                 + _collect_witnesses(rng, 250, finite_centers_only=True))
    assert len(witnesses) == 500
    shifts = 0
    for traj, horizon, specs, J in witnesses:
        for size in range(1, len(J)):
            for sub in itertools.combinations(J, size):
                assert is_independence_set(sub, specs, traj,
                                           horizon=horizon).ok, (J, sub)
        for size in range(1, len(specs)):
            for subspecs in itertools.combinations(specs, size):
                assert is_independence_set(J, subspecs, traj,
                                           horizon=horizon).ok, (J, size)
        if (traj.family == FAMILY_LOG_M
                and all(s.center.kind == KIND_HEAD for s in specs)):
            assert shift_property_check(J, specs, traj,
                                        horizon=horizon), (specs, J)
            shifts += 1
    assert shifts >= 250
    print(f"criterion 7: PASS (500 witnesses, {shifts} preimage shifts)")


def test_criterion_8_flower_calculus(m2k2, m3k2):
    """Active petals {2,3} give log 3, separate cleanly, and an unbounded
    family gives infinity."""
    petals = [PetalSystem("p2", Value.log(2), m2k2),
              PetalSystem("p3", Value.log(3), m3k2)]
    comp = compose(petals)
    assert value_calculus(comp) == Value.log(3)
    report = cross_petal_check(comp)
    assert report.passed, report.counterexample
    assert len(report.certificates) == 2
    unbounded = compose(petals, unbounded_family=True)
    assert value_calculus(unbounded) == Value.infinity()
    print("criterion 8: PASS (log 3 composite, no cross-petal pair, "
          "unbounded family reports inf)")


def test_criterion_9_determinism(tmp_path):
    """Identical configs give identical bytes; certificates replay to
    identical frontiers."""
    for build, tag in (
            (lambda: build_log_m(2, 2, minimal_schedule(2, 2)), "m2"),
            (lambda: build_log_infty(2), "dense")):
        first, second = build(), build()
        assert manifest_string(first) == manifest_string(second)
        pa, pb = tmp_path / f"{tag}-a.txt", tmp_path / f"{tag}-b.txt"
        write_symbols(first, pa, 0, min(first.horizon, 2000))
        write_symbols(second, pb, 0, min(second.horizon, 2000))
        assert pa.read_bytes() == pb.read_bytes()
    traj = build_log_m(2, 2, minimal_schedule(2, 2))
    specs = (NeighborhoodSpec(Symbol.head(0), 1),
             NeighborhoodSpec(Symbol.head(4), 1))
    horizon = traj.block_range(2)[1]
    first = max_independence(specs, cap=4, traj=traj, horizon=horizon)
    second = max_independence(specs, cap=4, traj=traj, horizon=horizon)
    assert first.certificate is not None
    assert first.certificate.frontier_sizes == second.certificate.frontier_sizes
    ok, message = replay_certificate(first.certificate,
                                     build_log_m(2, 2, minimal_schedule(2, 2)))
    assert ok, message
    print("criterion 9: PASS (byte-identical rebuilds, frontier-identical "
          "replays)")
