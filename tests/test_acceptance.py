"""Acceptance gate: one test per shipping criterion.

Every test records a single pass/fail line on the result board printed at
the end of the run (see conftest). Criterion 8 is informational: it is
recorded but never fails the suite.
"""

import math
import time

import numpy as np
import pytest

from conftest import record_criterion
from oracles import (
    GOLDEN_ADDRESS,
    GOLDEN_INDEXES,
    check_golden_example,
    check_merge_algebra,
    check_theorem1_sweep,
)
from superpoint import wire
from superpoint.coordinator import expected_comms, run_window
from superpoint.estimators import DetectorParams, compute_tau, le_std_dev_hosts
from superpoint.harness import (
    TraceSpec,
    generate_trace,
    oracle_evaluate,
    partition_stream,
    true_super_points,
)
from superpoint.hashing import HashSuite
from superpoint.node import ObservationNode
from superpoint.recube import RECube, RECubeConfig, rec_merge_outer, recover_candidates

DEFAULT_CUBE = RECubeConfig(r=6, l=(14, 14, 14), s=(0, 10, 20))
SCALED_CUBE = RECubeConfig(r=4, l=(14, 14, 14), s=(0, 10, 20))
PARAMS = DetectorParams(theta=1024, le_len=2**14, u_hat=5, v_hat=2**15)


def test_criterion_1_golden_example():
    start = time.perf_counter()
    detail = check_golden_example()
    elapsed = time.perf_counter() - start
    ok = (
        detail["indexes"] == GOLDEN_INDEXES
        and detail["recovered"] == [GOLDEN_ADDRESS]
        and elapsed < 1.0
    )
    record_criterion(
        1,
        "golden recovery example",
        ok,
        f"indexes {detail['indexes']}, address {detail['recovered'][0]:#010x}, "
        f"{elapsed * 1000:.0f} ms",
    )
    assert ok


def test_criterion_2_distributed_equivalence():
    start = time.perf_counter()
    tau = compute_tau(PARAMS.theta)
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        planted = tuple(
            (int(a), int(c))
            for a, c in zip(
                rng.integers(0, 2**32, 3),
                rng.integers(2 * PARAMS.theta, 8 * PARAMS.theta, 3),
            )
        )
        spec = TraceSpec(planted=planted, background_hosts=2000, theta=PARAMS.theta)
        trace = generate_trace(spec, int(rng.integers(0, 2**31)))
        mode = ["round_robin", "hash_by_pair"][int(rng.integers(0, 2))]
        parts = partition_stream(trace, n, mode=mode, seed=int(rng.integers(0, 2**31)))
        hs = HashSuite(int(rng.integers(0, 2**63)))

        single = RECube(SCALED_CUBE)
        single.update_pairs(trace.a, trace.b, tau, hs)
        per_node = []
        for part in parts:
            cube = RECube(SCALED_CUBE)
            cube.update_pairs(part.a, part.b, tau, hs)
            per_node.append(cube)
        merged = rec_merge_outer(per_node)

        assert merged == single, "merged cube must be bit-identical"
        assert np.array_equal(recover_candidates(merged), recover_candidates(single))
        checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 100 and elapsed < 120
    record_criterion(
        2,
        "distributed equivalence",
        ok,
        f"{checked} instances bit-identical in {elapsed:.1f} s",
    )
    assert ok


def test_criterion_3_theorem1_sandwich():
    count = check_theorem1_sweep(1000, seed=42)
    ok = count == 1000
    record_criterion(
        3, "theorem-1 sandwich", ok, f"{count} instances, 0 violations"
    )
    assert ok


def test_criterion_4_le_accuracy():
    nbits, trials = 2**10, 1200
    hs = HashSuite(0x1E)
    details = []
    ok = True
    offset = 0
    for load in (0.25, 0.5, 1.0):
        k = int(load * nbits)
        hosts = offset + np.arange(trials * k, dtype=np.uint64)
        offset += trials * k
        buckets = np.sort(
            hs.le_bit_arr(hosts, nbits).reshape(trials, k), axis=1
        )
        distinct = 1 + np.count_nonzero(buckets[:, 1:] != buckets[:, :-1], axis=1)
        est = -nbits * np.log((nbits - distinct) / nbits)
        sd = le_std_dev_hosts(load, nbits)
        mean_err = abs(est.mean() - k)
        mean_ok = mean_err <= 3 * sd / math.sqrt(trials)
        std_ok = abs(est.std() / sd - 1.0) <= 0.15
        ok = ok and mean_ok and std_ok
        details.append(
            f"L={load}: mean err {mean_err:.2f} hosts "
            f"(limit {3 * sd / math.sqrt(trials):.2f}), "
            f"std {est.std():.1f} vs analytic {sd:.1f}"
        )
    record_criterion(4, "LE accuracy", ok, "; ".join(details))
    assert ok


@pytest.fixture(scope="session")
def detection_runs():
    """Twenty seeded 3-node detection runs at default params, cube r=4."""
    results = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        planted = tuple(
            (int(a), int(c))
            for a, c in zip(
                rng.integers(0, 2**32, 20),
                rng.integers(2 * PARAMS.theta, 16 * PARAMS.theta + 1, 20),
            )
        )
        spec = TraceSpec(
            planted=planted,
            background_hosts=50_000,
            max_background_card=PARAMS.theta // 2,
            theta=PARAMS.theta,
        )
        trace = generate_trace(spec, seed)
        parts = partition_stream(trace, 3, seed=seed)
        nodes = []
        for i, part in enumerate(parts):
            node = ObservationNode(i, PARAMS, SCALED_CUBE, master_seed=9000 + seed)
            node.reset_window(0)
            node.scan_window(part)
            nodes.append(node)
        report = run_window(nodes)
        metrics = oracle_evaluate(
            true_super_points(parts, PARAMS.theta), {e.address for e in report.super_points}
        )
        results.append(
            {
                "metrics": metrics,
                "w": report.candidates_count,
                "stage3_bytes": list(report.stage3_bytes),
                "fraction_scaled": report.transmitted_fraction,
                "pairs": report.pairs_scanned,
            }
        )
        del nodes, report, parts, trace
    return results


def test_criterion_5_detection_quality(detection_runs):
    fnr = float(np.mean([r["metrics"].fnr for r in detection_runs]))
    fpr = float(np.mean([r["metrics"].fpr for r in detection_runs]))
    ok = fnr == 0.0 and fpr <= 10.0
    record_criterion(
        5,
        "detection quality",
        ok,
        f"20 seeds x 20 planted: FNR {fnr:.2f}%, FPR {fpr:.2f}% "
        f"(w {min(r['w'] for r in detection_runs)}-"
        f"{max(r['w'] for r in detection_runs)})",
    )
    assert ok


def test_criterion_6_communication_fraction(detection_runs):
    le_len = PARAMS.le_len
    bytes_ok = all(
        b == (32 * r["w"] + le_len * r["w"]) // 8 + wire.stage3_header_len()
        for r in detection_runs
        for b in r["stage3_bytes"]
    )
    w_max = max(r["w"] for r in detection_runs)
    projected = expected_comms(DEFAULT_CUBE, PARAMS, w_max)
    fraction_ok = projected["fraction"] < 0.0321
    measured_ok = all(r["fraction_scaled"] < 0.0321 for r in detection_runs)
    ok = bytes_ok and fraction_ok and measured_ok
    record_criterion(
        6,
        "communication fraction",
        ok,
        f"stage-3 bytes exact for all runs; worst w={w_max} -> "
        f"{100 * projected['fraction']:.3f}% of master structures at the "
        f"default geometry (< 3.21%)",
    )
    assert ok


def test_criterion_7_merge_algebra():
    cases = check_merge_algebra(10_000, seed=7)
    ok = cases == 10_000
    record_criterion(7, "merge algebra", ok, f"{cases} cases, 0 violations")
    assert ok


def test_criterion_8_throughput_informational():
    rng = np.random.default_rng(88)
    n = 1_000_000
    trace_a = rng.integers(0, 2**32, n, dtype=np.uint32)
    trace_b = rng.integers(0, 2**32, n, dtype=np.uint32)
    node = ObservationNode(0, PARAMS, SCALED_CUBE, master_seed=5)
    node.reset_window(0)
    from superpoint.node import Trace

    start = time.perf_counter()
    node.scan_window(Trace(trace_a, trace_b))
    elapsed = time.perf_counter() - start
    rate = n / elapsed
    ok = rate >= 5e6
    record_criterion(
        8,
        "throughput (informational, non-blocking)",
        ok,
        f"{rate / 1e6:.2f}M pairs/s single node "
        f"(target 5M; vectorized interpreter path, see decisions ledger)",
    )
    # informational: never fails the suite
