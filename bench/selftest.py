"""Self-test of the benchmark driver at a tiny scale.

Usage (from the root of a source checkout, about ten seconds):
    python3 bench/selftest.py

Checks that a tiny run produces every metric BENCHMARK.json names, with
tracing off and on, that its outputs pass the truth check, and that the
check flags a run whose output differs from the truth. Exits 0 on pass.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import WORKLOADS, Geometry, Workload, make_inputs  # noqa: E402

TINY_GEOMETRY = Geometry(r=4, u_hat=3, v_hat=1024, le_len=1024)
TINY = [
    Workload(
        name="tiny_one_window",
        theta=64,
        planted=6,
        planted_mult=(2, 4),
        background_hosts=500,
        duplication=2,
        geometry=TINY_GEOMETRY,
    ),
    Workload(
        name="tiny_windows",
        theta=64,
        planted=2,
        planted_mult=(2, 4),
        background_hosts=200,
        windows=3,
        geometry=TINY_GEOMETRY,
    ),
]


def _check_metrics(result: dict, expected: list[dict]) -> None:
    names = {m["name"]: m["unit"] for m in expected}
    got = result["metrics"]
    assert set(got) == set(names), f"metric names differ: {sorted(set(got) ^ set(names))}"
    for name, metric in got.items():
        assert metric["unit"] == names[name], f"{name}: unit {metric['unit']} != {names[name]}"
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name


def test_every_metric(root: str, spec: dict) -> None:
    for workload in TINY:
        for trace, expected in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result, detail = run.bench(workload, seed=7, seconds=0.5, trace=trace, root=root)
            assert result["correct"] and result["failed"] == 0, (workload.name, result, detail["errors"])
            assert result["attempted"] >= workload.windows
            assert detail["windows"] == workload.windows
            _check_metrics(result, expected)


def test_flags_wrong_output(root: str) -> None:
    workload = TINY[1]
    work = os.path.join(root, ".bench_work", f"selftest-{os.getpid()}")
    try:
        inputs = make_inputs(workload, 3)
        trace_dir = os.path.join(work, "trace")
        inputs.write(trace_dir, deal=1)
        ctx = run.Context(root=root, work=work, workload=workload, deadline=run.time.perf_counter() + 60)
        child = run.run_child(ctx, trace_dir, inputs.truth)
        assert child.exit_code == 0 and child.check.failed == 0, (child.check, ctx.log)
        report = os.path.join(work, "report.jsonl")
        shutil.copy(report, report + ".good")

        truth = dict(inputs.truth)
        dropped = sorted(truth[1])[0]
        truth[1] = truth[1] - {dropped}
        check = run.check_output(report, truth)
        assert (check.failed, check.false_alarms, check.missed) == (1, 1, 0), check

        truth = dict(inputs.truth)
        truth[2] = truth[2] | {12345}
        check = run.check_output(report, truth)
        assert (check.failed, check.false_alarms, check.missed) == (1, 0, 1), check

        with open(report + ".good") as fh:
            lines = fh.readlines()
        first_super = next(i for i, line in enumerate(lines) if '"super_point"' in line)
        with open(report, "w") as fh:
            fh.writelines(lines[:first_super] + lines[first_super + 1 :])
        check = run.check_output(report, inputs.truth)
        assert (check.failed, check.missed) == (1, 1), check

        os.remove(report)
        check = run.check_output(report, inputs.truth)
        assert check.failed == check.attempted == workload.windows, check
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run's directory is still there


def test_digest_guard() -> None:
    with open(run.DIGESTS) as fh:
        recorded = json.load(fh)
    name, seeds = next(iter(recorded.items()))
    seed = next(iter(seeds))
    run.check_digest(name, int(seed), seeds[seed])
    try:
        run.check_digest(name, int(seed), "0" * 64)
    except SystemExit:
        pass
    else:
        raise AssertionError("a changed input digest was not flagged")
    assert set(recorded) <= set(WORKLOADS)


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for name, test in (
        ("every metric", lambda: test_every_metric(root, spec)),
        ("flags wrong output", lambda: test_flags_wrong_output(root)),
        ("digest guard", test_digest_guard),
    ):
        test()
        print(f"PASS {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
