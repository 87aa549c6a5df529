"""Benchmark `superpoint run` end to end, with an optional traced run.

Usage (from the root of a source checkout):
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark writes seeded trace files for the workload (see
workloads.py), then runs the real front end, `superpoint run` with the
checkout's `src` on PYTHONPATH, as one fresh child process per run,
back to back from this single thread, until S seconds have passed. It
times each child from outside, takes its peak RSS from the child's own
rusage, and after each run checks every reported super point against the
planted truth. The load is a batch job: the detector drains a recorded
trace as fast as it can. Before each timed run the seed's pairs are
dealt to the nodes afresh (see workloads.Inputs.write), and set-up probes
(the same command on an empty trace) are spread between the timed runs.

pairs_per_s is the pairs drained per second of wall time over all timed
runs, and report_latency_s the mean time per window from the end of the
scan to the report; every other metric is a median. The detail record
holds the sample count, median and high percentile of each.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
runs with traced ones (child.py --spans) and reports per-layer self
times and counts. Human-readable lines and a JSON detail record come
first; the last line of standard output is the result object.

digests.json records the sha256 of each workload's inputs for seeds
1-20; a run on a recorded seed stops with an error if its inputs differ.
`python3 bench/selftest.py` checks the driver itself at a tiny scale.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import NODES, WORKLOADS, Workload, make_inputs, write_empty_inputs  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
DIGESTS = os.path.join(HERE, "digests.json")

#: fewest timed set-up probes per run (after one untimed probe that warms caches)
SETUP_REPEATS = 5
#: a run must end within this many seconds of its start
RUN_LIMIT_S = 170.0


@dataclass
class WindowCheck:
    """Reported super points per window against the planted truth."""

    attempted: int = 0
    failed: int = 0
    missed: int = 0
    false_alarms: int = 0
    comm_bytes_per_node: float = 0.0


@dataclass
class ChildRun:
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    run_window_s: list[float]
    check: WindowCheck
    output_digest: str
    spans: dict | None = None


@dataclass
class Context:
    root: str
    work: str
    workload: Workload
    deadline: float
    log: list[str] = field(default_factory=list)


def _address(text: str) -> int:
    return struct.unpack("!I", socket.inet_aton(text))[0]


def check_output(path: str, truth: dict[int, frozenset[int]]) -> WindowCheck:
    """Score one run's JSONL report against the planted truth.

    A window fails when its summary is missing or its reported set
    differs from the planted set; a window the run reports but the
    truth does not hold also fails.
    """
    reported: dict[int, set[int]] = defaultdict(set)
    summaries: dict[int, dict] = {}
    if os.path.exists(path):
        with open(path) as fh:
            for line in fh:
                record = json.loads(line)
                wid = record["window_id"]
                if record["type"] == "summary":
                    summaries[wid] = record
                elif record["type"] == "super_point":
                    reported[wid].add(_address(record["address"]))
    check = WindowCheck()
    for wid in sorted(set(truth) | set(summaries)):
        planted = truth.get(wid, frozenset())
        found = reported.get(wid, set())
        check.attempted += 1
        check.missed += len(planted - found)
        check.false_alarms += len(found - planted)
        if wid not in summaries or wid not in truth or found != planted:
            check.failed += 1
    for summary in summaries.values():
        nodes = len(summary["stage1_bytes"])
        check.comm_bytes_per_node += (
            sum(summary["stage1_bytes"])
            + sum(summary["stage2_bytes"])
            + sum(summary["stage3_bytes"])
        ) / nodes
    return check


def _file_digest(path: str) -> str:
    if not os.path.exists(path):
        return ""
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_child(
    ctx: Context,
    trace_dir: str,
    truth: dict[int, frozenset[int]],
    spans: bool = False,
) -> ChildRun:
    """One `superpoint run` in a fresh process, timed from outside."""
    conf = os.path.join(ctx.work, "run.conf")
    out = os.path.join(ctx.work, "report.jsonl")
    timings = os.path.join(ctx.work, "timings.json")
    for stale in (out, timings):
        if os.path.exists(stale):
            os.remove(stale)
    with open(conf, "w") as fh:
        fh.write(ctx.workload.config_text())
    src = os.path.join(ctx.root, "src")
    cmd = [sys.executable, CHILD, "--timings", timings, "--src", src]
    if spans:
        cmd.append("--spans")
    cmd += ["--", "run", "--config", conf, "--trace-dir", trace_dir, "--out", out]
    env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    limit = max(1.0, ctx.deadline - time.perf_counter())

    with open(os.path.join(ctx.work, "child.log"), "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ctx.root)
        killer = threading.Timer(limit, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)

    check = check_output(out, truth)
    loaded = {}
    if proc.returncode == 0 and os.path.exists(timings):
        with open(timings) as fh:
            loaded = json.load(fh)
    else:
        with open(os.path.join(ctx.work, "child.log")) as fh:
            ctx.log.append(f"child exited {proc.returncode}: {fh.read()[-2000:]}")
        check.failed = check.attempted = max(check.attempted, len(truth))
    return ChildRun(
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        exit_code=proc.returncode,
        run_window_s=loaded.get("run_window_s", []),
        check=check,
        output_digest=_file_digest(out),
        spans=loaded if spans else None,
    )


# -- traced-run analysis ----------------------------------------------------


def span_totals(dump: dict) -> dict:
    """Self time, inclusive time, call count and extras per span name."""
    names, spans = dump["names"], dump["spans"]
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict = defaultdict(lambda: {"self_s": 0.0, "incl_s": 0.0, "calls": 0, "extras": []})
    for index, (nid, start, end, _, extra) in enumerate(spans):
        entry = totals[names[nid]]
        entry["self_s"] += end - start - child_time[index]
        entry["incl_s"] += end - start
        entry["calls"] += 1
        if extra is not None:
            entry["extras"].append(extra)
    return totals


def layer_metrics(dump: dict, truth: dict[int, frozenset[int]]) -> tuple[dict, dict]:
    """Per-layer metrics and workload-purpose shares of one traced run."""
    t = span_totals(dump)

    def self_s(name):
        return t[name]["self_s"] if name in t else 0.0

    def incl_s(name):
        return t[name]["incl_s"] if name in t else 0.0

    def calls(name):
        return float(t[name]["calls"]) if name in t else 0.0

    def extras(name):
        return t[name]["extras"] if name in t else []

    recovered = extras("recube.recover_candidates")  # [[row fractions], w] per window
    w_total = sum(w for _, w in recovered)
    planted = sum(len(v) for v in truth.values())
    cell_fractions = [float(np.mean(rows)) for rows, _ in recovered]
    metrics = {
        "node.read_trace_s": self_s("node.read_trace_binary") + self_s("node.read_trace_csv"),
        "node.reset_window_s": self_s("node.reset_window"),
        "node.scan_window_s": self_s("node.scan_window"),
        "hashing.mix64_arr_s": self_s("hashing.mix64_arr"),
        "hashing.values_hashed": float(sum(extras("hashing.mix64_arr"))),
        "hashing.scatter_or_s": self_s("hashing.scatter_or"),
        "recube.update_pairs_s": self_s("recube.update_pairs"),
        "recube.derive_indices_arr_s": self_s("recube.derive_indices_arr"),
        "learray.update_pairs_s": self_s("learray.update_pairs"),
        "learray.update_pairs_minflt": float(sum(f for f, _ in extras("learray.update_pairs"))),
        "learray.update_pairs_sys_s": sum(s for _, s in extras("learray.update_pairs")),
        "cli.cmd_run_self_s": self_s("cli.cmd_run"),
        "node.stage1_payload_s": self_s("node.stage1_payload"),
        "wire.encode_stage1_s": self_s("wire.encode_stage1"),
        "wire.decode_stage1_s": self_s("wire.decode_stage1"),
        "recube.rec_merge_outer_s": self_s("recube.rec_merge_outer"),
        "recube.recover_candidates_s": self_s("recube.recover_candidates"),
        "recube.reconstruct_left_part_s": self_s("recube.reconstruct_left_part"),
        "recube.candidates": float(w_total),
        "recube.candidate_precision": planted / w_total if w_total else 0.0,
        "recube.candidate_cell_fraction": float(np.mean(cell_fractions)) if cell_fractions else 0.0,
        "node.stage3_payload_s": self_s("node.stage3_payload"),
        "learray.extract_candidate_s": self_s("learray.extract_candidate"),
        "learray.extract_candidate_calls": calls("learray.extract_candidate"),
        "wire.encode_stage3_s": self_s("wire.encode_stage3"),
        "wire.decode_stage3_s": self_s("wire.decode_stage3"),
        "learray.outer_merge_les_s": self_s("learray.outer_merge_les"),
        "learray.estimate_candidates_s": self_s("learray.estimate_candidates"),
        "coordinator.run_window_self_s": self_s("coordinator.run_window"),
        "wire.stage1_bytes": sum(extras("wire.encode_stage1")) / NODES,
        "wire.stage2_bytes": float(sum(extras("wire.encode_stage2"))),
        "wire.stage3_bytes": sum(extras("wire.encode_stage3")) / NODES,
    }
    # Shares of the CLI's run time that show what each workload stresses.
    # First-touch kernel time is spent inside the scan spans, so the
    # shares overlap.
    total = incl_s("cli.cmd_run") or 1.0
    first_touch = sum(s for name in ("recube.update_pairs", "learray.update_pairs") for _, s in extras(name))
    per_window_fixed = first_touch + self_s("cli.cmd_run") + sum(
        incl_s(name)
        for name in (
            "node.reset_window",
            "node.stage1_payload",
            "wire.decode_stage1",
            "recube.rec_merge_outer",
            "recube.recover_candidates",
        )
    )
    shares = {
        "scan": (incl_s("node.scan_window") + metrics["node.read_trace_s"]) / total,
        "run_window": incl_s("coordinator.run_window") / total,
        "first_touch": first_touch / total,
        "per_window_fixed": per_window_fixed / total,
        "self_s": {name: entry["self_s"] for name, entry in sorted(t.items())},
    }
    return metrics, shares


# -- statistics ---------------------------------------------------------------


def summarize(samples: list[float]) -> dict:
    """Sample count, median, and the highest percentile with at least ten
    samples beyond it (none below twenty samples)."""
    values = sorted(samples)
    n = len(values)
    out = {"n": n, "median": statistics.median(values) if values else None, "p_high": None}
    if n >= 20:
        q = int(100 * (n - 10) / n)
        out["p_high"] = {"percentile": q, "value": float(np.percentile(values, q))}
    return out


def machine_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


# -- the benchmark --------------------------------------------------------


def check_digest(name: str, seed: int, digest: str) -> None:
    """Fail loudly when the inputs for a recorded seed have changed."""
    with open(DIGESTS) as fh:
        known = json.load(fh).get(name, {})
    expected = known.get(str(seed))
    if expected is not None and expected != digest:
        raise SystemExit(
            f"error: {name} seed {seed} inputs have digest {digest}, "
            f"recorded {expected}; the generator no longer makes the same inputs"
        )


def setup_probe(ctx: Context) -> float:
    """Wall time of `superpoint run` on an empty trace, same geometry."""
    empty = os.path.join(ctx.work, "empty")
    if not os.path.isdir(empty):
        write_empty_inputs(empty)
    probe = run_child(ctx, empty, {0: frozenset()})
    if probe.exit_code != 0 or probe.check.failed:
        raise SystemExit(f"error: set-up probe failed: {ctx.log[-1:] or probe.check}")
    return probe.wall_s


def bench(workload: Workload, seed: int, seconds: float, trace: bool, root: str) -> tuple[dict, dict]:
    """Run one benchmark invocation; returns (result, detail)."""
    started = time.perf_counter()
    work = os.path.join(root, ".bench_work", f"{workload.name}-{seed}-{os.getpid()}")
    ctx = Context(root=root, work=work, workload=workload, deadline=started + RUN_LIMIT_S)
    os.makedirs(work, exist_ok=True)
    try:
        inputs = make_inputs(workload, seed)
        check_digest(workload.name, seed, inputs.digest)
        trace_dir = os.path.join(work, "trace")
        inputs.write(trace_dir)

        # The first runs in a process tree are the slow ones: one set-up
        # probe and one run of the workload are checked but not timed.
        setup_probe(ctx)
        warmup = run_child(ctx, trace_dir, inputs.truth)
        setup_times: list[float] = []
        untraced: list[ChildRun] = []
        traced: list[ChildRun] = []
        t0 = time.perf_counter()
        while not untraced or time.perf_counter() - t0 < seconds:
            inputs.write(trace_dir, deal=len(untraced) + 1)
            # Set-up probes are spread over the run, so that their median
            # sees the same host as the runs it is compared with.
            if not trace:
                setup_times.append(setup_probe(ctx))
            untraced.append(run_child(ctx, trace_dir, inputs.truth))
            if trace:
                traced.append(run_child(ctx, trace_dir, inputs.truth, spans=True))
        while not trace and len(setup_times) < SETUP_REPEATS:
            setup_times.append(setup_probe(ctx))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run's directory is still there

    runs = [warmup] + untraced + traced
    ok = [r for r in untraced if r.exit_code == 0]
    if not ok or (trace and not any(r.exit_code == 0 for r in traced)):
        raise SystemExit("error: no run completed: " + " | ".join(ctx.log[-2:]))
    digests = {r.output_digest for r in runs if r.exit_code == 0}
    attempted = sum(r.check.attempted for r in runs)
    failed = sum(r.check.failed for r in runs)
    missed = sum(r.check.missed for r in runs)
    false_alarms = sum(r.check.false_alarms for r in runs)

    samples = {
        "pairs_per_s": [inputs.pairs / r.wall_s for r in ok],
        "report_latency_s": [t for r in ok for t in r.run_window_s],
        "comm_bytes_per_node": [r.check.comm_bytes_per_node for r in ok],
        "peak_rss_mb": [r.peak_rss_mb for r in ok],
    }
    if not trace:
        samples["setup_s"] = setup_times
    shares = None
    if trace:
        per_run = [layer_metrics(r.spans, inputs.truth) for r in traced if r.exit_code == 0]
        for name in per_run[0][0]:
            samples[name] = [m[name] for m, _ in per_run]
        samples["trace.overhead"] = [
            statistics.median(r.wall_s for r in traced if r.exit_code == 0)
            / statistics.median(r.wall_s for r in ok)
        ]
        shares = per_run[len(per_run) // 2][1]
    stats = {name: summarize(values) for name, values in samples.items()}
    # The host's speed drifts by a quarter and more over tens of seconds,
    # often between two levels, so a median of whole runs jumps from one
    # level to the other. The two timings users see are therefore taken
    # over the whole measured span: pairs drained per second of wall
    # time, and the mean time from scan end to report per window. The
    # medians stay in the detail record. Other metrics are medians.
    values = {name: stat["median"] for name, stat in stats.items()}
    values["pairs_per_s"] = inputs.pairs * len(ok) / sum(r.wall_s for r in ok)
    values["report_latency_s"] = statistics.fmean(samples["report_latency_s"])

    units = {
        "pairs_per_s": "pairs/s",
        "report_latency_s": "s",
        "comm_bytes_per_node": "B",
        "peak_rss_mb": "MB",
        "setup_s": "s",
    }
    if trace:
        names = [n for n in samples if n not in units]
    else:
        names = list(units)
    metrics = {
        name: {"value": values[name], "unit": units.get(name, _layer_unit(name))}
        for name in names
    }
    correct = failed == 0 and len(digests) == 1
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = {
        "workload": workload.name,
        "seed": seed,
        "pairs": inputs.pairs,
        "windows": len(inputs.truth),
        "input_digest": inputs.digest,
        "run_seconds": seconds,
        "untraced_runs": len(untraced),
        "traced_runs": len(traced),
        "outputs_identical": len(digests) == 1,
        "missed": missed,
        "false_alarms": false_alarms,
        "window_error_rate": failed / attempted,
        "elapsed_s": time.perf_counter() - started,
        **machine_info(),
        "samples": stats,
        "shares": shares,
        "errors": ctx.log,
    }
    return result, detail


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name in ("recube.candidate_precision", "recube.candidate_cell_fraction", "trace.overhead"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into an exception, so the running child
    # is killed and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "superpoint", "cli.py")):
        print(f"error: no superpoint source under {root}/src; run from a checkout root", file=sys.stderr)
        return 2
    result, detail = bench(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), root)
    for name, stat in detail["samples"].items():
        print(f"{name}: n={stat['n']} median={stat['median']} p_high={stat['p_high']}")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
