"""Run `superpoint` in this process with timers around named functions.

Usage:
    python3 bench/child.py --timings OUT.json [--spans] -- run --config ...

The arguments after `--` go unchanged to `superpoint.cli.main`, the
function behind the `superpoint` console script. The run always times
each `run_window` call the CLI makes (the report latency of a window).
With `--spans`, every public function of the cli, node, hashing, recube,
learray, wire and coordinator modules is also wrapped at the name its
caller looks up, and one span (name, start, end, parent, extra) per call
is kept in memory. Timings and spans are written to OUT.json when the
CLI returns; the exit code is the CLI's.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import numpy as np

_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)

#: cells with at least this many set bits are candidate cells
_CANDIDATE_BITS = 3


class Tracer:
    """In-memory span recorder; spans nest because the CLI is one thread."""

    def __init__(self):
        self.ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.stack: list[int] = []

    def _open(self, name: str) -> list:
        nid = self.ids.setdefault(name, len(self.ids))
        parent = self.stack[-1] if self.stack else -1
        span = [nid, 0.0, 0.0, parent, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def wrap(self, name: str, fn, count=None, probe=None, rusage=False):
        """Return fn wrapped in a span.

        The span's extra value is count(args, result), or with rusage the
        [minor page faults, kernel seconds] taken during the call; on a
        fresh buffer both are mostly first-touch cost. probe(args) runs just
        before the call, in a sibling span named `trace.probe` so that its
        cost is taken out of every enclosing self time; its value is
        stored as [probe value, extra].
        """

        def wrapper(*args, **kwargs):
            if probe is not None:
                span = self._open("trace.probe")
                span[1] = time.perf_counter()
                probed = probe(args)
                span[2] = time.perf_counter()
                self.stack.pop()
            span = self._open(name)
            before = resource.getrusage(resource.RUSAGE_SELF) if rusage else None
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if rusage:
                after = resource.getrusage(resource.RUSAGE_SELF)
                span[4] = [after.ru_minflt - before.ru_minflt, after.ru_stime - before.ru_stime]
            elif count is not None:
                span[4] = count(args, result)
            if probe is not None:
                span[4] = [probed, span[4]]
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def patch(self, owner, attr: str, name: str, **options) -> None:
        """Replace owner.attr by its wrapped form, if the attribute exists."""
        if attr not in vars(owner):
            return
        raw = vars(owner)[attr]
        fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
        wrapped = self.wrap(name, fn, **options)
        if isinstance(raw, (staticmethod, classmethod)):
            wrapped = type(raw)(wrapped)
        setattr(owner, attr, wrapped)

    def dump(self) -> dict:
        return {"names": list(self.ids), "spans": self.spans}


def _cell_fraction(args) -> list[float]:
    """Share of candidate (>= 3-bit) cells in each row of the merged cube."""
    return [float((_POPCOUNT[row] >= _CANDIDATE_BITS).mean()) for row in args[0].rows]


def install(tracer: Tracer) -> None:
    """Wrap the public functions of the detector at their lookup sites.

    Scalar per-item helpers (hashing.mix64, HashSuite.col, node.dotted)
    stay unwrapped: a span per address would cost more than the work, so
    their time shows in the caller's self time. So do the cube and grid
    copy and byte-conversion methods, which only the merges and the wire
    codecs call: their time belongs to those layers.
    """
    from superpoint import cli, coordinator, hashing, learray, node, recube, wire

    size_of_result = lambda args, result: len(result)  # noqa: E731
    for attr, name in (
        ("cmd_run", "cli.cmd_run"),
        ("run_window", "coordinator.run_window"),
        ("read_trace_binary", "node.read_trace_binary"),
        ("read_trace_csv", "node.read_trace_csv"),
        ("partition_stream", "harness.partition_stream"),
        ("oracle_evaluate", "harness.oracle_evaluate"),
        ("true_super_points", "harness.true_super_points"),
    ):
        tracer.patch(cli, attr, name)
    for attr in ("reset_window", "scan_window", "stage1_payload", "stage3_payload",
                 "fingerprint", "master_structure_bytes"):
        tracer.patch(node.ObservationNode, attr, f"node.{attr}")
    for attr in ("take", "concatenate"):
        tracer.patch(node.Trace, attr, f"node.Trace.{attr}")

    tracer.patch(hashing, "mix64_arr", "hashing.mix64_arr",
                 count=lambda args, result: int(np.size(args[0])))
    for attr in ("rand32_arr", "re_bit_arr", "le_bit_arr", "col_arr"):
        tracer.patch(hashing.HashSuite, attr, f"hashing.{attr}")
    if "scatter_or" in vars(hashing):
        scatter = tracer.wrap("hashing.scatter_or", hashing.scatter_or)
        for module in (hashing, recube, learray):
            if "scatter_or" in vars(module):
                module.scatter_or = scatter

    tracer.patch(recube.RECube, "update_pairs", "recube.update_pairs", rusage=True)
    for attr in ("derive_indices_arr", "reconstruct_left_part"):
        tracer.patch(recube, attr, f"recube.{attr}")
    tracer.patch(coordinator, "rec_merge_outer", "recube.rec_merge_outer")
    tracer.patch(coordinator, "recover_candidates", "recube.recover_candidates",
                 count=size_of_result, probe=_cell_fraction)

    tracer.patch(learray.LEArray, "update_pairs", "learray.update_pairs", rusage=True)
    tracer.patch(learray.LEArray, "extract_candidate", "learray.extract_candidate")
    for attr in ("outer_merge_les", "estimate_candidates", "lea_merge_outer"):
        tracer.patch(coordinator, attr, f"learray.{attr}")

    for attr in ("encode_stage1", "encode_stage2", "encode_stage3"):
        tracer.patch(wire, attr, f"wire.{attr}", count=size_of_result)
    for attr in ("decode_stage1", "decode_stage2", "decode_stage3"):
        tracer.patch(wire, attr, f"wire.{attr}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--timings", required=True)
    parser.add_argument("--spans", action="store_true")
    parser.add_argument("--src", required=True, help="directory the package must load from")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    from superpoint import cli

    expected = os.path.realpath(os.path.join(args.src, "superpoint"))
    if os.path.dirname(os.path.realpath(cli.__file__)) != expected:
        print(f"error: superpoint loaded from {cli.__file__}, not {expected}", file=sys.stderr)
        return 3

    tracer = Tracer() if args.spans else None
    if tracer is not None:
        install(tracer)
    latencies: list[float] = []
    run_window = cli.run_window

    def timed_run_window(*call_args, **kwargs):
        start = time.perf_counter()
        report = run_window(*call_args, **kwargs)
        latencies.append(time.perf_counter() - start)
        return report

    cli.run_window = timed_run_window
    code = cli.main(cli_args)
    out = {"run_window_s": latencies}
    if tracer is not None:
        out.update(tracer.dump())
    with open(args.timings, "w") as fh:
        json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
