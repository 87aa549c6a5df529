"""Command-line front end.

Subcommands:
  gen     build synthetic trace files from a trace-spec config
  run     execute the multi-node window protocol over trace files

Config files are plain `key = value` lines with `#` comments. Their keys
are the fields of RunConfig for `run` (nodes: one trace file per node,
or 1 to read every file), and for `gen` those of GenConfig: a TraceSpec
and the keys that plant random hosts and split the trace into files.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import glob
import json
import os
import sys
import tempfile

import numpy as np

from .coordinator import run_window
from .estimators import DetectorParams
from .harness import (
    PARTITION_MODES,
    TraceSpec,
    check_partition,
    generate_trace,
    oracle_evaluate,
    partition_stream,
    true_super_points,
)
from .node import (
    ObservationNode,
    dotted,
    parse_dotted,
    window_pairs,
    window_spans,
    write_trace_binary,
    write_trace_csv,
)
from .parallel import run_batches
from .recube import RECubeConfig

def _parse_int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.replace("(", "").replace(")", "").split(",") if tok.strip())


def _parse_bool(text: str) -> bool:
    if text.lower() not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError(f"must be 1/true/yes/on or 0/false/no/off, got {text!r}")
    return text.lower() in ("1", "true", "yes", "on")


@dataclasses.dataclass(frozen=True)
class RunConfig:
    r: int = 6
    l: tuple[int, ...] = (14, 14, 14)
    s: tuple[int, ...] = (0, 10, 20)
    u_hat: int = 5
    v_hat: int = 2**15
    le_len: int = 2**14
    theta: int = 1024
    seed: int = 1
    nodes: int = 1
    window_seconds: int = 300
    trace_dir: str = "."
    out: str | None = None
    oracle: bool = False
    ftr_gate: float = 100.0

    PARSERS = {
        "l": _parse_int_tuple,
        "s": _parse_int_tuple,
        "trace_dir": str,
        "out": str,
        "oracle": _parse_bool,
        "ftr_gate": float,
    }

    def __post_init__(self):
        if not 1 <= self.window_seconds <= 0xFFFFFFFF:
            raise ValueError(f"window_seconds must be in 1..2^32-1, got {self.window_seconds}")


def _parse_planted(text: str) -> tuple[tuple[int, int], ...]:
    """(address, cardinality) of each "addr:card" entry of a `;` list."""
    planted = []
    for entry in text.split(";"):
        if entry.strip():
            addr_text, _, card_text = entry.strip().partition(":")
            addr = parse_dotted(addr_text.strip()) if "." in addr_text else int(addr_text, 0)
            planted.append((addr, int(card_text)))
    return tuple(planted)


@dataclasses.dataclass(frozen=True)
class GenConfig(TraceSpec):
    """A trace spec, and gen's random planting, node files, seed and format."""

    planted_count: int = 0
    planted_min_card: int | None = None  # None: 2 * theta
    planted_max_card: int | None = None  # None: 16 * theta
    nodes: int = 1
    partition: str = "round_robin"
    weights: tuple[float, ...] | None = None
    seed: int = 1
    format: str = "bin"

    PARSERS = {
        "planted": _parse_planted,
        "zipf_s": float,
        "partition": str,
        "weights": lambda text: tuple(float(tok) for tok in text.split(",")),
        "format": str,
    }

    def __post_init__(self):
        super().__post_init__()
        if self.planted_min_card is None:
            object.__setattr__(self, "planted_min_card", 2 * self.theta)
        if self.planted_max_card is None:
            object.__setattr__(self, "planted_max_card", 16 * self.theta)
        low, high = self.planted_min_card, self.planted_max_card
        if self.planted_count < 0:
            raise ValueError(f"config key 'planted_count': must be >= 0, got {self.planted_count}")
        if self.planted_count > 0 and not 1 <= low <= high:
            raise ValueError(f"config key 'planted_min_card': {low} not in 1..planted_max_card {high}")
        if self.seed < 0:
            raise ValueError(f"config key 'seed': must be >= 0, got {self.seed}")
        if self.format not in ("bin", "csv"):
            raise ValueError(f"config key 'format': must be bin or csv, got {self.format!r}")
        check_partition(self.nodes, self.partition, self.weights)

    def trace_spec(self) -> GenConfig:
        """The spec with every planted host: the explicit ones, then
        planted_count more drawn at random from the seed."""
        planted = list(self.planted)
        addresses = set(a for a, _ in planted)
        rng = np.random.default_rng(self.seed ^ 0x9E37)
        while len(planted) < len(self.planted) + self.planted_count:
            addr = int(rng.integers(0, 2**32))
            if addr in addresses:
                continue
            addresses.add(addr)
            planted.append((addr, int(rng.integers(self.planted_min_card, self.planted_max_card + 1))))
        return dataclasses.replace(self, planted=tuple(planted), planted_count=0)


def read_config(cls, path: str | None, args: argparse.Namespace):
    """A `cls` config from its defaults, then the `key = value` lines of
    the file at `path` (none when None), then every flag of `args` that is
    named for a field and given; `cls` checks it whole. Each key must be a
    field of `cls`; its value is parsed by `cls.PARSERS[key]`, or as an int."""
    fields = [field.name for field in dataclasses.fields(cls)]
    values = {}
    with open(path) if path else contextlib.nullcontext([]) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value, got {raw!r}")
            key, text = (part.strip() for part in line.split("=", 1))
            if key not in fields:
                raise ValueError(f"unknown config key {key!r}")
            try:
                values[key] = cls.PARSERS.get(key, int)(text)
            except ValueError as exc:
                raise ValueError(f"config key {key!r}: {exc}") from None
    values.update({key: getattr(args, key) for key in fields if getattr(args, key, None) is not None})
    return cls(**values)


def _trace_files(directory: str) -> list[str]:
    """The .bin and .csv files of a trace directory, sorted by path."""
    return sorted(p for ext in ("*.bin", "*.csv") for p in glob.glob(os.path.join(directory, ext)))


def cmd_gen(args) -> int:
    cfg = read_config(GenConfig, args.spec, args)
    # run reads every trace file in its directory, so an old one would join the new trace
    if existing := _trace_files(args.out):
        raise ValueError(f"--out {args.out} already holds trace files, such as {existing[0]}")
    os.makedirs(args.out, exist_ok=True)
    trace = generate_trace(cfg.trace_spec(), cfg.seed)
    parts = partition_stream(trace, cfg.nodes, mode=cfg.partition, seed=cfg.seed, weights=cfg.weights)
    write = write_trace_csv if cfg.format == "csv" else write_trace_binary
    for i, part in enumerate(parts):
        path = os.path.join(args.out, f"node_{i:03d}.{cfg.format}")
        write(path, part)
        print(f"wrote {path} ({len(part)} pairs)")
    print(f"total pairs: {len(trace)}")
    return 0


def _node_files(cfg: RunConfig) -> list[list[str]]:
    """Each node's trace files: one file each, or all of them for nodes = 1."""
    paths = _trace_files(cfg.trace_dir)
    if not paths:
        raise FileNotFoundError(f"no .bin or .csv trace files in {cfg.trace_dir}")
    if len(paths) == cfg.nodes:
        return [[path] for path in paths]
    if cfg.nodes == 1:
        return [paths]
    raise ValueError(
        f"found {len(paths)} trace files but nodes={cfg.nodes}; provide one "
        f"file per node (gen --nodes {cfg.nodes} writes them) or set nodes = 1"
    )


def _print_summary(report, metrics) -> None:
    n = len(report.stage1_bytes)
    s1, s2, s3 = (sum(b) for b in (report.stage1_bytes, report.stage2_bytes, report.stage3_bytes))
    print(
        f"window {report.window_id}: "
        f"{report.candidates_count} candidates, "
        f"{len(report.super_points)} super points"
    )
    print(
        "  comms/node: "
        f"w={report.candidates_count}  "
        f"cube={s1 // n} B  "
        f"stage2={s2 // n} B  "
        f"stage3={s3 // n} B  "
        f"total={(s1 + s2 + s3) // n} B  "
        f"fraction={100 * report.transmitted_fraction:.3f}%"
    )
    if metrics is not None:
        print(
            f"  oracle: N={metrics.n_true}  FPR={metrics.fpr:.2f}%  "
            f"FNR={metrics.fnr:.2f}%  FTR={metrics.ftr:.2f}%"
        )
    for sp in report.super_points[:20]:
        line = f"  super point {dotted(sp.address)}  estimate={sp.estimate:.1f}"
        if sp.saturated:
            line += " (saturated)"
        print(line)
    if len(report.super_points) > 20:
        print(f"  ... {len(report.super_points) - 20} more")


def _window_records(report, metrics, truth_set, malformed: int):
    """Yield one window's JSONL records: its summary, then its super points."""
    summary = {
        "type": "summary",
        "window_id": report.window_id,
        "mode": "read",  # the one protocol; the key keeps reports comparable
        "candidates_count": report.candidates_count,
        "super_points": len(report.super_points),
        "stage1_bytes": report.stage1_bytes,
        "stage2_bytes": report.stage2_bytes,
        "stage3_bytes": report.stage3_bytes,
        "master_structure_bytes": report.master_structure_bytes,
        "transmitted_fraction": report.transmitted_fraction,
        "pairs_scanned": report.pairs_scanned,
        # a count of the whole run, reported with the first window
        "malformed_skipped": malformed,
    }
    if metrics is not None:
        summary["metrics"] = {
            "n_true": metrics.n_true,
            "fpr": metrics.fpr,
            "fnr": metrics.fnr,
            "ftr": metrics.ftr,
        }
    yield summary
    for sp in report.super_points:
        record = {
            "type": "super_point",
            "window_id": report.window_id,
            "address": dotted(sp.address),
            "estimate": sp.estimate,
            "saturated": sp.saturated,
        }
        if truth_set is not None:
            record["oracle_true"] = sp.address in truth_set
        yield record


def _scan_nodes(nodes, files, spans, window_id: int, window_seconds: int) -> None:
    """Start window `window_id` at every node and fold in its records from
    the node's `window_spans` spans.

    Nodes are independent until stage 1, so they scan on the threads of
    `parallel.run_batches`, and the unit of work is one `read_trace` batch
    of one node, then one grid row of the node's window-end step: a node
    is held by one thread at a time, since its cube and grid writes are
    read-modify-write ORs, but the ORs and the pair count do not depend
    on which thread folds which batch. The threads take the nodes' steps
    round robin, so three nodes on two threads keep both busy to the last
    step, and the error of the lowest failing node id is raised after
    every thread is joined."""

    def batches(i: int):
        nodes[i].reset_window(window_id)
        for path in files[i]:
            for part in window_pairs(*spans[path], window_id, window_seconds):
                nodes[i].scan_window(part)
                yield
        yield from nodes[i].end_window()

    run_batches(len(nodes), batches)


def cmd_run(args) -> int:
    cfg = read_config(RunConfig, args.config, args)
    cube_cfg = RECubeConfig(r=cfg.r, l=cfg.l, s=cfg.s)  # raises with the violated inequality
    params = DetectorParams(theta=cfg.theta, le_len=cfg.le_len, u_hat=cfg.u_hat, v_hat=cfg.v_hat)

    files = _node_files(cfg)
    nodes = [ObservationNode(i, params, cube_cfg, cfg.seed) for i in range(len(files))]

    worst_ftr = 0.0
    with (
        tempfile.TemporaryDirectory() as tmp,
        open(cfg.out, "w") if cfg.out else contextlib.nullcontext() as out,
    ):
        spans, malformed = window_spans(sum(files, []), cfg.window_seconds, tmp)
        window_ids = sorted(set().union(*(windows for _, windows in spans.values()))) or [0]
        for window_id in window_ids:
            _scan_nodes(nodes, files, spans, window_id, cfg.window_seconds)
            report = run_window(nodes)
            truth_set = metrics = None
            if cfg.oracle:
                pairs = [
                    part
                    for path in sum(files, [])
                    for part in window_pairs(*spans[path], window_id, cfg.window_seconds)
                ]
                truth_set = true_super_points(pairs, cfg.theta)
                metrics = oracle_evaluate(truth_set, {sp.address for sp in report.super_points})
                if metrics is not None:
                    worst_ftr = max(worst_ftr, metrics.ftr)
            _print_summary(report, metrics)
            if out is not None:
                for record in _window_records(report, metrics, truth_set, malformed):
                    out.write(json.dumps(record) + "\n")
                out.flush()
            malformed = 0
    if cfg.out:
        print(f"wrote {cfg.out}")

    if cfg.oracle and worst_ftr > cfg.ftr_gate:
        print(f"FTR {worst_ftr:.2f}% exceeds gate {cfg.ftr_gate:.2f}%")
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superpoint",
        description="Distributed high-cardinality host detection over IP-pair streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate synthetic trace files")
    p_gen.add_argument("--spec", required=True, help="trace-spec config file")
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.add_argument("--nodes", type=int)
    p_gen.add_argument("--partition", choices=PARTITION_MODES)
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("--format", choices=["bin", "csv"])
    p_gen.set_defaults(func=cmd_gen)

    p_run = sub.add_parser("run", help="run the window protocol over traces")
    p_run.add_argument("--config", help="run config file")
    p_run.add_argument("--trace-dir")
    p_run.add_argument("--nodes", type=int)
    p_run.add_argument("--theta", type=int)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--out", help="write line-delimited JSON report records here")
    # default None, so that an absent flag leaves a file's `oracle = true`
    p_run.add_argument("--oracle", action="store_true", default=None, help="score against exact truth")
    p_run.set_defaults(func=cmd_run)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        # numpy's MemoryError names the allocation; a bare one says nothing
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
