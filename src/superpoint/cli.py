"""Command-line front end.

Subcommands:
  gen     build synthetic trace files from a trace-spec config
  run     execute the multi-node window protocol over trace files

Config files are plain `key = value` lines with `#` comments. Keys for
`run` (the fields of RunConfig): r, l, s, u_hat, v_hat, le_len, theta, g,
seed, nodes (1 scans the concatenation of every trace file), mode
(read | naive_reference), window_seconds, trace_dir, out, oracle,
ftr_gate. Keys for `gen`:
planted ("addr:card;addr:card", dotted-quad or integer addresses),
planted_count/planted_min_card/planted_max_card (random planting),
background_hosts, zipf_s, max_background_card, duplication, theta,
straddle, nodes, partition, weights, seed, format.
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import json
import os
import sys

import numpy as np

from .coordinator import MODE_NAIVE, MODE_READ, run_window
from .estimators import DetectorParams
from .harness import (
    TraceSpec,
    generate_trace,
    oracle_evaluate,
    partition_stream,
    true_super_points,
)
from .node import (
    ObservationNode,
    Trace,
    dotted,
    parse_dotted,
    read_trace_binary,
    read_trace_csv,
    write_trace_binary,
    write_trace_csv,
)
from .recube import RECubeConfig

def load_config(path: str) -> dict:
    """Parse a `key = value` config file."""
    values: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value, got {raw!r}")
            key, _, text = line.partition("=")
            values[key.strip()] = text.strip()
    return values


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.replace("(", "").replace(")", "").split(",") if tok.strip())


def _parse_bool(text: str) -> bool:
    return text.lower() in ("1", "true", "yes", "on")


def _parse_address(text: str) -> int:
    text = text.strip()
    if "." in text:
        return parse_dotted(text)
    return int(text, 0)


@dataclasses.dataclass
class RunConfig:
    r: int = 6
    l: tuple[int, ...] = (14, 14, 14)
    s: tuple[int, ...] = (0, 10, 20)
    u_hat: int = 5
    v_hat: int = 2**15
    le_len: int = 2**14
    theta: int = 1024
    g: int = 8
    seed: int = 1
    nodes: int = 1
    mode: str = MODE_READ
    window_seconds: int = 300
    trace_dir: str = "."
    out: str | None = None
    oracle: bool = False
    ftr_gate: float = 100.0

    @classmethod
    def from_file(cls, path: str | None, overrides: dict) -> "RunConfig":
        values = load_config(path) if path else {}
        cfg = cls()
        parsers = {
            "l": _parse_int_tuple,
            "s": _parse_int_tuple,
            "mode": str,
            "trace_dir": str,
            "out": str,
            "oracle": _parse_bool,
            "ftr_gate": float,
        }
        for key, text in values.items():
            if not hasattr(cfg, key):
                raise ValueError(f"unknown config key {key!r}")
            parser = parsers.get(key, int)
            setattr(cfg, key, parser(text))
        for key, value in overrides.items():
            if value is not None:
                setattr(cfg, key, value)
        return cfg

    def cube_config(self) -> RECubeConfig:
        return RECubeConfig(r=self.r, l=self.l, s=self.s)

    def detector_params(self) -> DetectorParams:
        return DetectorParams(
            theta=self.theta,
            le_len=self.le_len,
            u_hat=self.u_hat,
            v_hat=self.v_hat,
            g=self.g,
        )


def parse_trace_spec(values: dict) -> TraceSpec:
    planted: list[tuple[int, int]] = []
    if "planted" in values:
        for entry in values["planted"].split(";"):
            entry = entry.strip()
            if not entry:
                continue
            addr_text, _, card_text = entry.partition(":")
            planted.append((_parse_address(addr_text), int(card_text)))
    theta = int(values.get("theta", RunConfig.theta))
    if "planted_count" in values:
        count = int(values["planted_count"])
        low = int(values.get("planted_min_card", 2 * theta))
        high = int(values.get("planted_max_card", 16 * theta))
        rng = np.random.default_rng(int(values.get("seed", 1)) ^ 0x9E37)
        addresses: set[int] = set(a for a, _ in planted)
        target = len(planted) + count
        while len(planted) < target:
            addr = int(rng.integers(0, 2**32))
            if addr in addresses:
                continue
            addresses.add(addr)
            planted.append((addr, int(rng.integers(low, high + 1))))
    return TraceSpec(
        planted=tuple(planted),
        background_hosts=int(values.get("background_hosts", 0)),
        zipf_s=float(values.get("zipf_s", 1.2)),
        max_background_card=int(values.get("max_background_card", theta // 2)),
        duplication=int(values.get("duplication", 1)),
        theta=theta,
        straddle=_parse_bool(values.get("straddle", "false")),
    )


#: keys a `gen` trace-spec file may set
_GEN_KEYS = (
    "planted", "planted_count", "planted_min_card", "planted_max_card",
    "background_hosts", "zipf_s", "max_background_card", "duplication", "theta",
    "straddle", "nodes", "partition", "weights", "seed", "format",
)


def cmd_gen(args) -> int:
    values = load_config(args.spec)
    for key in values:
        if key not in _GEN_KEYS:
            raise ValueError(f"unknown trace-spec key {key!r}")
    spec = parse_trace_spec(values)
    seed = args.seed if args.seed is not None else int(values.get("seed", 1))
    n = args.nodes if args.nodes is not None else int(values.get("nodes", 1))
    mode = args.partition or values.get("partition", "round_robin")
    weights = None
    if "weights" in values:
        weights = [float(tok) for tok in values["weights"].split(",")]
    fmt = args.format or values.get("format", "bin")

    trace = generate_trace(spec, seed)
    parts = partition_stream(trace, n, mode=mode, seed=seed, weights=weights)
    os.makedirs(args.out, exist_ok=True)
    for i, part in enumerate(parts):
        if fmt == "csv":
            path = os.path.join(args.out, f"node_{i:03d}.csv")
            write_trace_csv(path, part)
        else:
            path = os.path.join(args.out, f"node_{i:03d}.bin")
            write_trace_binary(path, part)
        print(f"wrote {path} ({len(part)} pairs)")
    print(f"total pairs: {len(trace)}")
    return 0


def _load_node_traces(cfg: RunConfig) -> tuple[list[Trace], int]:
    paths = sorted(
        glob.glob(os.path.join(cfg.trace_dir, "*.bin"))
        + glob.glob(os.path.join(cfg.trace_dir, "*.csv"))
    )
    if not paths:
        raise FileNotFoundError(f"no .bin or .csv trace files in {cfg.trace_dir}")
    traces = []
    malformed = 0
    for path in paths:
        reader = read_trace_csv if path.endswith(".csv") else read_trace_binary
        trace, bad = reader(path)
        traces.append(trace)
        malformed += bad
    if len(traces) == cfg.nodes:
        return traces, malformed
    if cfg.nodes == 1:
        return [Trace.concatenate(traces)], malformed
    if len(traces) == 1:
        return partition_stream(traces[0], cfg.nodes, seed=cfg.seed), malformed
    raise ValueError(
        f"found {len(traces)} trace files but nodes={cfg.nodes}; provide one "
        "file per node, a single file to auto-partition, or nodes = 1"
    )


def _split_windows(traces: list[Trace], window_seconds: int) -> list[tuple[int, list[Trace]]]:
    """Cut each trace into tumbling windows in one pass, keeping pair order."""
    if not any(t.ts.any() for t in traces):
        return [(0, traces)]
    keys = [t.ts // window_seconds for t in traces]
    ids = np.unique(np.concatenate(keys))
    per_node = []
    for trace, key in zip(traces, keys):
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        lo = np.searchsorted(sorted_key, ids, side="left")
        hi = np.searchsorted(sorted_key, ids, side="right")
        per_node.append([trace.take(order[i:j]) for i, j in zip(lo, hi)])
    return [
        (int(wid), [parts[w] for parts in per_node]) for w, wid in enumerate(ids)
    ]


def _print_summary(report, metrics) -> None:
    n = len(report.stage1_bytes)
    s1, s2, s3 = (sum(b) for b in (report.stage1_bytes, report.stage2_bytes, report.stage3_bytes))
    print(
        f"window {report.window_id} [{report.mode}]: "
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


def cmd_run(args) -> int:
    overrides = {
        "trace_dir": args.trace_dir,
        "nodes": args.nodes,
        "theta": args.theta,
        "seed": args.seed,
        "mode": args.mode,
        "out": args.out,
        "oracle": args.oracle or None,
    }
    cfg = RunConfig.from_file(args.config, overrides)
    cube_cfg = cfg.cube_config()  # raises with the violated inequality
    params = cfg.detector_params()
    if cfg.mode not in (MODE_READ, MODE_NAIVE):
        raise ValueError(f"unknown mode {cfg.mode!r}")
    if not 1 <= cfg.window_seconds <= 0xFFFFFFFF:
        # _split_windows divides the uint32 timestamps by it
        raise ValueError(f"window_seconds must be in 1..2^32-1, got {cfg.window_seconds}")

    traces, malformed = _load_node_traces(cfg)
    nodes = [ObservationNode(i, params, cube_cfg, cfg.seed) for i in range(len(traces))]

    records = []
    worst_ftr = 0.0
    for window_id, per_node in _split_windows(traces, cfg.window_seconds):
        for node, trace in zip(nodes, per_node):
            node.reset_window(window_id)
            node.scan_window(trace)
        report = run_window(nodes, cfg.mode)
        truth_set = metrics = None
        if cfg.oracle:
            truth_set = true_super_points(per_node, cfg.theta)
            metrics = oracle_evaluate(truth_set, {sp.address for sp in report.super_points})
            if metrics is not None:
                worst_ftr = max(worst_ftr, metrics.ftr)
        _print_summary(report, metrics)
        summary = {
            "type": "summary",
            "window_id": report.window_id,
            "mode": report.mode,
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
        malformed = 0
        if metrics is not None:
            summary["metrics"] = {
                "n_true": metrics.n_true,
                "fpr": metrics.fpr,
                "fnr": metrics.fnr,
                "ftr": metrics.ftr,
            }
        records.append(summary)
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
            records.append(record)

    if cfg.out:
        with open(cfg.out, "w") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")
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
    p_gen.add_argument("--partition", choices=["round_robin", "hash_by_pair", "skewed"])
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("--format", choices=["bin", "csv"])
    p_gen.set_defaults(func=cmd_gen)

    p_run = sub.add_parser("run", help="run the window protocol over traces")
    p_run.add_argument("--config", help="run config file")
    p_run.add_argument("--trace-dir")
    p_run.add_argument("--nodes", type=int)
    p_run.add_argument("--theta", type=int)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--mode", choices=[MODE_READ, MODE_NAIVE])
    p_run.add_argument("--out", help="write line-delimited JSON report records here")
    p_run.add_argument("--oracle", action="store_true", help="score against exact truth")
    p_run.set_defaults(func=cmd_run)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
