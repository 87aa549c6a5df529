import hashlib
import json

import numpy as np
import pytest

from superpoint.cli import RunConfig, _split_windows, load_config, main, parse_trace_spec
from superpoint.harness import TraceSpec, generate_trace, partition_stream
from superpoint.node import Trace, read_trace_binary, write_trace_binary


def _write(path, text):
    path.write_text(text)
    return str(path)


# -- config parsing -------------------------------------------------------------


def test_load_config_parses_keys_and_comments(tmp_path):
    path = _write(
        tmp_path / "c.conf",
        "# run parameters\n"
        "theta = 512\n"
        "l = 14,14,14  # row widths\n"
        "\n"
        "mode = read\n",
    )
    values = load_config(path)
    assert values == {"theta": "512", "l": "14,14,14", "mode": "read"}
    bad = _write(tmp_path / "bad.conf", "theta 512\n")
    with pytest.raises(ValueError, match="key = value"):
        load_config(bad)


def test_run_config_overrides_and_unknown_key(tmp_path):
    path = _write(tmp_path / "c.conf", "theta = 512\nnodes = 2\n")
    cfg = RunConfig.from_file(path, {"nodes": 5, "theta": None})
    assert cfg.theta == 512
    assert cfg.nodes == 5
    bad = _write(tmp_path / "bad.conf", "bogus_key = 1\n")
    with pytest.raises(ValueError, match="bogus_key"):
        RunConfig.from_file(bad, {})


def test_parse_trace_spec_explicit_and_random():
    spec = parse_trace_spec(
        {"planted": "10.0.0.1:2048; 77:4096", "background_hosts": "10"}
    )
    assert spec.planted == ((0x0A000001, 2048), (77, 4096))
    assert spec.background_hosts == 10

    random_spec = parse_trace_spec(
        {"planted_count": "5", "theta": "256", "seed": "3"}
    )
    assert len(random_spec.planted) == 5
    for _, card in random_spec.planted:
        assert 2 * 256 <= card <= 16 * 256
    # deterministic per seed
    again = parse_trace_spec({"planted_count": "5", "theta": "256", "seed": "3"})
    assert again.planted == random_spec.planted


# -- subcommands ------------------------------------------------------------------


GEN_SPEC = (
    "planted = 10.1.0.1:600;10.1.0.2:900\n"
    "background_hosts = 300\n"
    "theta = 256\n"
    "nodes = 3\n"
    "seed = 5\n"
)

RUN_CONF = (
    "r = 2\n"
    "l = 6,6,6,6,6,6,6,6\n"
    "s = 0,4,8,12,16,20,24,28\n"
    "u_hat = 3\n"
    "v_hat = 256\n"
    "le_len = 1024\n"
    "theta = 256\n"
    "nodes = 3\n"
    "oracle = true\n"
    "ftr_gate = 0\n"
)


ONE_NODE_DIGEST = "dce797f5ba9f1126cf2ccbd99658cd29d583301c099759a7b986272226dce827"


def test_gen_then_run_end_to_end(tmp_path, capsys):
    spec = _write(tmp_path / "trace.conf", GEN_SPEC)
    out_dir = tmp_path / "traces"
    assert main(["gen", "--spec", spec, "--out", str(out_dir)]) == 0
    files = sorted(out_dir.glob("node_*.bin"))
    assert len(files) == 3
    total = sum(len(read_trace_binary(f)[0]) for f in files)
    assert total >= 1500  # both planted hosts plus background

    conf = _write(tmp_path / "run.conf", RUN_CONF)
    report_path = tmp_path / "report.jsonl"
    rc = main(
        [
            "run",
            "--config",
            conf,
            "--trace-dir",
            str(out_dir),
            "--out",
            str(report_path),
        ]
    )
    assert rc == 0  # both planted supers found, FTR gate 0 not exceeded
    stdout = capsys.readouterr().out
    assert "2 super points" in stdout
    assert "FTR=0.00%" in stdout

    records = [json.loads(line) for line in report_path.read_text().splitlines()]
    summary = [r for r in records if r["type"] == "summary"]
    supers = [r for r in records if r["type"] == "super_point"]
    assert len(summary) == 1
    assert summary[0]["metrics"]["ftr"] == 0.0
    assert {r["address"] for r in supers} == {"10.1.0.1", "10.1.0.2"}
    assert all(r["oracle_true"] for r in supers)


def test_gen_rejects_unknown_key(tmp_path, capsys):
    # a misspelled key must not silently fall back to its default
    spec = _write(tmp_path / "trace.conf", GEN_SPEC + "backgroud_hosts = 5000\n")
    assert main(["gen", "--spec", spec, "--out", str(tmp_path / "traces")]) == 2
    assert "'backgroud_hosts'" in capsys.readouterr().err
    assert not (tmp_path / "traces").exists()


def test_gen_deterministic(tmp_path):
    spec = _write(tmp_path / "trace.conf", GEN_SPEC)
    main(["gen", "--spec", spec, "--out", str(tmp_path / "a"), "--nodes", "1"])
    main(["gen", "--spec", spec, "--out", str(tmp_path / "b"), "--nodes", "1"])
    a = (tmp_path / "a" / "node_000.bin").read_bytes()
    b = (tmp_path / "b" / "node_000.bin").read_bytes()
    assert a == b


def test_run_one_node_concatenates_trace_files(tmp_path, capsys):
    # nodes = 1 over three files scans their concatenation in sorted path
    # order; the digest was recorded from the former single_node mode
    spec = _write(tmp_path / "trace.conf", GEN_SPEC)
    out_dir = tmp_path / "traces"
    main(["gen", "--spec", spec, "--out", str(out_dir)])
    conf = _write(tmp_path / "run.conf", RUN_CONF)
    out = tmp_path / "report.jsonl"
    rc = main(
        ["run", "--config", conf, "--trace-dir", str(out_dir), "--nodes", "1",
         "--out", str(out)]
    )
    assert rc == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ONE_NODE_DIGEST


def test_run_reports_config_violation(tmp_path, capsys):
    conf = _write(
        tmp_path / "bad.conf",
        RUN_CONF.replace("s = 0,4,8,12,16,20,24,28", "s = 1,4,8,12,16,20,24,28"),
    )
    rc = main(["run", "--config", conf, "--trace-dir", str(tmp_path)])
    assert rc == 2
    assert "s[0] = 0" in capsys.readouterr().err


@pytest.mark.parametrize("window_seconds", [0, -300, 2**32])
def test_run_rejects_window_out_of_range(tmp_path, capsys, window_seconds):
    conf = _write(tmp_path / "run.conf", RUN_CONF + f"window_seconds = {window_seconds}\n")
    rc = main(["run", "--config", conf, "--trace-dir", str(tmp_path)])
    assert rc == 2
    assert "window_seconds must be in 1..2^32-1" in capsys.readouterr().err


def test_run_missing_traces(tmp_path, capsys):
    rc = main(["run", "--trace-dir", str(tmp_path / "nope")])
    assert rc == 2
    assert "no .bin or .csv" in capsys.readouterr().err


def test_run_node_count_mismatch(tmp_path, capsys):
    spec = _write(tmp_path / "trace.conf", GEN_SPEC)
    out_dir = tmp_path / "traces"
    main(["gen", "--spec", spec, "--out", str(out_dir)])
    conf = _write(tmp_path / "run.conf", RUN_CONF.replace("nodes = 3", "nodes = 2"))
    rc = main(["run", "--config", conf, "--trace-dir", str(out_dir)])
    assert rc == 2
    assert "3 trace files but nodes=2" in capsys.readouterr().err


def test_split_windows_matches_per_window_mask():
    rng = np.random.default_rng(12)
    window_seconds = 60
    traces = [
        Trace(
            rng.integers(0, 2**32, n, dtype=np.uint32),
            rng.integers(0, 2**32, n, dtype=np.uint32),
            rng.integers(0, 5 * window_seconds, n).astype(np.uint32),
        )
        for n in (400, 250)
    ]
    # a node that sees only two of the five windows, out of time order
    traces.append(Trace([7, 8], [1, 2], [250, 10]))

    windows = _split_windows(traces, window_seconds)

    # reference: one mask over every trace per window id
    ids = sorted(set(np.concatenate([t.ts // window_seconds for t in traces]).tolist()))
    assert [wid for wid, _ in windows] == ids == [0, 1, 2, 3, 4]
    for wid, per_node in windows:
        assert len(per_node) == len(traces)
        for got, trace in zip(per_node, traces):
            want = trace.take(np.flatnonzero(trace.ts // window_seconds == wid))
            for column in ("a", "b", "ts"):
                assert np.array_equal(getattr(got, column), getattr(want, column))


DENSE_SPEC = (
    "planted_count = 300\n"
    "planted_min_card = 96\n"
    "planted_max_card = 2048\n"
    "background_hosts = 20000\n"
    "theta = 128\n"
    "nodes = 3\n"
    "seed = 11\n"
)

DENSE_RUN_CONF = (
    "r = 4\n"
    "l = 10,10,10,10\n"
    "s = 0,7,14,21\n"
    "u_hat = 3\n"
    "v_hat = 256\n"
    "le_len = 256\n"
    "theta = 128\n"
    "nodes = 3\n"
    "seed = 9\n"
)


@pytest.mark.parametrize(
    "mode, digest",
    [
        ("read", "d7125699ffdbc6046a2135ae50f0c584df9dd75afc4a6219597d0a6fd91995e4"),
        ("naive_reference", "fc4b65e8740420417edfccd16185176d7d319b1795815f7eb7b042c03d9a2360"),
    ],
)
def test_run_report_golden_digest(tmp_path, capsys, mode, digest):
    # 3 nodes, ~2000 candidates, ~850 super points, ~170 of them
    # saturated: the JSONL, estimates included, must stay byte-identical
    # to the digest recorded from the per-candidate implementation
    spec = _write(tmp_path / "trace.conf", DENSE_SPEC)
    assert main(["gen", "--spec", spec, "--out", str(tmp_path / "traces")]) == 0
    conf = _write(tmp_path / "run.conf", DENSE_RUN_CONF)
    out = tmp_path / "report.jsonl"
    rc = main(
        ["run", "--config", conf, "--trace-dir", str(tmp_path / "traces"),
         "--mode", mode, "--out", str(out)]
    )
    assert rc == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


MULTI_WINDOW_RUN_CONF = RUN_CONF.replace("theta = 256", "theta = 64") + "window_seconds = 60\n"


def _write_timestamped_traces(out_dir):
    """Three node files over four 60 s windows; node 2 sees no pair in
    the last window, and the planted hosts cross theta in some windows
    only."""
    planted = ((0x0A010001, 150), (0x0A010002, 400), (0x0A010003, 1200))
    spec = TraceSpec(planted=planted, background_hosts=300, theta=64, duplication=2)
    trace = generate_trace(spec, 21)
    rng = np.random.default_rng(21)
    trace.ts = rng.integers(0, 240, len(trace)).astype(np.uint32)
    out_dir.mkdir()
    for i, part in enumerate(partition_stream(trace, 3, mode="hash_by_pair", seed=21)):
        if i == 2:
            part = part.take(np.flatnonzero(part.ts < 180))
        write_trace_binary(out_dir / f"node_{i:03d}.bin", part)


@pytest.mark.parametrize(
    "mode, digest",
    [
        ("read", "2601f7d3e3ac1e74c8e2a8cd099ddb9859d62920bba98088dc9af0d564cf54f9"),
        ("naive_reference", "ca0fb43e9c6e6a9e4fab269c7368d72c41660e58ded87842648fc3690a39295e"),
    ],
)
def test_run_multi_window_golden_digest(tmp_path, capsys, mode, digest):
    # digests recorded when each window still built fresh nodes
    _write_timestamped_traces(tmp_path / "traces")
    conf = _write(tmp_path / "run.conf", MULTI_WINDOW_RUN_CONF)
    out = tmp_path / "report.jsonl"
    rc = main(
        ["run", "--config", conf, "--trace-dir", str(tmp_path / "traces"),
         "--mode", mode, "--out", str(out)]
    )
    assert rc == 0
    capsys.readouterr()
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["window_id"] for r in records if r["type"] == "summary"] == [0, 1, 2, 3]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _three_window_run(tmp_path, tail=b""):
    """Run 3 nodes over three 60 s windows with the oracle on; `tail` is
    appended to node 1's binary file. Returns the summary records."""
    spec = TraceSpec(planted=((0x0A010001, 600),), background_hosts=100, theta=64)
    trace = generate_trace(spec, 5)
    trace.ts = (np.arange(len(trace)) % 3 * 60).astype(np.uint32)
    out_dir = tmp_path / "traces"
    out_dir.mkdir()
    for i, part in enumerate(partition_stream(trace, 3, seed=5)):
        write_trace_binary(out_dir / f"node_{i:03d}.bin", part)
    with open(out_dir / "node_001.bin", "ab") as fh:
        fh.write(tail)
    conf = _write(tmp_path / "run.conf", MULTI_WINDOW_RUN_CONF)
    out = tmp_path / "report.jsonl"
    assert main(["run", "--config", conf, "--trace-dir", str(out_dir), "--out", str(out)]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    return [r for r in records if r["type"] == "summary"]


def test_run_reports_malformed_records_once(tmp_path, capsys):
    # the count belongs to the run: the first window carries it
    summaries = _three_window_run(tmp_path, tail=b"\x01" * 5)
    assert [r["malformed_skipped"] for r in summaries] == [1, 0, 0]


def test_run_oracle_counts_each_window_once(tmp_path, capsys, monkeypatch):
    from superpoint import harness

    calls = []
    exact = harness.exact_cardinalities

    def counted(traces):
        calls.append(sum(len(t) for t in traces))
        return exact(traces)

    monkeypatch.setattr(harness, "exact_cardinalities", counted)
    summaries = _three_window_run(tmp_path)
    assert [r["metrics"]["n_true"] for r in summaries] == [1, 1, 1]
    assert calls == [r["pairs_scanned"] for r in summaries]
