import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import superpoint
from superpoint import node
from superpoint.cli import (
    RunConfig,
    load_config,
    main,
    parse_trace_spec,
)
from superpoint.harness import TraceSpec, generate_trace, partition_stream
from superpoint.node import (
    Trace,
    read_trace,
    window_pairs,
    window_spans,
    write_trace_binary,
    write_trace_csv,
)


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
        "oracle = true\n",
    )
    values = load_config(path)
    assert values == {"theta": "512", "l": "14,14,14", "oracle": "true"}
    bad = _write(tmp_path / "bad.conf", "theta 512\n")
    with pytest.raises(ValueError, match="key = value"):
        load_config(bad)


def test_run_config_overrides_and_unknown_key(tmp_path):
    path = _write(tmp_path / "c.conf", "theta = 512\nnodes = 2\n")
    cfg = RunConfig.from_file(path, {"nodes": 5, "theta": None})
    assert cfg.theta == 512
    assert cfg.nodes == 5
    # mode and g were keys once: the naive protocol and the cube cell width;
    # from_file and __class__ are attributes of RunConfig, not fields
    for key in ("bogus_key", "mode", "g", "from_file", "__class__"):
        bad = _write(tmp_path / "bad.conf", f"{key} = 1\n")
        with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
            RunConfig.from_file(bad, {})
    bad = _write(tmp_path / "bad.conf", "nodes = abc\n")
    with pytest.raises(ValueError, match="config key 'nodes': invalid literal"):
        RunConfig.from_file(bad, {})


def test_run_config_booleans_are_strict(tmp_path, capsys):
    for text, want in (("ON", True), ("yes", True), ("1", True), ("No", False), ("off", False)):
        path = _write(tmp_path / "c.conf", f"oracle = {text}\n")
        assert RunConfig.from_file(path, {}).oracle is want
    # a misspelled boolean must not silently read as false
    conf = _write(tmp_path / "run.conf", RUN_CONF.replace("oracle = true", "oracle = ture"))
    assert main(["run", "--config", conf, "--trace-dir", str(tmp_path)]) == 2
    assert "config key 'oracle'" in capsys.readouterr().err
    spec = _write(tmp_path / "trace.conf", GEN_SPEC + "straddle = ture\n")
    assert main(["gen", "--spec", spec, "--out", str(tmp_path / "traces")]) == 2
    assert "config key 'straddle'" in capsys.readouterr().err
    assert parse_trace_spec({"straddle": "TRUE"}).straddle is True


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
    total = sum(len(trace) for f in files for _, trace, _ in read_trace(f))
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


@pytest.mark.parametrize(
    "extra, out, fragment",
    [
        pytest.param("", "file", "File exists", id="out-is-a-file"),
        pytest.param("planted = 1.2.3.999:100\n", "traces", "not a dotted-quad address: '1.2.3.999'", id="bad-address"),
    ],
)
def test_gen_reports_bad_input_without_traceback(tmp_path, capsys, extra, out, fragment):
    spec = _write(tmp_path / "trace.conf", GEN_SPEC.replace("planted = 10.1.0.1:600;10.1.0.2:900\n", extra))
    (tmp_path / "file").write_text("")
    assert main(["gen", "--spec", spec, "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err


@pytest.mark.parametrize(
    "line",
    [
        "background_hosts = abc",
        "planted = 10.1.0.1:abc",
        "nodes = x",
        "weights = 0.5,x",
        "seed = 1.5",
        "zipf_s = steep",
        "planted_count = many",
    ],
    ids=lambda line: line.split(" =")[0],
)
def test_gen_names_the_key_of_a_value_that_does_not_parse(tmp_path, capsys, line):
    spec = _write(tmp_path / "trace.conf", GEN_SPEC + line + "\n")
    assert main(["gen", "--spec", spec, "--out", str(tmp_path / "traces")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config key '{line.split(' =')[0]}': ")
    assert not (tmp_path / "traces").exists()


def test_gen_rejects_unknown_format(tmp_path, capsys):
    spec = _write(tmp_path / "trace.conf", GEN_SPEC + "format = CSV\n")
    assert main(["gen", "--spec", spec, "--out", str(tmp_path / "traces")]) == 2
    assert "format must be bin or csv, got 'CSV'" in capsys.readouterr().err
    assert not (tmp_path / "traces").exists()


def test_gen_deterministic(tmp_path):
    spec = _write(tmp_path / "trace.conf", GEN_SPEC)
    main(["gen", "--spec", spec, "--out", str(tmp_path / "a"), "--nodes", "1"])
    main(["gen", "--spec", spec, "--out", str(tmp_path / "b"), "--nodes", "1"])
    a = (tmp_path / "a" / "node_000.bin").read_bytes()
    b = (tmp_path / "b" / "node_000.bin").read_bytes()
    assert a == b


def test_gen_seed_flag_also_draws_the_planted_hosts(tmp_path, capsys):
    # --seed 7 over a spec that says seed = 1 equals a spec that says seed = 7
    spec = "planted_count = 2\nbackground_hosts = 50\ntheta = 64\n"
    one = _write(tmp_path / "one.conf", spec + "seed = 1\n")
    seven = _write(tmp_path / "seven.conf", spec + "seed = 7\n")
    assert main(["gen", "--spec", one, "--out", str(tmp_path / "a"), "--seed", "7"]) == 0
    assert main(["gen", "--spec", seven, "--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    a = (tmp_path / "a" / "node_000.bin").read_bytes()
    assert a == (tmp_path / "b" / "node_000.bin").read_bytes()


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


def test_run_reports_a_geometry_too_large_to_allocate(tmp_path, capsys):
    # 5 rows of 2^40 estimators of 2 KiB: 10 PiB per node is more than any
    # address space, so the allocation fails before a page is touched
    write_trace_binary(tmp_path / "t.bin", Trace([1], [2]))
    conf = _write(tmp_path / "run.conf", "v_hat = 1099511627776\n")
    rc = main(["run", "--config", conf, "--trace-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    # the grid, then the default 3 MiB cube
    assert err.startswith(f"error: cannot allocate {5 * 2**40 * 2048 + 3 * 2**20} bytes")
    assert "u_hat=5, v_hat=1099511627776, le_len=16384" in err


def test_split_windows_matches_per_window_mask(tmp_path, monkeypatch):
    # each window's records, read from its spans in batches of 7, equal
    # one mask over the whole trace
    monkeypatch.setattr(node, "BATCH_RECORDS", 7)
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
    # the second file is CSV, read from its binary copy
    paths = [str(tmp_path / f"node_{i}.{fmt}") for i, fmt in enumerate(("bin", "csv", "bin"))]
    for path, trace in zip(paths, traces):
        (write_trace_csv if path.endswith(".csv") else write_trace_binary)(path, trace)

    spans, malformed = window_spans(paths, window_seconds, str(tmp_path))

    assert malformed == 0
    assert spans[paths[0]][0] == paths[0]
    assert spans[paths[1]][0] == str(tmp_path / "1.bin")
    assert sorted(spans[paths[2]][1]) == [0, 4]
    ids = sorted(set(np.concatenate([t.ts // window_seconds for t in traces]).tolist()))
    assert sorted(set().union(*(windows for _, windows in spans.values()))) == ids == [0, 1, 2, 3, 4]
    for wid in ids:
        for path, trace in zip(paths, traces):
            parts = [Trace([], [])] + list(window_pairs(*spans[path], wid, window_seconds))
            got = Trace.concatenate(parts)
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


#: extra `run` flags of each golden case: 3 nodes, or one node over the
#: three files, which is the OR-then-AND, single-node reference
RUN_FLAGS = {"read": [], "nodes1": ["--nodes", "1"]}


@pytest.mark.parametrize(
    "name, digest",
    [
        pytest.param(name, digest, id=f"{name}-{digest}")
        for name, digest in (
            ("read", "d7125699ffdbc6046a2135ae50f0c584df9dd75afc4a6219597d0a6fd91995e4"),
            ("nodes1", "ea1a5554aab212e038ad3b13a7a46147a45d2a005bf454b73cc6cf30249de99b"),
        )
    ],
)
def test_run_report_golden_digest(tmp_path, capsys, name, digest):
    # ~2000 candidates, ~850 super points, ~170 of them saturated: the
    # JSONL, estimates included, must stay byte-identical to the digest
    # recorded from the per-candidate implementation
    spec = _write(tmp_path / "trace.conf", DENSE_SPEC)
    assert main(["gen", "--spec", spec, "--out", str(tmp_path / "traces")]) == 0
    conf = _write(tmp_path / "run.conf", DENSE_RUN_CONF)
    out = tmp_path / "report.jsonl"
    rc = main(
        ["run", "--config", conf, "--trace-dir", str(tmp_path / "traces"),
         *RUN_FLAGS[name], "--out", str(out)]
    )
    assert rc == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


MULTI_WINDOW_RUN_CONF = RUN_CONF.replace("theta = 256", "theta = 64") + "window_seconds = 60\n"


def _write_timestamped_traces(out_dir, fmt="bin"):
    """Three node files over four 60 s windows; node 2 sees no pair in
    the last window, and the planted hosts cross theta in some windows
    only."""
    planted = ((0x0A010001, 150), (0x0A010002, 400), (0x0A010003, 1200))
    spec = TraceSpec(planted=planted, background_hosts=300, theta=64, duplication=2)
    trace = generate_trace(spec, 21)
    rng = np.random.default_rng(21)
    trace.ts = rng.integers(0, 240, len(trace)).astype(np.uint32)
    out_dir.mkdir()
    write = write_trace_csv if fmt == "csv" else write_trace_binary
    for i, part in enumerate(partition_stream(trace, 3, mode="hash_by_pair", seed=21)):
        if i == 2:
            part = part.take(np.flatnonzero(part.ts < 180))
        write(out_dir / f"node_{i:03d}.{fmt}", part)


def _run_digest(tmp_path, conf_text, trace_dir, *flags):
    """sha256 of the JSONL of one `superpoint run`."""
    conf = _write(tmp_path / "run.conf", conf_text)
    out = tmp_path / "report.jsonl"
    rc = main(["run", "--config", conf, "--trace-dir", str(trace_dir), "--out", str(out), *flags])
    assert rc == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


MULTI_WINDOW_DIGESTS = {
    "read": "2601f7d3e3ac1e74c8e2a8cd099ddb9859d62920bba98088dc9af0d564cf54f9",
    "nodes1": "3f7a4a009eb8c1e93f688eb077d3f0cda869bb2012d2c450399ccf4a4333c072",
}


@pytest.mark.parametrize(
    "name, digest, fmt",
    [
        pytest.param(name, digest, fmt, id=f"{name}-{digest}" + ("-csv" if fmt == "csv" else ""))
        for name, digest in MULTI_WINDOW_DIGESTS.items()
        for fmt in ("bin", "csv")
    ],
)
def test_run_multi_window_golden_digest(tmp_path, capsys, name, digest, fmt):
    # digests recorded when each window still built fresh nodes; the
    # timestamps are unordered, so each window's span covers most of
    # every file
    _write_timestamped_traces(tmp_path / "traces", fmt)
    assert _run_digest(tmp_path, MULTI_WINDOW_RUN_CONF, tmp_path / "traces", *RUN_FLAGS[name]) == digest
    capsys.readouterr()
    records = [json.loads(line) for line in (tmp_path / "report.jsonl").read_text().splitlines()]
    assert [r["window_id"] for r in records if r["type"] == "summary"] == [0, 1, 2, 3]


@pytest.mark.parametrize("batch", [1, 7, 2**16, 2**22])
def test_run_output_does_not_depend_on_batch_size(tmp_path, capsys, monkeypatch, batch):
    # from one record per batch to more than a whole file in one batch
    monkeypatch.setattr(node, "BATCH_RECORDS", batch)
    for fmt in ("bin", "csv"):
        _write_timestamped_traces(tmp_path / fmt, fmt)
        digest = _run_digest(tmp_path, MULTI_WINDOW_RUN_CONF, tmp_path / fmt)
        assert digest == MULTI_WINDOW_DIGESTS["read"], fmt
    spec = _write(tmp_path / "trace.conf", GEN_SPEC)
    assert main(["gen", "--spec", spec, "--out", str(tmp_path / "gen")]) == 0
    assert _run_digest(tmp_path, RUN_CONF, tmp_path / "gen", "--nodes", "1") == ONE_NODE_DIGEST
    capsys.readouterr()


def test_run_parses_each_csv_line_once(tmp_path, capsys, monkeypatch):
    # four windows over unordered files: the window passes read binary
    # copies, so no CSV line is parsed twice
    parsed = []
    parse = node._parse_csv
    monkeypatch.setattr(node, "_parse_csv", lambda lines: parse(parsed.extend(lines) or lines))
    _write_timestamped_traces(tmp_path / "traces", "csv")
    digest = _run_digest(tmp_path, MULTI_WINDOW_RUN_CONF, tmp_path / "traces")
    capsys.readouterr()
    assert digest == MULTI_WINDOW_DIGESTS["read"]
    lines = []
    for path in sorted((tmp_path / "traces").iterdir()):
        with path.open("rb") as fh:
            lines.extend(fh)
    assert sorted(parsed) == sorted(lines)


def test_run_writes_each_window_when_it_is_done(tmp_path, capsys, monkeypatch):
    # the report file holds every earlier window's records, and no more,
    # when the next window's protocol starts
    from superpoint import cli

    lines_seen = []
    run_window = cli.run_window

    def spy(nodes):
        lines_seen.append(len((tmp_path / "report.jsonl").read_text().splitlines()))
        return run_window(nodes)

    monkeypatch.setattr(cli, "run_window", spy)
    _write_timestamped_traces(tmp_path / "traces")
    _run_digest(tmp_path, MULTI_WINDOW_RUN_CONF, tmp_path / "traces")
    records = [json.loads(line) for line in (tmp_path / "report.jsonl").read_text().splitlines()]
    starts = [i for i, r in enumerate(records) if r["type"] == "summary"]
    assert len(starts) == 4
    assert lines_seen == starts
    capsys.readouterr()


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


# A small go-between process starts the run: a child's ru_maxrss also
# counts the memory of the process that spawned it, and the test process
# is large. The run inherits the address-space cap set here.
_RSS_PROBE = """
import os, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "superpoint.cli", *sys.argv[1:]], os.environ)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _run_peak_rss_mb(tmp_path, pairs):
    trace_dir = tmp_path / f"pairs_{pairs}"
    trace_dir.mkdir()
    rng = np.random.default_rng(3)
    a, b = rng.integers(0, 2**32, (2, pairs), dtype=np.uint32)
    write_trace_binary(trace_dir / "node_000.bin", Trace(a, b))
    del a, b
    # theta is high enough that no cell of the cube becomes a candidate
    conf = _write(tmp_path / "run.conf", DENSE_RUN_CONF.replace("theta = 128", "theta = 1048576")
                  .replace("nodes = 3", "nodes = 1"))
    src = str(Path(superpoint.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    # one BLAS thread, so the address-space cap measures the run, not the thread pool
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    probe = subprocess.run(
        [sys.executable, "-c", _RSS_PROBE, "run", "--config", conf, "--trace-dir", str(trace_dir)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    code, maxrss_kb = probe.stdout.split()[-2:]
    assert code == "0", probe.stdout + probe.stderr
    return int(maxrss_kb) / 1024


def test_run_ingest_memory_does_not_grow_with_trace(tmp_path):
    # whole-file reads grew by about 130 MB from 0.75M to 3M pairs
    small = _run_peak_rss_mb(tmp_path, 750_000)
    large = _run_peak_rss_mb(tmp_path, 3_000_000)
    assert large - small < 40, (small, large)
