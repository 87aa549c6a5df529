import argparse
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from collections import deque
from pathlib import Path

import numpy as np
import pytest

import superpoint
from superpoint import cli, node, parallel
from superpoint.cli import (
    GenConfig,
    RunConfig,
    main,
    read_config,
)
from superpoint.estimators import DetectorParams
from superpoint.harness import TraceSpec, generate_trace, partition_stream
from superpoint.node import (
    Trace,
    read_trace,
    window_pairs,
    window_spans,
    write_trace_binary,
    write_trace_csv,
)
from superpoint.recube import RECubeConfig


def _write(path, text):
    path.write_text(text)
    return str(path)


# -- config parsing -------------------------------------------------------------


NO_FLAGS = argparse.Namespace()


def test_load_config_parses_keys_and_comments(tmp_path):
    path = _write(
        tmp_path / "c.conf",
        "# run parameters\n"
        "theta = 512\n"
        "l = 14,14,14  # row widths\n"
        "\n"
        "oracle = true\n",
    )
    cfg = read_config(RunConfig, path, NO_FLAGS)
    assert cfg == RunConfig(theta=512, l=(14, 14, 14), oracle=True)
    bad = _write(tmp_path / "bad.conf", "theta 512\n")
    with pytest.raises(ValueError, match="key = value"):
        read_config(RunConfig, bad, NO_FLAGS)


def _gen_config(tmp_path, text: str) -> GenConfig:
    return read_config(GenConfig, _write(tmp_path / "g.conf", text), NO_FLAGS)


def test_run_config_overrides_and_unknown_key(tmp_path):
    path = _write(tmp_path / "c.conf", "theta = 512\nnodes = 2\n")
    cfg = read_config(RunConfig, path, argparse.Namespace(nodes=5, theta=None))
    assert cfg.theta == 512
    assert cfg.nodes == 5
    # mode and g were keys once: the naive protocol and the cube cell width;
    # PARSERS and __class__ are attributes of RunConfig, not fields
    for key in ("bogus_key", "mode", "g", "PARSERS", "__class__"):
        bad = _write(tmp_path / "bad.conf", f"{key} = 1\n")
        with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
            read_config(RunConfig, bad, NO_FLAGS)
    bad = _write(tmp_path / "bad.conf", "nodes = abc\n")
    with pytest.raises(ValueError, match="config key 'nodes': invalid literal"):
        read_config(RunConfig, bad, NO_FLAGS)


def test_run_config_booleans_are_strict(tmp_path, capsys):
    for text, want in (("ON", True), ("yes", True), ("1", True), ("No", False), ("off", False)):
        path = _write(tmp_path / "c.conf", f"oracle = {text}\n")
        assert read_config(RunConfig, path, NO_FLAGS).oracle is want
    # a misspelled boolean must not silently read as false
    conf = _write(tmp_path / "run.conf", RUN_CONF.replace("oracle = true", "oracle = ture"))
    assert main(["run", "--config", conf, "--trace-dir", str(tmp_path)]) == 2
    assert "config key 'oracle'" in capsys.readouterr().err
    # gen has no boolean key: straddle, its one boolean, gave way to an
    # explicit max_background_card, used as given above theta/2
    spec = _write(tmp_path / "trace.conf", GEN_SPEC + "straddle = true\n")
    assert main(["gen", "--spec", spec, "--out", str(tmp_path / "traces")]) == 2
    assert "error: unknown config key 'straddle'" in capsys.readouterr().err
    assert _gen_config(tmp_path, "theta = 100\n").trace_spec().background_cap == 50
    cfg = _gen_config(tmp_path, "theta = 100\nmax_background_card = 512\n")
    assert cfg.trace_spec().background_cap == 512


def test_parse_trace_spec_explicit_and_random(tmp_path):
    spec = _gen_config(
        tmp_path, "planted = 10.0.0.1:2048; 77:4096\nbackground_hosts = 10\n"
    ).trace_spec()
    assert spec.planted == ((0x0A000001, 2048), (77, 4096))
    assert spec.background_hosts == 10

    random_spec = _gen_config(tmp_path, "planted_count = 5\ntheta = 256\nseed = 3\n").trace_spec()
    assert len(random_spec.planted) == 5
    for _, card in random_spec.planted:
        assert 2 * 256 <= card <= 16 * 256
    # deterministic per seed
    again = _gen_config(tmp_path, "planted_count = 5\ntheta = 256\nseed = 3\n").trace_spec()
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
    assert "error: unknown config key 'backgroud_hosts'" in capsys.readouterr().err
    assert not (tmp_path / "traces").exists()


def _no_generation(*args):
    raise AssertionError("generate_trace ran on a config that should have been refused")


@pytest.mark.parametrize(
    "extra, out, fragment",
    [
        pytest.param("", "file", "File exists", id="out-is-a-file"),
        pytest.param("planted = 1.2.3.999:100\n", "traces", "not a dotted-quad address: '1.2.3.999'", id="bad-address"),
        pytest.param("partition = skewd\n", "traces", "config key 'partition': 'skewd'", id="partition-unknown"),
        pytest.param("partition = skewed\nweights = 0.5,0.5\n", "traces", "config key 'weights'", id="weights-too-few"),
        pytest.param("partition = skewed\nweights = 0.5,0.3,0.1\n", "traces", "config key 'weights'", id="weights-sum"),
        pytest.param("partition = skewed\n", "traces", "config key 'weights'", id="weights-missing"),
        pytest.param("nodes = 0\n", "traces", "config key 'nodes': must be >= 1", id="nodes-zero"),
        pytest.param("duplication = 0\n", "traces", "config key 'duplication'", id="duplication-zero"),
    ],
)
def test_gen_reports_bad_input_without_traceback(tmp_path, capsys, monkeypatch, extra, out, fragment):
    # the whole config is checked before any trace is made or --out created
    monkeypatch.setattr(cli, "generate_trace", _no_generation)
    spec = _write(tmp_path / "trace.conf", GEN_SPEC + extra)
    (tmp_path / "file").write_text("")
    assert main(["gen", "--spec", spec, "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err
    assert not (tmp_path / "traces").exists()


def test_gen_refuses_an_out_that_holds_trace_files(tmp_path, capsys, monkeypatch):
    spec = _write(tmp_path / "trace.conf", GEN_SPEC)
    out = tmp_path / "traces"
    assert main(["gen", "--spec", spec, "--out", str(out)]) == 0
    written = {path.name: path.read_bytes() for path in out.iterdir()}
    assert len(written) == 3
    # run reads every trace file of its directory: two nodes' files would
    # leave node_002.bin to be scanned with them, and a CSV copy beside
    # the binary files would double every pair; nothing is deleted
    monkeypatch.setattr(cli, "generate_trace", _no_generation)
    for flags in (["--nodes", "2"], ["--format", "csv"], []):
        assert main(["gen", "--spec", spec, "--out", str(out), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out / "node_000.bin") in err
    assert {path.name: path.read_bytes() for path in out.iterdir()} == written
    # a CSV file counts too; other files do not
    (tmp_path / "csv").mkdir()
    (tmp_path / "csv" / "mine.csv").write_text("1.2.3.4,5.6.7.8\n")
    assert main(["gen", "--spec", spec, "--out", str(tmp_path / "csv")]) == 2
    assert "mine.csv" in capsys.readouterr().err
    monkeypatch.undo()
    (tmp_path / "notes").mkdir()
    (tmp_path / "notes" / "README.txt").write_text("mine\n")
    assert main(["gen", "--spec", spec, "--out", str(tmp_path / "notes")]) == 0
    assert sorted(path.name for path in (tmp_path / "notes").iterdir()) == [
        "README.txt", "node_000.bin", "node_001.bin", "node_002.bin"
    ]


def test_configs_are_frozen_and_checked_when_made(tmp_path):
    gen = _gen_config(tmp_path, "planted_count = 2\ntheta = 64\n")
    run = read_config(RunConfig, None, NO_FLAGS)
    for cfg, key in ((gen, "nodes"), (run, "theta")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, key, 3)
    # a gen config is its trace spec: its planted hosts are drawn once
    spec = gen.trace_spec()
    assert isinstance(spec, TraceSpec) and len(spec.planted) == 2
    assert spec.trace_spec() == spec
    assert spec.background_cap == 32
    with pytest.raises(ValueError, match="config key 'nodes'"):
        GenConfig(nodes=0)
    with pytest.raises(ValueError, match="window_seconds must be in"):
        RunConfig(window_seconds=0)


@pytest.mark.parametrize(
    "line",
    [
        "background_hosts = abc",
        "planted = 10.1.0.1:abc",
        "nodes = x",
        "weights = 0.5,x",
        # weights that only a skewed partition would read
        pytest.param("weights = 0.9,0.3", id="weights-without-skewed"),
        "seed = 1.5",
        "zipf_s = steep",
        "planted_count = many",
        pytest.param("seed = -1", id="seed-negative"),
        # inet_aton reads these as 8.1.0.1 (octal), 10.0.0.1 and 10.1.0.1
        pytest.param("planted = 010.1.0.1:600", id="planted-leading-zero"),
        pytest.param("planted = 10.1:600", id="planted-two-parts"),
        pytest.param("planted = 10.1.0.1 junk:600", id="planted-trailing-text"),
        # above the default planted_max_card, 16 * theta = 4096
        "planted_min_card = 5000\nplanted_count = 1",
        pytest.param("planted_count = -3", id="planted_count-negative"),
        # a draw of 0 would fail as a cardinality error, rarely and unnamed
        pytest.param("planted_min_card = 0\nplanted_count = 1", id="planted_min_card-zero"),
    ],
    ids=lambda line: line.split(" =")[0],
)
def test_gen_names_the_key_of_a_value_that_does_not_parse(tmp_path, capsys, line):
    spec = _write(tmp_path / "trace.conf", GEN_SPEC + line + "\n")
    assert main(["gen", "--spec", spec, "--out", str(tmp_path / "traces")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config key '{line.split(' =')[0]}': ")
    assert not (tmp_path / "traces").exists()


def test_gen_names_the_key_of_a_negative_seed_flag(tmp_path, capsys):
    spec = _write(tmp_path / "trace.conf", GEN_SPEC)
    assert main(["gen", "--spec", spec, "--out", str(tmp_path / "traces"), "--seed", "-1"]) == 2
    assert capsys.readouterr().err.startswith("error: config key 'seed': ")
    assert not (tmp_path / "traces").exists()


def test_gen_rejects_unknown_format(tmp_path, capsys):
    spec = _write(tmp_path / "trace.conf", GEN_SPEC + "format = CSV\n")
    assert main(["gen", "--spec", spec, "--out", str(tmp_path / "traces")]) == 2
    assert "error: config key 'format': must be bin or csv, got 'CSV'" in capsys.readouterr().err
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


def test_run_rejects_an_le_len_the_wire_cannot_carry(tmp_path, capsys):
    # a stage-3 header's le_len field is a u32; a grid of one 2^32-bit
    # estimator would be allocated, and its header would fail to pack
    write_trace_binary(tmp_path / "t.bin", Trace([], []))
    conf = _write(tmp_path / "run.conf", "u_hat = 1\nv_hat = 1\nle_len = 4294967296\n")
    rc = main(["run", "--config", conf, "--trace-dir", str(tmp_path)])
    assert rc == 2
    assert "le_len must be at most 2^31 bits" in capsys.readouterr().err


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


DENSE_DIGESTS = {
    "read": "d7125699ffdbc6046a2135ae50f0c584df9dd75afc4a6219597d0a6fd91995e4",
    "nodes1": "ea1a5554aab212e038ad3b13a7a46147a45d2a005bf454b73cc6cf30249de99b",
}


@pytest.mark.parametrize(
    "name, digest",
    [pytest.param(name, digest, id=f"{name}-{digest}") for name, digest in DENSE_DIGESTS.items()],
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

#: GEN_SPEC with ten times the background, run at the default geometry:
#: every node seals its grid's log at the window end, whatever the batch
#: size (three nodes with light columns only, one node over the three files
#: with two promoted columns a row)
SPARSE_SPEC = GEN_SPEC.replace("background_hosts = 300", "background_hosts = 3000")
SPARSE_RUN_CONF = "theta = 256\nnodes = 3\n"
#: recorded with the dense grid of every earlier version
SPARSE_DIGESTS = {
    "read": "8401c541fc334d7b58be7d0a2870b950274fb66c9d550f65d0121f67dcc47de1",
    "nodes1": "c339d4b7ea59835793e19f539dfb5710963002a4be519ef6c43e4f4dfb3ea1cf",
}


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
    # four windows over unordered files, read in chunks of 7 records'
    # bytes: the window passes read binary copies, and a line carried over
    # to the next chunk is parsed there only, so every CSV byte is parsed
    # once, in file order
    parsed = []
    parse = node._parse_csv
    monkeypatch.setattr(node, "_parse_csv", lambda lines: parse(parsed.append(lines) or lines))
    monkeypatch.setattr(node, "BATCH_RECORDS", 7)
    _write_timestamped_traces(tmp_path / "traces", "csv")
    digest = _run_digest(tmp_path, MULTI_WINDOW_RUN_CONF, tmp_path / "traces")
    capsys.readouterr()
    assert digest == MULTI_WINDOW_DIGESTS["read"]
    files = sorted((tmp_path / "traces").iterdir())
    assert b"".join(parsed) == b"".join(path.read_bytes() for path in files)


def test_run_writes_each_window_when_it_is_done(tmp_path, capsys, monkeypatch):
    # the report file holds every earlier window's records, and no more,
    # when the next window's protocol starts
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


@pytest.mark.parametrize("cpus", [1, 2, 3, 8])
def test_run_output_does_not_depend_on_thread_count(tmp_path, capsys, monkeypatch, cpus):
    # the nodes scan on min(nodes, usable CPUs) threads, the calling
    # thread one of them, so one node or one CPU starts no thread; stage 3
    # is one block in each of these runs, so it starts none. At the
    # default batch size every node is one or two batches; at 64 records
    # it is dozens, which the threads interleave.
    started = []
    real_thread = threading.Thread

    def thread(*args, **kwargs):
        assert allowed, "a thread was started"
        started.append(real_thread(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(threading, "Thread", thread)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    for name, text in (("dense", DENSE_SPEC), ("sparse", SPARSE_SPEC)):
        spec = _write(tmp_path / "trace.conf", text)
        assert main(["gen", "--spec", spec, "--out", str(tmp_path / name)]) == 0
    for fmt in ("bin", "csv"):
        _write_timestamped_traces(tmp_path / fmt, fmt)
    for batch in (node.BATCH_RECORDS, 64):
        monkeypatch.setattr(node, "BATCH_RECORDS", batch)
        for name, flags in RUN_FLAGS.items():
            allowed = name == "read" and cpus > 1
            started.clear()
            digest = _run_digest(tmp_path, DENSE_RUN_CONF, tmp_path / "dense", *flags)
            assert digest == DENSE_DIGESTS[name], batch
            for fmt in ("bin", "csv"):
                digest = _run_digest(tmp_path, MULTI_WINDOW_RUN_CONF, tmp_path / fmt, *flags)
                assert digest == MULTI_WINDOW_DIGESTS[name], (batch, fmt)
            digest = _run_digest(tmp_path, SPARSE_RUN_CONF, tmp_path / "sparse", *flags)
            assert digest == SPARSE_DIGESTS[name], batch
            # one dense window, four windows of each format and one sparse window
            assert len(started) == 10 * (min(3, cpus) - 1 if allowed else 0)
    capsys.readouterr()


def test_scan_nodes_takes_turns_and_no_node_on_two_threads(tmp_path, capsys, monkeypatch):
    # 3 nodes of 20 batches on 2 threads, round robin: no node is inside a
    # scan on two threads at once, every batch is scanned once, and both
    # threads take batches of more than one node. The sleep, which releases
    # the GIL as a scan does, makes each batch take about as long on either
    # thread.
    events = []
    scan = node.ObservationNode.scan_window

    def traced(self, trace):
        events.append((threading.get_ident(), self.node_id, int(trace.a[0]), "enter"))
        time.sleep(0.002)
        scan(self, trace)
        events.append((threading.get_ident(), self.node_id, int(trace.a[0]), "exit"))

    monkeypatch.setattr(node.ObservationNode, "scan_window", traced)
    monkeypatch.setattr(node, "BATCH_RECORDS", 64)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    trace_dir = tmp_path / "traces"
    trace_dir.mkdir()
    rng = np.random.default_rng(4)
    batches = set()
    for i in range(3):
        a, b = rng.integers(0, 2**32, (2, 20 * 64), dtype=np.uint32)
        write_trace_binary(trace_dir / f"node_{i:03d}.bin", Trace(a, b))
        batches |= {(i, int(first)) for first in a[::64]}
    _run_digest(tmp_path, DENSE_RUN_CONF, trace_dir)
    capsys.readouterr()

    inside = {}
    for ident, node_id, _, what in events:
        if what == "enter":
            assert node_id not in inside, f"node {node_id} on two threads"
            inside[node_id] = ident
        else:
            assert inside.pop(node_id) == ident
    entered = [(node_id, first) for _, node_id, first, what in events if what == "enter"]
    assert len(entered) == 60 and set(entered) == batches
    nodes_of = {}
    for ident, node_id, _, what in events:
        nodes_of.setdefault(ident, set()).add(node_id)
    assert len(nodes_of) == 2 and all(len(ids) > 1 for ids in nodes_of.values()), nodes_of


def test_scan_nodes_starts_each_node_once_per_window(monkeypatch):
    # more threads than cores and a short switch interval: a node index
    # that two threads took, or none, shows in its window list
    class Node:
        def __init__(self):
            self.windows = []

        def reset_window(self, window_id):
            self.windows.append(window_id)

        def end_window(self):
            return iter(())

    nodes = [Node() for _ in range(256)]
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 16)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for window_id in range(20):
            cli._scan_nodes(nodes, [[] for _ in nodes], {}, window_id, 300)
    finally:
        sys.setswitchinterval(interval)
    assert all(n.windows == list(range(20)) for n in nodes)


@pytest.mark.parametrize(
    "failing, late",
    [((1,), False), ((1, 2), False), ((0, 2), False), ((1, 2), True)],
    ids=["node1", "nodes1-2", "nodes0-2", "nodes1-2-late-batch"],
)
def test_run_reports_the_lowest_failing_node_and_joins_every_thread(
    tmp_path, capsys, monkeypatch, failing, late
):
    # The lowest failing node fails after the others, so its error is not
    # simply the first one; the other nodes are still scanning when it fails.
    # With `late`, nodes are many batches each and the lowest fails on its
    # tenth, long after node 2 failed on its first: only nodes below a
    # failed one scanning to their end finds it.
    scan = node.ObservationNode.scan_window
    calls = {i: 0 for i in range(3)}

    def scan_or_fail(self, trace):
        calls[self.node_id] += 1
        lowest = self.node_id == min(failing)
        if self.node_id not in failing or (late and lowest and calls[self.node_id] < 10):
            time.sleep(0.005 if late else 0.2)
            return scan(self, trace)
        time.sleep(0.1 if lowest and not late else 0)
        raise ValueError(f"node {self.node_id} cannot scan")

    monkeypatch.setattr(node.ObservationNode, "scan_window", scan_or_fail)
    if late:
        monkeypatch.setattr(node, "BATCH_RECORDS", 16)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
    run_tmp = tmp_path / "run_tmp"
    run_tmp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(run_tmp))
    # CSV traces, so that the run's temporary directory holds binary copies
    _write_timestamped_traces(tmp_path / "traces", "csv")
    conf = _write(tmp_path / "run.conf", MULTI_WINDOW_RUN_CONF)
    threads = threading.active_count()
    rc = main(["run", "--config", conf, "--trace-dir", str(tmp_path / "traces")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: node {min(failing)} cannot scan\n"
    assert threading.active_count() == threads
    assert list(run_tmp.iterdir()) == []


_NUMPY_OOM = "Unable to allocate 128. MiB for an array with shape (16777216,) and data type int64"


@pytest.mark.parametrize(
    "exc, message",
    [(MemoryError(_NUMPY_OOM), _NUMPY_OOM), (MemoryError(), "out of memory")],
    ids=["numpy", "bare"],
)
def test_run_reports_running_out_of_memory(tmp_path, capsys, monkeypatch, exc, message):
    # as when candidate recovery cannot allocate a join: one error line,
    # no traceback, and the run's binary copies are gone
    def out_of_memory(nodes):
        raise exc

    monkeypatch.setattr(cli, "run_window", out_of_memory)
    run_tmp = tmp_path / "run_tmp"
    run_tmp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(run_tmp))
    _write_timestamped_traces(tmp_path / "traces", "csv")
    conf = _write(tmp_path / "run.conf", MULTI_WINDOW_RUN_CONF)
    rc = main(["run", "--config", conf, "--trace-dir", str(tmp_path / "traces")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(run_tmp.iterdir()) == []


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


def _run_probe(script, *args):
    """Run a Python `script` with `args` in a subprocess that loads this
    checkout's superpoint."""
    src = str(Path(superpoint.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    # one BLAS thread, so an address-space cap measures the run, not the thread pool
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=300
    )


def _run_peak_rss_mb(trace_dir):
    """Peak RSS of a one-node run over the trace file in `trace_dir`."""
    # theta is high enough that no cell of the cube becomes a candidate
    conf = _write(trace_dir.parent / "run.conf", DENSE_RUN_CONF.replace("theta = 128", "theta = 1048576")
                  .replace("nodes = 3", "nodes = 1"))
    probe = _run_probe(_RSS_PROBE, "run", "--config", conf, "--trace-dir", str(trace_dir))
    code, maxrss_kb = probe.stdout.split()[-2:]
    assert code == "0", probe.stdout + probe.stderr
    return int(maxrss_kb) / 1024


def test_run_ingest_memory_does_not_grow_with_trace(tmp_path):
    # whole-file reads grew by about 130 MB from 0.75M to 3M pairs
    peak = {}
    for pairs in (750_000, 3_000_000):
        trace_dir = tmp_path / f"pairs_{pairs}"
        trace_dir.mkdir()
        a, b = np.random.default_rng(3).integers(0, 2**32, (2, pairs), dtype=np.uint32)
        write_trace_binary(trace_dir / "node_000.bin", Trace(a, b))
        del a, b
        peak[pairs] = _run_peak_rss_mb(trace_dir)
    assert peak[3_000_000] - peak[750_000] < 40, peak


def test_a_sparse_window_peaks_far_below_its_grid(tmp_path):
    # one node at the default geometry over 300k random pairs: no cell of
    # its cube becomes a candidate, so its grid seals; the run holds the
    # pairs' keys, about 20 MB here, where every window used to touch the
    # 320 MiB grid
    cfg = RunConfig()
    grid_mb = DetectorParams(theta=cfg.theta, le_len=cfg.le_len, u_hat=cfg.u_hat, v_hat=cfg.v_hat).lea_bytes / 2**20
    conf = _write(tmp_path / "run.conf", "nodes = 1\n")
    peak = {}
    for pairs in (0, 300_000):
        trace_dir = tmp_path / f"pairs_{pairs}"
        trace_dir.mkdir()
        a, b = np.random.default_rng(3).integers(0, 2**32, (2, pairs), dtype=np.uint32)
        write_trace_binary(trace_dir / "node_000.bin", Trace(a, b))
        probe = _run_probe(_RSS_PROBE, "run", "--config", conf, "--trace-dir", str(trace_dir))
        code, maxrss_kb = probe.stdout.split()[-2:]
        assert code == "0", probe.stdout + probe.stderr
        peak[pairs] = int(maxrss_kb) / 1024
    assert peak[300_000] - peak[0] < grid_mb / 8, peak


def test_a_candidate_burst_peaks_at_its_written_cells(tmp_path):
    # one node at the default geometry over 1000 sources of 400 random
    # peers each: at theta = 256 they fill the cube with candidate cells,
    # so its grid folds at the window end; a folded grid hands out a cell
    # per (row, column) its pairs set two or more bits in, here about 5000
    # of its 163840, about 10 MB, where a fold used to touch the whole 320
    # MiB grid
    cfg = RunConfig(theta=256)
    params = DetectorParams(theta=cfg.theta, le_len=cfg.le_len, u_hat=cfg.u_hat, v_hat=cfg.v_hat)
    rng = np.random.default_rng(3)
    a = np.repeat(rng.integers(0, 2**32, 1000, dtype=np.uint32), 400)
    burst = Trace(rng.permutation(a), rng.integers(0, 2**32, a.size, dtype=np.uint32))
    probe_node = node.ObservationNode(0, params, RECubeConfig(r=cfg.r, l=cfg.l, s=cfg.s), cfg.seed)
    probe_node.scan_window(burst)
    deque(probe_node.end_window(), maxlen=0)
    assert probe_node.lea.folded
    del probe_node
    conf = _write(tmp_path / "run.conf", "nodes = 1\ntheta = 256\n")
    peak = {}
    for name, trace in (("empty", Trace(a[:0], a[:0])), ("burst", burst)):
        (tmp_path / name).mkdir()
        write_trace_binary(tmp_path / name / "node_000.bin", trace)
        probe = _run_probe(_RSS_PROBE, "run", "--config", conf, "--trace-dir", str(tmp_path / name))
        code, maxrss_kb = probe.stdout.split()[-2:]
        assert code == "0", probe.stdout + probe.stderr
        peak[name] = int(maxrss_kb) / 1024
    assert peak["burst"] - peak["empty"] < params.lea_bytes / 2**20 / 8, peak


def test_run_csv_memory_does_not_grow_with_line_length(tmp_path):
    # a reader that took each line whole held a 64 MB line several times
    # over; one that reads fixed chunks drops it a chunk at a time
    a, b = np.random.default_rng(3).integers(0, 2**32, (2, 20_000), dtype=np.uint32)
    write_trace_csv(tmp_path / "canonical.csv", Trace(a, b))
    lines = (tmp_path / "canonical.csv").read_bytes()
    peak = {}
    for name, line in (("short", b""), ("long", b"1" * (64 << 20) + b"\n")):
        (tmp_path / name).mkdir()
        (tmp_path / name / "node_000.csv").write_bytes(lines + line + lines)
        peak[name] = _run_peak_rss_mb(tmp_path / name)
    assert peak["long"] - peak["short"] < 16, peak


# Counts the minor page faults of each run_window call, with as many scan
# threads as the first argument's CPUs, however many the machine has.
_FAULT_PROBE = """
import resource, sys
from superpoint import cli, parallel

faults = []
run_window = cli.run_window

def counted(nodes):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    report = run_window(nodes)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return report

cli.run_window = counted
parallel.usable_cpus = lambda: int(sys.argv[1])
print(cli.main(sys.argv[2:]), *faults)
"""


def test_run_window_does_not_page_fault_after_concurrent_scans(tmp_path):
    # run_window allocates nothing cube-sized: recovery ORs the node cubes
    # 256 KiB at a time, so where the scans ran does not matter. A merged
    # cube copy read about 1100 faults in about half the 2-thread runs
    # once the calling thread took batches of every node in turn, which
    # can trim the main heap's top; so the 2-thread run is repeated.
    # Nor do the faults grow with the traffic scanned: at 600k pairs per
    # node, a cell scan that expanded every non-zero word of the cube
    # read 360.
    conf = _write(tmp_path / "run.conf", "nodes = 3\n")  # the default geometry
    rng = np.random.default_rng(7)
    for pairs, runs in ((300_000, [3] + [2] * 5), (600_000, [3, 2])):
        trace_dir = tmp_path / f"traces_{pairs}"
        trace_dir.mkdir()
        for i in range(3):
            a, b = rng.integers(0, 2**32, (2, pairs), dtype=np.uint32)
            write_trace_binary(trace_dir / f"node_{i:03d}.bin", Trace(a, b))
        del a, b
        for cpus in runs:
            probe = _run_probe(_FAULT_PROBE, str(cpus), "run", "--config", conf, "--trace-dir", str(trace_dir))
            code, *faults = probe.stdout.splitlines()[-1].split()
            assert code == "0", probe.stdout + probe.stderr
            assert len(faults) == 1 and int(faults[0]) < 100, (pairs, cpus, faults)


# Runs `superpoint` with room for the first argument's bytes more address
# space than the process holds once the package is imported.
_ADDRESS_SPACE_PROBE = """
import resource, sys
from superpoint import cli

with open("/proc/self/status") as fh:
    size = next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmSize:"))
limit = size + int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
print(cli.main(sys.argv[2:]))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmSize from /proc")
def test_reset_window_frees_the_old_sketches_before_making_new_ones(tmp_path):
    # every run resets each node at window 0, right after its __init__
    # made the window-0 sketches: a run that holds both sets needs about
    # two sets of address space above the imported package, one that
    # frees the old set first about one, so the cap is one and a half
    cfg = RunConfig()
    params = DetectorParams(theta=cfg.theta, le_len=cfg.le_len, u_hat=cfg.u_hat, v_hat=cfg.v_hat)
    sketches = RECubeConfig(r=cfg.r, l=cfg.l, s=cfg.s).nbytes + params.lea_bytes
    trace_dir = tmp_path / "traces"
    trace_dir.mkdir()
    a, b = np.random.default_rng(5).integers(0, 2**32, (2, 1000), dtype=np.uint32)
    write_trace_binary(trace_dir / "node_000.bin", Trace(a, b))
    probe = _run_probe(_ADDRESS_SPACE_PROBE, str(sketches * 3 // 2), "run", "--trace-dir", str(trace_dir))
    assert probe.stdout.split()[-1:] == ["0"], probe.stdout + probe.stderr
