import hashlib

import numpy as np
import pytest

from superpoint import wire
from superpoint.estimators import DetectorParams
from superpoint.node import (
    ObservationNode,
    Trace,
    dotted,
    parse_dotted,
    read_trace_binary,
    read_trace_csv,
    write_trace_binary,
    write_trace_csv,
)
from superpoint.recube import RECubeConfig

PARAMS = DetectorParams(theta=64, le_len=64, u_hat=2, v_hat=16)
CFG = RECubeConfig(r=2, l=(6,) * 8, s=(0, 4, 8, 12, 16, 20, 24, 28))


def _node(node_id=0, seed=42):
    node = ObservationNode(node_id, PARAMS, CFG, master_seed=seed)
    node.reset_window(0)
    return node


def _random_trace(n, seed):
    rng = np.random.default_rng(seed)
    return Trace(
        rng.integers(0, 2**32, n, dtype=np.uint32),
        rng.integers(0, 2**32, n, dtype=np.uint32),
    )


# -- trace container ----------------------------------------------------------


def test_trace_validation():
    with pytest.raises(ValueError):
        Trace(np.zeros(3, np.uint32), np.zeros(4, np.uint32))
    with pytest.raises(ValueError):
        Trace(np.zeros(3, np.uint32), np.zeros(3, np.uint32), np.zeros(2, np.uint32))


def test_trace_ts_defaults_to_zeros():
    t = Trace([1, 2, 3], [4, 5, 6])
    assert t.ts.dtype == np.uint32
    assert t.ts.tolist() == [0, 0, 0]
    assert Trace.concatenate([t, t.take([2])]).ts.tolist() == [0, 0, 0, 0]


def test_trace_take_and_concatenate():
    t = _random_trace(10, 0)
    front, back = t.take(np.arange(4)), t.take(np.arange(4, 10))
    rejoined = Trace.concatenate([front, back])
    assert np.array_equal(rejoined.a, t.a)
    assert np.array_equal(rejoined.b, t.b)


# -- trace file formats ---------------------------------------------------------


def test_dotted_round_trip():
    assert dotted(0x0A000001) == "10.0.0.1"
    assert parse_dotted("10.0.0.1") == 0x0A000001
    assert parse_dotted(dotted(0xFFFFFFFF)) == 0xFFFFFFFF


def test_binary_trace_round_trip(tmp_path):
    t = _random_trace(100, 1)
    t.ts = np.arange(100, dtype=np.uint32)
    path = tmp_path / "t.bin"
    write_trace_binary(path, t)
    assert path.stat().st_size == 1200
    got, malformed = read_trace_binary(path)
    assert malformed == 0
    assert np.array_equal(got.a, t.a)
    assert np.array_equal(got.b, t.b)
    assert np.array_equal(got.ts, t.ts)


def test_binary_trace_trailing_garbage(tmp_path):
    t = _random_trace(10, 2)
    path = tmp_path / "t.bin"
    write_trace_binary(path, t)
    with open(path, "ab") as fh:
        fh.write(b"\x01\x02\x03")  # partial record
    got, malformed = read_trace_binary(path)
    assert len(got) == 10
    assert malformed == 1


def test_csv_trace_round_trip(tmp_path):
    t = _random_trace(50, 3)
    t.ts = np.arange(50, dtype=np.uint32)
    path = tmp_path / "t.csv"
    write_trace_csv(path, t)
    got, malformed = read_trace_csv(path)
    assert malformed == 0
    assert np.array_equal(got.a, t.a)
    assert np.array_equal(got.b, t.b)
    assert np.array_equal(got.ts, t.ts)


def test_csv_trace_skips_malformed_lines(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(
        "10.0.0.1,10.0.0.2,5\n"
        "not an ip,10.0.0.2,5\n"
        "10.0.0.3\n"
        "\n"
        "10.0.0.4,10.0.0.5\n"
        "1.2.3.4,5.6.7.8,-5\n"  # timestamps outside uint32
        "1.2.3.4,5.6.7.8,99999999999\n"
        "10.0.0.6,10.0.0.7,4294967295\n"
    )
    got, malformed = read_trace_csv(path)
    assert len(got) == 3
    assert malformed == 4
    assert got.a.tolist() == [parse_dotted(x) for x in ("10.0.0.1", "10.0.0.4", "10.0.0.6")]
    assert got.ts.tolist() == [5, 0, 2**32 - 1]


# -- observation node -----------------------------------------------------------


def test_empty_window_produces_zero_sketches():
    node = _node()
    rec, lea = node.scan_window(_random_trace(0, 0))
    assert not rec.cells.any()
    assert not lea.cells.any()
    assert node.pairs_scanned == 0


def test_scan_accumulates_and_order_invariant():
    t = _random_trace(2000, 4)
    node_once = _node()
    rec1, lea1 = node_once.scan_window(t)

    node_chunks = _node()
    node_chunks.scan_window(t.take(np.arange(500)))
    rec2, lea2 = node_chunks.scan_window(t.take(np.arange(500, 2000)))
    assert rec1 == rec2 and lea1 == lea2

    node_shuffled = _node()
    order = np.random.default_rng(5).permutation(2000)
    rec3, lea3 = node_shuffled.scan_window(t.take(order))
    assert rec1 == rec3 and lea1 == lea3
    assert node_shuffled.pairs_scanned == 2000


def test_same_seed_nodes_build_identical_payloads():
    t = _random_trace(1000, 6)
    n1, n2 = _node(node_id=1), _node(node_id=1)
    n1.scan_window(t)
    n2.scan_window(t)
    assert n1.stage1_payload() == n2.stage1_payload()
    assert n1.stage3_payload([1, 2, 3]) == n2.stage3_payload([1, 2, 3])


def test_different_seed_changes_sketches():
    t = _random_trace(1000, 7)
    n1, n2 = _node(seed=1), _node(seed=2)
    rec1, _ = n1.scan_window(t)
    rec2, _ = n2.scan_window(t)
    assert rec1 != rec2
    assert n1.fingerprint() != n2.fingerprint()


def test_stage1_payload_size_and_round_trip():
    node = _node(node_id=9)
    node.scan_window(_random_trace(500, 8))
    payload = node.stage1_payload()
    assert len(payload) == wire.stage1_size(CFG)
    header, cube = wire.decode_stage1(payload)
    assert header.node_id == 9
    assert cube == node.rec


def test_stage3_payload_sizes():
    node = _node()
    node.scan_window(_random_trace(500, 9))
    empty = node.stage3_payload([])
    assert len(empty) == wire.stage3_size(0, PARAMS.le_len) == 20
    three = node.stage3_payload([1, 2, 3])
    assert len(three) == wire.stage3_size(3, PARAMS.le_len)


def test_stage3_unseen_candidate_is_zero_estimator():
    node = _node()
    node.scan_window(_random_trace(0, 0))
    _, candidates, sketches = wire.decode_stage3(node.stage3_payload([12345]))
    assert candidates.tolist() == [12345]
    assert not sketches.any()


@pytest.mark.parametrize(
    "params, pairs, digest",
    [
        (
            PARAMS,
            2000,
            "78b682a41d3879d462b3e64aabe0ccdc9066cd0ee9fee90a51172b684093bfcd",
        ),
        (
            DetectorParams(theta=256, le_len=1024, u_hat=3, v_hat=256),
            20_000,
            "08c2ceca03caef36c303dd1f559ec083654fafd3c113392249b455a184ffd780",
        ),
    ],
)
def test_stage3_golden_digests(params, pairs, digest):
    # digests recorded from the per-candidate encoder the matrix path
    # replaced; candidates out of order, seen and unseen
    rng = np.random.default_rng(30)
    pool = rng.integers(0, 2**32, 50, dtype=np.uint32)
    a = rng.choice(pool, pairs).astype(np.uint32)
    b = rng.integers(0, 2**32, pairs, dtype=np.uint32)
    node = ObservationNode(5, params, CFG, master_seed=77)
    node.reset_window(3)
    node.scan_window(Trace(a, b))
    candidates = pool[:40].tolist()[::-1] + [1, 2, 0xFFFFFFFF]
    assert hashlib.sha256(node.stage3_payload(candidates)).hexdigest() == digest


def test_new_node_answers_for_an_empty_window_0():
    node = ObservationNode(0, PARAMS, CFG, master_seed=1)
    header, cube = wire.decode_stage1(node.stage1_payload())
    assert header.window_id == 0
    assert not cube.cells.any()
    header, candidates, sketches = wire.decode_stage3(node.stage3_payload([1]))
    assert header.window_id == 0
    assert candidates.tolist() == [1]
    assert not sketches.any()


def test_reset_window_clears_state():
    node = _node()
    node.scan_window(_random_trace(100, 10))
    node.reset_window(1)
    assert not node.rec.cells.any()
    assert node.window_id == 1
    assert node.pairs_scanned == 0


def test_master_structure_bytes():
    node = _node()
    assert node.master_structure_bytes() == CFG.nbytes + PARAMS.lea_bytes
