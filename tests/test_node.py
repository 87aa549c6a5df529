import hashlib
import tracemalloc

import numpy as np
import pytest
from oracles import col, decode_stage3, encode_stage1, encode_stage3, same_sketch

from superpoint import learray, node as node_module, wire
from superpoint.estimators import DetectorParams
from superpoint.node import (
    ObservationNode,
    Trace,
    dotted,
    parse_dotted,
    read_trace,
    window_pairs,
    window_spans,
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


def _read_whole(path):
    """Every batch of a trace file, rejoined, and the malformed count."""
    batches = list(read_trace(path))
    traces = [Trace([], [])] + [trace for _, trace, _ in batches]
    return Trace.concatenate(traces), sum(bad for _, _, bad in batches)


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
    got, malformed = _read_whole(path)
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
    got, malformed = _read_whole(path)
    assert len(got) == 10
    assert malformed == 1


def test_csv_trace_round_trip(tmp_path):
    t = _random_trace(50, 3)
    t.ts = np.arange(50, dtype=np.uint32)
    path = tmp_path / "t.csv"
    write_trace_csv(path, t)
    got, malformed = _read_whole(path)
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
    with open(path, "ab") as fh:
        fh.write(b"\xff\xfe,1.2.3.4\n")  # not UTF-8
    got, malformed = _read_whole(path)
    assert len(got) == 3
    assert malformed == 5
    assert got.a.tolist() == [parse_dotted(x) for x in ("10.0.0.1", "10.0.0.4", "10.0.0.6")]
    assert got.ts.tolist() == [5, 0, 2**32 - 1]


@pytest.mark.parametrize("fmt", ["bin", "csv"])
def test_read_trace_batches_and_spans(tmp_path, monkeypatch, fmt):
    # batches of 7 records; each batch starts where the last ended, and a
    # span from one batch's offset to one past it reads just that batch
    monkeypatch.setattr(node_module, "BATCH_RECORDS", 7)
    t = _random_trace(20, 11)
    t.ts = np.arange(20, dtype=np.uint32)
    path = tmp_path / f"t.{fmt}"
    (write_trace_binary if fmt == "bin" else write_trace_csv)(path, t)
    with open(path, "ab") as fh:
        fh.write(b"\x01\x02\x03" if fmt == "bin" else b"junk\n")
    batches = list(read_trace(path))
    assert [len(trace) for _, trace, _ in batches] == [7, 7, 6]
    assert [bad for _, _, bad in batches] == [0, 0, 1]
    assert batches[0][0] == 0
    for offset, trace, _ in batches:
        ((again_offset, again, _),) = read_trace(path, offset, offset + 1)
        assert again_offset == offset
        assert np.array_equal(again.ts, trace.ts)
    assert list(read_trace(path, 0, 0)) == []
    assert list(read_trace(path, path.stat().st_size)) == []


def test_window_pairs_passes_whole_batches_uncopied(tmp_path, monkeypatch):
    # batches of 7 over windows of 10 seconds: a batch inside one window
    # goes through as the reader made it, one that straddles is filtered
    monkeypatch.setattr(node_module, "BATCH_RECORDS", 7)
    t = _random_trace(21, 12)
    t.ts = np.repeat(np.array([0, 10, 20], np.uint32), [7, 5, 9])
    path = str(tmp_path / "t.bin")
    write_trace_binary(path, t)
    read = []
    reader = node_module.read_trace

    def recording_reader(*args):
        for offset, batch, bad in reader(*args):
            read.append(batch)
            yield offset, batch, bad

    spans, _ = window_spans([path], 10, str(tmp_path))
    monkeypatch.setattr(node_module, "read_trace", recording_reader)
    for wid, sizes, uncopied in ((0, [7], [True]), (1, [5], [False]), (2, [2, 7], [False, True])):
        read.clear()
        parts = list(window_pairs(*spans[path], wid, 10))
        assert [len(part) for part in parts] == sizes
        assert all((part.ts // 10 == wid).all() for part in parts)
        for part, batch, whole in zip(parts, read, uncopied):
            for column in ("a", "b", "ts"):
                assert np.shares_memory(getattr(part, column), getattr(batch, column)) == whole


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
    assert same_sketch(rec1, rec2) and same_sketch(lea1, lea2)

    node_shuffled = _node()
    order = np.random.default_rng(5).permutation(2000)
    rec3, lea3 = node_shuffled.scan_window(t.take(order))
    assert same_sketch(rec1, rec3) and same_sketch(lea1, lea3)
    assert node_shuffled.pairs_scanned == 2000


def test_same_seed_nodes_build_identical_payloads():
    t = _random_trace(1000, 6)
    n1, n2 = _node(node_id=1), _node(node_id=1)
    n1.scan_window(t)
    n2.scan_window(t)
    assert n1.stage1_payload() == n2.stage1_payload()
    assert b"".join(n1.stage3_payload([1, 2, 3])) == b"".join(n2.stage3_payload([1, 2, 3]))


def test_different_seed_changes_sketches():
    t = _random_trace(1000, 7)
    n1, n2 = _node(seed=1), _node(seed=2)
    rec1, _ = n1.scan_window(t)
    rec2, _ = n2.scan_window(t)
    assert not same_sketch(rec1, rec2)
    assert n1.fingerprint() != n2.fingerprint()


def test_stage1_payload_size_and_round_trip():
    node = _node(node_id=9)
    node.scan_window(_random_trace(500, 8))
    payload = node.stage1_payload()
    assert len(payload) == wire.stage1_size(CFG)
    header, cube = wire.decode_stage1(payload)
    assert header.node_id == 9
    assert same_sketch(cube, node.rec)
    # the payload is the cube's own buffer, read-only, with the reference bytes
    assert payload.readonly and np.shares_memory(np.asarray(payload), node.rec.cells)
    assert payload == encode_stage1(9, 0, node.rec)


def test_stage3_payload_sizes():
    node = _node()
    node.scan_window(_random_trace(500, 9))
    empty = b"".join(node.stage3_payload([]))
    assert len(empty) == wire.stage3_size(0, PARAMS.le_len) == 20
    three = b"".join(node.stage3_payload([1, 2, 3]))
    assert len(three) == wire.stage3_size(3, PARAMS.le_len)


def test_stage3_unseen_candidate_is_zero_estimator():
    node = _node()
    node.scan_window(_random_trace(0, 0))
    _, candidates, sketches = decode_stage3(b"".join(node.stage3_payload([12345])))
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
    assert hashlib.sha256(b"".join(node.stage3_payload(candidates))).hexdigest() == digest


@pytest.mark.parametrize(
    "le_len, w",
    [
        (64, 0),
        (8, 300),
        # more rows than one gather step holds, the last step partial
        (4096, 2 * (learray._GATHER_BYTES // (4096 // 8)) + 7),
    ],
)
def test_stage3_payload_is_the_reference_encoding(le_len, w):
    params = DetectorParams(theta=64, le_len=le_len, u_hat=3, v_hat=64)
    node = ObservationNode(4, params, CFG, master_seed=13)
    node.reset_window(2)
    rng = np.random.default_rng(31)
    pool = rng.integers(0, 2**32, 200, dtype=np.uint32)
    node.scan_window(Trace(rng.choice(pool, 5000), rng.integers(0, 2**32, 5000, dtype=np.uint32)))
    # seen and unseen candidates, out of order
    unseen = rng.integers(0, 2**32, w, dtype=np.uint32)
    candidates = rng.permutation(np.concatenate([pool, unseen]))[:w]
    # scalar oracle: AND of each candidate's row cells, then copied record by record
    sketches = np.zeros((w, le_len // 8), np.uint8)
    for row, c in zip(sketches, candidates.tolist()):
        cells = [node.lea.cells[i, col(node.hs, c, i, 64)] for i in range(3)]
        row[:] = np.bitwise_and.reduce(cells)
    want = encode_stage3(4, 2, candidates, sketches, le_len)
    # the header, then blocks of whole records; a block stays valid after
    # the next is made, so the joined stream is the payload
    chunks = list(node.stage3_payload(candidates))
    assert b"".join(chunks) == want
    assert len(chunks[0]) == wire.STAGE3_HEADER_LEN
    rows = [len(block) // (4 + le_len // 8) for block in chunks[1:]]
    step = node.lea.block_rows
    assert rows == [min(step, w - lo) for lo in range(0, w, step)]


def test_stage3_payload_is_gathered_in_place():
    # no (w, le_len / 8) matrix at the node: building and draining the
    # stream peaks at a few blocks, whatever the payload's size
    params = DetectorParams(theta=64, le_len=4096, u_hat=5, v_hat=1024)
    node = ObservationNode(0, params, CFG, master_seed=3)
    node.scan_window(_random_trace(20_000, 11))
    w = 20_000
    candidates = np.random.default_rng(12).integers(0, 2**32, w, dtype=np.uint32)
    block = node.lea.block_rows * (4 + 4096 // 8)
    size = 0
    tracemalloc.start()
    try:
        for chunk in node.stage3_payload(candidates):
            size += len(chunk)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert size == wire.stage3_size(w, 4096) > 30 * block
    # two blocks alive at a hand-over, the gather's temporary, and the
    # candidates' u_hat columns (8 bytes each)
    assert peak < 4 * block + 5 * 8 * w, peak / block


def test_new_node_answers_for_an_empty_window_0():
    node = ObservationNode(0, PARAMS, CFG, master_seed=1)
    header, cube = wire.decode_stage1(node.stage1_payload())
    assert header.window_id == 0
    assert not cube.cells.any()
    header, candidates, sketches = decode_stage3(b"".join(node.stage3_payload([1])))
    assert header.window_id == 0
    assert candidates.tolist() == [1]
    assert not sketches.any()


@pytest.mark.parametrize("node_id", [-1, wire.COORDINATOR_ID, 0x10000])
def test_node_id_outside_the_wire_range_is_rejected(node_id):
    with pytest.raises(ValueError, match="0..0xfffe"):
        ObservationNode(node_id, PARAMS, CFG, master_seed=1)


def test_largest_node_id_is_accepted():
    node = ObservationNode(0xFFFE, PARAMS, CFG, master_seed=1)
    header, _ = wire.decode_stage1(node.stage1_payload())
    assert header.node_id == 0xFFFE


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
