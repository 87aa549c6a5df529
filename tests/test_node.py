import hashlib
import tracemalloc
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import (
    col,
    csv_records,
    decode_stage3,
    dense_cells,
    dense_replay,
    encode_stage1,
    encode_stage3,
    same_sketch,
    stage1_size,
    stage3_size,
    write_cell,
    write_key,
)

from superpoint import node as node_module, wire
from superpoint.estimators import DetectorParams
from superpoint.node import (
    ObservationNode,
    Trace,
    dotted,
    parse_dotted,
    read_trace,
    read_trace_csv,
    window_pairs,
    window_spans,
    write_trace_binary,
    write_trace_csv,
)
from superpoint.recube import RECubeConfig

PARAMS = DetectorParams(theta=64, le_len=64, u_hat=2, v_hat=16)
CFG = RECubeConfig(r=2, l=(6,) * 8, s=(0, 4, 8, 12, 16, 20, 24, 28))


def _bounds(w: int, cuts=()) -> list:
    """0, the sorted cut points, then w: consecutive ranges that cover w candidates."""
    return [0, *cuts, w]


def _chunks(node, candidates, cuts=()) -> list:
    """A node's stage-3 payload as it is sent: the header, then the block
    of each range between consecutive bounds, in order."""
    header, build = node.stage3_payload(candidates)
    bounds = _bounds(len(candidates), cuts)
    return [header] + [build(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _payload(node, candidates) -> bytes:
    return b"".join(_chunks(node, candidates))


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
    if str(path).endswith(".csv"):
        batches = list(read_trace_csv(path))
    else:
        batches = [(trace, bad) for _, trace, bad in read_trace(path)]
    traces = [Trace([], [])] + [trace for trace, _ in batches]
    return Trace.concatenate(traces), sum(bad for _, bad in batches)


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


def test_csv_writer_writes_the_line_format(tmp_path, monkeypatch):
    # chunks of 7 records, the last one partial: every record is the line
    # "a,b,ts" of its dotted addresses and its decimal timestamp
    monkeypatch.setattr(node_module, "BATCH_RECORDS", 7)
    rng = np.random.default_rng(8)
    edges = np.array([0, 1, 9, 10, 99, 100, 255, 256, 10**9 - 1, 10**9, 2**32 - 1], np.uint32)
    a, b, ts = (rng.permutation(np.concatenate([edges, rng.integers(0, 2**32, 40, dtype=np.uint32)])) for _ in range(3))
    path = tmp_path / "t.csv"
    write_trace_csv(path, Trace(a, b, ts))
    lines = [f"{dotted(x)},{dotted(y)},{t}\n" for x, y, t in zip(a.tolist(), b.tolist(), ts.tolist())]
    assert path.read_text() == "".join(lines)
    write_trace_csv(path, Trace([], []))
    assert path.read_bytes() == b""


def test_csv_trace_skips_malformed_lines(tmp_path, monkeypatch):
    bound = node_module.CSV_LINE_BYTES
    path = tmp_path / "t.csv"
    path.write_text(
        "10.0.0.1,10.0.0.2,5\n"
        "not an ip,10.0.0.2,5\n"
        "10.0.0.3\n"
        "\n"
        "10.0.0.4,10.0.0.5\n"
        "1.2.3.4,5.6.7.8,-5\n"  # timestamps outside uint32
        "1.2.3.4,5.6.7.8,99999999999\n"
        "1.2.3.4,5.6.7.8,10,junk\n"  # more than three fields
        "10.0.0.6,10.0.0.7,4294967295\n"
        # whitespace inside the line, beside an address or a comma
        "1.2.3.4 junk,5.6.7.8\n"
        "1.2.3.4\tx,5.6.7.8,5\n"
        "1.2.3.4 ,5.6.7.8\n"
        "1.2.3.4, 5.6.7.8\n"
        "1.2.3.4,5.6.7.8 junk,5\n"
        "1.2.3.4,5.6.7.8, 5\n"
        # addresses that are not four canonical octets
        "010.0.0.1,5.6.7.8\n"
        "1.2.3,5.6.7.8\n"
        "0x7f.1,5.6.7.8\n"
        "127.1,5.6.7.8\n"
        # timestamps that are not decimal digits
        "1.2.3.4,5.6.7.8,5_0\n"
        "1.2.3.4,5.6.7.8,+5\n"
        # whitespace that is not ASCII
        "\u00a01.2.3.4,5.6.7.8\n"
        # the line's own leading and trailing ASCII whitespace is stripped
        " \t10.0.0.8,10.0.0.9,7 \r\n"
        # up to the line bound, and one byte over it
        + "10.0.0.10,10.0.0.11,9".rjust(bound) + "\n"
        + "1.2.3.4,5.6.7.8".rjust(bound + 1) + "\n"
    )
    with open(path, "ab") as fh:
        fh.write(b"\xff\xfe,1.2.3.4\n")  # not UTF-8
    # in one chunk, and in chunks of 12 bytes, so that each line is
    # carried over and only the start of the overlong one is kept
    for batch in (node_module.BATCH_RECORDS, 1):
        monkeypatch.setattr(node_module, "BATCH_RECORDS", batch)
        got, malformed = _read_whole(path)
        assert len(got) == 5
        assert malformed == 20
        assert got.a.tolist() == [0x0A000001, 0x0A000004, 0x0A000006, 0x0A000008, 0x0A00000A]
        assert got.ts.tolist() == [5, 0, 2**32 - 1, 7, 9]


def test_read_trace_csv_batches(tmp_path, monkeypatch):
    # chunks of 7 records' bytes: no batch holds more than 7 records, and
    # the malformed last line is counted in the last batch
    monkeypatch.setattr(node_module, "BATCH_RECORDS", 7)
    t = _random_trace(20, 11)
    t.ts = np.arange(20, dtype=np.uint32)
    path = tmp_path / "t.csv"
    write_trace_csv(path, t)
    with open(path, "ab") as fh:
        fh.write(b"junk\n")
    batches = list(read_trace_csv(path))
    assert all(len(trace) <= 7 for trace, _ in batches)
    assert [bad for _, bad in batches] == [0] * (len(batches) - 1) + [1]
    got = Trace.concatenate([trace for trace, _ in batches])
    assert np.array_equal(got.a, t.a)
    assert np.array_equal(got.ts, t.ts)


_OCTETS = st.integers(0, 255).map(str)
_ODD_OCTETS = st.sampled_from(["00", "010", "256", "999", "0x7f", "+1", "-1", " 1", "1 ", "", "1\u00a0"])
_ADDRESSES = st.lists(_OCTETS, min_size=4, max_size=4).map(".".join)
_ODD_ADDRESSES = st.one_of(
    st.lists(st.one_of(_OCTETS, _ODD_OCTETS), min_size=1, max_size=5).map(".".join),
    st.just("127.1"),
)
_TIMESTAMPS = st.one_of(
    st.integers(0, 2**32 - 1).map(str),
    st.integers(2**32, 10**10).map(str),
    st.from_regex(r"0{1,3}[0-9]{1,8}", fullmatch=True),
    st.sampled_from(["", "5_0", "+5", "-5", " 5", "5 ", "12345678901", "1e3"]),
)
_SPACES = st.text(" \t\r\v\f", max_size=3) | st.sampled_from(["\u00a0", "\x1c", "\x85"])


@st.composite
def _csv_lines(draw):
    """One CSV line, its newline not included: canonical, odd or junk,
    sometimes padded to about the line bound."""
    bound = node_module.CSV_LINE_BYTES
    a, b = draw(st.lists(st.one_of(_ADDRESSES, _ADDRESSES, _ODD_ADDRESSES), min_size=2, max_size=2))
    ts = draw(st.none() | _TIMESTAMPS)
    line = ",".join([a, b] if ts is None else [a, b, ts])
    line = draw(st.one_of(
        st.just(line),
        st.builds("".join, st.tuples(_SPACES, st.just(line), _SPACES)),
        st.text(st.characters(codec="utf-8", exclude_characters="\n"), max_size=20),
        _SPACES,
    )).encode()
    if draw(st.integers(0, 9)) == 0:
        line = line.rjust(bound + draw(st.integers(-1, 1)))
    return line


@settings(max_examples=80, deadline=None)
@given(
    lines=st.lists(_csv_lines(), max_size=30),
    newline_at_end=st.booleans(),
    batch=st.integers(1, 8),
)
@example(lines=[b"x" * 1000, b"1.2.3.4,5.6.7.8"], newline_at_end=False, batch=1)
@example(lines=[b" " * 300, b"1.2.3.4,5.6.7.8,4294967296"], newline_at_end=True, batch=3)
# the shortest record lines, as many to a chunk as its bytes allow
@example(lines=[b"0.0.0.0,0.0.0.0"] * 20, newline_at_end=True, batch=4)
def test_read_trace_csv_matches_the_per_line_grammar(tmp_path_factory, lines, newline_at_end, batch):
    # chunks of 12-96 bytes, so that most lines straddle chunks, give the
    # records and malformed count of the per-line reference
    data = b"\n".join(lines) + (b"\n" if newline_at_end and lines else b"")
    path = tmp_path_factory.getbasetemp() / "hypothesis.csv"
    path.write_bytes(data)
    with mock.patch.object(node_module, "BATCH_RECORDS", batch):
        batches = list(read_trace_csv(path))
    records, malformed = csv_records(data, node_module.CSV_LINE_BYTES)
    assert all(len(trace) <= batch for trace, _ in batches)
    got = Trace.concatenate([Trace([], [])] + [trace for trace, _ in batches])
    assert list(zip(got.a.tolist(), got.b.tolist(), got.ts.tolist())) == records
    assert sum(bad for _, bad in batches) == malformed


def test_read_trace_batches_and_spans(tmp_path, monkeypatch):
    # batches of 7 records; each batch starts where the last ended, and a
    # span from one batch's offset to one past it reads just that batch
    monkeypatch.setattr(node_module, "BATCH_RECORDS", 7)
    t = _random_trace(20, 11)
    t.ts = np.arange(20, dtype=np.uint32)
    path = tmp_path / "t.bin"
    write_trace_binary(path, t)
    with open(path, "ab") as fh:
        fh.write(b"\x01\x02\x03")
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
    assert not dense_cells(lea).any()
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
    (h1, c1), (h2, c2) = n1.stage1_payload(), n2.stage1_payload()
    assert h1 + c1 == h2 + c2
    assert _payload(n1, [1, 2, 3]) == _payload(n2, [1, 2, 3])


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
    head, cells = node.stage1_payload()
    assert len(head) + cells.nbytes == stage1_size(CFG)
    header, cube = wire.decode_stage1(head, cells)
    assert header.node_id == 9
    assert same_sketch(cube, node.rec)
    # the cells chunk is the cube's own cells, read-only, and the chunks
    # joined are the reference bytes
    assert cells.readonly and np.shares_memory(np.asarray(cells), node.rec.cells)
    assert head + cells == encode_stage1(9, 0, node.rec)


def test_stage3_payload_sizes():
    node = _node()
    node.scan_window(_random_trace(500, 9))
    empty = _payload(node, [])
    assert len(empty) == stage3_size(0, PARAMS.le_len) == 20
    three = _payload(node, [1, 2, 3])
    assert len(three) == stage3_size(3, PARAMS.le_len)


def test_stage3_unseen_candidate_is_zero_estimator():
    node = _node()
    node.scan_window(_random_trace(0, 0))
    _, candidates, sketches = decode_stage3(_payload(node, [12345]))
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
    assert hashlib.sha256(_payload(node, candidates)).hexdigest() == digest


@pytest.mark.parametrize(
    "le_len, w",
    [
        (64, 0),
        (8, 300),
        # more records than one 512 KiB block holds (1024 at 4096 bits),
        # the last block partial
        (4096, 1031),
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
    grid = dense_cells(node.lea)
    for row, c in zip(sketches, candidates.tolist()):
        cells = [grid[i, col(node.hs, c, i, 64)] for i in range(3)]
        row[:] = np.bitwise_and.reduce(cells)
    want = encode_stage3(4, 2, candidates, sketches, le_len)
    # the header, then blocks of whole records; a block stays valid after
    # the next is built, so the header and the blocks, joined, are the payload
    cuts = range(1024, w, 1024)
    chunks = _chunks(node, candidates, cuts)
    assert b"".join(chunks) == want
    assert len(chunks[0]) == wire.STAGE3_HEADER_LEN
    bounds = _bounds(w, cuts)
    assert [len(block) for block in chunks[1:]] == [(hi - lo) * (4 + le_len // 8) for lo, hi in zip(bounds, bounds[1:])]
    assert le_len != 4096 or len(chunks) > 2


#: a fate at or past u_hat: the candidate's AND never dies
LIVES = 5


def _fated_node(u_hat, le_len, fates, keyed, seed):
    """A node whose grid holds, for candidate j, the rows 0..fates[j] - 1
    equal to one random nonzero cell, row fates[j] its complement (zero
    for row 0), and random later rows; columns may collide, and the
    reference sees the collisions too. Where keyed[j] is a nonzero mask
    of rows, the cell is one bit, and the masked rows are single-key
    columns: of that bit before row fates[j], of another bit at it (two
    single keys that disagree), of a random bit after it; the rows before
    fates[j] outside the mask hold the bit and random others. Also the
    (u_hat, v_hat, le_len / 8) cells written, the reference, and which
    (row, column) the last write left a single key."""
    params = DetectorParams(theta=64, le_len=le_len, u_hat=u_hat, v_hat=4096)
    node = ObservationNode(6, params, CFG, master_seed=seed)
    deque(node.lea.fold(), maxlen=0)  # cells handed out through the map below
    written = np.zeros((u_hat, 4096, le_len // 8), np.uint8)
    single = np.zeros((u_hat, 4096), bool)
    rng = np.random.default_rng(seed)
    candidates = rng.choice(2**32, len(fates), replace=False).astype(np.uint32)
    cols = [node.hs.col_arr(candidates, i, 4096) for i in range(u_hat)]
    for j, fate in enumerate(fates):
        mask = keyed[j] if j < len(keyed) else 0
        # one to three bits, so a live AND may show in one word only
        bits = rng.integers(0, le_len, 1 if mask else rng.integers(1, 4)).tolist()
        cell = np.zeros(le_len // 8, np.uint8)
        for bit in bits:
            cell[bit >> 3] |= 1 << (bit & 7)
        for i in range(u_hat):
            c = cols[i][j]
            if mask >> i & 1:
                key = bits[0] if i < fate else (bits[0] + 1) % le_len if i == fate else int(rng.integers(le_len))
                write_key(node.lea, i, c, key)
                written[i, c] = 0
                written[i, c, key >> 3] = 1 << (key & 7)
                single[i, c] = node.lea._map[i, c] < 0
                continue
            if i < fate:
                written[i, c] = cell | (rng.integers(0, 256, le_len // 8, dtype=np.uint8) if mask else 0)
            elif i == fate:
                written[i, c] = ~cell if i else 0
            else:
                written[i, c] = rng.integers(0, 256, le_len // 8, dtype=np.uint8)
            write_cell(node.lea, i, c, written[i, c])
            single[i, c] = False
    return node, candidates, written, single


@settings(max_examples=60, deadline=None)
@given(
    u_hat=st.integers(1, 5),
    le_len=st.sampled_from([8, 64, 1024]),
    fates=st.lists(st.integers(0, LIVES), max_size=40),
    keyed=st.lists(st.integers(0, 2**LIVES - 1), max_size=40),
    cuts=st.lists(st.integers(0, 40), max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
# every candidate dies after the second row, or only at the last, or all live
@example(u_hat=5, le_len=1024, fates=[1] * 10, keyed=[], cuts=[3, 6, 9], seed=1)
@example(u_hat=5, le_len=64, fates=[4] * 10, keyed=[], cuts=[3, 6, 9], seed=2)
@example(u_hat=5, le_len=8, fates=[LIVES] * 10, keyed=[], cuts=[3, 6, 9], seed=3)
@example(u_hat=3, le_len=1024, fates=[], keyed=[], cuts=[], seed=4)
# single-key rows: a bit that survives every row; a bit that a cell row
# lacks (row 3, or row 0); two single keys that disagree (at row 2, or at
# row 0 against row 4)
@example(u_hat=5, le_len=1024, fates=[LIVES] * 4, keyed=[0b00101, 0b11111, 0b10000, 0b00001], cuts=[2], seed=5)
@example(u_hat=5, le_len=64, fates=[3, 3, 0], keyed=[0b00011, 0b10100, 0b00010], cuts=[], seed=6)
@example(u_hat=5, le_len=1024, fates=[2, 2, 0], keyed=[0b00111, 0b00100, 0b10001], cuts=[1], seed=7)
def test_stage3_payload_is_the_and_of_every_row(u_hat, le_len, fates, keyed, cuts, seed):
    # the header joined with the blocks of any consecutive ranges (empty
    # ones too) is the reference encoding of the AND of all u_hat
    # gathered rows, while only candidates still alive after two rows
    # cost a gather of rows 2..u_hat - 1; a candidate with a single-key
    # column is settled once per payload, so its gathers of rows 0 and 1
    # read the zero cell and it costs no more
    node, candidates, written, single = _fated_node(u_hat, le_len, fates, keyed, seed)
    w = len(fates)
    cuts = sorted(min(cut, w) for cut in cuts)
    gathered = []
    gather = node.lea._gather

    def counting_gather(index):
        gathered.append(np.size(index))
        return gather(index)

    with mock.patch.object(node.lea, "_gather", counting_gather):
        chunks = _chunks(node, candidates, cuts)
    cols = [node.hs.col_arr(candidates, i, 4096) for i in range(u_hat)]
    rows = [written[i][cols[i]] for i in range(u_hat)]
    want = np.bitwise_and.reduce(rows)
    assert b"".join(chunks) == encode_stage3(6, 0, candidates, want, le_len)
    assert dense_cells(node.lea).tobytes() == written.tobytes()
    bounds = _bounds(w, cuts)
    assert [len(block) for block in chunks[1:]] == [(hi - lo) * (4 + le_len // 8) for lo, hi in zip(bounds, bounds[1:])]
    if u_hat <= 2:
        assert sum(gathered) == u_hat * w
    else:
        settled = np.any([single[i][cols[i]] for i in range(u_hat)], axis=0)
        live = int(((rows[0] & rows[1]).any(axis=1) & ~settled).sum())
        assert sum(gathered) == 2 * w + (u_hat - 2) * live


def test_stage3_payload_is_gathered_in_place():
    # no (w, le_len / 8) matrix at the node: building the blocks one by
    # one, each dropped once it is counted, peaks at a few blocks, whatever
    # the payload's size
    params = DetectorParams(theta=64, le_len=4096, u_hat=5, v_hat=1024)
    node = ObservationNode(0, params, CFG, master_seed=3)
    node.scan_window(_random_trace(20_000, 11))
    deque(node.end_window(), maxlen=0)  # as the scan pool does, before stage 3
    w = 40_000
    candidates = np.random.default_rng(12).integers(0, 2**32, w, dtype=np.uint32)
    rows = 1024  # a 512 KiB block of 4096-bit sketches
    block = rows * (4 + 4096 // 8)
    tracemalloc.start()
    try:
        header, build = node.stage3_payload(candidates)
        size = len(header) + sum(len(build(lo, min(w, lo + rows))) for lo in range(0, w, rows))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert size == stage3_size(w, 4096) > 30 * block
    # the gathered sketches and a row's gather, then the sketches and
    # their block, and the candidates' u_hat columns (8 bytes each)
    assert peak < 3 * block + 5 * 8 * w, peak / block


def test_new_node_answers_for_an_empty_window_0():
    node = ObservationNode(0, PARAMS, CFG, master_seed=1)
    header, cube = wire.decode_stage1(*node.stage1_payload())
    assert header.window_id == 0
    assert not cube.cells.any()
    header, candidates, sketches = decode_stage3(_payload(node, [1]))
    assert header.window_id == 0
    assert candidates.tolist() == [1]
    assert not sketches.any()


@pytest.mark.parametrize("node_id", [-1, wire.COORDINATOR_ID, 0x10000])
def test_node_id_outside_the_wire_range_is_rejected(node_id):
    with pytest.raises(ValueError, match="0..0xfffe"):
        ObservationNode(node_id, PARAMS, CFG, master_seed=1)


def test_largest_node_id_is_accepted():
    node = ObservationNode(0xFFFE, PARAMS, CFG, master_seed=1)
    header, _ = wire.decode_stage1(*node.stage1_payload())
    assert header.node_id == 0xFFFE


@pytest.mark.parametrize("theta", [64, 2**20], ids=["burst", "sparse"])
def test_window_end_folds_a_candidate_burst_and_seals_the_rest(theta):
    # 2 KiB cells, 3 rows: the grid logs one batch of BATCH_RECORDS random
    # pairs either way. At theta = 64 the batch fills the small cube with
    # >= 3-bit cells, whose gathers outweigh the batch's keys, so the
    # window end folds the log; at theta = 2^20 no cell qualifies, and the
    # window end seals it; one step per row. An empty window takes no
    # step. The sketches are the same either way.
    params = DetectorParams(theta=theta, le_len=2**14, u_hat=3, v_hat=1024)
    trace = _random_trace(node_module.BATCH_RECORDS, 16)
    node = ObservationNode(0, params, CFG, master_seed=5)
    assert list(node.end_window()) == []
    node.reset_window(0)
    node.scan_window(trace)
    assert (node.lea.logging, node.lea.log_pairs) == (True, len(trace))
    assert len(list(node.end_window())) == 3
    assert (node.lea.folded, node.lea.logging, node.lea.log_pairs) == (theta == 64, False, 0)
    replay = dense_replay([(trace.a, trace.b)], 3, 1024, 2**14, node.hs)
    assert dense_cells(node.lea).tobytes() == replay.tobytes()


def test_a_window_of_many_batches_checks_the_fold_rule_once(monkeypatch):
    # the grid's form is decided at the window end, so a window of four
    # batches, ended and then asked for stage 3, reads its cube's
    # candidate cells once, and not at each doubling of its log
    calls = []
    candidate_cells = node_module._candidate_cells
    monkeypatch.setattr(node_module, "_candidate_cells", lambda *cubes: calls.append(1) or candidate_cells(*cubes))
    params = DetectorParams(theta=2**20, le_len=2**14, u_hat=3, v_hat=4096)
    node = ObservationNode(0, params, CFG, master_seed=5)
    for seed in range(4):
        node.scan_window(_random_trace(node_module.BATCH_RECORDS, seed))
    deque(node.end_window(), maxlen=0)
    node.stage3_payload([1, 2])
    assert len(calls) == 1 and not node.lea.folded


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
