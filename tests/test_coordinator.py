import threading
import time
import tracemalloc

import numpy as np
import pytest
from oracles import (
    and_of_rows,
    encode_stage1,
    encode_stage3,
    expected_comms,
    stage1_chunks,
    stage1_size,
    stage3_size,
)

from superpoint import coordinator, parallel, wire
from superpoint.coordinator import run_window
from superpoint.estimators import DetectorParams
from superpoint.harness import TraceSpec, generate_trace, partition_stream
from superpoint.learray import estimate_candidates, popcounts
from superpoint.node import ObservationNode
from superpoint.recube import RECube, RECubeConfig

PARAMS = DetectorParams(theta=256, le_len=1024, u_hat=3, v_hat=256)
CFG = RECubeConfig(r=2, l=(6,) * 8, s=(0, 4, 8, 12, 16, 20, 24, 28))
OTHER_CFG = RECubeConfig(r=3, l=(6,) * 7, s=(0, 4, 8, 12, 16, 20, 24))
SEED = 1234


def _scanned_nodes(trace, n, **overrides):
    streams = partition_stream(trace, n)
    nodes = []
    for i, stream in enumerate(streams):
        node = ObservationNode(
            i,
            overrides.get("params", PARAMS),
            overrides.get("cfg", CFG),
            master_seed=overrides.get("seed", SEED),
        )
        node.reset_window(0)
        node.scan_window(stream)
        nodes.append(node)
    return nodes


def _demo_trace(seed=0):
    rng = np.random.default_rng(seed)
    planted = tuple(
        (int(a), int(c))
        for a, c in zip(
            rng.integers(0, 2**32, 4),
            rng.integers(2 * PARAMS.theta, 8 * PARAMS.theta, 4),
        )
    )
    spec = TraceSpec(planted=planted, background_hosts=500, theta=PARAMS.theta)
    return generate_trace(spec, seed), {a for a, _ in planted}


def test_single_node_equals_distributed():
    trace, planted = _demo_trace()
    single = run_window(_scanned_nodes(trace, 1))
    multi = run_window(_scanned_nodes(trace, 3))
    assert np.array_equal(single.candidates, multi.candidates)
    assert [e.address for e in single.super_points] == [
        e.address for e in multi.super_points
    ]
    for one, many in zip(single.super_points, multi.super_points):
        assert one.estimate == pytest.approx(many.estimate)
    assert planted <= {e.address for e in multi.super_points}


def test_node_order_does_not_matter():
    trace, _ = _demo_trace(1)
    nodes = _scanned_nodes(trace, 4)
    fwd = run_window(nodes)
    rev = run_window(nodes[::-1])
    assert np.array_equal(fwd.candidates, rev.candidates)
    assert [e.address for e in fwd.super_points] == [
        e.address for e in rev.super_points
    ]


def test_mismatched_nodes_abort():
    trace, _ = _demo_trace(2)
    nodes = _scanned_nodes(trace, 2)
    other = ObservationNode(7, PARAMS, CFG, master_seed=SEED + 1)
    other.reset_window(0)
    other.scan_window(trace)
    with pytest.raises(ValueError, match="mismatch"):
        run_window(nodes + [other])
    with pytest.raises(ValueError):
        run_window([])


def test_byte_accounting_matches_wire_sizes():
    trace, _ = _demo_trace(3)
    report = run_window(_scanned_nodes(trace, 3))
    w = report.candidates_count
    assert report.stage1_bytes == [stage1_size(CFG)] * 3
    assert report.stage2_bytes == [wire.stage2_size(w)] * 3
    assert report.stage3_bytes == [stage3_size(w, PARAMS.le_len)] * 3
    assert report.master_structure_bytes == CFG.nbytes + PARAMS.lea_bytes
    expected_fraction = (
        stage1_size(CFG) + wire.stage2_size(w) + stage3_size(w, PARAMS.le_len)
    ) / report.master_structure_bytes
    assert report.transmitted_fraction == pytest.approx(expected_fraction)
    arithmetic = expected_comms(CFG, PARAMS, w)
    assert arithmetic["fraction"] == pytest.approx(expected_fraction)


def test_zero_candidate_window():
    # background-only trace far below theta: no candidates, tiny stage 3
    spec = TraceSpec(background_hosts=50, max_background_card=8, theta=PARAMS.theta)
    trace = generate_trace(spec, 4)
    report = run_window(_scanned_nodes(trace, 2))
    assert np.array_equal(report.candidates, [])
    assert report.super_points == []
    assert report.stage2_bytes == [wire.stage2_size(0)] * 2
    assert report.stage3_bytes == [stage3_size(0, PARAMS.le_len)] * 2


def test_read_is_bounded_by_one_node_over_the_union():
    # one node that scanned every pair is the OR-then-AND reference: each
    # of its row cells holds every node's, so its AND of rows holds each
    # node's AND of rows, and its estimates bound READ's from above
    trace, planted = _demo_trace(5)
    nodes = _scanned_nodes(trace, 3)
    (single,) = _scanned_nodes(trace, 1)
    read = run_window(nodes)
    reference = run_window([single])
    assert np.array_equal(read.candidates, reference.candidates)
    assert planted <= {e.address for e in read.super_points}
    reference_by_addr = {e.address: e.estimate for e in reference.super_points}
    for e in read.super_points:
        assert e.estimate <= reference_by_addr[e.address]
    merged = np.bitwise_or.reduce(
        [and_of_rows(node.lea, read.candidates, node.hs) for node in nodes]
    )
    assert np.array_equal(merged & and_of_rows(single.lea, read.candidates, single.hs), merged)
    # per-candidate stage 3 ships less than the whole LE grid
    assert read.stage3_bytes[0] < PARAMS.lea_bytes


def _dense_window(planted_count):
    """Three nodes that scanned a dense window of `planted_count` hosts of
    112 peers each at theta = 32 and |C| = 2^14, and the planted hosts."""
    cfg = RECubeConfig(r=4, l=(12, 12, 12), s=(0, 9, 18))
    params = DetectorParams(theta=32, le_len=2**14, u_hat=3, v_hat=256)
    rng = np.random.default_rng(40)
    planted = tuple((int(a), 112) for a in rng.choice(2**32, planted_count, replace=False))
    trace = generate_trace(TraceSpec(planted=planted, theta=32), 40)
    return _scanned_nodes(trace, 3, params=params, cfg=cfg, seed=9), {a for a, _ in planted}


def _traced_run_window(nodes):
    """run_window(nodes) and the peak of the memory it traced."""
    tracemalloc.start()
    try:
        report = run_window(nodes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return report, peak


def _stage3_threads(blocks: int, cpus: int) -> int:
    """The threads stage 3 runs its blocks on: one per four blocks, at
    least one, at most one per CPU."""
    return min(cpus, max(1, blocks // 4))


def test_stage3_memory_is_a_few_blocks_not_w_sketches(monkeypatch):
    # a dense 3-node window, w above 2000, ten blocks of 256 records, on
    # 1 to 4 CPUs: each thread holds its scratch block, one node's block
    # or the gather's temporaries, and nobody a (w, |C|/8) matrix
    nodes, planted = _dense_window(400)
    # about twice the candidates: on one thread, the peak grows by what is
    # kept per candidate (its address, popcount and each node's u_hat
    # columns, about 90 bytes here), not by a 2048-byte sketch; on more,
    # how many threads' blocks are alive at the peak depends on the
    # scheduler, so the growth is taken from the one-thread pair only
    more, _ = _dense_window(550)
    block = coordinator._BLOCK_BYTES
    blocks = lambda w: -(-w // (block // 2048))  # noqa: E731
    for cpus in (1, 2, 3, 4):
        monkeypatch.setattr(parallel, "usable_cpus", lambda n=cpus: n)
        peaks = []
        for window in (nodes, more):
            report, peak = _traced_run_window(window)
            w = report.candidates_count
            assert w > 2000
            # about three blocks per thread, one block of slack, and what
            # is kept per candidate; and less than one node's payload, as
            # the threads are at most one per four blocks
            threads = _stage3_threads(blocks(w), cpus)
            assert peak < (3 * threads + 1) * block + 128 * w, (cpus, peak / block)
            assert peak < report.stage3_bytes[0], (cpus, peak / report.stage3_bytes[0])
            peaks.append((report, peak))
        (report, peak), (more_report, more_peak) = peaks
        w, more_w = report.candidates_count, more_report.candidates_count
        assert more_w > 1.8 * w
        if cpus == 1:
            growth = (more_peak - peak) / (more_w - w)
            assert growth < 128, growth
    # the same estimates as from the OR of whole (w, |C|/8) matrices
    merged = np.bitwise_or.reduce([and_of_rows(n.lea, report.candidates, n.hs) for n in nodes])
    assert report.super_points == estimate_candidates(report.candidates, popcounts(merged), 2**14, 32)
    assert {e.address for e in report.super_points} >= planted


def test_expected_comms_default_geometry():
    cfg = RECubeConfig(r=6, l=(14, 14, 14), s=(0, 10, 20))
    params = DetectorParams(theta=1024, le_len=2**14, u_hat=5, v_hat=2**15)
    got = expected_comms(cfg, params, 1000)
    assert got["stage1_bytes"] == 20 + 3 * 2**20
    assert got["stage2_bytes"] == 16 + 4000
    assert got["stage3_bytes"] == 20 + 1000 * 2052
    assert got["master_structure_bytes"] == 3 * 2**20 + 5 * 2**15 * 2**11
    # ~1.5% of the master structures at w=1000, comfortably under 3.21%
    assert 0.014 < got["fraction"] < 0.017


def test_window_id_and_scan_totals_propagate():
    trace, _ = _demo_trace(6)
    nodes = _scanned_nodes(trace, 2)
    for node in nodes:
        node.window_id = 0
    report = run_window(nodes)
    assert report.window_id == 0
    assert report.pairs_scanned == len(trace)


# -- what the coordinator accepts from nodes -------------------------------------


def _stage1_from(node, window_id=None, node_id=None, cube=None, cells=None):
    """A fake stage1_payload: the reference encoding of what the node
    would send, with the given fields changed, cut into its two chunks;
    cells(chunk) changes the cells chunk."""

    def payload():
        whole = encode_stage1(
            node.node_id if node_id is None else node_id,
            node.window_id if window_id is None else window_id,
            node.rec if cube is None else cube,
        )
        head, body = stage1_chunks(whole)
        return head, body if cells is None else cells(body)

    return payload


def _stage3_from(node, window_id=None, node_id=None, le_len=None, reorder=None, header=None, answer=None):
    """A fake stage3_payload: the reference encoding of what the node would
    send, with the given fields changed. `header` changes the header chunk;
    answer(records, lo, hi) is the block asked for lo..hi, where
    records(lo, hi) slices the reference records."""

    def payload(candidates):
        candidates = np.asarray(candidates, np.uint32)
        if reorder is not None:
            candidates = reorder(candidates)
        sketches = and_of_rows(node.lea, candidates, node.hs)
        if le_len is not None:
            sketches = sketches[:, : le_len // 8]
        whole = encode_stage3(
            node.node_id if node_id is None else node_id,
            node.window_id if window_id is None else window_id,
            candidates,
            sketches,
            le_len or node.params.le_len,
        )
        head, body = whole[: wire.STAGE3_HEADER_LEN], whole[wire.STAGE3_HEADER_LEN :]
        size = 4 + (le_len or node.params.le_len) // 8

        def records(lo, hi):
            return body[lo * size : hi * size]

        def build(lo, hi):
            return records(lo, hi) if answer is None else answer(records, lo, hi)

        return head if header is None else header(head), build

    return payload


@pytest.mark.parametrize(
    "target, stage, fake, fragment",
    [
        pytest.param(1, "stage1_payload", lambda n: _stage1_from(n, window_id=8), "stage-1 window_id 8 != 0", id="stage1-window"),
        pytest.param(1, "stage1_payload", lambda n: _stage1_from(n, node_id=5), "stage-1 node_id 5 != 1", id="stage1-node"),
        # an r=3 cube in an r=2 run; a lone node's cube has no other to differ from
        pytest.param(0, "stage1_payload", lambda n: _stage1_from(n, cube=RECube(OTHER_CFG)), r"stage-1 geometry RECubeConfig\(r=3", id="stage1-geometry"),
        # the cells of a cube of the header's geometry, one byte short
        pytest.param(2, "stage1_payload", lambda n: _stage1_from(n, cells=lambda c: c[:-1]), "stage-1 expected 2048 bytes of cells, got 2047", id="stage1-cells-size"),
        pytest.param(1, "stage3_payload", lambda n: _stage3_from(n, window_id=8), "stage-3 window_id 8 != 0", id="stage3-window"),
        pytest.param(1, "stage3_payload", lambda n: _stage3_from(n, node_id=5), "stage-3 node_id 5 != 1", id="stage3-node"),
        pytest.param(1, "stage3_payload", lambda n: _stage3_from(n, le_len=512), "stage-3 le_len 512 != 1024", id="stage3-le-len"),
        pytest.param(1, "stage3_payload", lambda n: _stage3_from(n, reorder=lambda c: c[::-1]), "stage-3 candidates differ", id="stage3-order"),
        # the header's w differs from the broadcast
        pytest.param(1, "stage3_payload", lambda n: _stage3_from(n, reorder=lambda c: c[:-1]), r"stage-3 w \d+ != \d+", id="stage3-missing"),
        pytest.param(1, "stage3_payload", lambda n: _stage3_from(n, reorder=lambda c: c ^ np.uint32(1)), "stage-3 candidates differ", id="stage3-unknown"),
        # a block's records, against its slice of the broadcast
        pytest.param(1, "stage3_payload", lambda n: _stage3_from(n, answer=lambda r, lo, hi: r(lo, hi)[: 4 + 128]), "stage-3 candidates differ", id="stage3-short-block"),
        pytest.param(1, "stage3_payload", lambda n: _stage3_from(n, answer=lambda r, lo, hi: r(lo, hi)[:-1]), r"stage-3 block of \d+ bytes ends in a partial 132-byte record", id="stage3-partial-record"),
        pytest.param(1, "stage3_payload", lambda n: _stage3_from(n, header=lambda h: b""), "stage-3 payload truncated: 0 bytes", id="stage3-no-header"),
    ],
)
def test_coordinator_rejects_mismatched_payloads(target, stage, fake, fragment):
    trace, _ = _demo_trace(7)
    nodes = _scanned_nodes(trace, 3)
    assert run_window(nodes).candidates_count >= 2
    setattr(nodes[target], stage, fake(nodes[target]))
    with pytest.raises(ValueError, match=f"node {target}: {fragment}"):
        run_window(nodes)


def test_stage3_merge_does_not_write_through_payloads():
    trace, _ = _demo_trace(8)
    nodes = _scanned_nodes(trace, 3)
    expected = run_window(nodes)
    sent = []

    def received(chunk):
        # a writable buffer, as a socket receive would hand over
        chunk = bytearray(chunk)
        sent.append((chunk, bytes(chunk)))
        return chunk

    for node in nodes:

        def stage3_payload(candidates, payload=node.stage3_payload):
            header, build = payload(candidates)
            return received(header), lambda lo, hi: received(build(lo, hi))

        node.stage3_payload = stage3_payload
    report = run_window(nodes)
    assert report.super_points == expected.super_points
    assert len(sent) == 3 * 2  # a header and one block each
    assert all(chunk == snapshot for chunk, snapshot in sent)


def _pin_cpus(monkeypatch, cpus: int) -> list:
    """Pin the usable CPUs to `cpus`; return the list of the threads started."""
    started = []
    real_thread = threading.Thread

    def thread(*args, **kwargs):
        started.append(real_thread(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(threading, "Thread", thread)
    return started


def _pin_block_rows(monkeypatch, rows: int) -> None:
    """Make a stage-3 block hold `rows` records of PARAMS' sketches."""
    monkeypatch.setattr(coordinator, "_BLOCK_BYTES", rows * (PARAMS.le_len // 8))


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_stage3_report_does_not_depend_on_cpu_count(monkeypatch, cpus):
    # blocks of 1, 3 and 8 records, at least eight of them: the threads
    # split them, and every block is the OR of the same three node blocks
    # on any of them
    trace, planted = _demo_trace(5)
    nodes = _scanned_nodes(trace, 3)
    expected = run_window(nodes)
    started = _pin_cpus(monkeypatch, cpus)
    for rows in (1, 3, 8):
        _pin_block_rows(monkeypatch, rows)
        started.clear()
        report = run_window(nodes)
        blocks = -(-report.candidates_count // rows)
        assert blocks >= 8
        assert len(started) == _stage3_threads(blocks, cpus) - 1
        assert np.array_equal(report.candidates, expected.candidates)
        assert report.super_points == expected.super_points, rows
        assert planted <= {e.address for e in report.super_points}
        for stage in ("stage1_bytes", "stage2_bytes", "stage3_bytes"):
            assert getattr(report, stage) == getattr(expected, stage), (stage, rows)
        assert report.transmitted_fraction == expected.transmitted_fraction


def test_stage3_block_of_another_range_is_rejected(monkeypatch):
    # blocks of 8 records, and node 1 answers each range shifted by one
    # record, wrapping at the end: blocks of the right size that hold the
    # wrong candidates
    trace, _ = _demo_trace(5)
    nodes = _scanned_nodes(trace, 3)
    _pin_block_rows(monkeypatch, 8)
    assert run_window(nodes).candidates_count > 16
    shifted = lambda r, lo, hi: (r(lo + 1, hi + 1) + r(0, 1))[: len(r(lo, hi))]
    nodes[1].stage3_payload = _stage3_from(nodes[1], answer=shifted)
    with pytest.raises(ValueError, match="^node 1: stage-3 candidates differ from the broadcast$"):
        run_window(nodes)


@pytest.mark.parametrize(
    "failures, raised",
    [
        # (node, block, seconds before it fails)
        pytest.param({1: (2, 0.0), 2: (2, 0.0)}, 1, id="one-block-nodes1-2"),
        pytest.param({1: (2, 0.2), 2: (3, 0.0)}, 1, id="node1-fails-last"),
        pytest.param({1: (3, 0.0), 2: (2, 0.2)}, 2, id="node2-lower-block"),
    ],
)
def test_stage3_reports_the_lowest_failing_block_and_joins_every_thread(monkeypatch, failures, raised):
    # a block's nodes are built in node order, so the lowest failing block
    # raises the error of its first failing node, whichever fails first
    trace, _ = _demo_trace(7)
    nodes = _scanned_nodes(trace, 3)
    _pin_cpus(monkeypatch, 3)
    _pin_block_rows(monkeypatch, 2)
    for k, (bad, delay) in failures.items():

        def stage3_payload(candidates, payload=nodes[k].stage3_payload, k=k, bad=bad, delay=delay):
            header, build = payload(candidates)

            def fail_or_build(lo, hi):
                if lo == 2 * bad:
                    time.sleep(delay)
                    raise ValueError(f"node {k} cannot build block {bad}")
                return build(lo, hi)

            return header, fail_or_build

        nodes[k].stage3_payload = stage3_payload
    threads = threading.active_count()
    with pytest.raises(ValueError, match=f"^node {raised} cannot build block {failures[raised][0]}$"):
        run_window(nodes)
    assert threading.active_count() == threads
