import tracemalloc

import numpy as np
import pytest
from oracles import encode_stage1, encode_stage3, expected_comms, extract

from superpoint import wire
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
    assert report.stage1_bytes == [wire.stage1_size(CFG)] * 3
    assert report.stage2_bytes == [wire.stage2_size(w)] * 3
    assert report.stage3_bytes == [wire.stage3_size(w, PARAMS.le_len)] * 3
    assert report.master_structure_bytes == CFG.nbytes + PARAMS.lea_bytes
    expected_fraction = (
        wire.stage1_size(CFG) + wire.stage2_size(w) + wire.stage3_size(w, PARAMS.le_len)
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
    assert report.stage3_bytes == [wire.stage3_size(0, PARAMS.le_len)] * 2


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
        [extract(node.lea, read.candidates, node.hs) for node in nodes]
    )
    assert np.array_equal(merged & extract(single.lea, read.candidates, single.hs), merged)
    # per-candidate stage 3 ships less than the whole LE grid
    assert read.stage3_bytes[0] < PARAMS.lea_bytes


def test_stage3_memory_is_a_few_blocks_not_w_sketches():
    # a dense 3-node window, w above 2000 at |C| = 2^14: the nodes and the
    # coordinator hold a few blocks of stage 3 at a time, never a
    # (w, |C|/8) matrix; one per node and a merged copy read about 4 payloads
    cfg = RECubeConfig(r=4, l=(12, 12, 12), s=(0, 9, 18))
    params = DetectorParams(theta=32, le_len=2**14, u_hat=3, v_hat=256)
    rng = np.random.default_rng(40)
    planted = tuple((int(a), 112) for a in rng.choice(2**32, 400, replace=False))
    trace = generate_trace(TraceSpec(planted=planted, theta=32), 40)
    nodes = _scanned_nodes(trace, 3, params=params, cfg=cfg, seed=9)
    tracemalloc.start()
    try:
        report = run_window(nodes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.candidates_count > 2000
    assert peak < report.stage3_bytes[0], peak / report.stage3_bytes[0]
    # the same estimates as from the OR of whole (w, |C|/8) matrices
    merged = np.bitwise_or.reduce([extract(n.lea, report.candidates, n.hs) for n in nodes])
    assert report.super_points == estimate_candidates(report.candidates, popcounts(merged), 2**14, 32)
    assert {e.address for e in report.super_points} >= {a for a, _ in planted}


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


def _stage1_from(node, window_id=None, node_id=None, cube=None):
    return lambda: encode_stage1(
        node.node_id if node_id is None else node_id,
        node.window_id if window_id is None else window_id,
        node.rec if cube is None else cube,
    )


def _chunks(payload: bytes, le_len: int, rows: int) -> list[bytes]:
    """A whole stage-3 payload as the stream a node sends: the header, then
    blocks of `rows` records."""
    size = rows * (4 + le_len // 8)
    body = payload[wire.STAGE3_HEADER_LEN :]
    return [payload[: wire.STAGE3_HEADER_LEN]] + [body[i : i + size] for i in range(0, len(body), size)]


def _stage3_from(node, window_id=None, node_id=None, le_len=None, reorder=None, edit=None):
    """A fake stage3_payload: the reference encoding of what the node would
    send, with the given fields changed, as a stream; `edit` changes the
    list of chunks."""

    def payload(candidates):
        candidates = np.asarray(candidates, np.uint32)
        if reorder is not None:
            candidates = reorder(candidates)
        sketches = extract(node.lea, candidates, node.hs)
        if le_len is not None:
            sketches = sketches[:, : le_len // 8]
        whole = encode_stage3(
            node.node_id if node_id is None else node_id,
            node.window_id if window_id is None else window_id,
            candidates,
            sketches,
            le_len or node.params.le_len,
        )
        chunks = _chunks(whole, le_len or node.params.le_len, node.lea.block_rows)
        return iter(chunks if edit is None else edit(chunks))

    return payload


@pytest.mark.parametrize(
    "target, stage, fake, fragment",
    [
        pytest.param(1, "stage1_payload", lambda n: _stage1_from(n, window_id=8), "stage-1 window_id 8 != 0", id="stage1-window"),
        pytest.param(1, "stage1_payload", lambda n: _stage1_from(n, node_id=5), "stage-1 node_id 5 != 1", id="stage1-node"),
        # an r=3 cube in an r=2 run; a lone node's cube has no other to differ from
        pytest.param(0, "stage1_payload", lambda n: _stage1_from(n, cube=RECube(OTHER_CFG)), r"stage-1 geometry RECubeConfig\(r=3", id="stage1-geometry"),
        pytest.param(1, "stage3_payload", lambda n: _stage3_from(n, window_id=8), "stage-3 window_id 8 != 0", id="stage3-window"),
        pytest.param(1, "stage3_payload", lambda n: _stage3_from(n, node_id=5), "stage-3 node_id 5 != 1", id="stage3-node"),
        pytest.param(1, "stage3_payload", lambda n: _stage3_from(n, le_len=512), "stage-3 le_len 512 != 1024", id="stage3-le-len"),
        pytest.param(1, "stage3_payload", lambda n: _stage3_from(n, reorder=lambda c: c[::-1]), "stage-3 candidates differ", id="stage3-order"),
        # the header's w differs from the broadcast
        pytest.param(1, "stage3_payload", lambda n: _stage3_from(n, reorder=lambda c: c[:-1]), r"stage-3 w \d+ != \d+", id="stage3-missing"),
        pytest.param(1, "stage3_payload", lambda n: _stage3_from(n, reorder=lambda c: c ^ np.uint32(1)), "stage-3 candidates differ", id="stage3-unknown"),
        # a block's records, against its slice of the broadcast
        pytest.param(1, "stage3_payload", lambda n: _stage3_from(n, edit=lambda c: [c[0], c[1][: 4 + 128], *c[2:]]), "stage-3 candidates differ", id="stage3-short-block"),
        pytest.param(1, "stage3_payload", lambda n: _stage3_from(n, edit=lambda c: [c[0], c[1][:-1], *c[2:]]), r"stage-3 block of \d+ bytes ends in a partial 132-byte record", id="stage3-partial-record"),
        pytest.param(1, "stage3_payload", lambda n: _stage3_from(n, edit=lambda c: c[:1]), r"stage-3 stream ended after 0 of \d+ records", id="stage3-ends-early"),
        pytest.param(1, "stage3_payload", lambda n: _stage3_from(n, edit=lambda c: []), "stage-3 payload truncated: 0 bytes", id="stage3-no-header"),
        pytest.param(1, "stage3_payload", lambda n: _stage3_from(n, edit=lambda c: c + c[1:]), r"stage-3 stream runs past its \d+ records", id="stage3-extra-block"),
        # node 0 runs long while the later nodes end on time: zip() would
        # drop the block it had already pulled from node 0
        pytest.param(0, "stage3_payload", lambda n: _stage3_from(n, edit=lambda c: c + c[1:]), r"stage-3 stream runs past its \d+ records", id="stage3-first-runs-long"),
        pytest.param(2, "stage3_payload", lambda n: _stage3_from(n, edit=lambda c: c[:1]), r"stage-3 stream ended after 0 of \d+ records", id="stage3-last-ends-early"),
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
    for node in nodes:

        def stage3_payload(candidates, stream=node.stage3_payload):
            # writable buffers, as a socket receive would hand over
            for chunk in stream(candidates):
                chunk = bytearray(chunk)
                sent.append((chunk, bytes(chunk)))
                yield chunk

        node.stage3_payload = stage3_payload
    report = run_window(nodes)
    assert report.super_points == expected.super_points
    assert len(sent) == 3 * 2  # a header and one block each
    assert all(chunk == snapshot for chunk, snapshot in sent)
