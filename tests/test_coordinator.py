import numpy as np
import pytest
from oracles import encode_stage1, encode_stage3, expected_comms, extract

from superpoint import wire
from superpoint.coordinator import run_window
from superpoint.estimators import DetectorParams
from superpoint.harness import TraceSpec, generate_trace, partition_stream
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


def _stage3_from(node, window_id=None, node_id=None, le_len=None, reorder=None):
    def payload(candidates):
        candidates = np.asarray(candidates, np.uint32)
        if reorder is not None:
            candidates = reorder(candidates)
        sketches = extract(node.lea, candidates, node.hs)
        if le_len is not None:
            sketches = sketches[:, : le_len // 8]
        return encode_stage3(
            node.node_id if node_id is None else node_id,
            node.window_id if window_id is None else window_id,
            candidates,
            sketches,
            le_len or node.params.le_len,
        )

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
        pytest.param(1, "stage3_payload", lambda n: _stage3_from(n, reorder=lambda c: c[:-1]), "stage-3 candidates differ", id="stage3-missing"),
        pytest.param(1, "stage3_payload", lambda n: _stage3_from(n, reorder=lambda c: c ^ np.uint32(1)), "stage-3 candidates differ", id="stage3-unknown"),
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

        def stage3_payload(candidates, encode=node.stage3_payload):
            # a writable buffer, as a socket receive would hand over
            payload = bytearray(encode(candidates))
            sent.append((payload, bytes(payload)))
            return payload

        node.stage3_payload = stage3_payload
    report = run_window(nodes)
    assert report.super_points == expected.super_points
    assert len(sent) == 3
    assert all(payload == snapshot for payload, snapshot in sent)
