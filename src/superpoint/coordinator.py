"""Global server: the three-stage window protocol and its accounting.

Stage 1 collects every node's cube and ORs them; candidates are recovered
from the merged cube. Stage 2 broadcasts the candidate list. Stage 3
pulls one inner-merged estimator per candidate per node, block by block
from every node in lockstep, ORs each block across the nodes, keeps the
merged sketches' popcounts, and reports the candidates whose estimate
exceeds the threshold.

The transport is in-process, but every stage moves through the byte-exact
wire encodings, so the counted sizes are what a socket would carry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .learray import CandidateEstimate, estimate_candidates, popcounts
from .node import ObservationNode
from .recube import rec_merge_outer, recover_candidates
from . import wire


@dataclass
class WindowReport:
    """What one window reports, each value computed once."""

    window_id: int
    super_points: list[CandidateEstimate]
    candidates: np.ndarray
    stage1_bytes: list[int]
    stage2_bytes: list[int]
    stage3_bytes: list[int]
    master_structure_bytes: int
    pairs_scanned: int

    @property
    def candidates_count(self) -> int:
        return len(self.candidates)

    @property
    def per_node_fractions(self) -> list[float]:
        return [
            (s1 + s2 + s3) / self.master_structure_bytes
            for s1, s2, s3 in zip(self.stage1_bytes, self.stage2_bytes, self.stage3_bytes)
        ]

    @property
    def transmitted_fraction(self) -> float:
        return float(np.mean(self.per_node_fractions))


def _check_nodes(nodes: list[ObservationNode]) -> None:
    if not nodes:
        raise ValueError("at least one observation node is required")
    first = nodes[0].fingerprint()
    for node in nodes[1:]:
        if node.fingerprint() != first:
            raise ValueError(
                "node configuration mismatch: all nodes must share the "
                f"same parameters and master seed; node {node.node_id} "
                f"differs from node {nodes[0].node_id}"
            )


def _check(node: ObservationNode, stage: int, name: str, got, want) -> None:
    if got != want:
        raise ValueError(f"node {node.node_id}: stage-{stage} {name} {got} != {want}")


def _received(node: ObservationNode, stage: int, window_id: int, decode, payload) -> list:
    """Decode a node's payload and check that it is that node's, for this window."""
    header, *body = _decoded(node, stage, decode, payload)
    _check(node, stage, "window_id", header.window_id, window_id)
    _check(node, stage, "node_id", header.node_id, node.node_id)
    return body


def _decoded(node: ObservationNode, stage: int, decode, *args):
    """decode(*args), re-raising a malformed payload's error with the node and stage."""
    try:
        return decode(*args)
    except ValueError as exc:
        raise ValueError(f"node {node.node_id}: stage-{stage} {exc}") from None


def run_window(nodes: list[ObservationNode]) -> WindowReport:
    """Drive the three-stage protocol across already-scanned nodes.

    A payload for another window, node or cube geometry, a stage-3 stream
    whose le_len, w or candidates differ from what was asked, and a stream
    that is malformed, ends early or runs long raise ValueError naming the
    node and the stage.
    """
    _check_nodes(nodes)
    window_id = nodes[0].window_id
    le_len = nodes[0].params.le_len

    # Stage 1: collect cubes, merge, recover candidates.
    stage1_payloads = [node.stage1_payload() for node in nodes]
    cubes = []
    for node, payload in zip(nodes, stage1_payloads):
        (cube,) = _received(node, 1, window_id, wire.decode_stage1, payload)
        _check(node, 1, "geometry", cube.config, node.cube_config)
        cubes.append(cube)
    merged_cube = rec_merge_outer(cubes)
    candidates = recover_candidates(merged_cube)

    # Stage 2: identical broadcast, counted once per node; every node
    # answers the candidates it decodes from it.
    stage2_payload = wire.encode_stage2(window_id, candidates)
    _, broadcast = wire.decode_stage2(stage2_payload)

    # Stage 3: every node streams its header, then its records block by
    # block; each block is ORed across the nodes into one scratch block,
    # and only the merged sketches' popcounts are kept.
    w = len(candidates)
    streams = [node.stage3_payload(broadcast) for node in nodes]
    stage3_bytes = []
    for node, stream in zip(nodes, streams):
        header = next(stream, b"")
        got_w, got_le_len = _received(node, 3, window_id, wire.decode_stage3_header, header)
        _check(node, 3, "le_len", got_le_len, le_len)
        _check(node, 3, "w", got_w, w)
        stage3_bytes.append(len(header))
    step = nodes[0].lea.block_rows
    merged = np.empty((min(step, w), le_len // 8), np.uint8)
    set_bits = np.empty(w, np.int64)
    for lo in range(0, w, step):
        want = candidates[lo : lo + step]
        block_merged = merged[: want.size]
        for k, (node, stream) in enumerate(zip(nodes, streams)):
            block = next(stream, None)
            if block is None:
                raise ValueError(f"node {node.node_id}: stage-3 stream ended after {lo} of {w} records")
            got, les = _decoded(node, 3, wire.decode_stage3_block, block, le_len)
            if not np.array_equal(got, want):
                raise ValueError(f"node {node.node_id}: stage-3 candidates differ from the broadcast")
            if k:
                np.bitwise_or(block_merged, les, out=block_merged)
            else:
                block_merged[:] = les
            stage3_bytes[k] += len(block)
        set_bits[lo : lo + step] = popcounts(block_merged)
    # every stream must end with its w records; pull from each, as zip()
    # would drop the extra block of one stream when a later one ends
    for node, stream in zip(nodes, streams):
        if next(stream, None) is not None:
            raise ValueError(f"node {node.node_id}: stage-3 stream runs past its {w} records")

    return WindowReport(
        window_id=window_id,
        super_points=estimate_candidates(candidates, set_bits, le_len, nodes[0].params.theta),
        candidates=candidates,
        stage1_bytes=[len(p) for p in stage1_payloads],
        stage2_bytes=[len(stage2_payload)] * len(nodes),
        stage3_bytes=stage3_bytes,
        master_structure_bytes=nodes[0].master_structure_bytes(),
        pairs_scanned=sum(n.pairs_scanned for n in nodes),
    )
