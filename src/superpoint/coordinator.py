"""Global server: the three-stage window protocol and its accounting.

Stage 1 collects every node's cube and ORs them; candidates are recovered
from the merged cube. Stage 2 broadcasts the candidate list. Stage 3
collects one inner-merged estimator per candidate per node as a
(w, le_len / 8) matrix, ORs the matrices, and keeps the candidates
whose estimate exceeds the threshold.

The transport is in-process, but every stage moves through the byte-exact
wire encodings, so the counted sizes are what a socket would carry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .learray import CandidateEstimate, estimate_candidates
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


def _received(node: ObservationNode, window_id: int, decode, payload) -> list:
    """Decode a node's payload and check that it is that node's, for this window."""
    header, *body = decode(payload)
    _check(node, header.stage, "window_id", header.window_id, window_id)
    _check(node, header.stage, "node_id", header.node_id, node.node_id)
    return body


def run_window(nodes: list[ObservationNode]) -> WindowReport:
    """Drive the three-stage protocol across already-scanned nodes.

    A payload for another window, node or cube geometry, or a stage-3 payload
    whose le_len or candidates differ from what was asked, raises ValueError.
    """
    _check_nodes(nodes)
    window_id = nodes[0].window_id
    le_len = nodes[0].params.le_len

    # Stage 1: collect cubes, merge, recover candidates.
    stage1_payloads = [node.stage1_payload() for node in nodes]
    cubes = []
    for node, payload in zip(nodes, stage1_payloads):
        (cube,) = _received(node, window_id, wire.decode_stage1, payload)
        _check(node, 1, "geometry", cube.config, node.cube_config)
        cubes.append(cube)
    merged_cube = rec_merge_outer(cubes)
    candidates = recover_candidates(merged_cube)

    # Stage 2: identical broadcast, counted once per node; every node
    # answers the candidates it decodes from it.
    stage2_payload = wire.encode_stage2(window_id, candidates)
    _, broadcast = wire.decode_stage2(stage2_payload)

    # Stage 3: per-candidate estimators, OR-merged across nodes into a
    # copy of the first node's matrix (the payloads stay untouched).
    stage3_payloads = [node.stage3_payload(broadcast) for node in nodes]
    sketches = None
    for node, payload in zip(nodes, stage3_payloads):
        got, les = _received(node, window_id, wire.decode_stage3, payload)
        _check(node, 3, "le_len", les.shape[1] * 8, le_len)
        if not np.array_equal(got, candidates):
            raise ValueError(f"node {node.node_id}: stage-3 candidates differ from the broadcast")
        sketches = les.copy() if sketches is None else np.bitwise_or(sketches, les, out=sketches)

    return WindowReport(
        window_id=window_id,
        super_points=estimate_candidates(candidates, sketches, nodes[0].params.theta),
        candidates=candidates,
        stage1_bytes=[len(p) for p in stage1_payloads],
        stage2_bytes=[len(stage2_payload)] * len(nodes),
        stage3_bytes=[len(p) for p in stage3_payloads],
        master_structure_bytes=nodes[0].master_structure_bytes(),
        pairs_scanned=sum(n.pairs_scanned for n in nodes),
    )

