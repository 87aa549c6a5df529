"""Global server: the three-stage window protocol and its accounting.

Stage 1 collects every node's cube, as a header and a read-only view of
the node's own cells, and recovers the candidates of the cubes' OR,
which it computes a fixed-size chunk at a time: no merged cube is built.
Stage 2 broadcasts the candidate list. Stage 3 collects one
inner-merged estimator per candidate per node, block by block: the
coordinator cuts the candidates into fixed-size ranges and asks every
node for each one. Up to one thread per four blocks splits them; each
builds its block at every node, ORs it across the nodes, keeps the
merged sketches' popcounts and drops each node's block once it is ORed.
Then the coordinator reports the candidates whose estimate exceeds the
threshold.

The transport is in-process, but every stage moves through the byte-exact
wire encodings, so the counted sizes are what a socket would carry.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .learray import CandidateEstimate, estimate_candidates, popcounts
from .node import ObservationNode
from .parallel import run_indexed
from .recube import recover_candidates
from . import wire

#: bytes of candidate sketches per stage-3 block: stage 3 holds about
#: three blocks per thread from folded grids, and from sealed ones u_hat + 1
#: blocks and the expansion of up to `learray._KEY_CHUNK` light keys; its
#: threads pay for each numpy call that hands the GIL over, so fewer,
#: larger blocks run faster
_BLOCK_BYTES = 1 << 19


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
    def transmitted_fraction(self) -> float:
        """The mean over the nodes of the bytes each sent, as a fraction of
        one node's sketches."""
        return float(np.mean([
            (s1 + s2 + s3) / self.master_structure_bytes
            for s1, s2, s3 in zip(self.stage1_bytes, self.stage2_bytes, self.stage3_bytes)
        ]))


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


def _received(node: ObservationNode, stage: int, window_id: int, decode, *chunks) -> list:
    """Decode a node's payload and check that it is that node's, for this window."""
    header, *body = _decoded(node, stage, decode, *chunks)
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

    A payload for another window, node or cube geometry, a stage-3
    payload whose le_len, w or candidates differ from what was asked, and
    a malformed payload raise ValueError naming the node and the stage.
    The stage-3 headers are checked before any block is built; a block is
    checked as it arrives, and when blocks fail, the error raised is that
    of the lowest failing block, from its first failing node, once every
    thread is joined.
    """
    _check_nodes(nodes)
    window_id = nodes[0].window_id
    le_len = nodes[0].params.le_len

    # Stage 1: collect cubes, recover the candidates of their OR.
    cubes, stage1_bytes = [], []
    for node in nodes:
        header, cells = node.stage1_payload()
        (cube,) = _received(node, 1, window_id, wire.decode_stage1, header, cells)
        _check(node, 1, "geometry", cube.config, node.cube_config)
        cubes.append(cube)
        stage1_bytes.append(len(header) + cube.cells.nbytes)
    candidates = recover_candidates(*cubes)

    # Stage 2: identical broadcast, counted once per node; every node
    # answers the candidates it decodes from it.
    stage2_payload = wire.encode_stage2(window_id, candidates)
    _, broadcast = wire.decode_stage2(stage2_payload)

    # Stage 3: every node answers with its header and a builder. Blocks
    # of candidates are independent, so the threads of run_indexed each
    # take the next block index, build that range at every node in node
    # order, OR it into the thread's own scratch block and keep only the
    # merged sketches' popcounts.
    w = len(candidates)
    step = max(1, _BLOCK_BYTES // (le_len // 8))
    n_blocks = -(-w // step)
    payloads = [node.stage3_payload(broadcast) for node in nodes]
    for node, (header, _) in zip(nodes, payloads):
        got_w, got_le_len = _received(node, 3, window_id, wire.decode_stage3_header, header)
        _check(node, 3, "le_len", got_le_len, le_len)
        _check(node, 3, "w", got_w, w)
    set_bits = np.empty(w, np.int64)
    block_bytes = np.zeros((n_blocks, len(nodes)), np.int64)
    scratch = threading.local()

    def merge_block(i: int) -> None:
        lo, hi = i * step, min(w, (i + 1) * step)
        if not hasattr(scratch, "merged"):
            scratch.merged = np.empty((min(step, w), le_len // 8), np.uint8)
        merged = scratch.merged[: hi - lo]
        for k, (node, (_, build)) in enumerate(zip(nodes, payloads)):
            block = build(lo, hi)
            got, les = _decoded(node, 3, wire.decode_stage3_block, block, le_len)
            if not np.array_equal(got, candidates[lo:hi]):
                raise ValueError(f"node {node.node_id}: stage-3 candidates differ from the broadcast")
            if k:
                np.bitwise_or(merged, les, out=merged)
            else:
                merged[:] = les
            block_bytes[i, k] = len(block)
            del block, got, les  # before the next node's block is built
        set_bits[lo:hi] = popcounts(merged)

    # a thread holds about three blocks: at four blocks or more per thread,
    # stage 3 holds less than one node's payload on any number of CPUs
    run_indexed(n_blocks, merge_block, max_threads=max(1, n_blocks // 4))
    stage3_bytes = [len(header) + int(n) for (header, _), n in zip(payloads, block_bytes.sum(axis=0))]

    return WindowReport(
        window_id=window_id,
        super_points=estimate_candidates(candidates, set_bits, le_len, nodes[0].params.theta),
        candidates=candidates,
        stage1_bytes=stage1_bytes,
        stage2_bytes=[len(stage2_payload)] * len(nodes),
        stage3_bytes=stage3_bytes,
        master_structure_bytes=nodes[0].master_structure_bytes(),
        pairs_scanned=sum(n.pairs_scanned for n in nodes),
    )
