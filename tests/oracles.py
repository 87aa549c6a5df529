"""Scalar reference implementations that the vectorized library is
tested against. They are deliberately simple and slow."""

from __future__ import annotations

from typing import Sequence

from superpoint.estimators import CANDIDATE_BITS
from superpoint.recube import RECube, RECubeConfig


def reconstruct_left_part(js: Sequence[int], cfg: RECubeConfig) -> int | None:
    """Deposit per-row index bits back into the left part of an address.

    Returns None when two windows disagree on a shared bit, which cannot
    happen for indexes derived from one address but guards phantom tuples
    in geometries with non-adjacent window overlaps.
    """
    n = cfg.left_bits
    bits: list[int] = [-1] * n
    for (si, li), j in zip(zip(cfg.s, cfg.l), js):
        for t in range(li):
            pos = (si + t) % n
            bit = (j >> t) & 1
            if bits[pos] == -1:
                bits[pos] = bit
            elif bits[pos] != bit:
                return None
    lp = 0
    for pos, bit in enumerate(bits):
        lp |= bit << pos
    return lp


def dfs_recover_candidates(rec: RECube) -> set[int]:
    """Per-plane depth-first candidate recovery.

    Per plane: collect the per-row cell indexes whose estimator has >= 3
    set bits, chain them depth-first on the overlap-equality rule
    (including the cyclic wraparound back to row 0), AND the chained
    cells to reject tuples assembled from unrelated hosts, and deposit
    the surviving index bits back into full addresses.
    """
    cfg = rec.config
    u = cfg.u
    overlaps = cfg.overlaps
    found: set[int] = set()

    for k in range(1 << cfg.r):
        cand = [
            [j for j, v in enumerate(row[k].tolist()) if v.bit_count() >= CANDIDATE_BITS]
            for row in rec.rows
        ]
        if not all(cand):
            continue
        # Bucket row i+1 candidates by their low overlap bits so the DFS
        # only visits chain-compatible extensions.
        buckets: list[dict[int, list[int]]] = []
        for i in range(1, u):
            mask = (1 << overlaps[i - 1]) - 1
            by_low: dict[int, list[int]] = {}
            for j in cand[i]:
                by_low.setdefault(j & mask, []).append(j)
            buckets.append(by_low)
        wrap = overlaps[-1]
        wrap_mask = (1 << wrap) - 1

        stack: list[int] = []

        def dfs(i: int) -> None:
            if i == u:
                j_last, j0 = stack[-1], stack[0]
                if (j_last >> (cfg.l[u - 1] - wrap)) != (j0 & wrap_mask):
                    return
                merged = 0xFF
                for row_i, j in enumerate(stack):
                    merged &= int(rec.rows[row_i][k, j])
                if merged.bit_count() < CANDIDATE_BITS:
                    return
                lp = reconstruct_left_part(stack, cfg)
                if lp is not None:
                    found.add((lp << cfg.r) | k)
                return
            if i == 0:
                for j in cand[0]:
                    stack.append(j)
                    dfs(1)
                    stack.pop()
                return
            o = overlaps[i - 1]
            top = stack[-1] >> (cfg.l[i - 1] - o)
            for j in buckets[i - 1].get(top, ()):
                stack.append(j)
                dfs(i + 1)
                stack.pop()

        dfs(0)
    return found
