"""The u_hat x v_hat grid of linear estimators.

Each source address owns one cell per row (chosen by per-row column
hashes); every opposite host sets the same bit position in each of those
cells. At the end of a window a candidate's per-node sketch is the AND
of its row cells (collision bits rarely survive all rows), and the
global sketch is the OR of the per-node ANDs, which the coordinator
takes. A node gathers the sketches of whichever range of candidates it
is asked for, ANDing rows in a contiguous matrix. A candidate whose AND
is all zero after its first two rows, as the cube's phantom candidates
mostly are, costs two row gathers, not u_hat: an all-zero AND stays
zero. Popcounts and the linear-count estimates finish the window.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .estimators import bit_groups, linear_count, or_bit_groups
from .hashing import HashSuite


class CandidateEstimate(NamedTuple):
    address: int
    estimate: float
    saturated: bool


class LEArray:
    """Dense grid of bit vectors, packed 8 bits per byte (LSB first)."""

    def __init__(self, u_hat: int, v_hat: int, le_len: int):
        """An empty grid; the geometry is as checked by DetectorParams."""
        self.u_hat = u_hat
        self.v_hat = v_hat
        self.le_len = le_len
        self.cells = np.zeros((u_hat, v_hat, le_len // 8), dtype=np.uint8)

    def update_pairs(self, a: np.ndarray, b: np.ndarray, hs: HashSuite) -> None:
        """Fold a batch of (source, opposite) pairs into the grid."""
        if a.size == 0:
            return
        bitpos = hs.le_bit_arr(b, self.le_len)
        # a pair sets the same bit in every row: group the batch once
        order, groups = bit_groups(bitpos & 7)
        a = a[order]
        byte_idx = bitpos[order] >> 3
        flat_cells = self.cells.reshape(self.u_hat, -1)
        for i in range(self.u_hat):
            col = hs.col_arr(a, i, self.v_hat)
            or_bit_groups(flat_cells[i], col * (self.le_len // 8) + byte_idx, groups)

    def candidate_columns(self, cands, hs: HashSuite) -> list[np.ndarray]:
        """Each candidate's column in each of the u_hat rows."""
        cands = np.asarray(cands, dtype=np.uint32)
        return [hs.col_arr(cands, i, self.v_hat) for i in range(self.u_hat)]

    def extract_candidates(self, cols: list[np.ndarray]) -> np.ndarray:
        """The inner merge (AND) of the row cells at cols[i][j], i < u_hat,
        as row j of a new C-contiguous (len(cols[0]), le_len // 8) uint8
        matrix.

        Rows 0 and 1 are gathered for every candidate, rows 2.. only for
        those whose AND of the first two is not all zero: the others' AND
        is zero already."""
        merged = np.take(self.cells[0], cols[0], axis=0)
        if self.u_hat > 1:
            merged &= np.take(self.cells[1], cols[1], axis=0)
        live = np.flatnonzero(_words(merged).max(axis=1))
        rest = merged[live]
        for i in range(2, self.u_hat):
            rest &= np.take(self.cells[i], cols[i][live], axis=0)
        merged[live] = rest
        return merged


def _words(sketches: np.ndarray) -> np.ndarray:
    """A C-contiguous (w, le_len // 8) uint8 matrix as uint64 words where
    its rows are whole words, else as it is."""
    return sketches.view(np.uint64) if sketches.shape[1] % 8 == 0 else sketches


def popcounts(sketches: np.ndarray) -> np.ndarray:
    """The set bits of each row of a C-contiguous (w, le_len // 8) uint8 matrix."""
    return np.bitwise_count(_words(sketches)).sum(axis=1, dtype=np.int64)


def estimate_candidates(
    addresses: np.ndarray, set_bits: np.ndarray, nbits: int, theta: float
) -> list[CandidateEstimate]:
    """The super points among the candidates: those whose merged nbits-bit
    sketch, with set_bits[i] bits set for addresses[i], estimates above
    theta, or saturates.

    Results are sorted by descending estimate, then ascending address.
    """
    addresses = np.asarray(addresses, dtype=np.uint32)
    zeros = nbits - np.asarray(set_bits, dtype=np.int64)
    # the scalar formula once per distinct zero count, so every estimate
    # is exactly the float linear_count gives
    distinct, inverse = np.unique(zeros, return_inverse=True)
    estimates = np.array([linear_count(nbits, n0)[0] for n0 in distinct.tolist()], float)[inverse]
    saturated = zeros == 0
    keep = np.flatnonzero(saturated | (estimates > theta))
    keep = keep[np.lexsort((addresses[keep], -estimates[keep]))]
    columns = (addresses[keep].tolist(), estimates[keep].tolist(), saturated[keep].tolist())
    return list(map(CandidateEstimate._make, zip(*columns)))
