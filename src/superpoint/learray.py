"""The u_hat x v_hat grid of linear estimators.

Each source address owns one cell per row (chosen by per-row column
hashes); every opposite host sets the same bit position in each of those
cells. At the end of a window a candidate's per-node sketch is the AND
of its row cells (collision bits rarely survive all rows), and the
global sketch is the OR of the per-node ANDs. A node gathers its
per-candidate sketches block by block, straight into the records of the
stage-3 block it sends, and the coordinator keeps only each merged
sketch's popcount.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import bit_groups, linear_count, or_bit_groups
from .hashing import HashSuite

#: bytes of candidate sketches gathered and ANDed per block
_GATHER_BYTES = 1 << 18


@dataclass(frozen=True)
class CandidateEstimate:
    address: int
    estimate: float
    saturated: bool


class LEArray:
    """Dense grid of bit vectors, packed 8 bits per byte (LSB first)."""

    def __init__(self, u_hat: int, v_hat: int, le_len: int):
        if u_hat < 1:
            raise ValueError(f"u_hat must be >= 1, got {u_hat}")
        for name, value in (("v_hat", v_hat), ("le_len", le_len)):
            if value <= 0 or value & (value - 1):
                raise ValueError(f"{name} must be a power of two, got {value}")
        if le_len < 8:
            raise ValueError(f"le_len must be at least 8 bits, got {le_len}")
        self.u_hat = u_hat
        self.v_hat = v_hat
        self.le_len = le_len
        self.cells = np.zeros((u_hat, v_hat, le_len // 8), dtype=np.uint8)

    @property
    def nbytes(self) -> int:
        return self.cells.size

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

    @property
    def block_rows(self) -> int:
        """Candidates per gather block: a cache-sized block of rows, so the
        ANDs stay in cache and no temporary grows with the candidate count."""
        return max(1, _GATHER_BYTES // (self.le_len // 8))

    def candidate_columns(self, cands, hs: HashSuite) -> list[np.ndarray]:
        """Each candidate's column in each of the u_hat rows."""
        cands = np.asarray(cands, dtype=np.uint32)
        return [hs.col_arr(cands, i, self.v_hat) for i in range(self.u_hat)]

    def extract_candidates(self, cols: list[np.ndarray], merged: np.ndarray) -> None:
        """Write the inner merge (AND) of the row cells at cols[i][j], i < u_hat,
        into row j of `merged`, a (len(cols[0]), le_len // 8) uint8 matrix;
        a strided view, such as a block's records, will do."""
        np.take(self.cells[0], cols[0], axis=0, out=merged)
        for i in range(1, self.u_hat):
            merged &= self.cells[i][cols[i]]


def popcounts(sketches: np.ndarray) -> np.ndarray:
    """The set bits of each row of a C-contiguous (w, le_len // 8) uint8 matrix."""
    words = sketches.view(np.uint64) if sketches.shape[1] % 8 == 0 else sketches
    return np.bitwise_count(words).sum(axis=1, dtype=np.int64)


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
    table = np.zeros(nbits + 1)
    for n0 in np.flatnonzero(np.bincount(zeros, minlength=nbits + 1)).tolist():
        table[n0] = linear_count(nbits, n0)[0]
    estimates = table[zeros]
    saturated = zeros == 0
    keep = np.flatnonzero(saturated | (estimates > theta))
    keep = keep[np.lexsort((addresses[keep], -estimates[keep]))]
    columns = (addresses[keep].tolist(), estimates[keep].tolist(), saturated[keep].tolist())
    return [CandidateEstimate(*row) for row in zip(*columns)]
