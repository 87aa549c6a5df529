"""The u_hat x v_hat grid of linear estimators.

Each source address owns one cell per row (chosen by per-row column
hashes); every opposite host sets the same bit position in each of those
cells. At the end of a window a candidate's per-node sketch is the AND
of its row cells (collision bits rarely survive all rows), and the
global sketch is the OR of the per-node ANDs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .estimators import LinearEstimator
from .hashing import HashSuite


@dataclass(frozen=True)
class CandidateLE:
    """A candidate address with its inner-merged (row-ANDed) estimator."""

    candidate: int
    le: LinearEstimator


@dataclass(frozen=True)
class CandidateEstimate:
    address: int
    estimate: float
    saturated: bool
    is_super: bool


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
        byte_idx = bitpos >> 3
        vals = (np.uint8(1) << (bitpos & 7).astype(np.uint8)).astype(np.uint8)
        flat_cells = self.cells.reshape(self.u_hat, -1)
        for i in range(self.u_hat):
            col = hs.col_arr(a, i, self.v_hat)
            flat = col * (self.le_len // 8) + byte_idx
            np.bitwise_or.at(flat_cells[i], flat, vals)

    def cell(self, i: int, j: int) -> LinearEstimator:
        return LinearEstimator.from_bytes(self.cells[i, j].tobytes(), self.le_len)

    def extract_candidate(self, c: int, hs: HashSuite) -> CandidateLE:
        """Inner merge (AND) of the candidate's u_hat row cells."""
        acc = None
        for i in range(self.u_hat):
            col = hs.col(c, i, self.v_hat)
            row_cell = self.cells[i, col]
            acc = row_cell.copy() if acc is None else (acc & row_cell)
        return CandidateLE(
            candidate=c,
            le=LinearEstimator.from_bytes(acc.tobytes(), self.le_len),
        )

    def copy(self) -> "LEArray":
        dup = LEArray(self.u_hat, self.v_hat, self.le_len)
        dup.cells = self.cells.copy()
        return dup

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LEArray)
            and (other.u_hat, other.v_hat, other.le_len)
            == (self.u_hat, self.v_hat, self.le_len)
            and np.array_equal(other.cells, self.cells)
        )


def lea_merge_outer(leas: Sequence[LEArray]) -> LEArray:
    """Cell-wise OR of grids sharing one geometry."""
    if not leas:
        raise ValueError("cannot merge an empty sequence of LE arrays")
    first = leas[0]
    for lea in leas[1:]:
        if (lea.u_hat, lea.v_hat, lea.le_len) != (
            first.u_hat,
            first.v_hat,
            first.le_len,
        ):
            raise ValueError("LE array geometry mismatch")
    merged = first.copy()
    for lea in leas[1:]:
        np.bitwise_or(merged.cells, lea.cells, out=merged.cells)
    return merged


def outer_merge_les(les: Sequence[CandidateLE]) -> LinearEstimator:
    """OR the per-node sketches of one candidate."""
    if not les:
        raise ValueError("cannot merge an empty sequence of candidate LEs")
    candidate = les[0].candidate
    merged = les[0].le
    for entry in les[1:]:
        if entry.candidate != candidate:
            raise ValueError(
                f"candidate mismatch: {entry.candidate:#x} vs {candidate:#x}"
            )
        merged = merged.outer(entry.le)
    return merged


def estimate_candidates(
    merged: Mapping[int, LinearEstimator], theta: float
) -> list[CandidateEstimate]:
    """Estimate every candidate and flag super points (estimate > theta).

    Saturated estimators are reported super with the saturation flag set.
    Results are sorted by descending estimate, then ascending address.
    """
    results = []
    for address, le in merged.items():
        estimate, saturated = le.estimate()
        is_super = saturated or estimate > theta
        results.append(CandidateEstimate(address, estimate, saturated, is_super))
    results.sort(key=lambda e: (-e.estimate, e.address))
    return results
