"""The u_hat x v_hat grid of linear estimators.

Each source address owns one cell per row (chosen by per-row column
hashes); every opposite host sets the same bit position in each of those
cells. At the end of a window a candidate's per-node sketch is the AND
of its row cells (collision bits rarely survive all rows), and the
global sketch is the OR of the per-node ANDs, which the coordinator
takes. A node gathers the sketches of whichever range of candidates it
is asked for, ANDing rows in a contiguous matrix. On a folded grid, a
candidate whose AND is all zero after its first two rows, as the cube's
phantom candidates mostly are, costs two row gathers, not u_hat: an
all-zero AND stays zero. Popcounts and the linear-count estimates
finish the window.

The grid is sparse first, as HyperLogLog++'s registers are (Heule,
Nunkesser and Hall, "HyperLogLog in Practice", EDBT 2013). A window's
scan only logs each pair's bit position and its u_hat columns. At the
window end the log is either folded, written into cells, which then
take the rest of the window's writes in place, or sealed: each row's
keys, column << log2(le_len) | bit, are sorted once, and a column whose
keys would take more bytes than its cell is promoted to a cell, while
the other, light, columns keep their keys. A log that reaches its cap
folds. Each row maps its columns to their cells: a column gets the next
cell from the front of the grid when it is promoted, or on its first
write once the grid has folded, and a column without one reads a zero
cell. The grid is reserved whole but left untouched, so a folded window
holds one cell per written (row, column), a sealed one a cell per
promoted column.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, NamedTuple

import numpy as np

from .estimators import bit_groups, linear_count, or_bit_groups
from .hashing import HashSuite

#: keys a seal, a fold or a light gather expands at a time
_KEY_CHUNK = 1 << 16

#: the bytes of a column's entries in a sealed row's map and runs
_TABLE_BYTES = 3 * np.dtype(np.intp).itemsize


class CandidateEstimate(NamedTuple):
    address: int
    estimate: float
    saturated: bool


def key_dtype(v_hat: int, le_len: int) -> np.dtype:
    """The unsigned type of a sealed key, column << log2(le_len) | bit."""
    return np.min_scalar_type(v_hat * le_len - 1)


def promote_threshold(le_len: int, key_bytes: int) -> int:
    """The most keys a sealed column keeps as keys: one more and they
    would take more bytes than its le_len-bit cell."""
    return le_len // 8 // key_bytes


def log_cap(u_hat: int, v_hat: int, le_len: int) -> int:
    """The most pairs a window logs before its grid folds: as many as keep
    the sealed form, u_hat keys per pair and each row's column table,
    within half the grid. A promoted cell takes fewer bytes than the keys
    it stands for, so a sealed window holds less than its grid. 0 where
    the tables alone take half of it."""
    room = u_hat * v_hat * (le_len // 16 - _TABLE_BYTES)
    return max(0, room) // (u_hat * key_dtype(v_hat, le_len).itemsize)


def fold_due(candidate_cells: int, log_pairs: int, u_hat: int, le_len: int, key_bytes: int) -> bool:
    """Whether a log is better folded: the u_hat cells that stage 3 would
    gather for each of `candidate_cells` candidates outweigh the u_hat
    keys of each of the `log_pairs` logged pairs."""
    return candidate_cells * u_hat * (le_len // 8) > log_pairs * u_hat * key_bytes


def _or_keys(row: np.ndarray, keys: np.ndarray, targets, shift: int) -> None:
    """OR the bit of each key, column << shift | bit, into the flat uint8
    `row` at the cell that starts at its target byte (one for all keys,
    or one per key)."""
    bits = keys & ((1 << shift) - 1)
    np.bitwise_or.at(row, targets + (bits >> 3), np.left_shift(1, bits & 7, dtype=np.uint8))


def _or_runs(row, keys, starts, counts, targets, shift: int) -> None:
    """`_or_keys` of the run keys[starts[k]:starts[k] + counts[k]] at
    targets[k], for every k: runs are expanded together up to _KEY_CHUNK
    keys at a time, and a longer run is read a slice at a time."""
    ends = np.cumsum(counts)
    k = 0
    while k < counts.size:
        done = int(ends[k - 1]) if k else 0
        stop = int(np.searchsorted(ends, done + _KEY_CHUNK, side="right"))
        if stop == k:  # run k alone is longer than a chunk
            end = starts[k] + counts[k]
            for lo in range(starts[k], end, _KEY_CHUNK):
                _or_keys(row, keys[lo : min(lo + _KEY_CHUNK, end)], targets[k], shift)
            stop = k + 1
        else:
            c = counts[k:stop]
            index = np.repeat(starts[k:stop] - (ends[k:stop] - c), c) + np.arange(done, int(ends[stop - 1]))
            _or_keys(row, keys[index], np.repeat(targets[k:stop], c), shift)
        k = stop


class LEArray:
    """Grid of bit vectors, packed 8 bits per byte (LSB first): a log of
    the window's keys until the window end, then a cell per written
    column, or sorted keys with promoted cells."""

    def __init__(self, u_hat: int, v_hat: int, le_len: int):
        """An empty grid; the geometry is as checked by DetectorParams."""
        self.u_hat = u_hat
        self.v_hat = v_hat
        self.le_len = le_len
        # reserved, not touched: only the cells handed out take memory; the
        # first is never handed out, so it reads zero
        self.cells = np.zeros((u_hat * v_hat + 1, le_len // 8), dtype=np.uint8)
        #: per row and column, its cell in `cells`: 0, the zero cell, for none
        self._map = np.zeros((u_hat, v_hat), np.intp)
        #: the cells handed out, from the front of `cells`
        self._promoted = 0
        self.cap = log_cap(u_hat, v_hat, le_len)
        self._key = key_dtype(v_hat, le_len)
        self.key_bytes = self._key.itemsize
        self._shift = le_len.bit_length() - 1
        #: per batch, a (u_hat + 1, n) array of the bit positions, then
        #: each row's columns; None once the log is sealed or folded
        self._log: list[np.ndarray] | None = []
        self._log_type = np.min_scalar_type(max(v_hat, le_len) - 1)
        self.log_pairs = 0
        #: once sealed, until it folds: every row's sorted keys, row after
        #: row, and per row and column its first key and its count of
        #: light keys
        self._keys = self._runs = None
        self.folded = False

    @property
    def logging(self) -> bool:
        """Whether the grid still logs its pairs: it has neither folded nor sealed."""
        return self._log is not None

    def update_pairs(self, a: np.ndarray, b: np.ndarray, hs: HashSuite) -> None:
        """Fold a batch of (source, opposite) pairs into the grid: log them,
        or write them into their cells once it has folded. A batch that
        would take the log past its cap, or that comes after a seal, folds
        the grid first."""
        if a.size == 0:
            return
        if not self.folded and (not self.logging or self.log_pairs + a.size > self.cap):
            deque(self.fold(), maxlen=0)
        bitpos = hs.le_bit_arr(b, self.le_len)
        if self.logging:
            entry = np.empty((self.u_hat + 1, a.size), self._log_type)
            entry[0] = bitpos
            for i in range(self.u_hat):
                entry[i + 1] = hs.col_arr(a, i, self.v_hat)
            self._log.append(entry)
            self.log_pairs += a.size
            return
        # a pair sets the same bit in every row: group the batch once
        order, groups = bit_groups(bitpos & 7)
        a = a[order]
        byte_idx = bitpos[order] >> 3
        for i in range(self.u_hat):
            self._or_bits(i, hs.col_arr(a, i, self.v_hat), byte_idx, groups)

    def _or_bits(self, i: int, cols: np.ndarray, byte_idx: np.ndarray, groups) -> None:
        """`or_bit_groups` of row i's writes at `cols`, in `bit_groups`
        order, each at its cell's byte `byte_idx`."""
        # in place: one more batch-sized temporary let the allocator trim
        # the heap's top and fault it in again, about 200 faults a call
        index = self.cells_of(i, cols)
        index *= self.le_len // 8
        index += byte_idx
        or_bit_groups(self.cells.reshape(-1), index, groups)

    def cells_of(self, i: int, cols: np.ndarray) -> np.ndarray:
        """The cells of row i's columns `cols` in a folded grid, as indices
        into `cells`: the columns without one take the next cells, in
        column order."""
        row = self._map[i]
        cells = np.take(row, cols)
        new = cells == 0
        if new.any():
            fresh = np.zeros(self.v_hat, bool)
            fresh[cols[new]] = True
            fresh = np.flatnonzero(fresh)
            row[fresh] = self._hand_out(fresh.size)
            cells = np.take(row, cols)
        return cells

    def _hand_out(self, k: int) -> np.ndarray:
        """The next k cells from the front of `cells`, past the zero cell."""
        self._promoted += k
        return np.arange(self._promoted - k + 1, self._promoted + 1)

    def fold(self) -> Iterator[None]:
        """Give every written column a cell, one step per row: write the
        logged keys, or a sealed grid's light keys, into their columns'
        cells, which then take the window's writes in place. The log is
        freed as it folds. A folded grid takes no step."""
        if self.folded:
            return
        if self._keys is not None:
            row_bytes = self.le_len // 8
            for row, runs in zip(self._map, self._runs):
                light = np.flatnonzero(runs[:, 1])
                cells = self._hand_out(light.size)
                _or_runs(self.cells.reshape(-1), self._keys, runs[light, 0], runs[light, 1],
                         cells * row_bytes, self._shift)
                row[light] = cells
                yield
        while self._log:
            entry = self._log.pop(0)
            order, groups = bit_groups(entry[0] & 7)
            byte_idx = entry[0][order] >> 3
            for i in range(self.u_hat):
                self._or_bits(i, entry[i + 1][order].astype(np.intp), byte_idx, groups)
                yield
        self._log = self._keys = self._runs = None
        self.log_pairs = 0
        self.folded = True

    def seal(self) -> Iterator[None]:
        """Close an open log without folding it, one step per row: sort
        the row's keys once, and give each column with more than
        `promote_threshold` keys the next cell from the front of the grid,
        so that the promoted cells of every row share its first pages. A
        folded or sealed grid, or an empty log, takes no step."""
        log, self._log = self._log, None
        if not log:
            return
        n = self.log_pairs
        threshold = promote_threshold(self.le_len, self.key_bytes)
        row_bytes = self.le_len // 8
        keys = np.empty(self.u_hat * n, self._key)
        runs = np.empty((self.u_hat, self.v_hat, 2), np.intp)
        for i in range(self.u_hat):
            row = keys[i * n : (i + 1) * n]
            lo = 0
            for entry in log:
                part = row[lo : lo + entry.shape[1]]
                np.left_shift(entry[i + 1], self._shift, out=part, dtype=self._key)
                part |= entry[0]
                lo += entry.shape[1]
            row.sort()
            starts = np.empty(self.v_hat + 1, np.intp)
            starts[:-1] = np.searchsorted(row, np.arange(self.v_hat, dtype=self._key) << self._shift)
            starts[-1] = n
            starts += i * n
            counts = np.diff(starts)
            promoted = np.flatnonzero(counts > threshold)
            cells = self._hand_out(promoted.size)
            _or_runs(self.cells.reshape(-1), keys, starts[promoted], counts[promoted],
                     cells * row_bytes, self._shift)
            self._map[i, promoted] = cells
            runs[i, :, 0] = starts[:-1]
            counts[promoted] = 0
            runs[i, :, 1] = counts
            yield
        self._keys, self._runs = keys, runs
        self.log_pairs = 0

    def row_cells(self, i: int | range, cols) -> np.ndarray:
        """Row i's cells at columns `cols`, as a new C-contiguous
        (len(cols), le_len // 8) uint8 matrix; for a range i of rows, with
        cols[k] the columns of row i[k], the AND of their cells, read in
        one pass: each column's cell through its row's map, with its light
        keys ORed in. An open log is sealed first, so callers on several
        threads seal it before."""
        rows, cols = (i, cols) if isinstance(i, range) else (range(i, i + 1), [cols])
        if self.logging:
            deque(self.seal(), maxlen=0)
        index = np.concatenate([self._map[r][c] for r, c in zip(rows, cols)])
        cells = np.take(self.cells, index, axis=0)
        if self._keys is not None:
            runs = np.concatenate([self._runs[r][c] for r, c in zip(rows, cols)])
            light = np.flatnonzero(runs[:, 1])
            _or_runs(cells.reshape(-1), self._keys, runs[light, 0], runs[light, 1],
                     light * (self.le_len // 8), self._shift)
        if len(rows) == 1:
            return cells
        return np.bitwise_and.reduce(cells.reshape(len(rows), -1, self.le_len // 8))

    def candidate_columns(self, cands, hs: HashSuite) -> list[np.ndarray]:
        """Each candidate's column in each of the u_hat rows."""
        cands = np.asarray(cands, dtype=np.uint32)
        return [hs.col_arr(cands, i, self.v_hat) for i in range(self.u_hat)]

    def extract_candidates(self, cols: list[np.ndarray]) -> np.ndarray:
        """The inner merge (AND) of the row cells at cols[i][j], i < u_hat,
        as row j of a new C-contiguous (len(cols[0]), le_len // 8) uint8
        matrix.

        Of a folded grid, rows 0 and 1 are read for every candidate, rows
        2.. only for those whose AND of the first two is not all zero: the
        others' AND is zero already. Each row is read and ANDed in turn:
        a block holds one row's cells at a time. A sealed grid reads
        every row in one pass, as its light keys cost per pass more than
        per key, and its reads are of its few promoted cells and the zero
        cell."""
        if not self.folded:
            return self.row_cells(range(self.u_hat), cols)
        merged = self.row_cells(0, cols[0])
        if self.u_hat > 1:
            merged &= self.row_cells(1, cols[1])
        live = np.flatnonzero(_words(merged).max(axis=1))
        if self.u_hat > 2:
            rest = self.row_cells(2, cols[2][live])
            for i in range(3, self.u_hat):
                rest &= self.row_cells(i, cols[i][live])
            merged[live] &= rest
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
