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
all-zero AND stays zero. A candidate with an unwritten or a single-key
column, whose AND is at most one bit, is settled once per candidate
list, from its map entries and that bit's byte in each of its cells.
Popcounts and the linear-count estimates finish the window.

The grid is sparse first, as HyperLogLog++'s registers are (Heule,
Nunkesser and Hall, "HyperLogLog in Practice", EDBT 2013). A window's
scan only logs each pair's bit position and its u_hat columns, and the
log changes form once: a batch that would take it past its cap folds
it, and otherwise the window end folds or seals it. A fold gives each
row's columns whose logged pairs set two or more distinct bits the next
cells from the front of the grid, row after row, and writes the log
into them; a column whose pairs all set one bit keeps that bit in the
row's map instead, as ~bit, that is -(bit + 1). The cells then take
the rest of the window's writes in place, a column's first write
handing it the next cell, with its one bit if it had one. A seal sorts
each row's keys, column << log2(le_len) | bit, once, and promotes a
column whose keys would take more bytes than its cell to the next cell,
while the other, light, columns keep their keys, which a read finds by
binary search in their row. A sealed grid is final: it takes no more
pairs. Each row maps its columns to their cells, and a column without
one reads a zero cell. The grid is reserved whole but left untouched,
so a folded window holds at most one cell per written (row, column), a
sealed one a cell per promoted column.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, NamedTuple

import numpy as np

from .estimators import bit_groups, linear_count, or_bit_groups
from .hashing import HashSuite

#: keys a seal or a light gather expands at a time
_KEY_CHUNK = 1 << 16


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
    the sealed form, u_hat keys per pair and each row's column map, within
    half the grid. A promoted cell takes fewer bytes than the keys it
    stands for, so a sealed window holds less than its grid. 0 where the
    maps alone take half of it."""
    room = u_hat * v_hat * (le_len // 16 - np.dtype(np.intp).itemsize)
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
    the window's keys, then either a cell per written column, or each
    row's sorted keys with promoted cells."""

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
        #: once sealed, each row's sorted keys: a (u_hat, pairs) array
        self._keys: np.ndarray | None = None
        self.folded = False

    @property
    def logging(self) -> bool:
        """Whether the grid still logs its pairs: it has neither folded nor sealed."""
        return self._log is not None

    def update_pairs(self, a: np.ndarray, b: np.ndarray, hs: HashSuite) -> None:
        """Fold a batch of (source, opposite) pairs into the grid: log them,
        or write them into their cells once it has folded. A batch that
        would take the log past its cap folds the grid first. A sealed grid
        is final: ValueError."""
        if self._keys is not None:
            raise ValueError("a sealed LE grid takes no more pairs")
        if a.size == 0:
            return
        if self.logging and self.log_pairs + a.size > self.cap:
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
            self._or_bits(self.cells_of(i, hs.col_arr(a, i, self.v_hat)), byte_idx, groups)

    def _or_bits(self, index: np.ndarray, byte_idx: np.ndarray, groups) -> None:
        """`or_bit_groups` of writes to the cells `index`, in `bit_groups`
        order, each at its cell's byte `byte_idx`; `index` is overwritten."""
        # in place: one more batch-sized temporary let the allocator trim
        # the heap's top and fault it in again, about 200 faults a call
        index *= self.le_len // 8
        index += byte_idx
        or_bit_groups(self.cells.reshape(-1), index, groups)

    def cells_of(self, i: int, cols: np.ndarray) -> np.ndarray:
        """The cells of row i's columns `cols` in a folded grid, as indices
        into `cells`: the columns without one take the next cells, in
        column order, and a single-key column's cell starts with its bit."""
        row = self._map[i]
        cells = np.take(row, cols)
        new = cells <= 0
        if new.any():
            fresh = np.zeros(self.v_hat, bool)
            fresh[cols[new]] = True
            fresh = np.flatnonzero(fresh)
            keys = row[fresh]
            row[fresh] = self._hand_out(fresh.size)
            keyed = keys < 0
            _or_keys(self.cells.reshape(-1), (~keys[keyed]).astype(self._key),
                     row[fresh[keyed]] * (self.le_len // 8), self._shift)
            cells = np.take(row, cols)
        return cells

    def _hand_out(self, k: int) -> np.ndarray:
        """The next k cells from the front of `cells`, past the zero cell."""
        self._promoted += k
        return np.arange(self._promoted - k + 1, self._promoted + 1)

    def fold(self) -> Iterator[None]:
        """Write the log into cells, one step per logged batch and row. Each
        row's columns whose logged pairs set two or more distinct bits
        first take the next cells, in column order, row after row, so that
        a row's cells are one range; a column whose pairs all set one bit
        keeps it in the map, as -(bit + 1), and its writes go to the zero
        cell, which is zeroed again. Each batch is freed once written. The
        cells then take the window's writes in place. A folded or sealed
        grid takes no step."""
        if not self.logging:
            return
        top = np.iinfo(self._log_type).max
        for i, row in enumerate(self._map):
            # each column's least and greatest bit: equal for a single key,
            # and least > greatest for a column no pair wrote
            least = np.full(self.v_hat, top, self._log_type)
            most = np.zeros(self.v_hat, self._log_type)
            for entry in self._log:
                cols = entry[i + 1].astype(np.intp)  # faster than a uint16 index
                np.minimum.at(least, cols, entry[0])
                np.maximum.at(most, cols, entry[0])
            cols = np.flatnonzero(least < most)
            row[cols] = self._hand_out(cols.size)
            keyed = np.flatnonzero(least == most)
            row[keyed] = ~least[keyed].astype(np.intp)
        while self._log:
            entry = self._log.pop(0)
            order, groups = bit_groups(entry[0] & 7)
            byte_idx = entry[0][order] >> 3
            for i, row in enumerate(self._map):
                index = row[entry[i + 1][order]]  # fancy indexing: twice as fast as np.take
                self._or_bits(np.maximum(index, 0, out=index), byte_idx, groups)
                self.cells[0] = 0
                yield
        self._log = None
        self.log_pairs = 0
        self.folded = True

    def seal(self) -> Iterator[None]:
        """Close an open log without folding it, one step per row: sort
        the row's keys once, and give each column with more than
        `promote_threshold` keys the next cell from the front of the grid,
        so that the promoted cells of every row share its first pages. A
        folded or sealed grid, or an empty log, takes no step."""
        log, self._log = self._log, None
        if log is None:
            return
        self._keys = np.empty((self.u_hat, self.log_pairs), self._key)
        if not log:
            return
        threshold = promote_threshold(self.le_len, self.key_bytes)
        for i, row in enumerate(self._keys):
            lo = 0
            for entry in log:
                part = row[lo : lo + entry.shape[1]]
                np.left_shift(entry[i + 1], self._shift, out=part, dtype=self._key)
                part |= entry[0]
                lo += entry.shape[1]
            row.sort()
            starts = np.searchsorted(row, np.arange(self.v_hat, dtype=self._key) << self._shift)
            counts = np.diff(starts, append=row.size)
            promoted = np.flatnonzero(counts > threshold)
            cells = self._hand_out(promoted.size)
            _or_runs(self.cells.reshape(-1), row, starts[promoted], counts[promoted],
                     cells * (self.le_len // 8), self._shift)
            self._map[i, promoted] = cells
            yield
        self.log_pairs = 0

    def row_cells(self, i: int | range, cols) -> np.ndarray:
        """Row i's cells at columns `cols`, as a new C-contiguous
        (len(cols), le_len // 8) uint8 matrix; for a range i of rows, with
        cols[k] the columns of row i[k], all of one length, the AND of their
        cells, read in one pass: each column's cell through its row's map,
        with a folded single-key column's bit, and on a sealed grid each
        light column's keys, found by binary search in its row, ORed in.
        An open log is sealed first, so callers on several threads seal it
        before."""
        rows, cols = (i, cols) if isinstance(i, range) else (range(i, i + 1), [cols])
        if self.logging:
            deque(self.seal(), maxlen=0)
        index = np.concatenate([self._map[r][c] for r, c in zip(rows, cols)])
        cells = self._gather(index)
        if self._keys is not None:
            m, n = len(cols[0]), self._keys.shape[1]
            light = np.flatnonzero(index == 0)
            first = np.concatenate(cols)[light].astype(self._key) << self._shift
            last = first | (self.le_len - 1)
            cuts = np.searchsorted(light, np.arange(len(rows) + 1) * m).tolist()
            spans = list(zip(rows, cuts, cuts[1:]))  # light[a:b] are row r's light columns
            lo = np.concatenate([np.searchsorted(self._keys[r], first[a:b]) for r, a, b in spans])
            hi = np.concatenate([np.searchsorted(self._keys[r], last[a:b], side="right") for r, a, b in spans])
            counts = hi - lo
            lo += (light // m + rows.start) * n  # as indices into every row's keys, row after row
            _or_runs(cells.reshape(-1), self._keys.reshape(-1), lo, counts,
                     light * (self.le_len // 8), self._shift)
        else:
            self._or_single_keys(cells, index)
        if len(rows) == 1:
            return cells
        return np.bitwise_and.reduce(cells.reshape(len(rows), -1, self.le_len // 8))

    def _gather(self, index: np.ndarray) -> np.ndarray:
        """The cells `index` as a new C-contiguous matrix: an entry of 0,
        or a single key's negative one, reads the zero cell."""
        return np.take(self.cells, index, axis=0, mode="clip")

    def _or_single_keys(self, cells: np.ndarray, index: np.ndarray) -> None:
        """OR into the gathered `cells` the bit of each single-key entry,
        -(bit + 1), of the `index` they were gathered at."""
        keyed = np.flatnonzero(index < 0)
        _or_keys(cells.reshape(-1), (~index[keyed]).astype(self._key), keyed * (self.le_len // 8), self._shift)

    def candidate_reads(self, cands, hs: HashSuite) -> list[np.ndarray]:
        """What `extract_candidates` reads of each candidate in each of the
        u_hat rows: its column, or on a folded grid the column's map entry.
        Decided once per candidate list, they hold until the grid next
        takes pairs. A folded candidate with an unwritten or a single-key
        column is settled here, as its AND is at most one bit: every row
        reads the zero cell, and row 0's entry keeps the single-key entry,
        -(bit + 1), where its single-key columns agree and each of its
        cells has the bit."""
        cands = np.asarray(cands, dtype=np.uint32)
        reads = [hs.col_arr(cands, i, self.v_hat) for i in range(self.u_hat)]
        if not self.folded:
            return reads
        key = np.zeros(cands.size, np.intp)  # the last single-key entry, 0 for none
        settled = np.zeros(cands.size, bool)
        for row, read in zip(self._map, reads):
            read[:] = np.take(row, read)
            settled |= read == 0
            single = read < 0
            settled |= single & (key < 0) & (key != read)  # two single keys that disagree
            np.copyto(key, read, where=single)
        keyed = np.flatnonzero((key < 0) & ~settled)
        settled |= key < 0
        bits = ~key[keyed]
        for read in reads:
            cells = read[keyed]
            has = (self.cells[np.maximum(cells, 0), bits >> 3] >> (bits & 7) & 1).astype(bool)
            has |= cells < 0
            keyed, bits = keyed[has], bits[has]
        for read in reads:
            read[settled] = 0
        reads[0][keyed] = ~bits
        return reads

    def extract_candidates(self, reads: list[np.ndarray]) -> np.ndarray:
        """The inner merge (AND) of the row cells at reads[i][j], i <
        u_hat, from `candidate_reads`, as row j of a new C-contiguous
        (len(reads[0]), le_len // 8) uint8 matrix.

        Of a folded grid, rows 0 and 1 are read for every candidate, rows
        2.. only for those whose AND of the first two is not all zero: the
        others' AND is zero already, as is a settled candidate's until its
        one bit, if any, is ORed in at the end. Each row is read and ANDed
        in turn: a block holds one row's cells at a time. A sealed grid
        reads every row in one pass, as its light keys cost per pass more
        than per key, and its reads are of its few promoted cells and the
        zero cell."""
        if not self.folded:
            return self.row_cells(range(self.u_hat), reads)
        merged = self._gather(reads[0])
        if self.u_hat > 1:
            merged &= self._gather(reads[1])
        live = np.flatnonzero(_words(merged).max(axis=1))
        if self.u_hat > 2:
            rest = self._gather(reads[2][live])
            for i in range(3, self.u_hat):
                rest &= self._gather(reads[i][live])
            merged[live] &= rest
        self._or_single_keys(merged, reads[0])
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
