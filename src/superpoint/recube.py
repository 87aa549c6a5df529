"""The 3-D cube of rough estimators and candidate-address recovery.

A source address picks one 8-bit cell per row of one of the 2^r planes
(the right r address bits select the plane, windows of the remaining
32-r "left part" bits select the per-row cells). Because consecutive
rows read overlapping windows, a set of per-row candidate cells can be
stitched back into complete source addresses: indexes whose overlapping
bits agree are chained by a merge-join over all planes at once, the
chained cells are ANDed to drop coincidental matches, and the surviving
bit windows are deposited back into a 32-bit address.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .estimators import CANDIDATE_BITS
from .hashing import HashSuite

#: most chain extensions one join step materializes at a time
_JOIN_CHUNK = 1 << 16


@dataclass(frozen=True)
class RECubeConfig:
    """Cube geometry: plane selector width r, per-row index widths l[i]
    and start offsets s[i] into the 32-r left-part bits.

    The constraints guarantee that adjacent rows overlap in at least two
    bits, that no row's window lies inside the previous one's, and that
    the row windows jointly cover every left-part bit, which is what makes
    address recovery possible.
    """

    r: int
    l: tuple[int, ...]
    s: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "l", tuple(self.l))
        object.__setattr__(self, "s", tuple(self.s))
        r, l, s = self.r, self.l, self.s
        u = len(l)
        if not 1 <= r <= 31:
            raise ValueError(f"r must be in 1..31, got {r}")
        if u < 2:
            raise ValueError(f"at least 2 rows are required, got u={u}")
        if len(s) != u:
            raise ValueError(f"l and s must have equal length: {len(l)} vs {len(s)}")
        n = 32 - r
        for i, li in enumerate(l):
            if not 1 <= li <= n:
                raise ValueError(f"1 <= l[{i}] <= 32-r violated: l[{i}]={li}, r={r}")
        if s[0] != 0:
            raise ValueError(f"s[0] = 0 violated: s[0]={s[0]}")
        for i in range(u - 1):
            if not s[i] < s[i + 1] < 31 - r:
                raise ValueError(
                    f"s[{i}] < s[{i + 1}] < 31-r violated: "
                    f"s[{i}]={s[i]}, s[{i + 1}]={s[i + 1]}, 31-r={31 - r}"
                )
            if not s[i + 1] < s[i] + l[i] - 1:
                raise ValueError(
                    f"s[{i + 1}] < s[{i}] + l[{i}] - 1 violated: "
                    f"s[{i + 1}]={s[i + 1]}, s[{i}]+l[{i}]-1={s[i] + l[i] - 1}"
                )
            if not s[i] + l[i] - s[i + 1] <= l[i + 1]:
                raise ValueError(
                    f"s[{i}] + l[{i}] - s[{i + 1}] <= l[{i + 1}] violated (row "
                    f"{i + 1} nested in row {i}): overlap "
                    f"{s[i] + l[i] - s[i + 1]}, l[{i + 1}]={l[i + 1]}"
                )
        if not s[u - 1] + l[u - 1] > 31 - r:
            raise ValueError(
                f"s[u-1] + l[u-1] > 31-r violated: "
                f"s[u-1]+l[u-1]={s[u - 1] + l[u - 1]}, 31-r={31 - r}"
            )
        wrap = s[u - 1] + l[u - 1] - n
        if wrap > l[0]:
            raise ValueError(
                f"wraparound overlap must fit in row 0: "
                f"s[u-1]+l[u-1]-(32-r)={wrap} > l[0]={l[0]}"
            )
        covered = [False] * n
        for si, li in zip(s, l):
            for t in range(li):
                covered[(si + t) % n] = True
        if not all(covered):
            missing = [i for i, c in enumerate(covered) if not c]
            raise ValueError(f"left-part bits not covered by any row: {missing}")

    @property
    def u(self) -> int:
        return len(self.l)

    @property
    def left_bits(self) -> int:
        return 32 - self.r

    @property
    def overlaps(self) -> tuple[int, ...]:
        """Overlap widths between row i and row (i+1) mod u.

        The last entry is the wraparound overlap between the final row
        and row 0.
        """
        widths = [
            self.s[i] + self.l[i] - self.s[i + 1] for i in range(self.u - 1)
        ]
        widths.append(self.s[self.u - 1] + self.l[self.u - 1] - self.left_bits)
        return tuple(widths)

    @property
    def nbytes(self) -> int:
        """Cube payload size: one byte per rough estimator."""
        return (1 << self.r) * sum(1 << li for li in self.l)


def derive_indices_arr(
    a: np.ndarray, cfg: RECubeConfig
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Plane index k and per-row cell indexes j of each source address:
    k is the low r bits, row i reads l[i] left-part bits from offset s[i],
    wrapping past the top of the left part back to bit 0."""
    a64 = a.astype(np.uint64)
    k = (a64 & np.uint64((1 << cfg.r) - 1)).astype(np.int64)
    lp = a64 >> np.uint64(cfg.r)
    n = cfg.left_bits
    js = []
    for si, li in zip(cfg.s, cfg.l):
        if si + li <= n:
            j = (lp >> np.uint64(si)) & np.uint64((1 << li) - 1)
        else:
            low_width = n - si
            high_width = li - low_width
            low = (lp >> np.uint64(si)) & np.uint64((1 << low_width) - 1)
            high = lp & np.uint64((1 << high_width) - 1)
            j = low | (high << np.uint64(low_width))
        js.append(j.astype(np.int64))
    return k, js


class RECube:
    """Dense cube of 8-bit rough estimators.

    The cells live in one C-contiguous ``(2^r, sum 2^l[i])`` array in the
    wire order: plane k, then row i, then index j. ``rows[i]`` is the
    ``(2^r, 2^l[i])`` view of row i's cells in every plane.
    """

    def __init__(self, config: RECubeConfig, cells: np.ndarray | None = None):
        widths = [1 << li for li in config.l]
        shape = (1 << config.r, sum(widths))
        if cells is None:
            cells = np.zeros(shape, dtype=np.uint8)
        elif cells.shape != shape or not cells.flags.c_contiguous:
            raise ValueError(f"cells must be a C-contiguous {shape} array")
        self.config = config
        self.cells = cells
        self._offsets = np.cumsum([0] + widths[:-1]).tolist()
        self.rows = [
            cells[:, off : off + width] for off, width in zip(self._offsets, widths)
        ]

    def update_pairs(
        self, a: np.ndarray, b: np.ndarray, tau: float, hs: HashSuite
    ) -> None:
        """Fold a batch of (source, opposite) pairs into the cube."""
        if a.size == 0:
            return
        hb = hs.rand32_arr(b)
        # lsb(hb) >= tau  <=>  hb is divisible by 2^ceil(tau); hb == 0
        # (sentinel lsb 32) qualifies for any tau <= 32.
        mask_bits = int(np.ceil(tau)) if tau > 0 else 0
        if mask_bits > 32:
            qualifying = hb == 0
        else:
            qualifying = (hb & np.uint32((1 << mask_bits) - 1)) == 0
        if not qualifying.any():
            return
        aq = a[qualifying]
        vals = (np.uint8(1) << hs.re_bit_arr(b[qualifying])).astype(np.uint8)
        k, js = derive_indices_arr(aq, self.config)
        # cells is C-contiguous, so this reshape is a view, not a copy
        flat = self.cells.reshape(-1)
        base = k * self.cells.shape[1]
        for off, j in zip(self._offsets, js):
            np.bitwise_or.at(flat, base + (off + j), vals)

    def copy(self) -> "RECube":
        return RECube(self.config, self.cells.copy())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RECube)
            and other.config == self.config
            and np.array_equal(self.cells, other.cells)
        )

    @classmethod
    def from_cell_bytes(cls, config: RECubeConfig, data) -> "RECube":
        """Read-only cube viewing `data` (any bytes-like object), no copy."""
        if len(data) != config.nbytes:
            raise ValueError(
                f"expected {config.nbytes} cell bytes, got {len(data)}"
            )
        cells = np.frombuffer(data, np.uint8).reshape(1 << config.r, -1)
        # a writable buffer (bytearray) must not be changed through the cube
        cells.flags.writeable = False
        return cls(config, cells)


def rec_merge_outer(cubes: Sequence[RECube]) -> RECube:
    """Cell-wise OR of cubes sharing one geometry, seeded from the first."""
    if not cubes:
        raise ValueError("cannot merge an empty sequence of cubes")
    first = cubes[0]
    for cube in cubes[1:]:
        if cube.config != first.config:
            raise ValueError(
                f"cube geometry mismatch: {cube.config} vs {first.config}"
            )
    merged = first.copy()
    for cube in cubes[1:]:
        np.bitwise_or(merged.cells, cube.cells, out=merged.cells)
    return merged


def _candidate_cells(rec: RECube) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per row: plane k, index j and bits of each cell with >= 3 set bits,
    sorted by (k, j). Only the non-zero 64-bit words of the cube are
    expanded to cells, which is much cheaper than a per-cell scan."""
    flat = rec.cells.reshape(-1)
    # a valid geometry has a multiple of 8 cells: r >= 1 and every l >= 2
    nonzero = np.flatnonzero(flat.view(np.uint64))
    pos = (nonzero[:, None] * 8 + np.arange(8)).reshape(-1)
    pos = pos[np.bitwise_count(flat[pos]) >= CANDIDATE_BITS]
    k, col = np.divmod(pos, rec.cells.shape[1])
    row = np.searchsorted(rec._offsets, col, side="right") - 1
    cells = []
    for i, off in enumerate(rec._offsets):
        in_row = row == i
        cells.append((k[in_row], col[in_row] - off, flat[pos[in_row]]))
    return cells


def _join_step(left_key, right_key, left_bits, right_bits) -> tuple[np.ndarray, ...]:
    """Index pairs (left, right) of equal keys and their ANDed bits, where
    those keep >= 3 set bits. Matches are built in chunks of left rows with
    at most _JOIN_CHUNK matches each (one left row may exceed it), so the
    memory of a step does not grow with the number of unfiltered chains."""
    order = np.argsort(right_key, kind="stable")
    sorted_key = right_key[order]
    lo = np.searchsorted(sorted_key, left_key, side="left")
    counts = np.searchsorted(sorted_key, left_key, side="right") - lo
    ends = np.cumsum(counts)
    kept = []
    a = 0
    while a < left_key.size:
        done = ends[a - 1] if a else 0
        b = max(int(np.searchsorted(ends, done + _JOIN_CHUNK, side="right")), a + 1)
        c = counts[a:b]
        left = np.repeat(np.arange(a, b), c)
        starts = np.repeat(lo[a:b] - (np.cumsum(c) - c), c)
        right = order[starts + np.arange(left.size)]
        bits = left_bits[left] & right_bits[right]
        keep = np.bitwise_count(bits) >= CANDIDATE_BITS
        kept.append((left[keep], right[keep], bits[keep]))
        a = b
    return tuple(np.concatenate(parts) for parts in zip(*kept))


def recover_candidates(rec: RECube) -> np.ndarray:
    """Recover the sorted uint32 candidate addresses of a (merged) cube.

    Cells with >= 3 set bits are merge-joined row by row on (plane,
    overlap bits), keeping chains whose ANDed cells still have >= 3 set
    bits; this rejects tuples assembled from unrelated hosts. Chains that
    close the wraparound back to row 0 are deposited into addresses, and
    an address that does not re-derive to its chain's indexes is dropped.
    """
    cfg = rec.config
    rows = _candidate_cells(rec)
    k, j0, bits = rows[0]
    js = [j0]
    for i in range(1, cfg.u):
        if k.size == 0:
            return np.zeros(0, np.uint32)
        o = cfg.overlaps[i - 1]
        k_next, j_next, bits_next = rows[i]
        left_key = (k << o) | (js[-1] >> (cfg.l[i - 1] - o))
        right_key = (k_next << o) | (j_next & ((1 << o) - 1))
        if i == cfg.u - 1:
            # the last row also closes the wraparound back to row 0, in
            # the same join, so open chains are never materialized
            wrap = cfg.overlaps[-1]
            left_key = (left_key << wrap) | (js[0] & ((1 << wrap) - 1))
            right_key = (right_key << wrap) | (j_next >> (cfg.l[-1] - wrap))
        left, right, bits = _join_step(left_key, right_key, bits, bits_next)
        k = k[left]
        js = [j[left] for j in js] + [j_next[right]]

    n = cfg.left_bits
    lp = np.zeros(k.size, np.int64)
    for si, j in zip(cfg.s, js):
        # rotate the window into place; bits past n wrap to the bottom
        lp |= (j << si) | (j << si >> n)
    addresses = (((lp & ((1 << n) - 1)) << cfg.r) | k).astype(np.uint32)
    _, derived = derive_indices_arr(addresses, cfg)
    consistent = np.logical_and.reduce([d == j for d, j in zip(derived, js)])
    # distinct chains that re-derive are distinct addresses
    return np.sort(addresses[consistent])
