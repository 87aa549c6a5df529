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

import numpy as np

from .estimators import CANDIDATE_BITS, bit_groups, or_bit_groups
from .hashing import HashSuite

#: most chain extensions one join step materializes at a time
_JOIN_CHUNK = 1 << 16

#: uint64 words of the node cubes that candidate recovery ORs at a time
#: (256 KiB): smaller chunks pay numpy's per-call cost too often, larger
#: ones page-fault in a fresh scratch every window
_OR_WORDS = 1 << 15


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
        # rows overlap from bit 0 on, so this makes them cover every left-part bit
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
    wrapping past the top of the left part back to bit 0. Each row is the
    left part rotated right by s[i] within its n = 32 - r bits; as the
    left part is below 2^31, no shift overflows int64."""
    a64 = a.astype(np.int64)
    k = a64 & ((1 << cfg.r) - 1)
    lp = a64 >> cfg.r
    n = cfg.left_bits
    return k, [((lp >> si) | (lp << (n - si))) & ((1 << li) - 1) for si, li in zip(cfg.s, cfg.l)]


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
        # lsb(hb) >= tau  <=>  hb is divisible by 2^ceil(tau); hb == 0
        # (sentinel lsb 32) qualifies for any tau <= 32 and none above.
        mask_bits = int(np.ceil(tau)) if tau > 0 else 0
        if a.size == 0 or mask_bits > 32:
            return
        hb = hs.rand32_arr(b)
        qualifying = (hb & np.uint32((1 << mask_bits) - 1)) == 0
        if not qualifying.any():
            return
        order, groups = bit_groups(hs.re_bit_arr(b[qualifying]))
        k, js = derive_indices_arr(a[qualifying][order], self.config)
        # cells is C-contiguous, so this reshape is a view, not a copy
        flat = self.cells.reshape(-1)
        base = k * self.cells.shape[1]
        for off, j in zip(self._offsets, js):
            or_bit_groups(flat, base + (off + j), groups)


def _candidate_cells(*cubes: RECube) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per row: plane k, index j and bits of each cell of the cubes' OR
    with >= 3 set bits, sorted by (k, j). The cubes are ORed _OR_WORDS
    64-bit words at a time, in plane-major order, into one scratch; a word
    holding such a cell has >= 3 set bits itself, so only the words whose
    popcount reaches CANDIDATE_BITS are expanded to their 8 cells. Nothing
    cube-sized is allocated, and the rest scales with the candidate cells."""
    if not cubes:
        raise ValueError("cannot recover candidates from an empty sequence of cubes")
    first = cubes[0]
    for cube in cubes[1:]:
        if cube.config != first.config:
            raise ValueError(f"cube geometry mismatch: {cube.config} vs {first.config}")
    # a valid geometry has a multiple of 8 cells: r >= 1 and every l >= 2
    words = [cube.cells.reshape(-1).view(np.uint64) for cube in cubes]
    scratch = np.empty(min(_OR_WORDS, words[0].size), np.uint64)
    pos, bits = [], []
    for lo in range(0, words[0].size, _OR_WORDS):
        chunk = scratch[: words[0].size - lo]
        np.copyto(chunk, words[0][lo : lo + chunk.size])
        for node_words in words[1:]:
            np.bitwise_or(chunk, node_words[lo : lo + chunk.size], out=chunk)
        hit = np.flatnonzero(np.bitwise_count(chunk) >= CANDIDATE_BITS)
        hit_bytes = chunk[hit].view(np.uint8)
        keep = np.flatnonzero(np.bitwise_count(hit_bytes) >= CANDIDATE_BITS)
        pos.append((lo + hit[keep // 8]) * 8 + keep % 8)
        bits.append(hit_bytes[keep])
    pos, bits = np.concatenate(pos), np.concatenate(bits)
    k, col = np.divmod(pos, first.cells.shape[1])
    row = np.searchsorted(first._offsets, col, side="right") - 1
    cells = []
    for i, off in enumerate(first._offsets):
        in_row = row == i
        cells.append((k[in_row], col[in_row] - off, bits[in_row]))
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


def recover_candidates(*cubes: RECube) -> np.ndarray:
    """Recover the sorted uint32 candidate addresses of the cell-wise OR of
    `cubes`, the nodes' cubes; no cubes, or cubes of two geometries, raise
    ValueError.

    Cells with >= 3 set bits are merge-joined row by row on (plane,
    overlap bits), keeping chains whose ANDed cells still have >= 3 set
    bits; this rejects tuples assembled from unrelated hosts. The rows
    form a ring, and chains that close it back to the walk's first row
    are deposited into addresses; an address that does not re-derive to
    its chain's indexes is dropped.

    The walk starts at row u-1 when the wraparound overlap is wider than
    the overlap of rows 0 and 1, so that its first join, the one that
    keeps the most chains, matches on more bits; otherwise it starts at
    row 0. Every overlap is matched and every row ANDed whatever the start,
    so the chains are the same; only the wraparound may be 0 bits wide,
    and neither walk joins over it before the last row.
    """
    rows = _candidate_cells(*cubes)
    cfg = cubes[0].config
    u = cfg.u
    start = u - 1 if cfg.overlaps[-1] > cfg.overlaps[0] else 0
    walk = [(start + t) % u for t in range(u)]
    k, j_first, bits = rows[start]
    js = [j_first]
    for prev, i in zip(walk, walk[1:]):
        if k.size == 0:
            return np.zeros(0, np.uint32)
        o = cfg.overlaps[prev]
        k_next, j_next, bits_next = rows[i]
        left_key = (k << o) | (js[-1] >> (cfg.l[prev] - o))
        right_key = (k_next << o) | (j_next & ((1 << o) - 1))
        if i == walk[-1]:
            # the last row also closes the ring back to the first row, in
            # the same join, so open chains are never materialized
            c = cfg.overlaps[i]
            left_key = (left_key << c) | (js[0] & ((1 << c) - 1))
            right_key = (right_key << c) | (j_next >> (cfg.l[i] - c))
        left, right, bits = _join_step(left_key, right_key, bits, bits_next)
        k = k[left]
        js = [j[left] for j in js] + [j_next[right]]
    js = js[u - start:] + js[: u - start]  # back in row order

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
