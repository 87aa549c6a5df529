"""The 3-D cube of rough estimators and candidate-address recovery.

A source address picks one 8-bit cell per row of one of the 2^r planes
(the right r address bits select the plane, windows of the remaining
32-r "left part" bits select the per-row cells). Because consecutive
rows read overlapping windows, a set of per-row candidate cells can be
stitched back into complete source addresses: indexes whose overlapping
bits agree are chained depth-first, the chained cells are ANDed to drop
coincidental matches, and the surviving bit windows are deposited back
into a 32-bit address.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .estimators import CANDIDATE_BITS, RoughEstimator
from .hashing import HashSuite

_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)


@dataclass(frozen=True)
class RECubeConfig:
    """Cube geometry: plane selector width r, per-row index widths l[i]
    and start offsets s[i] into the 32-r left-part bits.

    The constraints guarantee that adjacent rows overlap in at least two
    bits and that the row windows jointly cover every left-part bit, which
    is what makes address recovery possible.
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
    def cell_count(self) -> int:
        return (1 << self.r) * sum(1 << li for li in self.l)

    @property
    def nbytes(self) -> int:
        """Cube payload size: one byte per rough estimator."""
        return self.cell_count


def derive_indices(a: int, cfg: RECubeConfig) -> tuple[int, tuple[int, ...]]:
    """Map a source address to its plane index k and per-row cell indexes."""
    a &= 0xFFFFFFFF
    k = a & ((1 << cfg.r) - 1)
    lp = a >> cfg.r
    n = cfg.left_bits
    js = []
    for si, li in zip(cfg.s, cfg.l):
        j = 0
        for t in range(li):
            j |= ((lp >> ((si + t) % n)) & 1) << t
        js.append(j)
    return k, tuple(js)


def derive_indices_arr(
    a: np.ndarray, cfg: RECubeConfig
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Vector form of :func:`derive_indices`."""
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

    def cell(self, k: int, i: int, j: int) -> RoughEstimator:
        return RoughEstimator(int(self.rows[i][k, j]))

    def set_cell(self, k: int, i: int, j: int, bits: int) -> None:
        self.rows[i][k, j] = bits

    def copy(self) -> "RECube":
        return RECube(self.config, self.cells.copy())

    def is_zero(self) -> bool:
        return not self.cells.any()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RECube)
            and other.config == self.config
            and np.array_equal(self.cells, other.cells)
        )

    def cell_bytes(self) -> bytes:
        """Cells serialized plane-major (k, then row i, then index j)."""
        return self.cells.tobytes()

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


def recover_candidates(rec: RECube) -> set[int]:
    """Recover candidate source addresses from a (merged) cube.

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
        cand = [np.flatnonzero(_POPCOUNT[row[k]] >= CANDIDATE_BITS) for row in rec.rows]
        if any(c.size == 0 for c in cand):
            continue
        # Bucket row i+1 candidates by their low overlap bits so the DFS
        # only visits chain-compatible extensions.
        buckets: list[dict[int, list[int]]] = []
        for i in range(1, u):
            o = overlaps[i - 1]
            by_low: dict[int, list[int]] = {}
            mask = (1 << o) - 1
            for j in cand[i].tolist():
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
                if bin(merged).count("1") < CANDIDATE_BITS:
                    return
                lp = reconstruct_left_part(stack, cfg)
                if lp is not None:
                    found.add((lp << cfg.r) | k)
                return
            if i == 0:
                for j in cand[0].tolist():
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
