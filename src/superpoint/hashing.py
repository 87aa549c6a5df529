"""Deterministic keyed hashing shared by every observation node.

All randomness in the detector flows through one 64-bit master seed.
Every node in a run derives the same family of hash functions from it,
which is the precondition for merging sketches across nodes: the same
opposite host must map to the same bit everywhere.

The mixer is a splitmix64-style finalizer. The scan loops hash numpy
uint64 arrays with mix64_arr; the scalar mix64 derives the per-role
seeds from the master seed.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Role tags keep the derived hash functions independent of each other.
_TAG_RAND = 0x52414E44  # host -> uniform 32-bit value
_TAG_REBIT = 0x52454249  # host -> bit slot 0..7
_TAG_LEBIT = 0x4C454249  # host -> bit position in a linear estimator
_TAG_COL = 0x434F4C00  # source address -> column, one seed per row


def mix64(x: int, seed: int = 0) -> int:
    """Scalar keyed 64-bit mixer."""
    z = (x * _GOLDEN + seed) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def mix64_arr(x: np.ndarray, seed: int) -> np.ndarray:
    """Vector keyed 64-bit mixer; same outputs as :func:`mix64`."""
    z = x.astype(np.uint64, copy=True)
    z *= np.uint64(_GOLDEN)
    z += np.uint64(seed)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


class HashSuite:
    """The family of hash functions derived from one master seed.

    rand32_arr -- opposite host -> uniform 32-bit integer (qualification test)
    re_bit_arr -- opposite host -> one of the 8 rough-estimator bit slots
    le_bit_arr -- opposite host -> bit position 0..nbits-1, shared by every
                  linear estimator in the run (a host must hit the same bit
                  in every row and on every node, otherwise inner merging
                  would erase its trace)
    col_arr    -- source address -> column of the i-th LE-array row; the
                  row seeds are independent of each other
    """

    def __init__(self, master_seed: int):
        self.master_seed = master_seed & _MASK64
        self._seed_rand = mix64(_TAG_RAND, self.master_seed)
        self._seed_rebit = mix64(_TAG_REBIT, self.master_seed)
        self._seed_lebit = mix64(_TAG_LEBIT, self.master_seed)
        self._col_seeds: dict[int, int] = {}

    def _col_seed(self, row: int) -> int:
        seed = self._col_seeds.get(row)
        if seed is None:
            seed = mix64(_TAG_COL + row, self.master_seed)
            self._col_seeds[row] = seed
        return seed

    def rand32_arr(self, b: np.ndarray) -> np.ndarray:
        return (mix64_arr(b, self._seed_rand) & np.uint64(0xFFFFFFFF)).astype(
            np.uint32
        )

    def re_bit_arr(self, b: np.ndarray) -> np.ndarray:
        return (mix64_arr(b, self._seed_rebit) & np.uint64(7)).astype(np.uint8)

    def le_bit_arr(self, b: np.ndarray, nbits: int) -> np.ndarray:
        return (mix64_arr(b, self._seed_lebit) & np.uint64(nbits - 1)).astype(
            np.int64
        )

    def col_arr(self, a: np.ndarray, row: int, ncols: int) -> np.ndarray:
        return (mix64_arr(a, self._col_seed(row)) & np.uint64(ncols - 1)).astype(
            np.int64
        )
