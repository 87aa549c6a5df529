"""Estimator constants and formulas shared by the cube and the grid.

Rough estimator: an 8-bit cube cell whose only job is to answer "could
this host be a super point". An opposite host qualifies when the
trailing-zero count of its 32-bit hash reaches tau = log2(theta / g), with
g = 8 the slot count; a qualifying host sets one of the 8 bit slots, and
the host is a candidate once 3 or more slots are set.

Linear estimator: a bit vector doing classic linear counting. The
cardinality estimate is -|C| * ln(n0 / |C|), with n0 the number of zero
bits.

Both live as numpy cells in recube and learray; this module holds their
thresholds, the estimate formula and its analytic error, and the bit
writes both scans make.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: bit slots in a rough estimator
RE_WIDTH = 8

#: set bits needed before a rough estimator flags a candidate
CANDIDATE_BITS = 3


def compute_tau(theta: float) -> float:
    """Qualification threshold tau = log2(theta / RE_WIDTH)."""
    if theta < RE_WIDTH:
        raise ValueError(f"theta must be >= {RE_WIDTH} (tau would be negative), got {theta}")
    return math.log2(theta / RE_WIDTH)


def linear_count(nbits: int, n0: int) -> tuple[float, bool]:
    """Linear-counting estimate -|C| * ln(n0 / |C|) of a vector with n0
    zero bits out of nbits, and a saturation flag.

    A fully set vector would estimate infinity; it is clamped to the
    n0 = 1 value (|C| * ln |C|) and flagged.
    """
    if n0 == 0:
        return nbits * math.log(nbits), True
    return -nbits * math.log(n0 / nbits), False


def bit_groups(bits: np.ndarray) -> tuple[np.ndarray, list[tuple[np.uint8, slice]]]:
    """Group a batch of bit writes by bit number (0-7): the order that
    sorts the batch by bit, and each present bit's mask and slice of
    that order, for :func:`or_bit_groups`."""
    bits = np.asarray(bits, dtype=np.uint8)
    order = np.argsort(bits, kind="stable")  # a radix sort for uint8
    ends = np.cumsum(np.bincount(bits, minlength=8)).tolist()
    starts = [0] + ends[:-1]
    groups = [
        (np.uint8(1 << n), slice(lo, hi))
        for n, (lo, hi) in enumerate(zip(starts, ends))
        if hi > lo
    ]
    return order, groups


def or_bit_groups(
    cells: np.ndarray, index: np.ndarray, groups: list[tuple[np.uint8, slice]]
) -> None:
    """cells[index[span]] |= mask for each group, with `index` in
    :func:`bit_groups` order: the same cells as ORing each write in turn.

    Within a group every write to a byte ORs the same mask, so where an
    index repeats, each copy gathers the same old byte and stores the
    same new one; each group sees the writes of the groups before it.
    Plain fancy indexing is several times faster than numpy's unbuffered
    `ufunc.at` OR, which has no indexed fast loop.
    """
    for mask, span in groups:
        cells[index[span]] |= mask


def le_std_dev(load_factor: float, le_len: int) -> float:
    """Analytic standard deviation of the estimate, relative form.

    sqrt((e^L - L - 1) / |C|), where L is true cardinality over |C|.
    """
    if load_factor < 0:
        raise ValueError(f"load factor must be >= 0, got {load_factor}")
    return math.sqrt((math.exp(load_factor) - load_factor - 1) / le_len)


def le_std_dev_hosts(load_factor: float, le_len: int) -> float:
    """Analytic standard deviation expressed in hosts: |C| * relative form."""
    return le_len * le_std_dev(load_factor, le_len)


@dataclass(frozen=True)
class DetectorParams:
    """Scalar knobs shared by every node in a run, and the one check of
    the LE grid's geometry."""

    theta: int
    le_len: int
    u_hat: int
    v_hat: int

    def __post_init__(self):
        compute_tau(self.theta)  # raises for theta < RE_WIDTH
        for name in ("le_len", "v_hat"):
            value = getattr(self, name)
            if value <= 0 or value & (value - 1):
                raise ValueError(f"{name} must be a power of two, got {value}")
        if self.le_len < 8:
            raise ValueError(f"le_len must be at least 8 bits, got {self.le_len}")
        if self.le_len > 1 << 31:  # the largest power of two a stage-3 header's u32 holds
            raise ValueError(f"le_len must be at most 2^31 bits, got {self.le_len}")
        if self.u_hat < 1:
            raise ValueError(f"u_hat must be >= 1, got {self.u_hat}")

    @property
    def tau(self) -> float:
        return compute_tau(self.theta)

    @property
    def lea_bytes(self) -> int:
        return self.u_hat * self.v_hat * self.le_len // 8
