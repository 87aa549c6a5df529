"""Estimator constants and formulas shared by the cube and the grid.

Rough estimator: an 8-bit cube cell whose only job is to answer "could
this host be a super point". An opposite host qualifies when the
trailing-zero count of its 32-bit hash reaches tau = log2(theta / g); a
qualifying host sets one of the 8 bit slots, and the host is a candidate
once 3 or more slots are set.

Linear estimator: a bit vector doing classic linear counting. The
cardinality estimate is -|C| * ln(n0 / |C|), with n0 the number of zero
bits.

Both live as numpy cells in recube and learray; this module holds their
thresholds, the estimate formula and its analytic error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: bit slots in a rough estimator
RE_WIDTH = 8

#: set bits needed before a rough estimator flags a candidate
CANDIDATE_BITS = 3


def compute_tau(theta: float, g: int = RE_WIDTH) -> float:
    """Qualification threshold tau = log2(theta / g)."""
    if g <= 0:
        raise ValueError(f"g must be positive, got {g}")
    if theta < g:
        raise ValueError(
            f"theta must be >= g (tau would be negative): theta={theta}, g={g}"
        )
    return math.log2(theta / g)


def linear_count(nbits: int, n0: int) -> tuple[float, bool]:
    """Linear-counting estimate -|C| * ln(n0 / |C|) of a vector with n0
    zero bits out of nbits, and a saturation flag.

    A fully set vector would estimate infinity; it is clamped to the
    n0 = 1 value (|C| * ln |C|) and flagged.
    """
    if n0 == 0:
        return nbits * math.log(nbits), True
    return -nbits * math.log(n0 / nbits), False


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
    """Scalar knobs shared by every node in a run."""

    theta: int
    le_len: int
    u_hat: int
    v_hat: int
    g: int = RE_WIDTH

    def __post_init__(self):
        if self.theta < self.g:
            raise ValueError(f"theta must be >= g: {self.theta} < {self.g}")
        for name in ("le_len", "v_hat"):
            value = getattr(self, name)
            if value <= 0 or value & (value - 1):
                raise ValueError(f"{name} must be a power of two, got {value}")
        if self.u_hat < 1:
            raise ValueError(f"u_hat must be >= 1, got {self.u_hat}")

    @property
    def tau(self) -> float:
        return compute_tau(self.theta, self.g)

    @property
    def lea_bytes(self) -> int:
        return self.u_hat * self.v_hat * self.le_len // 8
