"""The two estimator primitives and their scalar formulas.

RoughEstimator: an 8-bit sketch whose only job is to answer "could this
host be a super point". An opposite host qualifies when the trailing-zero
count of its 32-bit hash reaches tau = log2(theta / g); a qualifying host
sets one of the 8 bit slots, and the host is a candidate once 3 or more
slots are set.

LinearEstimator: a bit vector doing classic linear counting. The
cardinality estimate is -|C| * ln(n0 / |C|), with n0 the number of zero
bits.

These classes are the value-semantics reference implementations; the bulk
scan loops in recube/learray operate on numpy arrays and are tested
against these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .hashing import HashSuite

#: bit slots in a rough estimator
RE_WIDTH = 8

#: set bits needed before a rough estimator flags a candidate
CANDIDATE_BITS = 3


def lsb(x: int) -> int:
    """Trailing-zero count of a 32-bit value; 32 for x == 0.

    The all-zero input has no set bit, so its "first one from the right"
    is undefined; 32 is used as a sentinel that qualifies under any
    reasonable tau, a 2**-32 probability event with negligible bias.
    """
    x &= 0xFFFFFFFF
    if x == 0:
        return 32
    return (x & -x).bit_length() - 1


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


class RoughEstimator:
    """8-bit candidate sketch. Bits only ever turn on within a window."""

    __slots__ = ("bits",)

    def __init__(self, bits: int = 0):
        if not 0 <= bits <= 0xFF:
            raise ValueError(f"bits must fit in 8 bits, got {bits:#x}")
        self.bits = bits

    def update(self, b: int, tau: float, hs: HashSuite) -> "RoughEstimator":
        if lsb(hs.rand32(b)) >= tau:
            self.bits |= 1 << hs.re_bit(b)
        return self

    def is_candidate(self) -> bool:
        return self.bits.bit_count() >= CANDIDATE_BITS

    def outer(self, other: "RoughEstimator") -> "RoughEstimator":
        """Union across nodes: bitwise OR."""
        return RoughEstimator(self.bits | other.bits)

    def inner(self, other: "RoughEstimator") -> "RoughEstimator":
        """Intersection across rows: bitwise AND."""
        return RoughEstimator(self.bits & other.bits)

    def __eq__(self, other) -> bool:
        return isinstance(other, RoughEstimator) and other.bits == self.bits

    def __repr__(self) -> str:
        return f"RoughEstimator(bits={self.bits:#010b})"


class LinearEstimator:
    """Linear-counting bit vector of fixed power-of-two length."""

    __slots__ = ("nbits", "bits")

    def __init__(self, nbits: int, bits: int = 0):
        if nbits <= 0 or nbits & (nbits - 1):
            raise ValueError(f"nbits must be a power of two, got {nbits}")
        self.nbits = nbits
        self.bits = bits

    def update(self, b: int, hs: HashSuite) -> "LinearEstimator":
        self.bits |= 1 << hs.le_bit(b, self.nbits)
        return self

    @property
    def popcount(self) -> int:
        return self.bits.bit_count()

    def estimate(self) -> tuple[float, bool]:
        """Cardinality estimate and a saturation flag."""
        return linear_count(self.nbits, self.nbits - self.popcount)

    def outer(self, other: "LinearEstimator") -> "LinearEstimator":
        self._check_compatible(other)
        return LinearEstimator(self.nbits, self.bits | other.bits)

    def inner(self, other: "LinearEstimator") -> "LinearEstimator":
        self._check_compatible(other)
        return LinearEstimator(self.nbits, self.bits & other.bits)

    def _check_compatible(self, other: "LinearEstimator") -> None:
        if self.nbits != other.nbits:
            raise ValueError(
                f"length mismatch: {self.nbits} vs {other.nbits} bits"
            )

    def to_bytes(self) -> bytes:
        return self.bits.to_bytes(self.nbits // 8, "little")

    @classmethod
    def from_bytes(cls, data: bytes, nbits: int) -> "LinearEstimator":
        if len(data) != nbits // 8:
            raise ValueError(f"expected {nbits // 8} bytes, got {len(data)}")
        return cls(nbits, int.from_bytes(data, "little"))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinearEstimator)
            and other.nbits == self.nbits
            and other.bits == self.bits
        )

    def __repr__(self) -> str:
        return f"LinearEstimator(nbits={self.nbits}, popcount={self.popcount})"


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
