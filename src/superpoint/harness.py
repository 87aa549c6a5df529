"""Ground truth and evaluation: exact oracle, synthetic traces, metrics.

The oracle counts distinct opposite hosts per source exactly (hash-set
semantics via sort-unique), so detector output can be scored without any
estimation error in the reference. Synthetic traces plant super points
with exact cardinalities on top of a Zipf-tailed background whose
cardinalities stay below theta/2 by default, so detection errors are
attributable to the sketches rather than threshold straddling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hashing import _MASK64, mix64_arr
from .node import Trace

_ODD_STRIDE = 0x9E3779B1  # odd, so opposite hosts of one source never collide


@dataclass(frozen=True)
class Metrics:
    """Error rates in percent, relative to the true super-point count."""

    n_true: int
    n_false_positive: int
    n_missed: int

    @property
    def fpr(self) -> float:
        return 100.0 * self.n_false_positive / self.n_true

    @property
    def fnr(self) -> float:
        return 100.0 * self.n_missed / self.n_true

    @property
    def ftr(self) -> float:
        return self.fpr + self.fnr


def exact_cardinalities(traces: list[Trace]) -> dict[int, int]:
    """Distinct opposite-host count per source over the union stream."""
    if not any(len(t) for t in traces):
        return {}
    whole = Trace.concatenate(traces) if len(traces) != 1 else traces[0]
    key = (whole.a.astype(np.uint64) << np.uint64(32)) | whole.b.astype(np.uint64)
    unique_pairs = np.unique(key)
    sources = (unique_pairs >> np.uint64(32)).astype(np.uint32)
    addrs, counts = np.unique(sources, return_counts=True)
    return dict(zip(addrs.tolist(), counts.tolist()))


def true_super_points(traces: list[Trace], theta: float) -> set[int]:
    return {a for a, c in exact_cardinalities(traces).items() if c > theta}


def oracle_evaluate(truth: set[int], detected: set[int]) -> Metrics | None:
    """Score a detected set against the true super points (see
    true_super_points); None when there are none."""
    if not truth:
        return None
    return Metrics(
        n_true=len(truth),
        n_false_positive=len(detected - truth),
        n_missed=len(truth - detected),
    )


@dataclass(frozen=True)
class TraceSpec:
    """Recipe for a deterministic synthetic trace.

    planted           -- (source address, exact cardinality) pairs
    background_hosts  -- number of Zipf-tailed background sources
    zipf_s            -- rank-frequency exponent of background cardinalities
    max_background_card -- cap on background cardinalities, used as
                           given; theta/2 when None
    duplication       -- each distinct pair appears this many times
    """

    planted: tuple[tuple[int, int], ...] = ()
    background_hosts: int = 0
    zipf_s: float = 1.2
    max_background_card: int | None = None
    duplication: int = 1
    theta: int = 1024

    def __post_init__(self):
        object.__setattr__(self, "planted", tuple(map(tuple, self.planted)))
        if len({a for a, _ in self.planted}) != len(self.planted):
            raise ValueError("config key 'planted': addresses must be distinct")
        for a, c in self.planted:
            if c < 1:
                raise ValueError(f"config key 'planted': cardinality must be >= 1, got {c}")
            if not 0 <= a <= 0xFFFFFFFF:
                raise ValueError(f"config key 'planted': address out of range: {a:#x}")
        if self.duplication < 1:
            raise ValueError(f"config key 'duplication': must be >= 1, got {self.duplication}")
        if self.background_hosts < 0:
            raise ValueError("config key 'background_hosts': must be >= 0")

    @property
    def background_cap(self) -> int:
        if self.max_background_card is None:
            return self.theta // 2
        return self.max_background_card


def _opposite_hosts(sources: np.ndarray, cards: np.ndarray, seed: int) -> Trace:
    """Expand (source, cardinality) rows into exact distinct pairs."""
    total = int(cards.sum())
    src = np.repeat(sources, cards)
    starts = np.repeat(np.concatenate(([0], np.cumsum(cards)[:-1])), cards)
    within = np.arange(total, dtype=np.uint64) - starts.astype(np.uint64)
    base = mix64_arr(sources, seed & _MASK64) & np.uint64(0xFFFFFFFF)
    b = (np.repeat(base, cards) + within * np.uint64(_ODD_STRIDE)) & np.uint64(
        0xFFFFFFFF
    )
    return Trace(src.astype(np.uint32), b.astype(np.uint32))


def _background_sources(spec: TraceSpec, seed: int) -> np.ndarray:
    """Distinct background addresses, disjoint from the planted set: the
    first new values of the hash of counters 0, 1, 2, ... in counter order."""
    seed = (seed ^ 0xBA5E) & _MASK64
    out = np.zeros(0, np.uint32)
    taken = np.array([a for a, _ in spec.planted], dtype=np.uint32)
    counter = 0
    while out.size < spec.background_hosts:
        block = spec.background_hosts - out.size
        counters = np.arange(counter, counter + block, dtype=np.uint64)
        counter += block
        draws = (mix64_arr(counters, seed) & np.uint64(0xFFFFFFFF)).astype(np.uint32)
        draws = draws[np.sort(np.unique(draws, return_index=True)[1])]
        draws = draws[~np.isin(draws, taken)]
        out = np.concatenate([out, draws])
        taken = np.concatenate([taken, draws])
    return out


def generate_trace(spec: TraceSpec, seed: int) -> Trace:
    """Deterministic trace realizing the spec exactly.

    Every planted source contributes exactly its stated number of distinct
    opposite hosts; background source at rank t gets cardinality
    max(1, round(cap / t^s)).
    """
    pieces = []
    if spec.planted:
        sources = np.array([a for a, _ in spec.planted], dtype=np.uint32)
        cards = np.array([c for _, c in spec.planted], dtype=np.int64)
        pieces.append(_opposite_hosts(sources, cards, seed))
    if spec.background_hosts:
        ranks = np.arange(1, spec.background_hosts + 1, dtype=np.float64)
        cards = np.maximum(
            1, np.rint(spec.background_cap / ranks**spec.zipf_s)
        ).astype(np.int64)
        sources = _background_sources(spec, seed)
        pieces.append(_opposite_hosts(sources, cards, seed ^ 0xB0))
    if not pieces:
        return Trace(np.array([], np.uint32), np.array([], np.uint32))
    distinct = Trace.concatenate(pieces) if len(pieces) > 1 else pieces[0]
    a = np.tile(distinct.a, spec.duplication)
    b = np.tile(distinct.b, spec.duplication)
    rng = np.random.default_rng(seed)
    order = rng.permutation(a.size)
    return Trace(a[order], b[order])


PARTITION_MODES = ("round_robin", "hash_by_pair", "skewed")


def check_partition(n: int, mode: str, weights) -> None:
    """Raise, naming its config key, unless `partition_stream` can split a trace n ways by mode."""
    if n < 1:
        raise ValueError(f"config key 'nodes': must be >= 1, got {n}")
    if mode not in PARTITION_MODES:
        raise ValueError(f"config key 'partition': {mode!r} is not one of {PARTITION_MODES}")
    if (weights is None) == (mode == "skewed"):
        raise ValueError(f"config key 'weights': for partition = skewed only, which needs them; got {weights}")
    if weights is not None and (len(weights) != n or min(weights) < 0 or abs(sum(weights) - 1.0) > 1e-9):
        raise ValueError(f"config key 'weights': need {n} weights >= 0 summing to 1, got {weights}")


def partition_stream(
    trace: Trace,
    n: int,
    mode: str = "round_robin",
    seed: int = 0,
    weights: list[float] | None = None,
) -> list[Trace]:
    """Split a trace into n disjoint per-node streams."""
    check_partition(n, mode, weights)
    if mode == "round_robin":
        assignment = np.arange(len(trace)) % n
    elif mode == "hash_by_pair":
        key = (trace.a.astype(np.uint64) << np.uint64(32)) | trace.b.astype(
            np.uint64
        )
        assignment = (mix64_arr(key, seed) % np.uint64(n)).astype(np.int64)
    else:
        rng = np.random.default_rng(seed)
        assignment = rng.choice(n, size=len(trace), p=weights)
    return [trace.take(np.flatnonzero(assignment == i)) for i in range(n)]
