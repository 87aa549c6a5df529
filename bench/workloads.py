"""Seeded benchmark inputs: trace files per node plus the planted truth.

The generator is the benchmark's own and uses numpy only, so the inputs
and the truth they are scored against do not depend on the code under
test. Every window holds `planted` sources whose exact numbers of
distinct peers are spread evenly over the workload's range (at least
2θ), and a Zipf-tailed background whose cardinalities stay at or below
θ/2. The planted set is therefore the exact super-point set of each
window. The seed picks the addresses, peers and order, never the sizes.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field

import numpy as np

#: observation nodes in every workload, one trace file each
NODES = 3
#: tumbling-window length written to the config and used for timestamps
WINDOW_SECONDS = 300
#: rank-frequency exponent of the background cardinalities
ZIPF_S = 1.2
#: odd stride, so the peers of one source never collide mod 2^32
_STRIDE = np.uint64(0x9E3779B1)
_MASK32 = np.uint64(0xFFFFFFFF)


@dataclass(frozen=True)
class Geometry:
    """Detector settings for the `superpoint run` config file."""

    r: int = 6
    l: tuple[int, ...] = (14, 14, 14)
    s: tuple[int, ...] = (0, 10, 20)
    u_hat: int = 5
    v_hat: int = 2**15
    le_len: int = 2**14
    seed: int = 1


@dataclass(frozen=True)
class Workload:
    """Recipe for one workload's windows, generated per seed."""

    name: str
    theta: int
    planted: int
    planted_mult: tuple[int, int]  # cardinality range in multiples of theta
    background_hosts: int
    duplication: int = 1
    windows: int = 1
    geometry: Geometry = field(default_factory=Geometry)

    def config_text(self) -> str:
        """The `superpoint run` config file for this workload."""
        g = self.geometry
        return "".join(
            f"{key} = {value}\n"
            for key, value in (
                ("r", g.r),
                ("l", ",".join(map(str, g.l))),
                ("s", ",".join(map(str, g.s))),
                ("u_hat", g.u_hat),
                ("v_hat", g.v_hat),
                ("le_len", g.le_len),
                ("theta", self.theta),
                ("seed", g.seed),
                ("nodes", NODES),
                ("window_seconds", WINDOW_SECONDS),
            )
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="bulk_ingest",
            theta=1024,
            planted=20,
            planted_mult=(2, 16),
            background_hosts=1_000_000,
            duplication=2,
        ),
        # At 2θ the rough estimator misses a host with probability about
        # 4e-5, which 10k planted hosts make visible; from 3θ it is 6e-8.
        Workload(
            name="dense_candidates",
            theta=32,
            planted=10_000,
            planted_mult=(3, 4),
            background_hosts=20_000,
        ),
    )
}


def _distinct_u32(rng: np.random.Generator, n: int) -> np.ndarray:
    """n distinct uniform 32-bit addresses, in draw order."""
    draw = rng.integers(0, 2**32, size=n + n // 16 + 64, dtype=np.uint64)
    _, first = np.unique(draw, return_index=True)
    if first.size < n:
        raise RuntimeError("too many address collisions")
    return draw[np.sort(first)[:n]].astype(np.uint32)


def _window_pairs(rng: np.random.Generator, w: Workload):
    """One window's shuffled (a, b) pairs and its planted sources."""
    sources = _distinct_u32(rng, w.planted + w.background_hosts)
    lo, hi = w.planted_mult
    # A fixed set of cardinalities in a seeded order: the seed changes the
    # content of a window, never its size, so every seed makes the
    # detector allocate the same buffers in the same order.
    spread = np.linspace(lo * w.theta, hi * w.theta, w.planted)
    planted_cards = rng.permutation(np.rint(spread).astype(np.int64))
    ranks = np.arange(1, w.background_hosts + 1, dtype=np.float64)
    background_cards = np.maximum(1, np.rint((w.theta // 2) / ranks**ZIPF_S))
    cards = np.concatenate([planted_cards, background_cards]).astype(np.int64)
    base = rng.integers(0, 2**32, size=sources.size, dtype=np.uint64)

    total = int(cards.sum())
    starts = np.repeat(np.cumsum(cards) - cards, cards)
    within = np.arange(total, dtype=np.uint64) - starts.astype(np.uint64)
    a = np.repeat(sources, cards)
    b = ((np.repeat(base, cards) + within * _STRIDE) & _MASK32).astype(np.uint32)
    a = np.tile(a, w.duplication)
    b = np.tile(b, w.duplication)
    order = rng.permutation(a.size)
    return a[order], b[order], sources[: w.planted]


@dataclass
class Inputs:
    workload: Workload
    seed: int
    windows: list[np.ndarray]  # per window, (pairs, 3) big-endian records
    truth: dict[int, frozenset[int]]  # window id -> planted super points
    pairs: int
    digest: str  # sha256 of the node files that deal 0 writes

    def write(self, out_dir: str, deal: int = 0) -> list[str]:
        """Write one binary trace file per node into out_dir.

        Record i of a window goes to node i mod NODES. Deal 0 keeps the
        generated order; deal k > 0 first shuffles each window's records
        in an order seeded by (seed, k). Every deal holds the same pairs,
        so the same super points, but each node gets other pairs: the
        detector's heap, and with it the cost of the stage-1 buffers,
        depends on what each node scanned, so the timed runs use a new
        deal each and their mean covers many such layouts.
        """
        windows = self.windows
        if deal:
            rng = np.random.default_rng(
                [self.seed & (2**64 - 1), deal] + list(self.workload.name.encode())
            )
            windows = [records[rng.permutation(len(records))] for records in windows]
        os.makedirs(out_dir, exist_ok=True)
        paths = []
        for node in range(NODES):
            path = os.path.join(out_dir, f"node_{node:03d}.bin")
            with open(path, "wb") as fh:
                for records in windows:
                    fh.write(records[node::NODES].tobytes())
                os.fsync(fh.fileno())  # no write-back while the runs are timed
            paths.append(path)
        return paths


def make_inputs(w: Workload, seed: int) -> Inputs:
    """Generate a workload's records and planted truth for one seed.

    Records are the 12-byte big-endian (source, peer, timestamp) format
    `superpoint run` reads. A single-window workload carries zero
    timestamps; a multi-window one stamps window t with times in
    [t * WINDOW_SECONDS, (t + 1) * WINDOW_SECONDS).
    """
    rng = np.random.default_rng([seed & (2**64 - 1)] + list(w.name.encode()))
    windows: list[np.ndarray] = []
    truth: dict[int, frozenset[int]] = {}
    for window in range(w.windows):
        a, b, planted = _window_pairs(rng, w)
        if w.windows > 1:
            ts = window * WINDOW_SECONDS + rng.integers(
                0, WINDOW_SECONDS, size=a.size, dtype=np.uint32
            )
        else:
            ts = np.zeros(a.size, dtype=np.uint32)
        records = np.empty((a.size, 3), dtype=">u4")
        records[:, 0], records[:, 1], records[:, 2] = a, b, ts
        windows.append(records)
        truth[window if w.windows > 1 else 0] = frozenset(planted.tolist())

    digest = hashlib.sha256()
    for node in range(NODES):
        for records in windows:
            digest.update(records[node::NODES].tobytes())
    pairs = sum(len(records) for records in windows)
    return Inputs(w, seed, windows, truth, pairs, digest.hexdigest())


def write_empty_inputs(out_dir: str) -> list[str]:
    """Empty trace files, one per node: the set-up probe's input."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for node in range(NODES):
        path = os.path.join(out_dir, f"node_{node:03d}.bin")
        open(path, "wb").close()
        paths.append(path)
    return paths
