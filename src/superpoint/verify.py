"""Self-check suites: the worked recovery example and property sweeps.

These functions are shared by the `verify` CLI command and the test
suite. Each returns quietly on success and raises AssertionError with a
diagnostic on the first violation.
"""

from __future__ import annotations

import numpy as np

from .estimators import LinearEstimator, RoughEstimator
from .hashing import HashSuite
from .learray import LEArray, lea_merge_outer
from .node import Trace
from .recube import RECube, RECubeConfig, derive_indices, rec_merge_outer, recover_candidates

# The reference recovery scenario: geometry r=2, three 14-bit rows
# starting at offsets 0/10/20, so adjacent rows share 4 bits and the last
# row wraps 4 bits back into row 0.
GOLDEN_CONFIG = RECubeConfig(r=2, l=(14, 14, 14), s=(0, 10, 20))
GOLDEN_LEFT_PART = 0b000101111001000111000101010101
GOLDEN_PLANE = 2
GOLDEN_ADDRESS = (GOLDEN_LEFT_PART << 2) | GOLDEN_PLANE
GOLDEN_INDEXES = (12629, 14620, 5214)
# Decoys that must be rejected: 12693 fails the row0->row1 overlap,
# 9694 chains from row 1 but fails the cyclic wrap back to row 0.
GOLDEN_ROW1_MISMATCH = 0b11000110010101
GOLDEN_ROW2_MISMATCH = 0b10010111011110


def check_golden_example() -> dict:
    """Reproduce the reference recovery scenario exactly."""
    cfg = GOLDEN_CONFIG
    k, js = derive_indices(GOLDEN_ADDRESS, cfg)
    assert k == GOLDEN_PLANE, f"expected plane 2, got {k}"
    assert js == GOLDEN_INDEXES, f"expected {GOLDEN_INDEXES}, got {js}"

    o01, o12, wrap = cfg.overlaps
    assert (o01, o12, wrap) == (4, 4, 4)

    j0, j1, j2 = GOLDEN_INDEXES
    # row0 -> row1 chaining: top 4 bits of j0 must equal low 4 bits of j1
    assert (j0 >> 10) == (j1 & 0xF), "true tuple must chain row0->row1"
    assert (j0 >> 10) != (GOLDEN_ROW1_MISMATCH & 0xF), (
        "mismatched row-1 index must be rejected"
    )
    # row1 -> row2 chaining passes for both row-2 candidates...
    assert (j1 >> 10) == (j2 & 0xF)
    assert (j1 >> 10) == (GOLDEN_ROW2_MISMATCH & 0xF)
    # ...but only the true one survives the cyclic wrap back to row 0.
    assert (j2 >> 10) == (j0 & 0xF)
    assert (GOLDEN_ROW2_MISMATCH >> 10) != (j0 & 0xF), (
        "wrap-mismatched row-2 index must be rejected"
    )

    cube = RECube(cfg)
    candidate_bits = 0b00000111  # >= 3 set bits, AND-stable
    cube.set_cell(GOLDEN_PLANE, 0, j0, candidate_bits)
    cube.set_cell(GOLDEN_PLANE, 1, GOLDEN_ROW1_MISMATCH, candidate_bits)
    cube.set_cell(GOLDEN_PLANE, 1, j1, candidate_bits)
    cube.set_cell(GOLDEN_PLANE, 2, GOLDEN_ROW2_MISMATCH, candidate_bits)
    cube.set_cell(GOLDEN_PLANE, 2, j2, candidate_bits)
    recovered = recover_candidates(cube).tolist()
    assert recovered == [GOLDEN_ADDRESS], (
        f"expected exactly {GOLDEN_ADDRESS:#010x}, got "
        f"{[hex(x) for x in recovered]}"
    )
    return {
        "address": GOLDEN_ADDRESS,
        "plane": GOLDEN_PLANE,
        "indexes": GOLDEN_INDEXES,
        "recovered": recovered,
    }


def _brute_force_cells(
    streams: list[Trace], u_hat: int, v_hat: int, le_len: int, hs: HashSuite
) -> list[dict[tuple[int, int], int]]:
    """Independent dict-of-bitsets reconstruction of every LEA cell."""
    per_node = []
    for stream in streams:
        cells: dict[tuple[int, int], int] = {}
        for a, b in zip(stream.a.tolist(), stream.b.tolist()):
            bit = 1 << hs.le_bit(b, le_len)
            for i in range(u_hat):
                key = (i, hs.col(a, i, v_hat))
                cells[key] = cells.get(key, 0) | bit
        per_node.append(cells)
    return per_node


def check_theorem1_instance(rng: np.random.Generator) -> None:
    """One randomized sandwich check: excl <= per-node-AND-then-OR <= OR-then-AND."""
    n_nodes = int(rng.integers(1, 5))
    u_hat = int(rng.integers(1, 4))
    le_len = int(rng.choice([16, 32, 64]))
    v_hat = int(rng.choice([4, 8, 16]))
    n_pairs = int(rng.integers(20, 400))
    n_sources = int(rng.integers(2, 12))
    seed = int(rng.integers(0, 2**63))
    hs = HashSuite(seed)

    sources = rng.integers(0, 2**32, n_sources, dtype=np.uint64).astype(np.uint32)
    a = rng.choice(sources, n_pairs)
    b = rng.integers(0, 2**14, n_pairs, dtype=np.uint64).astype(np.uint32)
    candidate = int(sources[0])
    whole = Trace(a, b)
    assignment = rng.integers(0, n_nodes, n_pairs)
    streams = [whole.take(np.flatnonzero(assignment == i)) for i in range(n_nodes)]

    leas = []
    for stream in streams:
        lea = LEArray(u_hat, v_hat, le_len)
        lea.update_pairs(stream.a, stream.b, hs)
        leas.append(lea)

    # exclusive estimator: candidate's own opposite hosts over the union
    excl = LinearEstimator(le_len)
    for bb in np.unique(whole.b[whole.a == candidate]).tolist():
        excl.update(bb, hs)

    def sketch(lea: LEArray) -> int:
        return int.from_bytes(lea.extract_candidates([candidate], hs).tobytes(), "little")

    read = 0
    for lea in leas:
        read |= sketch(lea)
    naive = sketch(lea_merge_outer(leas))

    assert excl.bits & read == excl.bits, "exclusive ⊄ per-candidate merge"
    assert read & naive == read, "per-candidate merge ⊄ naive merge"
    assert excl.popcount <= read.bit_count() <= naive.bit_count()

    # same sandwich against a brute-force reconstruction of every cell
    oracle_cells = _brute_force_cells(streams, u_hat, v_hat, le_len, hs)
    full = (1 << le_len) - 1
    oracle_read = 0
    for cells in oracle_cells:
        inner = full
        for i in range(u_hat):
            inner &= cells.get((i, hs.col(candidate, i, v_hat)), 0)
        oracle_read |= inner
    oracle_naive = full
    for i in range(u_hat):
        row_union = 0
        for cells in oracle_cells:
            row_union |= cells.get((i, hs.col(candidate, i, v_hat)), 0)
        oracle_naive &= row_union
    assert oracle_read == read, "production per-candidate path != oracle"
    assert oracle_naive == naive, "production naive path != oracle"


def check_theorem1_sweep(instances: int, seed: int = 0) -> int:
    rng = np.random.default_rng(seed)
    for _ in range(instances):
        check_theorem1_instance(rng)
    return instances


def check_merge_algebra(cases: int, seed: int = 0) -> int:
    """Commutativity/associativity/idempotence of the merge operators,
    plus scan-order invariance of the cube/grid builders."""
    rng = np.random.default_rng(seed)
    checked = 0

    n_scalar = max(1, cases * 2 // 5)
    for _ in range(n_scalar):
        x, y, z = (RoughEstimator(int(v)) for v in rng.integers(0, 256, 3))
        assert x.outer(y) == y.outer(x)
        assert x.outer(y).outer(z) == x.outer(y.outer(z))
        assert x.outer(x) == x
        assert x.inner(y) == y.inner(x)
        assert x.inner(y).inner(z) == x.inner(y.inner(z))
        assert x.inner(x) == x
        checked += 1
    for _ in range(n_scalar):
        nbits = 32
        x, y, z = (
            LinearEstimator(nbits, int(v))
            for v in rng.integers(0, 2**nbits, 3, dtype=np.uint64)
        )
        assert x.outer(y) == y.outer(x)
        assert x.outer(y).outer(z) == x.outer(y.outer(z))
        assert x.outer(x) == x
        checked += 1

    cfg = RECubeConfig(r=2, l=(6,) * 8, s=(0, 4, 8, 12, 16, 20, 24, 28))
    hs = HashSuite(7)
    n_cube = max(1, cases - checked - max(1, cases // 100))
    for _ in range(n_cube):
        cubes = []
        for _ in range(3):
            cube = RECube(cfg)
            m = int(rng.integers(1, 30))
            cube.update_pairs(
                rng.integers(0, 2**32, m, dtype=np.uint64).astype(np.uint32),
                rng.integers(0, 2**32, m, dtype=np.uint64).astype(np.uint32),
                0.0,
                hs,
            )
            cubes.append(cube)
        x, y, z = cubes
        assert rec_merge_outer([x, y]) == rec_merge_outer([y, x])
        assert rec_merge_outer([rec_merge_outer([x, y]), z]) == rec_merge_outer(
            [x, rec_merge_outer([y, z])]
        )
        assert rec_merge_outer([x, x]) == x
        checked += 1

    while checked < cases:
        m = int(rng.integers(2, 200))
        a = rng.integers(0, 2**32, m, dtype=np.uint64).astype(np.uint32)
        b = rng.integers(0, 2**32, m, dtype=np.uint64).astype(np.uint32)
        order = rng.permutation(m)
        cube1, cube2 = RECube(cfg), RECube(cfg)
        lea1 = LEArray(2, 4, 32)
        lea2 = LEArray(2, 4, 32)
        cube1.update_pairs(a, b, 1.0, hs)
        cube2.update_pairs(a[order], b[order], 1.0, hs)
        lea1.update_pairs(a, b, hs)
        lea2.update_pairs(a[order], b[order], hs)
        assert cube1 == cube2, "cube scan must be order-invariant"
        assert lea1 == lea2, "grid scan must be order-invariant"
        checked += 1
    return checked


def run_all(theorem1_instances: int = 100, algebra_cases: int = 500, seed: int = 0):
    """Run every suite; yields (name, detail) after each passes."""
    golden = check_golden_example()
    yield "golden-recovery-example", (
        f"address {golden['address']:#010x}, indexes {golden['indexes']}"
    )
    count = check_theorem1_sweep(theorem1_instances, seed)
    yield "theorem1-sandwich", f"{count} randomized instances"
    count = check_merge_algebra(algebra_cases, seed)
    yield "merge-algebra", f"{count} randomized cases"
