"""Scalar reference implementations that the vectorized library is
tested against, and the self-check suites built on them. They are
deliberately simple and slow: plain functions on Python ints, where a
merge is `|` or `&` and an estimate is
`linear_count(nbits, nbits - x.bit_count())`.

The suites return quietly on success and raise AssertionError with a
diagnostic on the first violation.
"""

from __future__ import annotations

import struct
from typing import Iterable, Sequence

import numpy as np

from superpoint import wire
from superpoint.estimators import CANDIDATE_BITS
from superpoint.hashing import HashSuite
from superpoint.learray import LEArray
from superpoint.node import Trace
from superpoint.recube import RECube, RECubeConfig, recover_candidates


def lsb(x: int) -> int:
    """Trailing-zero count of a 32-bit value; 32 for x == 0."""
    x &= 0xFFFFFFFF
    if x == 0:
        return 32
    return (x & -x).bit_length() - 1


# -- the hash family, one value at a time --------------------------------------

_MASK64 = (1 << 64) - 1


def mix64(x: int, seed: int = 0) -> int:
    """The keyed 64-bit mixer of one value (splitmix64's finalizer)."""
    z = (x * 0x9E3779B97F4A7C15 + seed) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def rand32(hs: HashSuite, b: int) -> int:
    return mix64(b, hs._seed_rand) & 0xFFFFFFFF


def re_bit(hs: HashSuite, b: int) -> int:
    return mix64(b, hs._seed_rebit) & 7


def le_bit(hs: HashSuite, b: int, nbits: int) -> int:
    return mix64(b, hs._seed_lebit) & (nbits - 1)


def col(hs: HashSuite, a: int, row: int, ncols: int) -> int:
    return mix64(a, hs._col_seed(row)) & (ncols - 1)


def re_slot(hs: HashSuite, b: int, tau: float) -> int:
    """The rough-estimator bit opposite host b sets: one of 8 slots when
    its hash qualifies under tau, else none."""
    return 1 << re_bit(hs, b) if lsb(rand32(hs, b)) >= tau else 0


def le_sketch(hs: HashSuite, hosts: Iterable[int], nbits: int) -> int:
    """Linear-counting bit vector of a set of opposite hosts."""
    bits = 0
    for b in hosts:
        bits |= 1 << le_bit(hs, b, nbits)
    return bits


def bits_of(cell: np.ndarray) -> int:
    """A packed bit vector (LSB first) as a Python int."""
    return int.from_bytes(cell.tobytes(), "little")


def dense_cells(lea: LEArray) -> np.ndarray:
    """A grid's (u_hat, v_hat, le_len // 8) cells, whether it is logged,
    sealed or folded, read through its per-row primitive."""
    every = np.arange(lea.v_hat)
    return np.stack([lea.row_cells(i, every) for i in range(lea.u_hat)])


def write_cell(lea: LEArray, i: int, col: int, cell: np.ndarray) -> None:
    """Set row i's cell at column `col` of a folded grid to `cell`, through
    the row's map: a column without a cell takes the next one first."""
    lea.cells[lea.cells_of(i, np.array([col]))[0]] = cell


def write_key(lea: LEArray, i: int, col: int, bit: int) -> None:
    """Leave row i's column `col` of a folded grid holding the one bit
    `bit`: as a fold leaves a column whose pairs all set one bit, in the
    row's map, or where the column has a cell, as that cell."""
    if lea._map[i, col] > 0:
        cell = np.zeros(lea.le_len // 8, np.uint8)
        cell[bit >> 3] = 1 << (bit & 7)
        write_cell(lea, i, col, cell)
    else:
        lea._map[i, col] = ~bit


def same_sketch(x: RECube | LEArray, y: RECube | LEArray) -> bool:
    """Two cubes, or two grids, with the same geometry and the same cells."""

    def geometry(sketch):
        if isinstance(sketch, RECube):
            return sketch.config
        return sketch.u_hat, sketch.v_hat, sketch.le_len

    def cells(sketch):
        return sketch.cells if isinstance(sketch, RECube) else dense_cells(sketch)

    return type(x) is type(y) and geometry(x) == geometry(y) and np.array_equal(cells(x), cells(y))


def and_of_rows(lea: LEArray, cands, hs: HashSuite) -> np.ndarray:
    """The reference stage-3 sketches: each candidate's u_hat row cells,
    gathered and ANDed, as a (len(cands), le_len // 8) matrix."""
    cands = np.asarray(cands, np.uint32)
    merged = np.full((cands.size, lea.le_len // 8), 0xFF, np.uint8)
    for i in range(lea.u_hat):
        merged &= lea.row_cells(i, hs.col_arr(cands, i, lea.v_hat))
    return merged


def dense_replay(batches, u_hat: int, v_hat: int, le_len: int, hs: HashSuite) -> np.ndarray:
    """The (u_hat, v_hat, le_len // 8) cells of a grid that took the (a, b)
    `batches`, each pair's bit ORed into its cell of every row one write
    at a time."""
    cells = np.zeros((u_hat, v_hat * (le_len // 8)), np.uint8)
    for a, b in batches:
        bit = hs.le_bit_arr(np.asarray(b, np.uint32), le_len)
        for i in range(u_hat):
            col = hs.col_arr(np.asarray(a, np.uint32), i, v_hat)
            np.bitwise_or.at(cells[i], col * (le_len // 8) + (bit >> 3), (1 << (bit & 7)).astype(np.uint8))
    return cells.reshape(u_hat, v_hat, le_len // 8)


# -- the CSV trace grammar, one line at a time ----------------------------------


def _address(text: bytes) -> int | None:
    """The address of four decimal octets 0-255 without a leading zero, else None."""
    octets = text.split(b".")
    if len(octets) != 4 or not all(o.isdigit() and o == b"%d" % int(o) and int(o) <= 255 for o in octets):
        return None
    return int.from_bytes(bytes(int(o) for o in octets), "big")


def csv_records(data: bytes, line_bytes: int) -> tuple[list[tuple[int, int, int]], int]:
    """The (a, b, ts) records of a CSV trace file's bytes and its count of
    malformed lines. A line, its newline not counted, of at most
    `line_bytes` bytes is blank when it is only ASCII whitespace, and a
    record when, stripped of that, it is two addresses and an optional
    timestamp of 1-10 decimal digits up to 2^32-1, split by commas."""
    lines = data.split(b"\n")
    if lines[-1] == b"":
        lines.pop()  # the newline that ends the last line
    records, malformed = [], 0
    for line in lines:
        fields = line.strip().split(b",")  # bytes.strip: ASCII whitespace only
        if len(line) <= line_bytes and fields == [b""]:
            continue
        a, b = (_address(f) for f in fields[:2]) if len(fields) in (2, 3) else (None, None)
        ts = fields[2] if len(fields) == 3 else b"0"
        if len(line) > line_bytes or a is None or b is None or not (
            ts.isdigit() and len(ts) <= 10 and int(ts) <= 0xFFFFFFFF
        ):
            malformed += 1
            continue
        records.append((a, b, int(ts)))
    return records, malformed


# -- the payloads, encoded by copying ---------------------------------------------


def _header(stage: int, node_id: int, window_id: int) -> bytes:
    return struct.pack("<4sBBHI", wire.MAGIC, wire.VERSION, stage, node_id, window_id)


def encode_stage1(node_id: int, window_id: int, cube: RECube) -> bytes:
    """Header, geometry (r, u, then each row's width l and offset s), then the cells."""
    cfg = cube.config
    geometry = struct.pack(f"<BB{cfg.u}B{cfg.u}B", cfg.r, cfg.u, *cfg.l, *cfg.s)
    return _header(wire.STAGE_CUBE, node_id, window_id) + geometry + cube.cells.tobytes()


def stage1_chunks(data) -> tuple[memoryview, memoryview]:
    """A whole stage-1 payload cut where its header chunk ends, as its u
    (the byte after r) says: (header, cells), views of `data`."""
    data = memoryview(data)
    u = data[wire.HEADER_LEN + 1] if len(data) > wire.HEADER_LEN + 1 else 0
    cut = wire.HEADER_LEN + 2 + 2 * u
    return data[:cut], data[cut:]


def decode_stage1(data) -> tuple[wire.PayloadHeader, RECube]:
    """A whole stage-1 payload through the chunk decoder: (header, cube),
    the cube a read-only view of `data`."""
    return wire.decode_stage1(*stage1_chunks(data))


def stage1_size(cfg: RECubeConfig) -> int:
    """Bytes of a stage-1 payload: its header, r, u, each row's width and
    offset, then the cells."""
    return wire.HEADER_LEN + 2 + 2 * cfg.u + cfg.nbytes


def encode_stage3(
    node_id: int, window_id: int, candidates, sketches: np.ndarray, le_len: int
) -> bytes:
    """Header, w and le_len, then one record per candidate: its address,
    then its row of the (w, le_len // 8) sketch matrix."""
    candidates = np.asarray(candidates, np.uint32).tolist()
    if sketches.shape != (len(candidates), le_len // 8):
        raise ValueError(f"sketches {sketches.shape} are not {len(candidates)} x {le_len} bits")
    records = [struct.pack("<I", c) + row.tobytes() for c, row in zip(candidates, sketches)]
    head = _header(wire.STAGE_CANDIDATE_LES, node_id, window_id)
    return b"".join([head, struct.pack("<II", len(candidates), le_len), *records])


def decode_stage3(data) -> tuple[wire.PayloadHeader, np.ndarray, np.ndarray]:
    """A whole stage-3 payload through the chunk decoders: (header,
    candidates, sketches), read-only views of `data`."""
    data = memoryview(data)
    header, w, le_len = wire.decode_stage3_header(data[: wire.STAGE3_HEADER_LEN])
    candidates, sketches = wire.decode_stage3_block(data[wire.STAGE3_HEADER_LEN :], le_len)
    if candidates.size != w:
        raise ValueError(f"expected {w} records, got {candidates.size}")
    return header, candidates, sketches


def stage3_size(w: int, le_len: int) -> int:
    """Bytes of a stage-3 payload: its header, then w records of a 4-byte
    address and an le_len-bit sketch."""
    return wire.STAGE3_HEADER_LEN + w * (4 + le_len // 8)


def expected_comms(cfg: RECubeConfig, params, w: int) -> dict:
    """Per-node byte accounting for a given geometry and candidate count.

    Pure arithmetic mirror of what run_window measures; used to project
    the communication fraction at geometries too big to instantiate.
    """
    stage1 = stage1_size(cfg)
    stage2 = wire.stage2_size(w)
    stage3 = stage3_size(w, params.le_len)
    master = cfg.nbytes + params.lea_bytes
    total = stage1 + stage2 + stage3
    return {
        "stage1_bytes": stage1,
        "stage2_bytes": stage2,
        "stage3_bytes": stage3,
        "per_node_total": total,
        "master_structure_bytes": master,
        "fraction": total / master,
    }


# -- the cube geometry -----------------------------------------------------------


def derive_indices(a: int, cfg: RECubeConfig) -> tuple[int, tuple[int, ...]]:
    """Map a source address to its plane index k and per-row cell indexes."""
    a &= 0xFFFFFFFF
    lp = a >> cfg.r
    n = cfg.left_bits
    js = []
    for si, li in zip(cfg.s, cfg.l):
        j = 0
        for t in range(li):
            j |= ((lp >> ((si + t) % n)) & 1) << t
        js.append(j)
    return a & ((1 << cfg.r) - 1), tuple(js)


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


def rec_merge_outer(cubes: Sequence[RECube]) -> RECube:
    """Cell-wise OR of cubes sharing one geometry, as a new cube: the
    merge that `recover_candidates` takes a chunk at a time."""
    merged = RECube(cubes[0].config)
    for cube in cubes:
        assert cube.config == merged.config
        merged.cells |= cube.cells
    return merged


def dfs_recover_candidates(rec: RECube) -> set[int]:
    """Per-plane depth-first candidate recovery.

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
        cand = [
            [j for j, v in enumerate(row[k].tolist()) if v.bit_count() >= CANDIDATE_BITS]
            for row in rec.rows
        ]
        if not all(cand):
            continue
        # Bucket row i+1 candidates by their low overlap bits so the DFS
        # only visits chain-compatible extensions.
        buckets: list[dict[int, list[int]]] = []
        for i in range(1, u):
            mask = (1 << overlaps[i - 1]) - 1
            by_low: dict[int, list[int]] = {}
            for j in cand[i]:
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
                if merged.bit_count() < CANDIDATE_BITS:
                    return
                lp = reconstruct_left_part(stack, cfg)
                if lp is not None:
                    found.add((lp << cfg.r) | k)
                return
            if i == 0:
                for j in cand[0]:
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


# -- the worked recovery example (acceptance criterion 1) ------------------------

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
    cube.rows[0][GOLDEN_PLANE, j0] = candidate_bits
    cube.rows[1][GOLDEN_PLANE, GOLDEN_ROW1_MISMATCH] = candidate_bits
    cube.rows[1][GOLDEN_PLANE, j1] = candidate_bits
    cube.rows[2][GOLDEN_PLANE, GOLDEN_ROW2_MISMATCH] = candidate_bits
    cube.rows[2][GOLDEN_PLANE, j2] = candidate_bits
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


# -- property sweeps (acceptance criteria 3 and 7) --------------------------------


def _brute_force_cells(
    streams: list[Trace], u_hat: int, v_hat: int, le_len: int, hs: HashSuite
) -> list[dict[tuple[int, int], int]]:
    """Independent dict-of-bitsets reconstruction of every LEA cell."""
    per_node = []
    for stream in streams:
        cells: dict[tuple[int, int], int] = {}
        for a, b in zip(stream.a.tolist(), stream.b.tolist()):
            bit = 1 << le_bit(hs, b, le_len)
            for i in range(u_hat):
                key = (i, col(hs, a, i, v_hat))
                cells[key] = cells.get(key, 0) | bit
        per_node.append(cells)
    return per_node


def check_theorem1_instance(rng: np.random.Generator) -> None:
    """One randomized sandwich check: excl <= per-node-AND-then-OR <= OR-then-AND,
    the last being one node that scanned the union of the streams."""
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
    excl = le_sketch(hs, np.unique(whole.b[whole.a == candidate]).tolist(), le_len)

    def sketch(lea: LEArray) -> int:
        return bits_of(and_of_rows(lea, [candidate], hs))

    read = 0
    for lea in leas:
        read |= sketch(lea)
    single_lea = LEArray(u_hat, v_hat, le_len)
    single_lea.update_pairs(whole.a, whole.b, hs)
    single = sketch(single_lea)

    assert excl & read == excl, "exclusive ⊄ per-candidate merge"
    assert read & single == read, "per-candidate merge ⊄ single-node sketch"
    assert excl.bit_count() <= read.bit_count() <= single.bit_count()

    # same sandwich against a brute-force reconstruction of every cell
    oracle_cells = _brute_force_cells(streams, u_hat, v_hat, le_len, hs)
    full = (1 << le_len) - 1
    oracle_read = 0
    for cells in oracle_cells:
        inner = full
        for i in range(u_hat):
            inner &= cells.get((i, col(hs, candidate, i, v_hat)), 0)
        oracle_read |= inner
    oracle_single = full
    for i in range(u_hat):
        row_union = 0
        for cells in oracle_cells:
            row_union |= cells.get((i, col(hs, candidate, i, v_hat)), 0)
        oracle_single &= row_union
    assert oracle_read == read, "production per-candidate path != oracle"
    assert oracle_single == single, "production single-node sketch != oracle"


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
        # rough estimators: outer merge is OR, inner merge is AND
        x, y, z = (int(v) for v in rng.integers(0, 256, 3))
        assert x | y == y | x
        assert (x | y) | z == x | (y | z)
        assert x | x == x
        assert x & y == y & x
        assert (x & y) & z == x & (y & z)
        assert x & x == x
        checked += 1
    for _ in range(n_scalar):
        # linear estimators: outer merge is OR
        x, y, z = (int(v) for v in rng.integers(0, 2**32, 3, dtype=np.uint64))
        assert x | y == y | x
        assert (x | y) | z == x | (y | z)
        assert x | x == x
        checked += 1

    cfg = RECubeConfig(r=2, l=(6,) * 8, s=(0, 4, 8, 12, 16, 20, 24, 28))
    hs = HashSuite(7)
    n_cube = max(1, cases - checked - max(1, cases // 100))
    recovered = 0
    for _ in range(n_cube):
        # sources drawn from a few hosts, so that the cubes' OR holds
        # candidates for the coordinator's OR to agree on
        sources = rng.integers(0, 2**32, 4, dtype=np.uint64).astype(np.uint32)
        cubes = []
        for _ in range(3):
            cube = RECube(cfg)
            m = int(rng.integers(1, 30))
            cube.update_pairs(
                rng.choice(sources, m),
                rng.integers(0, 2**32, m, dtype=np.uint64).astype(np.uint32),
                0.0,
                hs,
            )
            cubes.append(cube)
        x, y, z = cubes
        assert same_sketch(rec_merge_outer([x, y]), rec_merge_outer([y, x]))
        assert same_sketch(
            rec_merge_outer([rec_merge_outer([x, y]), z]),
            rec_merge_outer([x, rec_merge_outer([y, z])]),
        )
        assert same_sketch(rec_merge_outer([x, x]), x)
        # the coordinator's OR: node order, a repeated node and a pre-ORed
        # pair do not change the candidates
        want = recover_candidates(rec_merge_outer(cubes))
        for got in (
            recover_candidates(z, x, y),
            recover_candidates(x, y, z, y),
            recover_candidates(rec_merge_outer([x, y]), z),
        ):
            assert np.array_equal(got, want), (got, want)
        recovered += want.size > 0
        checked += 1
    assert recovered, "no cube case held a candidate"

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
        assert same_sketch(cube1, cube2), "cube scan must be order-invariant"
        assert same_sketch(lea1, lea2), "grid scan must be order-invariant"
        checked += 1
    return checked
