import tracemalloc

import numpy as np
import oracles
import pytest
from oracles import (
    GOLDEN_ADDRESS,
    GOLDEN_CONFIG,
    GOLDEN_INDEXES,
    GOLDEN_PLANE,
    check_golden_example,
    decode_stage1,
    derive_indices,
    dfs_recover_candidates,
    encode_stage1,
    re_bit,
    re_slot,
    reconstruct_left_part,
    same_sketch,
    stage1_size,
)

from superpoint import recube, wire
from superpoint.estimators import CANDIDATE_BITS, compute_tau
from superpoint.hashing import HashSuite
from superpoint.recube import (
    RECube,
    RECubeConfig,
    derive_indices_arr,
    recover_candidates,
)

HS = HashSuite(0xC0FFEE)

# small geometry used by the replay/recovery tests: 4 planes, 8 rows of
# 6-bit windows striding by 4 over the 30 left-part bits
SMALL = RECubeConfig(r=2, l=(6,) * 8, s=(0, 4, 8, 12, 16, 20, 24, 28))


# -- config validation --------------------------------------------------------


def test_config_accepts_defaults():
    cfg = RECubeConfig(r=6, l=(14, 14, 14), s=(0, 10, 20))
    assert cfg.u == 3
    assert cfg.left_bits == 26
    assert cfg.overlaps == (4, 4, 8)
    assert cfg.nbytes == 64 * 3 * 2**14  # 3 MB


@pytest.mark.parametrize(
    "kwargs, fragment",
    [
        (dict(r=0, l=(14, 14), s=(0, 10)), "r must be"),
        (dict(r=2, l=(14,), s=(0,)), "at least 2 rows"),
        (dict(r=2, l=(14, 14), s=(0, 10, 20)), "equal length"),
        (dict(r=2, l=(14, 14, 14), s=(1, 10, 20)), "s[0] = 0"),
        (dict(r=2, l=(14, 14, 14), s=(0, 10, 9)), "s[1] < s[2] < 31-r"),
        (dict(r=2, l=(4, 14, 22), s=(0, 10, 20)), "s[1] < s[0] + l[0] - 1"),
        (dict(r=2, l=(6, 6, 6), s=(0, 4, 8)), "s[u-1] + l[u-1] > 31-r"),
        (dict(r=2, l=(4, 28, 10), s=(0, 2, 25)), "wraparound overlap"),
        (dict(r=6, l=(20, 7, 17), s=(0, 5, 10)), "s[0] + l[0] - s[1] <= l[1]"),
    ],
)
def test_config_rejects_bad_geometry(kwargs, fragment):
    with pytest.raises(ValueError) as exc:
        RECubeConfig(**kwargs)
    assert fragment in str(exc.value)


# -- index derivation ---------------------------------------------------------


def test_derive_indices_golden_example():
    # pinned worked example; full assertions live in oracles.check_golden_example
    k, js = derive_indices_arr(np.array([GOLDEN_ADDRESS], np.uint32), GOLDEN_CONFIG)
    assert k.tolist() == [GOLDEN_PLANE]
    assert tuple(int(j[0]) for j in js) == GOLDEN_INDEXES


def test_golden_example_end_to_end():
    detail = check_golden_example()
    assert detail["recovered"] == [GOLDEN_ADDRESS]


def test_derive_indices_zero_address():
    k, js = derive_indices_arr(np.zeros(1, np.uint32), SMALL)
    assert k.tolist() == [0]
    assert [j.tolist() for j in js] == [[0]] * SMALL.u


def test_derive_indices_scalar_vector_agree():
    rng = np.random.default_rng(1)
    addrs = rng.integers(0, 2**32, 2000, dtype=np.uint32)
    for cfg in (
        SMALL,
        GOLDEN_CONFIG,
        RECubeConfig(r=6, l=(14, 14, 14), s=(0, 10, 20)),
        RECubeConfig(r=6, l=(14, 14), s=(0, 12)),  # the last row ends at bit 32 - r
        RECubeConfig(r=20, l=(8, 8), s=(0, 6)),
        RECubeConfig(r=29, l=(3, 2), s=(0, 1)),  # a 3-bit left part
    ):
        k_arr, js_arr = derive_indices_arr(addrs, cfg)
        for t in range(0, 2000, 97):
            k, js = derive_indices(int(addrs[t]), cfg)
            assert k == k_arr[t]
            assert js == tuple(int(j[t]) for j in js_arr)


def test_index_round_trip_bulk():
    # every row window of the derived indexes must match the left part,
    # for 100k random addresses (vectorized bit-window comparison)
    rng = np.random.default_rng(2)
    addrs = rng.integers(0, 2**32, 100_000, dtype=np.uint32)
    for cfg in (SMALL, RECubeConfig(r=6, l=(14, 14, 14), s=(0, 10, 20))):
        k, js = derive_indices_arr(addrs, cfg)
        lp = addrs.astype(np.uint64) >> np.uint64(cfg.r)
        n = cfg.left_bits
        for (si, li), j in zip(zip(cfg.s, cfg.l), js):
            for t in range(li):
                lp_bit = (lp >> np.uint64((si + t) % n)) & np.uint64(1)
                j_bit = (j >> t) & 1
                assert np.array_equal(lp_bit.astype(np.int64), j_bit)


def test_reconstruct_round_trip():
    rng = np.random.default_rng(3)
    for a in rng.integers(0, 2**32, 500):
        k, js = derive_indices(int(a), SMALL)
        lp = reconstruct_left_part(js, SMALL)
        assert lp == int(a) >> SMALL.r
        assert (lp << SMALL.r) | k == int(a)


def test_reconstruct_detects_conflicts():
    _, js = derive_indices(0xDEADBEEF, SMALL)
    bad = list(js)
    bad[1] ^= 0b1  # flip a bit shared with row 0's window
    assert reconstruct_left_part(bad, SMALL) is None


# -- cube updates -------------------------------------------------------------


def _one(value: int) -> np.ndarray:
    return np.array([value], dtype=np.uint32)


def test_update_touches_exactly_u_cells():
    cube = RECube(SMALL)
    cube.update_pairs(_one(0xCAFE1234), _one(7), 0.0, HS)
    assert sum(int(np.count_nonzero(row)) for row in cube.rows) == SMALL.u
    k, js = derive_indices(0xCAFE1234, SMALL)
    expected = 1 << re_bit(HS, 7)
    for i, j in enumerate(js):
        assert cube.rows[i][k, j] == expected


def test_update_idempotent():
    cube = RECube(SMALL)
    cube.update_pairs(_one(42), _one(43), 0.0, HS)
    snapshot = cube.cells.copy()
    cube.update_pairs(_one(42), _one(43), 0.0, HS)
    assert np.array_equal(cube.cells, snapshot)


def test_update_pairs_matches_scalar_replay():
    # oracle: replay the same stream cell by cell on Python ints
    rng = np.random.default_rng(4)
    n = 3000
    a = rng.integers(0, 2**10, n, dtype=np.uint32)  # small pool forces reuse
    b = rng.integers(0, 2**16, n, dtype=np.uint32)
    tau = compute_tau(64)  # tau = 3

    cube = RECube(SMALL)
    cube.update_pairs(a, b, tau, HS)

    oracle: dict[tuple[int, int, int], int] = {}
    for av, bv in zip(a.tolist(), b.tolist()):
        k, js = derive_indices(av, SMALL)
        for i, j in enumerate(js):
            oracle[k, i, j] = oracle.get((k, i, j), 0) | re_slot(HS, bv, tau)

    for (k, i, j), bits in oracle.items():
        assert cube.rows[i][k, j] == bits
    total_bits = sum(int(bits != 0) for bits in oracle.values())
    nonzero = sum(int(np.count_nonzero(row)) for row in cube.rows)
    assert nonzero == total_bits


@pytest.mark.parametrize("log2_theta", [35, 36])
def test_update_pairs_zero_hash_qualifies_up_to_tau_32(monkeypatch, log2_theta):
    # a zero 32-bit hash has lsb 32: it qualifies at tau = 32, and at
    # tau = 33 no hash does
    monkeypatch.setattr(HS, "rand32_arr", lambda b: np.zeros(b.size, np.uint32))
    monkeypatch.setattr(oracles, "rand32", lambda hs, b: 0)
    tau = compute_tau(2**log2_theta)
    a, b = np.array([5, 9, 77], np.uint32), np.array([1, 2, 3], np.uint32)
    cube = RECube(SMALL)
    cube.update_pairs(a, b, tau, HS)

    oracle = RECube(SMALL)
    for av, bv in zip(a.tolist(), b.tolist()):
        k, js = derive_indices(av, SMALL)
        for row, j in zip(oracle.rows, js):
            row[k, j] |= re_slot(HS, bv, tau)
    assert same_sketch(cube, oracle)
    assert cube.cells.any() == (log2_theta == 35)


def test_update_empty_batch_is_noop():
    cube = RECube(SMALL)
    cube.update_pairs(
        np.array([], np.uint32), np.array([], np.uint32), 0.0, HS
    )
    assert not cube.cells.any()


# -- merging ------------------------------------------------------------------


def test_merge_identity_and_split_equality():
    # recovery ORs the node cubes: an empty node adds nothing, and a trace
    # split between two nodes, in either order, recovers what it does whole
    rng = np.random.default_rng(5)
    pool = rng.integers(0, 2**32, 10, dtype=np.uint32)
    a = np.repeat(pool, 50)
    b = rng.integers(0, 2**32, a.size, dtype=np.uint32)
    whole = RECube(SMALL)
    whole.update_pairs(a, b, 0.0, HS)
    want = recover_candidates(whole)
    assert set(pool.tolist()) <= set(want.tolist())

    assert np.array_equal(recover_candidates(whole, RECube(SMALL)), want)
    # each part holds five of the ten sources
    left, right = RECube(SMALL), RECube(SMALL)
    left.update_pairs(a[:250], b[:250], 0.0, HS)
    right.update_pairs(a[250:], b[250:], 0.0, HS)
    assert not set(pool.tolist()) <= set(recover_candidates(left).tolist())
    assert np.array_equal(recover_candidates(left, right), want)
    assert np.array_equal(recover_candidates(right, left), want)


def test_merge_rejects_geometry_mismatch():
    other = RECubeConfig(r=3, l=(6,) * 8, s=(0, 4, 8, 12, 16, 20, 24, 27))
    with pytest.raises(ValueError, match="geometry mismatch"):
        recover_candidates(RECube(SMALL), RECube(other))
    with pytest.raises(ValueError, match="empty"):
        recover_candidates()


# -- candidate recovery ---------------------------------------------------------


def test_recover_zero_cube_empty():
    got = recover_candidates(RECube(SMALL))
    assert got.dtype == np.uint32 and got.size == 0


def test_recover_requires_three_bits():
    cube = RECube(SMALL)
    k, js = derive_indices(12345, SMALL)
    for i, j in enumerate(js):
        cube.rows[i][k, j] = 0b11  # only two bits: not a candidate
    assert recover_candidates(cube).tolist() == []
    for i, j in enumerate(js):
        cube.rows[i][k, j] = 0b111
    assert recover_candidates(cube).tolist() == [12345]


def test_recover_inner_merge_rejects_disjoint_bits():
    # all cells individually pass, but their AND is empty
    cube = RECube(SMALL)
    k, js = derive_indices(777, SMALL)
    patterns = [0b00000111, 0b00111000, 0b11100000]
    for i, j in enumerate(js):
        cube.rows[i][k, j] = patterns[i % 3]
    assert recover_candidates(cube).tolist() == []


def test_recover_never_misses_qualifying_address():
    # exhaustive no-false-exclusion check on a populated small cube: every
    # address whose own cells all pass and AND to >= 3 bits must be found
    rng = np.random.default_rng(6)
    pool = rng.integers(0, 2**32, 40, dtype=np.uint32)
    a = rng.choice(pool, 20_000).astype(np.uint32)
    b = rng.integers(0, 2**32, 20_000, dtype=np.uint32)
    cube = RECube(SMALL)
    cube.update_pairs(a, b, 0.0, HS)
    recovered = set(recover_candidates(cube).tolist())
    for addr in np.unique(pool).tolist():
        k, js = derive_indices(addr, SMALL)
        merged = 0xFF
        for i, j in enumerate(js):
            merged &= int(cube.rows[i][k, j])
        if bin(merged).count("1") >= CANDIDATE_BITS:
            assert addr in recovered


def test_recover_planted_host_monte_carlo():
    # a host with 4*theta opposite hosts is recovered in >= 99/100 runs
    theta = 256
    tau = compute_tau(theta)
    hits = 0
    rng = np.random.default_rng(7)
    for seed in range(100):
        hs = HashSuite(seed)
        cube = RECube(SMALL)
        planted = int(rng.integers(0, 2**32))
        b = rng.integers(0, 2**32, 4 * theta, dtype=np.uint32)
        cube.update_pairs(
            np.full(4 * theta, planted, np.uint32), b, tau, hs
        )
        noise_a = rng.integers(0, 2**32, 2000, dtype=np.uint32)
        noise_b = rng.integers(0, 2**32, 2000, dtype=np.uint32)
        cube.update_pairs(noise_a, noise_b, tau, hs)
        if planted in recover_candidates(cube).tolist():
            hits += 1
    assert hits >= 99


DEFAULT = RECubeConfig(r=6, l=(14, 14, 14), s=(0, 10, 20))
# rows 0 and 2 overlap (bits 10..13) without being adjacent
NON_ADJACENT = RECubeConfig(r=6, l=(14, 14, 14, 14), s=(0, 5, 10, 15))
# the last row ends on the top left-part bit: the wraparound is 0 bits wide
ZERO_WRAP = RECubeConfig(r=6, l=(14, 14, 14), s=(0, 6, 12))


def _seeded_cube(cfg, sources, hosts_each, seed):
    """Cube of `sources` hosts with `hosts_each` qualifying opposite hosts."""
    rng = np.random.default_rng(seed)
    pool = rng.integers(0, 2**32, sources, dtype=np.uint32)
    a = np.repeat(pool, hosts_each)
    cube = RECube(cfg)
    cube.update_pairs(a, rng.integers(0, 2**32, a.size, dtype=np.uint32), 0.0, HS)
    return cube


# SMALL and DEFAULT have a wraparound wider than the overlap of rows 0
# and 1, so recovery walks them from row u-1; the others from row 0
@pytest.mark.parametrize(
    "cfg, sources, hosts_each, min_w",
    [
        pytest.param(SMALL, 40, 500, 20_000, id="small-wraparound"),
        pytest.param(SMALL, 10, 50, 100, id="small-sparse"),
        pytest.param(DEFAULT, 40, 500, 40, id="default-sparse"),
        pytest.param(DEFAULT, 3000, 24, 3000, id="default-dense"),
        pytest.param(NON_ADJACENT, 3000, 24, 3000, id="non-adjacent-overlap"),
        pytest.param(ZERO_WRAP, 3000, 24, 3000, id="zero-wraparound"),
    ],
)
def test_recover_matches_dfs_oracle(cfg, sources, hosts_each, min_w, monkeypatch):
    cube = _seeded_cube(cfg, sources, hosts_each, seed=sources)
    got = recover_candidates(cube)
    assert got.dtype == np.uint32
    assert np.all(got[1:] > got[:-1])  # sorted and distinct
    assert got.tolist() == sorted(dfs_recover_candidates(cube))
    assert got.size >= min_w
    # a join materialized 7 matches at a time, and cubes ORed 3 words at a
    # time, find the same set
    monkeypatch.setattr(recube, "_JOIN_CHUNK", 7)
    monkeypatch.setattr(recube, "_OR_WORDS", 3)
    assert np.array_equal(recover_candidates(cube), got)


def test_recover_finds_cells_in_words_of_three_or_more_bits():
    # a word of three 1-bit cells passes the word filter but holds no
    # candidate cell; the cells of a true chain share their words with
    # non-zero 1-bit cells, but for row 0's, whose word has just its 3
    # bits: only the chain's address is recovered
    cube = RECube(DEFAULT)
    flat = cube.cells.reshape(-1)
    address = 0x12345678
    k, js = derive_indices(address, DEFAULT)
    for i, j in enumerate(js):
        pos = k * cube.cells.shape[1] + i * (1 << 14) + j
        if i:
            flat[pos - pos % 8 : pos - pos % 8 + 8] = 1 << np.arange(8)
        flat[pos] = 0b0111_0000
    decoy = ((k + 1) % 64) * cube.cells.shape[1]
    flat[decoy : decoy + 3] = (0b001, 0b010, 0b100)
    assert np.bitwise_count(flat[decoy : decoy + 8].view(np.uint64)) == [3]
    assert recover_candidates(cube).tolist() == [address]


def test_recover_reads_a_decoded_payload_view():
    # the cube of a stage-1 payload is an unaligned read-only view
    cube = _seeded_cube(SMALL, 10, 50, seed=3)
    payload = memoryview(b"\0" * 3 + encode_stage1(0, 0, cube))[3:]
    _, view = decode_stage1(payload)
    assert not view.cells.flags.writeable
    assert np.array_equal(recover_candidates(view), recover_candidates(cube))


def test_recover_peak_memory_is_not_a_merged_cube():
    # three default-geometry cubes of 3 MiB, scanned at the default theta's
    # tau with 300k random pairs and 20 hosts of 4 * theta peers each:
    # recovery ORs them a chunk at a time, so its peak stays far below one
    # merged cube
    rng = np.random.default_rng(9)
    cubes, planted = [], []
    for _ in range(3):
        pool = rng.integers(0, 2**32, 20, dtype=np.uint32)
        a = np.concatenate([rng.integers(0, 2**32, 300_000, dtype=np.uint32), np.repeat(pool, 4096)])
        cube = RECube(DEFAULT)
        cube.update_pairs(a, rng.integers(0, 2**32, a.size, dtype=np.uint32), compute_tau(1024), HS)
        cubes.append(cube)
        planted += pool.tolist()
    tracemalloc.start()
    try:
        got = recover_candidates(*cubes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert set(planted) <= set(got.tolist())
    assert peak < 1 << 20, peak


# -- serialization --------------------------------------------------------------


def test_cell_bytes_round_trip():
    rng = np.random.default_rng(8)
    cube = RECube(SMALL)
    cube.update_pairs(
        rng.integers(0, 2**32, 5000, dtype=np.uint32),
        rng.integers(0, 2**32, 5000, dtype=np.uint32),
        0.0,
        HS,
    )
    raw = encode_stage1(0, 0, cube)
    assert len(raw) == stage1_size(SMALL)
    _, decoded = decode_stage1(raw)
    assert same_sketch(decoded, cube)
    # a writable buffer does not make a writable cube
    _, decoded = decode_stage1(bytearray(raw))
    assert not decoded.cells.flags.writeable
    with pytest.raises(ValueError):
        decode_stage1(raw[:-1])


def test_cell_bytes_layout_is_plane_major():
    cube = RECube(SMALL)
    cube.rows[0][1, 5] = 0xAB
    raw = cube.cells.tobytes()
    # plane 1 starts after one full plane (sum of row widths)
    plane_bytes = sum(1 << li for li in SMALL.l)
    assert raw[plane_bytes + 5] == 0xAB
