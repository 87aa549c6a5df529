import numpy as np
import pytest
from oracles import (
    GOLDEN_ADDRESS,
    GOLDEN_CONFIG,
    GOLDEN_INDEXES,
    GOLDEN_PLANE,
    check_golden_example,
    derive_indices,
    dfs_recover_candidates,
    re_bit,
    re_slot,
    reconstruct_left_part,
)

from superpoint import recube
from superpoint.estimators import CANDIDATE_BITS, compute_tau
from superpoint.hashing import HashSuite
from superpoint.recube import (
    RECube,
    RECubeConfig,
    derive_indices_arr,
    rec_merge_outer,
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
    for cfg in (SMALL, GOLDEN_CONFIG, RECubeConfig(r=6, l=(14, 14, 14), s=(0, 10, 20))):
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
    snapshot = cube.copy()
    cube.update_pairs(_one(42), _one(43), 0.0, HS)
    assert cube == snapshot


def test_update_pairs_matches_scalar_replay():
    # oracle: replay the same stream cell by cell on Python ints
    rng = np.random.default_rng(4)
    n = 3000
    a = rng.integers(0, 2**10, n, dtype=np.uint32)  # small pool forces reuse
    b = rng.integers(0, 2**16, n, dtype=np.uint32)
    tau = compute_tau(64, 8)  # tau = 3

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


def test_update_empty_batch_is_noop():
    cube = RECube(SMALL)
    cube.update_pairs(
        np.array([], np.uint32), np.array([], np.uint32), 0.0, HS
    )
    assert not cube.cells.any()


# -- merging ------------------------------------------------------------------


def test_merge_identity_and_split_equality():
    rng = np.random.default_rng(5)
    a = rng.integers(0, 2**32, 4000, dtype=np.uint32)
    b = rng.integers(0, 2**32, 4000, dtype=np.uint32)
    whole = RECube(SMALL)
    whole.update_pairs(a, b, 0.0, HS)

    assert rec_merge_outer([whole]) == whole
    assert rec_merge_outer([whole, RECube(SMALL)]) == whole

    left, right = RECube(SMALL), RECube(SMALL)
    left.update_pairs(a[:2500], b[:2500], 0.0, HS)
    right.update_pairs(a[2500:], b[2500:], 0.0, HS)
    assert rec_merge_outer([left, right]) == whole
    assert rec_merge_outer([right, left]) == whole


def test_merge_rejects_geometry_mismatch():
    other = RECubeConfig(r=3, l=(6,) * 8, s=(0, 4, 8, 12, 16, 20, 24, 27))
    with pytest.raises(ValueError):
        rec_merge_outer([RECube(SMALL), RECube(other)])
    with pytest.raises(ValueError):
        rec_merge_outer([])


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
    tau = compute_tau(theta, 8)
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


def _seeded_cube(cfg, sources, hosts_each, seed):
    """Cube of `sources` hosts with `hosts_each` qualifying opposite hosts."""
    rng = np.random.default_rng(seed)
    pool = rng.integers(0, 2**32, sources, dtype=np.uint32)
    a = np.repeat(pool, hosts_each)
    cube = RECube(cfg)
    cube.update_pairs(a, rng.integers(0, 2**32, a.size, dtype=np.uint32), 0.0, HS)
    return cube


@pytest.mark.parametrize(
    "cfg, sources, hosts_each, min_w",
    [
        pytest.param(SMALL, 40, 500, 20_000, id="small-wraparound"),
        pytest.param(SMALL, 10, 50, 100, id="small-sparse"),
        pytest.param(DEFAULT, 40, 500, 40, id="default-sparse"),
        pytest.param(DEFAULT, 3000, 24, 3000, id="default-dense"),
        pytest.param(NON_ADJACENT, 3000, 24, 3000, id="non-adjacent-overlap"),
    ],
)
def test_recover_matches_dfs_oracle(cfg, sources, hosts_each, min_w, monkeypatch):
    cube = _seeded_cube(cfg, sources, hosts_each, seed=sources)
    got = recover_candidates(cube)
    assert got.dtype == np.uint32
    assert np.all(got[1:] > got[:-1])  # sorted and distinct
    assert got.tolist() == sorted(dfs_recover_candidates(cube))
    assert got.size >= min_w
    # a join materialized 7 matches at a time finds the same set
    monkeypatch.setattr(recube, "_JOIN_CHUNK", 7)
    assert np.array_equal(recover_candidates(cube), got)


def test_recover_reads_a_decoded_payload_view():
    # the cube of a stage-1 payload is an unaligned read-only view
    cube = _seeded_cube(SMALL, 10, 50, seed=3)
    view = RECube.from_cell_bytes(SMALL, memoryview(b"\0" * 3 + cube.cells.tobytes())[3:])
    assert np.array_equal(recover_candidates(view), recover_candidates(cube))


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
    raw = cube.cells.tobytes()
    assert len(raw) == SMALL.nbytes
    assert RECube.from_cell_bytes(SMALL, raw) == cube
    with pytest.raises(ValueError):
        RECube.from_cell_bytes(SMALL, raw[:-1])


def test_cell_bytes_layout_is_plane_major():
    cube = RECube(SMALL)
    cube.rows[0][1, 5] = 0xAB
    raw = cube.cells.tobytes()
    # plane 1 starts after one full plane (sum of row widths)
    plane_bytes = sum(1 << li for li in SMALL.l)
    assert raw[plane_bytes + 5] == 0xAB
