import math
import tracemalloc

import numpy as np
import pytest
from oracles import bits_of, check_theorem1_instance, col, le_sketch

from superpoint.estimators import DetectorParams, linear_count
from superpoint.hashing import HashSuite
from superpoint.learray import LEArray, estimate_candidates, popcounts

HS = HashSuite(0xBEEF)


def extract(lea: LEArray, cands, hs: HashSuite) -> np.ndarray:
    """`lea.extract_candidates` of the candidates' columns."""
    return lea.extract_candidates(lea.candidate_columns(cands, hs))


def test_geometry_validation():
    # DetectorParams is the one check of the grid's geometry
    DetectorParams(theta=64, le_len=8, u_hat=1, v_hat=1)
    for u_hat, v_hat, le_len in [
        (0, 8, 64),
        (2, 7, 64),
        (2, 8, 48),
        (2, 8, 4),  # below one byte
        (2, 8, 0),
        (2, 0, 64),
    ]:
        with pytest.raises(ValueError):
            DetectorParams(theta=64, le_len=le_len, u_hat=u_hat, v_hat=v_hat)


def test_update_touches_one_cell_per_row():
    lea = LEArray(3, 16, 64)
    lea.update_pairs(
        np.array([0xAB], np.uint32), np.array([7], np.uint32), HS
    )
    touched = np.argwhere(lea.cells.any(axis=2))
    assert len(touched) == 3
    for i, j in touched.tolist():
        assert j == col(HS, 0xAB, i, 16)
        assert bits_of(lea.cells[i, j]).bit_count() == 1


def test_update_idempotent():
    lea = LEArray(2, 8, 64)
    lea.update_pairs(np.array([1, 1], np.uint32), np.array([2, 2], np.uint32), HS)
    snap = lea.cells.copy()
    lea.update_pairs(np.array([1], np.uint32), np.array([2], np.uint32), HS)
    assert np.array_equal(lea.cells, snap)


def test_update_matches_scalar_replay():
    # oracle: replay cell by cell on Python ints
    rng = np.random.default_rng(10)
    n = 2000
    a = rng.integers(0, 2**8, n, dtype=np.uint32)
    b = rng.integers(0, 2**12, n, dtype=np.uint32)
    lea = LEArray(2, 8, 64)
    lea.update_pairs(a, b, HS)

    oracle: dict[tuple[int, int], int] = {}
    for av, bv in zip(a.tolist(), b.tolist()):
        for i in range(2):
            key = (i, col(HS, av, i, 8))
            oracle[key] = oracle.get(key, 0) | le_sketch(HS, [bv], 64)

    for i in range(2):
        for j in range(8):
            assert bits_of(lea.cells[i, j]) == oracle.get((i, j), 0)


def _extract_one(lea: LEArray, c: int) -> int:
    return bits_of(extract(lea, np.array([c], np.uint32), HS)[0])


def _set_bits(nbits: int, *les: int) -> tuple[np.ndarray, int]:
    """The popcounts of the packed nbits-bit sketches, and nbits: what
    the coordinator hands `estimate_candidates`."""
    sketches = np.array([np.frombuffer(le.to_bytes(nbits // 8, "little"), np.uint8) for le in les])
    return popcounts(sketches.reshape(len(les), nbits // 8)), nbits


def _estimate(nbits: int, le: int) -> tuple[float, bool]:
    return linear_count(nbits, nbits - le.bit_count())


def test_extract_candidate_zero_grid():
    assert _extract_one(LEArray(3, 8, 64), 42) == 0
    assert extract(LEArray(3, 8, 64), [], HS).shape == (0, 8)


def test_extract_candidate_single_row_is_cell():
    rng = np.random.default_rng(11)
    lea = LEArray(1, 8, 64)
    a = rng.integers(0, 2**16, 500, dtype=np.uint32)
    b = rng.integers(0, 2**16, 500, dtype=np.uint32)
    lea.update_pairs(a, b, HS)
    c = int(a[0])
    assert _extract_one(lea, c) == bits_of(lea.cells[0, col(HS, c, 0, 8)])


def test_extract_candidate_alone_equals_exclusive():
    # a candidate whose cells were touched only by its own opposite hosts
    # extracts to exactly the exclusive estimator
    lea = LEArray(4, 32, 256)
    c = 0x12345678
    b = np.arange(100, dtype=np.uint32)
    lea.update_pairs(np.full(100, c, np.uint32), b, HS)
    assert _extract_one(lea, c) == le_sketch(HS, b.tolist(), 256)


def test_extract_candidate_inner_merge_drops_collision_bits():
    # build two sources colliding in row 0 only; the collider's bits must
    # not survive the AND across rows
    lea = LEArray(2, 4, 64)
    rng = np.random.default_rng(12)
    c = 1000
    for other in rng.integers(0, 2**32, 10_000):
        other = int(other)
        same0 = col(HS, other, 0, 4) == col(HS, c, 0, 4)
        same1 = col(HS, other, 1, 4) == col(HS, c, 1, 4)
        if same0 and not same1:
            break
    else:
        pytest.fail("no partial collider found")
    lea.update_pairs(np.full(5, c, np.uint32), np.arange(5, dtype=np.uint32), HS)
    lea.update_pairs(
        np.full(40, other, np.uint32),
        np.arange(100, 140, dtype=np.uint32),
        HS,
    )
    got = _extract_one(lea, c)
    excl = le_sketch(HS, range(5), 64)
    # c's own bits always survive; collider bits survive only if they also
    # appear in row 1's cell, which holds nothing but c's bits here
    assert got == excl


def test_grid_merge_equals_union_stream():
    rng = np.random.default_rng(13)
    a = rng.integers(0, 2**32, 3000, dtype=np.uint32)
    b = rng.integers(0, 2**32, 3000, dtype=np.uint32)
    whole, left, right = (LEArray(3, 16, 64) for _ in range(3))
    whole.update_pairs(a, b, HS)
    left.update_pairs(a[:1700], b[:1700], HS)
    right.update_pairs(a[1700:], b[1700:], HS)
    # the cell-wise OR of two grids is the grid of their union
    assert np.array_equal(left.cells | right.cells, whole.cells)


def test_extract_candidates_matches_one_at_a_time():
    rng = np.random.default_rng(15)
    lea = LEArray(3, 32, 128)
    a = rng.integers(0, 2**10, 5000, dtype=np.uint32)
    lea.update_pairs(a, rng.integers(0, 2**32, 5000, dtype=np.uint32), HS)
    cands = np.concatenate([a[:50], rng.integers(0, 2**32, 20, dtype=np.uint32)])
    rows = extract(lea, cands, HS)
    for c, row in zip(cands.tolist(), rows):
        # scalar oracle: AND of the candidate's row cells
        want = bits_of(lea.cells[0, col(HS, c, 0, 32)])
        for i in range(1, 3):
            want &= bits_of(lea.cells[i, col(HS, c, i, 32)])
        assert bits_of(row) == want


def test_estimate_candidates_flags_and_order():
    theta = 100
    zero = 0
    heavy = (1 << 512) - 1  # estimate ~709.8
    full = (1 << 1024) - 1
    light = 0b1011  # 3 bits, estimate ~3
    results = estimate_candidates(
        np.array([1, 2, 3, 4], np.uint32), *_set_bits(1024, zero, heavy, full, light), theta
    )
    # only the super points, by descending estimate; saturated is flagged
    assert [(r.address, r.saturated) for r in results] == [(3, True), (2, False)]
    assert results[1].estimate == _estimate(1024, heavy)[0]
    # plain Python values, as the JSON report needs
    assert all(type(r.address) is int and type(r.saturated) is bool for r in results)
    assert estimate_candidates(np.zeros(0, np.uint32), *_set_bits(1024), theta) == []


@pytest.mark.parametrize("set_bits", [[], [0, 5, 2**24 - 1, 5, 2**24]], ids=["w0", "w5"])
def test_estimate_memory_does_not_grow_with_le_len(set_bits):
    # one estimate per distinct popcount, not a table of le_len + 1 floats
    # (128 MiB at 2^24)
    addresses = np.arange(len(set_bits), dtype=np.uint32)
    tracemalloc.start()
    try:
        results = estimate_candidates(addresses, np.array(set_bits, np.int64), 2**24, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    # a saturated sketch estimates as one with a single zero bit
    want = [(2, False), (4, True), (1, False), (3, False)] if set_bits else []
    assert [(r.address, r.saturated) for r in results] == want


def test_estimate_ties_sorted_by_address():
    le = 0b111
    results = estimate_candidates(np.array([9, 3, 5], np.uint32), *_set_bits(64, le, le, le), 1)
    assert [r.address for r in results] == [3, 5, 9]


@pytest.mark.parametrize("nbits", [8, 64, 1024])
def test_estimates_match_scalar_formula(nbits):
    # every popcount 0..nbits, saturation included, must give exactly the
    # float linear_count gives; theta = -1 keeps every one
    rng = np.random.default_rng(nbits)
    les = []
    for popcount in range(nbits + 1):
        bits = rng.permutation(nbits)[:popcount].tolist()
        les.append(sum(1 << b for b in bits))
    addresses = np.arange(nbits + 1, dtype=np.uint32)
    results = estimate_candidates(addresses, *_set_bits(nbits, *les), theta=-1)
    assert sorted(r.address for r in results) == list(range(nbits + 1))
    for r in results:
        est, saturated = _estimate(nbits, les[r.address])
        assert type(r.estimate) is float
        assert (r.estimate.hex(), r.saturated) == (est.hex(), saturated)


def test_estimate_strictly_above_theta():
    # estimate == theta exactly must NOT be reported
    nbits = 64
    # find a popcount whose estimate straddles a chosen theta
    le = (1 << 32) - 1
    est, _ = _estimate(nbits, le)
    addr = np.array([1], np.uint32)
    assert estimate_candidates(addr, *_set_bits(nbits, le), est) == []
    assert [r.address for r in estimate_candidates(addr, *_set_bits(nbits, le), math.nextafter(est, 0))] == [1]


def test_candidate_below_theta_rarely_flagged():
    # a candidate with theta/4 distinct hosts should not be reported super
    theta, nbits = 256, 1024
    misses = 0
    for seed in range(100):
        hs = HashSuite(seed)
        le = le_sketch(hs, range(seed * 10_000, seed * 10_000 + theta // 4), nbits)
        est, sat = _estimate(nbits, le)
        if sat or est > theta:
            misses += 1
    assert misses <= 5


def test_theorem1_randomized_instances():
    rng = np.random.default_rng(14)
    for _ in range(100):
        check_theorem1_instance(rng)
