import numpy as np
import pytest

from superpoint.estimators import LinearEstimator
from superpoint.hashing import HashSuite
from superpoint.learray import LEArray, estimate_candidates, lea_merge_outer
from superpoint.verify import check_theorem1_instance

HS = HashSuite(0xBEEF)


def test_geometry_validation():
    with pytest.raises(ValueError):
        LEArray(0, 8, 64)
    with pytest.raises(ValueError):
        LEArray(2, 7, 64)
    with pytest.raises(ValueError):
        LEArray(2, 8, 48)
    with pytest.raises(ValueError):
        LEArray(2, 8, 4)  # below one byte


def test_update_touches_one_cell_per_row():
    lea = LEArray(3, 16, 64)
    lea.update_pairs(
        np.array([0xAB], np.uint32), np.array([7], np.uint32), HS
    )
    touched = np.argwhere(lea.cells.any(axis=2))
    assert len(touched) == 3
    for i, j in touched.tolist():
        assert j == HS.col(0xAB, i, 16)
        assert lea.cell(i, j).popcount == 1


def test_update_idempotent():
    lea = LEArray(2, 8, 64)
    lea.update_pairs(np.array([1, 1], np.uint32), np.array([2, 2], np.uint32), HS)
    snap = lea.copy()
    lea.update_pairs(np.array([1], np.uint32), np.array([2], np.uint32), HS)
    assert lea == snap


def test_update_matches_scalar_replay():
    # oracle: replay through per-cell LinearEstimators
    rng = np.random.default_rng(10)
    n = 2000
    a = rng.integers(0, 2**8, n, dtype=np.uint32)
    b = rng.integers(0, 2**12, n, dtype=np.uint32)
    lea = LEArray(2, 8, 64)
    lea.update_pairs(a, b, HS)

    oracle: dict[tuple[int, int], LinearEstimator] = {}
    for av, bv in zip(a.tolist(), b.tolist()):
        for i in range(2):
            key = (i, HS.col(av, i, 8))
            oracle.setdefault(key, LinearEstimator(64)).update(bv, HS)

    for i in range(2):
        for j in range(8):
            expected = oracle.get((i, j), LinearEstimator(64))
            assert lea.cell(i, j) == expected


def _extract_one(lea: LEArray, c: int) -> LinearEstimator:
    rows = lea.extract_candidates(np.array([c], np.uint32), HS)
    assert rows.shape == (1, lea.le_len // 8) and rows.dtype == np.uint8
    return LinearEstimator.from_bytes(rows[0].tobytes(), lea.le_len)


def _sketches(*les: LinearEstimator) -> np.ndarray:
    return np.array([np.frombuffer(le.to_bytes(), np.uint8) for le in les])


def test_extract_candidate_zero_grid():
    assert _extract_one(LEArray(3, 8, 64), 42) == LinearEstimator(64)
    assert LEArray(3, 8, 64).extract_candidates([], HS).shape == (0, 8)


def test_extract_candidate_single_row_is_cell():
    rng = np.random.default_rng(11)
    lea = LEArray(1, 8, 64)
    a = rng.integers(0, 2**16, 500, dtype=np.uint32)
    b = rng.integers(0, 2**16, 500, dtype=np.uint32)
    lea.update_pairs(a, b, HS)
    c = int(a[0])
    assert _extract_one(lea, c) == lea.cell(0, HS.col(c, 0, 8))


def test_extract_candidate_alone_equals_exclusive():
    # a candidate whose cells were touched only by its own opposite hosts
    # extracts to exactly the exclusive estimator
    lea = LEArray(4, 32, 256)
    c = 0x12345678
    b = np.arange(100, dtype=np.uint32)
    lea.update_pairs(np.full(100, c, np.uint32), b, HS)
    excl = LinearEstimator(256)
    for bv in b.tolist():
        excl.update(int(bv), HS)
    assert _extract_one(lea, c) == excl


def test_extract_candidate_inner_merge_drops_collision_bits():
    # build two sources colliding in row 0 only; the collider's bits must
    # not survive the AND across rows
    lea = LEArray(2, 4, 64)
    rng = np.random.default_rng(12)
    c = 1000
    for other in rng.integers(0, 2**32, 10_000):
        other = int(other)
        same0 = HS.col(other, 0, 4) == HS.col(c, 0, 4)
        same1 = HS.col(other, 1, 4) == HS.col(c, 1, 4)
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
    excl = LinearEstimator(64)
    for bv in range(5):
        excl.update(bv, HS)
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
    assert lea_merge_outer([left, right]) == whole
    assert lea_merge_outer([right, left]) == whole
    assert lea_merge_outer([whole]) == whole
    assert lea_merge_outer([whole, LEArray(3, 16, 64)]) == whole


def test_grid_merge_rejects_mismatch():
    with pytest.raises(ValueError):
        lea_merge_outer([LEArray(2, 8, 64), LEArray(2, 8, 128)])
    with pytest.raises(ValueError):
        lea_merge_outer([])


def test_extract_candidates_matches_one_at_a_time():
    rng = np.random.default_rng(15)
    lea = LEArray(3, 32, 128)
    a = rng.integers(0, 2**10, 5000, dtype=np.uint32)
    lea.update_pairs(a, rng.integers(0, 2**32, 5000, dtype=np.uint32), HS)
    cands = np.concatenate([a[:50], rng.integers(0, 2**32, 20, dtype=np.uint32)])
    rows = lea.extract_candidates(cands, HS)
    for c, row in zip(cands.tolist(), rows):
        # scalar oracle: AND of the candidate's row cells
        want = lea.cell(0, HS.col(c, 0, 32))
        for i in range(1, 3):
            want = want.inner(lea.cell(i, HS.col(c, i, 32)))
        assert LinearEstimator.from_bytes(row.tobytes(), 128) == want


def test_estimate_candidates_flags_and_order():
    theta = 100
    zero = LinearEstimator(1024)
    heavy = LinearEstimator(1024, (1 << 512) - 1)  # estimate ~709.8
    full = LinearEstimator(1024, (1 << 1024) - 1)
    light = LinearEstimator(1024, 0b1011)  # 3 bits, estimate ~3
    results = estimate_candidates(
        np.array([1, 2, 3, 4], np.uint32), _sketches(zero, heavy, full, light), theta
    )
    # only the super points, by descending estimate; saturated is flagged
    assert [(r.address, r.saturated) for r in results] == [(3, True), (2, False)]
    assert results[1].estimate == heavy.estimate()[0]
    # plain Python values, as the JSON report needs
    assert all(type(r.address) is int and type(r.saturated) is bool for r in results)
    assert estimate_candidates(np.zeros(0, np.uint32), np.zeros((0, 128), np.uint8), theta) == []


def test_estimate_ties_sorted_by_address():
    le = LinearEstimator(64, 0b111)
    results = estimate_candidates(np.array([9, 3, 5], np.uint32), _sketches(le, le, le), 1)
    assert [r.address for r in results] == [3, 5, 9]


@pytest.mark.parametrize("nbits", [8, 64, 1024])
def test_estimates_match_scalar_formula(nbits):
    # every popcount 0..nbits, saturation included, must give exactly the
    # float LinearEstimator.estimate gives; theta = -1 keeps every one
    rng = np.random.default_rng(nbits)
    les = []
    for popcount in range(nbits + 1):
        bits = rng.permutation(nbits)[:popcount].tolist()
        les.append(LinearEstimator(nbits, sum(1 << b for b in bits)))
    addresses = np.arange(nbits + 1, dtype=np.uint32)
    results = estimate_candidates(addresses, _sketches(*les), theta=-1)
    assert sorted(r.address for r in results) == list(range(nbits + 1))
    for r in results:
        est, saturated = les[r.address].estimate()
        assert type(r.estimate) is float
        assert (r.estimate.hex(), r.saturated) == (est.hex(), saturated)


def test_estimate_strictly_above_theta():
    # estimate == theta exactly must NOT be reported
    import math

    nbits = 64
    # find a popcount whose estimate straddles a chosen theta
    le = LinearEstimator(nbits, (1 << 32) - 1)
    est, _ = le.estimate()
    addr = np.array([1], np.uint32)
    assert estimate_candidates(addr, _sketches(le), est) == []
    assert [r.address for r in estimate_candidates(addr, _sketches(le), math.nextafter(est, 0))] == [1]


def test_candidate_below_theta_rarely_flagged():
    # a candidate with theta/4 distinct hosts should not be reported super
    theta, nbits = 256, 1024
    misses = 0
    for seed in range(100):
        hs = HashSuite(seed)
        le = LinearEstimator(nbits)
        for b in range(theta // 4):
            le.update(b + seed * 10_000, hs)
        est, sat = le.estimate()
        if sat or est > theta:
            misses += 1
    assert misses <= 5


def test_theorem1_randomized_instances():
    rng = np.random.default_rng(14)
    for _ in range(100):
        check_theorem1_instance(rng)
