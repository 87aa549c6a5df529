import math
import tracemalloc
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import bits_of, check_theorem1_instance, col, dense_cells, dense_replay, le_sketch

from superpoint.estimators import DetectorParams, linear_count
from superpoint import learray
from superpoint.hashing import HashSuite
from superpoint.learray import (
    LEArray,
    estimate_candidates,
    fold_due,
    key_dtype,
    log_cap,
    popcounts,
    promote_threshold,
)

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
    cells = dense_cells(lea)
    touched = np.argwhere(cells.any(axis=2))
    assert len(touched) == 3
    for i, j in touched.tolist():
        assert j == col(HS, 0xAB, i, 16)
        assert bits_of(lea.row_cells(i, np.array([j]))[0]).bit_count() == 1


def test_update_idempotent():
    lea = LEArray(2, 8, 64)
    lea.update_pairs(np.array([1, 1], np.uint32), np.array([2, 2], np.uint32), HS)
    snap = dense_cells(lea)
    lea.update_pairs(np.array([1], np.uint32), np.array([2], np.uint32), HS)
    assert np.array_equal(dense_cells(lea), snap)


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

    cells = dense_cells(lea)
    for i in range(2):
        for j in range(8):
            assert bits_of(cells[i, j]) == oracle.get((i, j), 0)


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
    assert _extract_one(lea, c) == bits_of(lea.row_cells(0, np.array([col(HS, c, 0, 8)]))[0])


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
    assert np.array_equal(dense_cells(left) | dense_cells(right), dense_cells(whole))


def test_extract_candidates_matches_one_at_a_time():
    rng = np.random.default_rng(15)
    lea = LEArray(3, 32, 128)
    a = rng.integers(0, 2**10, 5000, dtype=np.uint32)
    lea.update_pairs(a, rng.integers(0, 2**32, 5000, dtype=np.uint32), HS)
    cands = np.concatenate([a[:50], rng.integers(0, 2**32, 20, dtype=np.uint32)])
    rows = extract(lea, cands, HS)
    cells = dense_cells(lea)
    for c, row in zip(cands.tolist(), rows):
        # scalar oracle: AND of the candidate's row cells
        want = bits_of(cells[0, col(HS, c, 0, 32)])
        for i in range(1, 3):
            want &= bits_of(cells[i, col(HS, c, i, 32)])
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


# -- the sparse-first grid -------------------------------------------------------


def test_fold_rule_cap_and_promotion_threshold():
    # the default geometry: 4-byte keys, so a column keeps le_len / 32
    # keys; one more would take more bytes than its 2 KiB cell
    assert key_dtype(2**15, 2**14) == np.uint32
    assert promote_threshold(2**14, 4) == 512
    assert promote_threshold(1024, 2) == 64
    # the cap's sealed keys and the rows' column tables fit in half the
    # grid, and one more pair's keys would not
    lea_bytes, tables = 5 * 2**15 * 2**11, 5 * 2**15 * 24
    cap = log_cap(5, 2**15, 2**14)
    assert cap * 5 * 4 + tables <= lea_bytes // 2 < (cap + 1) * 5 * 4 + tables
    assert cap == 8_192_000
    # where the tables alone take half the grid, the first pair folds it
    assert log_cap(3, 16, 64) == 0
    assert LEArray(3, 16, 64).cap == 0
    # fold once the candidates' u_hat cells outweigh the logged keys
    assert not fold_due(21, 790_000, 5, 2**14, 4)
    assert fold_due(9830, 1 << 16, 5, 2**14, 4)
    assert not fold_due(128, 1 << 16, 5, 2**14, 4)  # equal bytes: the keys stay
    assert fold_due(129, 1 << 16, 5, 2**14, 4)
    assert not fold_due(0, 0, 5, 2**14, 4)


def test_a_sealed_column_is_promoted_past_its_threshold():
    # at (2, 64, 1024) a key is 2 bytes and a cell 128: a column keeps up
    # to 64 keys, and the 65th gets it a cell; a source's pairs all land in
    # its own columns
    lea = LEArray(2, 64, 1024)
    heavy, light = 0x0A000001, 0x0A000002
    assert all(col(HS, heavy, i, 64) != col(HS, light, i, 64) for i in range(2))
    for source, pairs in ((heavy, 65), (light, 64)):
        lea.update_pairs(np.full(pairs, source, np.uint32), np.arange(pairs, dtype=np.uint32), HS)
    deque(lea.seal(), maxlen=0)
    assert not lea.folded and lea._promoted == 2
    for source, pairs in ((heavy, 65), (light, 64)):
        assert _extract_one(lea, source) == le_sketch(HS, range(pairs), 1024)


#: geometries (u_hat, v_hat, le_len): ones that seal, whose columns keep up
#: to 64, 64 and 32 keys and whose logs fold past 1280, 320 and 128 pairs,
#: and one whose tables take half its grid, so that it folds at its first pair
GEOMETRIES = [(3, 64, 1024), (2, 16, 1024), (4, 32, 512), (3, 16, 64)]


@settings(max_examples=80, deadline=None)
@given(
    geometry=st.sampled_from(GEOMETRIES),
    sizes=st.lists(st.integers(0, 600), max_size=5),
    fold_after=st.integers(0, 5),
    more=st.integers(0, 300),
    cuts=st.lists(st.integers(0, 60), max_size=4),
    chunk=st.sampled_from([7, learray._KEY_CHUNK]),
    seed=st.integers(0, 2**32 - 1),
)
# sealed with light and promoted columns; folded after its first batch;
# past its cap of 1280 pairs; sealed, then scanned again
@example(geometry=GEOMETRIES[0], sizes=[600, 300], fold_after=5, more=0, cuts=[], chunk=7, seed=1)
@example(geometry=GEOMETRIES[0], sizes=[300, 300], fold_after=0, more=100, cuts=[10], chunk=7, seed=2)
@example(geometry=GEOMETRIES[0], sizes=[600, 600, 600], fold_after=5, more=0, cuts=[], chunk=7, seed=3)
@example(geometry=GEOMETRIES[2], sizes=[600], fold_after=5, more=200, cuts=[5, 20], chunk=7, seed=4)
# every column of every row written, so every cell handed out: folded
# mid-scan, at its cap of 320 pairs, folded again once folded, and at its
# first pair
@example(geometry=GEOMETRIES[1], sizes=[200, 200], fold_after=0, more=50, cuts=[], chunk=7, seed=5)
@example(geometry=GEOMETRIES[1], sizes=[300, 300], fold_after=5, more=50, cuts=[], chunk=7, seed=6)
@example(geometry=GEOMETRIES[1], sizes=[300, 300, 100], fold_after=2, more=50, cuts=[], chunk=7, seed=7)
@example(geometry=GEOMETRIES[3], sizes=[200, 100], fold_after=1, more=50, cuts=[], chunk=7, seed=8)
def test_sparse_grid_reads_as_its_dense_replay(geometry, sizes, fold_after, more, cuts, chunk, seed):
    # whether the grid stays a log, seals with light and promoted columns,
    # folds after any batch or at its cap, or is scanned again after a
    # read, its cells and the blocks of any candidates, repeats and
    # unseen ones among them, are the bytes of a grid that took every
    # pair one write at a time; with 7-key chunks, runs of keys are read
    # a slice at a time
    with mock.patch.object(learray, "_KEY_CHUNK", chunk):
        _check_sparse_grid(geometry, sizes, fold_after, more, cuts, seed)


def _check_sparse_grid(geometry, sizes, fold_after, more, cuts, seed):
    u_hat, v_hat, le_len = geometry
    rng = np.random.default_rng(seed)
    heavy = rng.integers(0, 2**32, 3, dtype=np.uint32)  # many pairs each: promoted columns

    def batch(n):
        a = np.where(rng.random(n) < 0.5, rng.choice(heavy, n), rng.integers(0, 2**32, n, dtype=np.uint32))
        return a.astype(np.uint32), rng.integers(0, 2**32, n, dtype=np.uint32)

    lea, batches = LEArray(u_hat, v_hat, le_len), []
    for k, n in enumerate(sizes):
        batches.append(batch(n))
        lea.update_pairs(*batches[-1], HS)
        if k == fold_after:
            deque(lea.fold(), maxlen=0)
            assert lea.folded and list(lea.fold()) == []  # a folded grid takes no step
    seen = np.concatenate([heavy] + [a for a, _ in batches])
    for scan in range(2):
        cands = np.concatenate([rng.choice(seen, 30), rng.integers(0, 2**32, 10, dtype=np.uint32)])
        want = dense_replay(batches, u_hat, v_hat, le_len, HS)
        merged = np.bitwise_and.reduce([want[i][HS.col_arr(cands, i, v_hat)] for i in range(u_hat)])
        cols = lea.candidate_columns(cands, HS)
        bounds = [0, *sorted(min(cut, cands.size) for cut in cuts), cands.size]
        blocks = [lea.extract_candidates([col[lo:hi] for col in cols]) for lo, hi in zip(bounds, bounds[1:])]
        assert np.concatenate(blocks).tobytes() == merged.tobytes()
        assert dense_cells(lea).tobytes() == want.tobytes()
        # scanned again after a read: a sealed grid folds and takes the pairs
        batches.append(batch(more))
        lea.update_pairs(*batches[-1], HS)
