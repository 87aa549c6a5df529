import numpy as np
from oracles import col, le_bit, rand32, re_bit

from superpoint.hashing import HashSuite, mix64, mix64_arr

XS = np.arange(200, dtype=np.uint64)


def test_scalar_vector_agreement():
    hs = HashSuite(0xDEADBEEF)
    values = np.array([0, 1, 2, 200, 2**32 - 1, 12345678], dtype=np.uint64)
    assert [mix64(int(v), 42) for v in values] == list(mix64_arr(values, 42))
    assert [rand32(hs, int(v)) for v in values] == list(hs.rand32_arr(values))
    assert [re_bit(hs, int(v)) for v in values] == list(hs.re_bit_arr(values))
    assert [le_bit(hs, int(v), 64) for v in values] == list(hs.le_bit_arr(values, 64))
    for row in range(3):
        assert [col(hs, int(v), row, 16) for v in values] == list(
            hs.col_arr(values, row, 16)
        )


def test_same_seed_same_outputs():
    a, b = HashSuite(123), HashSuite(123)
    assert np.array_equal(a.rand32_arr(XS), b.rand32_arr(XS))
    assert np.array_equal(a.col_arr(XS, 2, 1024), b.col_arr(XS, 2, 1024))


def test_different_seeds_differ():
    a, b = HashSuite(1), HashSuite(2)
    assert not np.array_equal(a.rand32_arr(XS), b.rand32_arr(XS))


def test_rows_are_independent():
    hs = HashSuite(7)
    assert not np.array_equal(hs.col_arr(XS, 0, 1 << 12), hs.col_arr(XS, 1, 1 << 12))


def test_rand32_roughly_uniform():
    hs = HashSuite(99)
    vals = hs.rand32_arr(np.arange(100_000, dtype=np.uint64))
    # mean of uniform 32-bit values is 2^31; allow 1% drift
    assert abs(vals.mean() - 2**31) < 0.01 * 2**32
    # each of the 8 top-3-bit buckets gets its fair share
    counts = np.bincount(vals >> 29, minlength=8)
    assert counts.min() > 100_000 / 8 * 0.9
