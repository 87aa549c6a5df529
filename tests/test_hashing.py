import numpy as np

from superpoint.hashing import HashSuite, mix64, mix64_arr


def test_scalar_vector_agreement():
    hs = HashSuite(0xDEADBEEF)
    values = np.array([0, 1, 2, 200, 2**32 - 1, 12345678], dtype=np.uint64)
    assert [mix64(int(v), 42) for v in values] == list(mix64_arr(values, 42))
    assert [hs.rand32(int(v)) for v in values] == list(hs.rand32_arr(values))
    assert [hs.re_bit(int(v)) for v in values] == list(hs.re_bit_arr(values))
    assert [hs.le_bit(int(v), 64) for v in values] == list(hs.le_bit_arr(values, 64))
    for row in range(3):
        assert [hs.col(int(v), row, 16) for v in values] == list(
            hs.col_arr(values, row, 16)
        )


def test_same_seed_same_outputs():
    a, b = HashSuite(123), HashSuite(123)
    assert [a.rand32(i) for i in range(50)] == [b.rand32(i) for i in range(50)]
    assert [a.col(i, 2, 1024) for i in range(50)] == [b.col(i, 2, 1024) for i in range(50)]


def test_different_seeds_differ():
    a, b = HashSuite(1), HashSuite(2)
    outs_a = [a.rand32(i) for i in range(100)]
    outs_b = [b.rand32(i) for i in range(100)]
    assert outs_a != outs_b


def test_rows_are_independent():
    hs = HashSuite(7)
    cols0 = [hs.col(i, 0, 1 << 12) for i in range(200)]
    cols1 = [hs.col(i, 1, 1 << 12) for i in range(200)]
    assert cols0 != cols1


def test_rand32_roughly_uniform():
    hs = HashSuite(99)
    vals = hs.rand32_arr(np.arange(100_000, dtype=np.uint64))
    # mean of uniform 32-bit values is 2^31; allow 1% drift
    assert abs(vals.mean() - 2**31) < 0.01 * 2**32
    # each of the 8 top-3-bit buckets gets its fair share
    counts = np.bincount(vals >> 29, minlength=8)
    assert counts.min() > 100_000 / 8 * 0.9

