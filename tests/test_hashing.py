import numpy as np
from oracles import col, le_bit, mix64, rand32, re_bit

from superpoint import hashing
from superpoint.hashing import HashSuite, mix64_arr

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


def test_role_seeds_are_the_scalar_mixer_of_their_tags():
    for master in (0, 0xDEADBEEF, 2**64 - 1):
        hs = HashSuite(master)
        seeds = (hs._seed_rand, hs._seed_rebit, hs._seed_lebit)
        assert seeds == tuple(mix64(tag, master) for tag in (0x52414E44, 0x52454249, 0x4C454249))
        assert all(type(seed) is int for seed in seeds)
        for row in range(5):
            assert hs._col_seed(row) == mix64(0x434F4C00 + row, master)


def test_col_arr_derives_each_row_seed_once(monkeypatch):
    # a row's seed is one mix64_arr of one value on first use, and none after
    hs = HashSuite(0xDEADBEEF)
    calls = []

    def counting(x, seed):
        calls.append(np.size(x))
        return mix64_arr(x, seed)

    monkeypatch.setattr(hashing, "mix64_arr", counting)
    first = [hs.col_arr(XS, row, 16) for row in range(3)]
    assert calls == [1, XS.size] * 3
    calls.clear()
    again = [hs.col_arr(XS, row, 16) for row in range(3)]
    assert calls == [XS.size] * 3
    assert all(np.array_equal(a, b) for a, b in zip(first, again))


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
