import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bits_of, le_sketch, lsb, rand32, re_slot

from superpoint.estimators import (
    CANDIDATE_BITS,
    DetectorParams,
    compute_tau,
    le_std_dev,
    le_std_dev_hosts,
    linear_count,
)
from superpoint.hashing import HashSuite
from superpoint.learray import LEArray, lea_merge_outer
from superpoint.recube import RECube, RECubeConfig, rec_merge_outer

HS = HashSuite(0xA5A5A5A5)
# a small cube geometry for single-source scans: address 0 has every
# per-row index 0 on plane 0
ONE_SOURCE = RECubeConfig(r=2, l=(6,) * 8, s=(0, 4, 8, 12, 16, 20, 24, 28))


def _cube(b, tau):
    """Cube of source address 0 with opposite hosts b."""
    cube = RECube(ONE_SOURCE)
    cube.update_pairs(np.zeros(len(b), np.uint32), np.array(b, np.uint32), tau, HS)
    return cube


def _grid(b):
    """One-cell grid of source address 0 with opposite hosts b."""
    lea = LEArray(1, 1, 64)
    lea.update_pairs(np.zeros(len(b), np.uint32), np.array(b, np.uint32), HS)
    return lea


# -- lsb / tau --------------------------------------------------------------


def test_lsb_examples():
    assert lsb(200) == 3  # 0b11001000
    assert lsb(1) == 0
    assert lsb(0) == 32
    assert lsb(1 << 31) == 31


def test_lsb_matches_naive_loop():
    def naive(x):
        if x == 0:
            return 32
        n = 0
        while not x & 1:
            x >>= 1
            n += 1
        return n

    rng = np.random.default_rng(0)
    for x in rng.integers(0, 2**32, 500):
        assert lsb(int(x)) == naive(int(x))


def test_compute_tau_examples():
    assert compute_tau(1024, 8) == 7
    assert compute_tau(8, 8) == 0
    assert compute_tau(2048, 8) == 8
    with pytest.raises(ValueError):
        compute_tau(4, 8)
    with pytest.raises(ValueError):
        compute_tau(1024, 0)


# -- rough estimator --------------------------------------------------------


def test_re_update_idempotent():
    once = re_slot(HS, 12345, 0.0)
    assert once | re_slot(HS, 12345, 0.0) == once
    assert once.bit_count() == 1  # tau=0 qualifies everything


def test_re_update_respects_tau():
    # a host whose hash has few trailing zeros must not pass a high tau
    for b in range(100):
        if lsb(rand32(HS, b)) == 0:
            assert re_slot(HS, b, 7.0) == 0
            assert not _cube([b], 7.0).cells.any()
            break
    else:
        pytest.fail("no host with lsb 0 in range, hash suite is broken")


def _distinct_bits_per_seed(seeds, k, tau):
    """For each seed: how many RE slots k distinct hosts set (vectorized)."""
    mask = (1 << math.ceil(tau)) - 1 if tau > 0 else 0
    counts = []
    for seed in seeds:
        hs = HashSuite(seed)
        hosts = np.arange(k, dtype=np.uint64) + np.uint64(seed) * np.uint64(k)
        qual = (hs.rand32_arr(hosts) & np.uint32(mask)) == 0
        slots = hs.re_bit_arr(hosts[qual])
        counts.append(len(np.unique(slots)))
    return counts


def test_re_candidate_probability_high_at_theta():
    # theta distinct hosts: expected qualifiers = g = 8. The estimator can
    # still miss when <= 2 hosts qualify (Poisson tail, ~1.4%), so the gate
    # is 95%, not certainty.
    tau = compute_tau(1024, 8)
    counts = _distinct_bits_per_seed(range(300), 1024, tau)
    hits = sum(c >= CANDIDATE_BITS for c in counts)
    assert hits / len(counts) >= 0.95


def test_re_candidate_probability_low_well_below_theta():
    # ~theta/10 distinct hosts: expected qualifiers < 1, candidates rare.
    # (At exactly theta/8 the analytic candidate probability is ~5.5%, so
    # the "below 5%" regime only starts strictly inside the small side.)
    tau = compute_tau(1024, 8)
    counts = _distinct_bits_per_seed(range(100, 400), 100, tau)
    hits = sum(c >= CANDIDATE_BITS for c in counts)
    assert hits / len(counts) <= 0.05


def test_vectorized_qualification_matches_scalar():
    tau = compute_tau(1024, 8)
    mask = (1 << math.ceil(tau)) - 1
    hosts = np.arange(2000, dtype=np.uint64)
    vec = (HS.rand32_arr(hosts) & np.uint32(mask)) == 0
    scalar = np.array([lsb(rand32(HS, int(b))) >= tau for b in hosts])
    assert np.array_equal(vec, scalar)


# -- linear estimator -------------------------------------------------------


def test_le_update_idempotent_single_bit():
    assert le_sketch(HS, [999], 64).bit_count() == 1
    assert le_sketch(HS, [999, 999], 64) == le_sketch(HS, [999], 64)


def test_le_popcount_equals_distinct_buckets():
    hosts = np.arange(1000, dtype=np.uint64)
    expected = len(np.unique(HS.le_bit_arr(hosts, 4096)))
    assert le_sketch(HS, hosts.tolist(), 4096).bit_count() == expected


def test_le_estimate_examples():
    est, sat = linear_count(1024, 1024)  # no bit set
    assert est == 0.0 and not sat

    half = (1 << 512) - 1  # 512 bits set
    est, sat = linear_count(1024, 1024 - half.bit_count())
    assert est == pytest.approx(1024 * math.log(2))
    assert not sat

    est, sat = linear_count(1024, 0)  # every bit set
    assert sat
    assert est == pytest.approx(1024 * math.log(1024))


def test_le_std_dev_examples():
    assert le_std_dev(0.0, 1024) == 0.0
    assert le_std_dev(1.0, 1024) == pytest.approx(
        math.sqrt((math.e - 2.0) / 1024)
    )
    assert le_std_dev(1.0, 1024) == pytest.approx(0.02649, abs=5e-5)
    assert le_std_dev_hosts(1.0, 1024) == pytest.approx(1024 * 0.02649, rel=1e-3)
    with pytest.raises(ValueError):
        le_std_dev(-0.1, 1024)


def _le_monte_carlo(n_trials, k, nbits):
    """Vectorized LE trials: distinct hosts per trial, return estimates."""
    hosts = np.arange(n_trials * k, dtype=np.uint64).reshape(n_trials, k)
    buckets = np.sort(HS.le_bit_arr(hosts.ravel(), nbits).reshape(n_trials, k), axis=1)
    distinct = 1 + np.count_nonzero(buckets[:, 1:] != buckets[:, :-1], axis=1)
    n0 = nbits - distinct
    return -nbits * np.log(n0 / nbits)


def test_le_estimate_calibration_monte_carlo():
    nbits, k, trials = 1024, 1024, 10_000
    est = _le_monte_carlo(trials, k, nbits)
    rel_err = est / k - 1.0
    sd = le_std_dev(k / nbits, nbits)
    # mean unbiased to within a few std errors of the mean
    assert abs(rel_err.mean()) < 4 * sd / math.sqrt(trials)
    # sample std within 15% of the analytic value
    assert abs(rel_err.std() / sd - 1.0) < 0.15


def test_monte_carlo_helper_agrees_with_scalar_le():
    # one trial of the vectorized helper replayed through the scalar oracle
    nbits, k = 256, 100
    est_vec = _le_monte_carlo(1, k, nbits)[0]
    le = le_sketch(HS, range(k), nbits)
    assert linear_count(nbits, nbits - le.bit_count())[0] == pytest.approx(est_vec)


# -- merge algebra properties ----------------------------------------------


host_lists = st.lists(st.integers(0, 2**32 - 1), max_size=30)


@settings(max_examples=50, deadline=None)
@given(host_lists, host_lists)
def test_re_merge_equals_union_stream(xs, ys):
    tau = compute_tau(64, 8)
    merged = rec_merge_outer([_cube(xs, tau), _cube(ys, tau)])
    assert merged == _cube(xs + ys, tau)
    both = 0
    for b in xs + ys:
        both |= re_slot(HS, b, tau)
    assert all(row[0, 0] == both for row in merged.rows)


@settings(max_examples=50, deadline=None)
@given(host_lists, host_lists)
def test_le_merge_equals_union_stream(xs, ys):
    merged = lea_merge_outer([_grid(xs), _grid(ys)])
    assert merged == _grid(xs + ys)
    assert bits_of(merged.cells[0, 0]) == le_sketch(HS, xs + ys, 64)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
def test_le_estimate_monotone_in_bits(x, y):
    merged = x | y
    assert linear_count(64, 64 - merged.bit_count())[0] >= linear_count(64, 64 - x.bit_count())[0]


# -- params -----------------------------------------------------------------


def test_detector_params_validation():
    good = DetectorParams(theta=1024, le_len=2**14, u_hat=5, v_hat=2**15)
    assert good.tau == 7
    assert good.lea_bytes == 5 * 2**15 * 2**14 // 8
    with pytest.raises(ValueError):
        DetectorParams(theta=4, le_len=64, u_hat=1, v_hat=4)
    with pytest.raises(ValueError):
        DetectorParams(theta=1024, le_len=100, u_hat=1, v_hat=4)
    with pytest.raises(ValueError):
        DetectorParams(theta=1024, le_len=64, u_hat=0, v_hat=4)
