import numpy as np
import pytest

from superpoint.harness import (
    Metrics,
    TraceSpec,
    exact_cardinalities,
    generate_trace,
    oracle_evaluate,
    partition_stream,
    true_super_points,
)
from superpoint.node import Trace


def _card_oracle(trace):
    """Second, independent distinct-count implementation (python sets)."""
    seen: dict[int, set[int]] = {}
    for a, b in zip(trace.a.tolist(), trace.b.tolist()):
        seen.setdefault(a, set()).add(b)
    return {a: len(s) for a, s in seen.items()}


# -- metrics ------------------------------------------------------------------


def test_metrics_arithmetic():
    m = Metrics(n_true=10, n_false_positive=1, n_missed=2)
    assert m.fpr == pytest.approx(10.0)
    assert m.fnr == pytest.approx(20.0)
    assert m.ftr == pytest.approx(30.0)


def test_oracle_evaluate_example():
    # truth {x, y}, detected {x, z}: one miss, one false positive
    trace = Trace(
        np.repeat(np.array([1, 2], np.uint32), 5),
        np.arange(10, dtype=np.uint32),
    )
    m = oracle_evaluate(true_super_points([trace], theta=4), detected={1, 3})
    assert m == Metrics(n_true=2, n_false_positive=1, n_missed=1)
    assert m.fpr == 50.0 and m.fnr == 50.0


def test_oracle_evaluate_empty_truth_is_none():
    trace = Trace(np.array([1], np.uint32), np.array([1], np.uint32))
    assert oracle_evaluate(true_super_points([trace], theta=10), detected=set()) is None


# -- exact cardinalities --------------------------------------------------------


def test_exact_cardinalities_dedupes_pairs():
    a = np.array([5, 5, 5, 6], np.uint32)
    b = np.array([1, 1, 2, 1], np.uint32)
    assert exact_cardinalities([Trace(a, b)]) == {5: 2, 6: 1}
    # split across traces: union semantics
    assert exact_cardinalities([Trace(a[:2], b[:2]), Trace(a[2:], b[2:])]) == {
        5: 2,
        6: 1,
    }
    assert exact_cardinalities([Trace(a[:0], b[:0])]) == {}


def test_exact_cardinalities_matches_set_oracle():
    rng = np.random.default_rng(30)
    trace = Trace(
        rng.integers(0, 50, 5000, dtype=np.uint32),
        rng.integers(0, 200, 5000, dtype=np.uint32),
    )
    assert exact_cardinalities([trace]) == _card_oracle(trace)


def test_true_super_points_threshold_is_strict():
    trace = Trace(
        np.repeat(np.array([1, 2], np.uint32), [4, 5]),
        np.arange(9, dtype=np.uint32),
    )
    assert true_super_points([trace], theta=4) == {2}  # card 4 is not > 4


# -- trace generation -----------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        TraceSpec(planted=((1, 5), (1, 6)))  # duplicate address
    with pytest.raises(ValueError):
        TraceSpec(planted=((1, 0),))
    with pytest.raises(ValueError):
        TraceSpec(duplication=0)
    with pytest.raises(ValueError):
        TraceSpec(background_hosts=-1)


def test_background_cap_clamped_to_half_theta():
    # theta/2 by default; an explicit cap is used as given, even above it
    assert TraceSpec(theta=1024).background_cap == 512
    assert TraceSpec(theta=100).background_cap == 50
    assert TraceSpec(theta=100, max_background_card=8).background_cap == 8
    assert TraceSpec(theta=100, max_background_card=512).background_cap == 512


def test_generate_is_deterministic():
    spec = TraceSpec(planted=((7, 100),), background_hosts=50)
    t1, t2 = generate_trace(spec, 99), generate_trace(spec, 99)
    assert np.array_equal(t1.a, t2.a) and np.array_equal(t1.b, t2.b)
    t3 = generate_trace(spec, 100)
    assert not np.array_equal(t1.b, t3.b)


def test_planted_cardinalities_exact():
    spec = TraceSpec(
        planted=((0xAAAA0001, 1500), (0xAAAA0002, 2048), (0xAAAA0003, 1)),
        background_hosts=200,
        theta=1024,
        duplication=3,
    )
    trace = generate_trace(spec, 7)
    cards = exact_cardinalities([trace])
    assert cards[0xAAAA0001] == 1500
    assert cards[0xAAAA0002] == 2048
    assert cards[0xAAAA0003] == 1
    # duplication multiplies volume, not cardinality
    assert len(trace) == 3 * sum(
        c for c in cards.values()
    )
    assert cards == _card_oracle(trace)


def test_background_stays_below_cap_and_follows_zipf():
    spec = TraceSpec(background_hosts=1000, theta=1024, zipf_s=1.2)
    trace = generate_trace(spec, 8)
    cards = np.array(sorted(exact_cardinalities([trace]).values(), reverse=True))
    assert cards.max() <= spec.background_cap
    assert cards.min() >= 1
    assert true_super_points([trace], spec.theta) == set()
    # log-log slope over the unclamped head should be close to -zipf_s
    head = cards[:100].astype(float)
    ranks = np.arange(1, 101, dtype=float)
    slope = np.polyfit(np.log(ranks), np.log(head), 1)[0]
    assert slope == pytest.approx(-spec.zipf_s, abs=0.12)


def test_empty_spec_gives_empty_trace():
    trace = generate_trace(TraceSpec(), 0)
    assert len(trace) == 0


# -- partitioning ---------------------------------------------------------------


def _as_pair_multiset(trace):
    key = (trace.a.astype(np.uint64) << np.uint64(32)) | trace.b.astype(np.uint64)
    return sorted(key.tolist())


@pytest.mark.parametrize("mode", ["round_robin", "hash_by_pair"])
def test_partition_conserves_pairs(mode):
    trace = generate_trace(
        TraceSpec(planted=((1, 300),), background_hosts=100), 9
    )
    parts = partition_stream(trace, 4, mode=mode)
    assert sum(len(p) for p in parts) == len(trace)
    assert _as_pair_multiset(Trace.concatenate(parts)) == _as_pair_multiset(trace)


def test_partition_single_node_is_identity():
    trace = generate_trace(TraceSpec(planted=((1, 50),)), 10)
    (part,) = partition_stream(trace, 1)
    assert np.array_equal(part.a, trace.a)
    assert np.array_equal(part.b, trace.b)


def test_hash_partition_keeps_duplicate_pairs_together():
    trace = generate_trace(
        TraceSpec(planted=((1, 200),), duplication=4), 11
    )
    parts = partition_stream(trace, 3, mode="hash_by_pair")
    key_sets = [set(_as_pair_multiset(p)) for p in parts if len(p)]
    for i in range(len(key_sets)):
        for j in range(i + 1, len(key_sets)):
            assert not key_sets[i] & key_sets[j]


def test_skewed_partition_weights():
    trace = generate_trace(TraceSpec(planted=((1, 10_000),)), 12)
    parts = partition_stream(
        trace, 3, mode="skewed", seed=1, weights=[0.6, 0.25, 0.15]
    )
    shares = [len(p) / len(trace) for p in parts]
    assert shares[0] == pytest.approx(0.6, abs=0.03)
    assert shares[2] == pytest.approx(0.15, abs=0.03)
    with pytest.raises(ValueError):
        partition_stream(trace, 3, mode="skewed", weights=[0.5, 0.5])
    with pytest.raises(ValueError):
        partition_stream(trace, 2, mode="skewed", weights=[0.9, 0.2])
    with pytest.raises(ValueError):
        partition_stream(trace, 2, mode="nonsense")
    with pytest.raises(ValueError):
        partition_stream(trace, 0)


def test_skewed_split_host_invisible_locally_but_found_globally():
    # a super point whose pairs are spread so no single node sees > theta
    # distinct hosts locally, while the union is 1.5 * theta
    from superpoint.coordinator import run_window
    from superpoint.estimators import DetectorParams
    from superpoint.node import ObservationNode
    from superpoint.recube import RECubeConfig

    theta = 256
    params = DetectorParams(theta=theta, le_len=1024, u_hat=3, v_hat=256)
    cfg = RECubeConfig(r=2, l=(6,) * 8, s=(0, 4, 8, 12, 16, 20, 24, 28))
    spec = TraceSpec(planted=((0xC0DE, int(1.5 * theta)),), theta=theta)
    trace = generate_trace(spec, 13)
    parts = partition_stream(
        trace, 3, mode="skewed", seed=2, weights=[0.6, 0.25, 0.15]
    )
    locals_ = [len(set(p.b.tolist())) for p in parts]
    assert max(locals_) <= theta  # no node could decide alone
    nodes = []
    for i, part in enumerate(parts):
        node = ObservationNode(i, params, cfg, master_seed=55)
        node.reset_window(0)
        node.scan_window(part)
        nodes.append(node)
    report = run_window(nodes)
    assert 0xC0DE in {e.address for e in report.super_points}
