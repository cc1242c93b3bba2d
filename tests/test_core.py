import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cslsh.core import (
    SMALL_BUCKET,
    Dataset,
    Metric,
    QueryOrder,
    RngSeed,
    derive_rng,
    distance,
    order_minimum,
    uniform_draw,
    _pack_bits,
    _unpack_bits,
)
from cslsh.oracle import brute_force_nn


def bits(s):
    return np.array([[int(c) for c in s]], dtype=np.uint8)


def test_hamming_distance_examples():
    ds = Dataset.from_bits(np.vstack([bits("0000"), bits("0101")]))
    assert distance(Metric.HAMMING, ds.point(0), ds.point(0)) == 0
    assert distance(Metric.HAMMING, ds.point(0), ds.point(1)) == 2


def test_angular_distance_quarter_turn():
    x = np.array([1.0, 0.0])
    y = np.array([0.0, 1.0])
    assert distance(Metric.ANGULAR, x, y) == pytest.approx(np.pi / 2)
    assert distance(Metric.ANGULAR, x, x) == pytest.approx(0.0)


def test_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        distance(Metric.EUCLIDEAN, np.zeros(3), np.zeros(4))


def test_distance_symmetry_euclidean():
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal(5), rng.standard_normal(5)
    assert distance(Metric.EUCLIDEAN, x, y) == distance(Metric.EUCLIDEAN, y, x)


def test_precedes_tie_break_and_irreflexivity():
    # points at distances 1, 2, 2 from q; equal distances break by id
    rows = np.vstack([bits("1000"), bits("1100"), bits("0110")])
    ds = Dataset.from_bits(rows)
    q = Dataset.from_bits(bits("0000")).point(0)
    order = QueryOrder(ds, q)
    assert order.precedes(0, 1)
    assert order.precedes(1, 2) and not order.precedes(2, 1)  # tie at d=2, id wins
    assert not order.precedes(1, 1)


def test_precedes_invalid_id():
    ds = Dataset.from_bits(bits("0000"))
    order = QueryOrder(ds, ds.point(0))
    with pytest.raises(ValueError):
        order.precedes(0, 5)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 16), st.integers(2, 12), st.integers(0, 2**32 - 1))
def test_order_is_strict_and_total(n, dim, seed):
    rng = np.random.default_rng(seed)
    ds = Dataset.from_bits(rng.integers(0, 2, size=(n, dim), dtype=np.uint8))
    q = _pack_bits(rng.integers(0, 2, size=(1, dim), dtype=np.uint8))[0]
    order = QueryOrder(ds, q)
    for x in range(n):
        assert not order.precedes(x, x)
        for y in range(x + 1, n):
            assert order.precedes(x, y) != order.precedes(y, x)
    # transitivity via sorted keys
    keys = sorted(range(n), key=order.key)
    for a, b in zip(keys, keys[1:]):
        assert order.precedes(a, b)
    # the order minimum is the brute-force NN with smallest id among ties
    d = ds.distances_to(q)
    assert order.minimum() == int(np.flatnonzero(d == d.min()).min())


def test_pack_unpack_roundtrip():
    rng = np.random.default_rng(3)
    raw = rng.integers(0, 2, size=(7, 100), dtype=np.uint8)
    assert np.array_equal(_unpack_bits(_pack_bits(raw), 100), raw)


def test_pack_rejects_non_binary():
    with pytest.raises(ValueError):
        _pack_bits(np.array([[0, 2]]))


def test_dataset_metric_representation_compat():
    with pytest.raises(ValueError):
        Dataset(Metric.HAMMING, 4, reals=np.zeros((2, 4)))
    with pytest.raises(ValueError):
        Dataset(Metric.EUCLIDEAN, 4, words=np.zeros((2, 1), dtype=np.uint64))


@pytest.mark.parametrize("metric", [Metric.EUCLIDEAN, Metric.ANGULAR])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_reals_rejected(metric, bad):
    rows = np.arange(1.0, 13.0).reshape(3, 4)
    poisoned = rows.copy()
    poisoned[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        Dataset.from_reals(poisoned, metric)
    ds = Dataset.from_reals(rows, metric)
    q = np.array([bad, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="finite"):
        ds.check_query(q)
    with pytest.raises(ValueError, match="finite"):
        brute_force_nn(ds, q)


@pytest.mark.parametrize("metric", [Metric.EUCLIDEAN, Metric.ANGULAR])
def test_real_vectors_must_be_2d(metric):
    with pytest.raises(ValueError, match="2-d"):
        Dataset.from_reals(np.ones(5), metric)


@pytest.mark.parametrize("make", [
    lambda: Dataset.from_bits(np.ones(5, dtype=np.uint8)),
    lambda: Dataset.from_reals(np.ones(5), Metric.HAMMING),
])
def test_bit_vectors_must_be_2d(make):
    with pytest.raises(ValueError, match="2-d"):
        make()


def _words(rows):
    return np.array(rows, dtype=np.uint64)


@pytest.mark.parametrize("make", [
    lambda: Dataset.from_packed(_words([[0xF0], [0x0F]]), 4),
    lambda: Dataset.from_packed(_words([[0], [1 << 63]]), 63),
    lambda: Dataset.from_packed(_words([[0, 0], [0, 4]]), 66),
    lambda: Dataset.from_packed(_words([[0, 0], [0, 0]]), 64),
    lambda: Dataset.from_packed(_words([[0], [0]]), 65),
    lambda: Dataset.from_packed(_words([0, 0]), 4),
    lambda: Dataset.from_bits(np.zeros((2, 4), dtype=np.uint8)).check_query(_words([0xF0])),
    lambda: Dataset.from_bits(np.zeros((2, 130), dtype=np.uint8)).check_query(
        _words([0, 0, 1 << 2])),
], ids=["bits-past-dim-4", "bit-63-of-dim-63", "bits-past-dim-66", "extra-word",
        "missing-word", "not-2d", "query-bits-past-dim-4", "query-bit-130-of-130"])
def test_hamming_words_must_fit_the_dimension(make):
    with pytest.raises(ValueError):
        make()


def _kernel_instance(metric, dim, rng):
    """300 points drawn from 24 distinct rows, so that distances tie, and a
    query drawn apart from them."""
    if metric is Metric.HAMMING:
        base = rng.integers(0, 2, size=(24, dim), dtype=np.uint8)
        ds = Dataset.from_bits(base[rng.integers(24, size=300)])
        q = _pack_bits(rng.integers(0, 2, size=(1, dim), dtype=np.uint8))[0]
        return ds, q
    base = rng.standard_normal((24, dim))
    return Dataset.from_reals(base[rng.integers(24, size=300)], metric), rng.standard_normal(dim)


def _reference_minimum(ds, q, ids=None):
    """min((distance, id)), point by point; on real data a point's distance
    is the full scan's, which a scan of any other rows must reproduce."""
    pids = range(ds.n) if ids is None else ids.tolist()
    if ds.metric is Metric.HAMMING:
        return min((distance(ds.metric, ds.point(i), q), i) for i in pids)
    full = ds.distances_to(q).tolist()
    return min((full[i], i) for i in pids)


@pytest.mark.parametrize("metric, dim", [
    (Metric.HAMMING, 32), (Metric.HAMMING, 64), (Metric.HAMMING, 96), (Metric.HAMMING, 130),
    (Metric.ANGULAR, 16), (Metric.EUCLIDEAN, 16),
])
def test_order_minimum_matches_per_point_reference(metric, dim):
    rng = np.random.default_rng(dim)
    ds, q = _kernel_instance(metric, dim, rng)
    assert order_minimum(ds, q) == _reference_minimum(ds, q)
    for m in (1, 2, SMALL_BUCKET - 1, SMALL_BUCKET, 3 * SMALL_BUCKET):
        for _ in range(20):
            ids = rng.choice(ds.n, size=m, replace=False)  # unsorted, like a tree bucket
            assert order_minimum(ds, q, ids) == _reference_minimum(ds, q, ids)
    pid = np.random.default_rng(5).integers(ds.n, size=1)
    assert uniform_draw(ds, q, np.random.default_rng(5)) == _reference_minimum(ds, q, pid)


@pytest.mark.parametrize("metric", [Metric.ANGULAR, Metric.EUCLIDEAN])
@pytest.mark.parametrize("rows", [1, 2, 3, 17, 512])
def test_distances_do_not_depend_on_the_rows_scanned(metric, rows):
    # A point's key must be the same in every bucket that holds it.
    rng = np.random.default_rng(rows)
    ds = Dataset.from_reals(rng.standard_normal((512, 64)), metric)
    for _ in range(100):
        q = rng.standard_normal(64)
        ids = rng.choice(ds.n, size=rows, replace=False)
        assert np.array_equal(ds.distances_to(q, ids), ds.distances_to(q)[ids])


@pytest.mark.parametrize("metric, dim", [
    (Metric.HAMMING, 32), (Metric.HAMMING, 130), (Metric.ANGULAR, 16), (Metric.EUCLIDEAN, 16),
])
def test_order_minimum_with_memo_matches_memo_free(metric, dim):
    rng = np.random.default_rng(dim + 1)
    ds, q = _kernel_instance(metric, dim, rng)
    memo = np.full(ds.n, -1, np.int64 if metric is Metric.HAMMING else np.float64)
    pool = rng.choice(ds.n, size=60, replace=False)  # the sets below overlap
    sets = [rng.choice(pool, size=m, replace=False)
            for m in (1, 5, SMALL_BUCKET, 40) for _ in range(5)]
    sets += sets[::3]  # again, once every id is known
    sets.append(np.concatenate([pool[:3], pool[:3]]))  # ids repeated in one set
    for ids in sets:
        assert order_minimum(ds, q, ids, memo) == order_minimum(ds, q, ids)
    rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
    drawn = []
    for _ in range(20):
        key = uniform_draw(ds, q, rng_a, memo)
        assert key == uniform_draw(ds, q, rng_b)
        drawn.append(key[1])
    seen = np.unique(np.concatenate(sets + [drawn]))
    known = np.flatnonzero(memo >= 0)
    assert np.array_equal(known, seen)
    assert np.array_equal(memo[known], ds.distances_to(q)[known])


def test_rng_derivation_deterministic_and_distinct():
    s = RngSeed(1234)
    a = derive_rng(s, "tree", 0).random(8)
    b = derive_rng(s, "tree", 0).random(8)
    assert np.array_equal(a, b)
    c = derive_rng(s, "tree", 1).random(8)
    d = derive_rng(s, "forest", 0).random(8)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert not np.array_equal(c, d)


def test_rng_path_children_independent():
    s = RngSeed(7).child("x", 3)
    assert s.child("y", 1).path == (("x", 3), ("y", 1))
    with pytest.raises(ValueError):
        s.child("y", -1)
