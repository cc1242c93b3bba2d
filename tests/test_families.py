import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cslsh.core import Dataset, Metric, RngSeed, _pack_bits
from cslsh.families import (
    BitSampling,
    HashSpec,
    SignRandomProjection,
    family_for_metric,
    pack_strings,
)

SEED = RngSeed(99)


def test_bit_sampling_member_definition_and_determinism():
    fam = BitSampling(8)
    p1 = fam.sample_params(SEED.child("m", 0), 5)
    p2 = fam.sample_params(SEED.child("m", 0), 5)
    assert p1.shape == (5,) and p1.dtype == np.int64
    assert ((0 <= p1) & (p1 < 8)).all()
    assert np.array_equal(p1, p2)
    # level k is drawn from its own ("level", k) child, so a prefix of the
    # levels does not depend on how many are drawn
    assert np.array_equal(fam.sample_params(SEED.child("m", 0), 2), p1[:2])
    assert int(fam.sample_params(SEED.child("m", 0), 1)[0]) == int(
        SEED.child("m", 0).child("level", 0).generator().integers(8))


def test_bit_sampling_evaluate_reads_the_bit():
    # point 0100, coordinates numbered left to right from 0
    ds = Dataset.from_bits(np.array([[0, 1, 0, 0]], dtype=np.uint8))
    fam = BitSampling(4)
    for idx, want in enumerate([0, 1, 0, 0]):
        spec = HashSpec(fam, idx)
        assert spec.evaluate(ds.point(0)) == want
        assert spec.evaluate(ds.point(0)) == spec.evaluate(ds.point(0))


def test_bit_sampling_draws_are_uniform():
    fam = BitSampling(8)
    counts = np.zeros(8)
    n = 10_000
    for idx in fam.sample_params(SEED.child("draw"), n):
        counts[idx] += 1
    sigma = math.sqrt(n * (1 / 8) * (7 / 8))
    assert np.abs(counts - n / 8).max() <= 5 * sigma


def test_srp_sign_of_projection():
    fam = SignRandomProjection(6)
    params = fam.sample_params(SEED.child("srp"), 3)
    assert params.shape == (3, 6)
    direction = params[0]
    spec = HashSpec(fam, direction)
    assert spec.evaluate(direction) == 1  # positive self inner product
    assert spec.evaluate(-direction) == 0


def test_collision_probability_closed_forms():
    bs = BitSampling(4)
    assert bs.collision_probability(0) == 1.0
    assert bs.collision_probability(1) == 0.75
    # exhaustive check: of the 4 coordinate choices, 3 avoid the flipped bit
    x = _pack_bits(np.array([[0, 0, 0, 0]], dtype=np.uint8))[0]
    y = _pack_bits(np.array([[1, 0, 0, 0]], dtype=np.uint8))[0]
    agree = sum(
        int(HashSpec(bs, idx).evaluate(x) == HashSpec(bs, idx).evaluate(y))
        for idx in range(4)
    )
    assert agree / 4 == bs.collision_probability(1)
    srp = SignRandomProjection(3)
    assert srp.collision_probability(0.0) == 1.0
    assert srp.collision_probability(math.pi / 2) == 0.5
    with pytest.raises(ValueError):
        bs.collision_probability(5)
    with pytest.raises(ValueError):
        srp.collision_probability(4.0)


@pytest.mark.parametrize("fam, values", [
    (BitSampling(4), [0, 1, 2.5, 4, np.int64(3)]),
    (SignRandomProjection(3), [0.0, -1e-13, 1.0, math.pi, math.pi + 1e-13]),
])
def test_collision_probability_is_the_array_form_at_one_point(fam, values):
    got = [fam.collision_probability(v) for v in values]
    assert all(type(p) is float for p in got)
    assert got == fam.collision_probability_many(np.array(values, dtype=float)).tolist()


def test_srp_collision_probability_monte_carlo():
    # orthogonal pair: empirical collision rate over 1e6 directions vs 0.5
    rng = SEED.child("mc").generator()
    n = 1_000_000
    dirs = rng.standard_normal((n, 2))
    x = np.array([1.0, 0.0])
    y = np.array([0.0, 1.0])
    agree = ((dirs @ x >= 0) == (dirs @ y >= 0)).mean()
    assert abs(agree - 0.5) <= 3 * math.sqrt(0.25 / n)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 64), st.data())
def test_monotone_in_distance(dim, data):
    fam = BitSampling(dim)
    d1 = data.draw(st.integers(0, dim))
    d2 = data.draw(st.integers(d1, dim))
    assert fam.collision_probability(d1) >= fam.collision_probability(d2)
    srp = SignRandomProjection(4)
    t1 = data.draw(st.floats(0, math.pi))
    t2 = data.draw(st.floats(t1, math.pi))
    assert srp.collision_probability(t1) >= srp.collision_probability(t2)


def test_empirical_matches_analytic_over_members():
    # frequency of h(x) == h(y) over sampled members vs f(d), 3 sigma
    rng = SEED.child("emp").generator()
    dim, n_members = 16, 4000
    xbits = rng.integers(0, 2, size=(1, dim), dtype=np.uint8)
    for d in (0, 3, 8, 16):
        ybits = xbits.copy()
        flip = rng.choice(dim, size=d, replace=False)
        ybits[0, flip] ^= 1
        ds = Dataset.from_bits(np.vstack([xbits, ybits]))
        fam = BitSampling(dim)
        members = [HashSpec(fam, p) for p in fam.sample_params(SEED.child("emp-mem", d),
                                                                n_members)]
        agree = sum(
            int(m.evaluate(ds.point(0)) == m.evaluate(ds.point(1))) for m in members
        )
        rate = agree / n_members
        f = fam.collision_probability(d)
        tol = 3 * math.sqrt(max(f * (1 - f), 1e-12) / n_members) + 1e-9
        assert abs(rate - f) <= tol


def reference_string(family, params, x) -> int:
    """The per-member reference: each member's bit, level 1 most significant."""
    value = 0
    for p in params:
        value = (value << 1) | HashSpec(family, p).evaluate(x)
    return value


def test_concat_hash_basics():
    # q's K-bit string from one query_string call: level 1 is the most
    # significant bit, and a level-i prefix is the string shifted by K - i.
    ds = Dataset.from_bits(np.array([[1, 0, 1, 1], [1, 0, 1, 1]], dtype=np.uint8))
    fam = BitSampling(4)
    params = fam.sample_params(SEED.child("cc"), 1)
    assert fam.query_string(params, ds.point(0)) == HashSpec(fam, params[0]).evaluate(ds.point(0))
    params3 = fam.sample_params(SEED.child("cc3"), 3)
    a = fam.query_string(params3, ds.point(0))
    assert a == fam.query_string(params3, ds.point(1))  # identical points, identical strings
    assert [(a >> (3 - i)) & 1 for i in (1, 2, 3)] == [
        HashSpec(fam, p).evaluate(ds.point(0)) for p in params3]
    assert 0 <= a < 8


def test_level2_prefix_collision_rate():
    # dim 4, distance 1: level-2 prefix collision rate is f(d)^2 = 0.5625.
    # member draws are uniform coordinates (checked above); simulate the
    # 2-fold concatenation over 1e5 member pairs.
    rng = SEED.child("pref").generator()
    trials = 100_000
    draws = rng.integers(4, size=(trials, 2))
    collide = (draws != 0).all(axis=1)  # flipping coordinate 0 separates x, y
    rate = collide.mean()
    tol = 3 * math.sqrt(0.5625 * (1 - 0.5625) / trials)
    assert abs(rate - 0.5625) <= tol


def test_pack_strings_matches_concat_hash():
    rng = SEED.child("ps").generator()
    ds = Dataset.from_bits(rng.integers(0, 2, size=(10, 12), dtype=np.uint8))
    fam = BitSampling(12)
    params = fam.sample_params(SEED.child("ps-m"), 5)
    packed = pack_strings(fam, params, ds)
    for i in range(10):
        assert int(packed[i]) == reference_string(fam, params, ds.point(i))


@pytest.mark.parametrize("kind,dim", [("bit-sampling", 32), ("bit-sampling", 96),
                                      ("bit-sampling", 130), ("sign-random-projection", 24)])
def test_query_string_equals_stored_string(kind, dim):
    # One query_string call per point gives the string pack_strings stores
    # and the concatenation of the per-member reference bits, for packed
    # points of one, two and three words and for real points.
    rng = SEED.child("qs", dim).generator()
    if kind == "bit-sampling":
        ds = Dataset.from_bits(rng.integers(0, 2, size=(40, dim), dtype=np.uint8))
    else:
        ds = Dataset.from_reals(rng.standard_normal((40, dim)), Metric.ANGULAR)
    fam = family_for_metric(ds.metric, dim)
    params = fam.sample_params(SEED.child("qs-m", dim), 64)
    packed = pack_strings(fam, params, ds)
    for i in range(ds.n):
        got = fam.query_string(params, ds.point(i))
        assert got == int(packed[i]) == reference_string(fam, params, ds.point(i))


def test_family_dataset_compat():
    ds = Dataset.from_bits(np.zeros((2, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        SignRandomProjection(4).check_compatible(ds)
    with pytest.raises(ValueError):
        BitSampling(5).check_compatible(ds)
    assert family_for_metric(Metric.HAMMING, 4).kind == "bit-sampling"
    assert family_for_metric(Metric.ANGULAR, 4).kind == "sign-random-projection"
    with pytest.raises(ValueError):
        family_for_metric(Metric.EUCLIDEAN, 4)
