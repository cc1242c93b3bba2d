import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cslsh import families
from cslsh.confirmation import DiscreteDistribution, confirmation_sampling, exact_output_distribution
from cslsh.core import Dataset, Metric, RngSeed, _pack_bits
from cslsh.families import BitSampling, SignRandomProjection, family_for_metric
from cslsh.forest import build_forest
from cslsh.oracle import (
    static_level_choice,
    brute_force_nn,
    naive_prefix_filter,
    natural_algorithm,
    opt_report,
    profile,
    simulate_cs,
)

SEED = RngSeed(1212)


def test_brute_force_examples():
    rng = SEED.child("bf").generator()
    bits = rng.integers(0, 2, size=(10, 16), dtype=np.uint8)
    ds = Dataset.from_bits(bits)
    assert brute_force_nn(ds, ds.point(5)) in (5, *range(5))  # 5 or an identical smaller id
    d = ds.distances_to(ds.point(5))
    assert d[brute_force_nn(ds, ds.point(5))] == 0


def test_brute_force_tie_break():
    base = np.zeros((10, 8), dtype=np.uint8)
    base[2, 0] = 1
    base[9, 0] = 1
    base[:2, :4] = 1
    base[3:9, :4] = 1
    ds = Dataset.from_bits(base)
    q = _pack_bits(np.zeros((1, 8), dtype=np.uint8))[0]
    assert brute_force_nn(ds, q) == 2  # ids 2 and 9 tie at distance 1


def test_brute_force_agrees_with_reverse_scan():
    rng = SEED.child("rev").generator()
    ds = Dataset.from_bits(rng.integers(0, 2, size=(100, 12), dtype=np.uint8))
    q = _pack_bits(rng.integers(0, 2, size=(1, 12), dtype=np.uint8))[0]
    d = ds.distances_to(q)
    best = 99
    for i in range(99, -1, -1):  # reversed independent scan
        if d[i] < d[best] or (d[i] == d[best] and i < best):
            best = i
    assert brute_force_nn(ds, q) == best


def test_profile_closed_forms():
    fam = BitSampling(8)
    # all points at distance 4: f = 0.5, C(i) = n / 2^i
    words = _pack_bits(np.array([[1, 1, 1, 1, 0, 0, 0, 0]] * 6, dtype=np.uint8))
    ds = Dataset.from_packed(words, 8)
    q = _pack_bits(np.zeros((1, 8), dtype=np.uint8))[0]
    prof = profile(ds, fam, q, K=5)
    assert prof.C[0] == 6
    for i in range(6):
        assert prof.C[i] == pytest.approx(6 * 0.5**i, rel=1e-12)
    assert prof.p1 == 0.5


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 40), st.integers(0, 2**32 - 1))
def test_profile_ratio_inequality(n, seed):
    rng = np.random.default_rng(seed)
    ds = Dataset.from_bits(rng.integers(0, 2, size=(n, 16), dtype=np.uint8))
    q = _pack_bits(rng.integers(0, 2, size=(1, 16), dtype=np.uint8))[0]
    prof = profile(ds, BitSampling(16), q, K=8)
    for i in range(8):
        assert prof.C[i + 1] <= prof.p1 * prof.C[i] + 1e-9


def test_c_at_refuses_a_negative_level():
    rng = SEED.child("neg").generator()
    ds = Dataset.from_bits(rng.integers(0, 2, size=(20, 8), dtype=np.uint8))
    q = _pack_bits(rng.integers(0, 2, size=(1, 8), dtype=np.uint8))[0]
    prof = profile(ds, BitSampling(8), q, K=4)
    with pytest.raises(ValueError):
        prof.c_at(-1)
    with pytest.raises(ValueError):
        profile(ds, BitSampling(8), q, K=-1)


def test_profile_refuses_a_family_of_another_dimension():
    rng = SEED.child("dim").generator()
    ds = Dataset.from_bits(rng.integers(0, 2, size=(20, 8), dtype=np.uint8))
    q = _pack_bits(rng.integers(0, 2, size=(1, 8), dtype=np.uint8))[0]
    with pytest.raises(ValueError):
        profile(ds, BitSampling(12), q, K=4)


def test_opt_report_p1_one():
    fam = BitSampling(8)
    words = np.tile(_pack_bits(np.zeros((1, 8), dtype=np.uint8)), (5, 1))
    ds = Dataset.from_packed(words, 8)
    q = ds.point(0)
    prof = profile(ds, fam, q, K=4)
    rep = opt_report(prof, L=100, K=4, n=5)
    assert rep.feasible.all()
    for i in range(5):
        assert rep.T[i] == pytest.approx(i + prof.C[i])
    assert rep.opt == pytest.approx(rep.T[rep.i_star] * math.log(5))


def test_opt_report_feasibility_and_brute_minimization():
    rng = SEED.child("opt").generator()
    ds = Dataset.from_bits(rng.integers(0, 2, size=(64, 16), dtype=np.uint8))
    q = _pack_bits(rng.integers(0, 2, size=(1, 16), dtype=np.uint8))[0]
    prof = profile(ds, BitSampling(16), q, K=10)
    L, n = 128, 64
    rep = opt_report(prof, L, 10, n)
    # independent exhaustive minimization
    best = math.inf
    for i in range(11):
        if prof.p1**i * L >= math.log(n):
            best = min(best, (i + prof.C[i]) / prof.p1**i * math.log(n))
    assert rep.opt == pytest.approx(best)
    # OPT never increases with more trees
    rep2 = opt_report(prof, 2 * L, 10, n)
    assert rep2.opt <= rep.opt + 1e-12


def test_opt_report_infeasible():
    fam = BitSampling(16)
    far = np.ones((4, 16), dtype=np.uint8)
    ds = Dataset.from_bits(far)
    q = _pack_bits(np.zeros((1, 16), dtype=np.uint8))[0]  # p1 = 0
    prof = profile(ds, fam, q, K=3)
    # L = 1 < ln 4 leaves even the full scan at level 0 infeasible
    rep = opt_report(prof, L=1, K=3, n=4)
    assert not rep.is_feasible and rep.opt == math.inf
    # with L above ln n, level 0 is always feasible regardless of p1
    rep0 = opt_report(prof, L=2, K=3, n=4)
    assert rep0.i_star == 0 and rep0.opt == pytest.approx(4 * math.log(4))


def test_i_prime_is_smallest_crossing():
    rng = SEED.child("ip").generator()
    ds = Dataset.from_bits(rng.integers(0, 2, size=(32, 16), dtype=np.uint8))
    q = _pack_bits(rng.integers(0, 2, size=(1, 16), dtype=np.uint8))[0]
    prof = profile(ds, BitSampling(16), q, K=8)
    rep = opt_report(prof, 64, 8, 32)
    i = rep.i_prime
    assert prof.c_at(i) <= i
    for smaller in range(i):
        assert prof.c_at(smaller) > smaller


def test_t_identity_two_ways():
    rng = SEED.child("tid").generator()
    ds = Dataset.from_bits(rng.integers(0, 2, size=(40, 16), dtype=np.uint8))
    q = _pack_bits(rng.integers(0, 2, size=(1, 16), dtype=np.uint8))[0]
    prof = profile(ds, BitSampling(16), q, K=6)
    rep = opt_report(prof, 64, 6, 40)
    for i in range(7):
        direct = (i + float(np.sum(prof.probs**i))) / prof.p1**i
        assert rep.T[i] == pytest.approx(direct, rel=1e-9)


def test_natural_algorithm_level0_is_brute_force():
    rng = SEED.child("nat").generator()
    ds = Dataset.from_bits(rng.integers(0, 2, size=(30, 8), dtype=np.uint8))
    forest = build_forest(ds, BitSampling(8), K=4, L=2, seed=SEED.child("nat-f"))
    q = _pack_bits(rng.integers(0, 2, size=(1, 8), dtype=np.uint8))[0]
    pid, work = natural_algorithm(forest, q, 0, 1)
    assert pid == brute_force_nn(ds, q)
    assert work == 30


def test_static_level_choice_definition():
    rng = SEED.child("static").generator()
    ds = Dataset.from_bits(rng.integers(0, 2, size=(60, 16), dtype=np.uint8))
    forest = build_forest(ds, BitSampling(16), K=8, L=4, seed=SEED.child("static-f"))
    q = _pack_bits(rng.integers(0, 2, size=(1, 16), dtype=np.uint8))[0]
    c = 2.0
    i0 = static_level_choice(forest, q, c)
    totals = [
        sum(forest.collision_count(j, i, q) for j in range(1, 5)) for i in range(9)
    ]
    qualifying = [i for i in range(1, 9) if totals[i] <= c * 4]
    assert i0 == (min(qualifying) if qualifying else 8)


@pytest.mark.parametrize("metric", [Metric.HAMMING, Metric.ANGULAR])
def test_naive_prefix_filter_shares_no_code_with_the_structure(metric, monkeypatch):
    # With every column kernel and query hash of the structure refused, the
    # reference still re-derives each bucket the forest holds.
    rng = SEED.child("npf-" + metric.value).generator()
    if metric is Metric.HAMMING:
        ds = Dataset.from_bits(rng.integers(0, 2, size=(40, 12), dtype=np.uint8))
        queries = [ds.point(3), _pack_bits(rng.integers(0, 2, size=(1, 12), dtype=np.uint8))[0]]
    else:
        ds = Dataset.from_reals(rng.standard_normal((40, 12)), Metric.ANGULAR)
        queries = [ds.point(3), rng.standard_normal(12)]
    forest = build_forest(ds, family_for_metric(metric, 12), K=6, L=3, seed=SEED.child("npf-f"))
    buckets = {(q_idx, j, i): sorted(forest.bucket(j, i, q).tolist())
               for q_idx, q in enumerate(queries)
               for j in range(1, forest.L + 1) for i in range(forest.K + 1)}

    def refuse(*args, **kwargs):
        raise AssertionError("the reference used the structure's hashing")

    for cls in (BitSampling, SignRandomProjection):
        monkeypatch.setattr(cls, "_evaluate_all", refuse)
        monkeypatch.setattr(cls, "query_string", refuse)
    monkeypatch.setattr(families, "pack_strings", refuse)
    for (q_idx, j, i), want in buckets.items():
        got = naive_prefix_filter(forest.family, forest.params[j - 1], ds, queries[q_idx], i)
        assert got.tolist() == want


def test_simulate_cs_deterministic_case():
    sim = simulate_cs(DiscreteDistribution([1.0]), 2, 5000, SEED.child("s1"))
    assert sim.frequencies[0] == 1.0
    assert sim.mean_samples == 3.0


def test_simulate_cs_two_point_tightness():
    sim = simulate_cs(DiscreteDistribution([0.5, 0.5]), 1, 100_000, SEED.child("s2"))
    assert abs(sim.frequencies[1] - 0.25) <= 3 * math.sqrt(0.25 * 0.75 / 100_000)


def test_simulate_cs_matches_exact_recursion():
    dist = DiscreteDistribution([0.6, 0.3, 0.1])
    rho = exact_output_distribution(dist, 2)
    sim = simulate_cs(dist, 2, 200_000, SEED.child("s3"))
    tol = 3 * np.sqrt(rho * (1 - rho) / sim.runs) + 3 / sim.runs
    assert (np.abs(sim.frequencies - rho) <= tol).all()


def test_simulate_cs_agrees_with_generic_loop():
    # the vectorized replay and the element-at-a-time loop are the same law
    dist = DiscreteDistribution([0.45, 0.35, 0.2])
    t, runs = 2, 30_000
    sim = simulate_cs(dist, t, runs, SEED.child("s4"))
    rng = SEED.child("s5").generator()
    draw = dist.sampler(rng)
    counts = np.zeros(3)
    samples = 0
    for _ in range(runs):
        res = confirmation_sampling(draw, t)
        counts[res.element] += 1
        samples += res.samples
    freq = counts / runs
    tol = 3 * np.sqrt(freq * (1 - freq) / runs + sim.std_errors**2) + 3 / runs
    assert (np.abs(freq - sim.frequencies) <= tol).all()
    assert abs(samples / runs - sim.mean_samples) <= 4 * sim.samples_se + 0.05
