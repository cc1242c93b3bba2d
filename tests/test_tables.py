import math

import numpy as np
import pytest

from cslsh.core import CostCounters, Dataset, RngSeed, _pack_bits
from cslsh.families import BitSampling
from cslsh.oracle import enumerate_qq_bitsampling
from cslsh.tables import SequenceExhausted, TableSequence, default_k_cat
from cslsh.data import InstanceSpec, generate

SEED = RngSeed(808)


def make_seq(ds, k_cat=2, l_max=512, tag="t"):
    return TableSequence(ds, BitSampling(ds.dim), k_cat, l_max, SEED.child(tag))


def test_single_point_everywhere():
    ds = Dataset.from_bits(np.array([[1, 0, 1, 1]], dtype=np.uint8))
    seq = make_seq(ds)
    stats = CostCounters()
    rng = SEED.child("r").generator()
    for i in range(1, 6):
        d, pid = seq.sample_once(ds.point(0), i, rng, stats)
        assert pid == 0 and d == 0
    assert stats.buckets_opened == 5
    assert stats.collisions_inspected >= stats.buckets_opened


def test_bucket_partition_per_table():
    rng = SEED.child("part").generator()
    ds = Dataset.from_bits(rng.integers(0, 2, size=(30, 8), dtype=np.uint8))
    seq = make_seq(ds)
    tab = seq.table(3)
    seen = np.concatenate([tab.bucket_ids(int(v)) for v in np.unique(tab.values)])
    assert sorted(seen.tolist()) == list(range(30))
    assert len(tab.bucket_ids(int(tab.values.max()) + 1)) == 0


def test_same_seed_same_results():
    rng = SEED.child("det").generator()
    ds = Dataset.from_bits(rng.integers(0, 2, size=(50, 16), dtype=np.uint8))
    q = _pack_bits(rng.integers(0, 2, size=(1, 16), dtype=np.uint8))[0]
    r1 = make_seq(ds, tag="same").query_nn(q, 0.25, SEED.child("q"))
    r2 = make_seq(ds, tag="same").query_nn(q, 0.25, SEED.child("q"))
    assert r1.point == r2.point
    assert r1.stats.as_dict() == r2.stats.as_dict()


def test_expected_bucket_size_matches_analytic():
    rng = SEED.child("exp").generator()
    ds = Dataset.from_bits(rng.integers(0, 2, size=(16, 8), dtype=np.uint8))
    q = _pack_bits(rng.integers(0, 2, size=(1, 8), dtype=np.uint8))[0]
    fam = BitSampling(8)
    k_cat = 2
    want = float(np.sum(fam.collision_probability_many(ds.distances_to(q)) ** k_cat))
    tables = 10_000
    seq = TableSequence(ds, fam, k_cat, tables, SEED.child("exp-seq"))
    sizes = np.empty(tables)
    for i in range(1, tables + 1):
        tab = seq.table(i)
        value = fam.query_string(tab.params, q)
        sizes[i - 1] = len(tab.bucket_ids(value))
    se = sizes.std(ddof=1) / math.sqrt(tables)
    assert abs(sizes.mean() - want) <= 3 * se + 1e-3


def test_empty_bucket_fallback_is_uniform():
    # points all-zero, query all-one: no collisions at any width
    ds = Dataset.from_bits(np.zeros((5, 8), dtype=np.uint8))
    q = _pack_bits(np.ones((1, 8), dtype=np.uint8))[0]
    seq = make_seq(ds, k_cat=1, l_max=200_000, tag="fb")
    stats = CostCounters()
    rng = SEED.child("fb-r").generator()
    draws = 20_000
    counts = np.zeros(5)
    for i in range(1, draws + 1):
        _, pid = seq.sample_once(q, (i % 200) + 1, rng, stats)
        counts[pid] += 1
    assert stats.empty_bucket_fallbacks == draws
    expected = draws / 5
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    # chi-square with 4 dof: mean 4, sd sqrt(8); 3-sigma acceptance
    assert chi2 <= 4 + 3 * math.sqrt(8.0)


def test_sampling_dominance_empirical_and_exact():
    rng = SEED.child("dom").generator()
    ds = Dataset.from_bits(rng.integers(0, 2, size=(12, 8), dtype=np.uint8))
    q = _pack_bits(rng.integers(0, 2, size=(1, 8), dtype=np.uint8))[0]
    k_cat = 2
    scores, total, _ = enumerate_qq_bitsampling(ds, q, k_cat)
    d = ds.distances_to(q)
    nn = int(np.flatnonzero(d == d.min()).min())
    assert all(scores[nn] >= scores[x] for x in range(12))
    # live sampler agrees with the enumeration within 3 sigma
    seq = TableSequence(ds, BitSampling(8), k_cat, 20_000, SEED.child("dom-seq"))
    stats = CostCounters()
    draws = 20_000
    counts = np.zeros(12)
    for i in range(1, draws + 1):
        _, pid = seq.sample_once(q, i, rng, stats)
        counts[pid] += 1
    freq = counts / draws
    exact = np.array([float(s) / total for s in scores])
    tol = 3 * np.sqrt(exact * (1 - exact) / draws) + 3.0 / draws
    assert (np.abs(freq - exact) <= tol).all()


def test_query_nn_duplicate_terminates_in_t_plus_one():
    bits = np.vstack([np.ones((1, 8), dtype=np.uint8), np.zeros((4, 8), dtype=np.uint8)])
    ds = Dataset.from_bits(bits)
    seq = make_seq(ds, k_cat=3, tag="dup")
    res = seq.query_nn(ds.point(0), delta=0.25, seed=SEED.child("dup-q"))
    assert res.point == 0 and res.confirmed
    assert res.stats.buckets_opened == res.t + 1


def test_query_nn_planted_recall_and_work():
    spec = InstanceSpec("planted-nn", n=100, dim=32, n_queries=2000, seed=13,
                        planted_distance=1, shell_min_distance=8)
    inst = generate(spec)
    fam = BitSampling(32)
    k_cat = 10
    seq = TableSequence(inst.dataset, fam, k_cat, 2048, SEED.child("pl"))
    p1 = fam.collision_probability(1) ** k_cat
    t = 3  # delta = 1/8
    hits = 0
    tables = np.empty(inst.queries.n)
    for k in range(inst.queries.n):
        r = seq.query_nn(inst.query(k), 1 / 8, SEED.child("pl-q", k))
        hits += int(r.point == inst.ground_truth[k])
        tables[k] = r.stats.buckets_opened
    recall = hits / inst.queries.n
    assert recall >= (1 - 2**-t) - 3 * math.sqrt(2**-t * (1 - 2**-t) / inst.queries.n)
    bound = (t + 1) / p1
    se = tables.std(ddof=1) / math.sqrt(inst.queries.n)
    assert tables.mean() <= bound + 3 * se


def test_query_nn_exhaustion_flag():
    rng = SEED.child("exh").generator()
    ds = Dataset.from_bits(rng.integers(0, 2, size=(64, 16), dtype=np.uint8))
    q = _pack_bits(rng.integers(0, 2, size=(1, 16), dtype=np.uint8))[0]
    seq = make_seq(ds, k_cat=2, l_max=2, tag="exh")
    res = seq.query_nn(q, delta=1e-6, seed=SEED.child("exh-q"))  # t = 20
    assert not res.confirmed
    assert res.stats.buckets_opened == 2
    assert 0 <= res.point < 64
    with pytest.raises(SequenceExhausted):
        seq.sample_once(q, 3, SEED.child("x").generator(), CostCounters())


def test_budgeted_immediate_when_p1_is_one():
    bits = np.tile(np.array([[1, 0, 1, 0, 1, 0, 1, 0]], dtype=np.uint8), (6, 1))
    ds = Dataset.from_bits(bits)
    seq = make_seq(ds, k_cat=2, tag="bud")
    res = seq.query_nn_budgeted(ds.point(0), delta=0.25, L=8, seed=SEED.child("bud-q"))
    assert res.confirmed and res.point == 0
    assert res.stats.buckets_opened == res.t + 1  # first round suffices


@pytest.mark.parametrize("k_cat", [0, 65])
def test_a_k_cat_outside_one_to_64_is_refused(k_cat):
    # a table value is one unsigned word of k_cat bits
    with pytest.raises(ValueError):
        make_seq(Dataset.from_bits(np.eye(8, dtype=np.uint8)), k_cat=k_cat)


@pytest.mark.parametrize("L", [0, -3, 9])
def test_budgeted_rejects_a_table_count_outside_one_to_l_max(L):
    ds = Dataset.from_bits(np.eye(8, dtype=np.uint8))
    seq = make_seq(ds, k_cat=2, l_max=8, tag="bud-L")
    with pytest.raises(ValueError):
        seq.query_nn_budgeted(ds.point(0), delta=0.25, L=L)
    assert seq._tables == {}  # refused before any table was built


def test_table_values_use_the_width_k_cat_needs():
    ds = Dataset.from_bits(np.eye(40, dtype=np.uint8))
    for k_cat, width in ((8, np.uint8), (9, np.uint16), (17, np.uint32), (33, np.uint64)):
        tab = make_seq(ds, k_cat=k_cat, tag="width").table(1)
        assert tab.values.dtype == width and tab.order.dtype == np.int64


def test_budgeted_recall_on_planted():
    spec = InstanceSpec("planted-nn", n=256, dim=32, n_queries=1500, seed=19,
                        planted_distance=1, shell_min_distance=8)
    inst = generate(spec)
    L = 64
    log2n = math.ceil(math.log2(inst.dataset.n))
    delta = 1 / (8 * log2n)
    seq = TableSequence(inst.dataset, BitSampling(32), 10, L, SEED.child("bud2"))
    hits = 0
    for k in range(inst.queries.n):
        r = seq.query_nn_budgeted(inst.query(k), delta, L, SEED.child("bud2-q", k))
        hits += int(r.point == inst.ground_truth[k])
    target = 1 - delta * log2n
    assert hits / inst.queries.n >= target - 3 * math.sqrt(target * (1 - target) / inst.queries.n)


def test_default_k_cat_reasonable():
    rng = SEED.child("kc").generator()
    ds = Dataset.from_bits(rng.integers(0, 2, size=(256, 32), dtype=np.uint8))
    k = default_k_cat(ds, BitSampling(32), SEED.child("kc-s"))
    assert 1 <= k <= 64
    # expected bucket size at the chosen width is at most ~1
    seq = TableSequence(ds, BitSampling(32), None, 16, SEED.child("kc-seq"))
    assert seq.k_cat == k
