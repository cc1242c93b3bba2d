import dataclasses
import math

import numpy as np
import pytest

from cslsh import adaptive
from cslsh.adaptive import (
    AdaptiveConfig,
    ForestEnsemble,
    _QueryState,
    adaptive_nearest_neighbor,
    bottom_up_phase,
    build_ensemble,
    choose_level,
    ensemble_from_bytes,
    ensemble_to_bytes,
    forests_for,
    run_level_pair,
    trees_per_forest,
)
from cslsh.core import Dataset, RngSeed, _pack_bits, order_minimum, uniform_draw
from cslsh.families import BitSampling, family_for_metric
from cslsh.forest import build_forest
from cslsh.oracle import static_level_choice, natural_algorithm
from cslsh.data import InstanceSpec, generate

SEED = RngSeed(31337)


def hamming_set(rng, n, dim):
    return Dataset.from_bits(rng.integers(0, 2, size=(n, dim), dtype=np.uint8))


def build(ds, K=8, l_prime=4, config=AdaptiveConfig(), tag="ens"):
    R = forests_for(ds.n, config)
    return build_ensemble(
        ds, BitSampling(ds.dim), K, R * l_prime, SEED.child(tag), config, l_prime=l_prime
    )


def test_ensemble_shape():
    rng = SEED.child("shape").generator()
    ds = hamming_set(rng, 100, 16)
    ens = build(ds)
    assert ens.R == math.ceil(8 * math.log(100))
    assert ens.l_prime == 4
    assert ens.forest.L == ens.R * 4 and ens.forest.seed == ens.seed
    assert len(ens.forests) == ens.R
    assert all(f.L == 4 and f.K == 8 for f in ens.forests)
    with pytest.raises(ValueError):
        build_ensemble(ds, BitSampling(16), 8, 64, SEED, l_prime=3)


def test_forests_are_views_of_the_stacked_rows():
    rng = SEED.child("views").generator()
    ds = hamming_set(rng, 60, 16)
    ens = build(ds, K=8, l_prime=4, tag="views")
    q = _pack_bits(rng.integers(0, 2, size=(1, 16), dtype=np.uint8))[0]
    for r, forest in enumerate(ens.forests):
        assert forest.L == 4 and forest.seed == ens.seed
        for name in ("params", "order", "strings"):
            assert np.shares_memory(getattr(forest, name), getattr(ens.forest, name))
        for tau in range(4):
            for i in range(9):
                assert np.array_equal(forest.bucket(tau + 1, i, q),
                                      ens.forest.bucket(r * 4 + tau + 1, i, q))


@pytest.mark.parametrize("K, family", [(0, BitSampling(16)), (65, BitSampling(16)),
                                       (8, BitSampling(17))])
def test_build_ensemble_refuses_a_bad_shape_or_family(K, family):
    ds = hamming_set(SEED.child("bad-shape").generator(), 20, 16)
    with pytest.raises(ValueError):
        build_ensemble(ds, family, K, 8, SEED, AdaptiveConfig(c_forests=1.0), l_prime=2)


@pytest.mark.parametrize("K", [0, 65])
@pytest.mark.parametrize("builder", [build_ensemble, build_forest])
def test_a_bad_k_is_refused_before_any_sampling(monkeypatch, builder, K):
    ds = hamming_set(SEED.child("bad-k").generator(), 20, 16)
    calls = []
    monkeypatch.setattr(BitSampling, "sample_params", lambda *args: calls.append(args))
    with pytest.raises(ValueError):
        builder(ds, BitSampling(16), K, 8, SEED)
    assert calls == []


@pytest.mark.parametrize("L", [0, -4])
def test_build_ensemble_rejects_fewer_than_one_tree(L):
    ds = hamming_set(SEED.child("no-trees").generator(), 20, 16)
    with pytest.raises(ValueError):
        build_ensemble(ds, BitSampling(16), 8, L, SEED)


def test_trees_per_forest_power_of_two():
    assert trees_per_forest(512, 45) == 8
    assert trees_per_forest(100, 45) == 2
    assert trees_per_forest(10, 45) == 1


def test_single_point_dataset():
    ds = Dataset.from_bits(np.array([[1, 0, 1, 0, 1, 0, 1, 0]], dtype=np.uint8))
    ens = build(ds, K=4, l_prime=2, tag="one")
    res = adaptive_nearest_neighbor(ens, ds.point(0), SEED.child("one-q"))
    assert res.point == 0


@pytest.mark.parametrize("R, terminated, phase", [
    (4, (1, 0), "for-loop"),    # ceil(4/4) = 1
    (8, (1, 1), "bottom-up"),   # the per-level quorum is 2, not pooled
    (8, (0, 2), "for-loop"),
    (8, (2, 1), "for-loop"),
], ids=["R4-hi1", "R8-hi1-lo1-not-pooled", "R8-lo2", "R8-hi2-lo1"])
def test_quorum_is_per_level_not_pooled(monkeypatch, R, terminated, phase):
    # one tree per forest, so a missed quorum at j = 1 falls to the sweep
    ds = hamming_set(SEED.child("quorum").generator(), 16, 8)
    ens = ForestEnsemble(build_forest(ds, BitSampling(8), 4, R, SEED.child("quorum-f")), 1,
                         AdaptiveConfig())
    monkeypatch.setattr(adaptive, "run_level_pair", lambda state, i, j: terminated)
    monkeypatch.setattr(adaptive, "bottom_up_phase", lambda state, start_level: 0)
    res = adaptive_nearest_neighbor(ens, ds.point(0), SEED.child("quorum-q"))
    assert (ens.R, res.phase) == (R, phase)


def test_choose_level_trivial_cases():
    # all points identical and maximally far: zero collisions at level 1
    far = Dataset.from_packed(
        np.tile(_pack_bits(np.ones((1, 8), dtype=np.uint8)), (32, 1)), 8
    )
    q = _pack_bits(np.zeros((1, 8), dtype=np.uint8))[0]
    ens = build(far, K=4, l_prime=4, tag="far")
    state = _QueryState(ens, q, SEED.child("far-q"))
    assert choose_level(state, 1) == 1
    # all points equal to q and n > 10 * K * L': no level qualifies, fall to K
    K, lp = 4, 4
    eq = Dataset.from_packed(
        np.tile(_pack_bits(np.zeros((1, 8), dtype=np.uint8)), (256, 1)), 8
    )
    assert eq.n > 10 * K * lp
    ens2 = build(eq, K=K, l_prime=lp, tag="eq")
    state2 = _QueryState(ens2, q, SEED.child("eq-q"))
    assert choose_level(state2, lp) == K


def test_run_level_pair_certain_confirmation():
    # p1 = 1 with small buckets: every forest terminates at j = 4 (t = 3);
    # four 8-point buckets stay within the 10 * i * j = 40 collision cap
    eq = Dataset.from_packed(
        np.tile(_pack_bits(np.zeros((1, 8), dtype=np.uint8)), (8, 1)), 8
    )
    q = eq.point(0)
    ens = build(eq, K=4, l_prime=4, tag="cert")
    state = _QueryState(ens, q, SEED.child("cert-q"))
    terminated_hi, _ = run_level_pair(state, 1, 4)
    assert terminated_hi == ens.R
    assert state.best_point() == 0


def test_run_level_pair_budget_exhaustion():
    # bucket size n = 200 exceeds the cap 10 * i * j = 10: no samples land
    eq = Dataset.from_packed(
        np.tile(_pack_bits(np.zeros((1, 8), dtype=np.uint8)), (200, 1)), 8
    )
    q = eq.point(0)
    ens = build(eq, K=4, l_prime=4, tag="exh")
    state = _QueryState(ens, q, SEED.child("exh-q"))
    assert run_level_pair(state, 1, 1) == (0, 0)
    # the partial scans still feed the global best
    assert state.best_point() == 0


def test_work_cap_accounting():
    rng = SEED.child("cap").generator()
    ds = hamming_set(rng, 128, 16)
    q = _pack_bits(rng.integers(0, 2, size=(1, 16), dtype=np.uint8))[0]
    config = AdaptiveConfig()
    ens = build(ds, K=8, l_prime=4, config=config, tag="cap")
    for j in (1, 2, 4):
        state = _QueryState(ens, q, SEED.child("cap-q", j))
        i = choose_level(state, j)
        before = state.counters.collisions_inspected
        run_level_pair(state, i, j)
        spent = state.counters.collisions_inspected - before
        # two instances per forest, each capped at 10 * i * j (+1 for a final
        # fallback draw at the boundary)
        assert spent <= ens.R * 2 * (config.collision_cap * i * j + 1)


def test_level_scan_cost_contract():
    # the top-down scan costs O(i * j) node visits and hash evals per forest
    rng = SEED.child("scan").generator()
    ds = hamming_set(rng, 512, 16)
    q = _pack_bits(rng.integers(0, 2, size=(1, 16), dtype=np.uint8))[0]
    ens = build(ds, K=12, l_prime=8, tag="scan")
    for j in (1, 2, 4, 8):
        state = _QueryState(ens, q, SEED.child("scan-q", j))
        i = choose_level(state, j)
        assert state.counters.nodes_visited <= ens.R * j * (i + 2)
        assert state.counters.hash_evaluations <= ens.R * j * i


def test_bottom_up_terminates_at_level_zero():
    # adversarial: every bucket empty at every level (far duplicates), tiny
    # forests; the sweep must reach level 0 and stop there deterministically
    far = Dataset.from_packed(
        np.tile(_pack_bits(np.ones((1, 8), dtype=np.uint8)), (8, 1)), 8
    )
    q = _pack_bits(np.zeros((1, 8), dtype=np.uint8))[0]
    config = AdaptiveConfig(c_forests=2.0)
    ens = build(far, K=4, l_prime=2, config=config, tag="bu")
    state = _QueryState(ens, q, SEED.child("bu-q"))
    level = bottom_up_phase(state, 3)
    assert level >= 0
    assert state.best_point() == 0  # smallest id among the equidistant points
    # one bucket per run per round: L' rounds at each level above 0, t + 1 at 0
    assert state.counters.buckets_opened <= ens.R * (ens.l_prime * 3 + config.t + 1)


def test_bottom_up_bucket_bound_on_a_sweep_to_level_zero(monkeypatch):
    # every query of this instance starts its sweep at level 2 and ends at 0
    inst = generate(InstanceSpec("uniform-hamming", 128, 16, 6, 22))
    ds = inst.dataset
    ens = build_ensemble(ds, family_for_metric(ds.metric, ds.dim), 12, 1,
                         RngSeed(22).child("golden"), l_prime=2)
    sweeps = []

    def measured(state, start_level):
        before = state.counters.buckets_opened
        level = bottom_up_phase(state, start_level)
        sweeps.append((start_level, level, state.counters.buckets_opened - before))
        return level

    monkeypatch.setattr(adaptive, "bottom_up_phase", measured)
    for k in range(inst.queries.n):
        adaptive_nearest_neighbor(ens, inst.query(k))
    assert [(s, level) for s, level, _ in sweeps] == [(2, 0)] * inst.queries.n
    t = ens.config.t
    for s, _, opened in sweeps:
        # levels 2 and 1 run their L' rounds in full; level 0 ends at round t + 1
        assert opened == ens.R * (ens.l_prime * s + t + 1)


def test_lock_step_fairness():
    rng = SEED.child("fair").generator()
    ds = hamming_set(rng, 256, 16)
    q = _pack_bits(rng.integers(0, 2, size=(1, 16), dtype=np.uint8))[0]
    ens = build(ds, K=12, l_prime=4, tag="fair")
    res = adaptive_nearest_neighbor(ens, q, SEED.child("fair-q"))
    assert res.rounds_spread == 0


def test_distance_zero_queries():
    spec = InstanceSpec("uniform-hamming", n=256, dim=32, n_queries=60, seed=3,
                        queries_from_data=True)
    inst = generate(spec)
    ens = build_ensemble(
        inst.dataset, BitSampling(32), 16,
        forests_for(256, AdaptiveConfig()) * 8,
        SEED.child("d0"), l_prime=8,
    )
    hits = 0
    for k in range(60):
        res = adaptive_nearest_neighbor(ens, inst.query(k), SEED.child("d0-q", k))
        hits += int(res.point == inst.ground_truth[k])
    assert hits == 60


def test_determinism():
    rng = SEED.child("det").generator()
    ds = hamming_set(rng, 128, 16)
    q = _pack_bits(rng.integers(0, 2, size=(1, 16), dtype=np.uint8))[0]
    a = adaptive_nearest_neighbor(build(ds, tag="det"), q, SEED.child("det-q"))
    b = adaptive_nearest_neighbor(build(ds, tag="det"), q, SEED.child("det-q"))
    assert a.point == b.point
    assert a.counters.as_dict() == b.counters.as_dict()
    assert (a.level, a.phase) == (b.level, b.phase)


def test_separation_small():
    # tiny version of the adversarial-cluster separation
    spec = InstanceSpec("dense-cluster", n=256, dim=64, n_queries=80, seed=5,
                        cluster_size=128, cluster_distance=8, shell_flips=32)
    inst = generate(spec)
    config = AdaptiveConfig()
    ens = build_ensemble(
        inst.dataset, BitSampling(64), 40, forests_for(256, config) * 8,
        SEED.child("sep"), config, l_prime=8,
    )
    adaptive_hits = 0
    natural_hits = 0
    f0 = ens.forests[0]
    for k in range(80):
        q = inst.query(k)
        res = adaptive_nearest_neighbor(ens, q, SEED.child("sep-q", k))
        adaptive_hits += int(res.point == inst.ground_truth[k])
        i0 = static_level_choice(f0, q, 8.0)
        pid, _ = natural_algorithm(f0, q, i0, f0.L)
        natural_hits += int(pid == inst.ground_truth[k])
    assert adaptive_hits >= 78
    assert natural_hits <= 8  # the static level sheds the whole cluster


def test_ensemble_serialization_round_trip():
    rng = SEED.child("ser").generator()
    ds = hamming_set(rng, 64, 16)
    ens = build(ds, K=6, l_prime=2, tag="ser")
    blob = ensemble_to_bytes(ens)
    loaded = ensemble_from_bytes(blob, ds)
    assert loaded.R == ens.R and loaded.l_prime == ens.l_prime and loaded.K == ens.K
    assert ensemble_to_bytes(loaded) == blob
    assert loaded.seed == ens.seed
    for stack in (ens.forest, loaded.forest):
        for r in range(ens.R):
            for j in range(ens.l_prime):
                want = BitSampling(16).sample_params(SEED.child("ser").child("forest", r)
                                                     .child("tree", j), 6)
                assert np.array_equal(stack.params[r * ens.l_prime + j], want)
    q = _pack_bits(rng.integers(0, 2, size=(1, 16), dtype=np.uint8))[0]
    a = adaptive_nearest_neighbor(ens, q, SEED.child("ser-q"))
    b = adaptive_nearest_neighbor(loaded, q, SEED.child("ser-q"))
    assert a.point == b.point and a.counters.as_dict() == b.counters.as_dict()


def test_adaptive_on_angular_data():
    from cslsh.families import SignRandomProjection

    spec = InstanceSpec("gaussian-angular", n=128, dim=12, n_queries=40, seed=9)
    inst = generate(spec)
    config = AdaptiveConfig()
    ens = build_ensemble(
        inst.dataset, SignRandomProjection(12), 12,
        forests_for(128, config) * 4, SEED.child("ang"), config, l_prime=4,
    )
    hits = 0
    for k in range(40):
        res = adaptive_nearest_neighbor(ens, inst.query(k), SEED.child("ang-q", k))
        hits += int(res.point == inst.ground_truth[k])
    assert hits >= 38


@pytest.mark.parametrize("kind, dim, K", [("planted-nn", 32, 16), ("gaussian-angular", 64, 32)])
def test_query_computes_each_distance_once(monkeypatch, kind, dim, K):
    inst = generate(InstanceSpec(kind, n=256, dim=dim, n_queries=2, seed=21))
    ds = inst.dataset
    ens = build_ensemble(ds, family_for_metric(ds.metric, dim), K, 1,
                         SEED.child("memo"), l_prime=8)
    untraced = [adaptive_nearest_neighbor(ens, inst.query(k), SEED.child("memo-q", k))
                for k in range(2)]
    computed, inspected = [], []
    distances_to = Dataset.distances_to

    def counting_distances(dataset, q, ids=None):
        computed.append(np.arange(dataset.n) if ids is None else np.asarray(ids))
        return distances_to(dataset, q, ids)

    def counting_minimum(dataset, q, ids, memo):
        inspected.append(len(ids))
        return order_minimum(dataset, q, ids, memo)

    def counting_draw(dataset, q, rng, memo):
        inspected.append(1)
        return uniform_draw(dataset, q, rng, memo)

    monkeypatch.setattr(Dataset, "distances_to", counting_distances)
    monkeypatch.setattr(adaptive, "order_minimum", counting_minimum)
    monkeypatch.setattr(adaptive, "uniform_draw", counting_draw)
    for k, want in enumerate(untraced):
        computed.clear()
        inspected.clear()
        res = adaptive_nearest_neighbor(ens, inst.query(k), SEED.child("memo-q", k))
        assert (res.point, res.counters) == (want.point, want.counters)
        assert res.point == inst.ground_truth[k]
        # every inspection is still charged, but no point is computed twice
        assert res.counters.collisions_inspected == sum(inspected)
        ids = np.concatenate(computed)
        assert len(np.unique(ids)) == len(ids) <= ds.n
        assert sum(inspected) > len(ids)


@pytest.mark.parametrize("field, value", [
    ("t", 0), ("c_forests", -3.0), ("c_forests", 0.0), ("c_forests", math.inf),
    ("c_forests", math.nan), ("collision_cap", 0), ("terminate_quorum", 0.0),
    ("terminate_quorum", 1.5), ("terminate_quorum", math.nan), ("t", 2.5), ("t", 2**32),
    ("collision_cap", 10.0), ("collision_cap", 2**32),
])
def test_config_rejects_out_of_range_values(field, value):
    with pytest.raises(ValueError):
        AdaptiveConfig(**{field: value})


def test_config_has_no_advance_quorum():
    # every search consumes its last tree in the same lock-step round, so a
    # quorum for dropping a level would change nothing
    assert len(dataclasses.fields(AdaptiveConfig)) == 4
    with pytest.raises(TypeError):
        AdaptiveConfig(advance_quorum=0.5)


def test_empty_bucket_fallbacks_count_uniform_draws(monkeypatch):
    # q differs from every point in every coordinate, so each bucket at a
    # level above 0 is empty and the level pair falls back to uniform draws
    ds = Dataset.from_bits(np.zeros((20, 16), dtype=np.uint8))
    q = _pack_bits(np.ones((1, 16), dtype=np.uint8))[0]
    ens = build(ds, tag="fallbacks")
    draws = []

    def counting_draw(dataset, q, rng, memo):
        draws.append(1)
        return uniform_draw(dataset, q, rng, memo)

    monkeypatch.setattr(adaptive, "uniform_draw", counting_draw)
    res = adaptive_nearest_neighbor(ens, q, SEED.child("fallbacks-q"))
    assert res.counters.empty_bucket_fallbacks == len(draws) > 0
