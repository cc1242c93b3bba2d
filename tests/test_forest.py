import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cslsh import forest as forest_module
from cslsh.core import CostCounters, Dataset, Metric, RngSeed, _pack_bits
from cslsh.families import BitSampling, SignRandomProjection, pack_strings
from cslsh.forest import (
    FormatError,
    PrefixCursor,
    _seed_bytes,
    build_forest,
    expected_collisions,
    forest_from_bytes,
    forest_to_bytes,
    prefix_range,
)
from cslsh.oracle import naive_prefix_filter, naive_shortest_unique_prefix

SEED = RngSeed(404)


def random_instance(rng, n, dim):
    return Dataset.from_bits(rng.integers(0, 2, size=(n, dim), dtype=np.uint8))


def test_single_point_lives_at_the_root_and_is_always_found():
    ds = Dataset.from_bits(np.array([[1, 0, 1, 0]], dtype=np.uint8))
    forest = build_forest(ds, BitSampling(4), K=4, L=2, seed=SEED.child("single"))
    for j in range(forest.L):
        assert forest.stored_depth(j, 0) == 0  # the empty prefix is already unique
        for i in range(5):
            assert forest.bucket(j + 1, i, ds.point(0)).tolist() == [0]


def test_identical_points_share_a_depth_k_leaf():
    ds = Dataset.from_bits(np.tile(np.array([[1, 0, 1, 0]], dtype=np.uint8), (6, 1)))
    forest = build_forest(ds, BitSampling(4), K=3, L=2, seed=SEED.child("dup"))
    for j in range(forest.L):
        for pid in range(6):
            assert forest.stored_depth(j, pid) == 3
        assert sorted(forest.bucket(j + 1, 3, ds.point(0)).tolist()) == list(range(6))


def test_stored_depth_matches_naive_shortest_unique_prefix():
    rng = SEED.child("depth").generator()
    ds = random_instance(rng, 8, 8)
    forest = build_forest(ds, BitSampling(8), K=8, L=3, seed=SEED.child("depth-f"))
    for j in range(forest.L):
        row, order = forest.strings[j], forest.order[j]
        strings = [int(row[np.flatnonzero(order == pid)[0]]) for pid in range(8)]
        for pid in range(8):
            assert forest.stored_depth(j, pid) == naive_shortest_unique_prefix(strings, 8, pid)


@pytest.mark.parametrize("point_id", [-1, 8])
def test_stored_depth_rejects_an_id_outside_the_dataset(point_id):
    ds = random_instance(SEED.child("depth-id").generator(), 8, 8)
    forest = build_forest(ds, BitSampling(8), K=8, L=1, seed=SEED.child("depth-id-f"))
    with pytest.raises(ValueError):
        forest.stored_depth(0, point_id)


@pytest.mark.parametrize("j", [-1, 2])
def test_row_calls_reject_a_row_outside_the_forest(j):
    # rows are 0-based: j = -1 must not wrap round to the last tree
    ds = random_instance(SEED.child("row").generator(), 8, 8)
    forest = build_forest(ds, BitSampling(8), K=8, L=2, seed=SEED.child("row-f"))
    with pytest.raises(ValueError):
        forest.stored_depth(j, 0)


@pytest.mark.parametrize("K, width", [(1, np.uint8), (8, np.uint8), (9, np.uint16),
                                      (16, np.uint16), (17, np.uint32), (32, np.uint32),
                                      (33, np.uint64), (64, np.uint64)])
def test_rows_are_stacked_and_strings_use_the_width_k_needs(K, width):
    rng = SEED.child("width").generator()
    ds = random_instance(rng, 20, 70)
    forest = build_forest(ds, BitSampling(70), K=K, L=3, seed=SEED.child("width-f", K))
    assert forest.params.shape == (3, K)
    assert forest.order.shape == forest.strings.shape == (3, 20)
    assert forest.order.dtype == np.int64
    assert forest.strings.dtype == width
    for j in range(3):
        # row j holds tree j's strings, sorted, each the string of its point
        want = pack_strings(forest.family, forest.params[j], ds)
        assert np.array_equal(forest.strings[j], want[forest.order[j]])
        assert np.all(forest.strings[j][:-1] <= forest.strings[j][1:])


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 32), st.integers(4, 12), st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_bucket_equals_naive_filter(n, dim, K, seed):
    rng = np.random.default_rng(seed)
    ds = random_instance(rng, n, dim)
    forest = build_forest(ds, BitSampling(dim), K=K, L=2, seed=RngSeed(seed).child("f"))
    q = _pack_bits(rng.integers(0, 2, size=(1, dim), dtype=np.uint8))[0]
    for j in (1, 2):
        for i in range(K + 1):
            got = sorted(forest.bucket(j, i, q).tolist())
            want = naive_prefix_filter(forest.family, forest.params[j - 1], ds, q, i)
            assert got == sorted(want.tolist())
            assert forest.collision_count(j, i, q) == len(got)


def test_collision_counts_monotone_and_level0_full():
    rng = SEED.child("mono").generator()
    ds = random_instance(rng, 40, 10)
    forest = build_forest(ds, BitSampling(10), K=8, L=2, seed=SEED.child("mono-f"))
    q = _pack_bits(rng.integers(0, 2, size=(1, 10), dtype=np.uint8))[0]
    for j in (1, 2):
        assert forest.collision_count(j, 0, q) == 40
        counts = [forest.collision_count(j, i, q) for i in range(9)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_subtree_counts_partition_children():
    # the prefix ranges of p.0 and p.1 split the range of p at one point
    rng = SEED.child("part").generator()
    ds = random_instance(rng, 50, 8)
    K = 6
    forest = build_forest(ds, BitSampling(8), K=K, L=2, seed=SEED.child("part-f"))
    strings = forest.flat_strings
    for lo, hi in ((0, 50), (50, 100)):  # each row's bounds in the flat strings
        for width in range(K):
            for p in range(1 << width):
                start, end = prefix_range(strings, p, width, K, lo, hi)
                lo0, hi0 = prefix_range(strings, p << 1, width + 1, K, lo, hi)
                lo1, hi1 = prefix_range(strings, p << 1 | 1, width + 1, K, lo, hi)
                assert (lo0, hi0, hi1) == (start, lo1, end)
                assert (hi0 - lo0) + (hi1 - lo1) == end - start
        assert prefix_range(strings, 0, 0, K, lo, hi) == (lo, hi)


def test_cost_contract_node_visits():
    rng = SEED.child("cost").generator()
    ds = random_instance(rng, 64, 12)
    forest = build_forest(ds, BitSampling(12), K=10, L=1, seed=SEED.child("cost-f"))
    q = _pack_bits(rng.integers(0, 2, size=(1, 12), dtype=np.uint8))[0]
    for i in range(11):
        counters = CostCounters()
        forest.bucket(1, i, q, counters)
        assert counters.nodes_visited <= i + 1
        assert counters.hash_evaluations <= i


def test_enumeration_order_is_trie_then_id():
    # duplicates share a leaf; within the leaf the order is by id
    bits = np.vstack([np.zeros((3, 4), dtype=np.uint8), np.ones((2, 4), dtype=np.uint8)])
    ds = Dataset.from_bits(bits)
    forest = build_forest(ds, BitSampling(4), K=4, L=1, seed=SEED.child("ord"))
    ids = forest.bucket(1, 0, ds.point(0))
    leaves = [forest.stored_depth(0, p) for p in range(5)]
    assert leaves == [4, 4, 4, 4, 4]
    # the two duplicate groups each appear contiguously, ids ascending inside
    as_list = ids.tolist()
    assert sorted(as_list) == list(range(5))
    pos = {p: as_list.index(p) for p in range(5)}
    assert pos[0] < pos[1] < pos[2]
    assert pos[3] < pos[4]


def test_expected_collisions_closed_forms():
    rng = SEED.child("exp").generator()
    ds = random_instance(rng, 20, 8)
    fam = BitSampling(8)
    q = _pack_bits(rng.integers(0, 2, size=(1, 8), dtype=np.uint8))[0]
    assert expected_collisions(ds, fam, q, 0) == 20
    dup = Dataset.from_packed(np.tile(q, (7, 1)), 8)
    for i in range(4):
        assert expected_collisions(dup, fam, q, i) == pytest.approx(7.0)


def test_expected_collisions_monte_carlo_small():
    rng = SEED.child("mc").generator()
    ds = random_instance(rng, 16, 8)
    fam = BitSampling(8)
    q = _pack_bits(rng.integers(0, 2, size=(1, 8), dtype=np.uint8))[0]
    trees = 2000
    forest = build_forest(ds, fam, K=2, L=trees, seed=SEED.child("mc-f"))
    for i in (1, 2):
        counts = np.array([forest.collision_count(j, i, q) for j in range(1, trees + 1)], float)
        want = expected_collisions(ds, fam, q, i)
        se = counts.std(ddof=1) / np.sqrt(trees)
        assert abs(counts.mean() - want) <= 3 * se + 1e-2


def test_serialization_round_trip_and_rejection():
    rng = SEED.child("ser").generator()
    ds = random_instance(rng, 30, 16)
    forest = build_forest(ds, BitSampling(16), K=8, L=3, seed=SEED.child("ser-f"))
    blob = forest_to_bytes(forest)
    # deterministic build: same seed, same bytes
    again = build_forest(ds, BitSampling(16), K=8, L=3, seed=SEED.child("ser-f"))
    assert forest_to_bytes(again) == blob
    loaded = forest_from_bytes(blob, ds)
    q = _pack_bits(rng.integers(0, 2, size=(1, 16), dtype=np.uint8))[0]
    for j in (1, 2, 3):
        for i in range(9):
            assert (
                forest.bucket(j, i, q).tolist()
                == loaded.bucket(j, i, q).tolist()
            )
    with pytest.raises(FormatError):
        forest_from_bytes(b"JUNKJUNK" + blob[8:], ds)
    bad = bytearray(blob)
    bad[8] ^= 0xFF  # version word
    with pytest.raises(FormatError):
        forest_from_bytes(bytes(bad), ds)
    other = random_instance(rng, 31, 16)
    with pytest.raises(FormatError):
        forest_from_bytes(blob, other)


def test_serialization_srp_round_trip():
    rng = SEED.child("srp").generator()
    pts = rng.standard_normal((12, 5))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    ds = Dataset.from_reals(pts, Metric.ANGULAR)
    forest = build_forest(ds, SignRandomProjection(5), K=6, L=2, seed=SEED.child("srp-f"))
    loaded = forest_from_bytes(forest_to_bytes(forest), ds)
    q = rng.standard_normal(5)
    for j in (1, 2):
        for i in range(7):
            assert (
                forest.bucket(j, i, q).tolist()
                == loaded.bucket(j, i, q).tolist()
            )


@pytest.mark.parametrize("family", ["bit-sampling", "sign-projection"])
def test_loaded_trees_rehash_to_the_built_strings_and_order(family):
    # a payload holds only the members; load derives the rest through the
    # same constructor as build, and must arrive at the same arrays
    rng = SEED.child("rehash").generator()
    K, L = 12, 4
    if family == "bit-sampling":
        ds, fam, tree_bytes = random_instance(rng, 40, 24), BitSampling(24), 4 * K
    else:
        ds = Dataset.from_reals(rng.standard_normal((40, 6)), Metric.ANGULAR)
        fam, tree_bytes = SignRandomProjection(6), 8 * K * 6
    forest = build_forest(ds, fam, K=K, L=L, seed=SEED.child("rehash-f"))
    blob = forest_to_bytes(forest)
    header = 12 + struct.calcsize("<QIBBII")  # magic, version, shape
    assert len(blob) == header + len(_seed_bytes(forest.seed)) + L * tree_bytes
    loaded = forest_from_bytes(blob, ds)
    for name in ("params", "order", "strings"):
        built, again = getattr(forest, name), getattr(loaded, name)
        assert built.dtype == again.dtype and np.array_equal(built, again)


def test_build_validation():
    ds = Dataset.from_bits(np.zeros((2, 4), dtype=np.uint8))
    for K, L, family in [(0, 1, BitSampling(4)), (65, 1, BitSampling(4)),
                         (2, 0, BitSampling(4)), (2, 1, BitSampling(5)),
                         (2, 1, SignRandomProjection(4))]:
        with pytest.raises(ValueError):
            build_forest(ds, family, K=K, L=L, seed=SEED)
    forest = build_forest(ds, BitSampling(4), K=2, L=1, seed=SEED)
    with pytest.raises(ValueError):
        forest.bucket(1, 3, ds.point(0))


@pytest.mark.parametrize("j, i", [(0, 2), (-1, 2), (4, 2), (1, -1), (1, 9)])
@pytest.mark.parametrize("call", ["bucket", "collision_count"])
def test_tree_and_level_out_of_range(call, j, i):
    # trees are 1-indexed: j = 0 or -1 must not wrap round to the last trees
    rng = SEED.child("index").generator()
    ds = random_instance(rng, 40, 16)
    forest = build_forest(ds, BitSampling(16), K=8, L=3, seed=SEED.child("index-f"))
    with pytest.raises(ValueError):
        getattr(forest, call)(j, i, ds.point(0))


@pytest.mark.parametrize("i", [0, 4])
@pytest.mark.parametrize("q", [
    np.array([1.5]),                       # a float word
    np.array([1 << 20], dtype=np.uint64),  # a bit beyond dim 16
    np.zeros(2, dtype=np.uint64),          # two words for one
], ids=["float-word", "bit-beyond-dim", "wrong-width"])
@pytest.mark.parametrize("call", ["bucket", "collision_count"])
def test_static_calls_validate_the_query(call, q, i):
    rng = SEED.child("index").generator()
    ds = random_instance(rng, 40, 16)
    forest = build_forest(ds, BitSampling(16), K=8, L=3, seed=SEED.child("index-f"))
    with pytest.raises(ValueError):
        getattr(forest, call)(1, i, q)


def test_level_zero_is_the_whole_tree_and_walks_nothing():
    rng = SEED.child("zero").generator()
    ds = random_instance(rng, 40, 16)
    forest = build_forest(ds, BitSampling(16), K=8, L=3, seed=SEED.child("zero-f"))
    counters = CostCounters()
    for j in (1, 2, 3):
        assert forest.bucket(j, 0, ds.point(5), counters).tolist() == forest.order[j - 1].tolist()
        assert forest.collision_count(j, 0, ds.point(5), counters) == 40
    assert counters == CostCounters(buckets_opened=3)


def _reference_walk(strings: list[int], qs: int, K: int, i: int) -> tuple[list[int], int, int]:
    """(sorted positions of q's level-i bucket, hash evaluations, node visits)
    of a walk from the root to level i, derived from the definition: c[d] is
    the number of strings sharing q's length-d prefix, counted by a scan.
    Bit d is read when the level d-1 range holds a point: to step from an
    inner node, or to compare a single point's bit with q's. The level-d
    node is visited when it holds a point and its parent at least two."""
    c = [sum(1 for x in strings if x >> (K - d) == qs >> (K - d)) for d in range(K + 1)]
    bucket = [k for k, x in enumerate(strings) if x >> (K - i) == qs >> (K - i)]
    hashes = sum(1 for d in range(1, i + 1) if c[d - 1] >= 1)
    nodes = 1 + sum(1 for d in range(1, i + 1) if c[d - 1] >= 2 and c[d] >= 1)
    return bucket, hashes, nodes


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cursor_charges_match_the_reference_walk(data):
    dim = data.draw(st.integers(64, 80), label="dim")
    K = data.draw(st.sampled_from([1, 2, 5, 16, 63, 64]) | st.integers(1, 64), label="K")
    n = data.draw(st.integers(1, 24), label="n")
    pool = data.draw(st.integers(1, n), label="distinct rows")  # fewer means duplicates
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 2, size=(pool, dim), dtype=np.uint8)
    bits = rows[rng.integers(0, pool, size=n)]
    ds = Dataset.from_bits(bits)
    # a row j > 0 of a stacked forest, so a search past the row's bounds would show
    L = data.draw(st.integers(2, 4), label="L")
    j = data.draw(st.integers(1, L - 1), label="row")
    forest = build_forest(ds, BitSampling(dim), K=K, L=L, seed=RngSeed(seed).child("ref"))
    if data.draw(st.booleans(), label="near a point"):
        qbits = bits[int(rng.integers(n))].copy()
        qbits[rng.integers(0, dim, size=int(rng.integers(0, 4)))] ^= 1
    else:
        qbits = rng.integers(0, 2, size=dim, dtype=np.uint8)
    q = _pack_bits(qbits[None, :])[0]
    strings = [int(x) for x in forest.strings[j]]
    qs = forest.family.query_string(forest.params[j], q)
    counters = CostCounters()
    cursor = PrefixCursor(forest, j, q, counters)
    reach = 0
    levels = data.draw(st.lists(st.integers(0, K), min_size=1, max_size=10), label="levels")
    for i in levels:
        reach = max(reach, i)
        positions, _, walk_nodes = _reference_walk(strings, qs, K, i)
        want = forest.order[j][positions].tolist()
        assert cursor.bucket(i).tolist() == want
        _, hashes, nodes = _reference_walk(strings, qs, K, reach)
        assert (counters.hash_evaluations, counters.nodes_visited) == (hashes, nodes)
        # a static scan charges all i bits, and at level 0 walks nothing
        static = CostCounters()
        assert forest.bucket(j + 1, i, q, static).tolist() == want
        assert forest.collision_count(j + 1, i, q) == len(want)
        assert (static.hash_evaluations, static.nodes_visited) == ((i, walk_nodes) if i else (0, 0))


def _payload_cases():
    """(name, loader, dataset, malformed payload) for forests and ensembles."""
    from cslsh.adaptive import (
        ForestEnsemble, build_ensemble, ensemble_from_bytes, ensemble_to_bytes,
    )

    rng = SEED.child("malformed").generator()
    n, dim, K, L = 30, 16, 8, 3
    ds = random_instance(rng, n, dim)
    blob = forest_to_bytes(build_forest(ds, BitSampling(dim), K=K, L=L, seed=SEED.child("m")))
    tree0 = len(blob) - L * 4 * K  # K <u4 coordinates per tree

    def patched(base, off, fmt, value):
        out = bytearray(base)
        struct.pack_into(fmt, out, off, value)
        return bytes(out)

    forest_cases = {
        "forest-v1": patched(blob, 8, "<I", 1),
        "forest-v2": patched(blob, 8, "<I", 2),
        "forest-unknown-metric": patched(blob, 24, "<B", 7),
        "forest-unknown-family": patched(blob, 25, "<B", 7),
        "forest-family-metric-mismatch": patched(blob, 25, "<B", 1),
        "forest-K-zero": patched(blob, 26, "<I", 0),
        "forest-truncated-header": blob[:20],
        "forest-truncated-seed": blob[:40],
        "forest-truncated-tree": blob[:-1],
        "forest-trailing-bytes": blob + b"\0",
        "forest-coordinate-out-of-range": patched(blob, tree0, "<I", dim),
    }
    small = random_instance(rng, 12, 8)
    ensemble = build_ensemble(small, BitSampling(8), 4, 1, SEED.child("e"), l_prime=1)
    eblob = ensemble_to_bytes(ensemble)
    header = struct.calcsize("<IdIId")  # l_prime, c_forests, t, collision_cap, quorum
    forest1 = 12 + header  # the one forest payload of every tree
    config_at = {name: 12 + struct.calcsize("<" + fmt) for name, fmt in (
        ("c_forests", "I"), ("t", "Id"), ("collision_cap", "IdI"),
        ("terminate_quorum", "IdII"))}
    R = ensemble.R
    # forests of three trees each, written by the ensemble writer with l_prime = 3
    three = ForestEnsemble(build_forest(small, BitSampling(8), 4, 3 * R, ensemble.seed), 3,
                           ensemble.config)
    ensemble_cases = {
        "ensemble-v1-short-header": patched(eblob, 8, "<I", 1)[:12],
        "ensemble-v2": patched(eblob, 8, "<I", 2),
        "ensemble-v3": patched(eblob, 8, "<I", 3),
        "ensemble-v4": patched(eblob, 8, "<I", 4),
        "ensemble-inner-forest-v2": patched(eblob, forest1 + 8, "<I", 2),
        "ensemble-c-forests-negative": patched(eblob, config_at["c_forests"], "<d", -3.0),
        "ensemble-t-zero": patched(eblob, config_at["t"], "<I", 0),
        "ensemble-terminate-quorum-zero": patched(eblob, config_at["terminate_quorum"], "<d", 0.0),
        "ensemble-collision-cap-zero": patched(eblob, config_at["collision_cap"], "<I", 0),
        "ensemble-truncated-header": eblob[:30],
        "ensemble-truncated-forest": eblob[:-5],
        "ensemble-no-forests": patched(eblob, forest1 + 30, "<I", 0),
        "ensemble-l-prime-three": ensemble_to_bytes(three),
        "ensemble-l-prime-zero": patched(eblob, 12, "<I", 0),
        # twice R's lowest set bit is a power of two that does not divide R
        "ensemble-trees-not-a-multiple-of-l-prime": patched(eblob, 12, "<I", 2 * (R & -R)),
        "ensemble-unknown-family": patched(eblob, forest1 + 25, "<B", 9),
        "ensemble-inner-forest-v1": patched(eblob, forest1 + 8, "<I", 1),
        "ensemble-trailing-bytes": eblob + b"\0",
    }
    srng = SEED.child("malformed-srp").generator()
    angular = Dataset.from_reals(srng.standard_normal((10, 4)), Metric.ANGULAR)
    sblob = forest_to_bytes(build_forest(angular, SignRandomProjection(4), K=3, L=2,
                                         seed=SEED.child("s")))
    directions0 = len(sblob) - 2 * 8 * 3 * 4  # K * dim <f8 components per tree
    srp_cases = {
        "forest-nan-direction": patched(sblob, directions0 + 8, "<d", math.nan),
        "forest-infinite-direction": patched(sblob, directions0, "<d", -math.inf),
        "forest-overflowing-direction": patched(sblob, directions0 + 16, "<d", -1.7e308),
    }
    return ([(name, forest_from_bytes, ds, p) for name, p in forest_cases.items()]
            + [(name, forest_from_bytes, angular, p) for name, p in srp_cases.items()]
            + [(name, ensemble_from_bytes, small, p) for name, p in ensemble_cases.items()])


_PAYLOAD_CASES = _payload_cases()


@pytest.mark.parametrize("case", _PAYLOAD_CASES, ids=[c[0] for c in _PAYLOAD_CASES])
def test_malformed_payloads_raise_format_error(monkeypatch, case):
    _, loader, dataset, payload = case

    def no_hashing(*args):
        raise AssertionError("a malformed payload was hashed before it was refused")

    monkeypatch.setattr(forest_module, "pack_strings", no_hashing)
    with pytest.raises(FormatError):
        loader(payload, dataset)
