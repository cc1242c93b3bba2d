import struct

import numpy as np
import pytest

from cslsh.core import Metric
from cslsh.data import (
    FormatError,
    InstanceSpec,
    generate,
    load_bvecs,
    load_csv,
    load_fvecs,
    load_instance,
    save_bvecs,
    save_fvecs,
    save_instance,
)
from cslsh.oracle import brute_force_nn


def test_fvecs_single_record(tmp_path):
    path = tmp_path / "one.fvecs"
    path.write_bytes(struct.pack("<i", 2) + struct.pack("<2f", 1.0, 2.0))
    arr = load_fvecs(str(path))
    assert arr.shape == (1, 2)
    assert arr[0].tolist() == [1.0, 2.0]


def test_fvecs_empty_file(tmp_path):
    path = tmp_path / "empty.fvecs"
    path.write_bytes(b"")
    with pytest.raises(FormatError, match="empty"):
        load_fvecs(str(path))


def test_fvecs_truncated_names_offset(tmp_path):
    good = struct.pack("<i", 2) + struct.pack("<2f", 1.0, 2.0)
    path = tmp_path / "trunc.fvecs"
    path.write_bytes(good + good[:7])
    with pytest.raises(FormatError, match="byte offset 12"):
        load_fvecs(str(path))


def test_fvecs_inconsistent_dimension(tmp_path):
    rec1 = struct.pack("<i", 2) + struct.pack("<2f", 1.0, 2.0)
    rec2 = struct.pack("<i", 3) + struct.pack("<2f", 1.0, 2.0)  # lies about d
    path = tmp_path / "bad.fvecs"
    path.write_bytes(rec1 + rec2)
    with pytest.raises(FormatError, match="inconsistent dimension at byte offset 12"):
        load_fvecs(str(path))


def test_fvecs_nonpositive_dimension(tmp_path):
    path = tmp_path / "neg.fvecs"
    path.write_bytes(struct.pack("<i", -1))
    with pytest.raises(FormatError, match="non-positive"):
        load_fvecs(str(path))


def test_vecs_round_trips(tmp_path):
    rng = np.random.default_rng(2)
    fv = rng.standard_normal((13, 7)).astype(np.float32)
    fpath = tmp_path / "r.fvecs"
    save_fvecs(str(fpath), fv)
    assert np.array_equal(load_fvecs(str(fpath)).astype(np.float32), fv)
    bv = rng.integers(0, 256, size=(9, 5)).astype(np.uint8)
    bpath = tmp_path / "r.bvecs"
    save_bvecs(str(bpath), bv)
    assert np.array_equal(load_bvecs(str(bpath)), bv)
    # write-then-read again is byte-identical
    save_bvecs(str(tmp_path / "r2.bvecs"), load_bvecs(str(bpath)))
    assert (tmp_path / "r2.bvecs").read_bytes() == bpath.read_bytes()


def test_csv_basics(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("0,1\n1,0\n")
    ds = load_csv(str(path), Metric.HAMMING)
    assert ds.n == 2 and ds.dim == 2
    assert ds.distances_to(ds.point(0))[1] == 2


def test_csv_errors(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("0,1\n1\n")
    with pytest.raises(FormatError, match="row 1"):
        load_csv(str(ragged), Metric.HAMMING)
    alpha = tmp_path / "alpha.csv"
    alpha.write_text("0,1\n1,x\n")
    with pytest.raises(FormatError, match="row 1"):
        load_csv(str(alpha), Metric.HAMMING)
    with pytest.raises(FormatError):
        load_csv(str(tmp_path / "ragged.csv"), Metric.EUCLIDEAN)  # still ragged
    huge = tmp_path / "huge.csv"
    huge.write_text("0," + "1" * 200_000 + "\n")  # past the csv module's field limit
    with pytest.raises(FormatError, match="malformed CSV"):
        load_csv(str(huge), Metric.HAMMING)


def test_csv_and_fvecs_agree(tmp_path):
    rng = np.random.default_rng(4)
    vals = rng.standard_normal((6, 3)).astype(np.float32)
    fpath = tmp_path / "same.fvecs"
    cpath = tmp_path / "same.csv"
    save_fvecs(str(fpath), vals)
    cpath.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in vals))
    from cslsh.data import dataset_from_array

    a = dataset_from_array(load_fvecs(str(fpath)), Metric.EUCLIDEAN)
    b = load_csv(str(cpath), Metric.EUCLIDEAN)
    assert np.array_equal(a.reals, b.reals)


def test_planted_instance_ground_truth():
    spec = InstanceSpec("planted-nn", n=100, dim=32, n_queries=40, seed=6,
                        planted_distance=1, shell_min_distance=8)
    inst = generate(spec)
    assert (inst.ground_truth == 0).all()
    for k in range(10):
        assert inst.dataset.distances_to(inst.query(k))[0] == 1
        assert brute_force_nn(inst.dataset, inst.query(k)) == 0


def test_generation_is_deterministic():
    spec = InstanceSpec("uniform-hamming", n=30, dim=16, n_queries=5, seed=8)
    a, b = generate(spec), generate(spec)
    assert np.array_equal(a.dataset.words, b.dataset.words)
    assert np.array_equal(a.queries.words, b.queries.words)
    assert np.array_equal(a.ground_truth, b.ground_truth)


def test_dense_cluster_geometry():
    spec = InstanceSpec("dense-cluster", n=256, dim=64, n_queries=25, seed=10,
                        cluster_size=128, cluster_distance=8, shell_flips=32)
    inst = generate(spec)
    # cluster members are identical, so they share every hash bucket
    assert (inst.dataset.words[:128] == inst.dataset.words[0]).all()
    for k in range(10):
        d = inst.dataset.distances_to(inst.query(k))
        assert d[0] == 8
        assert (d[:128] == 8).all()
        assert d[128:].min() >= 8
        assert inst.ground_truth[k] == 0


def test_distance_zero_instance():
    spec = InstanceSpec("uniform-hamming", n=64, dim=16, n_queries=20, seed=12,
                        queries_from_data=True)
    inst = generate(spec)
    for k in range(20):
        assert inst.dataset.distances_to(inst.query(k)).min() == 0


def test_gaussian_angular_instance():
    spec = InstanceSpec("gaussian-angular", n=50, dim=8, n_queries=10, seed=14)
    inst = generate(spec)
    assert np.allclose(np.linalg.norm(inst.dataset.reals, axis=1), 1.0)
    assert inst.ground_truth.shape == (10,)
    assert brute_force_nn(inst.dataset, inst.query(3)) == inst.ground_truth[3]


def test_generator_parameter_validation():
    with pytest.raises(ValueError):
        generate(InstanceSpec("planted-nn", n=10, dim=32, n_queries=2, seed=1,
                              planted_distance=8, shell_min_distance=8))
    with pytest.raises(ValueError):
        generate(InstanceSpec("dense-cluster", n=100, dim=64, n_queries=2, seed=1,
                              cluster_size=128))
    with pytest.raises(ValueError):
        generate(InstanceSpec("dense-cluster", n=256, dim=64, n_queries=2, seed=1,
                              cluster_size=16, cluster_distance=20, shell_flips=16))
    with pytest.raises(ValueError):
        generate(InstanceSpec("nope", n=4, dim=4, n_queries=1, seed=0))


def test_instance_save_load_round_trip(tmp_path):
    spec = InstanceSpec("planted-nn", n=40, dim=16, n_queries=8, seed=16,
                        planted_distance=1, shell_min_distance=6)
    inst = generate(spec)
    prefix = str(tmp_path / "inst")
    save_instance(inst, prefix)
    back = load_instance(prefix, Metric.HAMMING)
    assert np.array_equal(back.dataset.words, inst.dataset.words)
    assert np.array_equal(back.queries.words, inst.queries.words)
    assert np.array_equal(back.ground_truth, inst.ground_truth)
