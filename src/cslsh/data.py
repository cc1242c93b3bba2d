"""Dataset loading (fvecs/bvecs/CSV) and synthetic instance generators.

The binary formats follow the standard ANN-benchmark layout: repeated
records of a 4-byte little-endian dimension prefix followed by the payload
(float32 values for fvecs, single bytes for bvecs). Loaders reject malformed
input, naming the offending byte offset or row, instead of truncating.

Generators produce (dataset, query set, ground truth) triples used across
the test and benchmark suites; ground truth is always recomputed by brute
force at generation time.
"""

from __future__ import annotations

import csv as _csv
import struct
from dataclasses import dataclass

import numpy as np

from .core import Dataset, FormatError, Metric, RngSeed, _pack_bits, order_minimum


def load_fvecs(path: str) -> np.ndarray:
    """Float32 vectors as an (n, dim) float array."""
    with open(path, "rb") as fh:
        raw = fh.read()
    return _parse_vecs(raw, 4, np.dtype("<f4")).astype(np.float64)


def load_bvecs(path: str) -> np.ndarray:
    """Byte vectors as an (n, dim) uint8 array."""
    with open(path, "rb") as fh:
        raw = fh.read()
    return _parse_vecs(raw, 1, np.dtype("<u1"))


def _parse_vecs(raw: bytes, width: int, dtype: np.dtype) -> np.ndarray:
    if len(raw) == 0:
        raise FormatError("empty file")
    if len(raw) < 4:
        raise FormatError("truncated record at byte offset 0")
    (dim,) = struct.unpack_from("<i", raw, 0)
    if dim <= 0:
        raise FormatError(f"non-positive dimension {dim} at byte offset 0")
    rec = 4 + width * dim
    n, tail = divmod(len(raw), rec)
    if tail:
        raise FormatError(f"truncated record at byte offset {n * rec}")
    dims = np.frombuffer(raw, dtype="<i4")[:: rec // 4] if rec % 4 == 0 else None
    if dims is not None:
        bad = np.flatnonzero(dims != dim)
        if bad.size:
            raise FormatError(
                f"inconsistent dimension at byte offset {int(bad[0]) * rec}"
            )
    else:
        for k in range(n):
            (d,) = struct.unpack_from("<i", raw, k * rec)
            if d != dim:
                raise FormatError(f"inconsistent dimension at byte offset {k * rec}")
    body = np.ascontiguousarray(np.frombuffer(raw, dtype=np.uint8).reshape(n, rec)[:, 4:])
    return body.view(dtype).reshape(n, dim).copy()


def save_fvecs(path: str, vecs: np.ndarray) -> None:
    vecs = np.asarray(vecs, dtype="<f4")
    n, dim = vecs.shape
    with open(path, "wb") as fh:
        for row in vecs:
            fh.write(struct.pack("<i", dim))
            fh.write(row.tobytes())


def save_bvecs(path: str, vecs: np.ndarray) -> None:
    vecs = np.asarray(vecs, dtype="<u1")
    n, dim = vecs.shape
    with open(path, "wb") as fh:
        for row in vecs:
            fh.write(struct.pack("<i", dim))
            fh.write(row.tobytes())


def dataset_from_array(values: np.ndarray, metric: Metric) -> Dataset:
    """Build a dataset, packing to bit vectors under the Hamming metric
    (values must then be 0/1)."""
    if metric is Metric.HAMMING:
        values = np.asarray(values)
        if not np.isin(values, (0, 1)).all():
            raise FormatError("Hamming datasets require 0/1 coordinates")
        return Dataset.from_bits(values.astype(np.uint8))
    return Dataset.from_reals(np.asarray(values, dtype=np.float64), metric)


def load_dataset(path: str, metric: Metric) -> Dataset:
    if path.endswith(".fvecs"):
        return dataset_from_array(load_fvecs(path), metric)
    if path.endswith(".bvecs"):
        return dataset_from_array(load_bvecs(path), metric)
    if path.endswith(".csv"):
        return load_csv(path, metric)
    raise FormatError(f"unrecognized dataset extension: {path}")


def _csv_rows(path: str) -> list[list[str]]:
    """The rows of a CSV file; a line the csv module rejects (a NUL byte
    before Python 3.11, an oversized field) is a FormatError."""
    with open(path, newline="") as fh:
        try:
            return list(_csv.reader(fh))
        except _csv.Error as exc:
            raise FormatError(f"malformed CSV: {exc}") from None


def load_csv(path: str, metric: Metric) -> Dataset:
    """Numeric CSV, one point per row; row order becomes point-id order."""
    rows: list[list[float]] = []
    width = None
    for rownum, row in enumerate(_csv_rows(path)):
        if not row:
            continue
        try:
            values = [float(cell) for cell in row]
        except ValueError:
            raise FormatError(f"non-numeric cell at row {rownum}") from None
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise FormatError(f"ragged row at row {rownum}")
        rows.append(values)
    if not rows:
        raise FormatError("empty file")
    return dataset_from_array(np.array(rows), metric)


# ---------------------------------------------------------------------------
# Synthetic instances.


@dataclass(frozen=True)
class InstanceSpec:
    """Parameters of a generated instance; deterministic in the seed."""

    kind: str                   # uniform-hamming | planted-nn | dense-cluster | gaussian-angular
    n: int
    dim: int
    n_queries: int
    seed: int
    planted_distance: int = 1   # planted-nn: query-to-planted distance
    shell_min_distance: int = 8  # planted-nn: minimum flips for shell points
    cluster_size: int = 128     # dense-cluster
    cluster_distance: int = 8   # dense-cluster: query-to-cluster distance
    cluster_radius: int = 0     # dense-cluster: intra-cluster flips
    shell_flips: int = 32       # dense-cluster: flips for background points
    queries_from_data: bool = False  # uniform-hamming: queries copy points


@dataclass
class Instance:
    spec: InstanceSpec
    dataset: Dataset
    queries: Dataset
    ground_truth: np.ndarray  # true NN id per query, by brute force

    def query(self, k: int):
        return self.queries.point(k)


def _flip_bits(words: np.ndarray, dim: int, flips: int, rng) -> np.ndarray:
    """Flip ``flips`` distinct random coordinates of a packed row."""
    out = words.copy()
    for k in rng.choice(dim, size=flips, replace=False):
        out[k // 64] ^= np.uint64(1) << np.uint64(k % 64)
    return out


def _brute_truth(dataset: Dataset, queries: Dataset) -> np.ndarray:
    return np.array([order_minimum(dataset, queries.point(k))[1] for k in range(queries.n)],
                    dtype=np.int64)


def generate(spec: InstanceSpec) -> Instance:
    if spec.n < 1 or spec.dim < 1 or spec.n_queries < 1:
        raise ValueError("n, dim and n_queries must be positive")
    root = RngSeed(spec.seed).child("instance")
    if spec.kind == "uniform-hamming":
        inst = _gen_uniform(spec, root)
    elif spec.kind == "planted-nn":
        inst = _gen_planted(spec, root)
    elif spec.kind == "dense-cluster":
        inst = _gen_cluster(spec, root)
    elif spec.kind == "gaussian-angular":
        inst = _gen_angular(spec, root)
    else:
        raise ValueError(f"unknown instance kind: {spec.kind}")
    return inst


def _gen_uniform(spec: InstanceSpec, root: RngSeed) -> Instance:
    rng = root.child("points").generator()
    bits = rng.integers(0, 2, size=(spec.n, spec.dim), dtype=np.uint8)
    dataset = Dataset.from_bits(bits)
    qrng = root.child("queries").generator()
    if spec.queries_from_data:
        picks = qrng.integers(spec.n, size=spec.n_queries)
        qwords = dataset.words[picks]
        queries = Dataset.from_packed(qwords.copy(), spec.dim)
    else:
        qbits = qrng.integers(0, 2, size=(spec.n_queries, spec.dim), dtype=np.uint8)
        queries = Dataset.from_bits(qbits)
    return Instance(spec, dataset, queries, _brute_truth(dataset, queries))


def _gen_planted(spec: InstanceSpec, root: RngSeed) -> Instance:
    if spec.planted_distance >= spec.shell_min_distance - 1:
        raise ValueError("planted distance must stay below the shell")
    if spec.shell_min_distance > spec.dim // 2:
        raise ValueError("shell distance too large for the dimension")
    rng = root.child("points").generator()
    center = _pack_bits(rng.integers(0, 2, size=(1, spec.dim), dtype=np.uint8))[0]
    words = np.empty((spec.n, center.shape[0]), dtype=np.uint64)
    words[0] = center  # the planted point, id 0
    hi = spec.dim // 2
    for i in range(1, spec.n):
        flips = int(rng.integers(spec.shell_min_distance, hi + 1))
        words[i] = _flip_bits(center, spec.dim, flips, rng)
    dataset = Dataset.from_packed(words, spec.dim)
    qrng = root.child("queries").generator()
    qwords = np.empty((spec.n_queries, center.shape[0]), dtype=np.uint64)
    for k in range(spec.n_queries):
        qwords[k] = _flip_bits(center, spec.dim, spec.planted_distance, qrng)
    queries = Dataset.from_packed(qwords, spec.dim)
    return Instance(spec, dataset, queries, _brute_truth(dataset, queries))


def _gen_cluster(spec: InstanceSpec, root: RngSeed) -> Instance:
    """A dense cluster of near-duplicates that shares hash buckets, far
    background points, and queries closest to the cluster.

    Queries sit ``cluster_distance`` flips from the cluster center and the
    background sits ``shell_flips`` away, so the nearest neighbor of every
    query is a cluster member (ties resolve to the smallest id). A static
    level deep enough to shed the cluster's collisions then cannot contain
    the nearest neighbor at all.
    """
    if spec.cluster_size >= spec.n:
        raise ValueError("cluster must be smaller than the dataset")
    if spec.shell_flips < 2 * spec.cluster_distance + 2 * spec.cluster_radius:
        raise ValueError("background points too close to the cluster")
    if spec.shell_flips > spec.dim // 2:
        raise ValueError("shell flips too large for the dimension")
    rng = root.child("points").generator()
    center = _pack_bits(rng.integers(0, 2, size=(1, spec.dim), dtype=np.uint8))[0]
    words = np.empty((spec.n, center.shape[0]), dtype=np.uint64)
    for i in range(spec.cluster_size):
        if spec.cluster_radius:
            flips = int(rng.integers(0, spec.cluster_radius + 1))
            words[i] = _flip_bits(center, spec.dim, flips, rng) if flips else center
        else:
            words[i] = center
    for i in range(spec.cluster_size, spec.n):
        words[i] = _flip_bits(center, spec.dim, spec.shell_flips, rng)
    dataset = Dataset.from_packed(words, spec.dim)
    qrng = root.child("queries").generator()
    qwords = np.empty((spec.n_queries, center.shape[0]), dtype=np.uint64)
    for k in range(spec.n_queries):
        qwords[k] = _flip_bits(center, spec.dim, spec.cluster_distance, qrng)
    queries = Dataset.from_packed(qwords, spec.dim)
    return Instance(spec, dataset, queries, _brute_truth(dataset, queries))


def _gen_angular(spec: InstanceSpec, root: RngSeed) -> Instance:
    rng = root.child("points").generator()
    pts = rng.standard_normal((spec.n, spec.dim))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    dataset = Dataset.from_reals(pts, Metric.ANGULAR)
    qrng = root.child("queries").generator()
    qs = qrng.standard_normal((spec.n_queries, spec.dim))
    qs /= np.linalg.norm(qs, axis=1, keepdims=True)
    queries = Dataset.from_reals(qs, Metric.ANGULAR)
    return Instance(spec, dataset, queries, _brute_truth(dataset, queries))


# ---------------------------------------------------------------------------
# Instance persistence: dataset file + query file + ground-truth CSV.


def save_instance(instance: Instance, prefix: str) -> dict:
    """Write dataset/query/ground-truth files and return their paths."""
    metric = instance.dataset.metric
    if metric is Metric.HAMMING:
        dpath, qpath = prefix + ".data.bvecs", prefix + ".queries.bvecs"
        save_bvecs(dpath, instance.dataset.bits())
        save_bvecs(qpath, instance.queries.bits())
    else:
        dpath, qpath = prefix + ".data.fvecs", prefix + ".queries.fvecs"
        save_fvecs(dpath, instance.dataset.reals)
        save_fvecs(qpath, instance.queries.reals)
    gpath = prefix + ".truth.csv"
    with open(gpath, "w", newline="") as fh:
        writer = _csv.writer(fh)
        for k, pid in enumerate(instance.ground_truth):
            writer.writerow([k, int(pid)])
    return {"data": dpath, "queries": qpath, "truth": gpath}


def load_instance(prefix: str, metric: Metric) -> Instance:
    if metric is Metric.HAMMING:
        dataset = load_dataset(prefix + ".data.bvecs", metric)
        queries = load_dataset(prefix + ".queries.bvecs", metric)
    else:
        dataset = load_dataset(prefix + ".data.fvecs", metric)
        queries = load_dataset(prefix + ".queries.fvecs", metric)
    truth = _load_truth(prefix + ".truth.csv", queries.n, dataset.n)
    spec = InstanceSpec("loaded", dataset.n, dataset.dim, queries.n, 0)
    return Instance(spec, dataset, queries, truth)


def _load_truth(path: str, n_queries: int, n: int) -> np.ndarray:
    """Ground-truth CSV: one ``query index, point id`` row per query, each
    query index in [0, n_queries) exactly once, each id in [0, n)."""
    truth = np.full(n_queries, -1, dtype=np.int64)
    for rownum, row in enumerate(_csv_rows(path)):
        if not row:
            continue
        if len(row) != 2:
            raise FormatError(f"truth row {rownum} must hold two cells")
        try:
            k, pid = int(row[0]), int(row[1])
        except ValueError:
            raise FormatError(f"non-numeric cell at truth row {rownum}") from None
        if not 0 <= k < n_queries:
            raise FormatError(f"query index {k} out of range at truth row {rownum}")
        if truth[k] >= 0:
            raise FormatError(f"duplicate query index {k} at truth row {rownum}")
        if not 0 <= pid < n:
            raise FormatError(f"truth id {pid} out of range at truth row {rownum}")
        truth[k] = pid
    missing = np.flatnonzero(truth < 0)
    if missing.size:
        raise FormatError(f"no truth row for query {int(missing[0])}")
    return truth
