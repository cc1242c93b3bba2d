"""Datasets, metrics, the order-minimum kernel, and seeded random streams.

Points are either fixed-width bit vectors (packed into 64-bit words, used with
the Hamming metric) or dense real vectors (Euclidean / Angular). All query
algorithms break distance ties by point id, which makes the order over points
strict and total and keeps every result reproducible: ``order_minimum`` is
the one (distance, id) minimum they all take. ``distance`` is the scalar
two-point reference; a random stream is ``RngSeed.child(tag, i).generator()``.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import asdict, dataclass, field

import numpy as np


class FormatError(ValueError):
    """Malformed external input: files, serialized payloads, configs."""


class Metric(enum.Enum):
    HAMMING = "hamming"
    EUCLIDEAN = "euclidean"
    ANGULAR = "angular"


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a boolean/0-1 matrix (n, dim) into uint64 words, coordinate k at
    bit k % 64 of word k // 64."""
    bits = np.asarray(bits)
    if bits.ndim != 2:
        raise ValueError("expected a 2-d array of bits")
    n, dim = bits.shape
    if not np.isin(bits, (0, 1)).all():
        raise ValueError("bit vectors must contain only 0 and 1")
    nwords = (dim + 63) // 64
    words = np.zeros((n, nwords), dtype=np.uint64)
    u = bits.astype(np.uint64)
    for w in range(nwords):
        chunk = u[:, 64 * w : min(64 * (w + 1), dim)]
        shifts = np.arange(chunk.shape[1], dtype=np.uint64)
        words[:, w] = (chunk << shifts).sum(axis=1, dtype=np.uint64)
    return words


def _padding_mask(dim: int) -> int:
    """The bits of a point's last packed word that lie beyond ``dim``."""
    return (1 << 64) - (1 << (dim % 64)) if dim % 64 else 0


def _unpack_bits(words: np.ndarray, dim: int) -> np.ndarray:
    n = words.shape[0]
    out = np.zeros((n, dim), dtype=np.uint8)
    for k in range(dim):
        out[:, k] = (words[:, k // 64] >> np.uint64(k % 64)) & np.uint64(1)
    return out


class Dataset:
    """An immutable indexed point set with a metric.

    Hamming datasets store packed bit words; Euclidean/Angular datasets store
    float64 rows. Point ids are the dense range [0, n).
    """

    __slots__ = ("metric", "dim", "n", "words", "reals", "_norms")

    def __init__(self, metric: Metric, dim: int, *, words=None, reals=None):
        if dim <= 0:
            raise ValueError("dimension must be positive")
        self.metric = metric
        self.dim = dim
        if metric is Metric.HAMMING:
            if words is None:
                raise ValueError("Hamming datasets require packed bit vectors")
            self.words = np.ascontiguousarray(words, dtype=np.uint64)
            self.reals = None
            if self.words.ndim != 2 or self.words.shape[1] != (dim + 63) // 64:
                raise ValueError("packed bit vectors need ceil(dim / 64) words per point")
            if (self.words[:, -1] & np.uint64(_padding_mask(dim))).any():
                raise ValueError("packed bit vectors have bits set beyond the dimension")
            self.n = self.words.shape[0]
        else:
            if reals is None:
                raise ValueError(f"{metric.value} datasets require real vectors")
            self.reals = np.ascontiguousarray(reals, dtype=np.float64)
            self.words = None
            if self.reals.ndim != 2:
                raise ValueError("real vectors must be a 2-d (n, dim) array")
            self.n = self.reals.shape[0]
            if self.reals.shape[1] != dim:
                raise ValueError("dimension mismatch")
            if not np.isfinite(self.reals).all():
                raise ValueError("real vectors must be finite (no NaN or inf)")
        if self.n < 1:
            raise ValueError("dataset must contain at least one point")
        self._norms = None
        if metric is Metric.ANGULAR:
            self._norms = np.linalg.norm(self.reals, axis=1)
            if (self._norms == 0).any():
                raise ValueError("angular metric requires nonzero vectors")

    @classmethod
    def from_bits(cls, bits: np.ndarray) -> "Dataset":
        words = _pack_bits(bits)  # rejects any shape but (n, dim)
        return cls(Metric.HAMMING, np.shape(bits)[1], words=words)

    @classmethod
    def from_packed(cls, words: np.ndarray, dim: int) -> "Dataset":
        return cls(Metric.HAMMING, dim, words=words)

    @classmethod
    def from_reals(cls, reals: np.ndarray, metric: Metric) -> "Dataset":
        if metric is Metric.HAMMING:
            return cls.from_bits(np.asarray(reals))
        reals = np.asarray(reals, dtype=np.float64)
        # the constructor rejects any shape but (n, dim)
        return cls(metric, reals.shape[-1] if reals.ndim else 1, reals=reals)

    def point(self, i: int) -> np.ndarray:
        """Raw representation of point i: packed words or a float row."""
        if self.metric is Metric.HAMMING:
            return self.words[i]
        return self.reals[i]

    def bits(self) -> np.ndarray:
        """Unpacked (n, dim) 0/1 matrix; Hamming only."""
        if self.metric is not Metric.HAMMING:
            raise ValueError("bits() is only defined for Hamming datasets")
        return _unpack_bits(self.words, self.dim)

    def check_query(self, q: np.ndarray) -> np.ndarray:
        """Validate a query's representation against this dataset."""
        q = np.asarray(q)
        if self.metric is Metric.HAMMING:
            if q.dtype != np.uint64 or q.shape != (self.words.shape[1],):
                raise ValueError("query must be packed uint64 words of matching width")
            if int(q[-1]) & _padding_mask(self.dim):
                raise ValueError("query has bits set beyond the dimension")
            return q
        if q.shape != (self.dim,):
            raise ValueError("dimension mismatch")
        q = q.astype(np.float64, copy=False)
        if not np.isfinite(q).all():
            raise ValueError("query must be finite (no NaN or inf)")
        return q

    def distances_to(self, q: np.ndarray, ids=None) -> np.ndarray:
        """Distances from q to the given ids (all points when ids is None)."""
        if self.metric is Metric.HAMMING:
            if self.words.shape[1] == 1:  # one word per point: no row sum
                rows = self.words[:, 0] if ids is None else self.words[:, 0][ids]
                return np.bitwise_count(rows ^ q[0]).astype(np.int64)
            rows = self.words if ids is None else self.words[ids]
            return np.bitwise_count(rows ^ q).sum(axis=1).astype(np.int64)
        rows = self.reals if ids is None else self.reals[ids]
        if self.metric is Metric.EUCLIDEAN:
            return np.linalg.norm(rows - q, axis=1)
        norms = self._norms if ids is None else self._norms[ids]
        qn = np.linalg.norm(q)
        if qn == 0:
            raise ValueError("angular metric requires a nonzero query")
        # Row by row, never ``rows @ q``: BLAS rounds a row differently with
        # the number of rows it scans, and a point's key must not depend on
        # the bucket it was found in.
        cos = np.einsum("ij,j->i", rows, q) / (norms * qn)
        return np.arccos(np.clip(cos, -1.0, 1.0))


def distance(metric: Metric, x: np.ndarray, y: np.ndarray) -> float:
    """Distance between two raw points: differing-coordinate count (Hamming,
    on packed words), L2 norm, or the angle in radians."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape:
        raise ValueError("dimension mismatch")
    if metric is Metric.HAMMING:
        return int(np.bitwise_count(x.astype(np.uint64) ^ y.astype(np.uint64)).sum())
    if metric is Metric.EUCLIDEAN:
        return float(np.linalg.norm(x.astype(np.float64) - y.astype(np.float64)))
    nx = np.linalg.norm(x)
    ny = np.linalg.norm(y)
    if nx == 0 or ny == 0:
        raise ValueError("angular metric requires nonzero vectors")
    cos = float(np.dot(x, y) / (nx * ny))
    return float(np.arccos(min(1.0, max(-1.0, cos))))


# Below this many ids the single-word Hamming minimum is a Python loop over
# the words as ints; a numpy kernel call costs more than the loop there.
SMALL_BUCKET = 32


def order_minimum(dataset: Dataset, q: np.ndarray, ids=None, memo=None) -> tuple:
    """The (distance, id) order-minimum of q over the given nonempty id array,
    or over all points when ids is None. Every query takes its minima here.

    ``memo`` is a query's length-n distance array, -1 where a distance is not
    yet known: only the ids it does not know are computed, and their distances
    are stored in it. It needs an id array.
    """
    if memo is not None:
        d = memo[ids]
        fresh = ids[d < 0]
        if len(fresh):
            memo[fresh] = dataset.distances_to(q, fresh)
            d = memo[ids]
    elif (ids is not None and len(ids) < SMALL_BUCKET
            and dataset.metric is Metric.HAMMING and dataset.words.shape[1] == 1):
        qw = int(q[0])
        return min(((w ^ qw).bit_count(), pid)
                   for w, pid in zip(dataset.words[:, 0][ids].tolist(), ids.tolist()))
    else:
        d = dataset.distances_to(q, ids)
    if ids is None:
        pos = int(np.argmin(d))  # the first minimum: ties go to the smallest id
        return d[pos].item(), pos
    if d.dtype.kind == "i":
        pos = int(np.argmin(d * dataset.n + ids))
    else:
        pos = int(np.lexsort((ids, d))[0])
    return d[pos].item(), int(ids[pos])


def uniform_draw(dataset: Dataset, q: np.ndarray, rng: np.random.Generator,
                 memo=None) -> tuple:
    """The empty-bucket fallback draw: the (distance, id) key of a uniformly
    random point, one distance computation (none when ``memo`` knows it)."""
    return order_minimum(dataset, q, np.array([rng.integers(dataset.n)]), memo)


@dataclass
class CostCounters:
    """Work-unit accounting shared by every query algorithm.

    A work unit is one hash evaluation or one candidate distance computation
    (a collision inspected). Buckets opened (one per table draw or forest
    bucket inspected, fallbacks included), trie node visits and empty-bucket
    fallbacks are tracked for cost-contract checks, outside the work currency.
    """

    hash_evaluations: int = 0
    collisions_inspected: int = 0
    buckets_opened: int = 0
    nodes_visited: int = 0
    empty_bucket_fallbacks: int = 0

    @property
    def total_work(self) -> int:
        return self.hash_evaluations + self.collisions_inspected

    def as_dict(self) -> dict:
        return {**asdict(self), "total_work": self.total_work}


_TAG_CACHE: dict[str, int] = {}


def _tag_hash(tag: str) -> int:
    h = _TAG_CACHE.get(tag)
    if h is None:
        h = int.from_bytes(hashlib.sha256(tag.encode()).digest()[:8], "little")
        _TAG_CACHE[tag] = h
    return h


@dataclass(frozen=True)
class RngSeed:
    """A master seed plus a derivation path of (scope tag, index) pairs.

    The stream for a path is seeded with the entropy sequence
    [master, sha256(tag_1)[:8], index_1, sha256(tag_2)[:8], index_2, ...],
    so equal paths replay identical streams and distinct paths are
    independent for all practical purposes.
    """

    master: int
    path: tuple[tuple[str, int], ...] = field(default=())

    def child(self, tag: str, index: int = 0) -> "RngSeed":
        if index < 0:
            raise ValueError("derivation index must be nonnegative")
        return RngSeed(self.master, self.path + ((tag, index),))

    def entropy(self) -> list[int]:
        ent = [self.master & 0xFFFFFFFFFFFFFFFF]
        for tag, idx in self.path:
            ent.append(_tag_hash(tag))
            ent.append(idx)
        return ent

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.entropy())))
