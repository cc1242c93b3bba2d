"""Monotone locality-sensitive hash families.

Two families ship, both with exact analytic collision probabilities and
single-bit hash values:

* ``BitSampling``  -- Hamming metric; a member is a uniformly drawn coordinate
  index and hashes a point to that bit. Collision probability 1 - d/dim.
* ``SignRandomProjection`` -- Angular metric; a member is a standard-normal
  direction and hashes a point to the sign of the inner product. Collision
  probability 1 - theta/pi.

A member is a parameter row, from sampling to the oracle: ``sample_params``
draws the K members of one tree or table as one array (row k for level
k + 1), the (K,) coordinates for bit sampling or the (K, dim) directions for
sign random projection. ``query_string`` hashes one point against all K rows
in one call; ``pack_strings`` hashes every dataset point, one member column
at a time. Both pack the K bits into an integer with level 1 in the most
significant bit, so a level-i prefix is ``value >> (K - i)``. ``HashSpec``
wraps one row as the one-bit reference that the oracle and the tests
compare against; no structure holds one.
"""

from __future__ import annotations

import numpy as np

from .core import Dataset, Metric, RngSeed


class LshFamily:
    """Base class: a seeded, monotone family over one metric and dimension."""

    kind: str
    metric: Metric

    def __init__(self, dim: int):
        if dim <= 0:
            raise ValueError("dimension must be positive")
        self.dim = dim

    def _draw(self, rng: np.random.Generator):
        raise NotImplementedError

    def sample_params(self, seed: RngSeed, K: int) -> np.ndarray:
        """The parameters of K members, row k for level k + 1, each drawn
        from its ("level", k) child seed."""
        return np.array([self._draw(seed.child("level", k).generator()) for k in range(K)])

    def query_string(self, params: np.ndarray, x) -> int:
        """Hash one raw point with every row of ``params``: its K-bit string,
        level 1 most significant."""
        raise NotImplementedError

    def collision_probability(self, d) -> float:
        return float(self.collision_probability_many(np.array([d]))[0])

    def collision_probability_many(self, d: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def check_compatible(self, dataset: Dataset) -> None:
        if dataset.metric is not self.metric:
            raise ValueError(
                f"{self.kind} family requires the {self.metric.value} metric"
            )
        if dataset.dim != self.dim:
            raise ValueError("family/dataset dimension mismatch")


class HashSpec:
    """One member of a family (a parameter row) as a reference hash."""

    __slots__ = ("family", "param")

    def __init__(self, family: LshFamily, param):
        self.family = family
        self.param = param

    def evaluate(self, x) -> int:
        """Hash a single raw point (packed words or float row) to a bit."""
        return self.family._evaluate_one(self.param, x)


class BitSampling(LshFamily):
    kind = "bit-sampling"
    metric = Metric.HAMMING

    def _draw(self, rng: np.random.Generator) -> int:
        return int(rng.integers(self.dim))

    def _evaluate_one(self, idx: int, x) -> int:
        words = np.asarray(x, dtype=np.uint64)
        if words.shape != ((self.dim + 63) // 64,):
            raise ValueError("dimension mismatch")
        return int((words[idx // 64] >> np.uint64(idx % 64)) & np.uint64(1))

    def _evaluate_all(self, idx: int, dataset: Dataset) -> np.ndarray:
        return (dataset.words[:, idx // 64] >> np.uint64(idx % 64)) & np.uint64(1)

    def query_string(self, coords: np.ndarray, x) -> int:
        words = np.asarray(x, dtype=np.uint64)
        if words.shape != ((self.dim + 63) // 64,):
            raise ValueError("dimension mismatch")
        # Coordinate c is bit c of the words read as one little-endian integer.
        v = int.from_bytes(words.astype("<u8", copy=False).tobytes(), "little")
        s = 0
        for c in coords.tolist():
            s = (s << 1) | ((v >> c) & 1)
        return s

    def collision_probability_many(self, d: np.ndarray) -> np.ndarray:
        d = np.asarray(d, dtype=np.float64)
        if (d < 0).any() or (d > self.dim).any():
            raise ValueError(f"Hamming distance out of range [0, {self.dim}]")
        return 1.0 - d / self.dim


class SignRandomProjection(LshFamily):
    kind = "sign-random-projection"
    metric = Metric.ANGULAR

    def _draw(self, rng: np.random.Generator) -> np.ndarray:
        return rng.standard_normal(self.dim)

    def _evaluate_one(self, direction: np.ndarray, x) -> int:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.dim,):
            raise ValueError("dimension mismatch")
        return 1 if float(x @ direction) >= 0.0 else 0

    def _evaluate_all(self, direction: np.ndarray, dataset: Dataset) -> np.ndarray:
        return (dataset.reals @ direction >= 0.0).astype(np.uint64)

    def query_string(self, directions: np.ndarray, x) -> int:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.dim,):
            raise ValueError("dimension mismatch")
        bits = directions @ x >= 0.0
        # packbits fills bytes from the most significant bit and pads the
        # last byte with zeros on the right.
        return int.from_bytes(np.packbits(bits).tobytes(), "big") >> (-len(bits) % 8)

    def collision_probability_many(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=np.float64)
        if (theta < -1e-12).any() or (theta > np.pi + 1e-12).any():
            raise ValueError("angle out of range [0, pi]")
        return 1.0 - np.clip(theta, 0.0, np.pi) / np.pi


def family_for_metric(metric: Metric, dim: int) -> LshFamily:
    if metric is Metric.HAMMING:
        return BitSampling(dim)
    if metric is Metric.ANGULAR:
        return SignRandomProjection(dim)
    raise ValueError(f"no shipped family for the {metric.value} metric")


def pack_strings(family: LshFamily, params: np.ndarray, dataset: Dataset) -> np.ndarray:
    """Packed hash strings for every dataset point under the K member rows
    ``params``, as uint64 (K <= 64)."""
    k = len(params)
    if k > 64:
        raise ValueError("packed strings support at most 64 levels")
    family.check_compatible(dataset)
    out = np.zeros(dataset.n, dtype=np.uint64)
    for lvl, param in enumerate(params):
        out |= family._evaluate_all(param, dataset) << np.uint64(k - 1 - lvl)
    return out
