"""A lazily built sequence of independent LSH hash tables and exact
nearest-neighbor search over it by confirmation sampling.

Table i hashes every point with a fresh K_cat-fold concatenation and keeps
the values sorted, so the bucket of a value is its full-width prefix range.
One draw inspects q's bucket in the next table and returns the bucket's
order-minimum, or a uniformly random point when the bucket is empty, so the
nearest neighbor is always at least as likely to be drawn as any other point.
``query_nn`` runs ``confirmation_sampling`` with t = ceil(log2(1/delta)) over
the lazy draws from tables 1, 2, ..., so it returns the exact nearest
neighbor with probability at least 1 - delta using about (t + 1)/p1 tables
in expectation; ``query_nn_budgeted`` runs it once per budget on tables 1..L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .confirmation import confirmation_sampling
from .core import CostCounters, Dataset, Metric, RngSeed, distance, order_minimum, uniform_draw
from .families import LshFamily, pack_strings
from .forest import prefix_range, sort_strings


class SequenceExhausted(RuntimeError):
    """Raised when a query needs more tables than the configured maximum."""


class HashTable:
    """One table: its K_cat concatenated members as one parameter array, the
    sorted values and the point order beside them."""

    __slots__ = ("params", "values", "order")

    def __init__(self, family: LshFamily, params: np.ndarray, dataset: Dataset):
        self.params = params
        self.order, self.values = sort_strings(pack_strings(family, params, dataset), len(params))

    def bucket_ids(self, value: int) -> np.ndarray:
        """Ids of the points whose concatenated value equals ``value``."""
        k = len(self.params)
        lo, hi = prefix_range(memoryview(self.values), value, k, k)
        return self.order[lo:hi]


@dataclass
class NnResult:
    point: int
    stats: CostCounters
    confirmed: bool
    t: int


class TableSequence:
    """Lazily grown sequence of hash tables over one dataset.

    Table i is seeded from the ("table", i) child of the master seed, so it
    is identical no matter when it is materialized. ``k_cat`` defaults to the
    smallest width whose estimated expected bucket size is at most one.
    """

    def __init__(self, dataset: Dataset, family: LshFamily, k_cat: int | None,
                 l_max: int, seed: RngSeed):
        if l_max < 1:
            raise ValueError("l_max must be >= 1")
        family.check_compatible(dataset)
        self.dataset = dataset
        self.family = family
        self.l_max = l_max
        self.seed = seed
        if k_cat is None:
            k_cat = default_k_cat(dataset, family, seed)
        if not 1 <= k_cat <= 64:
            raise ValueError(f"k_cat must lie in [1, 64], not {k_cat}")
        self.k_cat = k_cat
        self._tables: dict[int, HashTable] = {}

    def table(self, i: int) -> HashTable:
        """Materialize (or fetch) table i, 1-indexed."""
        if i < 1:
            raise ValueError("table indices start at 1")
        if i > self.l_max:
            raise SequenceExhausted(f"table {i} exceeds l_max={self.l_max}")
        tab = self._tables.get(i)
        if tab is None:
            params = self.family.sample_params(self.seed.child("table", i), self.k_cat)
            tab = HashTable(self.family, params, self.dataset)
            self._tables[i] = tab
        return tab

    def sample_once(self, q, i: int, rng: np.random.Generator,
                    counters: CostCounters, max_candidates: int | None = None):
        """One draw from the sampling distribution using table i.

        Returns (distance, point id). A nonempty bucket yields its unique
        order-minimum (inspecting at most ``max_candidates`` members, in
        stored order, when a budget is given); an empty bucket yields a
        uniformly random point, which costs one distance computation. Every
        draw opens one bucket and costs k_cat hash evaluations.
        """
        tab = self.table(i)
        value = self.family.query_string(tab.params, q)
        counters.hash_evaluations += self.k_cat
        counters.buckets_opened += 1
        ids = tab.bucket_ids(value)
        if len(ids) == 0:
            counters.empty_bucket_fallbacks += 1
            counters.collisions_inspected += 1
            return uniform_draw(self.dataset, q, rng)
        if max_candidates is not None and len(ids) > max_candidates:
            ids = ids[:max_candidates]
        counters.collisions_inspected += len(ids)
        return order_minimum(self.dataset, q, ids)

    def _start(self, seq_q, delta: float, seed: RngSeed | None):
        """Check delta and the query; return t, q, the fallback stream, counters."""
        if not 0 < delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        t = max(1, math.ceil(math.log2(1.0 / delta)))
        q = self.dataset.check_query(seq_q)
        return t, q, (seed or self.seed.child("query")).generator(), CostCounters()

    def query_nn(self, seq_q, delta: float, seed: RngSeed | None = None) -> NnResult:
        """Exact NN search: confirmation sampling with a fresh table per draw.
        If the sequence runs out before t confirmations, the best point seen
        is returned with ``confirmed=False``."""
        t, q, rng, counters = self._start(seq_q, delta, seed)
        res = confirmation_sampling(
            (self.sample_once(q, i, rng, counters) for i in range(1, self.l_max + 1)), t)
        return NnResult(res.element[1], counters, not res.exhausted, t)  # l_max >= 1 draws

    def query_nn_budgeted(self, seq_q, delta: float, L: int,
                          seed: RngSeed | None = None) -> NnResult:
        """Fixed-table variant: rounds r = 1..ceil(log2 n) re-run confirmation
        sampling over tables 1..L with a per-table candidate budget of 2**r,
        stopping at the first confirmed round. Failure probability grows to
        at most delta * ceil(log2 n)."""
        t, q, rng, counters = self._start(seq_q, delta, seed)
        if not 1 <= L <= self.l_max:
            raise ValueError(f"L must lie in [1, l_max={self.l_max}]")
        rounds = max(1, math.ceil(math.log2(max(2, self.dataset.n))))
        best = None  # the minimum over every round's tracked minimum
        for r in range(1, rounds + 1):
            res = confirmation_sampling(
                (self.sample_once(q, i, rng, counters, max_candidates=2**r)
                 for i in range(1, L + 1)), t)
            if not res.exhausted:
                return NnResult(res.element[1], counters, True, t)
            best = res.element if best is None else min(best, res.element)
        return NnResult(best[1], counters, False, t)


def default_k_cat(dataset: Dataset, family: LshFamily, seed: RngSeed) -> int:
    """Smallest concatenation width, at most 64, whose expected bucket size,
    estimated from 256 sampled data-to-data distances, is at most one."""
    rng = seed.child("k-cat").generator()
    m = min(256, dataset.n * (dataset.n - 1) // 2 or 1)
    a = rng.integers(dataset.n, size=m)
    b = rng.integers(dataset.n, size=m)
    keep = a != b
    if not keep.any():
        return 1
    a, b = a[keep], b[keep]
    if dataset.metric is Metric.HAMMING:
        d = np.bitwise_count(dataset.words[a] ^ dataset.words[b]).sum(axis=1)
    else:
        d = np.array([distance(dataset.metric, dataset.reals[x], dataset.reals[y])
                      for x, y in zip(a, b)])
    p = family.collision_probability_many(d)
    for k in range(1, 65):
        if dataset.n * float(np.mean(p**k)) <= 1.0:
            return k
    return 64

