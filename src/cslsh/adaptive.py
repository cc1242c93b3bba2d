"""The fully adaptive, parameter-free LSH Forest query.

The query operates on R = Theta(log n) independent forests of L' trees each
(L' a power of two), held as the rows of one stacked ``Forest``: forest r is
rows r * L' ... (r + 1) * L' - 1, and its tree tau is row r * L' + tau. For
j = 1, 2, 4, ..., L' it measures collision counts top-down to find the
smallest level i at which the first j trees stay within a 10*i*j collision
budget in at least half of the forests, then runs budget-capped confirmation
sampling at levels i and i-1 in every forest. It reports the closest point
seen as soon as the sampling terminates in a quarter of the forests at
either level. If the tree budget runs out first, a bottom-up phase sweeps
the forests in lock-step, one tree per forest per round: a level lasts L'
rounds, after which every search has consumed its last tree, so the sweep
drops one level and restarts the sampling. Level 0 scans the whole dataset,
so every search there terminates within t + 1 rounds.

Nothing here ever evaluates a collision probability; the only structural
requirement is that the family's collision probability is non-increasing in
distance.
"""

from __future__ import annotations

import math
import numbers
import struct
from dataclasses import astuple, dataclass

import numpy as np

from .confirmation import CsState
from .core import (
    CostCounters, Dataset, FormatError, Metric, RngSeed, order_minimum, uniform_draw,
)
from .families import LshFamily
from .forest import (
    Forest, PayloadReader, PrefixCursor, check_shape, forest_to_bytes, read_forest_payload,
)
from .forest import build_forest  # unused here; perfbench/spans.py patches this binding


@dataclass(frozen=True)
class AdaptiveConfig:
    """Tunable constants; the defaults are the algorithm's own."""

    c_forests: float = 8.0        # R = max(1, ceil(c_forests * ln n))
    t: int = 3                    # confirmations per sampling instance
    collision_cap: int = 10       # budget multiplier: cap = collision_cap*i*j
    terminate_quorum: float = 0.25

    def __post_init__(self):
        for name in ("t", "collision_cap"):  # u4 fields of the ensemble format
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and 1 <= value < 2**32):
                raise ValueError(f"{name} must be an integer in [1, 2**32)")
        if not (math.isfinite(self.c_forests) and self.c_forests > 0):
            raise ValueError("c_forests must be finite and positive")
        if not 0 < self.terminate_quorum <= 1:
            raise ValueError("terminate_quorum must lie in (0, 1]")


def forests_for(n: int, config: AdaptiveConfig) -> int:
    return max(1, math.ceil(config.c_forests * math.log(max(2, n))))


def trees_per_forest(L: int, R: int) -> int:
    """Largest power of two at most L / R, but at least 1."""
    ratio = max(1, L // R)
    return 1 << (ratio.bit_length() - 1)


class ForestEnsemble:
    """R forests of l_prime trees each, stacked as the rows of one ``forest``
    (forest r is rows r * l_prime ... (r + 1) * l_prime - 1), with the config
    they were built under; ``build_ensemble`` builds one."""

    def __init__(self, forest: Forest, l_prime: int, config: AdaptiveConfig):
        self.forest = forest
        self.dataset = forest.dataset
        self.family = forest.family
        self.K = forest.K
        self.seed = forest.seed
        self.l_prime = l_prime
        self.R = forest.L // l_prime
        self.config = config

    @property
    def forests(self) -> list[Forest]:
        """The R forests, as views of the stack's rows."""
        return [self.forest.rows(r * self.l_prime, (r + 1) * self.l_prime) for r in range(self.R)]


def build_ensemble(dataset: Dataset, family: LshFamily, K: int, L: int,
                   seed: RngSeed, config: AdaptiveConfig = AdaptiveConfig(),
                   l_prime: int | None = None) -> ForestEnsemble:
    """Build R = ``forests_for(n, config)`` forests of ``l_prime`` trees each,
    by default ``trees_per_forest(L, R)``, as one stacked forest; tree j of
    forest r draws its members from the ("forest", r), ("tree", j) child seed."""
    check_shape(L, K)
    R = forests_for(dataset.n, config)
    if l_prime is None:
        l_prime = trees_per_forest(L, R)
    if l_prime < 1 or l_prime & (l_prime - 1):
        raise ValueError("trees per forest must be a positive power of two")
    params = np.array([family.sample_params(seed.child("forest", r).child("tree", j), K)
                       for r in range(R) for j in range(l_prime)])
    return ForestEnsemble(Forest(dataset, family, seed, params), l_prime, config)


@dataclass
class AdaptiveResult:
    point: int
    counters: CostCounters
    level: int          # level at which the terminating quorum was met
    phase: str          # "for-loop" or "bottom-up"
    # Runs advance in lock-step, so this is always 0; kept because the golden
    # reports and the benchmark's query records carry it.
    rounds_spread: int = 0


class _QueryState:
    """Everything owned by one adaptive query.

    The query re-inspects the same points many times (levels i and i-1 for
    every j, and every restart of the bottom-up sweep), so it keeps a lazy
    distance memo: each point's distance is computed the first time a bucket
    or a fallback draw inspects it and gathered from the memo afterwards.
    Work is still charged for every inspection, as the cost model counts it.
    """

    def __init__(self, ensemble: ForestEnsemble, q, seed: RngSeed):
        self.ensemble = ensemble
        self.dataset = ds = ensemble.dataset
        self.q = ensemble.dataset.check_query(q)
        self.counters = CostCounters()
        self.cursors = [None] * ensemble.forest.L  # one per row, made on its first use
        self.seed = seed
        self.rngs = [None] * ensemble.R  # a forest's fallback stream, made on its first draw
        self.memo = np.full(ds.n, -1, np.int64 if ds.metric is Metric.HAMMING else np.float64)
        self.best_key = None  # (distance, id) over every candidate inspected

    def cursor(self, f: int, tau: int) -> PrefixCursor:
        row = f * self.ensemble.l_prime + tau
        cur = self.cursors[row]
        if cur is None:
            cur = self.cursors[row] = PrefixCursor(self.ensemble.forest, row, self.q,
                                                   self.counters)
        return cur

    def _track(self, key) -> None:
        if self.best_key is None or key < self.best_key:
            self.best_key = key

    def inspect_bucket(self, ids: np.ndarray, limit: float):
        """Inspect a nonempty bucket, cut to its first ``limit`` >= 1 ids, and
        return its (distance, id) order-minimum, the ids inspected and whether
        it was cut. Every id is charged; only those the memo does not know are
        computed."""
        truncated = len(ids) > limit
        if truncated:
            ids = ids[:limit]
        c = self.counters
        c.collisions_inspected += len(ids)
        c.buckets_opened += 1
        key = order_minimum(self.dataset, self.q, ids, self.memo)
        self._track(key)
        return key, len(ids), truncated

    def draw_uniform(self, f: int):
        """Empty-bucket fallback: a uniformly random point, one distance."""
        c = self.counters
        c.collisions_inspected += 1
        c.buckets_opened += 1
        c.empty_bucket_fallbacks += 1
        rng = self.rngs[f]
        if rng is None:
            rng = self.rngs[f] = self.seed.child("forest", f).generator()
        key = uniform_draw(self.dataset, self.q, rng, self.memo)
        self._track(key)
        return key

    def best_point(self) -> int:
        return -1 if self.best_key is None else self.best_key[1]


def choose_level(state: _QueryState, j: int) -> int:
    """Smallest level i such that trees 1..j stay within collision_cap*i*j
    collisions in at least half of the forests; K when none qualifies.

    The scan proceeds top-down one level at a time across all forests and
    stops at the first level where half qualify, so no cursor is asked past
    the answer: O(i * j) node visits and hash evaluations per forest.
    Qualification is monotone in i (counts fall, budgets grow), so the
    level-synchronous scan returns the same level a per-forest scan would.
    """
    ens = state.ensemble
    cap_mult = ens.config.collision_cap * j
    need = math.ceil(ens.R / 2)
    cursors = [[state.cursor(f, tau) for tau in range(j)] for f in range(ens.R)]
    for i in range(1, ens.K + 1):
        budget = cap_mult * i
        qualifying = 0
        for forest_cursors in cursors:
            total = 0
            for cur in forest_cursors:
                total += cur.count(i)
                if total > budget:
                    break
            if total <= budget:
                qualifying += 1
        if qualifying >= need:
            return i
    return ens.K


class _CappedRun:
    """One confirmation-sampling instance inside a forest, capped at ``cap``
    collisions (``math.inf`` for an uncapped one)."""

    __slots__ = ("state", "f", "level", "cap", "cs", "collisions", "done")

    def __init__(self, state: _QueryState, f: int, level: int, cap: float, t: int):
        self.state = state
        self.f = f
        self.level = level
        self.cap = cap
        self.cs = CsState(t)
        self.collisions = 0
        self.done = False

    def feed_tree(self, tau: int) -> None:
        """Consume the bucket of tree ``tau`` (0-based) at this run's level."""
        if self.done:
            return
        state = self.state
        remaining = self.cap - self.collisions
        if remaining <= 0:
            self.done = True
            return
        ids = state.cursor(self.f, tau).bucket(self.level)
        if len(ids) == 0:
            key = state.draw_uniform(self.f)
            self.collisions += 1
        else:
            key, used, truncated = state.inspect_bucket(ids, remaining)
            self.collisions += used
            if truncated:
                # Budget ran out mid-bucket: candidates seen still feed the
                # global best, but the draw is void and the run is spent.
                self.done = True
                return
        if self.cs.update(key):
            self.done = True


def run_level_pair(state: _QueryState, i: int, j: int) -> tuple[int, int]:
    """In each forest, run capped confirmation sampling at levels i and i-1
    over the buckets of trees 1..j, interleaving the two levels. Returns how
    many forests terminated at level i and how many at level i-1."""
    ens = state.ensemble
    cfg = ens.config
    cap = cfg.collision_cap * i * j
    terminated_hi = terminated_lo = 0
    for f in range(ens.R):
        hi = _CappedRun(state, f, i, cap, cfg.t)
        lo = _CappedRun(state, f, i - 1, cap, cfg.t)
        for tau in range(j):
            hi.feed_tree(tau)
            lo.feed_tree(tau)
            if hi.done and lo.done:
                break
        terminated_hi += hi.cs.terminated
        terminated_lo += lo.cs.terminated
    return terminated_hi, terminated_lo


def bottom_up_phase(state: _QueryState, start_level: int) -> int:
    """Lock-step sweep from ``start_level`` down: at each level one fresh,
    uncapped run per forest, all fed tree tau % L' in round tau, for L'
    rounds (t + 1 rounds at level 0, where every bucket is the whole dataset
    and so every run terminates). Returns the level at which
    ceil(R * terminate_quorum) runs have terminated.

    Each run opens at most one bucket per round, so a sweep from level s
    opens at most R * (L' * s + t + 1) buckets.
    """
    ens = state.ensemble
    cfg = ens.config
    need = math.ceil(ens.R * cfg.terminate_quorum)
    for level in range(max(0, start_level), -1, -1):
        runs = [_CappedRun(state, f, level, math.inf, cfg.t) for f in range(ens.R)]
        for tau in range(ens.l_prime if level else cfg.t + 1):
            for run in runs:
                run.feed_tree(tau % ens.l_prime)
            if sum(run.cs.terminated for run in runs) >= need:
                return level
    raise AssertionError("every level-0 run terminates within t + 1 rounds")


def adaptive_nearest_neighbor(ensemble: ForestEnsemble, q,
                              seed: RngSeed | None = None) -> AdaptiveResult:
    """Run the adaptive query and return the closest point seen at the
    moment the terminating quorum was met, with full work accounting."""
    if seed is None:
        seed = ensemble.seed.child("query")
    state = _QueryState(ensemble, q, seed)
    need = math.ceil(ensemble.R * ensemble.config.terminate_quorum)
    j = 1
    while True:
        i = choose_level(state, j)
        # The quorum is per level: terminations at i and i-1 never pool.
        if max(run_level_pair(state, i, j)) >= need:
            return AdaptiveResult(state.best_point(), state.counters, i, "for-loop")
        if j >= ensemble.l_prime:
            level = bottom_up_phase(state, i - 1)
            return AdaptiveResult(state.best_point(), state.counters, level, "bottom-up")
        j *= 2


# ---------------------------------------------------------------------------
# Ensemble serialization, v5: magic, version, l_prime and the four config
# fields, then the forest payload of the ensemble's stacked forest of all
# T = R * l_prime trees, under the ensemble's seed. Forest r is trees
# r * l_prime ... (r + 1) * l_prime - 1. v1-v4 payloads are rejected.

_ENS_MAGIC = b"CSLSHENS"
_ENS_VERSION = 5
_ENS_HEADER = "<IdIId"  # l_prime, then AdaptiveConfig's fields in order


def ensemble_to_bytes(ensemble: ForestEnsemble) -> bytes:
    return (_ENS_MAGIC + struct.pack("<I", _ENS_VERSION)
            + struct.pack(_ENS_HEADER, ensemble.l_prime, *astuple(ensemble.config))
            + forest_to_bytes(ensemble.forest))


def ensemble_from_bytes(data: bytes, dataset: Dataset) -> ForestEnsemble:
    reader = PayloadReader(data, "ensemble")
    reader.magic_and_version(_ENS_MAGIC, _ENS_VERSION)
    l_prime, *fields = reader.unpack(_ENS_HEADER)
    try:
        config = AdaptiveConfig(*fields)
    except ValueError as exc:
        raise FormatError(f"bad ensemble config: {exc}") from exc
    family, seed, params = read_forest_payload(reader.rest(), dataset)
    if l_prime < 1 or l_prime & (l_prime - 1) or len(params) % l_prime:
        raise FormatError(f"l_prime={l_prime} is not a power of two that divides "
                          f"the {len(params)} trees")
    # Every parameter is read and checked before the forest hashes the dataset.
    return ForestEnsemble(Forest(dataset, family, seed, params), l_prime, config)


def save_ensemble(ensemble: ForestEnsemble, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(ensemble_to_bytes(ensemble))


def load_ensemble(path: str, dataset: Dataset) -> ForestEnsemble:
    with open(path, "rb") as fh:
        return ensemble_from_bytes(fh.read(), dataset)
