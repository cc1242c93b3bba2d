"""The fully adaptive, parameter-free LSH Forest query.

The query operates on R = Theta(log n) independent forests of L' trees each
(L' a power of two). For j = 1, 2, 4, ..., L' it measures collision counts
top-down to find the smallest level i at which the first j trees stay within
a 10*i*j collision budget in at least half of the forests, then runs
budget-capped confirmation sampling at levels i and i-1 in every forest. It
reports the closest point seen as soon as the sampling terminates in a
quarter of the forests at either level. If the tree budget runs out first, a
bottom-up phase sweeps the forests in lock-step, dropping one level (and
restarting the sampling) whenever half of the searches have consumed their
last tree; level 0 scans the whole dataset, so termination is certain.

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
    Forest,
    PayloadReader,
    PrefixCursor,
    build_forest,
    forest_payload,
    read_forest_payload,
)


@dataclass(frozen=True)
class AdaptiveConfig:
    """Tunable constants; the defaults are the algorithm's own."""

    c_forests: float = 8.0        # R = max(1, ceil(c_forests * ln n))
    t: int = 3                    # confirmations per sampling instance
    collision_cap: int = 10       # budget multiplier: cap = collision_cap*i*j
    terminate_quorum: float = 0.25
    advance_quorum: float = 0.5

    def __post_init__(self):
        for name in ("t", "collision_cap"):  # u4 fields of the ensemble format
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and 1 <= value < 2**32):
                raise ValueError(f"{name} must be an integer in [1, 2**32)")
        if not (math.isfinite(self.c_forests) and self.c_forests > 0):
            raise ValueError("c_forests must be finite and positive")
        for name in ("terminate_quorum", "advance_quorum"):
            if not 0 < getattr(self, name) <= 1:
                raise ValueError(f"{name} must lie in (0, 1]")


def forests_for(n: int, config: AdaptiveConfig) -> int:
    return max(1, math.ceil(config.c_forests * math.log(max(2, n))))


def trees_per_forest(L: int, R: int) -> int:
    """Largest power of two at most L / R, but at least 1."""
    ratio = max(1, L // R)
    return 1 << (ratio.bit_length() - 1)


class ForestEnsemble:
    """R forests of l_prime trees each over one dataset, family and depth K,
    with the config and seed they were built under; ``build_ensemble`` builds one."""

    def __init__(self, forests: list[Forest], config: AdaptiveConfig, seed: RngSeed):
        first = forests[0]
        self.dataset = first.dataset
        self.family = first.family
        self.K = first.K
        self.l_prime = first.L
        self.R = len(forests)
        self.forests = forests
        self.config = config
        self.seed = seed


def build_ensemble(dataset: Dataset, family: LshFamily, K: int, L: int,
                   seed: RngSeed, config: AdaptiveConfig = AdaptiveConfig(),
                   l_prime: int | None = None) -> ForestEnsemble:
    """Build R = ``forests_for(n, config)`` forests of ``l_prime`` trees each,
    by default ``trees_per_forest(L, R)``; forest r draws its trees from the
    ("forest", r) child seed."""
    R = forests_for(dataset.n, config)
    if l_prime is None:
        l_prime = trees_per_forest(L, R)
    if l_prime < 1 or l_prime & (l_prime - 1):
        raise ValueError("trees per forest must be a positive power of two")
    forests = [build_forest(dataset, family, K, l_prime, seed.child("forest", r))
               for r in range(R)]
    return ForestEnsemble(forests, config, seed)


@dataclass
class AdaptiveResult:
    point: int
    counters: CostCounters
    level: int          # level at which the terminating quorum was met
    phase: str          # "for-loop" or "bottom-up"
    rounds_spread: int  # max lock-step imbalance observed (fairness check)


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
        self.cursors = [
            [None] * ensemble.l_prime for _ in range(ensemble.R)
        ]
        self.seed = seed
        self.rngs = [None] * ensemble.R  # a forest's fallback stream, made on its first draw
        self.memo = np.full(ds.n, -1, np.int64 if ds.metric is Metric.HAMMING else np.float64)
        self.best_key = None  # (distance, id) over every candidate inspected
        self.rounds_spread = 0

    def cursor(self, f: int, tau: int) -> PrefixCursor:
        cur = self.cursors[f][tau]
        if cur is None:
            cur = PrefixCursor(self.ensemble.forests[f].trees[tau], self.q, self.counters)
            self.cursors[f][tau] = cur
        return cur

    def _track(self, key) -> None:
        if self.best_key is None or key < self.best_key:
            self.best_key = key

    def inspect_bucket(self, ids: np.ndarray, limit: int | None = None):
        """Inspect a bucket (optionally truncated to ``limit`` ids) and return
        its (distance, id) order-minimum, or None for an empty scan. Every id
        is charged; only those the memo does not know are computed."""
        m = len(ids)
        truncated = False
        if limit is not None and m > limit:
            ids = ids[:limit]
            m = limit
            truncated = True
        if m == 0:
            return None, 0, truncated
        c = self.counters
        c.collisions_inspected += m
        c.buckets_opened += 1
        key = order_minimum(self.dataset, self.q, ids, self.memo)
        self._track(key)
        return key, m, truncated

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


@dataclass
class LevelPairStatus:
    """Per-forest outcome of the two budget-capped sampling instances."""

    terminated_hi: bool = False
    terminated_lo: bool = False

    @property
    def terminated(self) -> bool:
        return self.terminated_hi or self.terminated_lo


class _CappedRun:
    """One budget-capped confirmation-sampling instance inside a forest."""

    __slots__ = ("state", "f", "level", "cap", "cs", "collisions", "done", "terminated")

    def __init__(self, state: _QueryState, f: int, level: int, cap: int, t: int):
        self.state = state
        self.f = f
        self.level = level
        self.cap = cap
        self.cs = CsState(t)
        self.collisions = 0
        self.done = False
        self.terminated = False

    def feed_tree(self, tau: int) -> None:
        """Consume the bucket of tree ``tau`` (0-based) at this run's level."""
        if self.done:
            return
        state = self.state
        remaining = self.cap - self.collisions
        if remaining <= 0:
            self.done = True
            return
        if self.level == 0:
            # The whole tree, without starting (and charging) a walk.
            ids = state.ensemble.forests[self.f].trees[tau].order
        else:
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
            self.terminated = True


def run_level_pair(state: _QueryState, i: int, j: int) -> list[LevelPairStatus]:
    """In each forest, run capped confirmation sampling at levels i and i-1
    over the buckets of trees 1..j, interleaving the two levels."""
    ens = state.ensemble
    cfg = ens.config
    cap = cfg.collision_cap * i * j
    statuses = []
    for f in range(ens.R):
        hi = _CappedRun(state, f, i, cap, cfg.t)
        lo = _CappedRun(state, f, i - 1, cap, cfg.t)
        for tau in range(j):
            hi.feed_tree(tau)
            lo.feed_tree(tau)
            if hi.done and lo.done:
                break
        statuses.append(LevelPairStatus(hi.terminated, lo.terminated))
    return statuses


def quorum_check(statuses: list[LevelPairStatus], fraction: float = 0.25) -> bool:
    """True when a quarter of the forests terminated at the upper level or a
    quarter terminated at the lower level (quorums are per level)."""
    need = math.ceil(len(statuses) * fraction)
    hi = sum(1 for s in statuses if s.terminated_hi)
    lo = sum(1 for s in statuses if s.terminated_lo)
    return hi >= need or lo >= need


def bottom_up_phase(state: _QueryState, start_level: int) -> int:
    """Lock-step sweep: one bucket per forest per round at the current level;
    drop a level (restarting every sampling instance) once half the searches
    have consumed tree L', and stop once a quarter terminate. At level 0 every
    bucket is the whole dataset, so termination is certain.

    Returns the level at which the terminating quorum was met.
    """
    ens = state.ensemble
    cfg = ens.config
    R = ens.R
    lprime = ens.l_prime
    need_term = math.ceil(R * cfg.terminate_quorum)
    need_adv = math.ceil(R * cfg.advance_quorum)
    level = max(0, start_level)
    while True:
        runs = [_CappedRun(state, f, level, 2**62, cfg.t) for f in range(R)]
        taus = [0] * R
        while True:
            advanced = False
            for f in range(R):
                run = runs[f]
                if run.done or (level > 0 and taus[f] >= lprime):
                    continue
                run.feed_tree(taus[f] % lprime)
                taus[f] += 1
                advanced = True
            live = [
                taus[f]
                for f in range(R)
                if not runs[f].done and (level == 0 or taus[f] < lprime)
            ]
            if live:
                spread = max(live) - min(live)
                if spread > state.rounds_spread:
                    state.rounds_spread = spread
            terminated = sum(1 for r in runs if r.terminated)
            if terminated >= need_term:
                return level
            if level > 0:
                exhausted = sum(
                    1 for f in range(R) if not runs[f].terminated and taus[f] >= lprime
                )
                if exhausted >= need_adv:
                    break  # drop a level, start everything over
                if not advanced:
                    break  # nothing can move: treat as exhausted
            elif not advanced:
                # Level 0 cannot stall: every run draws the full dataset and
                # terminates after t+1 draws.
                return level
        level = max(0, level - 1)


def adaptive_nearest_neighbor(ensemble: ForestEnsemble, q,
                              seed: RngSeed | None = None) -> AdaptiveResult:
    """Run the adaptive query and return the closest point seen at the
    moment the terminating quorum was met, with full work accounting."""
    if seed is None:
        seed = ensemble.seed.child("query")
    state = _QueryState(ensemble, q, seed)
    j = 1
    while True:
        i = choose_level(state, j)
        statuses = run_level_pair(state, i, j)
        if quorum_check(statuses, ensemble.config.terminate_quorum):
            return AdaptiveResult(
                state.best_point(), state.counters, i, "for-loop", state.rounds_spread
            )
        if j >= ensemble.l_prime:
            level = bottom_up_phase(state, i - 1)
            return AdaptiveResult(
                state.best_point(), state.counters, level, "bottom-up",
                state.rounds_spread,
            )
        j *= 2


# ---------------------------------------------------------------------------
# Ensemble serialization, v4: magic, version, l_prime and the five config
# fields, then one forest payload of all T = R * l_prime trees under the
# ensemble's seed. Forest r is trees r * l_prime ... (r + 1) * l_prime - 1,
# with seed ("forest", r) below the ensemble's. v1-v3 payloads are rejected.

_ENS_MAGIC = b"CSLSHENS"
_ENS_VERSION = 4
_ENS_HEADER = "<IdIIdd"  # l_prime, then AdaptiveConfig's fields in order


def ensemble_to_bytes(ensemble: ForestEnsemble) -> bytes:
    params = [tree.params for forest in ensemble.forests for tree in forest.trees]
    return (_ENS_MAGIC + struct.pack("<I", _ENS_VERSION)
            + struct.pack(_ENS_HEADER, ensemble.l_prime, *astuple(ensemble.config))
            + forest_payload(ensemble.dataset, ensemble.family, ensemble.seed, params))


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
    # Every parameter is read and checked before any forest hashes the dataset.
    forests = [Forest(dataset, family, seed.child("forest", r), params[i : i + l_prime])
               for r, i in enumerate(range(0, len(params), l_prime))]
    return ForestEnsemble(forests, config, seed)


def save_ensemble(ensemble: ForestEnsemble, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(ensemble_to_bytes(ensemble))


def load_ensemble(path: str, dataset: Dataset) -> ForestEnsemble:
    with open(path, "rb") as fh:
        return ensemble_from_bytes(fh.read(), dataset)
