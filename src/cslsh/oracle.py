"""Ground-truth machinery used as independent oracles by the test suites.

Everything here is deliberately naive or analytic: brute-force scans, the
closed-form distance-profile quantities (the expected bucket sizes C(i), and
T(i), i', i*, OPT), a direct Monte Carlo replay of the confirmation-sampling
loop, exhaustive enumeration of the table-sampling distribution for bit
sampling (over the unpacked bit matrix), and the naive prefix filter that
re-derives forest buckets from scratch, one ``HashSpec.evaluate`` bit per
member and point. None of these checks shares a code path with the
structures it checks. The natural algorithm is a baseline, not a check: it
scans the forest's own buckets and takes their minimum with the same helper
as the queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .confirmation import DiscreteDistribution
from .core import Dataset, Metric, RngSeed, order_minimum
from .families import HashSpec, LshFamily
from .forest import Forest


def brute_force_nn(dataset: Dataset, q) -> int:
    """The order-minimum of the dataset: smallest distance, ties to the
    smallest id. Linear scan."""
    q = dataset.check_query(q)
    d = dataset.distances_to(q)
    return int(np.flatnonzero(d == d.min()).min())


@dataclass
class DistanceProfile:
    """Analytic per-query profile: distances, collision probabilities and
    the expected-collision table C(i) for i = 0..K."""

    distances: np.ndarray
    probs: np.ndarray
    p1: float
    C: np.ndarray  # C[i] for i in 0..K

    def c_at(self, i: int) -> float:
        if i < 0:
            raise ValueError("level must be nonnegative")
        if i < len(self.C):
            return float(self.C[i])
        return float(np.sum(self.probs ** i))


def profile(dataset: Dataset, family: LshFamily, q, K: int) -> DistanceProfile:
    """Exact collision probabilities per point and compensated C(i) sums."""
    if K < 0:
        raise ValueError("K must be nonnegative")
    family.check_compatible(dataset)
    q = dataset.check_query(q)
    d = dataset.distances_to(q)
    p = family.collision_probability_many(d)
    p1 = float(p[np.argmin(d)])  # the collision probability at the least distance
    C = np.empty(K + 1, dtype=np.float64)
    C[0] = float(dataset.n)
    power = np.ones_like(p)
    for i in range(1, K + 1):
        power = power * p
        C[i] = math.fsum(power.tolist())
    return DistanceProfile(d, p, p1, C)


@dataclass
class OptReport:
    """The optimal natural algorithm for one query: per-level expected work
    T(i), the feasibility mask p1^i * L >= ln n, the optimizing level i*, the
    balance level i' (smallest i with C(i) <= i), and OPT = T(i*) * ln n."""

    C: np.ndarray
    T: np.ndarray
    feasible: np.ndarray
    i_star: int | None
    i_prime: int
    opt: float

    @property
    def is_feasible(self) -> bool:
        return self.i_star is not None


def opt_report(prof: DistanceProfile, L: int, K: int, n: int) -> OptReport:
    """Evaluate the optimal-natural-algorithm cost over levels 0..K.

    T(i) = (i + C(i)) / p1^i; a level is feasible when p1^i * L >= ln n;
    OPT minimizes T over feasible levels and carries the ln n repetition
    factor. With no feasible level, OPT is reported as infinity.
    """
    ln_n = math.log(n)
    p1 = prof.p1
    levels = np.arange(K + 1, dtype=np.float64)
    p1_pow = p1 ** levels
    with np.errstate(divide="ignore"):
        T = (levels + prof.C[: K + 1]) / p1_pow
    feasible = p1_pow * L >= ln_n
    i_prime = _i_prime(prof, n)
    if not feasible.any():
        return OptReport(prof.C[: K + 1], T, feasible, None, i_prime, math.inf)
    masked = np.where(feasible, T, math.inf)
    i_star = int(np.argmin(masked))
    return OptReport(prof.C[: K + 1], T, feasible, i_star, i_prime, float(T[i_star] * ln_n))


def _i_prime(prof: DistanceProfile, n: int) -> int:
    """Smallest integer i with C(i) <= i (exists: C(n) <= n always)."""
    for i in range(n + 1):
        if prof.c_at(i) <= i:
            return i
    return n


def natural_algorithm(forest: Forest, q, i: int, j: int):
    """The static reference strategy: inspect buckets S_{i,1..j}(q) and
    return the order-minimum seen plus work units (i hash evaluations per
    tree and one distance per collision). Level 0 is a full scan; an all-
    empty scan returns point -1."""
    if not 0 <= i <= forest.K:
        raise ValueError("level out of range")
    if not 1 <= j <= forest.L:
        raise ValueError("tree count out of range")
    q = forest.dataset.check_query(q)
    best = None
    work = 0
    for tree_j in range(1, j + 1):
        ids = forest.bucket(tree_j, i, q)
        work += i
        if len(ids) == 0:
            continue
        work += len(ids)
        key = order_minimum(forest.dataset, q, ids)
        if best is None or key < best:
            best = key
    return (best[1] if best is not None else -1), work


def static_level_choice(forest: Forest, q, c: float) -> int:
    """The classic static level rule: the smallest level whose total
    collisions across all L trees is at most c * L; K when none qualifies."""
    q = forest.dataset.check_query(q)
    budget = c * forest.L
    for i in range(1, forest.K + 1):
        total = 0
        for j in range(1, forest.L + 1):
            total += forest.collision_count(j, i, q)
            if total > budget:
                break
        if total <= budget:
            return i
    return forest.K


# ---------------------------------------------------------------------------
# Monte Carlo replay of the confirmation-sampling loop.


@dataclass
class CsSimulation:
    frequencies: np.ndarray
    std_errors: np.ndarray
    mean_samples: float
    samples_se: float
    runs: int


def simulate_cs(dist: DiscreteDistribution, t: int, runs: int, seed: RngSeed) -> CsSimulation:
    """Replay the sampling loop ``runs`` times and tally report frequencies
    and sample counts.

    All runs advance in lock-step over vectorized draws: per step each live
    run draws one element; draws above the tracked minimum are no-ops,
    smaller draws replace it and reset the confirmation count, equal draws
    confirm. Runs retire as their count reaches t.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if t < 1:
        raise ValueError("t must be >= 1")
    rng = seed.generator()
    n = dist.n
    cum = np.cumsum(dist.probs)
    cum[-1] = 1.0
    beta = np.full(runs, n, dtype=np.int64)  # n = "nothing tracked yet"
    count = np.zeros(runs, dtype=np.int64)
    samples = np.zeros(runs, dtype=np.int64)
    active = np.arange(runs, dtype=np.int64)
    reported = np.empty(runs, dtype=np.int64)
    while active.size:
        x = np.searchsorted(cum, rng.random(active.size), side="right")
        b = beta[active]
        smaller = x < b
        equal = x == b
        idx_smaller = active[smaller]
        beta[idx_smaller] = x[smaller]
        count[idx_smaller] = 0
        idx_equal = active[equal]
        count[idx_equal] += 1
        samples[active] += 1
        done = count[active] >= t
        if done.any():
            finished = active[done]
            reported[finished] = beta[finished]
            active = active[~done]
    freq = np.bincount(reported, minlength=n) / runs
    se = np.sqrt(np.maximum(freq * (1 - freq), 0.0) / runs)
    mean = float(samples.mean())
    samples_se = float(samples.std(ddof=1) / math.sqrt(runs)) if runs > 1 else 0.0
    return CsSimulation(freq, se, mean, samples_se, runs)


# ---------------------------------------------------------------------------
# The table-sampling distribution, exactly and by vectorized simulation.


def enumerate_qq_bitsampling(dataset: Dataset, q, k_cat: int):
    """Exact sampling distribution of the table draw for bit sampling, by
    enumerating every member combination.

    Returns (scores, total, empties): integer scores proportional to the
    probabilities, score[x] = n * #{combinations whose bucket minimum is x}
    + #{empty-bucket combinations}, out of a total of n * dim**k_cat, plus
    the empty-combination count. Integer arithmetic, so comparisons between
    points are exact.
    """
    if dataset.metric is not Metric.HAMMING:
        raise ValueError("enumeration oracle supports bit sampling only")
    q = dataset.check_query(q)
    n, dim = dataset.n, dataset.dim
    if dim**k_cat > 2_000_000:
        raise ValueError("enumeration too large")
    d = dataset.distances_to(q)
    rank = np.lexsort((np.arange(n), d))  # rank[0] is the order-minimum
    rank_of = np.empty(n, dtype=np.int64)
    rank_of[rank] = np.arange(n)
    eq = dataset.bits() == Dataset.from_packed(q[None], dim).bits()  # (n, dim)
    scores = np.zeros(n, dtype=object)
    empties = 0
    combo = [0] * k_cat
    while True:
        mask = eq[:, combo[0]].copy()
        for c in combo[1:]:
            mask &= eq[:, c]
        if mask.any():
            winner = int(rank[rank_of[mask].min()])
            scores[winner] += n
        else:
            empties += 1
        pos = k_cat - 1
        while pos >= 0:
            combo[pos] += 1
            if combo[pos] < dim:
                break
            combo[pos] = 0
            pos -= 1
        if pos < 0:
            break
    scores = scores + empties
    return scores.astype(object), n * dim**k_cat, empties


def simulate_qq(dataset: Dataset, q, family: LshFamily, k_cat: int,
                trials: int, seed: RngSeed) -> np.ndarray:
    """Empirical frequencies of the table draw over ``trials`` independent
    member draws (vectorized; the fallback draw is uniform over points)."""
    q = dataset.check_query(q)
    rng = seed.generator()
    n = dataset.n
    d = dataset.distances_to(q)
    rank_order = np.lexsort((np.arange(n), d))
    rank_of = np.empty(n, dtype=np.int64)
    rank_of[rank_order] = np.arange(n)
    counts = np.zeros(n, dtype=np.int64)
    if family.kind == "bit-sampling":
        qbits = Dataset.from_packed(q[None], dataset.dim).bits()
        eq = (dataset.bits() == qbits).T  # (dim, n)
    chunk = max(1, min(trials, 2_000_000 // max(1, n * k_cat)))
    done = 0
    while done < trials:
        m = min(chunk, trials - done)
        if family.kind == "bit-sampling":
            coords = rng.integers(dataset.dim, size=(m, k_cat))
            match = eq[coords].all(axis=1)  # (m, k_cat, n) -> (m, n)
        else:
            dirs = rng.standard_normal((m, k_cat, dataset.dim))
            qsigns = (dirs @ q) >= 0  # (m, k_cat)
            psigns = np.einsum("mkd,nd->mkn", dirs, dataset.reals) >= 0
            match = (psigns == qsigns[:, :, None]).all(axis=1)
        ranked = np.where(match, rank_of[None, :], n)
        best = ranked.min(axis=1)
        hit = best < n
        winners = rank_order[best[hit]]
        np.add.at(counts, winners, 1)
        misses = int((~hit).sum())
        if misses:
            counts += np.bincount(rng.integers(n, size=misses), minlength=n)
        done += m
    return counts / trials


def naive_prefix_filter(family: LshFamily, params: np.ndarray, dataset: Dataset,
                        q, i: int) -> np.ndarray:
    """Re-derive a bucket from scratch: evaluate each of the first i member
    rows as a one-bit reference on q and on every point, one point at a
    time, and keep the points whose i bits all match q's."""
    q = dataset.check_query(q)
    if i == 0:
        return np.arange(dataset.n, dtype=np.int64)
    family.check_compatible(dataset)
    members = [HashSpec(family, param) for param in params[:i]]
    want = [member.evaluate(q) for member in members]
    keep = [pid for pid in range(dataset.n)
            if [member.evaluate(dataset.point(pid)) for member in members] == want]
    return np.array(keep, dtype=np.int64)


def naive_shortest_unique_prefix(strings: list[int], K: int, idx: int) -> int:
    """Shortest i such that no other string shares the length-i prefix of
    strings[idx]; K when the full string is not unique."""
    s = strings[idx]
    for i in range(K + 1):
        shift = K - i
        pref = s >> shift
        unique = True
        for other_idx, other in enumerate(strings):
            if other_idx != idx and (other >> shift) == pref:
                unique = False
                break
        if unique:
            return i
    return K
