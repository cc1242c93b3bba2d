"""Confirmation sampling: report the order-minimum of a sequence of draws.

The procedure draws samples while tracking the smallest element seen so far
and the number of times it has reappeared (its confirmations). Once the
tracked minimum has been confirmed ``t`` times the procedure reports it.
Knowing nothing about the sampling probabilities, it fails with probability
at most ``(1 - p1) * (p2 / (p1 + p2)) ** t`` and consumes at most
``(t + 1) / p1`` samples in expectation, where p1 is the probability of the
minimum and p2 the largest probability among the other elements.
``confirmation_sampling`` is the one loop, over any sequence of draws (the
table queries draw from a fresh table each time); ``CsState`` is its step.

This module also provides the analytic companions: the failure bound, the
expected-sample bound, and the exact output distribution computed by the
reveal-outcomes-from-the-top recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np


class CsState:
    """The step of confirmation sampling: the tracked minimum and its count.

    Keys must be totally ordered and equal only for identical elements
    (queries use ``(distance, point id)`` tuples).
    """

    __slots__ = ("t", "best", "count")

    def __init__(self, t: int):
        if t < 1:
            raise ValueError("confirmation count t must be >= 1")
        self.t = t
        self.best = None
        self.count = 0

    def update(self, key) -> bool:
        """Feed one sample; return True once the minimum has t confirmations."""
        if self.best is None or key < self.best:
            self.best = key
            self.count = 0
        elif key == self.best:
            self.count += 1
        return self.count >= self.t

    @property
    def terminated(self) -> bool:
        return self.count >= self.t


@dataclass
class CsResult:
    """Outcome of a confirmation-sampling run.

    ``exhausted`` is set when the sequence ended before t confirmations; the
    reported element is then the tracked minimum so far (or None if no sample
    was drawn).
    """

    element: object
    samples: int
    confirmations: int
    exhausted: bool = False


def confirmation_sampling(samples: Iterable, t: int) -> CsResult:
    """Run confirmation sampling over a sequence of draws, keyed as in
    ``CsState``. The run stops at t confirmations and draws nothing more, so
    the sequence may be lazy and endless; one that ends first gives a result
    flagged ``exhausted``."""
    state = CsState(t)
    drawn = 0
    for x in samples:
        drawn += 1
        if state.update(x):
            return CsResult(state.best, drawn, state.count)
    return CsResult(state.best, drawn, state.count, exhausted=True)


class DiscreteDistribution:
    """An explicit distribution over elements indexed 0..n-1 in ascending
    order (index 0 is the order-minimum)."""

    def __init__(self, probs):
        p = np.asarray(probs, dtype=np.float64)
        if p.ndim != 1 or p.size < 1:
            raise ValueError("need a 1-d probability vector")
        if (p < 0).any():
            raise ValueError("probabilities must be nonnegative")
        if abs(float(p.sum()) - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1 within 1e-12")
        self.probs = p
        self.n = p.size
        self._cum = np.cumsum(p)
        self._cum[-1] = 1.0

    def sampler(self, rng: np.random.Generator) -> Iterator[int]:
        """An endless sequence of independent draws."""
        cum = self._cum
        while True:
            yield int(np.searchsorted(cum, rng.random(), side="right"))


def failure_bound(p1: float, p2: float, t: int) -> float:
    """Upper bound on the probability that confirmation sampling reports an
    element other than the minimum: (1 - p1) * (p2 / (p1 + p2)) ** t."""
    if not 0 < p1 <= 1:
        raise ValueError("p1 must lie in (0, 1]")
    if not 0 <= p2 <= 1:
        raise ValueError("p2 must lie in [0, 1]")
    if t < 1:
        raise ValueError("t must be >= 1")
    return (1.0 - p1) * (p2 / (p1 + p2)) ** t


def expected_samples_bound(p1: float, t: int) -> float:
    """Upper bound on the expected number of samples: (t + 1) / p1."""
    if not 0 < p1 <= 1:
        raise ValueError("p1 must lie in (0, 1]")
    if t < 1:
        raise ValueError("t must be >= 1")
    return (t + 1) / p1


def exact_output_distribution(dist: DiscreteDistribution, t: int) -> np.ndarray:
    """Exact reporting probabilities of confirmation sampling on an explicit
    distribution.

    With elements ascending in the order (index 0 minimal), element i is
    reported exactly when it is sampled t+1 times before any sample of a
    smaller element. Working from the largest element down,

        rho_i = (1 - sum_{j>i} rho_j) * (p_i / sum_{s<=i} p_s) ** (t+1),

    with rho for the largest element equal to its probability to the t+1.
    Zero-probability elements are dropped first (they are never reported);
    the recursion runs with compensated summation so the result sums to 1
    within 1e-9 even for large supports.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    p = dist.probs
    nz = np.flatnonzero(p > 0)
    q = p[nz]
    m = q.size
    # Compensated prefix sums of the compacted probabilities.
    prefix = np.empty(m, dtype=np.float64)
    acc = 0.0
    comp = 0.0
    for i in range(m):
        y = float(q[i]) - comp
        s = acc + y
        comp = (s - acc) - y
        prefix[i] = s
        acc = s
    rho_nz = np.zeros(m, dtype=np.float64)
    remaining = 1.0  # 1 - sum of rho over indices above i, kept compensated
    rcomp = 0.0
    power = t + 1
    for i in range(m - 1, -1, -1):
        r = remaining * (float(q[i]) / prefix[i]) ** power
        rho_nz[i] = r
        y = -r - rcomp
        s = remaining + y
        rcomp = (s - remaining) - y
        remaining = s
    out = np.zeros(dist.n, dtype=np.float64)
    out[nz] = rho_nz
    return out
