import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cslsh.confirmation import (
    CsState,
    DiscreteDistribution,
    confirmation_sampling,
    exact_output_distribution,
    expected_samples_bound,
    failure_bound,
)
from cslsh.core import RngSeed


def test_single_element_terminates_after_t_plus_one():
    res = confirmation_sampling(["a"] * 10, t=3)
    assert res.element == "a"
    assert res.samples == 4
    assert res.confirmations == 3
    assert not res.exhausted


def test_trace_with_reset():
    # b, a, a, a with t=2: the switch to a resets the counter
    res = confirmation_sampling(["b", "a", "a", "a"], t=2)
    assert res.element == "a"
    assert res.samples == 4


def test_larger_samples_are_noops():
    res = confirmation_sampling(["a", "z", "z", "a", "a"], t=2)
    assert res.element == "a"
    assert res.samples == 5


def test_budget_exhausted_carries_partial_state():
    # a caller bounds its own sequence; the run ends with it
    res = confirmation_sampling(itertools.islice(iter("baaa"), 3), t=5)
    assert res.exhausted
    assert res.element == "a"
    assert res.samples == 3
    assert res.confirmations == 1


def test_budget_zero_reports_nothing():
    res = confirmation_sampling(itertools.islice(iter("a"), 0), t=1)
    assert res.exhausted and res.element is None and res.samples == 0
    res = confirmation_sampling([], t=1)
    assert res.exhausted and res.element is None and res.samples == 0


def test_termination_leaves_the_rest_of_a_shared_iterator_unread():
    it = iter(["b", "a", "a", "a", "next", "after"])
    res = confirmation_sampling(it, t=2)
    assert (res.element, res.samples, res.exhausted) == ("a", 4, False)
    assert next(it) == "next"

    def lazy():
        yield from ("a", "a")
        raise AssertionError("drew past termination")

    assert confirmation_sampling(lazy(), t=1).samples == 2


def test_t_must_be_positive():
    with pytest.raises(ValueError):
        CsState(0)
    with pytest.raises(ValueError):
        confirmation_sampling(["a"], t=0)


def test_failure_bound_examples():
    assert failure_bound(1.0, 0.0, 5) == 0.0
    assert failure_bound(0.5, 0.5, 1) == pytest.approx(0.25, abs=1e-15)
    assert failure_bound(0.5, 0.5, 3) == pytest.approx(0.0625, abs=1e-15)
    with pytest.raises(ValueError):
        failure_bound(0.0, 0.5, 1)
    with pytest.raises(ValueError):
        failure_bound(0.5, 0.5, 0)


def test_expected_samples_bound_examples():
    assert expected_samples_bound(1.0, 3) == 4.0
    assert expected_samples_bound(0.25, 1) == 8.0
    with pytest.raises(ValueError):
        expected_samples_bound(0.0, 1)


def test_exact_distribution_trivial_and_two_point():
    assert np.allclose(exact_output_distribution(DiscreteDistribution([1.0]), 4), [1.0])
    rho = exact_output_distribution(DiscreteDistribution([0.5, 0.5]), 1)
    assert np.allclose(rho, [0.75, 0.25], atol=1e-15)


def test_exact_distribution_zero_probability_dropped():
    rho = exact_output_distribution(DiscreteDistribution([0.5, 0.0, 0.5]), 2)
    assert rho[1] == 0.0
    assert rho.sum() == pytest.approx(1.0, abs=1e-12)
    # identical to the compacted two-point distribution
    rho2 = exact_output_distribution(DiscreteDistribution([0.5, 0.5]), 2)
    assert rho[0] == rho2[0] and rho[2] == rho2[1]


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(0, 40), min_size=1, max_size=12).filter(lambda u: sum(u) > 0),
    st.integers(1, 5),
)
def test_exact_distribution_telescopes_to_one(units, t):
    p = np.array(units, dtype=float) / sum(units)
    rho = exact_output_distribution(DiscreteDistribution(p), t)
    assert abs(rho.sum() - 1.0) <= 1e-9
    assert (rho >= 0).all()
    assert (rho[p == 0] == 0).all()


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(1, 40), min_size=2, max_size=8),
    st.integers(1, 5),
)
def test_bound_dominates_exact_failure(units, t):
    p = np.array(units, dtype=float) / sum(units)
    rho = exact_output_distribution(DiscreteDistribution(p), t)
    fail = 1.0 - rho[0]
    assert fail <= failure_bound(p[0], p[1:].max(), t) + 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 19), st.integers(1, 6))
def test_two_point_tightness(units, t):
    p1 = units / 20
    p = np.array([p1, 1 - p1])
    rho = exact_output_distribution(DiscreteDistribution(p), t)
    assert 1.0 - rho[0] == pytest.approx(failure_bound(p[0], p[1], t), abs=1e-12)


def test_distribution_validation():
    with pytest.raises(ValueError):
        DiscreteDistribution([0.5, 0.6])
    with pytest.raises(ValueError):
        DiscreteDistribution([0.5, -0.1, 0.6])
    with pytest.raises(ValueError):
        exact_output_distribution(DiscreteDistribution([1.0]), 0)


def test_large_support_normalization():
    rng = RngSeed(5).child("big").generator()
    p = rng.dirichlet(np.ones(100_000))
    p = p / p.sum()
    rho = exact_output_distribution(DiscreteDistribution(p), 2)
    assert abs(rho.sum() - 1.0) <= 1e-9


def test_two_point_empirical_failure_rate():
    # the bound is met with equality on two-point supports
    dist = DiscreteDistribution([0.5, 0.5])
    rng = RngSeed(17).child("emp").generator()
    runs = 100_000
    failures = 0
    draw = dist.sampler(rng)
    for _ in range(runs):
        res = confirmation_sampling(draw, t=1)
        failures += int(res.element != 0)
    rate = failures / runs
    assert abs(rate - 0.25) <= 3 * math.sqrt(0.25 * 0.75 / runs)


def test_varying_distributions_respect_gamma_bound():
    # alternate two sources with p1 >= 0.4 and p2 <= 0.6: failure <= gamma^t
    rng = RngSeed(23).child("vary").generator()
    sources = [DiscreteDistribution([0.4, 0.6]), DiscreteDistribution([0.5, 0.5])]
    gamma = max(0.6 / (0.4 + 0.6), 0.5)
    t = 2
    runs = 20_000
    samplers = [source.sampler(rng) for source in sources]  # one rng.random() per draw
    failures = 0
    for _ in range(runs):
        draws = (next(samplers[k % 2]) for k in itertools.count())
        failures += int(confirmation_sampling(draws, t).element != 0)
    bound = gamma**t
    assert failures / runs <= bound + 3 * math.sqrt(bound * (1 - bound) / runs)
