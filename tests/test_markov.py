"""Closed-form chain analytics vs independent oracles."""
import math

import numpy as np
import pytest

from eacsim.channel import ChannelParams, SlotTimeline
from eacsim.markov import (
    NonPositiveHorizon,
    absorbing_threshold,
    absorbing_threshold_worst_case,
    dicke_outcome_probability,
    indicator_pmf,
    state_prob,
    success_prob,
    success_prob_fully_noisy,
    success_prob_parallel,
    time_horizon,
    transition_matrix,
    transition_prob,
)

Q_GRID = [round(0.1 * i, 1) for i in range(11)]


# ---------------------------------------------------------------- horizon

def test_time_horizon_values():
    assert time_horizon(SlotTimeline(tau_th=100, tau_g=10, tau_d=8, tau_c=10)) == 10
    assert time_horizon(SlotTimeline(tau_th=100, tau_g=10, tau_d=7, tau_c=10)) == 11


def test_time_horizon_degenerate():
    with pytest.raises(NonPositiveHorizon):
        time_horizon(SlotTimeline(tau_th=20, tau_g=10, tau_d=5, tau_c=10))
    with pytest.raises(NonPositiveHorizon):
        time_horizon(SlotTimeline(tau_th=21, tau_g=10, tau_d=5, tau_c=10))


# ---------------------------------------------------------------- pmf / transitions

def test_indicator_pmf_values():
    assert indicator_pmf(0.5, 1) == (0.5, 0.5)
    p0, p1 = indicator_pmf(0.3, 3)
    assert p0 == pytest.approx(0.027, abs=1e-15)
    assert p1 == pytest.approx(0.973, abs=1e-15)
    assert indicator_pmf(1.0, 7) == (1.0, 0.0)


def test_transition_prob_values():
    for q in Q_GRID:
        assert transition_prob(2, 0, 2, q) == pytest.approx((1 - q) ** 2, abs=1e-15)
    assert transition_prob(3, 1, 2, 0.5) == pytest.approx(0.5, abs=1e-15)
    assert transition_prob(5, 3, 2, 0.5) == 0.0


def test_transition_rows_sum_to_one():
    for n in range(1, 11):
        for q in Q_GRID:
            for i in range(n + 1):
                total = sum(transition_prob(n, i, j, q) for j in range(n + 1))
                assert abs(total - 1.0) < 1e-12


def test_transition_matrix_shape_and_structure():
    for n in (1, 4, 9):
        for q in (0.0, 0.3, 1.0):
            t = transition_matrix(n, q)
            assert t.shape == (n + 1, n + 1)
            assert np.all(np.tril(t, k=-1) == 0.0)
            np.testing.assert_allclose(t.sum(axis=1), 1.0, atol=1e-12)


# ---------------------------------------------------------------- state probabilities

def test_state_prob_single_slot_is_binomial():
    for j in range(6):
        expected = math.comb(5, j) * 0.7**j * 0.3 ** (5 - j)
        assert state_prob(5, j, 0.3, 1) == pytest.approx(expected, abs=1e-15)


def test_state_prob_noiseless():
    assert state_prob(7, 7, 0.0, 1) == 1.0
    assert state_prob(7, 7, 0.0, 9) == 1.0


@pytest.mark.parametrize("n", [1100, 100_000])
def test_state_prob_finite_past_binomial_overflow(n):
    # C(n, n/2) alone overflows a double from n ~ 1030
    for q, m in ((0.3, 3), (0.9, 1), (0.999, 2)):
        pmf = [state_prob(n, j, q, m) for j in range(n + 1)]
        assert all(math.isfinite(p) and p >= 0.0 for p in pmf)
        assert math.fsum(pmf) == pytest.approx(1.0, abs=1e-9)
    assert state_prob(n, n, 0.0, 3) == 1.0 and state_prob(n, n - 1, 0.0, 3) == 0.0
    assert state_prob(n, 0, 1.0, 3) == 1.0 and state_prob(n, 1, 1.0, 3) == 0.0


def test_transition_rows_sum_to_one_at_large_n():
    n = 1100
    for i in (0, 500, 1099):
        row = [transition_prob(n, i, j, 0.4) for j in range(n + 1)]
        assert math.fsum(row) == pytest.approx(1.0, abs=1e-9)


def test_chain_consistency_matrix_power_oracle():
    # evolving the start distribution through the transition matrix must
    # reproduce the closed form
    for n in (2, 5, 10):
        for q in Q_GRID:
            t = transition_matrix(n, q)
            dist = np.zeros(n + 1)
            dist[0] = 1.0
            for m in range(1, 21):
                dist = dist @ t
                for j in range(n + 1):
                    assert abs(dist[j] - state_prob(n, j, q, m)) < 1e-10


# ---------------------------------------------------------------- success probabilities

def test_success_prob_values():
    assert success_prob(3, 0.0, 2) == 1.0
    assert success_prob(2, 0.3, 3) == pytest.approx((1 - 0.027) ** 2, abs=1e-15)
    assert f"{success_prob(2, 0.3, 3):.6f}" == "0.946729"


def appendix_sum(n, k, q, m):
    """Independent oracle: total-probability sum over final connected counts."""
    p = 1 - q**m
    return sum(
        math.comb(n - k, j - k) * p**j * (q**m) ** (n - j) for j in range(k, n + 1)
    )


def test_success_prob_equals_summation_oracle():
    for n in range(1, 13):
        for k in range(1, n + 1):
            for q in Q_GRID:
                for m in (1, 3, 7):
                    assert abs(appendix_sum(n, k, q, m) - success_prob(k, q, m)) < 1e-12


def test_success_prob_takes_no_n():
    # the sum oracle shows the n-dependence cancels; the API never asks for n
    vals = {appendix_sum(n, 2, 0.4, 3) for n in range(2, 13)}
    assert max(vals) - min(vals) < 1e-12


def test_success_prob_parallel():
    assert success_prob_parallel(2, 0.3, 3, 1) == success_prob(2, 0.3, 3)
    assert success_prob_parallel(1, 0.5, 2, 2) == pytest.approx(0.9375, abs=1e-15)
    vals = [success_prob_parallel(3, 0.6, 2, lc) for lc in range(1, 6)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_fully_noisy_reduces_exactly():
    for q in Q_GRID:
        for m in (1, 3, 10):
            params = ChannelParams(q_cr=q, q_e=0.0, M_cr=m, M_e=m)
            assert success_prob_fully_noisy(2, params) == success_prob(2, q, m)


def test_fully_noisy_symmetric():
    pa = ChannelParams(q_cr=0.2, q_e=0.6, M_cr=4, M_e=4)
    pb = ChannelParams(q_cr=0.6, q_e=0.2, M_cr=4, M_e=4)
    assert success_prob_fully_noisy(3, pa) == success_prob_fully_noisy(3, pb)


def test_fully_noisy_value_and_horizon():
    params = ChannelParams(q_cr=0.3, q_e=0.3, M_cr=3, M_e=3)
    a = 0.027
    assert success_prob_fully_noisy(2, params) == pytest.approx((1 - 2 * a + a * a) ** 2, abs=1e-15)
    assert f"{success_prob_fully_noisy(2, params):.6f}" == "0.896296"
    # uses the smaller horizon
    tall = ChannelParams(q_cr=0.3, q_e=0.3, M_cr=3, M_e=50)
    assert success_prob_fully_noisy(2, tall) == success_prob_fully_noisy(2, params)


def test_fully_noisy_factorizes():
    params = ChannelParams(q_cr=0.25, q_e=0.55, M_cr=2, M_e=2)
    a, b = 0.25**2, 0.55**2
    assert success_prob_fully_noisy(4, params) == pytest.approx(((1 - a) * (1 - b)) ** 4, abs=1e-14)


# ---------------------------------------------------------------- absorbing threshold

def closed_form_threshold(n, m, eps):
    return (1 - (1 - eps) ** (1 / n)) ** (1 / m)


@pytest.mark.parametrize("n,m", [(5, 3), (10, 10), (20, 20), (20, 3)])
def test_threshold_matches_closed_form(n, m):
    for eps in (1e-5, 1e-3, 0.1):
        assert abs(absorbing_threshold(n, m, eps) - closed_form_threshold(n, m, eps)) < 1e-9


def test_threshold_spot_value():
    assert absorbing_threshold(20, 20, 1e-5) == pytest.approx(0.484, abs=1e-3)


def test_threshold_defines_the_guarantee():
    qbar = absorbing_threshold(10, 5, 1e-4)
    for q in np.linspace(0.0, qbar - 1e-6, 20):
        assert state_prob(10, 10, float(q), 5) > 1 - 1e-4


def test_threshold_limit_eps_to_one():
    assert absorbing_threshold(10, 5, 1 - 1e-9) > 0.95


def test_threshold_worst_case_is_minimum():
    ns = (5, 10, 20)
    worst = absorbing_threshold_worst_case(ns, 10)
    assert worst == min(absorbing_threshold(n, 10) for n in ns)
    assert worst == pytest.approx(absorbing_threshold(20, 10), abs=1e-12)


def test_threshold_validation():
    with pytest.raises(ValueError):
        absorbing_threshold(10, 5, 0.0)
    with pytest.raises(ValueError):
        absorbing_threshold(10, 5, 1.0)


# ---------------------------------------------------------------- outcome law / binomials

def test_dicke_outcome_probability():
    assert dicke_outcome_probability(4, 2) == (pytest.approx(1 / 6), pytest.approx(0.5))
    assert dicke_outcome_probability(1100, 2)[0] == pytest.approx(1 / math.comb(1100, 2), rel=1e-12)
    assert dicke_outcome_probability(2000, 1000) == (0.0, 0.5)  # C(2000, 1000) overflows a double
    for n in (3, 7):
        joint, marginal = dicke_outcome_probability(n, 1)
        assert joint == pytest.approx(1 / n) and marginal == pytest.approx(1 / n)


def test_dicke_marginal_counting_identity():
    # sum of the joint law over weight-k strings with bit i set equals k/n
    from itertools import combinations

    for n, k in ((5, 2), (6, 3)):
        joint, marginal = dicke_outcome_probability(n, k)
        for i in range(n):
            total = sum(joint for c in combinations(range(n), k) if i in c)
            assert abs(total - marginal) < 1e-12


def test_markov_validation_errors():
    with pytest.raises(ValueError):
        state_prob(5, 6, 0.3, 1)
    with pytest.raises(ValueError):
        transition_prob(5, 1, 2, 1.3)
    with pytest.raises(ValueError):
        success_prob(0, 0.3, 3)
    with pytest.raises(ValueError):
        indicator_pmf(0.5, 0)
