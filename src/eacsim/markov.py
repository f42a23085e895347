"""Closed-form analytics of the noisy entanglement-distribution chain.

The number of connected nodes evolves as a discrete-time Markov chain with
no backward transitions: from i connected nodes, the next slot adds a
Binomial(n-i, 1-q) batch of new connections.  Everything here is an exact
closed form; the Monte Carlo counterparts live in `channel` and the two are
cross-checked, never merged.
"""
from __future__ import annotations

import math

from .channel import ChannelParams, SlotTimeline, _check_count, _check_unit

EXACT_BINOM_LIMIT = 60  # integer arithmetic below, log-gamma above
DEFAULT_EPSILON = 1e-5  # the absorbing threshold's tolerance, unless a caller gives one


class NonPositiveHorizon(ValueError):
    """The slot timeline leaves no room for even one distribution attempt."""


def _log_binom(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _binom_mass(n: int, j: int, p_fail: float) -> float:
    """C(n, j) (1 - p_fail)^j p_fail^(n - j): Binomial(n, 1 - p_fail) mass at j.

    Exact product up to EXACT_BINOM_LIMIT; above it the whole term is taken
    in log space, so it stays finite where C(n, j) alone overflows.
    """
    if n <= EXACT_BINOM_LIMIT:
        return math.comb(n, j) * (1.0 - p_fail) ** j * p_fail ** (n - j)
    if p_fail == 0.0 or p_fail == 1.0:  # point mass at j = n or at j = 0
        return float(j == (n if p_fail == 0.0 else 0))
    return math.exp(_log_binom(n, j) + j * math.log1p(-p_fail) + (n - j) * math.log(p_fail))


def time_horizon(t: SlotTimeline) -> int:
    """Number of distribution attempts fitting in the coherence window.

    floor((tau_th - (tau_g + tau_c)) / tau_d); raises NonPositiveHorizon when
    generation plus contention already exhaust the window.
    """
    budget = t.tau_th - (t.tau_g + t.tau_c)
    m = math.floor(budget / t.tau_d)
    if m < 1:
        raise NonPositiveHorizon(
            f"no attempt fits: tau_th={t.tau_th}, tau_g+tau_c={t.tau_g + t.tau_c}, tau_d={t.tau_d}"
        )
    return m


def transition_prob(n: int, i: int, j: int, q: float) -> float:
    """P[j connected after a slot | i connected before], for n nodes.

    Binomial(n-i, 1-q) over the j-i new connections; 0 for j < i (the chain
    never moves backward).  Slot-index independent.
    """
    _check_unit("q", q)
    if not 0 <= i <= n or not 0 <= j <= n:
        raise ValueError(f"states must lie in 0..{n}, got i={i}, j={j}")
    if j < i:
        return 0.0
    return _binom_mass(n - i, j - i, q)


def state_prob(n: int, j: int, q: float, m: int) -> float:
    """P[j of n nodes connected after m slots]: Binomial(n, 1-q^m) mass at j."""
    _check_unit("q", q)
    if not 0 <= j <= n:
        raise ValueError(f"j={j} must lie in 0..{n}")
    _check_count("m", m)
    return _binom_mass(n, j, q**m)


def success_prob(k: int, q: float, M: int) -> float:
    """Probability the k winners all get their ebit within M attempts: (1-q^M)^k.

    Independent of the total number of contending nodes.
    """
    _check_unit("q", q)
    _check_count("k", k)
    _check_count("M", M)
    return (1.0 - q**M) ** k


def success_prob_parallel(k: int, q: float, M: int, l_c: int) -> float:
    """Success with l_c communication qubits per node attempting in parallel."""
    _check_count("l_c", l_c)
    return success_prob(k, q, M * l_c)


def success_prob_fully_noisy(k: int, params: ChannelParams) -> float:
    """Success when both resource distributions are noisy.

    Evaluated at the common horizon m_bar = min(M_cr, M_e); per winner the
    two independent processes must both have delivered, so the base is
    (1 - q_cr^m - q_e^m + q_cr^m q_e^m) = (1 - q_cr^m)(1 - q_e^m).
    """
    _check_count("k", k)
    m = params.m_bar
    a = params.q_cr**m
    b = params.q_e**m
    return (1.0 - a - b + a * b) ** k


def absorbing_threshold(n: int, M: int, epsilon: float = DEFAULT_EPSILON) -> float:
    """Largest failure probability below which full connection stays near-certain.

    The unique q with P[all n connected after M slots] = (1 - q^M)^n = 1 - epsilon,
    in closed form q = (1 - (1 - epsilon)^(1/n))^(1/M); expm1/log1p keep it
    accurate for tiny epsilon.  Full connection is strictly decreasing in q,
    so every q below the threshold gives a probability above 1 - epsilon.
    The threshold strictly decreases in n: the largest n of a family has its minimum.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon={epsilon} must be in (0, 1)")
    _check_count("n", n)
    _check_count("M", M)
    return (-math.expm1(math.log1p(-epsilon) / n)) ** (1.0 / M)


def dicke_outcome_probability(n: int, k: int) -> tuple[float, float]:
    """(joint, marginal) contention-outcome law: every weight-k string has
    probability 1/C(n,k) and each node wins with probability k/n."""
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    return 1 / math.comb(n, k), k / n  # int / int: correctly rounded, 0.0 on underflow
