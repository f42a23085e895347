"""Monte Carlo simulation of heralded, slotted, noisy entanglement distribution.

Each of n nodes needs one ebit from the orchestrator.  Per slot, every
not-yet-connected node gets an independent distribution attempt that fails
with probability q (absorbing-channel model); heralding tells the
orchestrator who is connected, so successful nodes are never re-attempted.
The process runs for at most M slots.  This module is the empirical
counterpart of the closed forms in `markov`: the two are kept strictly
independent so Monte Carlo results can validate the analytics.

A node's first successful slot is Geometric(1 - q), so the node is
connected by slot m exactly when one uniform U < 1 - q^m (inverse-transform
sampling).  Every sampler therefore draws one uniform per (trial, node) per
process instead of one per slot.

Reproducibility: experiments key a counter-based Philox stream by the master
seed.  `split_rng(seed, i)` yields the i-th trial's private stream (disjoint
counter blocks), and the vectorized estimators draw one (trials, n) block of
uniforms per process whose row t belongs to trial t, so results are
bit-identical for a given master seed no matter how trials would be scheduled.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

CONFIDENCE_LEVEL = 0.99


@dataclass(frozen=True)
class ChannelParams:
    """Failure probabilities and time horizons for the two distribution processes."""

    q_cr: float
    q_e: float
    M_cr: int
    M_e: int

    def __post_init__(self):
        for name in ("q_cr", "q_e"):
            q = getattr(self, name)
            if not 0.0 <= q <= 1.0:
                raise ValueError(f"{name}={q} must be in [0, 1]")
        for name in ("M_cr", "M_e"):
            m = getattr(self, name)
            if m < 1:
                raise ValueError(f"{name}={m} must be >= 1")

    @property
    def m_bar(self) -> int:
        """Common decision horizon: the smaller of the two time horizons."""
        return min(self.M_cr, self.M_e)


@dataclass(frozen=True)
class SlotTimeline:
    """Slot structure of one access-control round (all times in one unit).

    tau_th: coherence window, tau_g: multipartite generation time,
    tau_d: one distribution attempt, tau_c: contention-resolution time.
    """

    tau_th: float
    tau_g: float
    tau_d: float
    tau_c: float

    def __post_init__(self):
        for name in ("tau_th", "tau_g", "tau_d", "tau_c"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class DistributionTrace:
    """Realization of one distribution process.

    ``slots[m-1]`` is a bitmask (bit i-1 = node i) of the nodes whose ebit
    arrived in slot m; ``connected_sets[m-1]`` is the sorted tuple of all
    nodes connected after slot m.  The trace may stop early once every node
    is connected, so it can be shorter than M.
    """

    n: int
    slots: tuple[int, ...]
    connected_sets: tuple[tuple[int, ...], ...]

    def connected_at(self, m: int) -> tuple[int, ...]:
        """Connected set after slot m (1-based); constant past an early stop."""
        if m < 1:
            raise ValueError("slot index is 1-based")
        if not self.connected_sets:
            return ()
        return self.connected_sets[min(m, len(self.connected_sets)) - 1]


def make_rng(master_seed: int) -> np.random.Generator:
    """Counter-based stream for a whole experiment."""
    return np.random.Generator(np.random.Philox(key=master_seed))

def split_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Private stream for one trial: disjoint counter block of the master stream."""
    return np.random.Generator(np.random.Philox(key=master_seed).jumped(trial_index))


def _connect_prob(q: float, M: int) -> np.ndarray:
    """P(a node is connected by slot m) = 1 - q^m, for m = 1..M (0 at q=1, 1 at q=0)."""
    return 1.0 - q ** np.arange(1, M + 1)


def _connected_by(n: int, q: float, m: int, trials: int, rng) -> np.ndarray:
    """(trials, n) boolean connection status after slot m: one uniform per (trial, node)."""
    return rng.random((trials, n)) < 1.0 - q**m


def simulate_distribution(n: int, q: float, M: int, rng) -> DistributionTrace:
    """Run one heralded distribution process for n nodes over at most M slots."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q={q} must be in [0, 1]")
    if M < 1:
        raise ValueError(f"M={M} must be >= 1")
    # first-success slot per node; M + 1 means "not connected by slot M"
    first = np.searchsorted(_connect_prob(q, M), rng.random(n), side="right") + 1
    nodes = np.arange(1, n + 1)
    horizon = range(1, min(M, int(first.max())) + 1)
    slots = tuple(sum(1 << (i - 1) for i in nodes[first == m].tolist()) for m in horizon)
    sets = tuple(tuple(nodes[first <= m].tolist()) for m in horizon)
    return DistributionTrace(n=n, slots=slots, connected_sets=sets)


def empirical_full_connection_by_slot(n: int, q: float, M: int, trials: int, rng) -> np.ndarray:
    """Fraction of trials with all n nodes connected by slot m, for m = 1..M."""
    if trials < 1:
        raise ValueError(f"trials={trials} must be >= 1")
    # every node is connected by slot m iff the largest of its trial's uniforms is < 1 - q^m
    last = np.sort(rng.random((trials, n)).max(axis=1))
    return np.searchsorted(last, _connect_prob(q, M), side="left") / trials


def empirical_state_distribution(n: int, q: float, M: int, trials: int, rng) -> np.ndarray:
    """Frequency of ending with j connected nodes, j = 0..n (sums to 1)."""
    if trials < 1:
        raise ValueError(f"trials={trials} must be >= 1")
    connected = _connected_by(n, q, M, trials, rng)
    counts = np.bincount(connected.sum(axis=1), minlength=n + 1)
    return counts / trials


def sample_winner_sets(n: int, k: int, trials: int, rng) -> np.ndarray:
    """(trials, k) node indices: uniform weight-k winner sets.

    Classical sampling of the contention outcome law (every k-subset equally
    likely); the tests check it and `protocol.sample_contention_outcomes`
    against the same law.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    order = np.argsort(rng.random((trials, n)), axis=1)
    return np.sort(order[:, :k], axis=1) + 1


def empirical_contention_success(n: int, k: int, params: ChannelParams, trials: int, rng) -> float:
    """Fraction of trials in which the winner set is fully connected.

    Per trial: draw a uniform weight-k winner set, sample each node's status
    in the two independent distribution processes at the common horizon
    m_bar, and count success when every winner holds both ebits.
    """
    if trials < 1:
        raise ValueError(f"trials={trials} must be >= 1")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    m_bar = params.m_bar
    # the decision reads slot m_bar; slots past it cannot change the outcome
    conn_cr = _connected_by(n, params.q_cr, m_bar, trials, rng)
    conn_e = _connected_by(n, params.q_e, m_bar, trials, rng)
    winners = sample_winner_sets(n, k, trials, rng) - 1
    ok_cr = np.take_along_axis(conn_cr, winners, axis=1).all(axis=1)
    ok_e = np.take_along_axis(conn_e, winners, axis=1).all(axis=1)
    return float((ok_cr & ok_e).mean())


def normal_ci(p_hat: float, trials: int) -> tuple[float, float]:
    """Wilson score interval at CONFIDENCE_LEVEL for a Bernoulli mean.

    Unlike the normal approximation it keeps a positive width at p_hat in
    {0, 1} (Wilson 1927; Brown, Cai & DasGupta 2001).  The result is clamped
    so that 0 <= lo <= p_hat <= hi <= 1 holds exactly in floating point.
    """
    p_hat = float(p_hat)
    z2 = NormalDist().inv_cdf(0.5 + CONFIDENCE_LEVEL / 2.0) ** 2 / trials
    center = (p_hat + z2 / 2.0) / (1.0 + z2)
    half = math.sqrt(z2 * p_hat * (1.0 - p_hat) + z2 * z2 / 4.0) / (1.0 + z2)
    return min(max(0.0, center - half), p_hat), max(min(1.0, center + half), p_hat)
