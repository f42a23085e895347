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
process instead of one per slot.  The contention estimator draws one more per
(trial, node) and takes the nodes with the k smallest as the winners: every
k-subset equally likely, for any C(n,k), with no winner list built.  One draw
serves every k = 1..n: a trial succeeds for k iff at least k nodes drew below
every node lacking an ebit.

Reproducibility: experiments seed a PCG64DXSM stream with the master seed
(any non-negative integer).  `split_rng(seed, i)` yields the i-th point's
private stream: the master stream jumped i times, each jump as far as
(phi - 1)·2^128 draws, so substreams start far apart in the 2^128 period.
The estimators take ``rng`` as any `numpy.random.Generator` and read it
through ``rng.random``, plus one save and restore of ``rng.bit_generator.state``
per contention call: per process, a node-major (n, trials) block of uniforms
whose column t belongs to trial t, drawn from the same stream a group of
consecutive rows (about DRAW_GROUP_BYTES) at a time into one reused buffer and
reduced over nodes, so results are bit-identical for a given seed and
generator.  A process whose 1 - q^m is exactly 0 or 1, which no uniform can
change, draws nothing and leaves ``rng`` where it was.  The winners' block is
always drawn and never held whole: it is drawn twice from the same state, once
for the smallest uniform of a node lacking an ebit and once to count the nodes
below it, and ``rng`` ends after it.  A block numpy cannot allocate raises
MemoryError naming n and trials.  `_run_draw_groups` runs independent estimator
calls, each on its own stream, two at a time (numpy draws and reduces without
the GIL) and returns their results in loop order.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

CONFIDENCE_LEVEL = 0.99
DRAW_GROUP_BYTES = 1 << 18  # uniforms drawn and reduced at a time (L2); results do not depend on it
# NormalDist().inv_cdf(0.5 + CONFIDENCE_LEVEL / 2), the two-sided normal quantile, as a
# literal: importing statistics (with fractions and decimal) slows every CLI start
_Z = 2.5758293035489


@dataclass(frozen=True)
class ChannelParams:
    """Failure probabilities and time horizons for the two distribution processes."""

    q_cr: float
    q_e: float
    M_cr: int
    M_e: int

    def __post_init__(self):
        for name in ("q_cr", "q_e"):
            _check_unit(name, getattr(self, name))
        for name in ("M_cr", "M_e"):
            _check_count(name, getattr(self, name))

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

    ``connected_sets[m-1]`` is the sorted tuple of all nodes connected after
    slot m; the nodes whose ebit arrived in slot m are those it adds to the
    set before.  The trace may stop early once every node is connected, so
    it can be shorter than M.
    """

    n: int
    connected_sets: tuple[tuple[int, ...], ...]

    def connected_at(self, m: int) -> tuple[int, ...]:
        """Connected set after slot m (1-based); constant past an early stop."""
        if m < 1:
            raise ValueError("slot index is 1-based")
        if not self.connected_sets:
            return ()
        return self.connected_sets[min(m, len(self.connected_sets)) - 1]


def make_rng(master_seed: int) -> np.random.Generator:
    """PCG64DXSM stream for a whole experiment, seeded with a non-negative integer."""
    return np.random.Generator(np.random.PCG64DXSM(master_seed))

def split_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Private stream for one point: the master stream jumped ``trial_index`` times."""
    return np.random.Generator(np.random.PCG64DXSM(master_seed).jumped(trial_index))


def _connect_prob(q: float, M: int) -> np.ndarray:
    """P(a node is connected by slot m) = 1 - q^m, for m = 1..M (0 at q=1, 1 at q=0)."""
    return 1.0 - q ** np.arange(1, M + 1)


def _empty(rows: int, trials: int, n: int, dtype=float) -> np.ndarray:
    """np.empty((rows, trials), dtype), or MemoryError naming n and trials if numpy refuses it."""
    try:
        return np.empty((rows, trials), dtype)
    except (ValueError, MemoryError):  # too large to address, or to allocate
        raise MemoryError(f"no room for {rows} x {trials} values: n={n}, trials={trials}") from None


def _row_groups(n: int, trials: int) -> list[slice]:
    """Consecutive node rows, DRAW_GROUP_BYTES of float64 a group rounded up to whole rows."""
    size = min(n, -(-DRAW_GROUP_BYTES // (8 * trials)))
    return [slice(start, min(start + size, n)) for start in range(0, n, size)]


def _uniform_rows(n: int, trials: int, rng):
    """(rows, uniforms) per row group, drawn in stream order into one buffer allocated now."""
    groups = _row_groups(n, trials)
    buffer = _empty(groups[0].stop, trials, n)
    return ((rows, rng.random(out=buffer[:rows.stop - rows.start])) for rows in groups)


def _status_rows(n: int, q: float, m: int, trials: int, rng):
    """(rows, connection status after slot m) per row group; a certain 1 - q^m draws nothing."""
    p = 1.0 - q**m
    if p in (0.0, 1.0):
        return [(slice(0, n), np.broadcast_to(p == 1.0, (n, trials)))]
    return ((rows, uniforms < p) for rows, uniforms in _uniform_rows(n, trials, rng))


def _check_unit(name: str, q: float) -> None:
    """Raise ValueError unless the probability ``name`` = q lies in [0, 1]."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"{name}={q} must be in [0, 1]")


def _check_count(name: str, value: int) -> None:
    """Raise ValueError unless the count ``name`` = value is at least 1."""
    if value < 1:
        raise ValueError(f"need {name} >= 1, got {value}")


def _check_process(n: int, q: float, M: int, trials: int) -> None:
    """Raise ValueError unless n >= 1 nodes, 0 <= q <= 1, M >= 1 slots and trials >= 1, in turn."""
    _check_count("n", n)
    _check_unit("q", q)
    _check_count("M", M)
    _check_count("trials", trials)


def simulate_distribution(n: int, q: float, M: int, rng) -> DistributionTrace:
    """Run one heralded distribution process for n nodes over at most M slots."""
    _check_process(n, q, M, 1)
    # first-success slot per node; M + 1 means "not connected by slot M"
    first = np.searchsorted(_connect_prob(q, M), rng.random(n), side="right") + 1
    nodes = np.arange(1, n + 1)
    horizon = range(1, min(M, int(first.max())) + 1)
    sets = tuple(tuple(nodes[first <= m].tolist()) for m in horizon)
    return DistributionTrace(n=n, connected_sets=sets)


def empirical_full_connection_by_slot(n: int, q: float, M: int, trials: int, rng) -> np.ndarray:
    """Fraction of trials with all n nodes connected by slot m, for m = 1..M.

    ``rng`` is any `numpy.random.Generator`; a certain process (q in {0, 1}) draws nothing.
    """
    _check_process(n, q, M, trials)
    probs = _connect_prob(q, M)
    if probs[0] in (0.0, 1.0):  # then so is each 1 - q^m (q^m <= q): each fraction is its value
        return probs
    # every node is connected by slot m iff the largest of its trial's uniforms is < 1 - q^m
    groups = _uniform_rows(n, trials, rng)  # its buffer is the first allocation
    last = np.zeros(trials)
    for _, uniforms in groups:
        np.maximum(last, uniforms.max(axis=0), out=last)
    last.sort()
    return np.searchsorted(last, probs, side="left") / trials


def empirical_state_distribution(n: int, q: float, M: int, trials: int, rng) -> np.ndarray:
    """Frequency of ending with j connected nodes, j = 0..n (sums to 1).

    ``rng`` is any `numpy.random.Generator`; a certain process draws nothing.
    """
    _check_process(n, q, M, trials)
    statuses = _status_rows(n, q, M, trials, rng)
    connected = sum(status.sum(axis=0, dtype=np.min_scalar_type(n)) for _, status in statuses)
    return np.bincount(connected, minlength=n + 1) / trials


def empirical_contention_success(n: int, params: ChannelParams, trials: int, rng) -> np.ndarray:
    """Fraction of trials whose k winners all hold both ebits, at entry k-1 for k = 1..n.

    Per trial: sample each node's status in the two independent distribution
    processes at the common horizon m_bar and draw one uniform per node; the k
    winners, a uniform weight-k set, hold the k smallest.  One draw serves every
    k: entry k-1 is the float a draw for that k alone would give.  ``rng`` is any
    `numpy.random.Generator`; a certain process draws nothing.  The winners' block
    is always drawn, a row group at a time and twice: ``rng.bit_generator.state``
    is saved before it and restored after the first pass, so the (n, trials) status
    block and one row group's floats are held, not the block, and ``rng`` ends after it.
    """
    _check_process(n, params.q_cr, params.m_bar, trials)  # ChannelParams checked q and M
    m_bar = params.m_bar
    # the decision reads slot m_bar; slots past it cannot change the outcome
    both = _empty(n, trials, n, bool)
    for rows, status in _status_rows(n, params.q_cr, m_bar, trials, rng):
        both[rows] = status
    for rows, status in _status_rows(n, params.q_e, m_bar, trials, rng):
        both[rows] &= status
    # winners (u <= the k-th smallest, ties included) all hold both ebits iff at least k
    # nodes drew below `bad`, the smallest uniform of a node lacking one: adding `both`
    # lifts the others to [1, 2), past every uniform, so `bad` >= 1 when there is none
    before_winners, bad = rng.bit_generator.state, np.full(trials, 2.0)
    for rows, uniforms in _uniform_rows(n, trials, rng):
        np.minimum(bad, np.add(uniforms, both[rows], out=uniforms).min(axis=0), out=bad)
    del both, uniforms  # the replay needs neither: its buffer replaces the first pass's
    rng.bit_generator.state = before_winners  # the same uniforms again, to count those below `bad`
    below = sum((uniforms < bad).sum(axis=0, dtype=np.min_scalar_type(n))
                for _, uniforms in _uniform_rows(n, trials, rng))
    # trials with below >= k, for k = n..1: a reverse cumulative sum of the histogram
    return np.cumsum(np.bincount(below, minlength=n + 1)[:0:-1])[::-1] / trials


def _run_draw_groups(call, groups) -> list:
    """[call(i, group) for i, group in enumerate(groups)], run on this thread and one more.

    Each worker takes the next group in loop order and stores its result at that group's
    index.  After a failure no group starts; both workers end before this returns or
    raises, and the lowest-index failure is raised, the one the serial loop would raise.
    """
    groups = list(groups)
    results, failures = [None] * len(groups), {}
    order, lock = enumerate(groups), threading.Lock()

    def work():
        while True:
            with lock:
                taken = None if failures else next(order, None)
            if taken is None:
                return
            try:
                results[taken[0]] = call(*taken)
            except BaseException as exc:  # raised on the calling thread, below
                failures[taken[0]] = exc

    helper = threading.Thread(target=work)
    helper.start()
    work()
    helper.join()
    if failures:
        raise failures[min(failures)]
    return results


def normal_ci(p_hat: float, trials: int) -> tuple[float, float]:
    """Wilson score interval at CONFIDENCE_LEVEL for a Bernoulli mean.

    Unlike the normal approximation it keeps a positive width at p_hat in
    {0, 1} (Wilson 1927; Brown, Cai & DasGupta 2001).  The result is clamped
    so that 0 <= lo <= p_hat <= hi <= 1 holds exactly in floating point.
    """
    p_hat = float(p_hat)
    z2 = _Z**2 / trials
    center = (p_hat + z2 / 2.0) / (1.0 + z2)
    half = math.sqrt(z2 * p_hat * (1.0 - p_hat) + z2 * z2 / 4.0) / (1.0 + z2)
    return min(max(0.0, center - half), p_hat), max(min(1.0, center + half), p_hat)
