"""Monte Carlo distribution model: traces, invariants, empirical laws."""
import math
import sys
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from eacsim import channel
from eacsim.channel import (
    CONFIDENCE_LEVEL,
    ChannelParams,
    DistributionTrace,
    SlotTimeline,
    empirical_contention_success,
    empirical_full_connection_by_slot,
    empirical_state_distribution,
    make_rng,
    normal_ci,
    simulate_distribution,
    split_rng,
)


def binom_pmf(n, j, p):
    return math.comb(n, j) * p**j * (1 - p) ** (n - j)


def sample_winner_sets(n, k, trials, rng):
    """Reference: (trials, k) uniform weight-k winner sets, 1-based and ascending.

    Argsorts one uniform per (node, trial), drawn node-major like the estimators;
    `empirical_contention_success` takes the same k smallest from the same draw
    without building the sets.
    """
    order = np.argsort(rng.random((n, trials)).T, axis=1)
    return np.sort(order[:, :k], axis=1) + 1


def slot_by_slot(n, q, M, trials, rng):
    """Reference sampler: one attempt per unconnected node per slot.

    Returns the (M, trials, n) connection status after each slot; the
    production samplers draw one uniform per (trial, node) instead.
    """
    connected = np.zeros((trials, n), dtype=bool)
    history = np.empty((M, trials, n), dtype=bool)
    for m in range(M):
        connected |= rng.random((trials, n)) < 1.0 - q
        history[m] = connected
    return history


def assert_same_law(counts_a, counts_b):
    """Chi-square homogeneity of two histograms over the same categories."""
    table = np.array([counts_a, counts_b])
    table = table[:, table.sum(axis=0) > 0]  # categories neither sample reached
    _, p_value, _, _ = chi2_contingency(table)
    assert p_value > 0.001


# ---------------------------------------------------------------- params

def test_channel_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(q_cr=-0.1, q_e=0, M_cr=1, M_e=1)
    with pytest.raises(ValueError):
        ChannelParams(q_cr=0.5, q_e=1.2, M_cr=1, M_e=1)
    with pytest.raises(ValueError):
        ChannelParams(q_cr=0.5, q_e=0.5, M_cr=0, M_e=1)
    assert ChannelParams(q_cr=0.2, q_e=0.4, M_cr=3, M_e=7).m_bar == 3


@pytest.mark.parametrize("n,q,M,match", [(0, 0.5, 3, "need n >= 1, got 0"),
                                         (-2, 0.5, 3, "need n >= 1, got -2"),
                                         (5, -0.5, 3, None), (5, 1.5, 3, None), (5, 0.5, 0, None)])
@pytest.mark.parametrize("estimator", [
    lambda n, q, M: simulate_distribution(n, q, M, make_rng(0)),
    lambda n, q, M: empirical_state_distribution(n, q, M, 100, make_rng(0)),
    lambda n, q, M: empirical_full_connection_by_slot(n, q, M, 100, make_rng(0)),
    lambda n, q, M: empirical_contention_success(n, ChannelParams(q, q, M, M), 100, make_rng(0)),
], ids=["simulate", "state_distribution", "full_connection", "contention_success"])
def test_process_validation(estimator, n, q, M, match):
    # no nodes, a failure probability outside [0, 1] or no slots is refused, not estimated
    with pytest.raises(ValueError, match=match):
        estimator(n, q, M)


@pytest.mark.parametrize("trials", [0, -3])
@pytest.mark.parametrize("estimator", [
    lambda trials: empirical_state_distribution(5, 0.5, 3, trials, make_rng(0)),
    lambda trials: empirical_full_connection_by_slot(5, 0.5, 3, trials, make_rng(0)),
    lambda trials: empirical_contention_success(5, ChannelParams(0.5, 0.5, 3, 3), trials,
                                                make_rng(0)),
], ids=["state_distribution", "full_connection", "contention_success"])
def test_estimators_refuse_no_trials(estimator, trials):
    with pytest.raises(ValueError, match=f"^need trials >= 1, got {trials}$"):
        estimator(trials)


def test_slot_timeline_validation():
    SlotTimeline(tau_th=100, tau_g=10, tau_d=8, tau_c=10)
    with pytest.raises(ValueError):
        SlotTimeline(tau_th=100, tau_g=0, tau_d=8, tau_c=10)


# ---------------------------------------------------------------- traces

def test_noiseless_connects_everyone_in_one_slot():
    trace = simulate_distribution(6, 0.0, 5, make_rng(0))
    assert trace.connected_sets == ((1, 2, 3, 4, 5, 6),)  # heralded: nothing left to attempt


def test_fully_absorbing_channel_connects_nobody():
    trace = simulate_distribution(4, 1.0, 3, make_rng(0))
    assert trace.connected_sets == ((), (), ())  # all M slots, nobody connected


@pytest.mark.parametrize("seed", range(20))
def test_trace_invariants(seed):
    n, m = 6, 5
    trace = simulate_distribution(n, 0.5, m, split_rng(7, seed))
    sets = trace.connected_sets
    assert 1 <= len(sets) <= m
    for before, after in zip(((),) + sets, sets):
        assert set(before) <= set(after)  # no set shrinks: no loss after success
        assert after == tuple(sorted(set(after))) and set(after) <= set(range(1, n + 1))
    if len(sets) < m:
        assert sets[-1] == tuple(range(1, n + 1))  # early stop only when everyone is done
    assert all(len(before) < n for before in sets[:-1])  # and no slot past that


def test_connected_at():
    trace = simulate_distribution(5, 0.4, 6, split_rng(1, 0))
    assert trace.connected_at(1) == trace.connected_sets[0]
    assert trace.connected_at(100) == trace.connected_sets[-1]
    assert DistributionTrace(5, ()).connected_at(3) == ()  # no slot has run
    with pytest.raises(ValueError):
        trace.connected_at(0)


def test_per_node_indicator_law():
    # P(node i still unconnected after m slots) = q^m, checked per node and slot
    n, q, m, traces = 4, 0.6, 3, 4000
    counts = np.zeros((m, n))
    for t in range(traces):
        trace = simulate_distribution(n, q, m, split_rng(123, t))
        for slot in range(1, m + 1):
            connected = trace.connected_at(slot)
            for i in range(1, n + 1):
                counts[slot - 1, i - 1] += i not in connected
    for slot in range(1, m + 1):
        expected = q**slot
        sigma = math.sqrt(expected * (1 - expected) / traces)
        assert np.all(np.abs(counts[slot - 1] / traces - expected) < 3 * sigma)


def test_markov_property_witness():
    # transition frequencies match the one-step law and ignore deeper history
    n, q, traces = 3, 0.5, 40_000
    rng = make_rng(99)
    visits = {}
    for _ in range(traces):
        trace = simulate_distribution(n, q, 3, rng)
        h = len(trace.connected_at(1))
        i = len(trace.connected_at(2))
        j = len(trace.connected_at(3))
        visits.setdefault((h, i), []).append(j)

    def transition(i, j):
        if j < i:
            return 0.0
        return math.comb(n - i, j - i) * (1 - q) ** (j - i) * q ** (n - j)

    # empirical P(j | i) close to the closed form regardless of h
    for i in (1, 2):
        outcomes = [j for (h, ii), js in visits.items() if ii == i for j in js]
        total = len(outcomes)
        for j in range(i, n + 1):
            p = transition(i, j)
            sigma = math.sqrt(p * (1 - p) / total)
            freq = sum(1 for x in outcomes if x == j) / total
            assert abs(freq - p) < 3 * sigma

    # chi-square independence of the slot-3 state from the slot-1 state given slot 2
    i = 2
    hs = sorted({h for (h, ii) in visits if ii == i})
    table = []
    for h in hs:
        js = visits.get((h, i), [])
        row = [sum(1 for x in js if x == j) for j in (2, 3)]
        if sum(row) > 50:
            table.append(row)
    assert len(table) >= 2
    _, p_value, _, _ = chi2_contingency(np.array(table))
    assert p_value > 0.001


# ---------------------------------------------------------------- empirical estimators

def test_state_distribution_noiseless_point_mass():
    hist = empirical_state_distribution(5, 0.0, 3, 1000, make_rng(0))
    assert hist[5] == 1.0 and hist[:5].sum() == 0.0


def test_state_distribution_absorbing_point_mass():
    hist = empirical_state_distribution(5, 1.0, 3, 1000, make_rng(0))
    assert hist[0] == 1.0 and hist[1:].sum() == 0.0


def test_state_distribution_single_slot_binomial():
    n, q, trials = 6, 0.35, 100_000
    hist = empirical_state_distribution(n, q, 1, trials, make_rng(3))
    for j in range(n + 1):
        p = binom_pmf(n, j, 1 - q)
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(hist[j] - p) < 3 * sigma


def test_state_distribution_multi_slot_binomial():
    # after M slots the per-node success probability is 1 - q^M
    n, q, m, trials = 5, 0.5, 3, 100_000
    hist = empirical_state_distribution(n, q, m, trials, make_rng(8))
    assert hist.sum() == pytest.approx(1.0, abs=1e-12)
    for j in range(n + 1):
        p = binom_pmf(n, j, 1 - q**m)
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(hist[j] - p) < 3 * sigma


def test_full_connection_near_certain_at_reference_point():
    # n=10, q=0.4: thirteen attempts make full connection all but certain
    trials = 100_000
    hist = empirical_state_distribution(10, 0.4, 13, trials, make_rng(4))
    p = (1 - 0.4**13) ** 10
    sigma = math.sqrt(p * (1 - p) / trials)
    assert abs(hist[10] - p) < 3 * sigma
    assert hist[10] > 0.999


def test_full_connection_trajectory():
    n, q, m, trials = 4, 0.4, 8, 50_000
    traj = empirical_full_connection_by_slot(n, q, m, trials, make_rng(2))
    assert traj.shape == (m,)
    assert np.all(np.diff(traj) >= 0)
    p_final = (1 - q**m) ** n
    sigma = math.sqrt(p_final * (1 - p_final) / trials)
    assert abs(traj[-1] - p_final) < 3 * sigma
    # every slot against (1 - q^m)^n: Bonferroni over the m points keeps the
    # family-wise false-alarm rate at the two-sided 3-sigma level
    z = NormalDist().inv_cdf(1 - 0.0027 / (2 * m))
    p = (1 - q ** np.arange(1, m + 1)) ** n
    assert np.all(np.abs(traj - p) < z * np.sqrt(p * (1 - p) / trials))


@pytest.mark.parametrize("q, expected", [(0.0, 1.0), (1.0, 0.0)])
def test_full_connection_trajectory_deterministic_channels(q, expected):
    traj = empirical_full_connection_by_slot(5, q, 4, 1000, make_rng(0))
    np.testing.assert_array_equal(traj, np.full(4, expected))


@pytest.mark.parametrize("n, q, m_oracle, m", [(5, 0.5, 3, 3), (8, 0.3, 2, 2), (4, 0.7, 9, 4)])
def test_state_distribution_matches_slot_by_slot_oracle(n, q, m_oracle, m):
    # the oracle runs to its own horizon and is read at slot m
    trials = 20_000
    oracle = slot_by_slot(n, q, m_oracle, trials, make_rng(40))[m - 1]
    counts_oracle = np.bincount(oracle.sum(axis=1), minlength=n + 1)
    hist = empirical_state_distribution(n, q, m, trials, make_rng(41))
    assert_same_law(counts_oracle, np.rint(hist * trials).astype(int))


@pytest.mark.parametrize("n, q, m", [(4, 0.4, 8), (10, 0.2, 5), (3, 0.8, 12)])
def test_full_connection_matches_slot_by_slot_oracle(n, q, m):
    # compare the law of the slot in which the last node connects (m + 1: not by m)
    trials = 20_000
    oracle = slot_by_slot(n, q, m, trials, make_rng(42)).all(axis=2).sum(axis=0)
    traj = empirical_full_connection_by_slot(n, q, m, trials, make_rng(43))
    cdf = np.concatenate(([0], np.rint(traj * trials).astype(int), [trials]))
    counts_oracle = np.bincount(m + 1 - oracle, minlength=m + 2)[1:]
    assert_same_law(counts_oracle, np.diff(cdf))


def test_winner_sets_uniform_and_sorted():
    n, k, trials = 5, 2, 50_000
    sets = sample_winner_sets(n, k, trials, make_rng(3))
    assert sets.shape == (trials, k)
    assert (sets[:, 0] < sets[:, 1]).all()
    assert sets.min() >= 1 and sets.max() <= n
    p = 1 / math.comb(n, k)
    sigma = math.sqrt(p * (1 - p) / trials)
    pairs, counts = np.unique(sets, axis=0, return_counts=True)
    assert len(pairs) == math.comb(n, k)
    assert np.all(np.abs(counts / trials - p) < 3.5 * sigma)


def test_winner_sampler_matches_statevector_law():
    # classical winner sets and protocol rounds vs the Born weights of the dense Dicke state
    from eacsim.encoder import build_linear_encoder
    from eacsim.protocol import draw_rounds
    from eacsim.states import DickeSpec
    from eacsim.statevector import dicke_state

    n, k, trials = 4, 2, 30_000
    spec = DickeSpec(n, k)
    born = np.abs(dicke_state(spec).amplitudes) ** 2
    support = np.flatnonzero(born > 1e-12)
    sigma = np.sqrt(born[support] * (1 - born[support]) / trials)
    classical = np.zeros((trials, n), dtype=np.uint8)
    np.put_along_axis(classical, sample_winner_sets(n, k, trials, make_rng(11)) - 1, 1, axis=1)
    _, d_bits, _ = draw_rounds(spec, build_linear_encoder(spec), trials, make_rng(12)).rows()
    node_weights = 1 << np.arange(n - 1, -1, -1)  # node 1 is the most significant bit
    for d in (classical, d_bits):
        freq = np.bincount(d @ node_weights, minlength=born.size) / trials
        assert np.flatnonzero(freq).tolist() == support.tolist()
        assert np.all(np.abs(freq[support] - born[support]) < 3.5 * sigma)


def test_contention_success_noise_free():
    params = ChannelParams(q_cr=0.0, q_e=0.0, M_cr=3, M_e=3)
    assert empirical_contention_success(6, params, 2000, make_rng(0))[1] == 1.0


@pytest.mark.parametrize("q_cr, q_e", [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
def test_contention_success_absorbing_channel(q_cr, q_e):
    params = ChannelParams(q_cr=q_cr, q_e=q_e, M_cr=3, M_e=3)
    assert empirical_contention_success(6, params, 2000, make_rng(0))[1] == 0.0


def test_contention_success_single_noisy_resource():
    # expected value from direct arithmetic: (1 - 0.3^3)^2
    params = ChannelParams(q_cr=0.3, q_e=0.0, M_cr=3, M_e=3)
    trials = 100_000
    est = empirical_contention_success(8, params, trials, make_rng(21))[1]
    expected = (1 - 0.3**3) ** 2
    sigma = math.sqrt(expected * (1 - expected) / trials)
    assert abs(est - expected) < 3 * sigma


def test_contention_success_both_noisy():
    a = 0.3**3
    expected = (1 - a - a + a * a) ** 2
    params = ChannelParams(q_cr=0.3, q_e=0.3, M_cr=3, M_e=3)
    trials = 100_000
    est = empirical_contention_success(8, params, trials, make_rng(22))[1]
    sigma = math.sqrt(expected * (1 - expected) / trials)
    assert abs(est - expected) < 3 * sigma


def test_contention_success_mismatched_horizons():
    # decision reads the common horizon min(M_cr, M_e) = 2
    params = ChannelParams(q_cr=0.4, q_e=0.4, M_cr=2, M_e=9)
    trials = 100_000
    est = empirical_contention_success(5, params, trials, make_rng(23))[1]
    a = 0.4**2
    expected = ((1 - a) * (1 - a)) ** 2
    sigma = math.sqrt(expected * (1 - expected) / trials)
    assert abs(est - expected) < 3 * sigma


@pytest.mark.parametrize("params", [
    ChannelParams(q_cr=0.4, q_e=0.4, M_cr=2, M_e=9),
    ChannelParams(q_cr=0.5, q_e=0.2, M_cr=6, M_e=3),
    ChannelParams(q_cr=0.3, q_e=0.0, M_cr=3, M_e=3),
])
def test_contention_success_matches_slot_by_slot_oracle(params):
    # the oracle runs both processes to their own horizons and reads slot m_bar
    n, k, trials = 6, 3, 20_000
    rng = make_rng(44)
    conn_cr = slot_by_slot(n, params.q_cr, params.M_cr, trials, rng)[params.m_bar - 1]
    conn_e = slot_by_slot(n, params.q_e, params.M_e, trials, rng)[params.m_bar - 1]
    winners = sample_winner_sets(n, k, trials, rng) - 1
    ok = (np.take_along_axis(conn_cr & conn_e, winners, axis=1).all(axis=1)).sum()
    est = empirical_contention_success(n, params, trials, make_rng(45))[k - 1]
    hits = round(est * trials)
    assert_same_law([ok, trials - ok], [hits, trials - hits])


def test_contention_success_independent_of_n():
    params = ChannelParams(q_cr=0.4, q_e=0.0, M_cr=3, M_e=3)
    trials = 50_000
    estimates = [
        empirical_contention_success(n, params, trials, split_rng(31, n))[1]
        for n in (2, 5, 10)
    ]
    expected = (1 - 0.4**3) ** 2
    sigma = math.sqrt(expected * (1 - expected) / trials)
    for est in estimates:
        assert abs(est - expected) < 3.5 * sigma


# ---------------------------------------------------------------- reproducibility / reporting

def test_split_rng_reproducible_and_disjoint():
    a = split_rng(5, 2).random(4)
    b = split_rng(5, 2).random(4)
    c = split_rng(5, 3).random(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("estimator, per_node_trial", [
    (lambda n, trials, rng: empirical_contention_success(
        n, ChannelParams(q_cr=0.3, q_e=0.2, M_cr=3, M_e=4), trials, rng), 3),
    (lambda n, trials, rng: empirical_state_distribution(n, 0.4, 3, trials, rng), 1),
    (lambda n, trials, rng: empirical_full_connection_by_slot(n, 0.4, 5, trials, rng), 1),
])
def test_estimator_draw_budget(estimator, per_node_trial):
    # one uniform per node per trial per process: the stream ends where a fresh
    # one stands after exactly that many doubles
    n, trials = 7, 301
    used = make_rng(12)
    estimator(n, trials, used)
    fresh = make_rng(12)
    fresh.random(per_node_trial * n * trials)
    assert used.bit_generator.state == fresh.bit_generator.state


class CountingRng:
    """A generator wrapper that counts its ``random`` calls; its state is the generator's."""

    def __init__(self, rng):
        self.rng, self.calls, self.bit_generator = rng, 0, rng.bit_generator

    def random(self, *args, **kwargs):
        self.calls += 1
        return self.rng.random(*args, **kwargs)


@pytest.mark.parametrize("estimator, blocks", [
    (lambda n, trials, rng: empirical_contention_success(
        n, ChannelParams(q_cr=0.3, q_e=0.2, M_cr=3, M_e=4), trials, rng), 4),
    (lambda n, trials, rng: empirical_state_distribution(n, 0.4, 3, trials, rng), 1),
    (lambda n, trials, rng: empirical_full_connection_by_slot(n, 0.4, 5, trials, rng), 1),
], ids=["contention_success", "state_distribution", "full_connection"])
def test_draw_calls_are_bounded_by_bytes_not_nodes(estimator, blocks):
    # many nodes, few trials: rows are drawn a group of DRAW_GROUP_BYTES at a time, not one
    # row a call, so the calls per block are bounded by the block's bytes over the budget;
    # contention reads its winners' block twice, so it counts as two blocks
    n, trials = 200_000, 2
    rng = CountingRng(make_rng(3))
    estimator(n, trials, rng)
    assert rng.calls <= blocks * (math.ceil(8 * n * trials / channel.DRAW_GROUP_BYTES) + 1)


def test_draw_groups_run_once_each_and_land_in_loop_order():
    # the two workers share one group iterator: with a thread switch every microsecond each
    # group still runs exactly once and its result lands at its own index
    taken, interval = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = channel._run_draw_groups(lambda i, g: taken.append(i) or (i, g),
                                          (x * x for x in range(2000)))
    finally:
        sys.setswitchinterval(interval)
    assert results == [(i, i * i) for i in range(2000)] and sorted(taken) == list(range(2000))


def traced_peak(call):
    """Peak bytes traced while ``call()`` runs, after one untraced warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("estimator", [
    lambda n, trials: empirical_state_distribution(n, 0.4, 5, trials, make_rng(0)),
    lambda n, trials: empirical_full_connection_by_slot(n, 0.4, 5, trials, make_rng(0)),
], ids=["state_distribution", "full_connection"])
def test_reduced_estimators_hold_no_node_block(estimator):
    # they keep trials-long arrays and one row-group buffer: 16x the nodes, same peak
    trials = 20_000
    small, large = (traced_peak(lambda: estimator(n, trials)) for n in (4, 64))
    assert large < 1.5 * small


def test_contention_holds_the_status_block_and_row_groups_only():
    # 1 byte a status bit, (n, trials), plus one row group's float buffer and a few
    # trials-long arrays: the winners' block is replayed, never held whole
    n, trials = 64, 20_000
    params = ChannelParams(q_cr=0.3, q_e=0.2, M_cr=3, M_e=4)
    rows = -(-channel.DRAW_GROUP_BYTES // (8 * trials))
    peak = traced_peak(lambda: empirical_contention_success(n, params, trials, make_rng(0)))
    assert peak <= n * trials + 8 * rows * trials + 6 * 8 * trials


def reference_status(n, q, m, trials, rng):
    """Status after slot m; the block is drawn only when 1 - q^m is neither 0 nor 1."""
    p = 1.0 - q**m
    return np.full((n, trials), p == 1.0) if p in (0.0, 1.0) else rng.random((n, trials)) < p


def reference_state_distribution(n, q, M, trials, rng):
    """Reference that draws only an uncertain block."""
    connected = reference_status(n, q, M, trials, rng)
    return np.bincount(connected.sum(axis=0), minlength=n + 1) / trials


def reference_full_connection_by_slot(n, q, M, trials, rng):
    """Reference that draws only an uncertain block; a certain one is its exact curve."""
    probs = 1.0 - q ** np.arange(1, M + 1)
    if 1.0 - q in (0.0, 1.0):  # as the estimator decides it: 1 - q is 1.0 for q < 2^-53 too
        return probs
    last = np.sort(rng.random((n, trials)).max(axis=0))
    return np.searchsorted(last, probs, side="left") / trials


def reference_contention_success(n, params, trials, rng):
    """Reference that draws only the uncertain status blocks, then the winners'; every k = 1..n."""
    m = params.m_bar
    both = (reference_status(n, params.q_cr, m, trials, rng)
            & reference_status(n, params.q_e, m, trials, rng))
    uniforms = rng.random((n, trials))
    bad = (uniforms + both).min(axis=0)
    return [float(((uniforms < bad).sum(axis=0) >= k).mean()) for k in range(1, n + 1)]


_REFERENCE = {
    empirical_state_distribution: reference_state_distribution,
    empirical_full_connection_by_slot: reference_full_connection_by_slot,
    empirical_contention_success: reference_contention_success,
}


@pytest.mark.parametrize("bit_generator", [
    np.random.PCG64DXSM, np.random.PCG64, np.random.Philox, np.random.MT19937, np.random.SFC64,
], ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("estimator, qs", [
    *[(empirical_state_distribution, (q,)) for q in (0.0, 1.0, 0.4)],
    *[(empirical_full_connection_by_slot, (q,)) for q in (0.0, 1.0, 0.4)],
    *[(empirical_contention_success, qs) for qs in [
        (0.0, 0.4), (1.0, 0.4), (0.4, 0.0), (0.4, 1.0), (0.0, 0.0), (1.0, 1.0), (0.0, 1.0),
        (0.4, 0.3)]],
], ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else v.__name__)
def test_certain_blocks_draw_nothing(estimator, qs, bit_generator):
    # a block whose outcome is certain is not drawn, on any numpy generator: the
    # estimate and the draws after it match a reference that draws only the
    # uncertain blocks; the last case of each estimator draws all its blocks
    n, trials = 7, 301
    if estimator is empirical_contention_success:
        args = (n, ChannelParams(*qs, M_cr=3, M_e=4), trials)
    else:
        args = (n, *qs, 5, trials)
    used, drawn = (np.random.Generator(bit_generator(12)) for _ in range(2))
    np.testing.assert_array_equal(estimator(*args, used), _REFERENCE[estimator](*args, drawn))
    np.testing.assert_array_equal(used.random(8), drawn.random(8))


def test_estimator_bit_reproducible():
    params = ChannelParams(q_cr=0.3, q_e=0.2, M_cr=3, M_e=3)
    e1 = empirical_contention_success(6, params, 20_000, make_rng(7))[1]
    e2 = empirical_contention_success(6, params, 20_000, make_rng(7))[1]
    assert e1 == e2


def test_z_literal_is_the_two_sided_normal_quantile():
    # channel writes the quantile as a literal so that importing it loads no statistics
    assert channel._Z == NormalDist().inv_cdf(0.5 + CONFIDENCE_LEVEL / 2)


def test_normal_ci_brackets():
    lo, hi = normal_ci(0.5, 10_000)
    assert lo < 0.5 < hi
    z2 = 2.5758293035489004**2 / 10_000  # Wilson score interval, z at 99 %
    assert hi - lo == pytest.approx(2 * math.sqrt(z2 * 0.25 + z2 * z2 / 4) / (1 + z2), rel=1e-9)
    lo, hi = normal_ci(0.0, 100)
    assert lo == 0.0 < hi
    z2 = 2.5758293035489004**2 / 100
    assert hi == pytest.approx(z2 / (1 + z2), rel=1e-9)  # Wilson upper bound at p_hat = 0
