"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance and time budget is pinned here; the statistical
criteria use the fixed master seed 0 and are fully deterministic.
"""
import math
import time
from itertools import combinations

import numpy as np
import pytest
from scipy.stats import binomtest, chisquare

from conftest import cnot_count_bound, encode_word, force_bits, transition_matrix

from eacsim import statevector as sv
from eacsim.channel import ChannelParams, empirical_contention_success, split_rng
from eacsim.cli import _FIGURES, main
from eacsim.encoder import (
    build_binary_encoder,
    build_linear_encoder,
    recover_last_bit_linear,
    verify_injectivity,
)
from eacsim.markov import state_prob, success_prob, success_prob_fully_noisy
from eacsim.protocol import draw_rounds
from eacsim.states import DickeSpec
from eacsim.statevector import bell_pair, canonicalize_bell, extract_epr

MASTER_SEED = 0
Z99 = 2.5758293035489004          # two-sided 99% normal quantile
Z_TREND = 3.290526731491926       # two-sided quantile at significance 0.001
GATE_ALPHA = 0.001                # family-wise level of the per-draw-group gate
GATE_GROUPS = 35                  # draw groups of the five figures' Monte Carlo overlays

FIG3B_TABLE = {
    (1, 1, 0, 0): (1, 1, 0),
    (1, 0, 1, 0): (1, 0, 1),
    (0, 1, 1, 0): (0, 1, 1),
    (1, 0, 0, 1): (1, 0, 0),
    (0, 1, 0, 1): (0, 1, 0),
    (0, 0, 1, 1): (0, 0, 1),
}


def report(number, name, started):
    print(f"ACCEPTANCE {number} ({name}): PASS [{time.perf_counter() - started:.2f}s]")


def test_criterion_1_codebook_golden():
    started = time.perf_counter()
    spec = DickeSpec(4, 2)
    circuit = build_linear_encoder(spec)
    codebook = verify_injectivity(circuit, spec)
    assert len(codebook.entries) == 6
    for d, word in FIG3B_TABLE.items():
        assert encode_word(circuit, d) == word                   # d -> a mapping
        winners = tuple(i + 1 for i in range(4) if d[i])
        assert codebook.entries[word] == winners                 # word -> winners
        assert recover_last_bit_linear(word, 2) == d[3]          # parity recovery
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(1, "codebook golden", started)


def test_criterion_2_dicke_fairness():
    started = time.perf_counter()
    runs = 100_000
    for case_idx, (n, k) in enumerate([(4, 2), (6, 2), (4, 1), (5, 3)]):
        spec = DickeSpec(n, k)
        _, d, _ = draw_rounds(
            spec, build_linear_encoder(spec), runs, split_rng(MASTER_SEED, case_idx)
        ).rows()
        assert (d.sum(axis=1) == k).all()
        p_subset = 1.0 / math.comb(n, k)
        sigma_subset = math.sqrt(p_subset * (1 - p_subset) / runs)
        outcomes, counts = np.unique(d, axis=0, return_counts=True)
        assert len(outcomes) == math.comb(n, k)
        assert np.max(np.abs(counts / runs - p_subset)) < 3 * sigma_subset
        p_node = k / n
        sigma_node = math.sqrt(p_node * (1 - p_node) / runs)
        assert np.max(np.abs(d.mean(axis=0) - p_node)) < 3 * sigma_node
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(2, "dicke fairness", started)


def test_criterion_3_encoder_orthogonality():
    started = time.perf_counter()
    # linear encoders: every (n, k) with n <= 8
    for n in range(2, 9):
        for k in range(1, n):
            spec = DickeSpec(n, k)
            codebook = verify_injectivity(build_linear_encoder(spec), spec)
            assert len(codebook.entries) == math.comb(n, k)
    # binary encoders, k = 1, n <= 16: compressed width, exact count at powers of 2
    for n in range(2, 17):
        spec = DickeSpec(n, 1)
        circuit = build_binary_encoder(spec)
        assert circuit.ell == max(1, math.ceil(math.log2(n)))
        codebook = verify_injectivity(circuit, spec)
        assert len(codebook.entries) == n
        if n & (n - 1) == 0:
            assert len(circuit.cnots) == cnot_count_bound(n)
    # synthesized binary encoder for (6, 2) at the compressed width
    spec = DickeSpec(6, 2)
    circuit = build_binary_encoder(spec)
    assert circuit.ell == 4
    codebook = verify_injectivity(circuit, spec)
    assert len(codebook.entries) == 15
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(3, "encoder orthogonality", started)


def test_criterion_4_bell_parity_exhaustive():
    started = time.perf_counter()
    phi = {0: bell_pair(+1), 1: bell_pair(-1)}
    for n in range(3, 9):
        for winners in combinations(range(1, n + 1), 2):
            d = [1 if i in winners else 0 for i in range(1, n + 1)]
            for branch in range(2 ** (n - 2)):
                bits = [(branch >> t) & 1 for t in range(n - 2)]
                outcome, pair = extract_epr(n, d, force_bits(bits))
                parity = sum(bits) % 2
                assert outcome.g_parity == parity
                assert sv.fidelity(phi[parity], pair) >= 1 - 1e-10
                canon = canonicalize_bell(pair, outcome.winners, outcome.g_parity)
                assert sv.fidelity(phi[0], canon) >= 1 - 1e-10
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(4, "bell parity exhaustive", started)


def test_criterion_5_markov_closed_forms():
    started = time.perf_counter()
    q_grid = [round(0.1 * i, 1) for i in range(11)]
    # (a) row-stochastic transition matrices
    for n in range(1, 11):
        for q in q_grid:
            t = transition_matrix(n, q)
            assert np.max(np.abs(t.sum(axis=1) - 1.0)) < 1e-12
            assert np.all(np.tril(t, k=-1) == 0.0)
    # (b) matrix-power evolution equals the closed form
    for n in range(1, 11):
        for q in q_grid:
            t = transition_matrix(n, q)
            dist = np.zeros(n + 1)
            dist[0] = 1.0
            for m in range(1, 21):
                dist = dist @ t
                closed = np.array([state_prob(n, j, q, m) for j in range(n + 1)])
                assert np.max(np.abs(dist - closed)) < 1e-10
    # (c) total-probability sum collapses to the closed form
    for n in range(1, 13):
        for k in range(1, n + 1):
            for q in q_grid:
                p = 1 - q**3
                total = sum(
                    math.comb(n - k, j - k) * p**j * (q**3) ** (n - j)
                    for j in range(k, n + 1)
                )
                assert abs(total - success_prob(k, q, 3)) < 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(5, "markov closed forms", started)


def test_criterion_6_monte_carlo_vs_analytics():
    started = time.perf_counter()
    n, k, trials = 8, 2, 100_000
    inside = 0
    points = 0
    named = {}
    trial_idx = 0
    for m in (3, 10):
        for q_cr in (0.0, 0.3, 0.5, 0.7):
            for q_e in (0.0, 0.3, 0.5, 0.7):
                params = ChannelParams(q_cr=q_cr, q_e=q_e, M_cr=m, M_e=m)
                a, b = q_cr**m, q_e**m
                analytic = (1 - a - b + a * b) ** k
                est = empirical_contention_success(
                    n, params, trials, split_rng(MASTER_SEED, trial_idx)
                )[k - 1]
                trial_idx += 1
                points += 1
                half = Z99 * math.sqrt(analytic * (1 - analytic) / trials)
                if analytic - half <= est <= analytic + half:
                    inside += 1
                if m == 3 and q_cr == 0.3 and q_e in (0.0, 0.3):
                    named[(q_cr, q_e)] = est
    assert points == 32
    assert inside >= math.ceil(0.95 * points)
    # the two named points bracket the derived values with their reported CIs
    for (q_cr, q_e), expected in (((0.3, 0.0), 0.946729), ((0.3, 0.3), 0.896296)):
        est = named[(q_cr, q_e)]
        half = Z99 * math.sqrt(est * (1 - est) / trials)
        assert est - half <= expected <= est + half
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    report(6, "monte carlo vs analytics", started)


def _tail_cells(total, tails):
    """A histogram cut at ascending thresholds t_1 < ... < t_r, from its tails
    P(X >= t_i) (or their counts): the cells below t_1, between neighbouring
    thresholds and from t_r up."""
    return -np.diff([total, *tails, 0])


def _pooled(observed, expected):
    """Neighbouring cells pooled left to right until each expects at least 5;
    a last cell still short joins the one before it."""
    obs, exp = [0], [0.0]
    for o, e in zip(observed, expected):
        if exp[-1] >= 5:
            obs.append(0)
            exp.append(0.0)
        obs[-1] += o
        exp[-1] += e
    if len(exp) > 1 and exp[-1] < 5:
        o, e = obs.pop(), exp.pop()
        obs[-1] += o
        exp[-1] += e
    return obs, exp


def _draw_group_histograms(trials):
    """{(figure, *group): (observed cell counts, exact cell probabilities)} for every
    Monte Carlo draw group `reproduce` makes at ``trials`` trials and MASTER_SEED.

    A group's published thresholds cut its one draw into a multinomial histogram:
    P(all connected by slot m) for fig8 and fig8l, P(below >= k) for fig9 and fig11
    (a trial succeeds for k iff at least k nodes drew below every node lacking an
    ebit) and the whole pmf for fig10.  The exact law is the figure's analytic column.
    """
    cuts = {}
    for figure, reproduce in _FIGURES.items():
        for name, _, rows in reproduce(trials, MASTER_SEED):
            if not name.endswith("_mc.csv"):
                continue
            for row in rows:
                *prefix, estimate = row[:-4]
                count = round(estimate * trials)
                assert abs(estimate * trials - count) < 1e-6
                # fig8 rows lead with their threshold M, every other figure's rows end with it
                group, cut = (prefix[1:], prefix[0]) if figure == "fig8" else (prefix[:-1], prefix[-1])
                cuts.setdefault((figure, *group), []).append((cut, count))
    histograms = {}
    for (figure, *group), points in cuts.items():
        thresholds, counts = zip(*sorted(points))
        if figure in ("fig8", "fig8l"):  # tails: P(not all connected by slot m)
            n, q = group
            observed = _tail_cells(trials, [trials - c for c in counts])
            exact = _tail_cells(1.0, [1.0 - state_prob(n, n, q, m) for m in thresholds])
        elif figure == "fig10":  # the pmf over j = 0..n
            m, n, q = group
            observed = np.array(counts)
            exact = np.array([state_prob(n, j, q, m) for j in thresholds])
        else:  # fig9 (q_e = 0) and fig11
            n, m, *qs = group
            params = ChannelParams(q_cr=qs[0], q_e=qs[1] if len(qs) > 1 else 0.0, M_cr=m, M_e=m)
            observed = _tail_cells(trials, counts)
            exact = _tail_cells(1.0, [success_prob_fully_noisy(k, params) for k in thresholds])
        histograms[(figure, *group)] = (observed, exact)
    return histograms


def test_criterion_6b_calibrated_gate_per_draw_group():
    # every draw group of the figures' overlays against its exact law: one chi-square
    # test each (an exact binomial one where the cells pool into one), Bonferroni
    # over the groups at family-wise level GATE_ALPHA
    started = time.perf_counter()
    trials = 20_000  # reproduce's default, at its default seed
    histograms = _draw_group_histograms(trials)
    assert len(histograms) == GATE_GROUPS
    p_values = {}
    for key, (observed, exact) in histograms.items():
        assert observed.sum() == trials and (observed >= 0).all()
        if np.count_nonzero(exact) == 1:  # a certain law: the draw must match it exactly
            assert (observed == exact * trials).all(), key
            continue
        obs, exp = _pooled(observed, exact * trials)
        if len(obs) > 1:
            p_values[key] = chisquare(obs, exp).pvalue
        else:  # one pooled cell (fig11, M = 10, q_cr = 0.3): test the count below the top threshold
            p_values[key] = binomtest(int(observed[:-1].sum()), trials, exact[:-1].sum()).pvalue
    worst = min(p_values, key=p_values.get)
    threshold = GATE_ALPHA / GATE_GROUPS
    assert p_values[worst] > threshold, (worst, p_values[worst])
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report("6b", f"calibrated gate per draw group, smallest p {p_values[worst]:.2g} at "
                 f"{worst} > {threshold:.2g}", started)


def test_criterion_7_figure_data(tmp_path, capsys):
    started = time.perf_counter()
    import csv

    for figure in ("fig8", "fig8l", "fig9", "fig10", "fig11"):
        assert main(["reproduce", "--figure", figure, "--trials", "20000",
                     "--seed", str(MASTER_SEED), "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()

    def rows(name):
        with open(tmp_path / name, newline="") as fh:
            return list(csv.DictReader(fh))

    # near-certain full connection at (n=10, q=0.4) after 13 slots
    spot = [r for r in rows("fig8l.csv") if r["q"] == "0.4" and r["m"] == "13"]
    assert len(spot) == 1 and float(spot[0]["p_full"]) >= 0.999
    # threshold for (n=20, M=20) matches the algebraic inversion
    closed_form = (1 - (1 - 1e-5) ** (1 / 20)) ** (1 / 20)
    thr = {r["M"]: float(r["q_bar"]) for r in rows("fig8_thresholds.csv")}
    assert abs(thr["20"] - closed_form) < 1e-3
    # success curves decrease with the winner count for every q
    fig9 = rows("fig9.csv")
    for q in sorted({r["q"] for r in fig9}):
        curve = [float(r["p_s"]) for r in fig9 if r["q"] == q]
        assert all(later < earlier for earlier, later in zip(curve, curve[1:]))
    # state-probability rows normalize
    fig10 = rows("fig10.csv")
    for n in ("5", "10", "15", "20"):
        for q in ("0.1", "0.3", "0.5", "0.7", "0.9"):
            total = sum(float(r["p_state"]) for r in fig10 if r["n"] == n and r["q"] == q)
            assert abs(total - 1.0) < 1e-10
    # every dataset and Monte Carlo overlay landed on disk
    for name in ("fig8.csv", "fig8_mc.csv", "fig8l_mc.csv", "fig9_mc.csv",
                 "fig10_mc.csv", "fig11.csv", "fig11_mc.csv"):
        assert (tmp_path / name).exists()
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(7, "figure data", started)


def test_criterion_8_n_invariance():
    started = time.perf_counter()
    trials = 100_000
    params = ChannelParams(q_cr=0.4, q_e=0.0, M_cr=3, M_e=3)
    estimates = {}
    for i, n in enumerate((2, 4, 6, 8, 10)):
        estimates[n] = empirical_contention_success(
            n, params, trials, split_rng(MASTER_SEED, i)
        )[1]
    # pairwise two-proportion z-tests at significance 0.001: no pair differs
    for n1, n2 in combinations(estimates, 2):
        p1, p2 = estimates[n1], estimates[n2]
        pooled = (p1 + p2) / 2
        z = abs(p1 - p2) / math.sqrt(pooled * (1 - pooled) * 2 / trials)
        assert z < Z_TREND
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(8, "n-invariance", started)
