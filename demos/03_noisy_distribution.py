"""Walkthrough: how channel noise limits the access-control protocol.

Ebits reach the nodes over absorbing channels: each heralded distribution
attempt fails with probability q, and only M attempts fit inside the
coherence window.  The number of connected nodes is a Markov chain whose
state law is Binomial(n, 1 - q^M), so everything interesting has a closed
form; here we check the formulas against direct Monte Carlo simulation.
"""
import numpy as np

from eacsim import (
    ChannelParams,
    SlotTimeline,
    absorbing_threshold,
    empirical_contention_success,
    empirical_state_distribution,
    simulate_distribution,
    state_prob,
    success_prob,
    success_prob_fully_noisy,
    time_horizon,
)
from eacsim.channel import make_rng, normal_ci, split_rng

# --- the slot budget ---------------------------------------------------------
timeline = SlotTimeline(tau_th=100.0, tau_g=10.0, tau_d=8.0, tau_c=10.0)
M = time_horizon(timeline)
print(f"Coherence window {timeline.tau_th}, generation {timeline.tau_g}, "
      f"contention {timeline.tau_c}, attempt {timeline.tau_d} -> M = {M} attempts\n")

# --- one distribution process, slot by slot ----------------------------------
n, q = 6, 0.5
trace = simulate_distribution(n, q, M, split_rng(11, 0))
print(f"One heralded process, n={n}, q={q}:")
for m, cset in enumerate(trace.connected_sets, start=1):
    print(f"  after slot {m}: connected {cset}")

# --- connected-count law vs. simulation --------------------------------------
trials = 200_000
m_show = 3
hist = empirical_state_distribution(n, q, m_show, trials, make_rng(1))
print(f"\nConnected-count law after {m_show} slots ({trials} traces):")
print("   j   closed form   empirical")
for j in range(n + 1):
    print(f"   {j}   {state_prob(n, j, q, m_show):11.6f}   {hist[j]:.6f}")

# --- contention success under noise ------------------------------------------
k = 2
print(f"\nSuccess probability that all {k} winners are served (independent of n):")
for q_cr in (0.1, 0.3, 0.5, 0.7):
    analytic = success_prob(k, q_cr, m_show)
    params = ChannelParams(q_cr=q_cr, q_e=0.0, M_cr=m_show, M_e=m_show)
    est = empirical_contention_success(8, params, trials, make_rng(2))[k - 1]
    lo, hi = normal_ci(est, trials)
    print(f"  q={q_cr}: formula {analytic:.6f}  simulated {est:.6f}  CI [{lo:.6f}, {hi:.6f}]")

# --- both resources noisy -----------------------------------------------------
params = ChannelParams(q_cr=0.3, q_e=0.3, M_cr=3, M_e=3)
both = success_prob_fully_noisy(k, params)
est = empirical_contention_success(8, params, trials, make_rng(3))[k - 1]
print(f"\nBoth distributions noisy (q_cr=q_e=0.3, common horizon 3):")
print(f"  formula {both:.6f}  simulated {est:.6f}")

# --- how much noise is survivable? --------------------------------------------
print("\nAbsorbing threshold: largest q keeping P[everyone connected] > 1 - 1e-5")
for M_budget in (3, 5, 10, 20):
    q_bar = absorbing_threshold(20, M_budget)
    print(f"  M={M_budget:>2}: q_bar = {q_bar:.4f}")
print("More retry slots buy a dramatically wider tolerable noise range.")
