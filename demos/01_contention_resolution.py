"""Walkthrough: solving entanglement contention with a Dicke state.

Four nodes compete for a shared entangled resource and exactly two must be
granted access.  The orchestrator prepares the 4-qubit Dicke state with
Hamming weight 2, wires its qubits through a contention-resolution encoder
onto ancilla qubits it keeps, and ships one Dicke qubit to each node.  Every
node measures; the two nodes reading 1 won.  The orchestrator learns *which*
two won by measuring its ancillas and looking the word up in a codebook:
no classical signaling, and no node learns another node's outcome.
"""
import numpy as np

from eacsim import (
    DickeSpec,
    anonymity_audit,
    build_binary_encoder,
    build_linear_encoder,
    dicke_state,
    run_contention,
    verify_injectivity,
)
from eacsim.encoder import format_circuit, recover_last_bit_linear
from eacsim.protocol import draw_rounds

spec = DickeSpec(n=4, k=2)

# --- the resource state ----------------------------------------------------
state = dicke_state(spec)
print("Dicke state |D^2_4>: uniform over the weight-2 basis states")
for idx in np.flatnonzero(state.amplitudes):
    bits = format(idx, "04b")
    print(f"  |{bits}>  amplitude {state.amplitudes[idx].real:+.4f}")

# --- the linear encoder ----------------------------------------------------
linear = build_linear_encoder(spec)
print("\nLinear encoder (one CNOT per ancilla, ell = n-1):")
print(format_circuit(linear))

codebook = verify_injectivity(linear, spec)
print("Codebook the orchestrator decodes (ancilla word -> winners):")
for word, winners in codebook:
    d4 = recover_last_bit_linear(word, spec.k)
    print(f"  a={word}  winners={winners}  (recovered d_4={d4})")

# --- a protocol round ------------------------------------------------------
rng = np.random.default_rng(2024)
print("\nFive independent rounds:")
for _ in range(5):
    outcome, views = run_contention(spec, linear, rng)
    assert anonymity_audit(views)
    print(f"  d={outcome.d_vector}  word={outcome.ancilla_word}  winners={outcome.winners}")

# --- fairness over many rounds ----------------------------------------------
# every readout is in the computational basis: the classical sampler draws the same law
rounds = 20_000
_, d_bits, _ = draw_rounds(spec, linear, rounds, rng).rows()
print(f"\nPer-node win rates over {rounds} rounds (expect k/n = 0.5):")
print("  " + "  ".join(f"N{i + 1}: {rate:.3f}" for i, rate in enumerate(d_bits.mean(axis=0))))

# --- fewer ancillas: the binary encoder -------------------------------------
compressed = build_binary_encoder(DickeSpec(6, 2))
table = verify_injectivity(compressed, DickeSpec(6, 2))
print(
    f"\nBinary encoder for n=6, k=2: {compressed.ell} ancillas instead of 5, "
    f"{len(compressed.cnots)} CNOTs, {len(table.entries)} distinct words."
)
