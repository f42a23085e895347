"""Shared test helpers."""
from __future__ import annotations

import math

import numpy as np

from eacsim import statevector as sv
from eacsim.markov import transition_prob
from eacsim.states import _slice_columns


class ForcedRng:
    """Stand-in random stream yielding a preset sequence of uniforms.

    `measure` consumes one uniform per call and compares it against P(1),
    so 0.25 forces outcome 1 and 0.75 forces outcome 0 whenever P(1) = 0.5.
    """

    def __init__(self, values):
        self._values = list(values)

    def random(self, size=None):
        if size is not None:
            raise NotImplementedError("ForcedRng only supports scalar draws")
        return self._values.pop(0)


def force_bits(bits):
    """Uniform sequence that drives fair-coin measurements to `bits`."""
    return ForcedRng([0.25 if b else 0.75 for b in bits])


def weight_k_indices(n, k):
    """Reference slice order: basis indices of the n-bit strings of weight k, ascending.

    Ascending index order equals lexicographic order of the big-endian
    bitstrings.  Uses Gosper's hack to step between same-weight integers.
    """
    if k == 0:
        return [0]
    x = (1 << k) - 1
    out = []
    while x < 1 << n:
        out.append(x)
        u = x & -x
        v = x + u
        x = v | (((v ^ x) // u) >> 2)
    return out


def index_bits(index, n):
    """Big-endian bit tuple (d_1, ..., d_n) of a basis index."""
    return tuple((index >> (n - i)) & 1 for i in range(1, n + 1))


def basis_state(num_qubits, bitstring):
    """Computational-basis state |b1 b2 ... bq> with bit 1 most significant."""
    bits = list(bitstring)
    if len(bits) != num_qubits:
        raise ValueError(f"bitstring length {len(bits)} != num_qubits {num_qubits}")
    if any(b not in (0, 1) for b in bits):
        raise ValueError("bitstring entries must be 0 or 1")
    amps = sv._zero_amplitudes(num_qubits)
    index = 0
    for b in bits:
        index = (index << 1) | b
    amps[index] = 1.0
    return sv.StateVector(num_qubits, amps)


def outcome_probability(state, qubits, bits):
    """Born probability of the joint outcome ``bits`` on ``qubits``."""
    qubits, bits = list(qubits), list(bits)
    if len(qubits) != len(bits):
        raise ValueError("qubits and bits must have the same length")
    if len(set(qubits)) != len(qubits):
        raise ValueError("duplicate qubit in joint outcome")
    probs = np.abs(state.tensor()) ** 2
    idx = [slice(None)] * state.num_qubits
    for q, b in zip(qubits, bits):
        ax = sv._check_qubit(state, q)
        if b not in (0, 1):
            raise ValueError("bits entries must be 0 or 1")
        idx[ax] = b
    return float(probs[tuple(idx)].sum())


def states_equal(a, b, atol=1e-10):
    """Component-wise equality after quotienting out the global phase."""
    if a.num_qubits != b.num_qubits:
        return False
    inner = np.vdot(a.amplitudes, b.amplitudes)
    if abs(inner) < atol:
        return False
    phase = inner / abs(inner)
    return bool(np.max(np.abs(b.amplitudes - phase * a.amplitudes)) <= atol)


def encode_word(circuit, d_bits):
    """Ancilla word G.d mod 2 of a circuit for a data outcome (d_1, ..., d_n)."""
    d = np.asarray(list(d_bits), dtype=np.uint8)
    if d.shape != (circuit.n,):
        raise ValueError(f"expected {circuit.n} data bits, got {d.shape}")
    return tuple(int(b) for b in (encoder_matrix(circuit) @ d) & 1)


def encoder_matrix(circuit):
    """The ell x n GF(2) matrix realized by the CNOT array (multiplicity mod 2)."""
    g = np.zeros((circuit.ell, circuit.n), dtype=np.uint8)
    np.bitwise_xor.at(g, (circuit.cnots[:, 1], circuit.cnots[:, 0] - 1), 1)
    return g


def unranked_rows(circuit, k, ranks):
    """Reference rounds of these ``ranks``, each unranked on its own: (rows x k) winners from
    `states._slice_columns`, (rows x n) data bits and (rows x ell) words G.d mod 2, uint8."""
    winners = _slice_columns(circuit.n, k, ranks)
    d_bits = np.zeros((len(ranks), circuit.n), dtype=np.uint8)
    np.put_along_axis(d_bits, winners.astype(np.intp), 1, axis=1)
    a_bits = (d_bits.astype(np.int64) @ encoder_matrix(circuit).T) % 2
    return winners, d_bits, a_bits.astype(np.uint8)


def cnot_count_bound(n):
    """CNOT-count bound for the k = 1 binary encoder: ceil(log2 n) * 2^(ceil(log2 n)-1).

    Exact when n is a power of two, an overestimate otherwise.  It does not
    bound k >= 2: the (16,2) encoder at ell = 8 has 39 CNOTs, against 32.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    ell = math.ceil(math.log2(n))
    return ell * 2 ** (ell - 1)


def indicator_pmf(q, m):
    """(P[node still unconnected], P[node connected]) after m attempts: (q^m, 1-q^m)."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q={q} must be in [0, 1]")
    if m < 1:
        raise ValueError(f"m={m} must be >= 1")
    p0 = q**m
    return p0, 1.0 - p0


def transition_matrix(n, q):
    """(n+1) x (n+1) row-stochastic, upper-triangular transition matrix of the chain."""
    t = np.zeros((n + 1, n + 1))
    for i in range(n + 1):
        for j in range(i, n + 1):
            t[i, j] = transition_prob(n, i, j, q)
    return t
