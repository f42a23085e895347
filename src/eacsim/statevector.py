"""Minimal dense statevector simulator.

Provides exactly what the access-control protocol needs: computational-basis
states, the H/X/Z/I gates, CNOT, single-qubit measurement, joint-outcome
probabilities, and fidelity.  Qubits are numbered 1..num_qubits and the basis
is enumerated big-endian: qubit 1 is the most significant bit of the basis
index, so ``basis_state(3, [1, 0, 0])`` puts amplitude 1 at index 4.

A StateVector is a value: operations return new instances and never mutate
their input, so instances are safe to share across threads.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 24          # dense vector of 2^24 amplitudes (~256 MB complex128)
ATOL = 1e-10             # per-component amplitude comparison tolerance

_GATES_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0),
}


class CapacityError(ValueError):
    """Requested register exceeds the dense-simulation qubit cap."""


@dataclass(eq=False)
class StateVector:
    """Dense complex amplitude vector over ``num_qubits`` qubits."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if not 1 <= self.num_qubits <= MAX_QUBITS:
            raise CapacityError(
                f"num_qubits={self.num_qubits} outside supported range 1..{MAX_QUBITS}"
            )
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (2**self.num_qubits,):
            raise ValueError(
                f"amplitude vector has shape {self.amplitudes.shape}, "
                f"expected ({2**self.num_qubits},)"
            )

    @property
    def norm_squared(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def tensor(self) -> np.ndarray:
        """View of the amplitudes as a rank-num_qubits tensor (axis i-1 = qubit i)."""
        return self.amplitudes.reshape([2] * self.num_qubits)


@dataclass(frozen=True)
class MeasurementRecord:
    """One computational-basis measurement: which qubit, the sampled outcome,
    and the pre-measurement Born probability of that outcome."""

    qubit: int
    outcome: int
    probability: float


def _check_qubit(state: StateVector, qubit: int) -> int:
    if not 1 <= qubit <= state.num_qubits:
        raise ValueError(f"qubit {qubit} out of bounds 1..{state.num_qubits}")
    return qubit - 1  # tensor axis


def _zero_amplitudes(num_qubits: int) -> np.ndarray:
    """2^num_qubits zero amplitudes; CapacityError before allocating past MAX_QUBITS."""
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise CapacityError(f"num_qubits={num_qubits} outside supported range 1..{MAX_QUBITS}")
    return np.zeros(2**num_qubits, dtype=complex)


def basis_state(num_qubits: int, bitstring) -> StateVector:
    """Computational-basis state |b1 b2 ... bq> with bit 1 most significant."""
    bits = list(bitstring)
    if len(bits) != num_qubits:
        raise ValueError(f"bitstring length {len(bits)} != num_qubits {num_qubits}")
    if any(b not in (0, 1) for b in bits):
        raise ValueError("bitstring entries must be 0 or 1")
    amps = _zero_amplitudes(num_qubits)
    index = 0
    for b in bits:
        index = (index << 1) | b
    amps[index] = 1.0
    return StateVector(num_qubits, amps)


def apply_1q(state: StateVector, gate: str, target: int) -> StateVector:
    """Apply a named single-qubit gate (H, X, Z, or I) to ``target``."""
    ax = _check_qubit(state, target)
    try:
        mat = _GATES_1Q[gate]
    except KeyError:
        raise ValueError(f"unknown gate {gate!r}; expected one of {sorted(_GATES_1Q)}")
    t = state.tensor()
    out = np.tensordot(mat, t, axes=([1], [ax]))
    out = np.moveaxis(out, 0, ax)
    return StateVector(state.num_qubits, np.ascontiguousarray(out).reshape(-1))


def apply_cnot(state: StateVector, control: int, target: int) -> StateVector:
    """XOR the target bit with the control bit on every basis component."""
    if control == target:
        raise ValueError("CNOT control and target must differ")
    ca = _check_qubit(state, control)
    ta = _check_qubit(state, target)
    t = state.tensor().copy()

    def block(cv, tv):
        idx = [slice(None)] * state.num_qubits
        idx[ca], idx[ta] = cv, tv
        return tuple(idx)

    t[block(1, 0)], t[block(1, 1)] = t[block(1, 1)].copy(), t[block(1, 0)].copy()
    return StateVector(state.num_qubits, t.reshape(-1))


def _marginal_p1(state: StateVector, axis: int) -> float:
    probs = np.abs(state.tensor()) ** 2
    other = tuple(i for i in range(state.num_qubits) if i != axis)
    p = probs.sum(axis=other) if other else probs
    return float(p[1])


def project(state: StateVector, target: int, outcome: int) -> tuple[float, StateVector]:
    """Condition on ``target`` reading ``outcome``.

    Returns the Born probability of the outcome and the renormalized
    post-measurement state.  Raises if the branch has (numerically) zero
    probability or the state is degenerate.
    """
    ax = _check_qubit(state, target)
    if outcome not in (0, 1):
        raise ValueError("outcome must be 0 or 1")
    total = state.norm_squared
    if total < 1e-12:
        raise ValueError("degenerate all-zero state")
    p1 = _marginal_p1(state, ax)
    p = p1 if outcome == 1 else total - p1
    if p < 1e-12:
        raise ValueError(f"outcome {outcome} on qubit {target} has zero probability")
    t = state.tensor().copy()
    idx = [slice(None)] * state.num_qubits
    idx[ax] = 1 - outcome
    t[tuple(idx)] = 0.0
    return p, StateVector(state.num_qubits, t.reshape(-1) / np.sqrt(p))


def measure(state: StateVector, target: int, rng) -> tuple[MeasurementRecord, StateVector]:
    """Measure ``target`` in the computational basis, sampling by the Born rule.

    Consumes exactly one uniform draw from ``rng``.
    """
    ax = _check_qubit(state, target)
    total = state.norm_squared
    if total < 1e-12:
        raise ValueError("degenerate all-zero state")
    p1 = _marginal_p1(state, ax)
    outcome = 1 if rng.random() < p1 else 0
    p = p1 if outcome == 1 else total - p1
    _, collapsed = project(state, target, outcome)
    return MeasurementRecord(target, outcome, p), collapsed


def outcome_probability(state: StateVector, qubits, bits) -> float:
    """Born probability of the joint outcome ``bits`` on ``qubits``."""
    qubits, bits = list(qubits), list(bits)
    if len(qubits) != len(bits):
        raise ValueError("qubits and bits must have the same length")
    if len(set(qubits)) != len(qubits):
        raise ValueError("duplicate qubit in joint outcome")
    probs = np.abs(state.tensor()) ** 2
    idx = [slice(None)] * state.num_qubits
    for q, b in zip(qubits, bits):
        ax = _check_qubit(state, q)
        if b not in (0, 1):
            raise ValueError("bits entries must be 0 or 1")
        idx[ax] = b
    return float(probs[tuple(idx)].sum())


def conditional_state(state: StateVector, fixed: dict, keep) -> StateVector:
    """Sub-state over ``keep`` qubits given definite values for ``fixed`` qubits.

    ``fixed`` maps qubit -> bit; ``keep`` lists the remaining qubits in the
    order they should appear in the result.  Together they must cover the
    register.  The slice is renormalized.
    """
    keep = list(keep)
    if sorted(list(fixed) + keep) != list(range(1, state.num_qubits + 1)):
        raise ValueError("fixed and keep must partition the qubits")
    idx = [slice(None)] * state.num_qubits
    for q, b in fixed.items():
        idx[_check_qubit(state, q)] = b
    sub = state.tensor()[tuple(idx)]
    # remaining axes are the kept qubits in ascending order; reorder to `keep`
    order = [sorted(keep).index(q) for q in keep]
    sub = np.transpose(sub, order)
    amps = sub.reshape(-1)
    norm = np.linalg.norm(amps)
    if norm < 1e-12:
        raise ValueError("conditioning branch has zero probability")
    return StateVector(len(keep), amps / norm)


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 (global-phase invariant by construction)."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("fidelity requires equal qubit counts")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def states_equal(a: StateVector, b: StateVector, atol: float = ATOL) -> bool:
    """Component-wise equality after quotienting out the global phase."""
    if a.num_qubits != b.num_qubits:
        return False
    inner = np.vdot(a.amplitudes, b.amplitudes)
    if abs(inner) < atol:
        return False
    phase = inner / abs(inner)
    return bool(np.max(np.abs(b.amplitudes - phase * a.amplitudes)) <= atol)
