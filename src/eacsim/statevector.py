"""Dense statevector simulator: the quantum reference and test oracle.

Everything that builds or reads amplitudes lives here: the register
(`StateVector`, at most MAX_QUBITS qubits), the H/X/Z/I gates, CNOT,
single-qubit measurement, conditioning and fidelity; the Dicke and GHZ
resource states; the encoder's CNOT array run on a register
(`apply_encoder`); and the reference rounds `run_contention`,
`extract_epr`, `canonicalize_bell`, `run_round` and `bell_pair`.  No
command of the CLI runs this module: every readout of a round is in the
computational basis (the losers' after one Hadamard each), so `protocol`
samples the same laws classically, and the tests hold those samplers to
this module.

Qubits are numbered 1..num_qubits and the basis is enumerated big-endian:
qubit 1 is the most significant bit of the basis index, so the state
|1 0 0> has amplitude 1 at index 4.  A StateVector is a value: operations
return new instances and never mutate their input, so instances are safe to
share across threads.

Memory: each call allocates, at its peak, a multiple of the 16 * 2^q bytes
of a q-qubit register on top of its input (tracemalloc, 14-19 qubits):
`apply_cnot` 1.5x, `apply_1q` 2.0x (1.0x on qubit 1), `measure` 2.0x,
`conditional_state` 0.5x, `apply_encoder` 2.5x of its output register.  At
MAX_QUBITS a register is 256 MiB, so `measure` and its input hold about
3 x 256 MiB.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .encoder import CapacityError, EncoderCircuit, decode, verify_injectivity
from .protocol import BellState, ContentionOutcome, NodeView, WrongWinnerCount, build_u_d
from .states import DickeSpec, _slice_columns

MAX_QUBITS = 24          # dense vector of 2^24 amplitudes (~256 MB complex128)

_GATES_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0),
}


@dataclass(eq=False)
class StateVector:
    """Dense complex amplitude vector over ``num_qubits`` qubits."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _check_register(self.num_qubits)
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


def _check_register(num_qubits: int) -> None:
    """CapacityError unless a dense register of num_qubits qubits is within 1..MAX_QUBITS."""
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise CapacityError(f"num_qubits={num_qubits} outside supported range 1..{MAX_QUBITS}")


def _zero_amplitudes(num_qubits: int) -> np.ndarray:
    """2^num_qubits zero amplitudes; CapacityError before allocating past MAX_QUBITS."""
    _check_register(num_qubits)
    return np.zeros(2**num_qubits, dtype=complex)


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


def measure(state: StateVector, target: int, rng) -> tuple[MeasurementRecord, StateVector]:
    """Measure ``target`` in the computational basis, sampling by the Born rule.

    Consumes exactly one uniform draw from ``rng``.  Returns the outcome with
    its Born probability and the renormalized post-measurement state.  Raises
    if the state is degenerate or the drawn branch has (numerically) zero
    probability.
    """
    ax = _check_qubit(state, target)
    if state.norm_squared < 1e-12:
        raise ValueError("degenerate all-zero state")
    other = tuple(i for i in range(state.num_qubits) if i != ax)  # () sums over nothing
    p1 = float((np.abs(state.tensor()) ** 2).sum(axis=other)[1])
    outcome = 1 if rng.random() < p1 else 0
    p = p1 if outcome == 1 else state.norm_squared - p1
    if p < 1e-12:
        raise ValueError(f"outcome {outcome} on qubit {target} has zero probability")
    t = state.tensor().copy()
    idx = [slice(None)] * state.num_qubits
    idx[ax] = 1 - outcome
    t[tuple(idx)] = 0.0
    post = StateVector(state.num_qubits, t.reshape(-1) / np.sqrt(p))
    return MeasurementRecord(target, outcome, p), post


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


def dicke_state(spec: DickeSpec) -> StateVector:
    """Even superposition of every weight-k computational basis state."""
    amps = _zero_amplitudes(spec.n)
    columns = _slice_columns(spec.n, spec.k).T  # summed one at a time: int64 temporaries of C(n,k)
    support = sum(1 << (spec.n - 1 - col.astype(np.int64)) for col in columns)
    amps[support] = 1.0 / math.sqrt(spec.num_outcomes)
    return StateVector(spec.n, amps)


def ghz_state(n: int) -> StateVector:
    """(|0...0> + |1...1>)/sqrt(2) on n qubits."""
    if n < 2:
        raise ValueError(f"GHZ state needs n >= 2, got {n}")
    amps = _zero_amplitudes(n)
    amps[0] = amps[-1] = 1.0 / math.sqrt(2.0)
    return StateVector(n, amps)


def bell_pair(sign: int) -> StateVector:
    """|Phi+> for sign=+1, |Phi-> for sign=-1."""
    amps = np.zeros(4, dtype=complex)
    amps[0] = 1 / np.sqrt(2.0)
    amps[3] = sign / np.sqrt(2.0)
    return StateVector(2, amps)


def apply_encoder(dicke: StateVector, circuit: EncoderCircuit) -> StateVector:
    """Attach ell |0> ancillas to a Dicke state and run the CNOT array.

    Returns the (n+ell)-qubit contention-resolution state: the quantum
    counterpart of the classical GF(2) path of `encoder.verify_injectivity`.
    """
    if dicke.num_qubits != circuit.n:
        raise ValueError(f"state has {dicke.num_qubits} qubits, circuit expects {circuit.n}")
    state = StateVector(circuit.n + circuit.ell, _zero_amplitudes(circuit.n + circuit.ell))
    support = np.flatnonzero(dicke.amplitudes)
    state.amplitudes[support << circuit.ell] = dicke.amplitudes[support]
    for control, target in circuit.cnots.tolist():
        state = apply_cnot(state, control, circuit.n + 1 + target)
    return state


def run_contention(
    spec: DickeSpec, encoder: EncoderCircuit, rng
) -> tuple[ContentionOutcome, list[NodeView]]:
    """One full contention round on the dense register.

    Verifies the encoder (building its codebook), prepares the
    contention-resolution state, measures the n data qubits then the ell
    ancillas, and decodes the word.  Returns the orchestrator record and the
    per-node views.
    """
    codebook = verify_injectivity(encoder, spec)
    state = apply_encoder(dicke_state(spec), encoder)
    bits = []
    for qubit in range(1, spec.n + encoder.ell + 1):  # the data qubits, then the ancillas
        record, state = measure(state, qubit, rng)
        bits.append(record.outcome)
    d_vector, word = tuple(bits[: spec.n]), tuple(bits[spec.n :])
    winners = tuple(i for i in range(1, spec.n + 1) if d_vector[i - 1])
    decoded = decode(codebook, word)
    if decoded != winners:
        raise RuntimeError(
            f"ancilla word decoded to {decoded} but measured winners are {winners}"
        )
    views = [NodeView(node_id=i, d=d_vector[i - 1]) for i in range(1, spec.n + 1)]
    outcome = ContentionOutcome(d_vector=d_vector, winners=winners, ancilla_word=word)
    return outcome, views


def extract_epr(
    n: int, d_vector, rng, views: list[NodeView] | None = None
) -> tuple[ContentionOutcome, StateVector]:
    """Distill an EPR pair for the two winners out of an n-qubit GHZ state.

    Applies the local unitaries of `protocol.build_u_d`, measures every
    loser qubit (the Hadamard rotation being already applied), and
    conditions the register on those outcomes.  The surviving two-qubit
    state on the winner positions (ascending node order) is |Phi+> when the
    loser-outcome parity is even and |Phi-> when odd.  If ``views`` is
    given, each loser's view gets its ``g`` outcome filled in.
    """
    d_vector = tuple(int(d) for d in d_vector)
    if len(d_vector) != n:
        raise ValueError(f"d_vector length {len(d_vector)} != n {n}")
    winners = tuple(i for i in range(1, n + 1) if d_vector[i - 1])
    if len(winners) != 2:
        raise WrongWinnerCount(f"need exactly 2 winners, got {len(winners)}")
    state = ghz_state(n)
    for qubit, gate in enumerate(build_u_d(d_vector), start=1):
        if gate != "I":
            state = apply_1q(state, gate, qubit)
    g_outcomes: dict[int, int] = {}
    for qubit in range(1, n + 1):
        if d_vector[qubit - 1] == 0:
            record, state = measure(state, qubit, rng)
            g_outcomes[qubit] = record.outcome
    parity = sum(g_outcomes.values()) % 2
    pair = conditional_state(state, fixed=g_outcomes, keep=list(winners))
    if views is not None:
        for view in views:
            if view.node_id in g_outcomes:
                view.g = g_outcomes[view.node_id]
    outcome = ContentionOutcome(
        d_vector=d_vector,
        winners=winners,
        bell_state=BellState.PHI_MINUS if parity else BellState.PHI_PLUS,
        g_parity=parity,
    )
    return outcome, pair


def canonicalize_bell(state: StateVector, winners, g_parity: int) -> StateVector:
    """Turn the extracted pair into |Phi+> regardless of the loser parity.

    The correction (a Z on the lower-indexed winner, qubit 1 of the pair
    state) is optional: the orchestrator may instead just record which Bell
    state the winners hold.
    """
    if state.num_qubits != 2:
        raise ValueError("expected the extracted 2-qubit pair state")
    if len(tuple(winners)) != 2:
        raise ValueError("winners must be a pair")
    if g_parity % 2 == 0:
        return state
    return apply_1q(state, "Z", 1)


def run_round(
    spec: DickeSpec, encoder: EncoderCircuit, rng
) -> tuple[ContentionOutcome, list[NodeView], StateVector | None]:
    """Contention plus, for k = 2, EPR extraction; merges the two records."""
    outcome, views = run_contention(spec, encoder, rng)
    pair = None
    if spec.k == 2:
        epr_outcome, pair = extract_epr(spec.n, outcome.d_vector, rng, views=views)
        outcome.bell_state = epr_outcome.bell_state
        outcome.g_parity = epr_outcome.g_parity
    return outcome, views, pair
