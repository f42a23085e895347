"""Statevector simulator: known vectors, Born statistics, invariants, memory, layering."""
import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import basis_state, outcome_probability, states_equal

import eacsim
from eacsim import statevector as sv
from eacsim.encoder import build_linear_encoder
from eacsim.states import DickeSpec
from eacsim.statevector import dicke_state

S2 = 1.0 / np.sqrt(2.0)


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return sv.StateVector(n, amps / np.linalg.norm(amps))


# ---------------------------------------------------------------- basis_state

def test_basis_state_00():
    np.testing.assert_allclose(basis_state(2, [0, 0]).amplitudes, [1, 0, 0, 0], atol=1e-15)


def test_basis_state_big_endian():
    st = basis_state(3, [1, 1, 1])
    assert st.amplitudes[7] == 1.0
    assert np.count_nonzero(st.amplitudes) == 1
    # qubit 1 is the most significant bit
    st = basis_state(3, [1, 0, 0])
    assert st.amplitudes[4] == 1.0


def test_basis_state_single_qubit():
    np.testing.assert_allclose(basis_state(1, [1]).amplitudes, [0, 1], atol=1e-15)


def test_basis_state_validation():
    with pytest.raises(ValueError):
        basis_state(2, [0])
    with pytest.raises(ValueError):
        basis_state(2, [0, 2])
    with pytest.raises(sv.CapacityError):
        basis_state(25, [0] * 25)


def test_statevector_shape_checked():
    with pytest.raises(ValueError):
        sv.StateVector(2, np.zeros(3, dtype=complex))
    with pytest.raises(sv.CapacityError):
        sv.StateVector(0, np.zeros(1, dtype=complex))


# ---------------------------------------------------------------- gates

def test_hadamard_on_zero():
    st = sv.apply_1q(basis_state(1, [0]), "H", 1)
    np.testing.assert_allclose(st.amplitudes, [S2, S2], atol=1e-12)


def test_identity_gate():
    st = random_state(3, 1)
    out = sv.apply_1q(st, "I", 2)
    np.testing.assert_allclose(out.amplitudes, st.amplitudes, atol=1e-15)


def test_hadamard_involution():
    st = random_state(4, 2)
    out = sv.apply_1q(sv.apply_1q(st, "H", 3), "H", 3)
    np.testing.assert_allclose(out.amplitudes, st.amplitudes, atol=1e-12)


@pytest.mark.parametrize("gate", ["H", "X", "Z"])
@pytest.mark.parametrize("seed", [3, 4])
def test_gate_involutions(gate, seed):
    st = random_state(5, seed)
    out = sv.apply_1q(sv.apply_1q(st, gate, 2), gate, 2)
    assert np.max(np.abs(out.amplitudes - st.amplitudes)) < 1e-12


def test_cnot_involution():
    st = random_state(5, 5)
    out = sv.apply_cnot(sv.apply_cnot(st, 2, 4), 2, 4)
    assert np.max(np.abs(out.amplitudes - st.amplitudes)) < 1e-12


def test_cnot_basis_action():
    st = sv.apply_cnot(basis_state(2, [1, 0]), 1, 2)
    np.testing.assert_allclose(st.amplitudes, basis_state(2, [1, 1]).amplitudes, atol=1e-15)
    st = sv.apply_cnot(basis_state(2, [0, 0]), 1, 2)
    np.testing.assert_allclose(st.amplitudes, basis_state(2, [0, 0]).amplitudes, atol=1e-15)


def test_cnot_bell_preparation():
    plus = sv.apply_1q(basis_state(2, [0, 0]), "H", 1)
    bell = sv.apply_cnot(plus, 1, 2)
    np.testing.assert_allclose(bell.amplitudes, [S2, 0, 0, S2], atol=1e-12)


def test_gate_errors():
    st = basis_state(2, [0, 0])
    with pytest.raises(ValueError):
        sv.apply_1q(st, "H", 3)
    with pytest.raises(ValueError):
        sv.apply_1q(st, "Q", 1)
    with pytest.raises(ValueError):
        sv.apply_cnot(st, 1, 1)


@pytest.mark.parametrize("seed", range(4))
def test_norm_preserved_random_circuit(seed):
    rng = np.random.default_rng(seed)
    st = random_state(5, seed + 10)
    for _ in range(30):
        if rng.random() < 0.5:
            st = sv.apply_1q(st, rng.choice(["H", "X", "Z", "I"]), int(rng.integers(1, 6)))
        else:
            a, b = rng.choice(5, size=2, replace=False) + 1
            st = sv.apply_cnot(st, int(a), int(b))
    assert abs(st.norm_squared - 1.0) < 1e-10


# ---------------------------------------------------------------- measurement

def test_measure_deterministic_one():
    record, post = sv.measure(basis_state(1, [1]), 1, np.random.default_rng(0))
    assert record.outcome == 1
    assert record.probability == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(post.amplitudes, [0, 1], atol=1e-12)


def test_measure_bell_collapse():
    bell = sv.StateVector(2, np.array([S2, 0, 0, S2]))
    rng = np.random.default_rng(11)
    record, post = sv.measure(bell, 1, rng)
    assert record.probability == pytest.approx(0.5, abs=1e-12)
    expected = [1, 0, 0, 0] if record.outcome == 0 else [0, 0, 0, 1]
    np.testing.assert_allclose(post.amplitudes, expected, atol=1e-12)


def test_measure_statistics_three_sigma():
    # 3-sigma binomial bound on the empirical frequency of outcome 1
    plus = sv.apply_1q(basis_state(1, [0]), "H", 1)
    rng = np.random.default_rng(42)
    shots = 100_000
    ones = sum(sv.measure(plus, 1, rng)[0].outcome for _ in range(shots))
    sigma = np.sqrt(0.25 / shots)
    assert abs(ones / shots - 0.5) < 3 * sigma


def test_measure_degenerate_state_rejected():
    dead = sv.StateVector.__new__(sv.StateVector)
    dead.num_qubits = 1
    dead.amplitudes = np.zeros(2, dtype=complex)
    with pytest.raises(ValueError, match=r"degenerate all-zero state"):
        sv.measure(dead, 1, np.random.default_rng(0))


# ---------------------------------------------------------------- probabilities

def test_outcome_probability_trivial():
    assert outcome_probability(basis_state(1, [0]), [1], [0]) == pytest.approx(1.0)


def test_outcome_probability_dicke_joint():
    st = dicke_state(DickeSpec(4, 2))
    p = outcome_probability(st, [1, 2, 3, 4], [1, 1, 0, 0])
    assert p == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_outcome_probability_completeness():
    st = random_state(3, 9)
    total = sum(
        outcome_probability(st, [1, 2, 3], [(i >> 2) & 1, (i >> 1) & 1, i & 1])
        for i in range(8)
    )
    assert total == pytest.approx(1.0, abs=1e-10)


def test_outcome_probability_validation():
    st = random_state(2, 1)
    with pytest.raises(ValueError):
        outcome_probability(st, [1, 2], [0])
    with pytest.raises(ValueError):
        outcome_probability(st, [1, 1], [0, 0])


# ---------------------------------------------------------------- fidelity / equality

def test_fidelity_self():
    st = random_state(3, 21)
    assert sv.fidelity(st, st) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_orthogonal():
    assert sv.fidelity(basis_state(1, [0]), basis_state(1, [1])) == pytest.approx(0.0)


def test_fidelity_dimension_mismatch():
    with pytest.raises(ValueError):
        sv.fidelity(basis_state(1, [0]), basis_state(2, [0, 0]))


def test_fidelity_global_phase_invariant():
    st = random_state(2, 33)
    rotated = sv.StateVector(2, st.amplitudes * np.exp(1j * 0.7))
    assert sv.fidelity(st, rotated) == pytest.approx(1.0, abs=1e-12)


def test_states_equal_up_to_phase():
    st = random_state(2, 34)
    rotated = sv.StateVector(2, st.amplitudes * np.exp(1j * 1.3))
    assert states_equal(st, rotated)
    other = basis_state(2, [0, 1])
    assert not states_equal(st, other) or sv.fidelity(st, other) > 1 - 1e-10


def test_conditional_state_orders_kept_qubits():
    # |1>|0>|psi> with psi on qubits (1,3): fixing qubit 2 keeps (1,3) in requested order
    st = sv.apply_cnot(sv.apply_1q(basis_state(3, [0, 0, 0]), "H", 1), 1, 3)
    sub = sv.conditional_state(st, fixed={2: 0}, keep=[1, 3])
    np.testing.assert_allclose(sub.amplitudes, [S2, 0, 0, S2], atol=1e-12)
    with pytest.raises(ValueError):
        sv.conditional_state(st, fixed={2: 1}, keep=[1, 3])  # zero-probability branch
    with pytest.raises(ValueError):
        sv.conditional_state(st, fixed={2: 0}, keep=[1])  # not a partition


# ---------------------------------------------------------------- memory

def _peak_multiple(call, num_qubits):
    """Peak new allocation of ``call()``, in registers of 16 * 2^num_qubits bytes."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - start) / (16 * 2**num_qubits)


def test_dense_peak_memory_multiples():
    # the multiples the module docstring states; the result counts, the input does not
    st = random_state(16, 40)
    spec = DickeSpec(8, 2)
    dicke, circuit = dicke_state(spec), build_linear_encoder(spec)
    rng = np.random.default_rng(0)
    cases = {
        "apply_cnot": (lambda: sv.apply_cnot(st, 3, 9), 16, 1.5),
        "apply_1q": (lambda: sv.apply_1q(st, "H", 5), 16, 2.0),
        "apply_1q on qubit 1": (lambda: sv.apply_1q(st, "H", 1), 16, 1.0),
        "measure": (lambda: sv.measure(st, 7, rng), 16, 2.0),
        "conditional_state": (lambda: sv.conditional_state(st, {1: 0}, range(2, 17)), 16, 0.5),
        "apply_encoder": (lambda: sv.apply_encoder(dicke, circuit), 15, 2.5),
    }
    got = {name: _peak_multiple(call, q) for name, (call, q, _) in cases.items()}
    assert got == pytest.approx({name: want for name, (_, _, want) in cases.items()}, abs=0.03)


# ---------------------------------------------------------------- layering

def test_production_modules_import_no_statevector():
    # the CLI's import graph holds no dense code; statevector imports them, not the reverse
    src = Path(sv.__file__).parent
    for name in ("cli", "channel", "markov", "encoder", "states", "protocol"):
        imported = set()
        for node in ast.walk(ast.parse((src / f"{name}.py").read_text())):
            if isinstance(node, ast.ImportFrom):
                imported.update((node.module or "").split("."))
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported.update(part for alias in node.names for part in alias.name.split("."))
        assert "statevector" not in imported, f"{name} imports statevector"
    assert eacsim.CapacityError is eacsim.encoder.CapacityError


# every public name of the package from when it imported statevector eagerly
PACKAGE_EXPORTS = (
    "BellState", "CapacityError", "ChannelParams", "Codebook", "ContentionOutcome", "DickeSpec",
    "DistributionTrace", "EncoderCircuit", "InvalidParity", "MeasurementRecord", "NodeView",
    "NonPositiveHorizon", "NotInjective", "SlotTimeline", "StateVector", "SynthesisFailed",
    "UnknownWord", "WrongWinnerCount", "absorbing_threshold", "anonymity_audit", "apply_1q",
    "apply_cnot", "apply_encoder", "build_binary_encoder", "build_linear_encoder", "build_u_d",
    "canonicalize_bell", "channel", "decode", "dicke_outcome_probability", "dicke_state",
    "empirical_contention_success", "empirical_state_distribution", "encoder", "extract_epr",
    "fidelity", "ghz_state", "make_rng", "markov", "measure", "protocol",
    "recover_last_bit_linear", "run_contention", "run_round", "simulate_distribution",
    "split_rng", "state_prob", "states", "statevector", "success_prob", "success_prob_fully_noisy",
    "success_prob_parallel", "time_horizon", "transition_prob", "verify_injectivity",
)


def test_package_exports_survive_the_lazy_statevector():
    # the dense names are read from statevector at first use; each still imports by name,
    # through `from eacsim import *`, and is the statevector object itself
    namespace = {}
    exec("from eacsim import *", namespace)
    assert sorted(eacsim.__all__) == sorted(PACKAGE_EXPORTS)
    for name in PACKAGE_EXPORTS:
        assert getattr(eacsim, name) is namespace[name], name
    assert eacsim.StateVector is sv.StateVector and eacsim.statevector is sv
    with pytest.raises(AttributeError, match="no attribute 'conditional_state'"):
        eacsim.conditional_state  # statevector's other names are not re-exported
