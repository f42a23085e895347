"""Encoders: golden codebooks, injectivity, gate counts, emission formats."""
import io
import math
from itertools import combinations

import numpy as np
import pytest

from conftest import index_bits, weight_k_indices

from eacsim import encoder as enc, statevector as sv
from eacsim.encoder import (
    Codebook,
    EncoderCircuit,
    InvalidParity,
    NotInjective,
    SynthesisFailed,
    UnknownWord,
    apply_encoder,
    build_binary_encoder,
    build_linear_encoder,
    cnot_count_bound,
    decode,
    format_circuit,
    outcome_table,
    recover_last_bit_linear,
    verify_injectivity,
    write_codebook_csv,
)
from eacsim.states import DickeSpec, dicke_state

# published measurement table for the linear encoder at n=4, k=2
TABLE_4_2 = {
    (1, 1, 0, 0): (1, 1, 0),
    (1, 0, 1, 0): (1, 0, 1),
    (0, 1, 1, 0): (0, 1, 1),
    (1, 0, 0, 1): (1, 0, 0),
    (0, 1, 0, 1): (0, 1, 0),
    (0, 0, 1, 1): (0, 0, 1),
}


def oracle_word(cnots, ell, d_bits):
    """Independent GF(2) evaluation of a CNOT list on classical bits."""
    word = [0] * ell
    for control, target in cnots:
        word[target] ^= d_bits[control - 1]
    return tuple(word)


# ---------------------------------------------------------------- linear

def test_linear_words_match_published_table():
    circuit = build_linear_encoder(DickeSpec(4, 2))
    for d, a in TABLE_4_2.items():
        assert circuit.encode_word(d) == a


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_linear_gate_and_ancilla_count(n):
    circuit = build_linear_encoder(DickeSpec(n, 1))
    assert circuit.ell == n - 1
    assert len(circuit.cnots) == n - 1


def test_linear_codebook_is_published_table():
    spec = DickeSpec(4, 2)
    codebook = verify_injectivity(build_linear_encoder(spec), spec)
    expected = {a: tuple(i + 1 for i in range(4) if d[i]) for d, a in TABLE_4_2.items()}
    assert codebook.entries == expected


# ---------------------------------------------------------------- binary

def test_binary_w_encoder_matches_published_circuit():
    circuit = build_binary_encoder(DickeSpec(4, 1))
    assert circuit.ell == 2
    assert set(circuit.cnots) == {(2, 0), (3, 1), (4, 0), (4, 1)}
    assert len(circuit.cnots) == 4


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_binary_cnot_count_power_of_two(n):
    circuit = build_binary_encoder(DickeSpec(n, 1))
    assert len(circuit.cnots) == cnot_count_bound(n)


@pytest.mark.parametrize("n", [3, 5, 6, 7, 9, 12, 15])
def test_binary_k1_injective_and_bounded(n):
    spec = DickeSpec(n, 1)
    circuit = build_binary_encoder(spec)
    assert circuit.ell == math.ceil(math.log2(n))
    codebook = verify_injectivity(circuit, spec)
    assert len(codebook.entries) == n
    assert len(circuit.cnots) <= cnot_count_bound(n)


def test_binary_6_2_synthesis():
    spec = DickeSpec(6, 2)
    circuit = build_binary_encoder(spec, np.random.default_rng(0))
    assert circuit.ell == 4
    codebook = verify_injectivity(circuit, spec)
    assert len(codebook.entries) == 15
    # oracle: exhaustive enumeration of the 15 weight-2 strings
    words = set()
    for i, j in combinations(range(1, 7), 2):
        d = [1 if x in (i, j) else 0 for x in range(1, 7)]
        words.add(oracle_word(circuit.cnots, circuit.ell, d))
    assert len(words) == 15


def test_known_6_2_matrix_is_injective():
    # a_j = d_{j+1} xor d_5 for j = 0..3: a hand-checkable injective map
    cnots = tuple((j + 1, j) for j in range(4)) + tuple((5, j) for j in range(4))
    circuit = EncoderCircuit(n=6, k=2, ell=4, cnots=cnots, kind="binary")
    codebook = verify_injectivity(circuit, DickeSpec(6, 2))
    assert len(codebook.entries) == 15
    assert len(circuit.cnots) == 8


def test_binary_synthesis_failure_reports_best_ell():
    with pytest.raises(SynthesisFailed) as err:
        build_binary_encoder(DickeSpec(4, 2), np.random.default_rng(1), ell=2)
    assert err.value.target_ell == 2
    assert err.value.best_ell == 3
    retry = build_binary_encoder(DickeSpec(4, 2), np.random.default_rng(1), ell=err.value.best_ell)
    verify_injectivity(retry, DickeSpec(4, 2))


def test_binary_k1_rejects_too_small_ell():
    with pytest.raises(ValueError):
        build_binary_encoder(DickeSpec(4, 1), ell=1)


def test_cnot_count_bound_values():
    assert cnot_count_bound(4) == 4
    assert cnot_count_bound(8) == 12
    # n=6 is not a power of two: the bound overestimates the built circuit
    built = len(build_binary_encoder(DickeSpec(6, 1)).cnots)
    assert cnot_count_bound(6) == 12
    assert built <= 12


# ---------------------------------------------------------------- verify / decode

def test_all_zero_matrix_not_injective():
    circuit = EncoderCircuit(n=4, k=2, ell=3, cnots=(), kind="binary")
    with pytest.raises(NotInjective) as err:
        verify_injectivity(circuit, DickeSpec(4, 2))
    assert sum(err.value.d1) == 2 and sum(err.value.d2) == 2
    assert err.value.d1 != err.value.d2


def scan_for_collision(g, n, k):
    """Reference: walk the slice in ascending index order, stop at the first repeated word."""
    seen = {}
    for idx in weight_k_indices(n, k):
        d = index_bits(idx, n)
        word = tuple(int(b) for b in (g @ np.array(d, dtype=np.uint8)) & 1)
        if word in seen:
            return seen[word], d
        seen[word] = d
    return None


def test_collision_matches_sequential_scan():
    rng = np.random.default_rng(4)
    found = 0
    for _ in range(150):
        n = int(rng.integers(3, 11))
        k = int(rng.integers(1, n))
        ell = int(rng.choice([1, 3, 6, 62, 70]))
        g = rng.integers(0, 2, size=(ell, n), dtype=np.uint8)
        if ell > 60:
            g[:, rng.integers(0, n)] = g[:, rng.integers(0, n)]  # maybe two equal columns
        circuit = EncoderCircuit(n=n, k=k, ell=ell, cnots=enc._matrix_to_cnots(g), kind="binary")
        expected = scan_for_collision(g, n, k)
        if expected is None:
            bits, words = outcome_table(circuit, DickeSpec(n, k))
            np.testing.assert_array_equal(words, (bits @ g.T) & 1)
        else:
            found += 1
            with pytest.raises(NotInjective) as err:
                verify_injectivity(circuit, DickeSpec(n, k))
            assert (err.value.d1, err.value.d2) == expected
    assert found > 20


@pytest.mark.parametrize("n,k", [(5, 2), (9, 4), (12, 11), (13, 1), (14, 7)])
def test_outcome_table_rows_in_basis_index_order(n, k):
    spec = DickeSpec(n, k)
    bits, words = outcome_table(build_linear_encoder(spec), spec)
    expected = np.array([index_bits(idx, n) for idx in weight_k_indices(n, k)], dtype=np.uint8)
    np.testing.assert_array_equal(bits, expected)
    np.testing.assert_array_equal(words, expected[:, :-1])


def test_words_wider_than_64_bits():
    # linear n=70: distinct outcomes whose words differ only in bits 64..68
    spec = DickeSpec(70, 2)
    circuit = build_linear_encoder(spec)
    assert enc._injective_on_slice(circuit.matrix(), enc._slice_columns(70, 2, 69))
    assert len(verify_injectivity(circuit, spec).entries) == math.comb(70, 2)


def test_slice_capacity_checked_before_enumeration():
    # linear k=2: C(645,2)*(645+644) bytes fit in 256 MiB, C(646,2)*(646+645) do not
    assert math.comb(645, 2) * 1289 <= enc.SLICE_BYTES_CAP < math.comb(646, 2) * 1291
    for spec in (DickeSpec(646, 2), DickeSpec(40, 20)):
        with pytest.raises(sv.CapacityError):
            outcome_table(build_linear_encoder(spec), spec)
    spec = DickeSpec(40, 20)
    with pytest.raises(sv.CapacityError):
        build_binary_encoder(spec, np.random.default_rng(0))


def test_verify_rejects_mismatched_spec():
    with pytest.raises(ValueError):
        verify_injectivity(build_linear_encoder(DickeSpec(4, 2)), DickeSpec(5, 2))


def test_decode_published_rows():
    spec = DickeSpec(4, 2)
    codebook = verify_injectivity(build_linear_encoder(spec), spec)
    assert decode(codebook, (1, 0, 1)) == (1, 3)
    assert decode(codebook, (0, 1, 0)) == (2, 4)


@pytest.mark.parametrize("n,k", [(4, 2), (5, 3), (6, 2)])
def test_decode_is_bijection(n, k):
    spec = DickeSpec(n, k)
    codebook = verify_injectivity(build_linear_encoder(spec), spec)
    decoded = {decode(codebook, word) for word in codebook.entries}
    assert decoded == {tuple(sorted(c)) for c in combinations(range(1, n + 1), k)}


def test_decode_unknown_word():
    spec = DickeSpec(4, 2)
    codebook = verify_injectivity(build_linear_encoder(spec), spec)
    with pytest.raises(UnknownWord):
        decode(codebook, (1, 1, 1))
    with pytest.raises(ValueError):
        decode(codebook, (1, 1))


def test_recover_last_bit():
    assert recover_last_bit_linear((1, 1, 0), 2) == 0
    assert recover_last_bit_linear((1, 0, 0), 2) == 1
    with pytest.raises(InvalidParity):
        recover_last_bit_linear((1, 1, 1), 2)


def test_recover_last_bit_whole_table():
    for d, a in TABLE_4_2.items():
        assert recover_last_bit_linear(a, 2) == d[3]


# ---------------------------------------------------------------- circuit application

def test_apply_empty_encoder_is_tensor_with_zeros():
    spec = DickeSpec(3, 1)
    circuit = EncoderCircuit(n=3, k=1, ell=2, cnots=(), kind="binary")
    state = apply_encoder(dicke_state(spec), circuit)
    expected = np.zeros(32, dtype=complex)
    for idx in (0b001, 0b010, 0b100):
        expected[idx << 2] = 1 / np.sqrt(3)
    np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)


def test_apply_linear_4_2_joint_rows():
    # the joint (d, a) distribution is exactly the published six rows at 1/6
    spec = DickeSpec(4, 2)
    circuit = build_linear_encoder(spec)
    state = apply_encoder(dicke_state(spec), circuit)
    probs = np.abs(state.amplitudes) ** 2
    expected = np.zeros(2**7)
    for d, a in TABLE_4_2.items():
        idx = 0
        for b in d + a:
            idx = (idx << 1) | b
        expected[idx] = 1 / 6
    np.testing.assert_allclose(probs, expected, atol=1e-12)


@pytest.mark.parametrize(
    "spec,builder",
    [
        (DickeSpec(4, 2), lambda s: build_linear_encoder(s)),
        (DickeSpec(4, 1), lambda s: build_binary_encoder(s)),
        (DickeSpec(6, 2), lambda s: build_binary_encoder(s, np.random.default_rng(2))),
    ],
)
def test_ancilla_word_deterministic_given_data(spec, builder):
    circuit = builder(spec)
    state = apply_encoder(dicke_state(spec), circuit)
    data_qubits = list(range(1, spec.n + 1))
    anc_qubits = list(range(spec.n + 1, spec.n + circuit.ell + 1))
    for idx in np.flatnonzero(dicke_state(spec).amplitudes):
        d = [(int(idx) >> (spec.n - i)) & 1 for i in range(1, spec.n + 1)]
        p_d = sv.outcome_probability(state, data_qubits, d)
        word = oracle_word(circuit.cnots, circuit.ell, d)
        p_joint = sv.outcome_probability(state, data_qubits + anc_qubits, d + list(word))
        assert abs(p_joint - p_d) < 1e-12  # P(a = G.d | d) = 1


@pytest.mark.parametrize(
    "spec,builder",
    [
        (DickeSpec(4, 2), lambda s: build_linear_encoder(s)),
        (DickeSpec(5, 2), lambda s: build_linear_encoder(s)),
        (DickeSpec(4, 1), lambda s: build_binary_encoder(s)),
        (DickeSpec(6, 2), lambda s: build_binary_encoder(s, np.random.default_rng(3))),
    ],
)
def test_encoder_does_not_disturb_data_marginal(spec, builder):
    circuit = builder(spec)
    dicke = dicke_state(spec)
    encoded = apply_encoder(dicke, circuit)
    data_probs = (
        np.abs(encoded.amplitudes.reshape(2**spec.n, 2**circuit.ell)) ** 2
    ).sum(axis=1)
    np.testing.assert_allclose(data_probs, np.abs(dicke.amplitudes) ** 2, atol=1e-12)


def test_orthogonality_iff_injectivity():
    # injective circuit: conditional ancilla states of distinct outcomes are orthogonal
    spec = DickeSpec(4, 2)
    circuit = build_linear_encoder(spec)
    state = apply_encoder(dicke_state(spec), circuit)
    tensor = state.amplitudes.reshape(2**spec.n, 2**circuit.ell)
    support = [int(i) for i in np.flatnonzero(dicke_state(spec).amplitudes)]
    for i, di in enumerate(support):
        vi = tensor[di] / np.linalg.norm(tensor[di])
        for dj in support[i + 1:]:
            vj = tensor[dj] / np.linalg.norm(tensor[dj])
            assert abs(np.vdot(vi, vj)) < 1e-12
    # non-injective circuit: some pair of conditional ancilla states coincides
    broken = EncoderCircuit(n=4, k=2, ell=3, cnots=(), kind="binary")
    state = apply_encoder(dicke_state(spec), broken)
    tensor = state.amplitudes.reshape(2**spec.n, 2**3)
    v1 = tensor[support[0]] / np.linalg.norm(tensor[support[0]])
    v2 = tensor[support[1]] / np.linalg.norm(tensor[support[1]])
    assert abs(np.vdot(v1, v2)) > 1 - 1e-12
    with pytest.raises(NotInjective):
        verify_injectivity(broken, spec)


def test_apply_encoder_capacity():
    spec = DickeSpec(13, 2)
    with pytest.raises(sv.CapacityError):
        apply_encoder(dicke_state(spec), build_linear_encoder(spec))


# ---------------------------------------------------------------- structure & emission

def test_matrix_cancels_duplicate_cnots():
    circuit = EncoderCircuit(n=3, k=1, ell=2, cnots=((1, 0), (1, 0), (2, 1)), kind="binary")
    g = circuit.matrix()
    assert g[0, 0] == 0 and g[1, 1] == 1


def test_circuit_validation():
    with pytest.raises(ValueError):
        EncoderCircuit(n=3, k=1, ell=2, cnots=((4, 0),), kind="binary")
    with pytest.raises(ValueError):
        EncoderCircuit(n=3, k=1, ell=2, cnots=((1, 2),), kind="binary")


def test_format_circuit_text():
    circuit = build_linear_encoder(DickeSpec(4, 2))
    text = format_circuit(circuit)
    lines = text.strip().splitlines()
    assert lines[0] == "encoder linear n=4 k=2 ell=3"
    assert lines[1:] == ["CNOT d1 a0", "CNOT d2 a1", "CNOT d3 a2"]


def codebook_csv(codebook):
    buf = io.StringIO()
    write_codebook_csv(codebook, buf)
    return buf.getvalue()


def test_format_codebook_csv():
    spec = DickeSpec(4, 2)
    codebook = verify_injectivity(build_linear_encoder(spec), spec)
    lines = codebook_csv(codebook).strip().splitlines()
    assert lines[0] == "a_0,a_1,a_2,winners"
    assert len(lines) == 7
    assert "1,1,0,1 2" in lines
    assert "0,0,1,3 4" in lines


def per_entry_codebook_csv(circuit, spec):
    """Reference: the word -> winners dict, sorted by word, one formatted line per entry."""
    entries = {}
    for winners in combinations(range(1, spec.n + 1), spec.k):
        d = [1 if i in winners else 0 for i in range(1, spec.n + 1)]
        entries[circuit.encode_word(d)] = winners
    out = ",".join([f"a_{j}" for j in range(circuit.ell)] + ["winners"]) + "\n"
    for word, winners in sorted(entries.items()):
        out += ",".join(str(b) for b in word) + "," + " ".join(str(w) for w in winners) + "\n"
    return entries, out


@pytest.mark.parametrize("n,k,kind", [(10, 5, "linear"), (9, 3, "binary"), (70, 2, "linear"),
                                      (2, 1, "linear")])
def test_codebook_csv_matches_per_entry_loop(n, k, kind, monkeypatch):
    # (70,2) has ell = 69 > 64; (2,1) has ell = 1
    spec = DickeSpec(n, k)
    if kind == "linear":
        circuit = build_linear_encoder(spec)
    else:
        circuit = build_binary_encoder(spec, np.random.default_rng(0))
    codebook = verify_injectivity(circuit, spec)
    entries, want = per_entry_codebook_csv(circuit, spec)
    assert codebook_csv(codebook) == want
    # 300-byte chunks hold one row or a few, so many chunks follow the header
    monkeypatch.setattr(enc, "FORMAT_CHUNK_BYTES", 300)
    assert codebook_csv(codebook) == want
    assert list(codebook) == sorted(entries.items())
    assert codebook.entries == entries
