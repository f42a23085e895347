"""Encoders: golden codebooks, injectivity, the greedy construction and its widths, gate counts,
emission formats."""
import functools
import itertools
import math
import operator
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from conftest import (cnot_count_bound, encode_word, encoder_matrix, index_bits,
                      outcome_probability, weight_k_indices)

from eacsim import encoder as enc, states, statevector as sv
from eacsim.encoder import (
    Codebook,
    EncoderCircuit,
    InvalidParity,
    NotInjective,
    SynthesisFailed,
    UnknownWord,
    build_binary_encoder,
    build_linear_encoder,
    codebook_csv,
    decode,
    format_circuit,
    lower_bound,
    recover_last_bit_linear,
    verify_injectivity,
)
from eacsim.states import DickeSpec
from eacsim.statevector import apply_encoder, dicke_state

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
        assert encode_word(circuit, d) == a


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
    np.testing.assert_array_equal(circuit.cnots, [(2, 0), (3, 1), (4, 0), (4, 1)])
    assert len(circuit.cnots) == 4


@pytest.mark.parametrize("n,k,ell", [(300, 1, None), (9, 3, 12), (16, 2, 8), (24, 3, None)])
def test_binary_cnots_are_the_set_bits_of_the_greedy_columns(n, k, ell):
    # reference loop: one (data qubit, ancilla) gate per set bit, by qubit then ancilla
    circuit = build_binary_encoder(DickeSpec(n, k), ell=ell)
    columns = enc._greedy_columns(n, min(k, n - k))
    want = [[i, j] for i, h in enumerate(columns, 1) for j in range(h.bit_length()) if h >> j & 1]
    assert circuit.cnots.tolist() == want
    assert circuit.cnots.dtype == np.int64 and not circuit.cnots.flags.writeable


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_binary_cnot_count_power_of_two(n):
    circuit = build_binary_encoder(DickeSpec(n, 1))
    assert len(circuit.cnots) == cnot_count_bound(n)


def test_cnot_count_bound_needs_two_nodes():
    with pytest.raises(ValueError, match=r"need n >= 2, got 1"):
        cnot_count_bound(1)


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
    circuit = build_binary_encoder(spec)
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
        build_binary_encoder(DickeSpec(4, 2), ell=2)
    assert err.value.target_ell == 2
    assert err.value.best_ell == 3
    retry = build_binary_encoder(DickeSpec(4, 2), ell=err.value.best_ell)
    verify_injectivity(retry, DickeSpec(4, 2))


def reference_greedy(n, t):
    """Varshamov's greedy on explicit sets: reach[j] holds the XORs of j or fewer columns."""
    columns, reach = [0], [{0}] * (2 * t)
    for _ in range(n - 1):
        h = next(w for w in itertools.count(1) if w not in reach[-1])
        reach = [reach[0]] + [reach[j] | {x ^ h for x in reach[j - 1]} for j in range(1, 2 * t)]
        columns.append(h)
    return columns


@pytest.mark.parametrize("n", range(2, 65))
def test_greedy_t1_closed_form_is_the_greedy(n):
    assert list(enc._greedy_columns(n, 1)) == reference_greedy(n, 1) == list(range(n))


@pytest.mark.parametrize("n", range(3, 15))
def test_greedy_table_matches_reference(n):
    for t in range(2, n // 2 + 1):  # 2t >= n-1 takes the unit-vector closed form
        assert enc._greedy_columns(n, t) == reference_greedy(n, t)


def test_greedy_stops_at_the_memory_cap(monkeypatch):
    # (12,3) needs a 2^9-word table; with room for 2^6 words the greedy gives unit vectors
    monkeypatch.setattr(enc, "SLICE_BYTES_CAP", 3 * 2**6)
    assert enc._greedy_columns(12, 3) == [0] + [1 << i for i in range(11)]


@pytest.mark.parametrize("n,k,best", [(8, 2, 6), (10, 3, 8), (12, 3, 9), (12, 6, 11),
                                      (16, 2, 8), (22, 2, 9)])
def test_binary_widths_above_the_target(n, k, best):
    with pytest.raises(SynthesisFailed) as err:
        build_binary_encoder(DickeSpec(n, k))
    assert err.value.target_ell == math.ceil(math.log2(math.comb(n, k)))
    assert err.value.best_ell == best
    assert err.value.lower_bound == lower_bound(n, k)
    spec = DickeSpec(n, k)
    assert len(verify_injectivity(build_binary_encoder(spec, ell=best), spec).entries) == math.comb(n, k)


@pytest.mark.parametrize("n,k,ell", [(12, 2, 7), (24, 3, 11)])
def test_binary_widths_at_the_target(n, k, ell):
    spec = DickeSpec(n, k)
    circuit = build_binary_encoder(spec)
    assert circuit.ell == ell
    assert len(verify_injectivity(circuit, spec).entries) == math.comb(n, k)


def test_binary_width_is_the_lower_bound_up_to_n12():
    for n in range(2, 13):
        for k in range(1, n):
            spec = DickeSpec(n, k)
            width = max(enc._greedy_columns(n, min(k, n - k))).bit_length()
            assert width == lower_bound(n, k), (n, k)
            try:
                circuit = build_binary_encoder(spec)
            except SynthesisFailed as exc:
                assert exc.best_ell == width > exc.target_ell
                circuit = build_binary_encoder(spec, ell=width)
            verify_injectivity(circuit, spec)


def test_lower_bound_values():
    assert lower_bound(8, 2) == 6  # Griesmer: no [7,2,5] code
    assert lower_bound(16, 2) == 7  # sphere packing: 1 + 15 + 105 = 121 > 64
    assert lower_bound(24, 2) == 9  # pigeonhole: C(24,2) = 276 > 256
    assert lower_bound(16, 8) == 15  # 2t >= n-1: no code but the zero word
    assert lower_bound(16, 7) == 14  # Griesmer: the repetition code [15,1,15] at most
    assert lower_bound(5000, 2) == 24  # pigeonhole and sphere packing: both pass 2^23
    assert lower_bound(20000, 10000) == 19999  # 2t >= n-1


@pytest.mark.parametrize("n,k,ell,exists,smallest", [
    (8, 2, 5, True, True),  # bound 6 = construction 6
    (16, 2, 7, False, False),  # bound 7 < construction 8
    (24, 2, 9, False, False),  # bound 9 < construction 10
    (16, 2, 6, True, False),
])
def test_synthesis_failed_message_claims_only_what_is_proven(n, k, ell, exists, smallest):
    with pytest.raises(SynthesisFailed) as err:
        build_binary_encoder(DickeSpec(n, k), ell=ell)
    message = str(err.value)
    assert ("no encoder exists" in message) == exists
    assert ("smallest workable" in message) == smallest
    assert f"ell={err.value.best_ell}" in message
    assert f"ell >= {err.value.lower_bound}" in message


def test_binary_circuit_ignores_rng():
    # the construction takes no seed: two builds give the same circuit
    spec = DickeSpec(10, 2)
    first, second = build_binary_encoder(spec, ell=8), build_binary_encoder(spec, ell=8)
    assert first.ell == second.ell == 8
    np.testing.assert_array_equal(first.cnots, second.cnots)


def test_binary_wider_ell_leaves_upper_rows_zero():
    spec = DickeSpec(9, 3)
    narrow, wide = build_binary_encoder(spec), build_binary_encoder(spec, ell=12)
    assert narrow.ell == 7 and wide.ell == 12
    np.testing.assert_array_equal(wide.cnots, narrow.cnots)
    verify_injectivity(wide, spec)


@pytest.mark.parametrize("cap", [None, 3 * 2**2], ids=["greedy", "memory-cap"])
def test_binary_construction_is_injective_by_proof(monkeypatch, cap):
    # weight-k strings d != d' differ in at most 2t places and G(d ^ d') is the XOR of those
    # columns; h_1 = 0, so no nonempty set of 2t or fewer of h_2..h_n XORing to 0 is the proof
    if cap is not None:
        monkeypatch.setattr(enc, "SLICE_BYTES_CAP", cap)  # t >= 2 falls back to unit vectors
    for n in range(2, 15):
        for t in range(1, n // 2 + 1):  # t = 1 and 2t >= n-1 take the closed forms
            columns = enc._greedy_columns(n, t)
            assert len(columns) == n and columns[0] == 0
            if cap is not None and t > 1:
                assert columns == [0] + [1 << i for i in range(n - 1)]
            assert not [s for size in range(1, 2 * t + 1) for s in combinations(columns[1:], size)
                        if functools.reduce(operator.xor, s) == 0], (n, t)


def test_binary_build_enumerates_no_slice(monkeypatch):
    def refuse(*args):
        raise AssertionError("the binary build read the weight-k slice")

    monkeypatch.setattr(enc.states, "_slice_columns", refuse)
    with pytest.raises(SynthesisFailed):
        build_binary_encoder(DickeSpec(24, 12))
    assert build_binary_encoder(DickeSpec(24, 3)).ell == 11


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
    # the bound is for k = 1 only
    assert len(build_binary_encoder(DickeSpec(16, 2), ell=8).cnots) == 39 > cnot_count_bound(16)
    assert len(build_binary_encoder(DickeSpec(24, 3)).cnots) == 88 > cnot_count_bound(24)


# ---------------------------------------------------------------- verify / decode

def test_all_zero_matrix_not_injective():
    circuit = EncoderCircuit(n=4, k=2, ell=3, cnots=(), kind="binary")
    with pytest.raises(NotInjective) as err:
        verify_injectivity(circuit, DickeSpec(4, 2))
    assert sum(err.value.d1) == 2 and sum(err.value.d2) == 2
    assert err.value.d1 != err.value.d2


def test_verify_frees_the_slice_order_arrays_before_the_words():
    # the codebook is C(n,k) (k + ell) bytes; holding the slice-order columns and packed words
    # while the words are unpacked took 1.9x that at (20, 10), freeing them first 1.52x, and
    # packing in blocks and dropping the second sorted copy of the keys 1.28x
    spec = DickeSpec(20, 10)
    circuit = build_linear_encoder(spec)
    tracemalloc.start()
    try:
        codebook = verify_injectivity(circuit, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.4 * (codebook.words.nbytes + codebook.winners.nbytes)


def xor_reference(circuit, columns):
    """Each row's packed word on its own: the XOR of the packed rows of G.T its columns pick,
    zero-padded to whole uint64 blocks."""
    rows = np.packbits(encoder_matrix(circuit).T, axis=1)
    want = np.zeros((len(columns), 8 * -(-circuit.ell // 64)), dtype=np.uint8)
    want[:, : rows.shape[1]] = np.bitwise_xor.reduce(rows[columns.astype(np.intp)], axis=1)
    return want


@pytest.mark.parametrize("kind,n,k,block", [
    ("linear", 18, 9, None),  # the default block: 16,384 rows of one uint64 word
    ("linear", 70, 2, 100),  # ell = 69: two uint64 blocks a word
    ("binary", 24, 3, 100),
    ("linear", 1000, 2, 2),  # n > rows * k: only the picked rows, through the slot table
])
def test_packed_words_in_blocks_match_a_per_row_reference(monkeypatch, kind, n, k, block):
    spec = DickeSpec(n, k)
    circuit = (build_linear_encoder if kind == "linear" else build_binary_encoder)(spec)
    row_bytes = 8 + 8 * -(-circuit.ell // 64)  # an intp index and a gathered word
    if block is None:
        block = enc.FORMAT_CHUNK_BYTES // row_bytes
    else:
        monkeypatch.setattr(enc, "FORMAT_CHUNK_BYTES", block * row_bytes)
    rng = np.random.default_rng(n)
    for rows in (block - 1, block, block + 1):
        columns = states._slice_columns(n, k, rng.choice(math.comb(n, k), rows, replace=False))
        assert (n > columns.size) == (n == 1000)
        np.testing.assert_array_equal(enc._packed_words(circuit, columns).view(np.uint8),
                                      xor_reference(circuit, columns))


def test_packed_words_hold_their_output_and_one_block_of_scratch():
    # linear (20, 10): 1.48 MB of words; packing a column of the whole slice at a time took 3.0x
    # that, a block of rows at a time 1.18x
    spec = DickeSpec(20, 10)
    circuit = build_linear_encoder(spec)
    columns = states._slice_columns(spec.n, spec.k)
    tracemalloc.start()
    try:
        words = enc._packed_words(circuit, columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < words.nbytes + 2 * enc.FORMAT_CHUNK_BYTES


def matrix_cnots(g):
    """CNOT(i, j) for each entry G[j, i-1] = 1."""
    return tuple((int(i) + 1, int(j)) for j, i in np.argwhere(g))


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
        circuit = EncoderCircuit(n=n, k=k, ell=ell, cnots=matrix_cnots(g), kind="binary")
        expected = scan_for_collision(g, n, k)
        if expected is None:
            codebook = verify_injectivity(circuit, DickeSpec(n, k))
            assert codebook.winners.shape == (math.comb(n, k), k)
            assert (np.diff(codebook.winners.astype(np.int64), axis=1) > 0).all()
            bits = np.zeros((len(codebook.winners), n), dtype=np.uint8)
            np.put_along_axis(bits, codebook.winners.astype(np.int64), 1, axis=1)
            assert len(np.unique(bits, axis=0)) == math.comb(n, k)
            np.testing.assert_array_equal(codebook.words, (bits @ g.T) & 1)
        else:
            found += 1
            with pytest.raises(NotInjective) as err:
                verify_injectivity(circuit, DickeSpec(n, k))
            assert (err.value.d1, err.value.d2) == expected
    assert found > 20


@pytest.mark.parametrize("n,k,ell,seed", [(8, 3, 5, 0), (8, 2, 3, 1), (9, 4, 64, 2),
                                         (9, 4, 70, 3), (12, 6, 9, 4)])
def test_not_injective_pair_is_the_sequential_scans(n, k, ell, seed):
    # G's first and last columns are equal, so {0} | S and {n-1} | S share a word; at ell = 3
    # and 9 many outcomes share each word, so the sorted words hold runs of three or more
    g = np.random.default_rng(seed).integers(0, 2, size=(ell, n), dtype=np.uint8)
    g[:, n - 1] = g[:, 0]
    expected = scan_for_collision(g, n, k)
    assert expected is not None
    circuit = EncoderCircuit(n=n, k=k, ell=ell, cnots=matrix_cnots(g), kind="binary")
    with pytest.raises(NotInjective) as err:
        verify_injectivity(circuit, DickeSpec(n, k))
    assert (err.value.d1, err.value.d2) == expected


@pytest.mark.parametrize("n,k", [(5, 2), (9, 4), (12, 11), (13, 1), (14, 7)])
def test_outcome_table_rows_in_basis_index_order(n, k):
    # codebook rows are the slice sorted by word; a linear word d_1..d_{n-1} fixes d_n,
    # so for the linear encoder that is also ascending basis-index order
    spec = DickeSpec(n, k)
    codebook = verify_injectivity(build_linear_encoder(spec), spec)
    words = codebook.words.tolist()
    assert all(a < b for a, b in zip(words, words[1:]))  # strictly ascending by word
    slice_rows = [index_bits(idx, n) for idx in weight_k_indices(n, k)]
    by_word = sorted(slice_rows, key=lambda d: d[:-1])
    assert by_word == slice_rows
    np.testing.assert_array_equal(codebook.winners, np.nonzero(by_word)[1].reshape(-1, k))
    np.testing.assert_array_equal(codebook.words, np.array(by_word, dtype=np.uint8)[:, :-1])


def test_words_wider_than_64_bits():
    # linear n=70: distinct outcomes whose words differ only in bits 64..68
    spec = DickeSpec(70, 2)
    circuit = build_linear_encoder(spec)
    assert len(verify_injectivity(circuit, spec).entries) == math.comb(70, 2)


def test_slice_capacity_checked_before_enumeration():
    # linear k=2: C(645,2)*(645+644) bytes fit in 256 MiB, C(646,2)*(646+645) do not
    assert math.comb(645, 2) * 1289 <= enc.SLICE_BYTES_CAP < math.comb(646, 2) * 1291
    for spec in (DickeSpec(646, 2), DickeSpec(40, 20)):
        with pytest.raises(sv.CapacityError):
            verify_injectivity(build_linear_encoder(spec), spec)
    spec = DickeSpec(40, 20)
    with pytest.raises(sv.CapacityError):
        build_binary_encoder(spec)


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
        (DickeSpec(6, 2), lambda s: build_binary_encoder(s)),
    ],
)
def test_ancilla_word_deterministic_given_data(spec, builder):
    circuit = builder(spec)
    state = apply_encoder(dicke_state(spec), circuit)
    data_qubits = list(range(1, spec.n + 1))
    anc_qubits = list(range(spec.n + 1, spec.n + circuit.ell + 1))
    for idx in np.flatnonzero(dicke_state(spec).amplitudes):
        d = [(int(idx) >> (spec.n - i)) & 1 for i in range(1, spec.n + 1)]
        p_d = outcome_probability(state, data_qubits, d)
        word = oracle_word(circuit.cnots, circuit.ell, d)
        p_joint = outcome_probability(state, data_qubits + anc_qubits, d + list(word))
        assert abs(p_joint - p_d) < 1e-12  # P(a = G.d | d) = 1


@pytest.mark.parametrize(
    "spec,builder",
    [
        (DickeSpec(4, 2), lambda s: build_linear_encoder(s)),
        (DickeSpec(5, 2), lambda s: build_linear_encoder(s)),
        (DickeSpec(4, 1), lambda s: build_binary_encoder(s)),
        (DickeSpec(6, 2), lambda s: build_binary_encoder(s)),
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
    # (20,2) would need 2^39 amplitudes (8 TiB): refused before allocating
    for n in (13, 20):
        spec = DickeSpec(n, 2)
        with pytest.raises(sv.CapacityError):
            apply_encoder(dicke_state(spec), build_linear_encoder(spec))
    with pytest.raises(ValueError, match=r"state has 4 qubits, circuit expects 5"):
        apply_encoder(dicke_state(DickeSpec(4, 2)), build_linear_encoder(DickeSpec(5, 2)))


# ---------------------------------------------------------------- structure & emission

def test_matrix_cancels_duplicate_cnots():
    circuit = EncoderCircuit(n=3, k=1, ell=2, cnots=((1, 0), (1, 0), (2, 1)), kind="binary")
    g = encoder_matrix(circuit)
    assert g[0, 0] == 0 and g[1, 1] == 1


def test_circuit_validation():
    with pytest.raises(ValueError, match=r"^CNOT control d4 out of range 1\.\.3$"):
        EncoderCircuit(n=3, k=1, ell=2, cnots=((1, 0), (4, 0)), kind="binary")
    with pytest.raises(ValueError, match=r"^CNOT target a2 out of range 0\.\.1$"):
        EncoderCircuit(n=3, k=1, ell=2, cnots=((1, 2),), kind="binary")


def test_format_circuit_text():
    circuit = build_linear_encoder(DickeSpec(4, 2))
    text = format_circuit(circuit)
    lines = text.strip().splitlines()
    assert lines[0] == "encoder linear n=4 k=2 ell=3"
    assert lines[1:] == ["CNOT d1 a0", "CNOT d2 a1", "CNOT d3 a2"]


def test_format_codebook_csv():
    spec = DickeSpec(4, 2)
    codebook = verify_injectivity(build_linear_encoder(spec), spec)
    lines = b"".join(codebook_csv(codebook)).decode().strip().splitlines()
    assert lines[0] == "a_0,a_1,a_2,winners"
    assert len(lines) == 7
    assert "1,1,0,1 2" in lines
    assert "0,0,1,3 4" in lines


def per_entry_codebook_csv(circuit, spec):
    """Reference: the word -> winners dict, sorted by word, one formatted line per entry."""
    entries = {}
    for winners in combinations(range(1, spec.n + 1), spec.k):
        d = [1 if i in winners else 0 for i in range(1, spec.n + 1)]
        entries[encode_word(circuit, d)] = winners
    out = ",".join([f"a_{j}" for j in range(circuit.ell)] + ["winners"]) + "\n"
    for word, winners in sorted(entries.items()):
        out += ",".join(str(b) for b in word) + "," + " ".join(str(w) for w in winners) + "\n"
    return entries, out


@pytest.mark.parametrize("n,k,kind", [(10, 5, "linear"), (9, 3, "binary"), (70, 2, "linear"),
                                      (2, 1, "linear"), (256, 1, "linear")])
def test_codebook_csv_matches_per_entry_loop(n, k, kind, monkeypatch):
    # (70,2) has ell = 69 > 64; (2,1) has ell = 1; (256,1) names node 256 by uint8
    # index 255, which + 1 wraps to 0 in uint8
    spec = DickeSpec(n, k)
    if kind == "linear":
        circuit = build_linear_encoder(spec)
    else:
        circuit = build_binary_encoder(spec)
    codebook = verify_injectivity(circuit, spec)
    entries, want = per_entry_codebook_csv(circuit, spec)
    assert b"".join(codebook_csv(codebook)).decode() == want
    # 300-byte chunks hold one row or a few, so many chunks follow the header
    monkeypatch.setattr(enc, "FORMAT_CHUNK_BYTES", 300)
    assert b"".join(codebook_csv(codebook)).decode() == want
    assert list(codebook) == sorted(entries.items())
    assert codebook.entries == entries
