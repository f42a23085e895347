"""Protocol rounds: winner counts, decode consistency, Bell parity, anonymity."""
import copy
import json
import io
import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from conftest import basis_state, force_bits, states_equal, unranked_rows

from eacsim import encoder as enc, protocol, statevector as sv
from eacsim.encoder import (
    SynthesisFailed,
    build_binary_encoder,
    build_linear_encoder,
    verify_injectivity,
)
from eacsim.protocol import (
    BellState,
    ContentionOutcome,
    NodeView,
    WrongWinnerCount,
    anonymity_audit,
    build_u_d,
    draw_rounds,
    sample_loser_outcomes,
    transcript,
)
from eacsim.states import DickeSpec, _slice_columns
from eacsim.statevector import (
    apply_encoder,
    bell_pair,
    canonicalize_bell,
    dicke_state,
    extract_epr,
    run_contention,
    run_round,
)


# ---------------------------------------------------------------- contention

@pytest.mark.parametrize("seed", range(5))
def test_run_contention_winner_count_and_decode(seed):
    spec = DickeSpec(4, 2)
    encoder = build_linear_encoder(spec)
    outcome, views = run_contention(spec, encoder, np.random.default_rng(seed))
    assert sum(outcome.d_vector) == 2
    assert outcome.winners == tuple(i for i in range(1, 5) if outcome.d_vector[i - 1])
    assert outcome.ancilla_word == outcome.d_vector[:3]  # linear: a_i = d_{i+1}
    assert anonymity_audit(views)
    assert [v.d for v in views] == list(outcome.d_vector)


def test_run_contention_binary_encoder():
    spec = DickeSpec(6, 2)
    encoder = build_binary_encoder(spec)
    codebook = verify_injectivity(encoder, spec)
    for seed in range(5):
        outcome, _ = run_contention(spec, encoder, np.random.default_rng(seed))
        assert sum(outcome.d_vector) == 2
        assert codebook.entries[outcome.ancilla_word] == outcome.winners


def test_run_contention_measures_data_then_ancillas(monkeypatch):
    # one measurement a qubit, in qubit order: the n data qubits, then the ell ancillas
    spec = DickeSpec(5, 2)
    encoder = build_binary_encoder(spec)
    targets, measure = [], sv.measure
    monkeypatch.setattr(sv, "measure", lambda state, target, rng:
                        targets.append(target) or measure(state, target, rng))
    run_contention(spec, encoder, np.random.default_rng(0))
    assert targets == list(range(1, spec.n + encoder.ell + 1))


def test_run_contention_covers_all_subsets():
    spec = DickeSpec(3, 1)
    encoder = build_linear_encoder(spec)
    rng = np.random.default_rng(0)
    seen = {run_contention(spec, encoder, rng)[0].winners for _ in range(200)}
    assert seen == {(1,), (2,), (3,)}


# ---------------------------------------------------------------- local unitaries

def test_build_u_d_examples():
    assert build_u_d((1, 1, 0)) == ["I", "I", "H"]
    assert build_u_d((1, 1, 1, 1)) == ["I", "I", "I", "I"]
    assert build_u_d((0, 1, 1, 0)) == ["H", "I", "I", "H"]
    with pytest.raises(ValueError):
        build_u_d((0, 2))


# ---------------------------------------------------------------- EPR extraction

def test_extract_epr_n3_even_branch():
    outcome, pair = extract_epr(3, [1, 1, 0], force_bits([0]))
    assert outcome.g_parity == 0
    assert outcome.bell_state is BellState.PHI_PLUS
    assert sv.fidelity(bell_pair(+1), pair) == pytest.approx(1.0, abs=1e-10)


def test_extract_epr_n3_odd_branch():
    outcome, pair = extract_epr(3, [1, 1, 0], force_bits([1]))
    assert outcome.g_parity == 1
    assert outcome.bell_state is BellState.PHI_MINUS
    assert sv.fidelity(bell_pair(-1), pair) == pytest.approx(1.0, abs=1e-10)


def test_extract_epr_n5_all_branches():
    n = 5
    for winners in combinations(range(1, n + 1), 2):
        d = [1 if i in winners else 0 for i in range(1, n + 1)]
        for branch in range(2 ** (n - 2)):
            bits = [(branch >> t) & 1 for t in range(n - 2)]
            outcome, pair = extract_epr(n, d, force_bits(bits))
            parity = sum(bits) % 2
            assert outcome.g_parity == parity
            target = bell_pair(-1 if parity else +1)
            assert sv.fidelity(target, pair) >= 1 - 1e-10


def test_extract_epr_wrong_winner_count():
    with pytest.raises(WrongWinnerCount):
        extract_epr(4, [1, 0, 0, 0], np.random.default_rng(0))
    with pytest.raises(WrongWinnerCount):
        extract_epr(4, [1, 1, 1, 0], np.random.default_rng(0))
    with pytest.raises(ValueError, match=r"d_vector length 3 != n 4"):
        extract_epr(4, [1, 1, 0], np.random.default_rng(0))


def test_extract_epr_fills_views():
    views = [NodeView(node_id=i, d=d) for i, d in zip(range(1, 5), (0, 1, 1, 0))]
    outcome, _ = extract_epr(4, [0, 1, 1, 0], force_bits([1, 0]), views=views)
    assert views[0].g == 1 and views[3].g == 0
    assert views[1].g is None and views[2].g is None
    assert outcome.g_parity == 1
    assert anonymity_audit(views)


# ---------------------------------------------------------------- canonicalization

def test_canonicalize_bell_fixes_phi_minus():
    fixed = canonicalize_bell(bell_pair(-1), (2, 5), 1)
    assert states_equal(fixed, bell_pair(+1))


def test_canonicalize_bell_keeps_phi_plus():
    same = canonicalize_bell(bell_pair(+1), (1, 2), 0)
    assert states_equal(same, bell_pair(+1))


def test_canonicalize_after_extraction_always_phi_plus():
    n = 4
    for winners in combinations(range(1, n + 1), 2):
        d = [1 if i in winners else 0 for i in range(1, n + 1)]
        for branch in range(4):
            bits = [branch & 1, branch >> 1]
            outcome, pair = extract_epr(n, d, force_bits(bits))
            canon = canonicalize_bell(pair, outcome.winners, outcome.g_parity)
            assert sv.fidelity(bell_pair(+1), canon) == pytest.approx(1.0, abs=1e-10)


def test_canonicalize_validation():
    with pytest.raises(ValueError):
        canonicalize_bell(basis_state(3, [0, 0, 0]), (1, 2), 0)
    with pytest.raises(ValueError):
        canonicalize_bell(bell_pair(+1), (1, 2, 3), 0)


# ---------------------------------------------------------------- anonymity

def test_audit_accepts_clean_run():
    spec = DickeSpec(4, 2)
    outcome, views, pair = run_round(spec, build_linear_encoder(spec), np.random.default_rng(3))
    assert anonymity_audit(views)
    # after a k=2 round losers hold g, winners do not
    for view in views:
        assert (view.g is None) == (view.d == 1)
    assert pair is not None and outcome.bell_state is not None


def test_audit_rejects_augmented_view():
    views = [NodeView(1, 1), NodeView(2, 0, 1)]
    views[0].peer_d = 0  # a node holding another node's outcome
    assert not anonymity_audit(views)


def test_audit_rejects_winner_with_g():
    assert not anonymity_audit([NodeView(1, 1, 0)])


def test_audit_rejects_non_bit_outcomes():
    assert not anonymity_audit([NodeView(1, 2)])
    assert not anonymity_audit([NodeView(1, 0, 2), NodeView(2, 1)])


def test_audit_rejects_duplicate_ids():
    assert not anonymity_audit([NodeView(1, 0, 0), NodeView(1, 1)])


def test_audit_accepts_pre_extraction_loser():
    assert anonymity_audit([NodeView(1, 0), NodeView(2, 1)])


# ---------------------------------------------------------------- batch sampler

def test_batch_sampler_agrees_with_single_runs():
    spec = DickeSpec(4, 2)
    encoder = build_linear_encoder(spec)
    runs = 30_000
    _, d_bits, a_bits = draw_rounds(spec, encoder, runs, np.random.default_rng(1)).rows()
    assert d_bits.shape == (runs, 4) and a_bits.shape == (runs, 3)
    assert (d_bits.sum(axis=1) == 2).all()
    # ancilla word always equals the GF(2) image of the data bits
    assert (a_bits == d_bits[:, :3]).all()
    # both sampling paths agree with the uniform law at 3 sigma
    sigma = math.sqrt((1 / 6) * (5 / 6) / runs)
    batch_counts = {}
    for row in d_bits:
        batch_counts[tuple(row)] = batch_counts.get(tuple(row), 0) + 1
    for count in batch_counts.values():
        assert abs(count / runs - 1 / 6) < 3 * sigma

    single = {}
    rng = np.random.default_rng(2)
    single_runs = 3_000
    for _ in range(single_runs):
        outcome, _ = run_contention(spec, encoder, rng)
        single[outcome.d_vector] = single.get(outcome.d_vector, 0) + 1
    sigma_single = math.sqrt((1 / 6) * (5 / 6) / single_runs)
    for count in single.values():
        assert abs(count / single_runs - 1 / 6) < 4 * sigma_single


def test_batch_sampler_rejects_encoder_for_another_n():
    encoder = build_linear_encoder(DickeSpec(5, 2))
    with pytest.raises(ValueError, match="n=5"):
        draw_rounds(DickeSpec(4, 2), encoder, 10, np.random.default_rng(0))


def dense_born_sampler(spec, encoder, runs, rng):
    """Reference: the Born law of the 2^(n+ell) amplitudes, checked uniform on exactly C(n,k)
    basis states, drawn as a uniform rank into that support in ascending basis index."""
    state = apply_encoder(dicke_state(spec), encoder)
    probs = np.abs(state.amplitudes) ** 2
    support = np.flatnonzero(probs > 1e-12)
    assert len(support) == spec.num_outcomes
    np.testing.assert_allclose(probs[support], 1 / spec.num_outcomes, rtol=1e-9)
    indices = support[rng.integers(len(support), size=runs, dtype=np.int64)]
    total = spec.n + encoder.ell
    bits = (indices[:, None] >> np.arange(total - 1, -1, -1)) & 1
    return bits[:, : spec.n], bits[:, spec.n:]


def _oracle_encoders():
    """Every (n, k) and encoder kind whose dense register has n + ell <= 16 qubits."""
    cases = []
    for n in range(2, 13):
        for k in range(1, n):
            if 2 * n - 1 <= 16:
                cases.append((n, k, "linear"))
            if n + max(1, math.ceil(math.log2(math.comb(n, k)))) <= 16:
                cases.append((n, k, "binary"))
    return cases


@pytest.mark.parametrize("n,k,kind", _oracle_encoders())
def test_classical_sampler_matches_dense_draws(n, k, kind):
    spec = DickeSpec(n, k)
    if kind == "linear":
        encoder = build_linear_encoder(spec)
    else:
        try:
            encoder = build_binary_encoder(spec)
        except SynthesisFailed as exc:
            encoder = build_binary_encoder(spec, ell=exc.best_ell)
    for seed in (0, 1):
        dense_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        d_ref, a_ref = dense_born_sampler(spec, encoder, 500, dense_rng)
        _, d_bits, a_bits = draw_rounds(spec, encoder, 500, rng).rows()
        np.testing.assert_array_equal(d_bits, d_ref)
        np.testing.assert_array_equal(a_bits, a_ref)
        assert rng.random() == dense_rng.random()  # same stream position afterwards


@pytest.mark.parametrize("n,k", [(4, 2), (6, 2), (5, 3), (6, 1)])
def test_winner_subset_uniformity_chi_square(n, k):
    # goodness of fit against the uniform subset law at significance 0.001
    from scipy.stats import chisquare
    from eacsim.channel import split_rng

    spec = DickeSpec(n, k)
    runs = 100_000
    _, d_bits, _ = draw_rounds(
        spec, build_linear_encoder(spec), runs, split_rng(17, n * 10 + k)
    ).rows()
    outcomes, counts = np.unique(d_bits, axis=0, return_counts=True)
    assert len(outcomes) == math.comb(n, k)
    _, p_value = chisquare(counts)
    assert p_value > 0.001


def test_loser_sampler_marks_winners():
    d = np.array([[1, 1, 0, 0], [0, 1, 0, 1]])
    g = sample_loser_outcomes(d, np.random.default_rng(0))
    assert g.shape == d.shape
    assert (g[d == 1] == -1).all()
    assert ((g[d == 0] == 0) | (g[d == 0] == 1)).all()


def test_loser_parity_is_balanced():
    # branch law: every loser string equally likely, so parity is a fair coin
    d = np.tile([1, 1, 0, 0, 0], (20_000, 1))
    parity = sample_loser_outcomes(d, np.random.default_rng(3)).clip(0).sum(axis=1) % 2
    sigma = math.sqrt(0.25 / len(parity))
    assert abs(parity.mean() - 0.5) < 3 * sigma


NO_KEPT_HALF = "a PCG64, PCG64DXSM, Philox or SFC64 bit generator, not MT19937"


@pytest.mark.parametrize("n,runs", [(8, 2000), (13, 999)])
def test_loser_bits_refuse_a_generator_without_a_kept_half(n, runs):
    # MT19937 keeps no 32-bit half in its state, so the raw words cannot give numpy's bits;
    # the transcript refuses before its first byte, from its line table at (8, 2000) and
    # formatting each chunk's rounds at (13, 999)
    mt = np.random.Generator(np.random.MT19937(0))
    with pytest.raises(TypeError, match=NO_KEPT_HALF):
        protocol._fair_bits(mt, 0)
    with pytest.raises(TypeError, match=NO_KEPT_HALF):
        sample_loser_outcomes(np.ones((1, n)), mt)
    spec = DickeSpec(n, 2)
    chunks = transcript(draw_rounds(spec, build_linear_encoder(spec), runs, mt), 0)
    with pytest.raises(TypeError, match=NO_KEPT_HALF):
        next(chunks)


@pytest.mark.parametrize("n,k,runs", [(8, 3, 2000), (300, 3, 400)])
def test_rounds_without_loser_bits_take_any_generator(n, k, runs):
    # k != 2 draws no loser bits: MT19937's rounds write the bytes the same rounds write with
    # any generator, and leave its state as it was; from the line table at (8, 3) and
    # formatting each chunk's rounds at (300, 3)
    spec = DickeSpec(n, k)
    mt = np.random.Generator(np.random.MT19937(0))
    rounds = draw_rounds(spec, build_linear_encoder(spec), runs, mt)
    state = mt.bit_generator.state
    got = b"".join(transcript(rounds, 0))
    np.testing.assert_equal(mt.bit_generator.state, state)
    assert got == b"".join(transcript(rounds._replace(rng=np.random.default_rng(1)), 0))
    assert got.count(b"\n") == runs == got.count(b'"g":null')


# ---------------------------------------------------------------- transcripts

def transcript_record(outcome, views, seed):
    """Reference: JSON-serializable record of one round, keys in transcript order."""
    return {
        "d_vector": list(outcome.d_vector),
        "ancilla_word": list(outcome.ancilla_word) if outcome.ancilla_word is not None else None,
        "winners": list(outcome.winners),
        "g": [view.g for view in sorted(views, key=lambda v: v.node_id)],
        "g_parity": outcome.g_parity,
        "bell_state": outcome.bell_state.value if outcome.bell_state is not None else None,
        "seed": seed,
    }


def write_transcript(records, stream):
    """Reference: one JSON object per line (JSON-lines) to an open text stream."""
    for record in records:
        stream.write(json.dumps(record, separators=(",", ":")) + "\n")


def test_transcript_round_trip():
    spec = DickeSpec(4, 2)
    outcome, views, _ = run_round(spec, build_linear_encoder(spec), np.random.default_rng(9))
    record = transcript_record(outcome, views, seed=9)
    buf = io.StringIO()
    write_transcript([record], buf)
    parsed = json.loads(buf.getvalue().strip())
    assert parsed["d_vector"] == list(outcome.d_vector)
    assert parsed["winners"] == list(outcome.winners)
    assert parsed["ancilla_word"] == list(outcome.ancilla_word)
    assert parsed["bell_state"] in ("phi_plus", "phi_minus")
    assert parsed["seed"] == 9
    g = parsed["g"]
    assert len(g) == 4
    for i, view in enumerate(sorted(views, key=lambda v: v.node_id)):
        assert g[i] == view.g


def per_row_transcript(d_bits, a_bits, g_matrix, parity, seed):
    """Reference: one dict and one json.dumps per row."""
    lines = []
    for r in range(len(d_bits)):
        d = d_bits[r]
        record = {
            "d_vector": [int(b) for b in d],
            "ancilla_word": [int(b) for b in a_bits[r]],
            "winners": [int(i) + 1 for i in np.flatnonzero(d)],
            "g": None if g_matrix is None else [int(g) if g >= 0 else None for g in g_matrix[r]],
            "g_parity": None if parity is None else int(parity[r]),
            "bell_state": None if parity is None
            else ("phi_minus" if parity[r] else "phi_plus"),
            "seed": seed,
        }
        lines.append(json.dumps(record, separators=(",", ":")) + "\n")
    return "".join(lines)


@pytest.mark.parametrize("n,k,runs", [(4, 2, 300), (5, 3, 300), (12, 2, 20_000), (11, 4, 500),
                                      (120, 2, 300), (22, 11, 3000), (2, 1, 5),
                                      (256, 255, 40), (9, 2, 5000), (9, 2, 4000),
                                      (8, 3, 3000), (3, 2, 50)])
def test_bulk_transcript_matches_per_row_dumps(monkeypatch, n, k, runs):
    # k=3 and k=4 have null g; n >= 10 has two-digit winners, n=120 three-digit ones
    # (and ell = 119); 20k rows span several chunks; at (22,11) nearly every row is
    # distinct; (2,1) has one ancilla; at (256,255) nearly every row names node 256,
    # uint8 index 255.  At the default chunk size (9,2,5000) writes from its table of all
    # 36 * 128 = 4,608 lines a round can take (no more than 5,000 runs or a chunk's 4,946
    # rounds), (9,2,4000) formats every round (fewer runs than lines), (8,3,3000) writes
    # from its 56 lines with null g and (3,2,50) from 6 lines of one loser each.  Written at
    # the default chunk size, at 4 KiB and at 1-round chunks.
    spec = DickeSpec(n, k)
    want = None
    for chunk_bytes in (enc.FORMAT_CHUNK_BYTES, 4096, 1):
        monkeypatch.setattr(enc, "FORMAT_CHUNK_BYTES", chunk_bytes)
        rounds = draw_rounds(spec, build_linear_encoder(spec), runs, np.random.default_rng(n + k))
        if want is None:
            _, d_bits, a_bits = rounds.rows()
            g_matrix = parity = None
            if k == 2:  # the losers' bits transcript is about to draw
                g_matrix = sample_loser_outcomes(d_bits, copy.deepcopy(rounds.rng))
                parity = g_matrix.clip(0).sum(axis=1) % 2
            want = per_row_transcript(d_bits, a_bits, g_matrix, parity, 11).splitlines(True)
        got = b"".join(transcript(rounds, 11)).decode().splitlines(keepends=True)
        assert len(got) == runs == len(want)
        mismatch = next((r for r in range(runs) if got[r] != want[r]), None)
        assert mismatch is None, (chunk_bytes, mismatch, got[mismatch], want[mismatch])


def test_bulk_transcript_matches_transcript_record():
    # a k=2 row is the per-round record of the ContentionOutcome and NodeViews it holds,
    # keys in its order
    spec = DickeSpec(5, 2)
    rounds = draw_rounds(spec, build_linear_encoder(spec), 20, np.random.default_rng(2))
    lines = b"".join(transcript(rounds, 2)).decode().splitlines(keepends=True)
    assert len(lines) == 20
    for line in lines:
        row = json.loads(line)
        outcome = ContentionOutcome(tuple(row["d_vector"]), tuple(row["winners"]),
                                    tuple(row["ancilla_word"]), BellState(row["bell_state"]),
                                    row["g_parity"])
        views = [NodeView(i + 1, d, g) for i, (d, g) in enumerate(zip(row["d_vector"], row["g"]))]
        assert anonymity_audit(views)
        expected = io.StringIO()
        write_transcript([transcript_record(outcome, views, seed=2)], expected)
        assert line == expected.getvalue()


@pytest.mark.parametrize("kind,n,k,runs", [*(pytest.param("linear", n, k, 3000, id=f"{n}-{k}")
                                             for n, k in [(8, 2), (22, 11), (120, 2), (2, 1)]),
                                           ("linear", 8, 2, 27), ("linear", 8, 2, 28),
                                           ("linear", 8, 2, 29), ("binary", 256, 1, 5000),
                                           ("binary", 257, 1, 5000)])
def test_count_outcomes_matches_numpy(monkeypatch, kind, n, k, runs):
    # at (22,11) nearly every draw is distinct; (2,1) has two outcomes.  The ranks are counted
    # when C(n,k) <= runs, else sorted: (8,2) has C = 28 outcomes, drawn at C - 1, C and C + 1
    # rounds; (256,1) draws all 256 outcomes (a one-byte index) and (257,1) all 257 (two bytes)
    spec = DickeSpec(n, k)
    encoder = build_linear_encoder(spec) if kind == "linear" else build_binary_encoder(spec)
    rng = np.random.default_rng(5)
    ranks = rng.integers(spec.num_outcomes, size=runs, dtype=np.int64)
    _, d_bits, a_bits = unranked_rows(encoder, k, ranks)
    sorts, unique = [], np.unique
    with monkeypatch.context() as patch:
        patch.setattr(np, "unique", lambda *args, **kw: sorts.append(1) or unique(*args, **kw))
        rounds = draw_rounds(spec, encoder, runs, np.random.default_rng(5))
    assert bool(sorts) == (spec.num_outcomes > runs)  # both paths give the same rounds
    assert rounds.rng.bit_generator.state == rng.bit_generator.state  # the ranks' draw alone
    tally = rounds.tally
    # the same draw: each round's outcome row holds the winners its rank unranks to
    np.testing.assert_array_equal(tally.winners[rounds.index], _slice_columns(n, k, ranks))
    ref_rows, first, ref_counts = np.unique(d_bits, axis=0, return_index=True, return_counts=True)
    assert tally.winners.shape == (len(ref_rows), k) and tally.runs == runs
    assert rounds.index.dtype == np.min_scalar_type(len(ref_rows) - 1)
    if kind == "binary":
        assert len(ref_rows) == n  # every outcome drawn
    np.testing.assert_array_equal(tally.winners, np.nonzero(ref_rows)[1].reshape(-1, k))
    np.testing.assert_array_equal(tally.counts, ref_counts)
    np.testing.assert_array_equal(rounds.index[first], np.arange(len(ref_rows)))
    words = np.unpackbits(rounds.words.view(np.uint8), axis=1, count=encoder.ell)
    np.testing.assert_array_equal(words, a_bits[first])
    # integer sums over the outcomes: the float mean of the rows to the bit
    assert tally.node_win_rates().tolist() == d_bits.mean(axis=0).tolist()
    # keys in sorted() order ("1 10" before "1 2"), each with count / runs
    rates = {" ".join(str(i + 1) for i in np.flatnonzero(row)): int(c) / runs
             for row, c in zip(ref_rows, ref_counts)}
    assert list(tally.subset_rates().items()) == sorted(rates.items())


def test_counted_rounds_hold_one_byte_a_round():
    # tracemalloc counts bytes, not time: the 8 MB of int64 ranks and the 1 MB uint8 index of
    # 10^6 rounds of (8,2), under 12 MB; an int64 index over all rounds would add 8 MB more
    spec = DickeSpec(8, 2)
    encoder = build_linear_encoder(spec)
    draw_rounds(spec, encoder, 1000, np.random.default_rng(0))  # warm-up, untraced
    tracemalloc.start()
    try:
        draw_rounds(spec, encoder, 10**6, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6


@pytest.mark.parametrize("n,k,runs,chunk_bytes", [(8, 2, 1000, 1 << 18), (8, 2, 1000, 470),
                                                  (8, 2, 7, 1), (13, 2, 999, 3003),
                                                  (22, 11, 500, 1000), (6, 1, 301, 100),
                                                  (8, 2, 20000, 1 << 18), (12, 3, 2000, 50000),
                                                  (6, 1, 301, 6 * 35), (6, 1, 301, 5 * 35),
                                                  (8, 2, 20000, 1792 * 47),
                                                  (8, 2, 20000, 1791 * 47)])
def test_streamed_rounds_are_the_whole_draw(monkeypatch, n, k, runs, chunk_bytes):
    # one chunk; 10-row chunks; 1-row chunks; 39-row chunks of 13 nodes (an odd int32 count)
    # and a short last one; k = 11 and k = 1 draw no loser bits; 4 chunks of 5,577 rounds;
    # 3 chunks of 704 rounds with null g; the 6 outcomes of (6,1) (35 bytes a round) in
    # chunks of 6 and of 5; the 28 * 64 = 1,792 lines of (8,2) (47 bytes a round) in chunks
    # of 1,792 and of 1,791.  The reference writes every round in one chunk: from its table
    # of every line a round can take when that table holds no more lines than there are
    # rounds (k != 2, and (8,2) at 20,000 rounds), else formatting every round.  The
    # streamed run takes the line table when it holds no more lines than a chunk has rounds
    # too (row_table), and formats each chunk's rounds otherwise.  The formatter's calls,
    # each its rows, show that the patch reaches transcript.
    row_table = (n, k, runs, chunk_bytes) in {(8, 2, 20000, 1 << 18), (12, 3, 2000, 50000),
                                              (6, 1, 301, 6 * 35), (8, 2, 20000, 1792 * 47)}
    spec = DickeSpec(n, k)
    encoder = build_linear_encoder(spec)
    whole_rng, streamed_rng = np.random.default_rng(9), np.random.default_rng(9)
    calls, format_int_rows = [], protocol._format_int_rows

    def counted(pieces):
        calls.append(next(len(piece[0]) for piece in pieces if isinstance(piece, tuple)))
        return format_int_rows(pieces)

    monkeypatch.setattr(protocol, "_format_int_rows", counted)
    monkeypatch.setattr(enc, "FORMAT_CHUNK_BYTES", 1 << 40)
    whole = draw_rounds(spec, encoder, runs, whole_rng)
    distinct = len(whole.tally.counts)
    lines = distinct * 2 ** (n - 2) if k == 2 else distinct
    want = b"".join(transcript(whole, 4))
    whole_lines = k != 2 or (n, runs) == (8, 20000)
    assert calls == ([lines] if whole_lines else [runs])
    calls.clear()
    monkeypatch.setattr(enc, "FORMAT_CHUNK_BYTES", chunk_bytes)
    chunks = list(transcript(draw_rounds(spec, encoder, runs, streamed_rng), 4))
    got = b"".join(chunks)
    step = max(1, chunk_bytes // (5 * n + encoder.ell))
    assert calls == ([lines] if row_table else [min(step, runs - s) for s in range(0, runs, step)])
    got, want = got.splitlines(keepends=True), want.splitlines(keepends=True)
    assert len(got) == runs == len(want)
    mismatch = next((r for r in range(runs) if got[r] != want[r]), None)
    assert mismatch is None, (mismatch, got[mismatch], want[mismatch])
    assert streamed_rng.bit_generator.state == whole_rng.bit_generator.state
    # every path yields text chunks of at most chunk_bytes, or of one longer line
    assert max(map(len, chunks)) <= max(chunk_bytes, max(map(len, want)))
    if row_table:  # as many lines as the longest fits in chunk_bytes, drawn a chunk at a time
        text_step = max(1, chunk_bytes // max(map(len, want)))
        assert [c.count(b"\n") for c in chunks] == [min(text_step, runs - s)
                                                    for s in range(0, runs, text_step)]


@pytest.mark.parametrize("n,k", [(8, 2), (12, 5), (2, 1)])
def test_sampler_ranks_index_the_slice_in_basis_order(n, k):
    # rank i is the i-th weight-k string in ascending basis index, node 1 most significant;
    # a round keeps its outcome's row in the fewest bytes: one for the 28 outcomes of (8,2),
    # two for the 700-odd of 792 drawn at (12,5)
    index_dtype = np.uint16 if (n, k) == (12, 5) else np.uint8
    spec = DickeSpec(n, k)
    rounds = draw_rounds(spec, build_linear_encoder(spec), 2000, np.random.default_rng(6))
    ranks = np.random.default_rng(6).integers(spec.num_outcomes, size=2000, dtype=np.int64)
    winners, d_bits, _ = rounds.rows()
    assert rounds.index.dtype == index_dtype and rounds.index.shape == (2000,)
    np.testing.assert_array_equal(winners, np.nonzero(d_bits)[1].reshape(-1, k))
    assert 0 <= ranks.min() and ranks.max() < spec.num_outcomes
    basis = [x for x in range(2**n) if bin(x).count("1") == k]
    want = (np.array(basis)[ranks][:, None] >> np.arange(n - 1, -1, -1)) & 1
    np.testing.assert_array_equal(d_bits, want)


def test_draw_rounds_refuses_a_count_below_one():
    # checked first, so a negative count never reaches numpy's size refusal
    spec = DickeSpec(8, 2)
    for runs in (0, -1):
        with pytest.raises(ValueError, match=f"need runs >= 1, got {runs}"):
            draw_rounds(spec, build_linear_encoder(spec), runs, np.random.default_rng(0))


def test_run_round_k1_has_no_pair():
    spec = DickeSpec(3, 1)
    outcome, views, pair = run_round(spec, build_linear_encoder(spec), np.random.default_rng(4))
    assert pair is None
    assert outcome.bell_state is None
    assert anonymity_audit(views)
