"""Protocol rounds: winner counts, decode consistency, Bell parity, anonymity."""
import json
import io
import math
from itertools import combinations

import numpy as np
import pytest

from conftest import force_bits

from eacsim import protocol, statevector as sv
from eacsim.encoder import (
    SynthesisFailed,
    apply_encoder,
    build_binary_encoder,
    build_linear_encoder,
    verify_injectivity,
)
from eacsim.protocol import (
    BellState,
    NodeView,
    WrongWinnerCount,
    anonymity_audit,
    bell_pair,
    build_u_d,
    canonicalize_bell,
    extract_epr,
    run_contention,
    run_round,
    sample_contention_outcomes,
    sample_loser_outcomes,
    unique_rows,
    write_transcript_arrays,
)
from eacsim.states import DickeSpec, dicke_state


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
    encoder = build_binary_encoder(spec, np.random.default_rng(5))
    codebook = verify_injectivity(encoder, spec)
    for seed in range(5):
        outcome, _ = run_contention(spec, encoder, np.random.default_rng(seed))
        assert sum(outcome.d_vector) == 2
        assert codebook.entries[outcome.ancilla_word] == outcome.winners


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
    assert sv.states_equal(fixed, bell_pair(+1))


def test_canonicalize_bell_keeps_phi_plus():
    same = canonicalize_bell(bell_pair(+1), (1, 2), 0)
    assert sv.states_equal(same, bell_pair(+1))


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
        canonicalize_bell(sv.basis_state(3, [0, 0, 0]), (1, 2), 0)
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


def test_audit_rejects_duplicate_ids():
    assert not anonymity_audit([NodeView(1, 0, 0), NodeView(1, 1)])


def test_audit_accepts_pre_extraction_loser():
    assert anonymity_audit([NodeView(1, 0), NodeView(2, 1)])


# ---------------------------------------------------------------- batch sampler

def test_batch_sampler_agrees_with_single_runs():
    spec = DickeSpec(4, 2)
    encoder = build_linear_encoder(spec)
    runs = 30_000
    d_bits, a_bits = sample_contention_outcomes(spec, encoder, runs, np.random.default_rng(1))
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


def dense_born_sampler(spec, encoder, runs, rng):
    """Reference: one categorical draw over the 2^(n+ell) amplitudes per round."""
    state = apply_encoder(dicke_state(spec), encoder)
    probs = np.abs(state.amplitudes) ** 2
    probs /= probs.sum()
    indices = rng.choice(len(probs), size=runs, p=probs)
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
            encoder = build_binary_encoder(spec, np.random.default_rng(0))
        except SynthesisFailed as exc:
            encoder = build_binary_encoder(spec, np.random.default_rng(0), ell=exc.best_ell)
    for seed in (0, 1):
        dense_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        d_ref, a_ref = dense_born_sampler(spec, encoder, 500, dense_rng)
        d_bits, a_bits = sample_contention_outcomes(spec, encoder, 500, rng)
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
    d_bits, _ = sample_contention_outcomes(
        spec, build_linear_encoder(spec), runs, split_rng(17, n * 10 + k)
    )
    outcomes, counts = np.unique(d_bits, axis=0, return_counts=True)
    assert len(outcomes) == math.comb(n, k)
    _, p_value = chisquare(counts)
    assert p_value > 0.001


def test_loser_sampler_marks_winners():
    d = np.array([[1, 1, 0, 0], [0, 1, 0, 1]])
    g, parity = sample_loser_outcomes(4, d, np.random.default_rng(0))
    assert (g[d == 1] == -1).all()
    assert ((g[d == 0] == 0) | (g[d == 0] == 1)).all()
    expected = np.where(g > 0, g, 0).sum(axis=1) % 2
    assert (parity == expected).all()


def test_loser_parity_is_balanced():
    # branch law: every loser string equally likely, so parity is a fair coin
    d = np.tile([1, 1, 0, 0, 0], (20_000, 1))
    _, parity = sample_loser_outcomes(5, d, np.random.default_rng(3))
    sigma = math.sqrt(0.25 / len(parity))
    assert abs(parity.mean() - 0.5) < 3 * sigma


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
                                      (120, 2, 300), (22, 11, 3000), (2, 1, 5)])
def test_bulk_transcript_matches_per_row_dumps(n, k, runs):
    # k=3 and k=4 have null g; n >= 10 has two-digit winners, n=120 three-digit ones
    # (and ell = 119); 20k rows span several chunks; at (22,11) nearly every row is
    # distinct; (2,1) has one ancilla
    spec = DickeSpec(n, k)
    rng = np.random.default_rng(n + k)
    d_bits, a_bits = sample_contention_outcomes(spec, build_linear_encoder(spec), runs, rng)
    g_matrix = parity = None
    if k == 2:
        g_matrix, parity = sample_loser_outcomes(n, d_bits, rng)
    buf = io.StringIO()
    write_transcript_arrays(d_bits, a_bits, g_matrix, parity, 11, buf)
    got = buf.getvalue().splitlines(keepends=True)
    want = per_row_transcript(d_bits, a_bits, g_matrix, parity, 11).splitlines(keepends=True)
    assert len(got) == runs == len(want)
    mismatch = next((r for r in range(runs) if got[r] != want[r]), None)
    assert mismatch is None, (mismatch, got[mismatch], want[mismatch])


def test_bulk_transcript_matches_transcript_record():
    # the k=2 rows carry the keys of the per-round record, in its order
    spec = DickeSpec(5, 2)
    outcome, views, _ = run_round(spec, build_linear_encoder(spec), np.random.default_rng(2))
    expected = io.StringIO()
    write_transcript([transcript_record(outcome, views, seed=2)], expected)
    g_matrix = np.array([[-1 if v.g is None else v.g for v in views]])
    buf = io.StringIO()
    write_transcript_arrays(np.array([outcome.d_vector]), np.array([outcome.ancilla_word]),
                            g_matrix, np.array([outcome.g_parity]), 2, buf)
    assert buf.getvalue() == expected.getvalue()


def test_unique_rows_matches_numpy():
    rng = np.random.default_rng(5)
    for width in (3, 8, 15, 70):
        bits = (rng.random((400, width)) < 0.3).astype(np.uint8)
        bits = np.vstack([bits, bits[rng.integers(0, 400, size=400)]])
        rows, inverse, counts = unique_rows(bits)
        ref_rows, ref_inverse, ref_counts = np.unique(
            bits, axis=0, return_inverse=True, return_counts=True)
        np.testing.assert_array_equal(rows, ref_rows)
        np.testing.assert_array_equal(inverse, ref_inverse.reshape(-1))
        np.testing.assert_array_equal(counts, ref_counts)


def test_run_round_k1_has_no_pair():
    spec = DickeSpec(3, 1)
    outcome, views, pair = run_round(spec, build_linear_encoder(spec), np.random.default_rng(4))
    assert pair is None
    assert outcome.bell_state is None
    assert anonymity_audit(views)
