"""Property tests: the weight-k slice unranker, the classical contention sampler and the
bulk transcript (n <= 40), the confidence interval and the absorbing threshold."""
import io
import json
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from eacsim.channel import normal_ci
from eacsim.encoder import build_binary_encoder, build_linear_encoder
from eacsim.markov import absorbing_threshold, state_prob
from eacsim.protocol import (
    sample_contention_outcomes,
    sample_loser_outcomes,
    write_transcript_arrays,
)
from eacsim.states import DickeSpec, _slice_columns

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


@PROPERTY_SETTINGS
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n)))
       .filter(lambda nk: math.comb(*nk) <= 2 * 10**5))
def test_slice_unranker_is_the_ascending_weight_k_slice(nk):
    n, k = nk
    columns = _slice_columns(n, k)
    bits = np.zeros((math.comb(n, k), n), dtype=np.uint8)
    for col in columns:
        bits[np.arange(len(bits)), col] = 1
    assert len(columns) == k and (bits.sum(axis=1) == k).all()
    # packed big-endian bytes compare as the bitstrings do, also past 64 bits
    rows = [row.tobytes() for row in np.packbits(bits, axis=1)]
    assert all(a < b for a, b in zip(rows, rows[1:]))  # strictly ascending, hence distinct


@st.composite
def contention_cases(draw):
    """(spec, encoder, runs, seed): linear encoders, or the k=1 binary encoder.

    k stays within 3 of 0 or n so the weight-k slice is at most C(40,3) rows.
    """
    n = draw(st.integers(2, 40))
    if draw(st.booleans()):
        spec = DickeSpec(n, 1)
        encoder = build_binary_encoder(spec)
    else:
        j = draw(st.integers(1, min(3, n - 1)))
        spec = DickeSpec(n, draw(st.sampled_from((j, n - j))))
        encoder = build_linear_encoder(spec)
    return spec, encoder, draw(st.integers(1, 500)), draw(st.integers(0, 2**32))


@PROPERTY_SETTINGS
@given(contention_cases())
def test_rows_have_weight_k_and_word_g_d(case):
    spec, encoder, runs, seed = case
    d_bits, a_bits = sample_contention_outcomes(spec, encoder, runs, np.random.default_rng(seed))
    assert d_bits.shape == (runs, spec.n) and a_bits.shape == (runs, encoder.ell)
    assert (d_bits.sum(axis=1) == spec.k).all()
    np.testing.assert_array_equal(a_bits, (d_bits.astype(np.int64) @ encoder.matrix().T) % 2)


@PROPERTY_SETTINGS
@given(contention_cases())
def test_bulk_transcript_parses_back(case):
    spec, encoder, runs, seed = case
    rng = np.random.default_rng(seed)
    d_bits, a_bits = sample_contention_outcomes(spec, encoder, runs, rng)
    g_matrix = parity = None
    if spec.k == 2:
        g_matrix, parity = sample_loser_outcomes(spec.n, d_bits, rng)
    buf = io.StringIO()
    write_transcript_arrays(d_bits, a_bits, g_matrix, parity, seed, buf)
    records = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert len(records) == runs
    np.testing.assert_array_equal([r["d_vector"] for r in records], d_bits)
    np.testing.assert_array_equal([r["ancilla_word"] for r in records], a_bits)
    for record, d in zip(records, d_bits):
        assert record["winners"] == [int(i) + 1 for i in np.flatnonzero(d)]
        assert record["seed"] == seed
    if g_matrix is None:
        assert all(r["g"] is None and r["g_parity"] is None for r in records)
    else:
        g = [[-1 if x is None else x for x in r["g"]] for r in records]
        np.testing.assert_array_equal(g, g_matrix)
        np.testing.assert_array_equal([r["g_parity"] for r in records], parity)
        assert all(r["bell_state"] == ("phi_minus" if r["g_parity"] else "phi_plus")
                   for r in records)


@PROPERTY_SETTINGS
@given(st.integers(1, 10**6).flatmap(lambda t: st.tuples(st.integers(0, t), st.just(t))))
def test_interval_brackets_estimate_with_positive_width(case):
    count, trials = case
    p_hat = count / trials
    lo, hi = normal_ci(p_hat, trials)
    assert 0.0 <= lo <= p_hat <= hi <= 1.0
    assert hi > lo


@PROPERTY_SETTINGS
@given(st.integers(1, 10**4), st.integers(1, 64), st.floats(1e-9, 0.5))
def test_threshold_inverts_full_connection(n, M, epsilon):
    q_bar = absorbing_threshold(n, M, epsilon)
    assert abs(state_prob(n, n, q_bar, M) - (1.0 - epsilon)) < 1e-9
    assert absorbing_threshold(n + 1, M, epsilon) <= q_bar
