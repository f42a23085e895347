"""Property tests: the weight-k slice unranker, the encoder rows packed from CNOT lists, the
classical contention rounds (n <= 62) and their row slices, the bulk transcript (n <= 40),
index rows in decimal, loser draws on row chunks, the three Generator draws and the package's
fair bits as transforms of the raw PCG64DXSM stream, the fair bits as numpy's loser draw on
four bit generators, the noisy contention estimator against its argsort reference and,
on tied uniforms, its partition rule, the full-connection estimator's certain-block test,
the confidence interval, the absorbing threshold and the exit code of any argv."""
import copy
import io
import json
import math
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from conftest import encoder_matrix, unranked_rows

from eacsim import channel
from eacsim.channel import (ChannelParams, _connect_prob, empirical_contention_success,
                            empirical_full_connection_by_slot, empirical_state_distribution,
                            make_rng, normal_ci)
from eacsim.cli import main
from eacsim.encoder import (EncoderCircuit, _format_int_rows, _packed_words,
                            build_binary_encoder, build_linear_encoder)
from eacsim.markov import absorbing_threshold, state_prob
from eacsim.protocol import _fair_bits, draw_rounds, sample_loser_outcomes, transcript
from eacsim.states import DickeSpec, _slice_columns

from test_channel import (reference_contention_success, reference_full_connection_by_slot,
                          reference_state_distribution, reference_status, sample_winner_sets)

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


@PROPERTY_SETTINGS
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n)))
       .filter(lambda nk: math.comb(*nk) <= 2 * 10**5))
def test_slice_unranker_is_the_ascending_weight_k_slice(nk):
    n, k = nk
    columns = _slice_columns(n, k)
    bits = np.zeros((math.comb(n, k), n), dtype=np.uint8)
    for col in columns.T:
        bits[np.arange(len(bits)), col] = 1
    assert columns.shape == (len(bits), k) and (bits.sum(axis=1) == k).all()
    assert columns.dtype == np.min_scalar_type(n - 1)
    # packed big-endian bytes compare as the bitstrings do, also past 64 bits
    rows = [row.tobytes() for row in np.packbits(bits, axis=1)]
    assert all(a < b for a, b in zip(rows, rows[1:]))  # strictly ascending, hence distinct


@PROPERTY_SETTINGS
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n)))
       .filter(lambda nk: math.comb(*nk) <= 2 * 10**5), st.data())
def test_slice_unranker_at_ranks_is_the_full_enumeration_there(nk, data):
    n, k = nk
    rank = st.integers(0, math.comb(n, k) - 1)
    ranks = np.array(data.draw(st.lists(rank, min_size=1, max_size=200)), dtype=np.int64)
    drawn = ranks.copy()
    got = _slice_columns(n, k, ranks)
    assert got.shape == (len(ranks), k)
    np.testing.assert_array_equal(got, _slice_columns(n, k)[ranks])
    np.testing.assert_array_equal(ranks, drawn)  # the caller's ranks are not consumed


@PROPERTY_SETTINGS
@given(st.integers(2, 62).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
       st.integers(1, 70), st.integers(1, 300), st.integers(0, 2**32))
@example((56, 28), 65, 300, 0)  # C(56,28) is just below 2^53; 65 ancillas span two words
@example((62, 31), 70, 300, 1)  # C(62,31) is about 2^58.7, past what a double could rank
def test_sampled_rows_past_the_slice_table_have_weight_k_and_word_g_d(nk, ell, runs, seed):
    # a random G, injective or not: the sampler draws (d, G.d) without tabulating the slice
    n, k = nk
    rng = np.random.default_rng(seed)
    g = rng.integers(0, 2, size=(ell, n))
    cnots = tuple((i + 1, j) for j in range(ell) for i in range(n) if g[j, i])
    encoder = EncoderCircuit(n=n, k=k, ell=ell, cnots=cnots, kind="binary")
    _, d_bits, a_bits = draw_rounds(DickeSpec(n, k), encoder, runs, rng).rows()
    assert d_bits.shape == (runs, n) and (d_bits.sum(axis=1) == k).all()
    np.testing.assert_array_equal(a_bits, (d_bits.astype(np.int64) @ g.T) % 2)


@PROPERTY_SETTINGS
@given(st.integers(1, 12), st.integers(1, 130), st.integers(0, 400), st.integers(0, 2**32))
@example(3, 70, 400, 0)  # many repeated gates; 70 ancillas span two uint64 blocks
def test_packed_rows_from_cnots_are_packbits_of_the_matrix(n, ell, gates, seed):
    rng = np.random.default_rng(seed)
    cnots = np.stack([rng.integers(1, n + 1, gates), rng.integers(0, ell, gates)], axis=1)
    circuit = EncoderCircuit(n=n, k=1, ell=ell, cnots=cnots, kind="binary")
    # G.e_i is row i itself: every row, then a draw with repeats that leaves some rows unpacked
    for picked in (np.arange(n), rng.integers(0, n, rng.integers(1, n + 1))):
        rows = _packed_words(circuit, picked.astype(np.uint8)[:, None]).view(np.uint8)
        want = np.zeros_like(rows)
        # repeats cancel in the oracle matrix
        want[:, : -(-ell // 8)] = np.packbits(encoder_matrix(circuit).T[picked], axis=1)
        np.testing.assert_array_equal(rows, want)


@st.composite
def picks_around_n(draw):
    """(circuit, columns): a linear, binary or random-CNOT circuit on n qubits and a (rows x k)
    index matrix, k >= 2, of n - 1, n or n + 1 entries: either side of the rule that packs all
    of G when n <= rows * k and only the picked rows past it."""
    n = draw(st.integers(3, 40))
    size = n + draw(st.sampled_from((-1, 0, 1)))
    k = draw(st.sampled_from([d for d in range(2, size + 1) if size % d == 0]))
    kind = draw(st.sampled_from(("linear", "binary", "random")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    if kind == "random":  # repeated gates; up to 130 ancillas, three uint64 blocks
        ell = draw(st.integers(1, 130))
        cnots = np.stack([rng.integers(1, n + 1, 3 * n), rng.integers(0, ell, 3 * n)], axis=1)
        circuit = EncoderCircuit(n=n, k=1, ell=ell, cnots=cnots, kind="binary")
    else:
        build = build_linear_encoder if kind == "linear" else build_binary_encoder
        circuit = build(DickeSpec(n, 1))
    return circuit, rng.integers(0, n, (size // k, k)).astype(np.uint8)


@PROPERTY_SETTINGS
@given(picks_around_n())
@example((build_linear_encoder(DickeSpec(6, 1)), np.array([[0, 5], [1, 4], [2, 3]], np.uint8)))
@example((build_linear_encoder(DickeSpec(7, 1)), np.array([[0, 6], [1, 5], [2, 4]], np.uint8)))
def test_packed_words_either_side_of_the_pick_rule(case):
    # every row picked once at n = rows * k; one row unpicked at n = rows * k + 1
    circuit, columns = case
    rows = np.packbits(encoder_matrix(circuit).T, axis=1)
    want = np.zeros((len(columns), 8 * -(-circuit.ell // 64)), dtype=np.uint8)
    want[:, : rows.shape[1]] = np.bitwise_xor.reduce(rows[columns], axis=1)
    np.testing.assert_array_equal(_packed_words(circuit, columns).view(np.uint8), want)


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
    winners, d_bits, a_bits = draw_rounds(spec, encoder, runs, np.random.default_rng(seed)).rows()
    assert d_bits.shape == (runs, spec.n) and a_bits.shape == (runs, encoder.ell)
    assert (d_bits.sum(axis=1) == spec.k).all()
    np.testing.assert_array_equal(winners, np.nonzero(d_bits)[1].reshape(runs, spec.k))
    np.testing.assert_array_equal(a_bits, (d_bits.astype(np.int64) @ encoder_matrix(encoder).T) % 2)


@PROPERTY_SETTINGS
@given(contention_cases(), st.lists(st.integers(1, 60), min_size=1, max_size=5))
@example((DickeSpec(13, 2), build_linear_encoder(DickeSpec(13, 2)), 40, 0), [1])  # 1-row slices
@example((DickeSpec(6, 1), build_binary_encoder(DickeSpec(6, 1)), 37, 1), [10])  # stop 40 > 37
def test_row_slices_are_the_whole_draw_unranked_rank_by_rank(case, sizes):
    # `transcript` builds a chunk of rows at a time: consecutive slices (sizes cycled, the
    # last stop past runs) concatenate to rows(), each rank a same-seeded generator draws
    # unranked on its own
    spec, encoder, runs, seed = case
    rounds = draw_rounds(spec, encoder, runs, np.random.default_rng(seed))
    whole = rounds.rows()
    ranks = np.random.default_rng(seed).integers(spec.num_outcomes, size=runs, dtype=np.int64)
    for got, want in zip(whole, unranked_rows(encoder, spec.k, ranks), strict=True):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    starts = np.cumsum([0] + sizes * runs).tolist()
    pieces = [rounds.rows(a, b) for a, b in zip(starts, starts[1:]) if a < runs]
    for got, want in zip(zip(*pieces), whole):
        np.testing.assert_array_equal(np.concatenate(got), want)


@PROPERTY_SETTINGS
@given(contention_cases())
@example((DickeSpec(12, 2), build_linear_encoder(DickeSpec(12, 2)), 500, 7))  # losers' g
def test_bulk_transcript_parses_back(case):
    spec, encoder, runs, seed = case
    rounds = draw_rounds(spec, encoder, runs, np.random.default_rng(seed))
    _, d_bits, a_bits = rounds.rows()
    g_matrix = parity = None
    if spec.k == 2:  # the losers' bits transcript is about to draw
        g_matrix = sample_loser_outcomes(d_bits, copy.deepcopy(rounds.rng))
        parity = g_matrix.clip(0).sum(axis=1) % 2
    records = [json.loads(line) for line in b"".join(transcript(rounds, seed)).splitlines()]
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
@given(st.sampled_from([np.uint8, np.uint16, np.int64]), st.integers(1, 40), st.integers(1, 6),
       st.integers(0, 10**6), st.integers(0, 2**32), st.sampled_from([b",", b" ", b""]))
@example(dtype=np.uint8, rows=1, k=2, top=255, seed=0, sep=b",")  # 255 + 1 must not wrap to 0
@example(dtype=np.uint16, rows=40, k=6, top=239, seed=0, sep=b",")  # 240 labels, 240 entries
def test_index_rows_are_their_numbers_in_decimal(dtype, rows, k, top, seed, sep):
    # the formatter labels every index up to the largest when they are no more than the
    # matrix entries, else only the indices present; both write index v as the number v + 1
    top = min(top, np.iinfo(dtype).max)
    matrix = np.random.default_rng(seed).integers(0, top, size=(rows, k), endpoint=True)
    matrix[0, 0] = top
    matrix = matrix.astype(dtype)
    want = [sep.join(b"%d" % (v + 1) for v in row) + b"\n" for row in matrix.tolist()]
    assert b"".join(_format_int_rows([(matrix, sep), b"\n"])) == b"".join(want)


@PROPERTY_SETTINGS
@given(st.integers(1, 300), st.integers(2, 61),
       st.lists(st.integers(1, 40), min_size=1, max_size=5), st.integers(0, 2**32))
@example(rows=299, n=13, sizes=[1], seed=0)  # 1-row chunks, 13 int32 draws each
@example(rows=301, n=61, sizes=[7, 1, 39], seed=1)  # odd chunks; odd rows * n overall
def test_loser_draws_on_row_chunks_are_one_draw(rows, n, sizes, seed):
    # `transcript` draws the losers' bits a chunk of rows at a time: consecutive chunks
    # must continue one int32 stream, also where a chunk takes an odd number of draws
    d = np.random.default_rng(seed).integers(0, 2, size=(rows, n)).astype(np.uint8)
    whole_rng, chunk_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    g = sample_loser_outcomes(d, whole_rng)
    starts = np.cumsum([0] + sizes * rows)
    chunks = [sample_loser_outcomes(d[a:b], chunk_rng)
              for a, b in zip(starts, starts[1:]) if a < rows]
    np.testing.assert_array_equal(np.concatenate(chunks), g)
    assert chunk_rng.bit_generator.state == whole_rng.bit_generator.state


class RawStream:
    """A PCG64DXSM stream as numpy's draws read it: 64-bit words, or 32-bit halves, low half
    first, a word's high half kept for the next 32-bit read.  ``rejected`` counts the
    bounded draws thrown away."""

    def __init__(self, seed, jumps):
        self.source = np.random.PCG64DXSM(seed).jumped(jumps)
        self.high = None
        self.rejected = 0

    def word(self):
        return int(self.source.random_raw())

    def half(self):
        if self.high is not None:
            half, self.high = self.high, None
            return half
        word = self.word()
        self.high = word >> 32
        return word & 0xFFFFFFFF

    def below(self, c):
        """Lemire's draw below ``c`` (ACM TOMACS 29(1), 2019): x * c >> b from b-bit words x,
        b = 32 up to c = 2^32 and 64 above, redrawn while the low b bits of x * c fall below
        (2^b - c) mod c."""
        bits, draw = (32, self.half) if c <= 1 << 32 else (64, self.word)
        while (m := draw() * c) % (1 << bits) < (1 << bits) % c:
            self.rejected += 1
        return m >> bits


def replay(seed, jumps, calls):
    """Makes ``calls`` on a `make_rng`-type Generator and checks each result, and the bit
    generator's state after it, against `RawStream`; returns the draws the ranks rejected."""
    rng = np.random.Generator(np.random.PCG64DXSM(seed).jumped(jumps))
    raw = RawStream(seed, jumps)
    for method, size, c in calls:
        if method in ("bits", "fair_bits"):  # a half's top bit (Lemire at c = 2 never rejects)
            got = (rng.integers(0, 2, size=size, dtype=np.int32) if method == "bits"
                   else _fair_bits(rng, size))
            want = [raw.half() >> 31 for _ in range(size)]
        elif method == "ranks":
            got = rng.integers(c, size=size, dtype=np.int64)
            want = [raw.below(c) for _ in range(size)]
        else:  # the channel's uniforms
            got = rng.random(out=np.empty(size))
            want = [(raw.word() >> 11) * 2.0**-53 for _ in range(size)]
        assert got.tolist() == want, method
        state = rng.bit_generator.state
        assert state["state"] == raw.source.state["state"], method
        assert (state["has_uint32"], state["uinteger"] if state["has_uint32"] else None) == (
            int(raw.high is not None), raw.high), method
    return raw.rejected


COUNTS = st.one_of(st.integers(2, (1 << 32) - 1), st.integers((1 << 32) + 1, (1 << 63) - 1),
                   # 28 and 66: (8,2) and (12,2); a quarter of the draws rejected at 3 * 2^30
                   # and at 2^62 + 1; 2^32 takes a half as it is
                   st.sampled_from([28, 66, 705_432, 3 << 30, (1 << 32) - 5, 1 << 32,
                                    (1 << 32) + 1, (1 << 62) + 1, (1 << 62) + 12_345]))


@PROPERTY_SETTINGS
@given(st.integers(0, 2**64 - 1), st.integers(0, 2),
       st.lists(st.tuples(st.sampled_from(["bits", "fair_bits", "ranks", "floats"]),
                          st.integers(0, 9), COUNTS),
                min_size=1, max_size=8))
@example(5, 0, [("ranks", 3, 28), ("bits", 7, 2), ("ranks", 1, 28), ("bits", 5, 2)])  # odd, mixed
@example(6, 1, [("ranks", 1, 28), ("fair_bits", 4, 2), ("bits", 3, 2), ("fair_bits", 1, 2),
                ("fair_bits", 0, 2), ("floats", 1, 2), ("fair_bits", 3, 2)])
def test_generator_draws_are_fixed_transforms_of_the_raw_stream(seed, jumps, calls):
    # the pinned digests rest on these draws: NEP 19 keeps a bit generator's stream across
    # numpy versions, not what Generator methods make of it.  Ranks and losers' bits share
    # the kept half, so calls of odd sizes interleave through it; "fair_bits" is the
    # package's own transform, the one the transcripts draw their losers' bits by
    replay(seed, jumps, calls)


def test_raw_stream_replay_covers_rejections():
    # both Lemire widths reject here, where a quarter of the draws fall in the biased zone
    assert replay(0, 0, [("ranks", 200, 3 << 30), ("bits", 1, 2)]) > 0
    assert replay(1, 0, [("bits", 3, 2), ("ranks", 200, (1 << 62) + 1)]) > 0


FAIR_BIT_GENERATORS = [np.random.PCG64DXSM, np.random.PCG64, np.random.Philox, np.random.SFC64]


@PROPERTY_SETTINGS
@given(st.sampled_from(FAIR_BIT_GENERATORS), st.integers(0, 2**64 - 1),
       st.lists(st.tuples(st.sampled_from(["fair_bits", "ranks"]),
                          st.one_of(st.sampled_from([0, 1]), st.integers(0, 40))),
                min_size=1, max_size=8))
# a kept half alone; none; a kept half then one word, both halves spent (uinteger stale)
@example(np.random.Philox, 3, [("ranks", 1), ("fair_bits", 1), ("fair_bits", 0),
                               ("ranks", 1), ("fair_bits", 3), ("fair_bits", 6)])
@example(np.random.SFC64, 4, [("fair_bits", 7), ("ranks", 2), ("fair_bits", 1), ("ranks", 3),
                              ("fair_bits", 2)])
def test_fair_bits_are_numpys_loser_draw(bit_generator, seed, calls):
    # the same bits as rng.integers(0, 2, dtype=int32) and the same state after them, in full:
    # Philox and SFC64 hold arrays, and a spent half's uinteger is compared too
    ours, numpys = (np.random.Generator(bit_generator(seed)) for _ in range(2))
    for method, count in calls:
        if method == "ranks":  # (8,2)'s 28 outcomes: 32-bit halves, through the kept one
            for rng in (ours, numpys):
                rng.integers(28, size=count, dtype=np.int64)
        else:
            got = _fair_bits(ours, count)
            assert got.dtype == np.uint32
            np.testing.assert_array_equal(got, numpys.integers(0, 2, size=count, dtype=np.int32))
        np.testing.assert_equal(ours.bit_generator.state, numpys.bit_generator.state)


@PROPERTY_SETTINGS
@given(st.integers(1, 64), st.floats(0, 1), st.floats(0, 1), st.integers(1, 20),
       st.integers(1, 20), st.integers(1, 500), st.integers(0, 2**32))
@example(60, 0.3, 0.1, 3, 5, 500, 0)  # C(60,30) = 1.2e17 winner sets: none is tabulated
# certain processes draw nothing; hypothesis seldom draws the endpoints itself
@example(8, 0.0, 0.4, 3, 5, 200, 1)  # q_cr = 0: every node holds its cr ebit
@example(8, 0.4, 0.0, 3, 5, 200, 2)  # q_e = 0: every node holds its e ebit
@example(8, 0.4, 1.0, 3, 5, 200, 3)  # q_e = 1: no node does, whoever wins
@example(8, 0.0, 0.0, 3, 5, 200, 4)  # both certain: every winner holds both
def test_contention_estimator_is_the_argsort_reference(n, q_cr, q_e, m_cr, m_e, trials, seed):
    # one call gives the whole curve; each k is compared with the reference on the same draw
    params = ChannelParams(q_cr=q_cr, q_e=q_e, M_cr=m_cr, M_e=m_e)
    rng = make_rng(seed)  # the reference reads the same node-major draws in the same order
    conn_cr, conn_e = (reference_status(n, q, params.m_bar, trials, rng).T for q in (q_cr, q_e))
    before_winners = rng.bit_generator.state
    curve = empirical_contention_success(n, params, trials, make_rng(seed))
    assert curve.shape == (n,)
    for k in range(1, n + 1):
        rng.bit_generator.state = before_winners  # every k ranks the same winner uniforms
        winners = sample_winner_sets(n, k, trials, rng) - 1
        ok = np.take_along_axis(conn_cr & conn_e, winners, axis=1).all(axis=1)
        assert curve[k - 1] == float(ok.mean())


BIT_GENERATORS = [np.random.PCG64DXSM, np.random.PCG64, np.random.Philox, np.random.MT19937,
                  np.random.SFC64]
# q at the certain ends, in between, and within a few ulps of 0 (subnormals too) and of 1
PROBABILITY = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1), st.floats(0, 2.0**-50),
                        st.floats(1 - 2.0**-50, 1))


@PROPERTY_SETTINGS
@given(st.integers(1, 40), st.integers(1, 3000), PROBABILITY, PROBABILITY, st.integers(1, 6),
       st.integers(1, 6), st.integers(1, 4096), st.sampled_from(BIT_GENERATORS),
       st.integers(0, 2**32))
@example(40, 3000, 0.4, 0.3, 3, 4, 1, np.random.Philox, 0)  # one row a call: 3 x 40 calls
@example(40, 3000, 0.0, 1.0, 3, 4, 1, np.random.MT19937, 1)  # only the winners' block is drawn
@example(7, 301, 0.4, 0.3, 3, 4, channel.DRAW_GROUP_BYTES, np.random.SFC64, 2)  # one group
@example(7, 301, 1e-300, 5e-324, 3, 4, 64, np.random.PCG64, 3)  # 1 - q is 1.0: no draw
def test_row_group_estimators_are_the_whole_block_references(n, trials, q, q_e, m, m_e, budget,
                                                             bit_generator, seed):
    # drawing a block a row group at a time reads the stream as one whole-block draw does,
    # on any numpy generator: every estimate and the draws after it are the references'
    params = ChannelParams(q_cr=q, q_e=q_e, M_cr=m, M_e=m_e)
    with mock.patch.object(channel, "DRAW_GROUP_BYTES", budget):
        for estimator, reference, args in [
                (empirical_state_distribution, reference_state_distribution, (n, q, m, trials)),
                (empirical_full_connection_by_slot, reference_full_connection_by_slot,
                 (n, q, m, trials)),
                (empirical_contention_success, reference_contention_success, (n, params, trials))]:
            used, drawn = (np.random.Generator(bit_generator(seed)) for _ in range(2))
            np.testing.assert_array_equal(estimator(*args, used), reference(*args, drawn))
            np.testing.assert_array_equal(used.random(8), drawn.random(8))


class _Blocks:
    """A stand-in generator that hands out the rows of fixed (n, trials) blocks in order.

    ``random(out=...)`` fills ``out`` with the next ``len(out)`` rows, as a generator fills
    it with the next doubles of its stream; a call never spans two blocks.  Its
    ``bit_generator.state`` is the position (block, row), read and set as a generator's.
    """

    def __init__(self, *blocks):
        self._blocks = blocks
        self.bit_generator = SimpleNamespace(state=(0, 0))

    def random(self, *, out):
        index, start = self.bit_generator.state
        if start == len(self._blocks[index]):
            index, start = index + 1, 0
        block, stop = self._blocks[index], start + len(out)
        assert out.shape[1:] == block.shape[1:] and stop <= len(block)
        out[...] = block[start:stop]
        self.bit_generator.state = (index, stop)
        return out


@PROPERTY_SETTINGS
@given(st.integers(1, 12), st.integers(1, 40), st.integers(1, 4), st.integers(0, 2**32),
       st.integers(1, 64))
@example(3, 1, 1, 0, 1)  # one level: every node ties with every other
def test_contention_rule_with_ties_is_the_partition_rule(n, trials, levels, seed, budget):
    # uniforms from a few distinct values tie often, also at the k-th smallest;
    # "at least k drew below the smallest unconnected" must still read as
    # "every node with u <= the k-th smallest is connected", trial by trial, for every k
    draws = np.random.default_rng(seed)
    status = np.where(draws.random((2, n, trials)) < 0.8, 0.25, 0.75)  # connected iff 0.25
    uniforms = draws.integers(0, levels, (n, trials)) / levels
    expected = np.array([
        ((status.max(axis=0) == 0.25) | (uniforms > np.partition(uniforms, k - 1, axis=0)[k - 1]))
        .all(axis=0) for k in range(1, n + 1)])  # (k, trial)
    params = ChannelParams(q_cr=0.5, q_e=0.5, M_cr=1, M_e=1)  # connected iff u < 0.5
    for t in range(trials):  # a budget under 64 bytes draws up to 8 rows a call
        column = np.s_[:, t:t + 1]
        blocks = _Blocks(status[0][column], status[1][column], uniforms[column])
        with mock.patch.object(channel, "DRAW_GROUP_BYTES", budget):
            np.testing.assert_array_equal(empirical_contention_success(n, params, 1, blocks),
                                          expected[:, t])


@PROPERTY_SETTINGS
@given(st.one_of(st.floats(0, 1), st.floats(0, 2.0**-50), st.floats(1 - 2.0**-50, 1)))
@example(0.0)
@example(5e-324)  # the least subnormal: q^2 underflows to 0
@example(2.0**-54)  # 1 - q rounds to 1.0 (a tie, to even)
@example(2.0**-53)  # 1 - q is exact, below 1.0
@example(0.3)
@example(1 - 2.0**-53)  # 1 - q is 2^-53, not 0
@example(1.0)
def test_certain_block_is_decided_by_the_first_slot(q):
    # every 1 - q^m, m = 1..M, is 0.0 or 1.0 exactly when 1 - q is: q^m <= q and rounding
    # is monotone, so the slot-1 test the estimator makes agrees with the test over all slots
    for M in range(1, 41):
        probs = _connect_prob(q, M)
        assert (probs[0] in (0.0, 1.0)) == bool(np.isin(probs, (0.0, 1.0)).all())


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


# ---------------------------------------------------------------- argv

INTS = st.integers(-2**70, 2**70)


def often(valid, wild):
    """Most draws from ``valid``, about one in eight from ``wild``: with a handful of options
    each, a fair share of the argv gets past every check."""
    return st.sampled_from([valid] * 7 + [wild]).flatmap(lambda strategy: strategy)


def small_or_huge(top, floor):
    """Ints up to ``top``, where a run is quick, or from ``floor`` up, where a cap or a failed
    allocation refuses first; between the two a run may take seconds or gigabytes."""
    return st.integers(-2**70, top) | st.integers(floor, 2**70)


def maybe(strategy):
    return st.none() | strategy


# any float, nan and infinities included
UNIT = often(st.floats(0, 1), st.floats())
SLOTS = often(st.integers(1, 20), INTS)
SEED = maybe(often(st.integers(0, 2**70), INTS))
COUNT = often(st.integers(1, 300), small_or_huge(300, 2**50))  # --runs and --trials


def path_flag(flag):
    """``flag`` naming a path under the example's directory, not yet there, in directories
    not yet made, under a regular file or the directory itself; or no ``flag``."""
    paths = st.sampled_from(["{tmp}/out", "{tmp}/new/dir/out", "{tmp}/file/out", "{tmp}"])
    return st.just([]) | paths.map(lambda path: [f"{flag}={path}"])


# --out, --out-dir or neither; one draw in eight gives both, which argparse refuses
OUT_OR_DIR = often(path_flag("--out") | path_flag("--out-dir"),
                   st.just(["--out={tmp}/out", "--out-dir={tmp}/dir"]))
# the linear encoder's CNOT charge refuses n past 16,777,217 before C(n,k) is computed; the
# binary encoder computes it first, so a huge n gets the linear one
NODES = often(st.integers(2, 16), st.integers(-2**70, 1) | st.integers(16_777_218, 2**70)) \
    .flatmap(lambda n: st.tuples(st.just(n), st.sampled_from(["linear", "binary"][:1 + (n <= 16)])))


def flags(**options):
    """Argv words ``--name=value`` for each drawn option; a None draw leaves the option out."""
    return st.fixed_dictionaries(options).map(lambda drawn: [
        f"--{name.replace('_', '-')}={value}" for name, value in drawn.items()
        if value is not None])


def winners(n):
    return often(st.integers(1, max(1, n - 1)), INTS)


@st.composite
def encode_argv(draw):
    n, kind = draw(NODES)
    return ["encode", f"--n={n}", f"--kind={kind}", *draw(flags(
        k=winners(n), ell=maybe(often(st.integers(1, 64), small_or_huge(64, 2**40))),
        seed=SEED)), *draw(path_flag("--out-dir"))]


@st.composite
def contend_argv(draw):
    n, kind = draw(NODES)
    return ["contend", f"--n={n}", f"--kind={kind}",
            *draw(flags(k=winners(n), runs=COUNT, seed=SEED)), *draw(OUT_OR_DIR)]


@st.composite
def analytics_argv(draw):
    n = draw(often(st.integers(2, 40), st.integers(-2**70, 40)))  # a table of n + 1 rows
    return ["analytics", f"--n={n}", *draw(flags(
        k=winners(n), q_cr=UNIT, q_e=maybe(UNIT), M_cr=SLOTS, M_e=maybe(SLOTS),
        epsilon=maybe(UNIT), format=maybe(st.sampled_from(["table", "csv", "json"])))),
        *draw(path_flag("--out"))]


def toml_value(value):
    return f"[{', '.join(map(toml_value, value))}]" if isinstance(value, list) else repr(value)


def grid(strategy):
    return strategy | st.lists(strategy, min_size=1, max_size=2)


SWEEP_CONFIG = st.fixed_dictionaries(
    {"n": grid(often(st.integers(4, 12), small_or_huge(12, 2**50))),
     "k": grid(often(st.integers(1, 4), INTS)),
     "q_cr": grid(UNIT), "q_e": grid(UNIT), "M_cr": grid(SLOTS), "M_e": grid(SLOTS)},
    optional={"trials": often(st.integers(0, 300), small_or_huge(300, 2**50)), "seed": SEED},
).map(lambda config: "".join(f"{key} = {toml_value(v)}\n" for key, v in config.items()
                             if v is not None))

# (argv, sweep config text or None)
CASES = st.one_of(
    encode_argv(), contend_argv(), analytics_argv(),
    st.tuples(flags(
        figure=often(st.sampled_from(["fig8", "fig8l", "fig9", "fig10", "fig11"]), st.just("fig7")),
        trials=COUNT, seed=SEED), path_flag("--out-dir"))
    .map(lambda words: ["reproduce", *words[0], *words[1]]),
).map(lambda argv: (argv, None)) | st.tuples(SWEEP_CONFIG, OUT_OR_DIR).map(
    lambda case: (["sweep", "--config={tmp}/sweep.toml", *case[1]], case[0]))


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(CASES)
@example((["sweep", "--config={tmp}/sweep.toml"], None))  # no config file
@example((["contend", "--n=8", "--k=2", f"--runs={2**50}"], None))  # no room for the ranks
@example((["contend", "--n=8", "--k=2", f"--runs={2**62}"], None))  # ranks too large to address
@example((["contend", "--n=8", "--k=2", f"--runs={2**63}"], None))  # no numpy dimension
@example((["reproduce", "--figure=fig9", f"--trials={2**50}"], None))  # nor for the uniforms
@example((["reproduce", "--figure=fig9", f"--trials={2**62}"], None))  # too large to address
@example((["reproduce", "--figure=fig9", f"--trials={2**63}"], None))  # no numpy dimension
@example((["sweep", "--config={tmp}/sweep.toml"],
          "n = 8\nk = 2\nq_cr = 0.5\nq_e = nan\nM_cr = 3\nM_e = 3\n"))
def test_every_argv_exits_0_2_3_or_4(case):
    # main maps every refusal to exit 2, 3 or 4 with one "error:" line; argparse's own
    # refusals exit 2 with its usage text; nothing leaves a traceback
    argv, config = case
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "file").write_text("")
        if config is not None:
            Path(tmp, "sweep.toml").write_text(config)
        argv = [word.replace("{tmp}", tmp) for word in argv]
        err = io.StringIO()
        with mock.patch.dict(os.environ, {"EACSIM_OUT_DIR": tmp}), \
                redirect_stdout(io.StringIO()), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refused the argv
                code = exc.code
                assert code == 2 and err.getvalue().startswith("usage: eacsim")
                assert ": error: " in err.getvalue().splitlines()[-1], err.getvalue()
                return
    text = err.getvalue()
    assert code in (0, 2, 3, 4) and "Traceback" not in text
    if code:
        assert text.startswith("error: ") and text.count("\n") == 1 and text.endswith("\n"), text
    else:
        assert text == ""
