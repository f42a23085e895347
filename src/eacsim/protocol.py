"""End-to-end access-control protocol on ideal (noise-free) resources.

One round: the orchestrator prepares the contention-resolution state (Dicke
state plus encoded ancillas), every node measures its Dicke qubit, the
orchestrator measures the ancillas and decodes the winner subset.  Exactly k
nodes read 1 and are granted the contended resource; each node learns only
its own bit.  For k = 2 the contended resource is an n-qubit GHZ state from
which the two winners distill an EPR pair: losers measure in the Hadamard
basis and "safely leave", and the parity of their outcomes tells the
orchestrator which Bell state the winners now share.

This module holds the records of a round (`NodeView`, `ContentionOutcome`,
`BellState`), the extraction step's local unitaries (`build_u_d`) and the
`anonymity_audit`, and it samples rounds classically: every readout is in
the computational basis (after the losers' Hadamards) and CNOTs only permute
basis states, so `draw_rounds` and `sample_loser_outcomes` draw the Born
laws without amplitudes.  A loser's bit comes from `_fair_bits`: the top bit
of a 32-bit half of the bit generator's raw words, the bits (and the state
after them) that numpy's ``integers(0, 2, dtype=int32)`` draws.
`draw_rounds` counts the ranks (sorts them when outcomes outnumber rounds),
unranks and packs each distinct outcome once and keeps a round as its
outcome's row, `DrawnRounds.index`; `DrawnRounds.bits` builds the bits of any
outcome rows.  `transcript`, the one transcript
formatter, draws the losers of and formats (by `encoder._format_int_rows`) a
chunk of rounds at a time, about `encoder.FORMAT_CHUNK_BYTES` of arrays, into
the ASCII bytes it yields to `cli._write`.  A line is a function of its
outcome and, for k = 2, its losers' bits: when few enough lines can be drawn,
each is formatted once and a round is a lookup of its line by its outcome row
and the n fair bits it draws, masked to its losers'; else each chunk's rounds
are formatted from their `DrawnRounds.rows` and `sample_loser_outcomes`.
The summary reads the outcomes' `Tally`.  A round's winners travel as k
column indices.  The same rounds on a dense register, the quantum reference
the tests compare against, are in `statevector`.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import encoder as enc
from .channel import _check_count
from .encoder import (CapacityError, EncoderCircuit, _data_bits, _format_int_rows, _packed_words,
                      _size)
from .states import DickeSpec, _slice_columns


class WrongWinnerCount(ValueError):
    """EPR extraction is defined for exactly two winners."""


class BellState(str, Enum):
    PHI_PLUS = "phi_plus"
    PHI_MINUS = "phi_minus"


@dataclass
class NodeView:
    """What a single node learns in one round: its own outcomes, nothing else.

    ``g`` is the Hadamard-basis outcome on the node's contended-resource
    qubit; only losers (d = 0) measure, so winners keep ``g = None``.
    """

    node_id: int
    d: int
    g: int | None = None


@dataclass
class ContentionOutcome:
    """Orchestrator-side record of one round.

    ``bell_state`` and ``g_parity`` stay None until the EPR-extraction stage
    has run; ``ancilla_word`` stays None when the outcome was produced by the
    extraction stage alone.
    """

    d_vector: tuple[int, ...]
    winners: tuple[int, ...]
    ancilla_word: tuple[int, ...] | None = None
    bell_state: BellState | None = None
    g_parity: int | None = None


def build_u_d(d_vector) -> list[str]:
    """Per-qubit local unitaries for the extraction step: H on losers, I on winners."""
    gates = []
    for d in d_vector:
        if d not in (0, 1):
            raise ValueError("d_vector entries must be 0 or 1")
        gates.append("I" if d == 1 else "H")
    return gates


def anonymity_audit(views: list[NodeView]) -> bool:
    """Check that node views carry only their own outcomes.

    Structural check: every view exposes exactly the NodeView fields and its
    d bit is a bit.  A winner must never hold a g outcome; a loser holds one
    only once the extraction stage has run.  Any extra attribute (e.g.
    another node's outcome stapled on) fails the audit.
    """
    seen_ids = set()
    for view in views:
        if set(vars(view)) != {"node_id", "d", "g"}:
            return False
        if view.d not in (0, 1):
            return False
        if view.d == 1 and view.g is not None:
            return False
        if view.g is not None and view.g not in (0, 1):
            return False
        if view.node_id in seen_ids:
            return False
        seen_ids.add(view.node_id)
    return True


def _fair_bits(rng, count: int) -> np.ndarray:
    """What ``rng.integers(0, 2, size=count, dtype=np.int32)`` draws, as uint32 0s and 1s,
    taken from the bit generator's raw 64-bit words: a fair bit is the top bit of a 32-bit
    half, low half first (Lemire's draw at range 2 never rejects), and the state is left as
    numpy leaves it.  A half the state keeps gives the first bit; an odd remainder keeps the
    last word's high half, and ``uinteger`` holds that half also once it is spent.  Refuses
    (TypeError) a bit generator that keeps no 32-bit half, MT19937 among them."""
    source = rng.bit_generator
    if not isinstance(source, (np.random.PCG64, np.random.PCG64DXSM, np.random.Philox,
                               np.random.SFC64)):
        raise TypeError("fair bits are drawn from a PCG64, PCG64DXSM, Philox or SFC64 bit "
                        f"generator, not {type(source).__name__}")
    bits = np.empty(count, dtype=np.uint32)
    if count == 0:
        return bits
    state = source.state
    kept = state["has_uint32"]
    if kept:
        bits[0] = state["uinteger"] >> 31
    rest = count - kept
    if rest:
        words = source.random_raw((rest + 1) // 2)
        np.right_shift(words.astype("<u8", copy=False).view("<u4")[:rest], 31, out=bits[kept:])
        state = source.state
        state["uinteger"] = int(words[-1] >> 32)
    state["has_uint32"] = rest % 2
    source.state = state
    return bits


def sample_loser_outcomes(d_matrix: np.ndarray, rng) -> np.ndarray:
    """Vectorized Hadamard-basis loser outcomes for k = 2 rounds.

    Every loser branch of the rotated GHZ state has equal probability 1/2^(n-2),
    so loser bits are i.i.d. fair coin flips: one `_fair_bits` bit (a 32-bit half
    of the raw stream) per entry of the (runs x n) ``d_matrix``, then winners are
    ORed with -1 in place, which makes them -1.  Returns that int32 g matrix; the
    parity of a row's 1s names the Bell state.  Calls on consecutive row chunks of
    one matrix draw what one call draws.
    """
    g = _fair_bits(rng, d_matrix.size).view(np.int32).reshape(d_matrix.shape)
    g |= -(d_matrix != 0).view(np.int8)  # -1, all ones, at a winner; 0 keeps a loser's bit
    return g


class Tally(NamedTuple):
    """The distinct outcomes of ``runs`` rounds: their (distinct x k) ``winners`` as the
    sampler gives them, ascending by rank (by basis index: ``np.unique(d_bits, axis=0)``'s
    order), and how often each was drawn, ``counts``."""

    n: int
    runs: int
    winners: np.ndarray
    counts: np.ndarray

    def node_win_rates(self) -> np.ndarray:
        """Node i's share of the wins: an integer sum over the outcomes / runs, so
        ``d_bits.mean(axis=0)`` of the rounds to the bit."""
        k = self.winners.shape[1]
        return np.bincount(self.winners.ravel(), np.repeat(self.counts, k), self.n) / self.runs

    def subset_rates(self) -> dict[str, float]:
        """Each winner subset's share of the runs, count / runs, keyed by its 1-based winners
        space-separated, in ``sorted``'s key order ("1 10" before "1 2")."""
        keys = (b"".join(_format_int_rows([(self.winners, b" "), b"\n"]))
                .decode("ascii").splitlines())
        counts = self.counts.tolist()
        rate = {c: c / self.runs for c in set(counts)}  # one float object per distinct count
        # an index sort: sorting (key, rate) pairs holds a tuple per key at the peak
        return {keys[i]: rate[counts[i]] for i in sorted(range(len(keys)), key=keys.__getitem__)}


class DrawnRounds(NamedTuple):
    """Contention rounds as `draw_rounds` holds them: the distinct outcomes' ``tally``, their
    `_packed_words` ``words`` (``ell`` bits each) and, in round order, each round's row of
    both, ``index`` (in the smallest unsigned dtype that holds them: one byte a round up to 256
    outcomes); and the ``rng`` the rounds came from, which `transcript` draws the losers' bits
    from.  `bits` builds the bits of any outcome rows."""

    tally: Tally
    ell: int
    index: np.ndarray
    words: np.ndarray
    rng: np.random.Generator

    def bits(self, index):
        """Outcome rows ``index`` (rows of ``tally`` and ``words``, an index array or a slice):
        their (rows x k) winners as `states._slice_columns` gives them (0-based, ascending),
        and their (rows x n) data bits and (rows x ell) ancilla bits, both uint8."""
        winners = self.tally.winners[index]
        return (winners, _data_bits(self.tally.n, winners),
                np.unpackbits(self.words[index].view(np.uint8), axis=1, count=self.ell))

    def rows(self, start: int = 0, stop: int | None = None):
        """Rounds ``start``..``stop`` (slice rules) as `bits` gives them: ``rows()`` is all."""
        return self.bits(self.index[start:stop])


def draw_rounds(spec: DickeSpec, encoder: EncoderCircuit, runs: int, rng) -> DrawnRounds:
    """``runs`` contention rounds, sampled classically and held as their outcomes' rows.

    Every measurement is in the computational basis and the encoder only
    permutes basis states, so a round's (d, a) outcome is one of the C(n,k)
    weight-k strings d, each with Born weight 1/C(n,k), and a = G.d mod 2.
    Round r takes the string of rank R_r, the r-th of ``runs`` int64s ``rng``
    draws uniformly from 0..C(n,k)-1 (numpy's bounded draw rejects, so every
    rank is exactly equally likely).  When C(n,k) <= ``runs`` the ranks are
    counted in a table of C(n,k) counts, no longer than the ranks, and a round's
    row is the number of distinct drawn ranks below its own; otherwise the
    distinct ranks are found by a sort.  Only the distinct ranks are unranked and
    packed, once each; a round keeps its rank's row among them.  Injectivity is
    `verify_injectivity`'s to check.  Refuses ``runs`` < 1 and an encoder for
    another n (ValueError); before allocating, C(n,k) past 2^63 - 1, the largest
    int64 (CapacityError); and ranks numpy cannot allocate or address
    (MemoryError naming runs, n and k).
    """
    _check_count("runs", runs)
    if encoder.n != spec.n:
        raise ValueError(f"encoder built for n={encoder.n}, spec has n={spec.n}")
    if spec.num_outcomes >= 2**63:
        raise CapacityError(f"C({spec.n},{spec.k}) = {_size(spec.num_outcomes)} outcomes exceed "
                            "2^63 - 1, the largest int64")
    try:
        ranks = rng.integers(spec.num_outcomes, size=runs, dtype=np.int64)
    except (ValueError, MemoryError):  # too large to address, or to allocate
        raise MemoryError(f"no room for the ranks: runs={runs}, n={spec.n}, k={spec.k}") from None
    counted = spec.num_outcomes <= runs  # a count per outcome, no longer than the ranks: no sort
    if counted:
        counts = np.bincount(ranks, minlength=spec.num_outcomes)
        outcomes = np.flatnonzero(counts)
    else:
        outcomes, counts = np.unique(ranks, return_counts=True)
    # unranked and packed once, not per chunk: at large n a chunk is a round, each packing scans G
    winners = _slice_columns(spec.n, spec.k, outcomes)
    words = _packed_words(encoder, winners)
    # the index last: taken before unranking, (22, 11, 10^6) read 213 MB max RSS, not 198 MB
    dtype = np.min_scalar_type(len(outcomes) - 1)
    if counted:  # a drawn rank's row: how many distinct drawn ranks are below it
        index = (np.cumsum(counts > 0) - 1).astype(dtype).take(ranks)
        counts = counts[outcomes]
    else:
        index = outcomes.searchsorted(ranks)
    del ranks  # before the sort path's cast, whose copy is then held beside one int64 array
    return DrawnRounds(Tally(spec.n, runs, winners, counts), encoder.ell,
                       index.astype(dtype, copy=False), words, rng)


def transcript(rounds: DrawnRounds, seed: int) -> Iterator[bytes]:
    """JSON-lines transcript of ``rounds`` in ASCII chunks, built a chunk of rounds at a time.

    Row r holds the keys d_vector, ancilla_word, winners (1-based), g (null
    for winners), g_parity, bell_state and seed, in that order, as
    ``json.dumps(..., separators=(",", ":"))`` writes them; for k != 2, ``g``,
    ``g_parity`` and ``bell_state`` are null.  A chunk holds about
    `encoder.FORMAT_CHUNK_BYTES` of round arrays, 5n + ell bytes a round (uint8
    d and a, int32 g); for k = 2, `sample_loser_outcomes` draws its losers' bits,
    and consecutive chunks draw what one call would.  A row is a function of its outcome
    and, for k = 2, its n - 2 losers' bits: of D distinct outcomes drawn, it is one of
    D * 2^(n-2) lines for k = 2 and of D for k != 2.  When there are no more such lines
    than rounds or than a chunk has rounds, each is formatted once and each chunk of about
    `encoder.FORMAT_CHUNK_BYTES` of text joins its rounds' lines, for k = 2 looked up by
    outcome row and the n `_fair_bits` a round draws, ANDed with its outcome's loser mask
    (no g matrix); otherwise each chunk's rows are formatted from its rounds'
    `DrawnRounds.rows`.  Both write the same bytes and leave ``rounds.rng`` in the same
    state.  For k = 2, both refuse a bit generator that keeps no 32-bit half, such as
    MT19937, with a TypeError before the first chunk.
    """
    n, k = rounds.tally.n, rounds.tally.winners.shape[1]
    seed_tail = b',"seed":%d}\n' % seed
    bits = (b"0", b"1")
    tails = [b'],"g_parity":%d,"bell_state":"%s"' % tail + seed_tail
             for tail in ((0, b"phi_plus"), (1, b"phi_minus"))]

    def pieces(winners, d_bits, a_bits, g_matrix):
        head = [b'{"d_vector":[', (d_bits, b",", bits), b'],"ancilla_word":[',
                (a_bits, b",", bits), b'],"winners":[', (winners, b","), b"]"]
        if k != 2:
            return head + [b',"g":null,"g_parity":null,"bell_state":null' + seed_tail]
        parity = (g_matrix == 1).sum(axis=1) % 2  # the Bell state's label
        # a winner's -1 picks the last label
        return head + [b',"g":[', (g_matrix, b",", bits + (b"null",)),
                       (parity[:, None], b"", tails)]

    distinct = len(rounds.tally.counts)
    step = max(1, enc.FORMAT_CHUNK_BYTES // (5 * n + rounds.ell))
    losers = 2 ** (n - 2) if k == 2 else 1  # the loser bits a round can draw
    if distinct * losers <= min(len(rounds.index), step):
        # every line a round can take, each formatted once (1,792 at n = 8, k = 2), in slot
        # (o << n) + v for outcome row o and loser bits v (node i + 1's at bit i); o for k != 2
        row = np.arange(distinct).repeat(losers)
        winners, d_bits, a_bits = rounds.bits(row)
        g_matrix = None
        if k == 2:
            p = np.arange(losers)[:, None] >> np.arange(n - 2) & 1  # each loser bits pattern
            g_matrix = np.full(d_bits.shape, -1, dtype=np.int32)
            g_matrix[d_bits == 0] = np.tile(p.ravel(), distinct)
            place = 1 << np.arange(n, dtype=np.uint32)
            row = row << n | (g_matrix == 1) @ place
            loser_mask = (d_bits[::losers] == 0) @ place  # an outcome's losers' bits
        lines = [line for text in _format_int_rows(pieces(winners, d_bits, a_bits, g_matrix))
                 for line in text.splitlines(keepends=True)]
        table = np.empty(distinct << n if k == 2 else distinct, dtype=object)
        table[row] = lines
        text_step = max(1, enc.FORMAT_CHUNK_BYTES // max(map(len, lines)))
        for start in range(0, len(rounds.index), text_step):
            index = rounds.index[start : start + text_step]
            if k == 2:  # n bits a round, as sample_loser_outcomes draws; its losers' are kept
                g_bits = _fair_bits(rounds.rng, len(index) * n).reshape(-1, n)
                # a slot is below distinct << n <= 4 * step, so uint32 holds it
                index = index.astype(np.uint32) << n | g_bits @ place & loser_mask.take(index)
            yield b"".join(table.take(index).tolist())
        return
    for start in range(0, len(rounds.index), step):
        winners, d_bits, a_bits = rounds.rows(start, start + step)
        g_matrix = sample_loser_outcomes(d_bits, rounds.rng) if k == 2 else None
        # in text chunks of its own: formatted whole, a chunk's token matrices outweigh its arrays
        yield from _format_int_rows(pieces(winners, d_bits, a_bits, g_matrix))
