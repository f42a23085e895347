"""End-to-end access-control protocol on ideal (noise-free) resources.

One round: the orchestrator prepares the contention-resolution state (Dicke
state plus encoded ancillas), every node measures its Dicke qubit, the
orchestrator measures the ancillas and decodes the winner subset.  Exactly k
nodes read 1 and are granted the contended resource; each node learns only
its own bit.  For k = 2 the contended resource is an n-qubit GHZ state from
which the two winners distill an EPR pair: losers measure in the Hadamard
basis and "safely leave", and the parity of their outcomes tells the
orchestrator which Bell state the winners now share.

Two paths produce rounds.  `run_contention`/`run_round` run them on the
dense statevector simulator (n + ell <= 24 qubits); they are the quantum
reference.  `sample_contention_outcomes` and `sample_loser_outcomes` sample
the same laws classically, since every readout is in the computational
basis (after the losers' Hadamards) and CNOTs only permute basis states;
`cli contend` uses them and the byte-matrix writer `write_transcript_arrays`.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import statevector as sv
from .encoder import (EncoderCircuit, _format_int_rows, apply_encoder, decode, outcome_table,
                      verify_injectivity)
from .states import DickeSpec, dicke_state, ghz_state


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


def run_contention(
    spec: DickeSpec, encoder: EncoderCircuit, rng
) -> tuple[ContentionOutcome, list[NodeView]]:
    """One full contention round on the statevector simulator.

    Verifies the encoder (building its codebook), prepares the
    contention-resolution state, measures the n data qubits then the ell
    ancillas, and decodes the word.  Returns the orchestrator record and the
    per-node views.
    """
    codebook = verify_injectivity(encoder, spec)
    state = apply_encoder(dicke_state(spec), encoder)
    d_bits = []
    for node in range(1, spec.n + 1):
        record, state = sv.measure(state, node, rng)
        d_bits.append(record.outcome)
    word = []
    for j in range(encoder.ell):
        record, state = sv.measure(state, spec.n + 1 + j, rng)
        word.append(record.outcome)
    d_vector = tuple(d_bits)
    winners = tuple(i for i in range(1, spec.n + 1) if d_vector[i - 1])
    decoded = decode(codebook, tuple(word))
    if decoded != winners:
        raise RuntimeError(
            f"ancilla word decoded to {decoded} but measured winners are {winners}"
        )
    views = [NodeView(node_id=i, d=d_vector[i - 1]) for i in range(1, spec.n + 1)]
    outcome = ContentionOutcome(d_vector=d_vector, winners=winners, ancilla_word=tuple(word))
    return outcome, views


def build_u_d(d_vector) -> list[str]:
    """Per-qubit local unitaries for the extraction step: H on losers, I on winners."""
    gates = []
    for d in d_vector:
        if d not in (0, 1):
            raise ValueError("d_vector entries must be 0 or 1")
        gates.append("I" if d == 1 else "H")
    return gates


def extract_epr(
    n: int, d_vector, rng, views: list[NodeView] | None = None
) -> tuple[ContentionOutcome, sv.StateVector]:
    """Distill an EPR pair for the two winners out of an n-qubit GHZ state.

    Applies the local unitaries of `build_u_d`, measures every loser qubit
    (the Hadamard rotation being already applied), and conditions the
    register on those outcomes.  The surviving two-qubit state on the winner
    positions (ascending node order) is |Phi+> when the loser-outcome parity
    is even and |Phi-> when odd.  If ``views`` is given, each loser's view
    gets its ``g`` outcome filled in.
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
            state = sv.apply_1q(state, gate, qubit)
    g_outcomes: dict[int, int] = {}
    for qubit in range(1, n + 1):
        if d_vector[qubit - 1] == 0:
            record, state = sv.measure(state, qubit, rng)
            g_outcomes[qubit] = record.outcome
    parity = sum(g_outcomes.values()) % 2
    pair = sv.conditional_state(state, fixed=g_outcomes, keep=list(winners))
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


def canonicalize_bell(state: sv.StateVector, winners, g_parity: int) -> sv.StateVector:
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
    return sv.apply_1q(state, "Z", 1)


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


def run_round(
    spec: DickeSpec, encoder: EncoderCircuit, rng
) -> tuple[ContentionOutcome, list[NodeView], sv.StateVector | None]:
    """Contention plus, for k = 2, EPR extraction; merges the two records."""
    outcome, views = run_contention(spec, encoder, rng)
    pair = None
    if spec.k == 2:
        epr_outcome, pair = extract_epr(spec.n, outcome.d_vector, rng, views=views)
        outcome.bell_state = epr_outcome.bell_state
        outcome.g_parity = epr_outcome.g_parity
    return outcome, views, pair


def sample_contention_outcomes(
    spec: DickeSpec, encoder: EncoderCircuit, runs: int, rng
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized contention rounds, sampled classically.

    Every measurement is in the computational basis and the encoder only
    permutes basis states, so a round's (d, a) outcome is one of the C(n,k)
    weight-k strings d, each with Born weight 1/C(n,k), and a = G.d mod 2.
    The draw is the dense path's inverse-CDF draw over 2^(n+ell) amplitudes
    restricted to its nonzero entries: it consumes the same ``runs``
    doubles from ``rng`` and returns the same outcomes.  Returns (runs x n)
    data bits and (runs x ell) ancilla bits, both uint8.  Raises
    NotInjective for an encoder that is not injective on the slice, and
    CapacityError past `encoder.SLICE_BYTES_CAP`.
    """
    d_slice, words = outcome_table(encoder, spec)
    amplitudes = np.full(len(d_slice), 1.0 / math.sqrt(len(d_slice)), dtype=complex)
    probs = np.abs(amplitudes) ** 2
    probs /= probs.sum()
    picks = rng.choice(len(probs), size=runs, p=probs)
    return d_slice[picks], words[picks]


def sample_loser_outcomes(n: int, d_matrix: np.ndarray, rng) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized Hadamard-basis loser outcomes for k = 2 rounds.

    Every loser branch of the rotated GHZ state has equal probability
    1/2^(n-2), so loser bits are i.i.d. fair coin flips; winners get -1.
    Returns the (runs x n) g matrix and the (runs,) parity vector.
    """
    runs = d_matrix.shape[0]
    flips = rng.integers(0, 2, size=(runs, n), dtype=np.int64)
    g = np.where(d_matrix == 0, flips, -1)
    parity = np.where(g > 0, g, 0).sum(axis=1) % 2
    return g, parity


def unique_rows(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique(bits, axis=0, return_inverse=True, return_counts=True)`` for 0/1 rows.

    Sorts the rows' packed bytes with lexsort, which is far faster than
    np.unique's row-by-row comparisons; same rows, order and counts.
    """
    packed = np.packbits(bits, axis=1)
    order = np.lexsort(packed.T[::-1])  # first byte is the primary key
    ordered = packed[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    counts = np.diff(np.append(np.flatnonzero(starts), len(order)))
    return bits[order[starts]], inverse, counts


def write_transcript_arrays(d_bits, a_bits, g_matrix, parity, seed, stream) -> None:
    """Bulk JSON-lines transcript of sampled rounds to an open text stream.

    Row r holds the keys d_vector, ancilla_word, winners, g, g_parity,
    bell_state and seed, in that order, written as
    ``json.dumps(..., separators=(",", ":"))`` writes them.  ``g_matrix``
    (-1 for winners) and ``parity`` come from `sample_loser_outcomes`; when
    they are None (k != 2), ``g``, ``g_parity`` and ``bell_state`` are null.
    Written a chunk of about `encoder.FORMAT_CHUNK_BYTES` at a time.
    """
    seed_tail = f',"seed":{json.dumps(seed)}}}\n'.encode()
    bits = (b"0", b"1")
    pieces = [b'{"d_vector":[', (d_bits, b",", bits), b'],"ancilla_word":[', (a_bits, b",", bits),
              b'],"winners":[', (d_bits != 0, b","), b"]"]
    if g_matrix is None:
        pieces.append(b',"g":null,"g_parity":null,"bell_state":null' + seed_tail)
    else:
        tails = [f'],"g_parity":{p},"bell_state":"{bell.value}"'.encode() + seed_tail
                 for p, bell in ((0, BellState.PHI_PLUS), (1, BellState.PHI_MINUS))]
        # a winner's -1 picks the last label
        pieces += [b',"g":[', (g_matrix, b",", bits + (b"null",)), (parity[:, None], b"", tails)]
    for text in _format_int_rows(pieces):
        stream.write(text.decode("ascii"))


def bell_pair(sign: int) -> sv.StateVector:
    """|Phi+> for sign=+1, |Phi-> for sign=-1."""
    amps = np.zeros(4, dtype=complex)
    amps[0] = 1 / np.sqrt(2.0)
    amps[3] = sign / np.sqrt(2.0)
    return sv.StateVector(2, amps)
