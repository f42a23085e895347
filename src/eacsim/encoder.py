"""Contention-resolution encoders: CNOT circuits from Dicke qubits to ancillas.

A CNOT-only encoder computes an affine-free GF(2) linear map: with G the
ell x n binary matrix whose entry G[j][i-1] is 1 iff the circuit contains
CNOT(data qubit i -> ancilla j), the ancilla word read out after the
encoder is a = G.d mod 2, where d is the data measurement outcome.  Encoder
design therefore reduces to finding G injective on the weight-k slice of
{0,1}^n, which is what `outcome_table` certifies while it tabulates every
outcome and word (the classical contention sampler draws from that table);
the word -> winner-subset bijection is the codebook the orchestrator
decodes (`verify_injectivity`, that table sorted by word).  The table's rows
follow the slice order of `states._slice_columns`; the slice and word
matrices take C(n,k)*(n+ell) bytes (CapacityError past SLICE_BYTES_CAP).
`_format_int_rows` writes the codebook CSV and transcripts via byte matrices.

Two constructions are provided:

* linear: ell = n-1 ancillas, one CNOT each, a_i = d_{i+1}; always injective.
  The missing last bit is recoverable from the word's parity.
* binary: ell = ceil(log2 C(n,k)) ancillas.  For k = 1 the map is the
  deterministic "write the winner index in binary" circuit; for k > 1 a
  seeded random search looks for an injective matrix at the target width.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import states
from .statevector import CapacityError, StateVector, apply_cnot
from .states import DickeSpec

SEARCH_BUDGET = 10_000  # candidate matrices tried per ell before giving up
SLICE_BYTES_CAP = 256 * 2**20  # slice + word matrices; the dense cap's 2^24 x 16 B
FORMAT_CHUNK_BYTES = 1 << 20  # text formatted at a time; bounds the memory held at once


class SynthesisFailed(Exception):
    """No injective matrix found at the target ancilla count.

    ``best_ell`` is the smallest ancilla count above the target known to admit
    an injective map: either the escalated search succeeded there, or it is
    n-1, where the linear construction always works.
    """

    def __init__(self, target_ell: int, best_ell: int):
        self.target_ell = target_ell
        self.best_ell = best_ell
        super().__init__(
            f"no injective encoder found with ell={target_ell} "
            f"within {SEARCH_BUDGET} candidates; smallest workable ell={best_ell}"
        )


class NotInjective(Exception):
    """Two contention outcomes map to the same ancilla word."""

    def __init__(self, d1: tuple[int, ...], d2: tuple[int, ...]):
        self.d1 = d1
        self.d2 = d2
        super().__init__(f"outcomes {d1} and {d2} produce the same ancilla word")


class UnknownWord(KeyError):
    """Ancilla word absent from the codebook (invalid/corrupted measurement)."""


class InvalidParity(ValueError):
    """Linear-encoder word weight outside {k-1, k}."""


@dataclass(frozen=True)
class EncoderCircuit:
    """CNOT list from data qubits (1..n) to ancillas (0..ell-1)."""

    n: int
    k: int
    ell: int
    cnots: tuple[tuple[int, int], ...]
    kind: str  # "linear" or "binary"

    def __post_init__(self):
        for control, target in self.cnots:
            if not 1 <= control <= self.n:
                raise ValueError(f"CNOT control d{control} out of range 1..{self.n}")
            if not 0 <= target < self.ell:
                raise ValueError(f"CNOT target a{target} out of range 0..{self.ell - 1}")

    def matrix(self) -> np.ndarray:
        """The ell x n GF(2) matrix realized by the CNOT list (multiplicity mod 2)."""
        g = np.zeros((self.ell, self.n), dtype=np.uint8)
        for control, target in self.cnots:
            g[target, control - 1] ^= 1
        return g

    def encode_word(self, d_bits) -> tuple[int, ...]:
        """Ancilla word G.d mod 2 for a data outcome (d_1, ..., d_n)."""
        d = np.asarray(list(d_bits), dtype=np.uint8)
        if d.shape != (self.n,):
            raise ValueError(f"expected {self.n} data bits, got {d.shape}")
        return tuple(int(b) for b in (self.matrix() @ d) & 1)


@dataclass(frozen=True, eq=False)
class Codebook:
    """Bijection between ancilla words and winner subsets of size k.

    Row r of ``bits`` is the outcome whose word is row r of ``words``, rows
    ascending by word; iteration yields (word, winners) tuples in that order.
    ``entries``, the word -> winners dict that `decode` reads, is built on
    first access.
    """

    n: int
    k: int
    ell: int
    words: np.ndarray  # (C(n,k) x ell) uint8
    bits: np.ndarray  # (C(n,k) x n) uint8, each row of weight k

    def __iter__(self):
        winners = np.nonzero(self.bits)[1].reshape(-1, self.k) + 1
        return zip(map(tuple, self.words.tolist()), map(tuple, winners.tolist()))

    @functools.cached_property
    def entries(self) -> dict:
        return dict(self)


def _matrix_to_cnots(g: np.ndarray) -> tuple[tuple[int, int], ...]:
    ell, n = g.shape
    return tuple(
        (i + 1, j) for j in range(ell) for i in range(n) if g[j, i]
    )


def build_linear_encoder(spec: DickeSpec) -> EncoderCircuit:
    """One CNOT per ancilla: a_i = d_{i+1} for i = 0..n-2."""
    n = spec.n
    cnots = tuple((i + 1, i) for i in range(n - 1))
    return EncoderCircuit(n=n, k=spec.k, ell=n - 1, cnots=cnots, kind="linear")


def _slice_columns(n: int, k: int, ell: int) -> list[np.ndarray]:
    """`states._slice_columns`, once the slice and word matrices fit the cap.

    Raises CapacityError before allocating when they, C(n,k)*(n+ell) bytes,
    would exceed SLICE_BYTES_CAP (which also keeps n below 2^14).
    """
    total = math.comb(n, k)
    if total * (n + ell) > SLICE_BYTES_CAP:
        raise CapacityError(
            f"the weight-{k} slice of n={n} with ell={ell} needs {total * (n + ell)} bytes, "
            f"above the {SLICE_BYTES_CAP}-byte cap"
        )
    return states._slice_columns(n, k)


def _packed_words(g: np.ndarray, columns: list[np.ndarray]) -> np.ndarray:
    """Words G.d mod 2 of the slice, each packed 64 bits to a uint64 block."""
    ell = g.shape[0]
    blocks = -(-ell // 64)
    packed = np.zeros((g.shape[1], 8 * blocks), dtype=np.uint8)
    packed[:, : -(-ell // 8)] = np.packbits(g.T, axis=1)
    rows = packed.view(np.uint64)
    words = rows[columns[0]]
    for col in columns[1:]:
        words ^= rows[col]
    return words


def _first_collision(words: np.ndarray) -> tuple[int, int] | None:
    """The pair of rows a sequential scan would first find sharing a word.

    Returns (i, j), i < j, with j the smallest row repeating an earlier
    word and i that word's first row; None when all rows differ.
    """
    order = np.lexsort(words.T)  # stable: equal words keep ascending rows
    ordered = words[order]
    same = np.flatnonzero((ordered[1:] == ordered[:-1]).all(axis=1)) + 1
    if not same.size:
        return None
    pos = same[np.argmin(order[same])]
    return int(order[pos - 1]), int(order[pos])


def _injective_on_slice(g: np.ndarray, columns: list[np.ndarray]) -> bool:
    return _first_collision(_packed_words(g, columns)) is None


def _search_matrix(spec: DickeSpec, ell: int, rng) -> np.ndarray | None:
    """Seeded random search for an injective ell x n matrix; None on failure."""
    if 2**ell < spec.num_outcomes:
        return None  # pigeonhole: not enough distinct words
    columns = _slice_columns(spec.n, spec.k, ell)
    for _ in range(SEARCH_BUDGET):
        g = rng.integers(0, 2, size=(ell, spec.n), dtype=np.uint8)
        if _injective_on_slice(g, columns):
            return g
    return None


def build_binary_encoder(spec: DickeSpec, rng=None, ell: int | None = None) -> EncoderCircuit:
    """Encoder with the compressed ancilla count ell = ceil(log2 C(n,k)).

    k = 1 is deterministic: the state in which node i+1 holds the excitation
    is mapped to the binary representation of i, one CNOT per set bit
    (ancilla 0 being the least significant).  For k > 1 a random search over
    GF(2) matrices is run at the target width; ``rng`` (a numpy Generator)
    seeds it.  Pass ``ell`` to override the target width, e.g. after a
    SynthesisFailed suggested a larger one.
    """
    n, k = spec.n, spec.k
    if k == 1:
        min_ell = max(1, math.ceil(math.log2(n)))
        if ell is None:
            ell = min_ell
        elif ell < min_ell:
            raise ValueError(f"k=1 binary encoder needs ell >= {min_ell}, got {ell}")
        cnots = tuple(
            (i + 1, j) for i in range(n) for j in range(ell) if (i >> j) & 1
        )
        return EncoderCircuit(n=n, k=1, ell=ell, cnots=cnots, kind="binary")

    if ell is not None and ell < 1:
        raise ValueError(f"binary encoder needs ell >= 1, got {ell}")
    target_ell = ell if ell is not None else math.ceil(math.log2(spec.num_outcomes))
    if rng is None:
        rng = np.random.default_rng()
    g = _search_matrix(spec, target_ell, rng)
    if g is None:
        best = target_ell
        while True:
            best += 1
            if best >= n - 1:
                best = n - 1  # linear map always works here
                break
            if _search_matrix(spec, best, rng) is not None:
                break
        raise SynthesisFailed(target_ell, best)
    return EncoderCircuit(n=n, k=k, ell=target_ell, cnots=_matrix_to_cnots(g), kind="binary")


def outcome_table(circuit: EncoderCircuit, spec: DickeSpec) -> tuple[np.ndarray, np.ndarray]:
    """Every weight-k outcome and its ancilla word, once injectivity holds.

    Returns the (C(n,k) x n) data bits d, rows in ascending basis-index
    order, and the (C(n,k) x ell) words G.d mod 2, both uint8.  Raises
    NotInjective naming the first colliding pair in that order, and
    CapacityError when the two matrices would exceed SLICE_BYTES_CAP.
    """
    if circuit.n != spec.n:
        raise ValueError(f"circuit built for n={circuit.n}, spec has n={spec.n}")
    columns = _slice_columns(spec.n, spec.k, circuit.ell)
    bits = np.zeros((spec.num_outcomes, spec.n), dtype=np.uint8)
    rows = np.arange(spec.num_outcomes)
    for col in columns:
        bits[rows, col] = 1
    packed = _packed_words(circuit.matrix(), columns)
    collision = _first_collision(packed)
    if collision is not None:
        i, j = collision
        raise NotInjective(tuple(bits[i].tolist()), tuple(bits[j].tolist()))
    words = np.unpackbits(packed.view(np.uint8), axis=1, count=circuit.ell)
    return bits, words


def verify_injectivity(circuit: EncoderCircuit, spec: DickeSpec) -> Codebook:
    """Check that all weight-k outcomes get distinct ancilla words.

    Returns the codebook (the `outcome_table` arrays sorted by word); raises
    NotInjective naming two colliding outcomes otherwise.
    """
    bits, words = outcome_table(circuit, spec)
    order = np.lexsort(np.packbits(words, axis=1).T[::-1])  # first byte is the primary key
    return Codebook(n=spec.n, k=spec.k, ell=circuit.ell, words=words[order], bits=bits[order])


def decode(codebook: Codebook, word) -> tuple[int, ...]:
    """Winner subset for an ancilla word; UnknownWord if not in the codebook."""
    key = tuple(int(b) for b in word)
    if len(key) != codebook.ell:
        raise ValueError(f"word length {len(key)} != ell {codebook.ell}")
    try:
        return codebook.entries[key]
    except KeyError:
        raise UnknownWord(f"ancilla word {key} not in codebook") from None


def recover_last_bit_linear(word, k: int) -> int:
    """Parity recovery of the un-encoded data bit d_n from a linear-encoder word.

    The word carries d_1..d_{n-1}; their sum is k when d_n = 0 and k-1 when
    d_n = 1.  Any other weight signals a corrupted word.
    """
    weight = sum(int(b) for b in word)
    if weight == k:
        return 0
    if weight == k - 1:
        return 1
    raise InvalidParity(f"word weight {weight} not in {{{k - 1}, {k}}}")


def cnot_count_bound(n: int) -> int:
    """Gate-count bound for the binary encoder: ceil(log2 n) * 2^(ceil(log2 n)-1).

    Exact for k = 1 when n is a power of two, an overestimate otherwise.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    ell = math.ceil(math.log2(n))
    return ell * 2 ** (ell - 1)


def apply_encoder(dicke: StateVector, circuit: EncoderCircuit) -> StateVector:
    """Attach ell |0> ancillas to a Dicke state and run the CNOT list.

    Returns the (n+ell)-qubit contention-resolution state.  Gates are applied
    through the statevector simulator, so this is the quantum counterpart of
    the classical GF(2) path of `outcome_table`.
    """
    if dicke.num_qubits != circuit.n:
        raise ValueError(f"state has {dicke.num_qubits} qubits, circuit expects {circuit.n}")
    total = circuit.n + circuit.ell
    amps = np.zeros(2**total, dtype=complex)
    amps[np.flatnonzero(dicke.amplitudes) << circuit.ell] = dicke.amplitudes[
        np.flatnonzero(dicke.amplitudes)
    ]
    state = StateVector(total, amps)
    for control, target in circuit.cnots:
        state = apply_cnot(state, control, circuit.n + 1 + target)
    return state


def format_circuit(circuit: EncoderCircuit) -> str:
    """Plain-text gate list: header line then one 'CNOT d<i> a<j>' per line."""
    lines = [f"encoder {circuit.kind} n={circuit.n} k={circuit.k} ell={circuit.ell}"]
    lines += [f"CNOT d{c} a{t}" for c, t in circuit.cnots]
    return "\n".join(lines) + "\n"


def _format_int_rows(pieces) -> Iterator[bytes]:
    """ASCII text of integer rows, yielded in chunks of about FORMAT_CHUNK_BYTES.

    A piece is constant text (bytes); or (matrix, sep, labels), writing
    labels[v] for each value v of an integer matrix; or (matrix, sep),
    writing the 1-based column numbers of a boolean matrix's True entries.
    Tokens are sep-separated.  Each fills a fixed-width, NUL-padded slot of a
    (rows x width) uint8 matrix; a chunk's NULs are dropped in one pass.
    """
    rows = next(len(piece[0]) for piece in pieces if not isinstance(piece, bytes))
    slots, width = [], 0  # (matrix, token table, separator length, column numbers)
    for piece in pieces:
        if isinstance(piece, bytes):  # one token, the same on every row
            piece = (np.zeros((rows, 1), dtype=np.uint8), b"", [piece])
        matrix, sep, *labels = piece
        columns = matrix.shape[1]
        if matrix.dtype == bool:  # token index = column number, 0 = no token
            labels = [[b""] + [b"%d" % j for j in range(1, columns + 1)]]
        table = np.array([sep + label if label else b"" for label in labels[0]])
        numbers = np.arange(1, columns + 1, dtype=np.min_scalar_type(columns))
        slots.append((matrix, table.view(np.uint8).reshape(len(table), -1), len(sep), numbers))
        width += columns * table.itemsize
    step = max(1, FORMAT_CHUNK_BYTES // width)
    for start in range(0, rows, step):
        parts = []
        for matrix, table, cut, numbers in slots:
            block, first = matrix[start : start + step], 0
            if block.dtype == bool:
                first, block = block.argmax(axis=1), block * numbers
            tokens = table.take(block, axis=0)
            tokens[np.arange(len(tokens)), first, :cut] = 0  # no separator before the first token
            parts.append(tokens.reshape(len(tokens), -1))
        yield np.concatenate(parts, axis=1).tobytes().translate(None, b"\0")


def write_codebook_csv(codebook: Codebook, stream) -> None:
    """Codebook as CSV to an open text stream: one column per ancilla bit,
    winners space-separated; written a chunk of about FORMAT_CHUNK_BYTES at a time."""
    stream.write(",".join([f"a_{j}" for j in range(codebook.ell)] + ["winners"]) + "\n")
    body = _format_int_rows(
        [(codebook.words, b",", (b"0", b"1")), b",", (codebook.bits.view(bool), b" "), b"\n"])
    for text in body:
        stream.write(text.decode("ascii"))
