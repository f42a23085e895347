"""Contention-resolution encoders: CNOT circuits from Dicke qubits to ancillas.

A CNOT-only encoder computes an affine-free GF(2) linear map: with G the
ell x n binary matrix whose entry G[j][i-1] is 1 iff the circuit contains
CNOT(data qubit i -> ancilla j), the ancilla word read out after the
encoder is a = G.d mod 2, where d is the data measurement outcome.  Encoder
design therefore reduces to finding G injective on the weight-k slice of
{0,1}^n, which `verify_injectivity` checks while it builds the word ->
winner-subset bijection the orchestrator decodes (the codebook).  It packs
the words of the slice, which `states._slice_columns` enumerates whole in
ascending basis-index order, once and sorts them once: the stable sort gives
the codebook's order, and the sorted words the first collision a scan in
slice order would meet.  The codebook holds C(n,k)*(k*s+ell) bytes, s bytes
per winner index (1 up to n = 256); the verify pass admits C(n,k)*(n+ell)
bytes up to SLICE_BYTES_CAP (CapacityError past it).  Beside the slice and
the codebook, its scratch is the packed words, their order and either the
sort's big-endian key copy or, after it, one sorted copy of the words, 8
bytes a row each up to ell = 64, and FORMAT_CHUNK_BYTES to pack them in.
`_data_bits` and `_packed_words` also serve the contention sampler.
`_format_int_rows` formats the codebook CSV (`codebook_csv`) and
transcripts as ASCII bytes via byte matrices, which `cli._write` writes.
Everything here is classical; the CNOT array run on a dense register is
`statevector.apply_encoder`.

Two constructions are provided:

* linear: ell = n-1 ancillas, one CNOT each, a_i = d_{i+1}; always injective.
  The missing last bit is recoverable from the word's parity.
* binary: ell = ceil(log2 C(n,k)) ancillas where a code allows it.  G's
  columns are the parity checks of a length-(n-1) code of distance 2t+1,
  t = min(k, n-k), built greedily and without a seed (`_greedy_columns`),
  so G is injective on the slice by construction.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import states
from .states import DickeSpec

SLICE_BYTES_CAP = 256 * 2**20  # tables over the slice; the dense cap's 2^24 x 16 B
FORMAT_CHUNK_BYTES = 1 << 18  # text formatted, and contend's round arrays built, at a time (L2)


class CapacityError(ValueError):
    """A run would pass a cap, refused before allocating.

    The caps: SLICE_BYTES_CAP bytes for the codebook over the weight-k slice, for the
    slice rule that bounds which instances the binary construction runs on, and for an
    encoder's CNOT array, 16 bytes a gate, charged before it is built (a linear n up to
    16,777,217); C(n,k) <= 2^63 - 1 outcomes, the largest int64, for the contention
    sampler's rank draw; and `statevector.MAX_QUBITS` qubits for a dense register.
    """


class SynthesisFailed(Exception):
    """The construction needs best_ell > target_ell ancillas; none has under lower_bound."""

    def __init__(self, target_ell: int, best_ell: int, lower_bound: int):
        self.target_ell, self.best_ell, self.lower_bound = target_ell, best_ell, lower_bound
        reason = "no encoder exists" if target_ell < lower_bound else "the construction gives no encoder"
        found = "the smallest workable" if best_ell == lower_bound else "workable"
        super().__init__(f"{reason} with ell={target_ell}; ell={best_ell} is {found} "
                         f"(every encoder needs ell >= {lower_bound})")


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


@dataclass(frozen=True, eq=False)
class EncoderCircuit:
    """A CNOT circuit: ``cnots`` row g is gate g's (control 1..n, target 0..ell-1), read-only int64."""

    n: int
    k: int
    ell: int
    cnots: np.ndarray
    kind: str  # "linear" or "binary"

    def __post_init__(self):
        object.__setattr__(self, "cnots", np.asarray(self.cnots, dtype=np.int64).reshape(-1, 2))
        self.cnots.flags.writeable = False  # on a view: an int64 array passed in is not copied
        for wires, low, high, name in ((self.cnots[:, 0], 1, self.n, "control d"),
                                       (self.cnots[:, 1], 0, self.ell - 1, "target a")):
            for bad in wires[(wires < low) | (wires > high)][:1]:  # the first, if any
                raise ValueError(f"CNOT {name}{bad} out of range {low}..{high}")


@dataclass(frozen=True, eq=False)
class Codebook:
    """Bijection between ancilla words and winner subsets of size k.

    ``winners`` row r, k ascending 0-based columns, has ``words`` row r as its
    word, rows ascending by word; iteration yields (word, 1-based winners).
    ``entries``, the word -> winners dict that `decode` reads, is built on
    first access.
    """

    n: int
    k: int
    ell: int
    words: np.ndarray  # (C(n,k) x ell) uint8
    winners: np.ndarray  # (C(n,k) x k), `states._slice_columns`' dtype

    def __iter__(self):
        winners = self.winners.astype(np.int64) + 1  # uint8 would wrap 255 + 1 to 0
        return zip(map(tuple, self.words.tolist()), map(tuple, winners.tolist()))

    @functools.cached_property
    def entries(self) -> dict:
        return dict(self)


def _size(count: int) -> str:
    """``count`` in full up to 64 bits, else by bit length (str() refuses 4,300+ digits)."""
    return str(count) if count.bit_length() <= 64 else f"at least 2^{count.bit_length() - 1}"


def _check_bytes(what: str, need: int) -> None:
    """Raise CapacityError, saying "{what} {need} bytes", when ``need`` passes SLICE_BYTES_CAP."""
    if need > SLICE_BYTES_CAP:
        raise CapacityError(f"{what} {_size(need)} bytes, above the {SLICE_BYTES_CAP}-byte cap")


def build_linear_encoder(spec: DickeSpec) -> EncoderCircuit:
    """One CNOT per ancilla: a_i = d_{i+1} for i = 0..n-2.  CapacityError, before it is
    built, when the CNOT array's 16 * (n-1) bytes pass SLICE_BYTES_CAP: n > 16,777,217."""
    n = spec.n
    _check_bytes(f"the {n - 1} CNOTs of the linear encoder need", 16 * (n - 1))
    cnots = np.add.outer(np.arange(n - 1), (1, 0))  # gate i is (i + 1, i)
    return EncoderCircuit(n=n, k=spec.k, ell=n - 1, cnots=cnots, kind="linear")


def _packed_words(circuit: EncoderCircuit, columns: np.ndarray) -> np.ndarray:
    """Words G.d mod 2 of the (rows x k) ``columns`` `states._slice_columns` gave: each XORs
    the rows of G.T its columns pick, packed 64 bits to a uint64 block as np.packbits would.
    Row i-1 gets one bit per CNOT(i, j), a repeat cancelling.  All n rows are packed when
    the picks could cover them, n <= rows * k, as on the whole slice `verify_injectivity`
    checks; past that only the picked rows, through a slot table, so a few rounds of a
    linear n up to 16,777,217 pack a few rows.  The words are filled a block of rows at a
    time through about FORMAT_CHUNK_BYTES of scratch, an intp index and a gathered word a
    row, reused by every block: beyond the words returned, G's packed rows and the slot
    table, nothing grows with the rows."""
    row, target = circuit.cnots.T
    row = row - 1  # packed-table row of each gate; all n rows, column i at row i
    count, slot = circuit.n, None
    if circuit.n > columns.size:
        picked = np.zeros(circuit.n, dtype=bool)
        for col in columns.T:
            picked[col] = True
        slot = np.cumsum(picked) - 1  # slot[i]: picked column i's row in the packed table
        keep = picked[row]
        row, target = slot[row[keep]], target[keep]
        count = slot[-1] + 1
    blocks = -(-circuit.ell // 64)
    packed = np.zeros((count, 8 * blocks), dtype=np.uint8)
    np.bitwise_xor.at(packed, (row, target // 8), (128 >> target % 8).astype(np.uint8))
    rows = packed.view(np.uint64)
    words = np.empty((len(columns), blocks), dtype=np.uint64)
    step = max(1, FORMAT_CHUNK_BYTES // (8 + 8 * blocks))
    index = np.empty(min(step, len(columns)), dtype=np.intp)
    gathered = np.empty((len(index), blocks), dtype=np.uint64)
    for start in range(0, len(columns), step):
        block = words[start : start + step]
        at, got = index[: len(block)], gathered[: len(block)]
        for j, col in enumerate(columns[start : start + step].T):
            # indices in range by construction; mode="raise" would copy ``out`` on every call
            if slot is None:
                at[...] = col
            else:
                slot.take(col, out=at, mode="clip")
            rows.take(at, axis=0, out=got if j else block, mode="clip")
            if j:
                block ^= got
    return words


def _data_bits(n: int, columns: np.ndarray) -> np.ndarray:
    """(rows x n) uint8 data bits d, 1 at the (rows x k) ``columns`` `_slice_columns` gave."""
    bits = np.zeros((len(columns), n), dtype=np.uint8)
    bits[np.arange(len(bits))[:, None], columns] = 1
    return bits


def _word_order(words: np.ndarray) -> np.ndarray:
    """Stable order of packed words by word, a_0 most significant: equal words keep ascending
    rows.  np.lexsort sorts a big-endian copy of every block, 8 bytes a row a block of
    scratch besides the order."""
    keys = words.view(">u8").astype(np.uint64)  # block byte 0, bits a_0..a_7, most significant
    return np.lexsort(keys.T[::-1])


def lower_bound(n: int, k: int) -> int:
    """Fewest ancillas any injective CNOT encoder for (n, k) can have: the most of
    pigeonhole ceil(log2 C(n,k)) and, for its length-(n-1) distance-(2t+1) code,
    sphere packing and Griesmer (n-1 when 2t >= n-1); t = min(k, n-k)."""
    t, length = min(k, n - k), n - 1
    # Griesmer: a dimension-K code needs sum_{i<K} ceil((2t+1)/2^i) <= n-1 positions
    dim, used = 0, 2 * t + 1
    while used <= length:
        dim += 1
        used += -(-(2 * t + 1) >> dim)
    ball = term = 1  # sum_{i<=t} C(n-1, i), term C(n-1, i)
    for i in range(t):
        term = term * (length - i) // (i + 1)
        ball += term
    return max((math.comb(n, k) - 1).bit_length(), (ball - 1).bit_length(), length - dim)


def _greedy_columns(n: int, t: int) -> range | list[int]:
    """Ascending parity-check columns, h_1 = 0 and each later h_i the least word
    not the XOR of 2t-1 or fewer earlier ones (Varshamov; Conway and Sloane's
    lexicodes).  dist[w], the fewest columns XORing to w capped at 2t, doubles
    when full.  Closed forms: h_i = i-1 at t = 1 (a range), unit vectors at 2t >= n-1
    and, width n-1, when dist and two temporaries would pass SLICE_BYTES_CAP."""
    if t == 1:
        return range(n)
    dist = np.zeros(1, dtype=np.uint8)
    columns = [0]
    while len(columns) < n:
        h = int(np.argmax(dist >= 2 * t)) or len(dist)  # dist[0] = 0: 0 means none is free
        if h == len(dist):
            if 2 * t >= n - 1 or 3 * 2 * h > SLICE_BYTES_CAP:  # dist, its shift and a mask
                return [0] + [1 << i for i in range(n - 1)]
            dist = np.concatenate([dist, np.full(h, 2 * t, dtype=np.uint8)])
        width = len(dist).bit_length() - 1
        cube = dist.reshape((2,) * width)  # axis a holds bit width-1-a of w
        shifted = np.flip(cube, [width - 1 - b for b in range(width) if h >> b & 1])  # w -> w ^ h
        np.minimum(cube, shifted + 1, out=cube)
        columns.append(h)
    return columns


def build_binary_encoder(spec: DickeSpec, *, ell: int | None = None) -> EncoderCircuit:
    """Encoder with the compressed ancilla count ell = ceil(log2 C(n,k)).

    Data qubit i flips the bits of column h_i of `_greedy_columns` (ancilla 0
    least significant): for k = 1, the node index i-1 in binary.  Two
    weight-k strings differ in at most 2t places, and no nonempty set of 2t
    or fewer of h_2..h_n XORs to h_1 = 0: the encoder is injective by
    construction.  ``ell`` overrides the target; rows above the construction
    stay zero.  Raises SynthesisFailed if the construction is wider; CapacityError
    before the greedy, past the slice rule, and before a CNOT array past SLICE_BYTES_CAP.
    """
    n, k = spec.n, spec.k
    target_ell = (spec.num_outcomes - 1).bit_length() if ell is None else ell
    floor = (n - 1).bit_length() if k == 1 else 1  # below it, a usage error
    if target_ell < floor:
        raise ValueError(f"binary encoder for k={k} needs ell >= {floor}, got {target_ell}")
    # the slice rule bounds which instances the construction (its greedy too) runs on
    row_bytes = k * np.min_scalar_type(n - 1).itemsize + 8 * -(-target_ell // 64) + 8
    _check_bytes(f"the weight-{k} slice of n={n} with ell={target_ell} needs",
                 spec.num_outcomes * row_bytes + target_ell * n)
    columns = _greedy_columns(n, min(k, n - k))
    width = columns[-1].bit_length()
    if width > target_ell:
        raise SynthesisFailed(target_ell, width, lower_bound(n, k))
    gates = sum(map(int.bit_count, columns))
    _check_bytes(f"the {gates} CNOTs of the binary encoder need", 16 * gates)
    raw = np.frombuffer(b"".join(h.to_bytes(-(-width // 8), "little") for h in columns), np.uint8)
    cnots = np.argwhere(np.unpackbits(raw.reshape(n, -1), axis=1, count=width, bitorder="little"))
    cnots[:, 0] += 1  # (data qubit, ancilla) of each set bit, by qubit then ancilla
    return EncoderCircuit(n=n, k=k, ell=target_ell, cnots=cnots, kind="binary")


def verify_injectivity(circuit: EncoderCircuit, spec: DickeSpec) -> Codebook:
    """Check that all weight-k outcomes get distinct ancilla words.

    Returns the codebook; raises NotInjective naming the first colliding pair
    in slice order, and CapacityError when C(n,k) x (n+ell) bytes, the
    admission rule, would exceed SLICE_BYTES_CAP.  The pair is (i, j), j the
    smallest slice row repeating an earlier word and i that word's first row,
    read off the sorted words, where a stable sort leaves i just before j.
    Besides the slice and the codebook, the pass holds the packed words, their
    order and either `_word_order`'s key copy or one sorted copy of the words
    (8 bytes a row each up to ell = 64) and `_packed_words`' FORMAT_CHUNK_BYTES
    of scratch.
    """
    if circuit.n != spec.n:
        raise ValueError(f"circuit built for n={circuit.n}, spec has n={spec.n}")
    _check_bytes(f"the weight-{spec.k} slice of n={spec.n} with ell={circuit.ell} needs",
                 spec.num_outcomes * (spec.n + circuit.ell))
    columns = states._slice_columns(spec.n, spec.k)
    packed = _packed_words(circuit, columns)
    order = _word_order(packed)
    packed = packed.take(order, axis=0)  # take: a third of a fancy index's time
    same = np.flatnonzero((packed[1:] == packed[:-1]).all(axis=1)) + 1
    if same.size:
        pos = same[np.argmin(order[same])]
        d1, d2 = _data_bits(spec.n, columns[order[[pos - 1, pos]]]).tolist()
        raise NotInjective(tuple(d1), tuple(d2))
    winners = columns.take(order, axis=0)
    del columns, order  # the slice-order arrays go before the words come: a lower peak
    words = np.unpackbits(packed.view(np.uint8), axis=1, count=circuit.ell)
    return Codebook(n=spec.n, k=spec.k, ell=circuit.ell, words=words, winners=winners)


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


def format_circuit(circuit: EncoderCircuit) -> str:
    """Plain-text gate list: header line then one 'CNOT d<i> a<j>' per line."""
    lines = [f"encoder {circuit.kind} n={circuit.n} k={circuit.k} ell={circuit.ell}"]
    lines += [f"CNOT d{c} a{t}" for c, t in circuit.cnots.tolist()]
    return "\n".join(lines) + "\n"


def _format_int_rows(pieces) -> Iterator[bytes]:
    """ASCII text of integer rows, yielded in chunks of about FORMAT_CHUNK_BYTES.

    A piece is constant text (bytes); or (matrix, sep, labels), writing
    labels[v] for each value v of an integer matrix; or (matrix, sep),
    writing each 0-based index v of an index matrix as the number v+1.
    Tokens are sep-separated.  Each fills a fixed-width, NUL-padded slot of a
    (rows x width) uint8 matrix, constant text one row broadcast down it; a
    chunk's NULs are dropped in one pass.
    """
    rows = next(len(piece[0]) for piece in pieces if not isinstance(piece, bytes))
    slots, width = [], 0  # (matrix, token table, separator length); a constant's matrix is None
    for piece in pieces:
        if isinstance(piece, bytes):  # the same text on every row: its table is that row, broadcast
            row = np.frombuffer(piece, dtype=np.uint8)
            slots.append((None, np.broadcast_to(row, (rows, len(row))), 0))
            width += len(row)
            continue
        matrix, sep, *labels = piece
        if not labels:  # Python ints: uint8's largest index + 1 would wrap to 0
            indices = range(int(matrix.max()) + 1)
            if len(indices) > matrix.size:  # few rows at a large n: label the indices present
                indices, inverse = np.unique(matrix, return_inverse=True)
                indices, matrix = indices.tolist(), inverse.reshape(matrix.shape)
            labels = [[b"%d" % (v + 1) for v in indices]]
        table = np.array([sep + label for label in labels[0]])
        slots.append((matrix, table.view(np.uint8).reshape(len(table), -1), len(sep)))
        width += matrix.shape[1] * table.itemsize
    step = max(1, FORMAT_CHUNK_BYTES // width)
    for start in range(0, rows, step):
        parts = []
        for matrix, table, cut in slots:
            if matrix is None:
                parts.append(table[start : start + step])
                continue
            tokens = table.take(matrix[start : start + step], axis=0)
            tokens[:, 0, :cut] = 0  # no separator before the first token
            parts.append(tokens.reshape(len(tokens), -1))
        yield np.concatenate(parts, axis=1).tobytes().translate(None, b"\0")


def codebook_csv(codebook: Codebook) -> Iterator[bytes]:
    """Codebook as CSV, in ASCII chunks of about FORMAT_CHUNK_BYTES: one column per ancilla
    bit, winners space-separated."""
    yield b",".join([b"a_%d" % j for j in range(codebook.ell)] + [b"winners\n"])
    yield from _format_int_rows(
        [(codebook.words, b",", (b"0", b"1")), b",", (codebook.winners, b" "), b"\n"])
