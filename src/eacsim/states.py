"""Entangled resource states: Dicke (including W) and GHZ.

States are built by direct amplitude assignment rather than gate synthesis.
The weight-k basis strings of a Dicke state are enumerated by one unranker,
`_slice_columns`, in lexicographic order of their big-endian bitstrings (i.e.
ascending basis index); this fixes the row order of the encoder's outcome
tables and the index convention of the binary contention-resolution encoder,
and codebooks are always emitted explicitly so consumers never depend on it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .statevector import MAX_QUBITS, CapacityError, StateVector


@dataclass(frozen=True)
class DickeSpec:
    """Contention instance: n competing nodes, k winners."""

    n: int
    k: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need at least 2 contending nodes, got n={self.n}")
        if not 1 <= self.k < self.n:
            raise ValueError(f"winner count k={self.k} must satisfy 1 <= k < n={self.n}")

    @property
    def num_outcomes(self) -> int:
        return math.comb(self.n, self.k)


def _slice_columns(n: int, k: int) -> list[np.ndarray]:
    """Column of the i-th one (i = 1..k) of every n-bit string of weight k.

    Rows run in ascending basis-index order: row r is unranked in the
    combinatorial number system, whose rank order is the numeric order of
    the bitmask.  Columns are uint16, so n stays below 2^16.
    """
    total = math.comb(n, k)
    # binomials[i][e] = C(e, i) for exponents e = 0..n-1, clipped at total
    # (Pascal's rule stays exact under the clip, and no rank reaches total)
    binomials = [np.ones(n, dtype=np.int64)]
    for _ in range(k):
        running = np.cumsum(binomials[-1])
        binomials.append(np.minimum(np.concatenate(([0], running[:-1])), total))
    ranks = np.arange(total, dtype=np.int64)
    columns = []
    for i in range(k, 0, -1):
        exponent = np.searchsorted(binomials[i], ranks, side="right") - 1
        ranks -= binomials[i][exponent]
        columns.append((n - 1 - exponent).astype(np.uint16))  # bit 2^e is column n-1-e
    return columns


def dicke_state(spec: DickeSpec) -> StateVector:
    """Even superposition of every weight-k computational basis state."""
    if spec.n > MAX_QUBITS:
        raise CapacityError(f"n={spec.n} exceeds the {MAX_QUBITS}-qubit cap")
    amps = np.zeros(2**spec.n, dtype=complex)
    support = sum(1 << (spec.n - 1 - col.astype(np.int64)) for col in _slice_columns(spec.n, spec.k))
    amps[support] = 1.0 / math.sqrt(spec.num_outcomes)
    return StateVector(spec.n, amps)


def ghz_state(n: int) -> StateVector:
    """(|0...0> + |1...1>)/sqrt(2) on n qubits."""
    if n < 2:
        raise ValueError(f"GHZ state needs n >= 2, got {n}")
    if n > MAX_QUBITS:
        raise CapacityError(f"n={n} exceeds the {MAX_QUBITS}-qubit cap")
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = amps[-1] = 1.0 / math.sqrt(2.0)
    return StateVector(n, amps)
