"""Contention instances and the weight-k slice of their Dicke states.

`DickeSpec` names an instance: n contending nodes sharing the Dicke state of
weight k (the W state for k = 1).  `_slice_columns` gives the weight-k basis
strings, that state's support, as the (rows x k) matrix of their ones' columns
that every consumer reads, in lexicographic order of their big-endian
bitstrings (ascending basis index), by one of two ways: the whole slice is
enumerated, the strings at given ranks are unranked; this fixes which
collision the encoder's injectivity check names first, what a contention
draw's rank names and the binary encoder's index convention; codebooks are
emitted explicitly so consumers never depend on it.  Dicke and GHZ amplitudes
are in `statevector`.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


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

    @functools.cached_property
    def num_outcomes(self) -> int:
        """C(n,k), computed once per instance: it takes seconds for n in the millions."""
        return math.comb(self.n, self.k)


def _slice_columns(n: int, k: int, ranks: np.ndarray | None = None) -> np.ndarray:
    """(rows x k) matrix: row r, ascending, the columns of the ones of the string at ranks[r].

    Rank r is the r-th string in ascending basis-index order, the descending
    lexicographic order of the rows.  Without ``ranks`` every rank is wanted in
    turn, and the slice is enumerated: no level holds more than C(n,k) rows.
    Given ``ranks`` (int64, each below C(n,k)), each is unranked in the
    combinatorial number system, whose rank order is the numeric order of the
    bitmask.  Columns take the smallest unsigned dtype holding n-1.
    """
    dtype = np.min_scalar_type(n - 1)
    if ranks is None:
        # column i is b[i] + i, b nondecreasing over 0..m = n-k, built from its last entry leftward
        # in descending order: the rows of length j whose entries are all m - t or more are the first
        # count[t] = C(t + j, j) of them, so length j + 1 is m - t in front of those, for t = 0..m
        m = n - k
        rows, count = np.empty((1, 0), dtype), np.ones(m + 1, dtype=np.int64)
        for j in range(k):
            ends = np.cumsum(count)  # C(t + j + 1, j + 1)
            grown = np.empty((ends[-1], j + 1), dtype)
            grown[:, 0] = np.repeat(np.arange(m, -1, -1, dtype=dtype), count)
            if j:
                for c, end in zip(count.tolist(), ends.tolist()):
                    grown[end - c:end, 1:] = rows[:c]
            rows, count = grown, ends
        rows += np.arange(k, dtype=dtype)
        return rows
    # the i-th one from the right sits at an exponent e in i-1..n-k+i-1, where
    # binomials[i-1][e-i+1] = C(e, i) (hockey-stick rule), all below C(n,k)
    binomials = [np.arange(n - k + 1, dtype=np.int64)]
    for _ in range(k - 1):
        binomials.append(np.cumsum(binomials[-1]))
    ranks = ranks.astype(np.int64)  # a copy: reduced in place below
    columns = np.empty((len(ranks), k), dtype=dtype)
    for i in range(k, 0, -1):
        offset = np.searchsorted(binomials[i - 1], ranks, side="right") - 1
        ranks -= binomials[i - 1][offset]
        columns[:, k - i] = n - i - offset  # bit 2^e is column n-1-e
    return columns
