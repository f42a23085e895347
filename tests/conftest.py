"""Shared test helpers."""
from __future__ import annotations


class ForcedRng:
    """Stand-in random stream yielding a preset sequence of uniforms.

    `measure` consumes one uniform per call and compares it against P(1),
    so 0.25 forces outcome 1 and 0.75 forces outcome 0 whenever P(1) = 0.5.
    """

    def __init__(self, values):
        self._values = list(values)

    def random(self, size=None):
        if size is not None:
            raise NotImplementedError("ForcedRng only supports scalar draws")
        return self._values.pop(0)


def force_bits(bits):
    """Uniform sequence that drives fair-coin measurements to `bits`."""
    return ForcedRng([0.25 if b else 0.75 for b in bits])


def weight_k_indices(n, k):
    """Reference slice order: basis indices of the n-bit strings of weight k, ascending.

    Ascending index order equals lexicographic order of the big-endian
    bitstrings.  Uses Gosper's hack to step between same-weight integers.
    """
    if k == 0:
        return [0]
    x = (1 << k) - 1
    out = []
    while x < 1 << n:
        out.append(x)
        u = x & -x
        v = x + u
        x = v | (((v ^ x) // u) >> 2)
    return out


def index_bits(index, n):
    """Big-endian bit tuple (d_1, ..., d_n) of a basis index."""
    return tuple((index >> (n - i)) & 1 for i in range(1, n + 1))
