"""Dicke/W/GHZ construction: supports, amplitudes, marginals."""
import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from conftest import index_bits, weight_k_indices

from eacsim.markov import dicke_outcome_probability
from eacsim.states import DickeSpec, _slice_columns
from eacsim.statevector import dicke_state, ghz_state


def test_dicke_4_2_support():
    st = dicke_state(DickeSpec(4, 2))
    nz = np.flatnonzero(st.amplitudes)
    assert len(nz) == 6
    assert all(bin(i).count("1") == 2 for i in nz)
    np.testing.assert_allclose(st.amplitudes[nz], 1 / np.sqrt(6), atol=1e-12)


def test_dicke_smallest():
    st = dicke_state(DickeSpec(2, 1))
    np.testing.assert_allclose(st.amplitudes, [0, 1 / np.sqrt(2), 1 / np.sqrt(2), 0], atol=1e-12)


def test_dicke_w_state():
    st = dicke_state(DickeSpec(4, 1))
    nz = np.flatnonzero(st.amplitudes)
    assert list(nz) == [1, 2, 4, 8]
    np.testing.assert_allclose(st.amplitudes[nz], 0.5, atol=1e-12)


@pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (5, 3), (6, 2), (7, 4)])
def test_dicke_support_exactness(n, k):
    st = dicke_state(DickeSpec(n, k))
    nz = np.flatnonzero(st.amplitudes)
    assert len(nz) == math.comb(n, k)
    assert all(bin(int(i)).count("1") == k for i in nz)
    amps = st.amplitudes[nz]
    assert np.max(np.abs(amps - amps[0])) < 1e-15
    assert abs(st.norm_squared - 1.0) < 1e-12


@pytest.mark.parametrize("n,k", [(4, 2), (5, 3), (6, 2), (10, 3)])
def test_marginal_fairness(n, k):
    # oracle: sum |amp|^2 over weight-k strings with bit i set
    st = dicke_state(DickeSpec(n, k))
    probs = np.abs(st.amplitudes) ** 2
    for i in range(1, n + 1):
        marginal = sum(probs[idx] for idx in range(2**n) if (idx >> (n - i)) & 1)
        assert abs(marginal - k / n) < 1e-12


@pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (6, 3)])
def test_uniform_joint_law(n, k):
    st = dicke_state(DickeSpec(n, k))
    probs = np.abs(st.amplitudes) ** 2
    expected = 1.0 / math.comb(n, k)
    for positions in combinations(range(n), k):
        idx = sum(1 << (n - 1 - p) for p in positions)
        assert abs(probs[idx] - expected) < 1e-12


def test_per_node_win_probability():
    assert dicke_outcome_probability(4, 2)[1] == pytest.approx(0.5)
    for n in (3, 5, 9):
        assert dicke_outcome_probability(n, n - 1)[1] == pytest.approx((n - 1) / n)
    assert dicke_outcome_probability(10, 3)[1] == pytest.approx(0.3, abs=1e-12)


def test_ghz_small():
    st = ghz_state(2)
    np.testing.assert_allclose(st.amplitudes, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)], atol=1e-12)
    st = ghz_state(3)
    nz = np.flatnonzero(st.amplitudes)
    assert list(nz) == [0, 7]
    np.testing.assert_allclose(st.amplitudes[nz], 1 / np.sqrt(2), atol=1e-12)
    assert abs(st.norm_squared - 1.0) < 1e-12
    with pytest.raises(ValueError, match=r"GHZ state needs n >= 2, got 1"):
        ghz_state(1)


def test_spec_validation():
    with pytest.raises(ValueError):
        DickeSpec(1, 1)
    with pytest.raises(ValueError):
        DickeSpec(4, 0)
    with pytest.raises(ValueError):
        DickeSpec(4, 4)


def test_outcome_count_is_computed_once_per_instance():
    spec = DickeSpec(2000, 1000)
    assert spec.num_outcomes is spec.num_outcomes
    assert spec.num_outcomes == math.comb(2000, 1000)
    assert spec == DickeSpec(2000, 1000) and hash(spec) == hash(DickeSpec(2000, 1000))


def test_weight_k_enumeration_is_ascending():
    idxs = weight_k_indices(5, 2)
    assert idxs == sorted(idxs)
    assert len(idxs) == 10
    assert all(bin(i).count("1") == 2 for i in idxs)
    # lexicographic order of big-endian bitstrings == ascending integers
    strings = ["".join(map(str, index_bits(i, 5))) for i in idxs]
    assert strings == sorted(strings)
    # the unranker walks the slice in the same order
    assert (1 << (4 - _slice_columns(5, 2).astype(int))).sum(axis=1).tolist() == idxs


def unrank(n, k, rank):
    """Columns of the ones of the weight-k string at ``rank``, in exact integers."""
    columns = []
    for i in range(k, 0, -1):
        e = max(e for e in range(i - 1, n) if math.comb(e, i) <= rank)
        rank -= math.comb(e, i)
        columns.append(n - 1 - e)
    return columns


@pytest.mark.parametrize("n,k", [(66, 33), (62, 31), (400, 8)])
def test_unranker_is_exact_below_the_int64_cap(n, k):
    # contend draws ranks up to C(n,k) - 1 < 2^63; the int64 binomials must not round there
    count = math.comb(n, k)
    assert count < 2**63
    ranks = [0, 1, count - 2, count - 1]
    ranks += np.random.default_rng(n).integers(count, size=200, dtype=np.int64).tolist()
    got = _slice_columns(n, k, np.array(ranks, dtype=np.int64)).tolist()
    assert got == [unrank(n, k, rank) for rank in ranks]


@pytest.mark.parametrize("n,k", [(257, 1), (300, 2), (9, 1), (6, 6), (22, 11)])
def test_slice_enumeration_is_the_unranker_at_every_rank(n, k):
    # the whole slice is enumerated, ranks are unranked: one order, one dtype (uint16 past 256)
    count = math.comb(n, k)
    got = _slice_columns(n, k)
    assert got.dtype == np.min_scalar_type(n - 1) and got.shape == (count, k)
    np.testing.assert_array_equal(got, _slice_columns(n, k, np.arange(count)))


@pytest.mark.parametrize("n,k", [(22, 11), (60, 58)])
def test_slice_enumeration_holds_about_its_output(n, k):
    # C(n,k) k bytes of columns, and a level before it; building every j-subset of all n
    # columns instead would hold C(40, 20) rows at (40, 38)
    tracemalloc.start()
    try:
        _slice_columns(n, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * math.comb(n, k) * k


def test_index_bits_round_trip():
    assert index_bits(0b1100, 4) == (1, 1, 0, 0)
    assert index_bits(0b0011, 4) == (0, 0, 1, 1)
