import numpy as np
import pytest

from binceo.graphs import (
    DegreeDistribution,
    LdgmCode,
    LdpcCode,
    SparseBipartiteGraph,
    sample_graph,
)
from binceo.bounds import (
    AXIS_X,
    AXIS_Y1,
    entropy_bits,
    enumerate_joint,
    marginal,
    marginal_entropy,
)
from brute_force import CapacityError, brute_force_quantize, exact_marginals


def test_enumerate_joint_is_a_pmf():
    pmf = enumerate_joint(0.15, 0.2, 0.1, 0.05)
    assert pmf.shape == (2, 2, 2, 2, 2)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.all(pmf >= 0.0)


def test_enumerate_joint_marginals():
    pmf = enumerate_joint(0.15, 0.2, 0.1, 0.05)
    px = marginal(pmf, (AXIS_X,))
    np.testing.assert_allclose(px, [0.5, 0.5], atol=1e-14)
    # Pr{Y1 != X} = p1
    pxy1 = marginal(pmf, (AXIS_X, AXIS_Y1))
    assert pxy1[0, 1] + pxy1[1, 0] == pytest.approx(0.15, abs=1e-14)


def test_enumerate_joint_rejects_bad_probability():
    with pytest.raises(ValueError):
        enumerate_joint(1.2, 0.2, 0.1, 0.05)


def test_entropy_bits_uniform():
    assert entropy_bits(np.full(32, 1 / 32)) == pytest.approx(5.0, abs=1e-12)
    assert entropy_bits(np.array([1.0, 0.0])) == 0.0


def test_marginal_entropy_of_source():
    pmf = enumerate_joint(0.15, 0.15, 0.1, 0.1)
    assert marginal_entropy(pmf, (AXIS_X,)) == pytest.approx(1.0, abs=1e-12)


def _small_ldgm(k, n, seed):
    graph = sample_graph(DegreeDistribution(fac={3: 1.0}), n_var=k, n_fac=n, seed=seed)
    return LdgmCode(graph=graph)


def test_brute_force_quantize_self_consistent():
    code = _small_ldgm(k=8, n=20, seed=1)
    rng = np.random.default_rng(2)
    y = rng.integers(0, 2, 20, dtype=np.uint8)
    info, dist = brute_force_quantize(code, y)
    assert dist == pytest.approx(np.mean(code.encode(info) != y))
    # No worse than the all-zero codeword.
    assert dist <= np.mean(y != 0)


def test_brute_force_quantize_exact_hit():
    code = _small_ldgm(k=6, n=15, seed=3)
    info = np.array([1, 0, 1, 1, 0, 0], dtype=np.uint8)
    _, dist = brute_force_quantize(code, code.encode(info))
    assert dist == 0.0


def test_brute_force_quantize_capacity_cap():
    code = _small_ldgm(k=21, n=40, seed=4)
    with pytest.raises(CapacityError):
        brute_force_quantize(code, np.zeros(40, dtype=np.uint8))


def test_exact_marginals_single_check_by_hand():
    # One check on both bits of n=2, syndrome 0: words 00 and 11 survive.
    graph_code = LdpcCode(
        graph=SparseBipartiteGraph(n_var=2, indptr=[0, 2], indices=[0, 1])
    )
    prior = np.array([0.7, -0.4])
    llrs = exact_marginals(graph_code, np.array([0]), prior)
    # LLR_j = log w(00) - log w(11) = (prior0 + prior1) for both bits.
    np.testing.assert_allclose(llrs, [0.3, 0.3], atol=1e-12)


def test_exact_marginals_capacity_cap():
    code = LdpcCode(
        graph=SparseBipartiteGraph(n_var=21, indptr=[0, 2], indices=[0, 1])
    )
    with pytest.raises(CapacityError):
        exact_marginals(code, np.zeros(1, dtype=np.uint8), np.zeros(21))


def test_exact_marginals_inconsistent_syndrome():
    # A degree-1 repeated check cannot satisfy two different parities.
    code = LdpcCode(
        graph=SparseBipartiteGraph(n_var=2, indptr=[0, 1, 2], indices=[0, 0])
    )
    with pytest.raises(ValueError):
        exact_marginals(code, np.array([0, 1]), np.zeros(2))
