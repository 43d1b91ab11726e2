import math

import numpy as np
import pytest

from binceo.binmath import (
    ChainParams,
    average_log_loss,
    binary_convolution,
    binary_entropy,
    chain_posterior,
    chain_posterior_table,
    log_loss,
)
from binceo.bounds import AXIS_U1, AXIS_U2, AXIS_X, enumerate_joint, marginal


def test_binary_entropy_endpoints():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0


def test_binary_entropy_known_value():
    assert binary_entropy(0.25) == pytest.approx(0.8112781244591328, abs=1e-15)


def test_binary_entropy_symmetry():
    for q in (0.05, 0.11, 0.3, 0.49):
        assert binary_entropy(q) == pytest.approx(binary_entropy(1.0 - q), abs=1e-15)


def test_binary_entropy_rejects_out_of_range():
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)


def test_binary_convolution_identities():
    assert binary_convolution(0.3, 0.0) == pytest.approx(0.3)
    assert binary_convolution(0.3, 0.5) == pytest.approx(0.5)
    assert binary_convolution(0.15, 0.15) == pytest.approx(0.255)
    a, b = 0.12, 0.37
    assert binary_convolution(a, b) == pytest.approx(binary_convolution(b, a))


def test_chain_params_cascades():
    params = ChainParams(d1=0.1, p1=0.15, p2=0.15, d2=0.1)
    assert params.x_to_u1 == pytest.approx(0.22)
    assert params.x_to_u2 == pytest.approx(0.22)
    assert params.u1_to_u2 == pytest.approx(0.3432)


def test_chain_params_rejects_noncanonical():
    with pytest.raises(ValueError):
        ChainParams(d1=0.6, p1=0.15, p2=0.15, d2=0.1)


def test_chain_posterior_complement_symmetry():
    params = ChainParams(d1=0.1, p1=0.15, p2=0.2, d2=0.05)
    for u1 in (0, 1):
        for u2 in (0, 1):
            p = chain_posterior(params, u1, u2)
            q = chain_posterior(params, 1 - u1, 1 - u2)
            assert p + q == pytest.approx(1.0, abs=1e-12)


def test_chain_posterior_uninformative_channels():
    params = ChainParams(d1=0.5, p1=0.15, p2=0.15, d2=0.5)
    for u1 in (0, 1):
        for u2 in (0, 1):
            assert chain_posterior(params, u1, u2) == pytest.approx(0.5)


def test_chain_posterior_matches_enumeration():
    p1, p2, d1, d2 = 0.15, 0.2, 0.1, 0.07
    params = ChainParams(d1=d1, p1=p1, p2=p2, d2=d2)
    pmf = enumerate_joint(p1, p2, d1, d2)
    joint = marginal(pmf, (AXIS_X, AXIS_U1, AXIS_U2))
    for u1 in (0, 1):
        for u2 in (0, 1):
            exact = joint[1, u1, u2] / joint[:, u1, u2].sum()
            assert chain_posterior(params, u1, u2) == pytest.approx(exact, abs=1e-12)


def test_chain_posterior_table_matches_scalar():
    params = ChainParams(d1=0.08, p1=0.15, p2=0.15, d2=0.12)
    table = chain_posterior_table(params)
    for u1 in (0, 1):
        for u2 in (0, 1):
            assert table[u1, u2] == chain_posterior(params, u1, u2)


def test_chain_posterior_rejects_nonbits():
    params = ChainParams(d1=0.1, p1=0.15, p2=0.15, d2=0.1)
    with pytest.raises(ValueError):
        chain_posterior(params, 2, 0)


def test_log_loss_basics():
    assert log_loss(1.0, 1) == 0.0
    assert log_loss(0.5, 0) == pytest.approx(1.0)
    assert log_loss(0.25, 1) == pytest.approx(2.0)


def test_log_loss_clamped_at_zero_mass():
    loss = log_loss(0.0, 1)
    assert math.isfinite(loss)
    assert loss == pytest.approx(-math.log2(1e-12))


def test_log_loss_rejects_nonbit():
    with pytest.raises(ValueError):
        log_loss(0.5, 2)


def test_average_log_loss_matches_scalar():
    rng = np.random.default_rng(0)
    probs = rng.random(50)
    bits = rng.integers(0, 2, 50)
    expected = np.mean([log_loss(p, int(b)) for p, b in zip(probs, bits)])
    assert average_log_loss(probs, bits) == pytest.approx(expected, abs=1e-12)


def test_average_log_loss_shape_errors():
    with pytest.raises(ValueError):
        average_log_loss(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        average_log_loss(np.zeros(0), np.zeros(0))


@pytest.mark.parametrize("source", [[1, 2], [1, -1], [0.5, 1]])
def test_average_log_loss_rejects_non_binary_source(source):
    # A 2 or a -1 would otherwise be scored as a 0.
    with pytest.raises(ValueError, match="source must hold bits"):
        average_log_loss([0.9, 0.9], source)
