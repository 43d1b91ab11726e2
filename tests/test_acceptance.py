"""End-to-end acceptance gate.

Each test states its tolerance inline; the expensive simulation runs are
shared through module-scoped fixtures.
"""

import time

import numpy as np
import pytest

from binceo.binmath import binary_entropy, chain_posterior_table
from binceo.bounds import (
    AXIS_U1,
    AXIS_U2,
    AXIS_X,
    TestChannelPair,
    bsc_bounds,
    enumerate_joint,
    marginal_entropy,
    mi_region_oracle,
    optimize_test_channels,
)
from binceo.codec import bias_propagation_quantize
from binceo.decoders import sum_product_decode
from binceo.graphs import DegreeDistribution, LdgmCode, build_compound, sample_graph
from binceo.harness import (
    ExperimentConfig,
    run_joint_trial,
    run_successive_trial,
    simulate,
)
from brute_force import brute_force_quantize, exact_marginals, tree_code

REFERENCE = dict(p1=0.15, p2=0.15, d1=0.1, d2=0.1)


# ----------------------------------------------------------------------
# 1. Closed-form bounds equal the exact mutual-information oracle on a
#    5^4 parameter grid, all four components within 1e-9, in under 5 s.


def test_bounds_match_oracle_on_grid():
    start = time.monotonic()
    grid = np.linspace(0.05, 0.45, 5)
    worst = 0.0
    for p1 in grid:
        for p2 in grid:
            for d1 in grid:
                for d2 in grid:
                    tc = TestChannelPair(d1, d2)
                    closed = bsc_bounds(p1, p2, tc)
                    oracle = mi_region_oracle(p1, p2, tc)
                    for name in ("r1", "r2", "sum_rate", "distortion"):
                        worst = max(
                            worst,
                            abs(getattr(closed, name) - getattr(oracle, name)),
                        )
    assert worst < 1e-9
    assert time.monotonic() - start < 5.0


# ----------------------------------------------------------------------
# 2. Feeding the optimizer the sum-rate of each reference test-channel
#    pair returns a pair at least as good (distortion within +1e-6), and
#    the symmetric cases are recovered within 0.005 per coordinate.


REFERENCE_PAIRS = ((0.01, 0.01), (0.1, 0.1), (0.1, 0.3))


def test_optimizer_recovers_reference_pairs():
    start = time.monotonic()
    for d1, d2 in REFERENCE_PAIRS:
        ref = bsc_bounds(0.15, 0.15, TestChannelPair(d1, d2))
        res = optimize_test_channels(0.15, 0.15, ref.sum_rate)
        assert res.distortion <= ref.distortion + 1e-6
        if d1 == d2:
            got = sorted((res.pair.d1, res.pair.d2))
            assert got[0] == pytest.approx(d1, abs=0.005)
            assert got[1] == pytest.approx(d2, abs=0.005)
    assert time.monotonic() - start < 30.0


# ----------------------------------------------------------------------
# 3. Sum-product is exact on trees: on 200 random cycle-free instances
#    (n <= 12) the BP posteriors match full-enumeration marginals within
#    1e-9, in under 10 s.


def test_sum_product_tree_exactness():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    for _ in range(200):
        code = tree_code(rng, int(rng.integers(4, 13)))
        word = rng.integers(0, 2, code.n, dtype=np.uint8)
        syndrome = code.syndrome(word)
        prior = rng.normal(0.0, 1.2, code.n)
        res = sum_product_decode(code, syndrome, prior, max_iters=30, early_stop=False)
        exact = exact_marginals(code, syndrome, prior)
        np.testing.assert_allclose(res.posterior, exact, atol=1e-9)
    assert time.monotonic() - start < 10.0


# ----------------------------------------------------------------------
# 4. Quantizer sanity: at n = 1000 and design distortion 0.1 with a 10%
#    rate margin, the mean Hamming distortion over 20 seeds lies in
#    [0.08, 0.16]; and on small instances (k <= 16) the message-passing
#    quantizer never beats exhaustive search.


def test_quantizer_distortion_window():
    start = time.monotonic()
    n = 1000
    rate = (1.0 - binary_entropy(0.1)) * 1.1
    dists = []
    for seed in range(20):
        cc = build_compound(n, ldgm_rate=rate, syndrome_rate=0.5, seed=seed)
        y = np.random.default_rng(1000 + seed).integers(0, 2, n, dtype=np.uint8)
        q = bias_propagation_quantize(cc.ldgm, y, 0.1, seed=seed)
        dists.append(q.empirical_distortion)
    mean = float(np.mean(dists))
    assert 0.08 <= mean <= 0.16
    assert time.monotonic() - start < 60.0


def test_quantizer_never_beats_brute_force():
    start = time.monotonic()
    for seed in range(8):
        k, n = 12, 24
        code = LdgmCode(
            graph=sample_graph(
                DegreeDistribution(fac={3: 1.0}), n_var=k, n_fac=n, seed=seed
            )
        )
        y = np.random.default_rng(seed).integers(0, 2, n, dtype=np.uint8)
        q = bias_propagation_quantize(code, y, 0.1, seed=seed)
        _, best = brute_force_quantize(code, y)
        assert q.empirical_distortion >= best - 1e-12
    assert time.monotonic() - start < 60.0


# ----------------------------------------------------------------------
# 5. The symbol-wise posterior applied to true (u1, u2) pairs achieves a
#    log-loss matching H(X | U1, U2) from the exact joint pmf within
#    5e-3 at n = 1e5.


def test_posterior_entropy_consistency():
    start = time.monotonic()
    p1, p2, d1, d2 = (REFERENCE[k] for k in ("p1", "p2", "d1", "d2"))
    n = 100_000
    rng = np.random.default_rng(99)
    x = rng.integers(0, 2, n, dtype=np.uint8)
    u1 = x ^ (rng.random(n) < p1).astype(np.uint8) ^ (rng.random(n) < d1).astype(np.uint8)
    u2 = x ^ (rng.random(n) < p2).astype(np.uint8) ^ (rng.random(n) < d2).astype(np.uint8)
    from binceo.binmath import ChainParams, average_log_loss

    table = chain_posterior_table(ChainParams(d1=d1, p1=p1, p2=p2, d2=d2))
    recons = table[u1.astype(int), u2.astype(int)]
    loss = average_log_loss(recons, x)
    pmf = enumerate_joint(p1, p2, d1, d2)
    h_cond = marginal_entropy(pmf, (AXIS_X, AXIS_U1, AXIS_U2)) - marginal_entropy(
        pmf, (AXIS_U1, AXIS_U2)
    )
    assert loss == pytest.approx(h_cond, abs=5e-3)
    assert time.monotonic() - start < 10.0


# ----------------------------------------------------------------------
# 6 & 7. End-to-end gap at n = 1e4 over 10 matched trials, and the
#        scheme ordering across those matched seeds.


@pytest.fixture(scope="module")
def matched_trials():
    cfg = ExperimentConfig(trials=1, base_seed=7, **REFERENCE)
    start = time.monotonic()
    joint = [run_joint_trial(cfg, t) for t in range(10)]
    succ = [run_successive_trial(cfg, t) for t in range(10)]
    elapsed = time.monotonic() - start
    return joint, succ, elapsed


def test_end_to_end_gaps(matched_trials):
    joint, succ, elapsed = matched_trials
    assert elapsed < 600.0
    joint_rate_gap = float(np.mean([r.sum_rate_gap for r in joint]))
    joint_dist_gap = float(np.mean([r.distortion_gap for r in joint]))
    succ_rate_gap = float(np.mean([r.sum_rate_gap for r in succ]))
    succ_dist_gap = float(np.mean([r.distortion_gap for r in succ]))
    assert joint_rate_gap <= 0.12
    assert abs(joint_dist_gap) <= 0.12
    assert succ_rate_gap <= 0.15
    assert abs(succ_dist_gap) <= 0.15
    # The empirical points are achievability results: no run may land
    # meaningfully below the bound.
    assert all(not r.below_bound_flag for r in joint + succ)


def test_scheme_ordering(matched_trials):
    joint, succ, _ = matched_trials
    wins = sum(
        (j.sum_rate_gap + j.distortion_gap) < (s.sum_rate_gap + s.distortion_gap)
        for j, s in zip(joint, succ)
    )
    assert wins >= 8


# ----------------------------------------------------------------------
# 8. Determinism: repeating a simulate invocation with the same config
#    and seed produces byte-identical CSV.


def test_simulate_byte_determinism():
    cfg = ExperimentConfig(n=2000, trials=1, scheme="both", base_seed=11)
    first = simulate(cfg)
    second = simulate(cfg)
    assert first.encode() == second.encode()
