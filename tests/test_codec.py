import hashlib

import numpy as np
import pytest

from binceo import codec
from binceo._msgpass import check_messages
from binceo.bounds import TestChannelPair
from binceo.codec import (
    bias_propagation_quantize,
    encode_joint,
    encode_successive,
    syndrome_generate,
)
from binceo.graphs import (DegreeDistribution, LdgmCode, build_anchor_compound,
                           build_compound, design_rates)
from binceo.harness import ExperimentConfig
from brute_force import csr


@pytest.fixture(scope="module")
def compound_pair():
    cc1 = build_compound(2000, ldgm_rate=0.558, syndrome_rate=0.56, seed=21)
    cc2 = build_compound(2000, ldgm_rate=0.558, syndrome_rate=0.56, seed=22)
    return cc1, cc2


def _observation(n, seed):
    return np.random.default_rng(seed).integers(0, 2, n, dtype=np.uint8)


def test_quantize_deterministic(compound_pair):
    cc, _ = compound_pair
    y = _observation(cc.n, 31)
    q1 = bias_propagation_quantize(cc.ldgm, y, 0.1, seed=5)
    q2 = bias_propagation_quantize(cc.ldgm, y, 0.1, seed=5)
    np.testing.assert_array_equal(q1.info_bits, q2.info_bits)
    assert q1.empirical_distortion == q2.empirical_distortion


# sha256 of the quantizer's information bits at the reference point
# (p = 0.15, d = 0.1, link-1 design rates), per (n, seed).  Decimation
# breaks |bias| ties to the lower index and flips seeded coins for dead
# biases, so a change to the order in which a variable adds its messages
# moves these bits.
QUANTIZE_INFO_SHA256 = {
    (2000, 1): "122559386febb23a9a7174aa34619b18ed7d937bfe6683dfa276f5b32d2e320d",
    (2000, 2): "d5a6794eb4367063e3af22c5e94c82b5827441c004a29627a9ccc9c737da2cf0",
    (10_000, 1): "dbae89c53f67981e6c117e285287ad310b857586583c6e38bd256a6ed8df2ee7",
    (10_000, 2): "a99047fcff6dbf2f3f89f2188a11368b38d2ce03d81d0348e9540572e822796b",
}


@pytest.mark.parametrize("n, seed", sorted(QUANTIZE_INFO_SHA256))
def test_quantize_info_bits_are_pinned(n, seed):
    cfg = ExperimentConfig()
    g1, _, s1, _ = design_rates(cfg.p1, cfg.p2, cfg.d1, cfg.d2, cfg.ldgm_margin,
                                cfg.syndrome_margin)
    cc = build_compound(n, g1, s1, seed=seed)
    q = bias_propagation_quantize(cc.ldgm, _observation(n, seed), cfg.d1, seed=seed)
    assert hashlib.sha256(q.info_bits.tobytes()).hexdigest() == QUANTIZE_INFO_SHA256[n, seed]


def _reference_ldgm(n, seed):
    cfg = ExperimentConfig()
    g1, _, s1, _ = design_rates(cfg.p1, cfg.p2, cfg.d1, cfg.d2, cfg.ldgm_margin,
                                cfg.syndrome_margin)
    return build_compound(n, g1, s1, seed=seed).ldgm


def _rows(code):
    g = code.graph
    return [g.indices[a:b].tolist() for a, b in zip(g.indptr[:-1], g.indptr[1:])]


def _bits_without_factors(n, seed):
    """The reference LDGM with three more information bits that no factor
    touches, spread over the index range: their biases stay exactly 0."""
    code = _reference_ldgm(n, seed)
    new_index = np.delete(np.arange(code.k + 3), [5, code.k // 2, code.k + 1])
    return LdgmCode(csr(code.k + 3, [new_index[r].tolist() for r in _rows(code)]))


def _unit_rows_after_mixed_rows(n, seed):
    """The reference LDGM with every tenth systematic row moved behind the
    mixed rows, one after each of the first mixed rows."""
    code = _reference_ldgm(n, seed)
    rows = _rows(code)
    units, mixed = rows[: code.k], rows[code.k :]
    moved = units[::10]
    head = [r for i, r in enumerate(units) if i % 10]
    tail = [r for pair in zip(mixed, moved) for r in pair] + mixed[len(moved) :]
    return LdgmCode(csr(code.k, head + tail))


# Off the reference point, per case: (LDGM degree distribution, "anchor"
# for the joint anchor code's LDGM, or a builder of the LDGM from (n,
# seed); target_d or None for d1; sweeps).  Two degrees give two row runs
# after the systematic block; at d = 0.5 every bias is dead, so the bits
# are coin flips in selection order.  One sweep runs sweep 0 alone.  Bits
# without a factor are dead when chosen.  At d = 0.5 - 1.2e-10 a factor
# sends at most about 2.4e-10, so a bias is live only if a few factors
# agree: a batch holds live and dead biases, and the dead ones, not all
# equal, go in selection order, not index order.  A unit row behind a
# mixed row sends a message on sweep 0, so that sweep's check update must
# run.
QUANTIZE_CASES = {
    "two-degree": ({3: 0.5, 5: 0.5}, None, 25),
    "degree6-100-sweeps": ({6: 1.0}, None, 100),
    "anchor": ("anchor", None, 25),
    "d0.01": ({4: 1.0}, 0.01, 25),
    "d0.5": ({4: 1.0}, 0.5, 25),
    "one-sweep": ({4: 1.0}, None, 1),
    "bits-without-factors": (_bits_without_factors, None, 25),
    "bits-without-factors-near-d0.5": (_bits_without_factors, 0.5 - 1.2e-10, 25),
    "unit-rows-after-mixed-rows": (_unit_rows_after_mixed_rows, None, 25),
}
# sha256 of the information bits followed by the converged flag as one
# byte, at n = 2000, per (case, seed).
QUANTIZE_CASE_SHA256 = {
    ("two-degree", 1): "0832311e06a1bfdf2da218c28b8250283ec431bfb8f55eef29ec31dd9008cc2b",
    ("two-degree", 2): "b9c7a1d9b41a3f8ced9c8985d26127b297ccae527dfae3f9d03de79894a33d5c",
    ("degree6-100-sweeps", 1): "a158b7c343019a39585781d0caae1d677fe772c66b7d38d23e55121681f98b39",
    ("degree6-100-sweeps", 2): "d78fe9f3eae76553d49a15c1e7cffd2e9eb782aa825555a9b578886e6b9722d0",
    ("anchor", 1): "074daebb7e3961d91d326e643079ee06116b9f4c2c3aa115b0aa4ef0043b2af5",
    ("anchor", 2): "d619993070f512853cb724910015f8b9dbc5ac11f9ccb015e9deabef2c56bde4",
    ("d0.01", 1): "4004dcb144bd8f451d5db740021f2daa9f30d04bdf748b29232e5259b1fba882",
    ("d0.01", 2): "6aae90151669dc8a9089df944568161f709fbda31463a436e4895f4805754640",
    ("d0.5", 1): "155ccd58b1222fb974055e07804dd5ab1c6a47c6a858522a172fe10c8652b5ab",
    ("d0.5", 2): "1396c0e465d412459f9d29959879749dbe7dc3ad6eb09b6df093b28414c592be",
    ("one-sweep", 1): "3a3ea0963bca34104a476a600190e52eb02fba4cd60d1e8503e315bd8c9c4433",
    ("one-sweep", 2): "bbb93165f819ae9816537694c46957fa4ce48637d5250a91939d244d19d36170",
    ("bits-without-factors", 1): "265f564e8d42d1aa295916e7d084963209f9ef01be31b5c445209d198dfa982f",
    ("bits-without-factors", 2): "0d63f9c5f160c3b01fc03ee6375d5e8675b5e27cd2ffcb621c00710fe78d84c9",
    ("bits-without-factors-near-d0.5", 1):
        "a9f4647cec5ff518d942240a34ea7afe00e899d756ddfe83b1969f79e03c4ae3",
    ("bits-without-factors-near-d0.5", 2):
        "27daf4d6ecfae252474fa4f3e24f31f1a3697c30dc672587e8f591c8e6451bb6",
    ("unit-rows-after-mixed-rows", 1):
        "25af6f05760172b58b87c40caa56e3b540e707816020c976ff9f64d4ec9fc05e",
    ("unit-rows-after-mixed-rows", 2):
        "98042a8bf71d59d522b5edbb54ca6f146d22cb0b7492d94d545da48aab16373c",
}


def _quantize_case_digest(case, seed, n=2000):
    ldgm, target_d, sweeps = QUANTIZE_CASES[case]
    cfg = ExperimentConfig()
    g1, _, s1, _ = design_rates(cfg.p1, cfg.p2, cfg.d1, cfg.d2, cfg.ldgm_margin,
                                cfg.syndrome_margin)
    if callable(ldgm):
        code = ldgm(n, seed)
    elif ldgm == "anchor":
        code = build_anchor_compound(n, g1, cfg.anchor_gamma, seed=seed).ldgm
    else:
        code = build_compound(n, g1, s1, DegreeDistribution(ldgm), seed=seed).ldgm
    q = bias_propagation_quantize(code, _observation(n, seed),
                                  cfg.d1 if target_d is None else target_d, sweeps, seed=seed)
    return hashlib.sha256(q.info_bits.tobytes() + bytes([q.converged])).hexdigest()


@pytest.mark.parametrize("case, seed", sorted(QUANTIZE_CASE_SHA256))
def test_quantize_info_bits_are_pinned_off_the_reference_point(case, seed):
    assert _quantize_case_digest(case, seed) == QUANTIZE_CASE_SHA256[case, seed]


@pytest.mark.parametrize("ldgm, updates", [(_reference_ldgm, 24),
                                             (_unit_rows_after_mixed_rows, 25)])
def test_quantize_runs_a_check_update_per_sweep_but_a_silent_first(monkeypatch, ldgm,
                                                                   updates):
    # Every message starts at 0, so sweep 0's check update changes nothing
    # unless a unit row outside the leading block sends atanh of its scale.
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return check_messages(*args, **kwargs)

    monkeypatch.setattr(codec, "check_messages", counted)
    code = ldgm(2000, 1)
    bias_propagation_quantize(code, _observation(code.n, 1), 0.1)
    assert len(calls) == updates


def test_quantize_output_consistency(compound_pair):
    cc, _ = compound_pair
    y = _observation(cc.n, 32)
    q = bias_propagation_quantize(cc.ldgm, y, 0.1, seed=6)
    np.testing.assert_array_equal(q.quantized, cc.ldgm.encode(q.info_bits))
    assert q.empirical_distortion == pytest.approx(np.mean(q.quantized != y))
    assert set(np.unique(q.info_bits)) <= {0, 1}


def test_quantize_beats_random_codeword(compound_pair):
    cc, _ = compound_pair
    y = _observation(cc.n, 33)
    q = bias_propagation_quantize(cc.ldgm, y, 0.1, seed=7)
    rng = np.random.default_rng(0)
    random_word = cc.ldgm.encode(rng.integers(0, 2, cc.ldgm.k, dtype=np.uint8))
    assert q.empirical_distortion < np.mean(random_word != y)


def test_quantize_validation(compound_pair):
    cc, _ = compound_pair
    with pytest.raises(ValueError):
        bias_propagation_quantize(cc.ldgm, np.zeros(cc.n - 1, dtype=np.uint8), 0.1)
    with pytest.raises(ValueError):
        bias_propagation_quantize(
            cc.ldgm, np.zeros(cc.n, dtype=np.uint8), 0.1, max_iters=0
        )


def test_quantize_rejects_a_non_binary_observation(compound_pair):
    cc, _ = compound_pair
    y = _observation(cc.n, 39)
    y[5] = 2
    with pytest.raises(ValueError, match="y must hold bits"):
        bias_propagation_quantize(cc.ldgm, y, 0.1)


def test_quantizer_distortion_monotone_in_rate():
    # More information bits per output -> lower mean Hamming distortion.
    means = []
    for rate in (0.50, 0.584, 0.66):
        dists = []
        for seed in range(20):
            cc = build_compound(1000, rate, 0.5, seed=seed)
            y = _observation(1000, 500 + seed)
            dists.append(
                bias_propagation_quantize(cc.ldgm, y, 0.1, seed=seed).empirical_distortion
            )
        means.append(np.mean(dists))
    assert means[0] > means[1] > means[2]


def test_syndrome_generate_matches_code(compound_pair):
    cc, _ = compound_pair
    u = _observation(cc.n, 34)
    np.testing.assert_array_equal(syndrome_generate(cc.ldpc, u), cc.ldpc.syndrome(u))


def test_encode_joint_pipeline(compound_pair):
    cc1, cc2 = compound_pair
    y1 = _observation(cc1.n, 35)
    y2 = _observation(cc2.n, 36)
    tc = TestChannelPair(0.1, 0.1)
    syn1, syn2, q1, q2 = encode_joint(cc1, cc2, y1, y2, tc, seed=40)
    np.testing.assert_array_equal(syn1, cc1.ldpc.syndrome(q1.quantized))
    np.testing.assert_array_equal(syn2, cc2.ldpc.syndrome(q2.quantized))
    assert syn1.shape == (cc1.ldpc.m,)


def test_matched_seed_u2_shared_between_schemes(compound_pair):
    # The successive scheme reuses the joint scheme's link-2 quantizer, so
    # with the same seed and code both schemes produce the same u2.
    cc2 = compound_pair[1]
    cc1_joint = build_anchor_compound(cc2.n, 0.558, 0.025, seed=23)
    cc1_succ = compound_pair[0]
    y1 = _observation(cc2.n, 37)
    y2 = _observation(cc2.n, 38)
    tc = TestChannelPair(0.1, 0.1)
    _, _, _, qj2 = encode_joint(cc1_joint, cc2, y1, y2, tc, seed=41)
    syn1, qs1, qs2 = encode_successive(cc1_succ, cc2.ldgm, y1, y2, tc, seed=41)
    np.testing.assert_array_equal(syn1, cc1_succ.ldpc.syndrome(qs1.quantized))
    np.testing.assert_array_equal(qj2.quantized, qs2.quantized)
    # The receiver can rebuild u2 exactly from the transmitted info bits.
    np.testing.assert_array_equal(cc2.ldgm.encode(qs2.info_bits), qs2.quantized)
