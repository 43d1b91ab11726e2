import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from binceo._msgpass import (LLR_CLAMP, check_messages, extrinsic_messages, peel,
                             slot_major, variable_sums)
from binceo.binmath import ChainParams, chain_posterior_table
from binceo.bounds import TestChannelPair
from binceo.codec import bias_propagation_quantize
from binceo.decoders import (
    _sum_product,
    combined_prior,
    combined_syndrome,
    combined_syndrome_code,
    joint_sum_product_decode,
    reconstruct_soft,
    reconstruct_soft_successive,
    side_info_prior,
    sum_product_decode,
)
from binceo.graphs import CompoundCode, LdgmCode, LdpcCode, SparseBipartiteGraph, build_compound
from brute_force import csr, exact_marginals, tree_code


@pytest.fixture(scope="module")
def nested_code():
    return build_compound(2000, ldgm_rate=0.558, syndrome_rate=0.56, seed=51)


@pytest.fixture(scope="module")
def quantized(nested_code):
    y = np.random.default_rng(52).integers(0, 2, nested_code.n, dtype=np.uint8)
    q = bias_propagation_quantize(nested_code.ldgm, y, 0.1, seed=53)
    return q.quantized


def test_side_info_prior_values():
    u = np.array([0, 1, 0], dtype=np.uint8)
    prior = side_info_prior(u, 0.2)
    mag = np.log(0.8 / 0.2)
    np.testing.assert_allclose(prior, [mag, -mag, mag], atol=1e-12)
    np.testing.assert_allclose(side_info_prior(u, 0.0), [30.0, -30.0, 30.0])
    assert np.all(np.abs(side_info_prior(u, 1e-30)) <= LLR_CLAMP)


def test_side_info_prior_rejects_bad_crossover():
    with pytest.raises(ValueError):
        side_info_prior(np.zeros(3, dtype=np.uint8), 0.7)


@pytest.mark.parametrize("u2", [[2, -1], [0, 1, 3], [0.5, 0.0]])
def test_side_info_prior_rejects_non_binary_bits(u2):
    # [2, -1] once gave -6.59 and +6.59, three times the BSC(0.1) LLR.
    with pytest.raises(ValueError, match="u2"):
        side_info_prior(np.array(u2), 0.1)


def test_sum_product_decode_validation(nested_code):
    comb = combined_syndrome_code(nested_code)
    with pytest.raises(ValueError):
        sum_product_decode(comb, np.zeros(3, dtype=np.uint8), np.zeros(comb.n))
    s = np.zeros(comb.m, dtype=np.uint8)
    with pytest.raises(ValueError):
        sum_product_decode(comb, s, np.zeros(comb.n - 1))
    with pytest.raises(ValueError):
        sum_product_decode(comb, s, np.zeros(comb.n), max_iters=0)


@pytest.mark.parametrize("value", [True, 2.5, 3.0])
@pytest.mark.parametrize("arg", ["max_iters", "n_coupled"])
@pytest.mark.parametrize("decoder", ["sum_product", "joint"])
def test_decoders_reject_a_budget_that_is_no_integer(nested_code, decoder, arg, value):
    comb = combined_syndrome_code(nested_code)
    s, prior = np.zeros(comb.m, dtype=np.uint8), np.zeros(comb.n)

    def decode(**kwargs):
        if decoder == "joint":
            return joint_sum_product_decode(comb, comb, s, s, q=0.3, **kwargs)
        return (sum_product_decode(comb, s, prior, **kwargs),)

    if decoder == "sum_product" and arg == "n_coupled":
        return
    with pytest.raises(ValueError, match=f"^{arg} must be an integer, got {value!r}$"):
        decode(**{arg: value})
    # A numpy integer is an integer.
    for got, want in zip(decode(**{arg: np.int64(3)}), decode(**{arg: 3})):
        assert got.posterior.tobytes() == want.posterior.tobytes()


def test_sum_product_decode_with_side_information(nested_code, quantized):
    # Side information at crossover 0.1 is well inside the decode basin.
    u = quantized
    rng = np.random.default_rng(54)
    u_side = u ^ (rng.random(len(u)) < 0.1).astype(np.uint8)
    comb = combined_syndrome_code(nested_code)
    s = combined_syndrome(nested_code, nested_code.ldpc.syndrome(u))
    prior = side_info_prior(u_side, 0.1)
    res = sum_product_decode(comb, s, prior, max_iters=100)
    assert res.syndrome_satisfied
    np.testing.assert_array_equal(res.u_hat, u)
    assert res.iterations_used <= 100


def test_sum_product_decode_reports_nonconvergence(nested_code, quantized):
    # No prior at all: the decoder cannot converge and must say so.
    comb = combined_syndrome_code(nested_code)
    s = combined_syndrome(nested_code, nested_code.ldpc.syndrome(quantized))
    res = sum_product_decode(comb, s, np.zeros(comb.n), max_iters=5)
    assert not res.syndrome_satisfied


def test_sum_product_decode_rejects_a_non_binary_syndrome(nested_code):
    comb = combined_syndrome_code(nested_code)
    s = np.zeros(comb.m, dtype=np.uint8)
    s[3] = 2
    with pytest.raises(ValueError, match="syndrome"):
        sum_product_decode(comb, s, np.zeros(comb.n))


@pytest.mark.parametrize("value", [3.0, -1.0 - 2**-52, np.nan, -np.inf])
def test_sum_product_decode_rejects_a_leaf_scale_outside_the_unit_interval(nested_code, value):
    # Leaf scales tripled once gave NaN posteriors and a syndrome that read
    # as satisfied.
    absorbed = combined_syndrome_code(nested_code, absorb_leaves=True)
    side = np.random.default_rng(59).integers(0, 2, nested_code.n, dtype=np.uint8)
    info_prior, leaf_scale = combined_prior(nested_code, side_info_prior(side, 0.12))
    s = np.zeros(nested_code.ldpc.m, dtype=np.uint8)
    bad = leaf_scale.copy()
    bad[7] = value
    with pytest.raises(ValueError, match="leaf_scale"):
        sum_product_decode(absorbed, s, info_prior, 2, leaf_scale=bad)
    # The ends of the interval are leaves that are known exactly.
    sum_product_decode(absorbed, s, info_prior, 2, leaf_scale=np.sign(leaf_scale))


def _nan_prior(n: int) -> np.ndarray:
    prior = np.zeros(n)
    prior[[0, 7, n - 1]] = np.nan
    return prior


def test_sum_product_decode_rejects_a_nan_prior(nested_code, quantized):
    # NaN passes the loop's clip: 50 NaN entries on a 2000-bit code once
    # gave 833 NaN posteriors without an error.
    comb = combined_syndrome_code(nested_code)
    s = combined_syndrome(nested_code, nested_code.ldpc.syndrome(quantized))
    with pytest.raises(ValueError, match="prior"):
        sum_product_decode(comb, s, _nan_prior(comb.n))
    # Infinite priors are clipped by the loop, so they stay allowed.
    prior = side_info_prior(quantized, 0.1)
    prior[prior > 0] = np.inf
    res = sum_product_decode(comb, s, prior, max_iters=5)
    assert not np.isnan(res.posterior).any() and res.syndrome_satisfied


@pytest.mark.parametrize("arg", ["prior1", "prior2"])
def test_joint_decode_rejects_a_nan_prior(nested_code, arg):
    comb = combined_syndrome_code(nested_code)
    s = np.zeros(comb.m, dtype=np.uint8)
    priors = {"prior1": np.zeros(comb.n), "prior2": np.full(comb.n, -np.inf)}
    joint_sum_product_decode(comb, comb, s, s, q=0.3, max_iters=3, **priors)
    priors[arg] = _nan_prior(comb.n)
    with pytest.raises(ValueError, match=arg):
        joint_sum_product_decode(comb, comb, s, s, q=0.3, **priors)


@pytest.mark.parametrize("arg", ["s1", "s2"])
def test_joint_decode_rejects_a_non_binary_syndrome(nested_code, arg):
    comb = combined_syndrome_code(nested_code)
    s = {"s1": np.zeros(comb.m, dtype=np.uint8), "s2": np.zeros(comb.m, dtype=np.uint8)}
    s[arg][3] = 2
    with pytest.raises(ValueError, match=arg):
        joint_sum_product_decode(comb, comb, s["s1"], s["s2"], q=0.3)


def test_joint_decode_validation(nested_code):
    comb = combined_syndrome_code(nested_code)
    s = np.zeros(comb.m, dtype=np.uint8)
    with pytest.raises(ValueError):
        joint_sum_product_decode(comb, comb, s, s, q=0.7)
    with pytest.raises(ValueError):
        joint_sum_product_decode(comb, comb, s[:-1], s, q=0.3)
    with pytest.raises(ValueError):
        joint_sum_product_decode(comb, comb, s, s, q=0.3, n_coupled=comb.n + 1)
    with pytest.raises(ValueError, match="n_coupled=-1"):
        joint_sum_product_decode(comb, comb, s, s, q=0.3, n_coupled=-1)
    with pytest.raises(ValueError, match="max_iters"):
        joint_sum_product_decode(comb, comb, s, s, q=0.3, max_iters=0)


def test_joint_decode_cross_bootstraps_second_link(nested_code, quantized):
    # Decoder 1 has its own strong prior; decoder 2 starts cold and must be
    # carried entirely by the correlation messages.
    u1 = quantized
    rng = np.random.default_rng(55)
    # u2 must itself be a codeword: quantize a correlated observation.
    y2 = u1 ^ (rng.random(len(u1)) < 0.12).astype(np.uint8)
    u2 = bias_propagation_quantize(nested_code.ldgm, y2, 0.1, seed=57).quantized
    q = float(np.mean(u1 != u2))
    assert q < 0.3
    side = u1 ^ (rng.random(len(u1)) < 0.05).astype(np.uint8)
    comb = combined_syndrome_code(nested_code)
    s1 = combined_syndrome(nested_code, nested_code.ldpc.syndrome(u1))
    s2 = combined_syndrome(nested_code, nested_code.ldpc.syndrome(u2))
    prior1 = side_info_prior(side, 0.05)
    res1, res2 = joint_sum_product_decode(
        comb, comb, s1, s2, q=q, prior1=prior1, n_coupled=nested_code.n
    )
    assert res1.syndrome_satisfied and res2.syndrome_satisfied
    np.testing.assert_array_equal(res1.u_hat, u1)
    np.testing.assert_array_equal(res2.u_hat, u2)


def test_decoders_stop_at_the_first_iteration_that_meets_the_syndromes(nested_code, quantized):
    # An early-stopped decode that reports t iterations is a full run of t
    # iterations, bit for bit, and a full run of t - 1 iterations still
    # leaves a syndrome unsatisfied.
    rng = np.random.default_rng(58)
    u1 = quantized
    y2 = u1 ^ (rng.random(len(u1)) < 0.12).astype(np.uint8)
    u2 = bias_propagation_quantize(nested_code.ldgm, y2, 0.1, seed=57).quantized
    side = u1 ^ (rng.random(len(u1)) < 0.12).astype(np.uint8)
    absorbed = combined_syndrome_code(nested_code, absorb_leaves=True)
    info_prior, leaf_scale = combined_prior(nested_code, side_info_prior(side, 0.12))
    s = nested_code.ldpc.syndrome(u1)

    def successive(iters, early_stop):
        return (sum_product_decode(absorbed, s, info_prior, iters, early_stop, leaf_scale),)

    comb = combined_syndrome_code(nested_code)
    s1, s2 = (combined_syndrome(nested_code, nested_code.ldpc.syndrome(u)) for u in (u1, u2))

    def joint(iters, early_stop):
        return joint_sum_product_decode(comb, comb, s1, s2, float(np.mean(u1 != u2)), iters,
                                        side_info_prior(side, 0.12), early_stop=early_stop)

    for decode in (successive, joint):
        stopped = decode(100, True)
        t = stopped[0].iterations_used
        assert t > 1 and all(r.syndrome_satisfied and r.iterations_used == t for r in stopped)
        for got, want in zip(stopped, decode(t, False)):
            assert got.posterior.tobytes() == want.posterior.tobytes()
            assert want.syndrome_satisfied
        assert not all(r.syndrome_satisfied for r in decode(t - 1, False))


@given(seed=st.integers(0, 2**32 - 1), q=st.floats(0.0, 0.5, exclude_min=True))
def test_joint_decode_exact_on_coupled_trees(seed, q):
    # Two trees joined at the pair (u1_0, u2_0) form one tree, so the joint
    # decoder's posteriors are exact.  The reference is the hard-check code
    # on (u1, u2, z) whose extra check u1_0 + u2_0 + z = 0 carries the
    # BSC(q) coupling through z's prior log((1 - q) / q).
    rng = np.random.default_rng(seed)
    code1 = tree_code(rng, int(rng.integers(3, 10)))
    code2 = tree_code(rng, int(rng.integers(3, 10)))
    n1, n2 = code1.n, code2.n
    words = [rng.integers(0, 2, c.n, dtype=np.uint8) for c in (code1, code2)]
    s1, s2 = code1.syndrome(words[0]), code2.syndrome(words[1])
    prior1, prior2 = rng.normal(0.0, 1.2, n1), rng.normal(0.0, 1.2, n2)
    res1, res2 = joint_sum_product_decode(code1, code2, s1, s2, q, max_iters=40,
                                          prior1=prior1, prior2=prior2, n_coupled=1,
                                          early_stop=False)
    g1, g2 = code1.graph, code2.graph
    union = LdpcCode(SparseBipartiteGraph(
        n_var=n1 + n2 + 1,
        indptr=np.concatenate([g1.indptr, g1.n_edges + g2.indptr[1:],
                               [g1.n_edges + g2.n_edges + 3]]),
        indices=np.concatenate([g1.indices, n1 + g2.indices, [0, n1, n1 + n2]])))
    exact = exact_marginals(union, np.concatenate([s1, s2, [0]]),
                            np.concatenate([prior1, prior2, [np.log1p(-q) - np.log(q)]]))
    np.testing.assert_allclose(res1.posterior, exact[:n1], atol=1e-9)
    np.testing.assert_allclose(res2.posterior, exact[n1 : n1 + n2], atol=1e-9)


def _random_code(rng, n: int, m: int) -> LdpcCode:
    """m checks on 2-4 distinct variables each, drawn at random (cycles allowed)."""
    return LdpcCode(csr(n, [np.sort(rng.choice(n, int(rng.integers(2, 5)), replace=False))
                            for _ in range(m)]))


def test_joint_decode_updates_coupling_before_link_checks():
    # The joint schedule written out per factor on two loopy codes: every
    # iteration sends each coupling message from the other link's extrinsic
    # belief, and then every link-check message from beliefs that already
    # hold this iteration's coupling messages.  Flooding both at once gives
    # other posteriors after the first iteration.
    rng = np.random.default_rng(61)
    codes = [_random_code(rng, 12, 8), _random_code(rng, 10, 7)]
    syns = [c.syndrome(rng.integers(0, 2, c.n, dtype=np.uint8)) for c in codes]
    priors = [rng.normal(0.0, 1.5, c.n) for c in codes]
    q, nc, iters = 0.1, 8, 6
    cross = [np.zeros(c.n) for c in codes]
    msgs = [np.zeros(c.graph.n_edges) for c in codes]  # check to variable, per edge

    def belief(k):
        return priors[k] + cross[k] + np.bincount(codes[k].graph.indices, msgs[k], codes[k].n)

    for _ in range(iters):
        ext = [np.clip(belief(k) - cross[k], -LLR_CLAMP, LLR_CLAMP) for k in (0, 1)]
        for k in (0, 1):
            cross[k][:nc] = 2 * np.arctanh((1 - 2 * q) * np.tanh(ext[1 - k][:nc] / 2))
        for k, (code, syn) in enumerate(zip(codes, syns)):
            g, tot, new = code.graph, belief(k), np.empty_like(msgs[k])
            for f in range(g.n_fac):
                e = np.arange(g.indptr[f], g.indptr[f + 1])
                t = np.tanh(np.clip(tot[g.indices[e]] - msgs[k][e], -LLR_CLAMP, LLR_CLAMP) / 2)
                for j, ej in enumerate(e):
                    new[ej] = 2 * np.arctanh((1 - 2 * int(syn[f])) * np.prod(np.delete(t, j)))
            msgs[k] = np.clip(new, -LLR_CLAMP, LLR_CLAMP)
    res = joint_sum_product_decode(*codes, *syns, q, max_iters=iters, prior1=priors[0],
                                   prior2=priors[1], n_coupled=nc, early_stop=False)
    for k in (0, 1):
        np.testing.assert_allclose(res[k].posterior, belief(k), atol=1e-9)


def _reference_sum_product(graph, fac_scale, prior, iters, pairs, leaves=()):
    """The loop of _sum_product on the same slot-major edge layout, with
    every factor's messages, degree-1 factors included, recomputed in
    every iteration, and the pairs, if any, run before them as a generic
    degree-2 layer: gathered extrinsics, the kernel and a bincount.  pairs
    is (first ends, second ends, scale).  Each absorbed leaf (variable,
    host factor, host scale before the fold) gets, after the last
    iteration, its prior plus atanh(host scale * the product of tanh of
    the host's last messages in, taken slot by slot)."""
    perm, fac_order, buckets = slot_major(graph.indptr)
    layers = [(graph.indices[perm], fac_scale[fac_order], buckets)]
    if pairs is not None:
        first, second, scale = pairs
        layers.insert(0, (np.concatenate([first, second]), np.full(len(first), scale),
                          ((2, slice(0, 2 * len(first)), slice(0, len(first)), "C"),)))
    half = prior / 2
    m_cv = [np.zeros(len(edge_var)) for edge_var, _, _ in layers]
    sums = [np.zeros(len(prior)) for _ in layers]
    posterior = half.copy()
    for _ in range(iters):
        for layer, (edge_var, scale, bks) in enumerate(layers):
            m_vc = extrinsic_messages(posterior, edge_var, m_cv[layer])
            m_cv[layer] = check_messages(m_vc, scale, bks)
            sums[layer] = variable_sums(m_cv[layer], edge_var, len(prior))
            posterior = half + sums[0]
            for layer_sums in sums[1:]:
                posterior += layer_sums
    if leaves:
        tanh, slot = np.tanh(m_vc), np.argsort(perm)  # graph edge -> slot-major edge
        prods = []
        for _, f, _ in leaves:
            edges = slot[graph.indptr[f] : graph.indptr[f + 1]]
            prod = tanh[edges[0]]
            for e in edges[1:]:
                prod = prod * tanh[e]
            prods.append(prod)
        var = [v for v, _, _ in leaves]
        with np.errstate(divide="ignore"):
            msg = np.arctanh(np.array(prods) * np.array([s for _, _, s in leaves]))
        posterior[var] = half[var] + np.clip(msg, -LLR_CLAMP / 2, LLR_CLAMP / 2)
    return 2 * posterior


def _residual_problem(graph, fac_scale, prior, pairs):
    """The peeled problem written out per factor and per pair: the graph
    of the unpinned variables' edges, each factor's scale times
    (-1)^(its pinned bits), the prior with each pinned bit at
    +-LLR_CLAMP and each pair with one pinned end turned into a constant
    on the other end, and the pairs left (first ends, second ends, scale).
    Then the leaves, each variable with one edge left that is no end of a
    pair left and the only such variable of a factor with two more edges,
    leave the graph, folded into their factor's scale as tanh of half
    their clamped prior; they are returned as (variable, factor, scale
    before the fold)."""
    pinned, bits, _, _ = peel(graph, fac_scale)
    adjs = [graph.indices[graph.indptr[f] : graph.indptr[f + 1]] for f in range(graph.n_fac)]
    kept = [[v for v in a if not pinned[v]] for a in adjs]
    scale = np.array([s * (-1.0) ** int(bits[a].sum()) for s, a in zip(fac_scale, adjs)])
    prior = np.where(pinned, np.where(bits == 1, -LLR_CLAMP, LLR_CLAMP), prior)
    res_pairs, ends = None, set()
    if pairs is not None:
        nc, n1, coupling = pairs
        free = []
        for i in range(nc):
            pair = (i, n1 + i)
            if pinned[i] != pinned[n1 + i]:
                src, dst = pair if pinned[i] else pair[::-1]
                with np.errstate(divide="ignore"):
                    msg = 2.0 * np.arctanh(coupling * (1.0 - 2.0 * bits[src]))
                prior[dst] += np.clip(msg, -LLR_CLAMP, LLR_CLAMP)
            elif not pinned[i]:
                free.append(i)
        free = np.array(free, dtype=np.int64)
        res_pairs, ends = (free, n1 + free, coupling), {*free, *(n1 + free)}
    uses = np.bincount([v for a in kept for v in a], minlength=graph.n_var)
    leaves = []
    for f, a in enumerate(kept):
        lone = [v for v in a if uses[v] == 1 and v not in ends]
        if len(lone) == 1 and len(a) >= 3:
            leaves.append((lone[0], f, scale[f]))
            scale[f] *= np.tanh(np.clip(prior[lone[0]] / 2, -LLR_CLAMP / 2, LLR_CLAMP / 2))
            a.remove(lone[0])
    return pinned, csr(graph.n_var, kept), scale, prior, res_pairs, leaves


@given(seed=st.integers(0, 2**32 - 1), iters=st.integers(1, 8),
       coupling=st.sampled_from(["none", "adjacent", "apart", "hard"]))
def test_sum_product_sets_unit_factor_messages_once_bit_for_bit(seed, iters, coupling):
    # The graph has factors of degree 0-4 in any order, with runs of
    # degree-1 ones; scales are signs (hard factors, which peel) or
    # fractions.  Pinning the peeled bits, absorbing the leaves, setting
    # the residual degree-1 factors' messages once and updating the pairs
    # (i, n1 + i) left by index, adjacent (nc = n1) or apart (nc < n1), at
    # a soft scale or at scale 1 (q = 0), must give the posteriors of the
    # generic loop on the residual problem, bit for bit, and +-LLR_CLAMP on
    # the pinned bits.
    rng = np.random.default_rng(seed)
    n1 = int(rng.integers(4, 12))
    n = n1 if coupling == "none" else n1 + int(rng.integers(n1, 12))
    degrees = []
    for _ in range(int(rng.integers(1, 6))):
        degrees += [1] * int(rng.integers(0, 4)) + list(rng.integers(0, 5, rng.integers(1, 5)))
    adjs = [rng.choice(n, d, replace=False) for d in degrees]
    g = csr(n, adjs)
    scale = np.where(rng.random(g.n_fac) < 0.5, rng.choice([-1.0, 1.0], g.n_fac),
                     rng.uniform(-1.0, 1.0, g.n_fac))
    pairs = {"none": None, "adjacent": (n1, n1, rng.uniform(-1.0, 1.0)),
             "apart": (int(rng.integers(0, n1)), n1, rng.uniform(-1.0, 1.0)),
             "hard": (n1, n1, 1.0)}[coupling]
    prior = rng.normal(0.0, 2.0, n)
    (res,) = _sum_product(g, scale, prior, iters, [(n, 0)], pairs, stop=False)
    assert res.iterations_used == iters
    pinned, residual, res_scale, res_prior, res_pairs, leaves = _residual_problem(
        g, scale, prior, pairs)
    want = _reference_sum_product(residual, res_scale, res_prior, iters, res_pairs, leaves)
    assert np.array_equal(res.posterior, want)
    assert (np.abs(res.posterior[pinned]) == LLR_CLAMP).all()
    # Live edges: the residual ones past the degree-1 block, and both ends
    # of each pair left; no leaf's edge.
    degree = np.diff(residual.indptr)
    pair_ends = 0 if res_pairs is None else 2 * len(res_pairs[0])
    assert (res.pinned, res.live_edges) == (pinned.sum(), degree[degree > 1].sum() + pair_ends)


@given(seed=st.integers(0, 2**32 - 1), n1=st.integers(6, 10))
def test_leaves_are_absorbed_alone_and_beside_two_edges(seed, n1):
    # Soft factors only, so nothing peels.  Variables n1 + 1.. are each on
    # one factor and on no pair left: a leaf on a factor with two more
    # edges is absorbed; two such variables on one factor, one on a factor
    # of degree 2 and a degree-1 end of a pair left (variable 0, paired
    # with n1) are not.  Variables 1-2 and n1 are on several factors.
    rng = np.random.default_rng(seed)
    leaf = n1 + 1
    adjs = [[1, 2, leaf], [leaf + 1, leaf + 2, 1, 2], [leaf + 3, 1], [0, 1, 2],
            [1, 2, n1], [1, n1], [2, n1]]
    order = rng.permutation(len(adjs))
    adjs = [adjs[f] for f in order]
    g = csr(leaf + 4, adjs)
    scale, prior = rng.uniform(-0.9, 0.9, g.n_fac), rng.normal(0.0, 2.0, g.n_var)
    pairs = (1, n1, rng.uniform(-0.9, 0.9))
    (res,) = _sum_product(g, scale, prior, 3, [(g.n_var, 0)], pairs, stop=False)
    _, residual, res_scale, res_prior, res_pairs, leaves = _residual_problem(
        g, scale, prior, pairs)
    assert [v for v, _, _ in leaves] == [leaf]
    # Every edge but the leaf's, and the pair's two ends.
    assert (res.pinned, res.live_edges) == (0, g.n_edges - 1 + 2)
    want = _reference_sum_product(residual, res_scale, res_prior, 3, res_pairs, leaves)
    assert np.array_equal(res.posterior, want)


def _checks_hold(graph, scale, n_checks, posterior):
    """Whether the hard decision of posterior meets the parity target
    (scale < 0) of each of graph's first n_checks factors."""
    bits = (posterior < 0).astype(int)
    return all(bits[graph.indices[graph.indptr[f] : graph.indptr[f + 1]]].sum() % 2
               == (scale[f] < 0) for f in range(n_checks))


@given(seed=st.integers(0, 2**32 - 1), iters=st.integers(1, 8), stop=st.booleans(),
       coupling=st.sampled_from(["soft", "negative", "hard", "zero"]))
def test_pair_leaves_match_the_generic_pair_update_bit_for_bit(seed, iters, stop, coupling):
    # Two links of n1 and n2 variables, pairs (i, n1 + i) for i < nc.  Some
    # first ends sit on no factor, most of those with a prior of +0 or -0
    # (pair leaves, which leave the loop), the others with a nonzero one;
    # some ends with a factor also have a zero prior, some second ends sit
    # on no factor, and unit checks pin some ends, so that two-way pairs,
    # pinned partners and pair leaves mix.  Each link has hard checks
    # (scale +-1) and the graph soft factors after them.  The posteriors,
    # leaf ends included, must be those of the generic loop that runs every
    # pair update, bit for bit, after the iterations the decoder used: all
    # of them without stop, else the first after which every check holds.
    rng = np.random.default_rng(seed)
    n1, n2 = int(rng.integers(6, 14)), int(rng.integers(6, 14))
    n, nc = n1 + n2, int(rng.integers(1, min(n1, n2) + 1))
    bare = np.zeros(n, bool)
    bare[:nc] = rng.random(nc) < 0.5
    bare[n1 : n1 + nc] = ~bare[:nc] & (rng.random(nc) < 0.2)
    prior = rng.normal(0.0, 2.0, n)
    zero = np.zeros(n, bool)
    zero[:nc] = rng.random(nc) < np.where(bare[:nc], 0.8, 0.2)
    prior[zero] = rng.choice([0.0, -0.0], zero.sum())

    def factors(pool, count, max_degree):
        return [rng.choice(pool, int(rng.integers(1, min(max_degree, len(pool)) + 1)),
                           replace=False) for _ in range(count)]

    pool1, pool2 = np.flatnonzero(~bare[:n1]), n1 + np.flatnonzero(~bare[n1:])
    m1, m2 = int(rng.integers(1, 4)), int(rng.integers(1, 5))
    adjs = (factors(pool1, m1, 3) + factors(pool2, m2, 4)
            + factors(np.concatenate([pool1, pool2]), int(rng.integers(2, 9)), 5))
    g = csr(n, adjs)
    scale = np.concatenate([rng.choice([-1.0, 1.0], m1 + m2),
                            rng.uniform(-1.0, 1.0, g.n_fac - m1 - m2)])
    pairs = (nc, n1, {"soft": rng.uniform(0.0, 1.0), "negative": rng.uniform(-1.0, 0.0),
                      "hard": 1.0, "zero": 0.0}[coupling])
    res = _sum_product(g, scale, prior, iters, [(n1, m1), (n2, m2)], pairs, stop=stop)
    used = res[0].iterations_used
    assert res[1].iterations_used == used
    pinned, residual, res_scale, res_prior, res_pairs, leaves = _residual_problem(
        g, scale, prior, pairs)

    def reference(k):
        return _reference_sum_product(residual, res_scale, res_prior, k, res_pairs, leaves)

    want = reference(used)
    assert np.concatenate([r.posterior for r in res]).tobytes() == want.tobytes()
    if stop:
        met = [_checks_hold(g, scale, m1 + m2, reference(k)) for k in range(1, iters + 1)]
        assert used == (met.index(True) + 1 if True in met else iters)
    else:
        assert used == iters
    # Live edges per link: the residual ones outside degree-1 factors, and
    # one for each end of every pair left, pair leaves included.
    degree = np.diff(residual.indptr)
    live = np.bincount(residual.indices[np.repeat(degree > 1, degree)], minlength=n)
    live[np.concatenate(res_pairs[:2])] += 1
    assert [r.live_edges for r in res] == [live[:n1].sum(), live[n1:].sum()]
    assert [r.pinned for r in res] == [pinned[:n1].sum(), pinned[n1:].sum()]


@given(seed=st.integers(0, 2**32 - 1), iters=st.integers(1, 12))
def test_early_stop_is_the_first_iteration_whose_checks_hold(seed, iters):
    # Link 1 has the anchor link's shape: unit checks on some of its first
    # k1 variables, and rows that each hold some of those and one private
    # variable.  Link 2 has checks of degree 2-4; soft factors on both
    # links follow, some of them hosts of leaves.  Every check's target is
    # the parity of one word that the priors lean to, so decodes stop
    # early.  Pairs (i, n1 + i) couple the links; first ends on no factor
    # have a prior of +-0 and are pair leaves.  The decode must stop at the
    # first iteration after which every check holds, with the posteriors
    # of the generic loop after that many iterations, bit for bit.
    rng = np.random.default_rng(seed)
    k1, n2 = int(rng.integers(4, 10)), int(rng.integers(6, 14))
    n1 = k1 + int(rng.integers(1, 5))
    n = n1 + n2
    link1 = ([[v] for v in np.sort(rng.choice(k1, int(rng.integers(0, k1)), replace=False))]
             + [[*np.sort(rng.choice(k1, int(rng.integers(1, 4)), replace=False)), v]
                for v in range(k1, n1)])
    link2 = [n1 + np.sort(rng.choice(n2, int(rng.integers(2, 5)), replace=False))
             for _ in range(int(rng.integers(1, 7)))]
    soft = [np.sort(rng.choice(n, int(rng.integers(3, 6)), replace=False))
            for _ in range(int(rng.integers(0, 5)))]
    g = csr(n, link1 + link2 + soft)
    m1, m2 = len(link1), len(link2)
    word = rng.integers(0, 2, n, dtype=np.uint8)
    scale = np.concatenate([1.0 - 2.0 * g.factor_parity(word)[: m1 + m2],
                            rng.uniform(-0.9, 0.9, len(soft))])
    prior = (1.0 - 2.0 * word) * rng.normal(1.0, 1.5, n)
    pairs = (int(rng.integers(1, min(n1, n2) + 1)), n1, rng.uniform(-0.95, 0.95))
    # (An isolated variable keeps its prior, where the generic loop adds +0.)
    bare = np.flatnonzero(np.bincount(g.indices, minlength=n)[: min(k1, pairs[0])] == 0)
    prior[bare] = rng.choice([0.0, -0.0, 0.5], len(bare))
    res = _sum_product(g, scale, prior, iters, [(n1, m1), (n2, m2)], pairs, stop=True)
    _, residual, res_scale, res_prior, res_pairs, leaves = _residual_problem(
        g, scale, prior, pairs)

    def reference(k):
        return _reference_sum_product(residual, res_scale, res_prior, k, res_pairs, leaves)

    def holds(posterior, facs):
        bits = posterior < 0
        return all(bits[g.indices[g.indptr[f] : g.indptr[f + 1]]].sum() % 2 == (scale[f] < 0)
                   for f in facs)

    met = [_checks_hold(g, scale, m1 + m2, reference(k)) for k in range(1, iters + 1)]
    used = met.index(True) + 1 if True in met else iters
    want = reference(used)
    assert [r.iterations_used for r in res] == [used, used]
    assert [r.syndrome_satisfied for r in res] == [holds(want, range(m1)),
                                                   holds(want, range(m1, m1 + m2))]
    assert np.concatenate([r.posterior for r in res]).tobytes() == want.tobytes()


def test_conflicting_unit_checks_fail_both_decoders():
    # Checks 0 and 1 hold variable 0 alone with syndrome bits 0 and 1: no
    # word meets the syndrome, however strong the prior.
    code = LdpcCode(csr(4, [[0], [0], [1, 2], [2, 3]]))
    syn = np.array([0, 1, 0, 1], dtype=np.uint8)
    prior = np.array([5.0, 5.0, 5.0, -5.0])
    res = sum_product_decode(code, syn, prior, max_iters=10)
    assert not res.syndrome_satisfied and res.iterations_used == 10
    ok = code.syndrome(np.array([1, 0, 0, 1], dtype=np.uint8))
    res1, res2 = joint_sum_product_decode(code, code, syn, ok, q=0.1, max_iters=6,
                                          prior1=prior, prior2=prior)
    assert not res1.syndrome_satisfied and res2.syndrome_satisfied
    assert res1.iterations_used == 6


def test_combined_syndrome_code_structure(nested_code):
    comb = combined_syndrome_code(nested_code)
    n, k, m = nested_code.n, nested_code.ldgm.k, nested_code.ldpc.m
    assert comb.n == n
    assert comb.m == m + n - k
    # A codeword, whose first k bits are its information bits, satisfies
    # the LDPC syndrome padded with the mixed factors' zeros.
    rng = np.random.default_rng(56)
    b = rng.integers(0, 2, k, dtype=np.uint8)
    u = nested_code.ldgm.encode(b)
    np.testing.assert_array_equal(u[:k], b)
    s = combined_syndrome(nested_code, nested_code.ldpc.syndrome(u))
    assert s.shape == (m + n - k,)
    np.testing.assert_array_equal(comb.syndrome(u), s)
    # With the leaves absorbed the graph is on b alone, and each mixed
    # factor's parity is its output bit.
    absorbed = combined_syndrome_code(nested_code, absorb_leaves=True)
    assert (absorbed.n, absorbed.m) == (k, m + n - k)
    np.testing.assert_array_equal(absorbed.syndrome(b), np.concatenate([s[:m], u[k:]]))


def _compound(k: int, checks: list, mixed: list) -> CompoundCode:
    """Compound code whose LDGM copies its k information bits into outputs
    0..k-1 and computes one mixed output per entry of mixed, with LDPC
    checks on the information bits."""
    ldgm = LdgmCode(csr(k, [[i] for i in range(k)] + mixed))
    return CompoundCode(ldgm=ldgm, ldpc=LdpcCode(csr(ldgm.n, checks)))


def _leaf_decoders(cc, syn, prior, iters):
    """Posteriors after iters iterations of the leaf-absorbed decoder and
    of the decoder on all n variables."""
    info_prior, leaf_scale = combined_prior(cc, prior)
    absorbed = sum_product_decode(combined_syndrome_code(cc, absorb_leaves=True), syn,
                                  info_prior, iters, early_stop=False, leaf_scale=leaf_scale)
    full = sum_product_decode(combined_syndrome_code(cc), combined_syndrome(cc, syn), prior,
                              iters, early_stop=False)
    return absorbed, full


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 40))
def test_leaf_absorption_matches_full_graph(seed, n):
    # A mixed output seen only through its prior and its one factor always
    # sends that factor its prior, so absorbing it into the factor's scale
    # changes no message on the information bits, iteration by iteration.
    rng = np.random.default_rng(seed)
    k = int(rng.integers(n // 3, 2 * n // 3 + 1))
    mixed = [rng.choice(k, int(rng.integers(1, min(k, 4) + 1)), replace=False)
             for _ in range(n - k)]
    checks = [rng.choice(k, int(rng.integers(1, min(k, 4) + 1)), replace=False)
              for _ in range(int(rng.integers(1, k + 1)))]
    cc = _compound(k, checks, mixed)
    syn = cc.ldpc.syndrome(cc.ldgm.encode(rng.integers(0, 2, k, dtype=np.uint8)))
    prior = rng.normal(0.0, 1.5, n)
    for iters in range(1, 13):
        absorbed, full = _leaf_decoders(cc, syn, prior, iters)
        np.testing.assert_allclose(absorbed.posterior, full.posterior[:k], atol=1e-9)
        np.testing.assert_array_equal(absorbed.u_hat, full.u_hat[:k])


@given(seed=st.integers(0, 2**32 - 1))
def test_leaf_absorption_exact_on_trees(seed):
    # Tree-shaped factors over the information bits, some of them LDPC
    # checks and the rest mixed outputs with their leaf: the n-variable
    # graph is a tree, so both decoders give the exact marginals.
    rng = np.random.default_rng(seed)
    k = int(rng.integers(3, 10))
    tree = tree_code(rng, k).graph
    adjs = np.split(tree.indices, tree.indptr[1:-1])
    is_check = rng.random(len(adjs)) < 0.5
    is_check[0] = True
    cc = _compound(k, [a for a, c in zip(adjs, is_check) if c],
                   [a for a, c in zip(adjs, is_check) if not c])
    syn = cc.ldpc.syndrome(cc.ldgm.encode(rng.integers(0, 2, k, dtype=np.uint8)))
    prior = rng.normal(0.0, 1.2, cc.n)
    absorbed, full = _leaf_decoders(cc, syn, prior, 40)
    exact = exact_marginals(combined_syndrome_code(cc), combined_syndrome(cc, syn), prior)
    np.testing.assert_allclose(full.posterior, exact, atol=1e-9)
    np.testing.assert_allclose(absorbed.posterior, exact[:k], atol=1e-9)


def test_reconstruct_soft_matches_table():
    params = ChainParams(d1=0.1, p1=0.15, p2=0.15, d2=0.1)
    table = chain_posterior_table(params)
    u1 = np.array([0, 0, 1, 1], dtype=np.uint8)
    u2 = np.array([0, 1, 0, 1], dtype=np.uint8)
    out = reconstruct_soft(u1, u2, params)
    np.testing.assert_allclose(out, [table[0, 0], table[0, 1], table[1, 0], table[1, 1]])
    np.testing.assert_allclose(reconstruct_soft_successive(u1, u2, params), out)


def test_reconstruct_soft_length_mismatch():
    params = ChainParams(d1=0.1, p1=0.15, p2=0.15, d2=0.1)
    with pytest.raises(ValueError):
        reconstruct_soft(np.zeros(3, dtype=np.uint8), np.zeros(4, dtype=np.uint8), params)


@pytest.mark.parametrize("u1, u2, name", [
    ([-1, 0], [0, 0], "u1_hat"),  # would wrap to row 1
    ([2, 0], [0, 0], "u1_hat"),
    ([0, 1], [1, 3], "u2_hat"),
])
def test_reconstruct_soft_rejects_non_binary_bits(u1, u2, name):
    params = ChainParams(d1=0.1, p1=0.15, p2=0.15, d2=0.1)
    with pytest.raises(ValueError, match=f"{name} must hold bits"):
        reconstruct_soft(np.array(u1), np.array(u2), params)
