"""Receiver side: syndrome-based sum-product decoding, the coupled
joint-sum-product variant, side-information priors, and soft
reconstruction of the remote source.

LLR convention everywhere: natural log, positive favors bit 0, messages
clamped to +-30.  The message-passing loop carries every LLR halved.
Both decoders first peel the bits that the syndromes fix and run
sum-product only on the residual graph of the other bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._msgpass import (HALF_CLAMP, LLR_CLAMP, check_messages, extrinsic_messages,
                       hoist_unit_block, peel, slot_major, variable_sums)
from .binmath import ChainParams, chain_posterior_table
from .graphs import CompoundCode, LdpcCode, SparseBipartiteGraph


@dataclass
class DecodeResult:
    u_hat: np.ndarray
    syndrome_satisfied: bool
    iterations_used: int
    posterior: np.ndarray
    # Bits peeled; edges on this link's variables updated every iteration.
    pinned: int
    live_edges: int


def sum_product_decode(
    code: LdpcCode,
    syndrome: np.ndarray,
    prior: np.ndarray,
    max_iters: int = 100,
    early_stop: bool = True,
    leaf_scale: np.ndarray | None = None,
) -> DecodeResult:
    """Flooding sum-product on the Tanner graph with target parities.

    Check i enforces parity equal to syndrome bit i (its message sign is
    multiplied by (-1)^{s_i}).  The code's last len(leaf_scale) factors, if
    any, are those of absorbed leaves (combined_prior) and take leaf_scale
    as their scale; the syndrome covers the checks before them, and only
    those are tested.  With early_stop the decoder returns as soon as the
    hard decision satisfies the syndrome; early_stop=False always runs
    max_iters rounds.  Non-convergence is reported through the flag, not
    an error.
    """
    syndrome = np.asarray(syndrome)
    prior = np.asarray(prior, dtype=float)
    leaf_scale = np.zeros(0) if leaf_scale is None else np.asarray(leaf_scale, dtype=float)
    m = code.m - len(leaf_scale)
    if syndrome.shape != (m,):
        raise ValueError(f"syndrome length {syndrome.shape} does not match m={m}")
    if prior.shape != (code.n,):
        raise ValueError(f"prior length {prior.shape} does not match n={code.n}")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")

    # Check f's parity target as a sign (1 - 2s_f), then the leaf scales.
    fac_scale = np.concatenate([1.0 - 2.0 * syndrome.astype(float), leaf_scale])
    return _sum_product(code.graph, fac_scale, prior, max_iters,
                        1 if early_stop else max_iters, [(code.n, m)])[0]


def _sum_product(
    graph: SparseBipartiteGraph, fac_scale: np.ndarray, prior: np.ndarray, budget: int,
    every: int, links: list[tuple[int, int]], pairs: tuple[int, int, float] | None = None,
) -> list[DecodeResult]:
    """Sum-product from per-variable prior LLRs on graph, whose factor f
    never leaves out the term fac_scale[f].

    pairs = (nc, n1, scale) adds nc degree-2 checks (i, n1 + i), i < nc,
    of that scale.  links lists (n_var, n_checks) per link: its variables
    and its (hard) checks are the graph's next ones in order.  The hard
    factors (|scale| == 1) are peeled, and the loop runs on the residual
    graph: unpinned variables' edges, each factor's scale times
    (-1)^(its pinned bits); pinned variables hold +-HALF_CLAMP.  A pair
    with one pinned end is a constant in the other end's prior.  Every
    iteration updates the other pairs from the extrinsic beliefs, then all
    residual factors from the refreshed beliefs (without pairs, flooding).
    A link's fully pinned checks are tested once; every `every` iterations
    and after the last its other checks are tested on the hard decision,
    and the loop stops once every link passes.
    """
    pinned, bits = peel(graph, fac_scale)
    kept = ~pinned[graph.indices]
    indptr = np.concatenate(([0], np.cumsum(kept)))[graph.indptr]
    indices = graph.indices[kept]
    del kept
    scale = fac_scale * (1.0 - 2.0 * graph.factor_parity(bits))
    # Per link: its residual checks of degree > 0 with their target parity,
    # and whether its fully pinned checks all hold.
    tests, fac, var = [], 0, 0
    for n_var, m in links:
        degree, target = np.diff(indptr[fac : fac + m + 1]), scale[fac : fac + m] < 0
        left = degree > 0
        checks = SparseBipartiteGraph(n_var=n_var,
                                      indptr=np.concatenate(([0], np.cumsum(degree[left]))),
                                      indices=indices[indptr[fac] : indptr[fac + m]] - var)
        tests.append((checks, target[left].astype(np.uint8), not target[~left].any()))
        fac, var = fac + m, var + n_var
    # Residual factors by degree, each degree one slot-major block, degree 1 first.
    perm, fac_order, buckets = slot_major(indptr)
    edge_var = indices[perm]
    del perm, indices, indptr
    scale = scale[fac_order]
    m_cv = np.zeros(len(edge_var))
    p, live = hoist_unit_block(buckets, scale, m_cv)
    m_vc = np.empty(len(edge_var))
    # The loop runs on half LLRs.
    prior = 0.5 * prior
    prior[pinned] = np.where(bits, -HALF_CLAMP, HALF_CLAMP)[pinned]
    coupled = np.zeros(0, np.int64)
    if pairs is not None:
        nc, n1, coupling = pairs
        i = np.arange(nc)
        first, second = pinned[i], pinned[n1 + i]
        # A pair with one pinned end sends the other end a constant message.
        one = first != second
        src, dst = np.where(first, i, n1 + i)[one], np.where(first, n1 + i, i)[one]
        with np.errstate(divide="ignore"):
            prior[dst] += np.clip(np.arctanh(coupling * (1.0 - 2.0 * bits[src])),
                                  -HALF_CLAMP, HALF_CLAMP)
        # The messages into the remaining pairs' first ends, then their
        # second ends, are one slot-major degree-2 block.
        free = i[~(first | second)]
        coupled, nf = np.concatenate([free, n1 + free]), len(free)
        pair_buckets = ((2, slice(0, 2 * nf), slice(0, nf), "C"),)
        pair_scale = np.full(nf, coupling)
        cross, ext = np.zeros(2 * nf), np.empty(2 * nf)
    base = prior if pairs is None else prior.copy()
    sums, posterior = np.zeros(graph.n_var), prior.copy()
    bounds = np.cumsum([n_var for n_var, _ in links[:-1]])
    for it in range(1, budget + 1):
        if pairs is not None:
            np.subtract(posterior[coupled], cross, out=ext)
            np.clip(ext, -HALF_CLAMP, HALF_CLAMP, out=ext)
            check_messages(ext, pair_scale, pair_buckets, out=cross)
            base[coupled] = prior[coupled] + cross
            posterior[coupled] = base[coupled] + sums[coupled]
        # posterior holds base plus the sums of the current factor messages.
        extrinsic_messages(posterior, edge_var[p:], m_cv[p:], out=m_vc[p:])
        check_messages(m_vc, scale, live, out=m_cv)
        sums = variable_sums(m_cv, edge_var, graph.n_var)
        np.add(base, sums, out=posterior)
        if it % every == 0 or it == budget:
            hats = [(post < 0).astype(np.uint8) for post in np.split(posterior, bounds)]
            oks = [ok and np.array_equal(checks.factor_parity(hat), target)
                   for (checks, target, ok), hat in zip(tests, hats)]
            if all(oks):
                break
    del m_cv, m_vc
    live_edges = np.bincount(edge_var[p:], minlength=graph.n_var)
    live_edges[coupled] += 1
    posts = np.split(2.0 * posterior, bounds)
    return [DecodeResult(hat, ok, it, post, int(pins.sum()), int(edges.sum()))
            for hat, ok, post, pins, edges in zip(hats, oks, posts, np.split(pinned, bounds),
                                                  np.split(live_edges, bounds))]


def side_info_prior(u2: np.ndarray, q: float) -> np.ndarray:
    """Per-symbol LLRs for a sequence observed through a BSC(q).

    q is the end-to-end crossover between the two quantized sequences,
    conv(d1, p1, p2, d2) along the chain.  q = 0 clamps to the LLR bound.
    """
    if not 0.0 <= q <= 0.5:
        raise ValueError(f"crossover must be in [0, 0.5], got {q!r}")
    u2 = np.asarray(u2)
    if q == 0.0:
        magnitude = LLR_CLAMP
    else:
        magnitude = min(np.log((1.0 - q) / q), LLR_CLAMP)
    return (1.0 - 2.0 * u2.astype(float)) * magnitude


def joint_sum_product_decode(
    code1: LdpcCode,
    code2: LdpcCode,
    s1: np.ndarray,
    s2: np.ndarray,
    q: float,
    local_iters: int = 40,
    global_iters: int = 15,
    prior1: np.ndarray | None = None,
    prior2: np.ndarray | None = None,
    n_coupled: int | None = None,
) -> tuple[DecodeResult, DecodeResult]:
    """Sum-product on the union factor graph of both links.

    The two Tanner graphs are joined by one correlation factor per
    coupled symbol pair (i, i), i < n_coupled, modelling the BSC(q)
    between the quantized sequences.  That factor is a degree-2 parity
    check with scale 1 - 2q: its message is 2*atanh((1 - 2q) tanh(m/2)).
    Every iteration updates the coupling checks first and then, from the
    refreshed beliefs, all link checks at once.  The decoder runs a total
    budget of local_iters * global_iters iterations; the hard decisions
    are tested against both syndromes every local_iters iterations and
    the decoder stops at the first joint success.
    """
    if not 0.0 <= q <= 0.5:
        raise ValueError(f"crossover must be in [0, 0.5], got {q!r}")
    if local_iters < 1 or global_iters < 1:
        raise ValueError("local_iters and global_iters must be >= 1")
    prior1 = np.zeros(code1.n) if prior1 is None else np.asarray(prior1, dtype=float)
    prior2 = np.zeros(code2.n) if prior2 is None else np.asarray(prior2, dtype=float)
    if prior1.shape != (code1.n,) or prior2.shape != (code2.n,):
        raise ValueError("prior lengths do not match the codes")
    nc = min(code1.n, code2.n) if n_coupled is None else n_coupled
    if not 0 <= nc <= min(code1.n, code2.n):
        raise ValueError(f"n_coupled={nc} must be in [0, {min(code1.n, code2.n)}]")
    s1, s2 = np.asarray(s1), np.asarray(s2)
    if s1.shape != (code1.m,) or s2.shape != (code2.m,):
        raise ValueError("syndrome lengths do not match the codes")

    # Coupling check i is (i, code1.n + i) with scale 1 - 2q.  The link
    # graph holds link 1's checks, then link 2's on variables shifted by
    # code1.n; each carries its syndrome sign 1 - 2s.
    g1, g2 = code1.graph, code2.graph
    links = SparseBipartiteGraph(n_var=code1.n + code2.n,
                                 indptr=np.concatenate([g1.indptr, g1.n_edges + g2.indptr[1:]]),
                                 indices=np.concatenate([g1.indices, code1.n + g2.indices]))
    return tuple(_sum_product(links, 1.0 - 2.0 * np.concatenate([s1, s2]),
                              np.concatenate([prior1, prior2]), local_iters * global_iters,
                              local_iters, [(code1.n, code1.m), (code2.n, code2.m)],
                              (nc, code1.n, 1.0 - 2.0 * q)))


def combined_syndrome_code(cc: CompoundCode, absorb_leaves: bool = False) -> LdpcCode:
    """Decoder-side graph exposing the quantizer structure to the decoder.

    Variables are the n codeword bits, the first k being the (systematic)
    information bits.  Factors are the LDPC checks followed by one parity
    factor per mixed output j >= k on j's information bits and, last, j;
    these n - k factors have syndrome 0.  absorb_leaves drops the mixed
    outputs, leaving k variables (the LDPC checks must lie on them): to the
    successive decoder each is a leaf, and its factor takes its prior as
    scale (combined_prior).
    """
    n, k = cc.n, cc.ldgm.k
    ldpc, ldgm = cc.ldpc.graph, cc.ldgm.graph
    if not (np.array_equal(ldgm.indptr[: k + 1], np.arange(k + 1))
            and np.array_equal(ldgm.indices[:k], np.arange(k))):
        raise ValueError("the LDGM's first k outputs must copy its information bits")
    indptr, indices = ldgm.indptr[k:] - k, ldgm.indices[k:]
    if not absorb_leaves:
        indices = np.insert(indices, indptr[1:], np.arange(k, n))
        indptr = indptr + np.arange(n - k + 1)
    return LdpcCode(SparseBipartiteGraph(
        n_var=k if absorb_leaves else n,
        indptr=np.concatenate([ldpc.indptr, indptr[1:] + ldpc.n_edges]),
        indices=np.concatenate([ldpc.indices, indices])))


def combined_syndrome(cc: CompoundCode, s: np.ndarray) -> np.ndarray:
    """The LDPC syndrome padded with the mixed factors' n - k zeros."""
    return np.concatenate([np.asarray(s, dtype=np.uint8), np.zeros(cc.n - cc.ldgm.k, np.uint8)])


def combined_prior(cc: CompoundCode, u_prior: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Codeword-bit LLRs split for absorbed leaves: the information bits'
    LLRs, and each mixed output's tanh(clamped LLR / 2), the message a
    leaf always sends, as its factor's scale."""
    u_prior = np.asarray(u_prior, dtype=float)
    leaves = np.clip(u_prior[cc.ldgm.k :], -LLR_CLAMP, LLR_CLAMP)
    return u_prior[: cc.ldgm.k], np.tanh(0.5 * leaves)


def reconstruct_soft(
    u1_hat: np.ndarray, u2_hat: np.ndarray, params: ChainParams
) -> np.ndarray:
    """Symbol-wise Pr{X=1 | u1, u2} from the chain posteriors."""
    u1_hat = np.asarray(u1_hat)
    u2_hat = np.asarray(u2_hat)
    if u1_hat.shape != u2_hat.shape:
        raise ValueError(
            f"length mismatch: {u1_hat.shape} vs {u2_hat.shape}"
        )
    table = chain_posterior_table(params)
    return table[u1_hat.astype(int), u2_hat.astype(int)]


def reconstruct_soft_successive(
    u1_hat: np.ndarray, u2: np.ndarray, params: ChainParams
) -> np.ndarray:
    """Same kernel; u2 is the exactly re-encoded link-2 quantization."""
    return reconstruct_soft(u1_hat, u2, params)
