"""Receiver side: syndrome-based sum-product decoding, the coupled
joint-sum-product variant, side-information priors, and soft
reconstruction of the remote source.

LLR convention everywhere: natural log, positive favors bit 0, messages
clamped to +-30.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._msgpass import LLR_CLAMP, check_messages, extrinsic_messages, variable_sums
from .binmath import ChainParams, chain_posterior_table
from .graphs import CompoundCode, LdpcCode, SparseBipartiteGraph


@dataclass
class DecodeResult:
    u_hat: np.ndarray
    syndrome_satisfied: bool
    iterations_used: int
    posterior: np.ndarray


def sum_product_decode(
    code: LdpcCode,
    syndrome: np.ndarray,
    prior: np.ndarray,
    max_iters: int = 100,
    early_stop: bool = True,
) -> DecodeResult:
    """Flooding sum-product on the Tanner graph with target parities.

    Check i enforces parity equal to syndrome bit i (its message sign is
    multiplied by (-1)^{s_i}).  With early_stop the decoder returns as
    soon as the hard decision satisfies the full syndrome; pass
    early_stop=False to always run max_iters rounds (e.g. when the fully
    converged posteriors themselves are wanted).  Non-convergence is
    reported through the flag, not an error.
    """
    syndrome = np.asarray(syndrome)
    prior = np.asarray(prior, dtype=float)
    if syndrome.shape != (code.m,):
        raise ValueError(f"syndrome length {syndrome.shape} does not match m={code.m}")
    if prior.shape != (code.n,):
        raise ValueError(f"prior length {prior.shape} does not match n={code.n}")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")

    graph = code.graph
    edge_var = graph.indices
    # Check f's parity target as a sign (1 - 2s_f), one per edge.
    edge_sign = (1.0 - 2.0 * syndrome.astype(float))[graph.edge_fac]
    m_cv = np.zeros(graph.n_edges)
    posterior = prior.copy()
    u_hat = (posterior < 0).astype(np.uint8)
    iterations = 0
    for it in range(max_iters):
        # posterior holds prior plus the sums of the current check messages.
        m_vc = extrinsic_messages(posterior, edge_var, m_cv)
        m_cv = check_messages(m_vc, edge_sign, graph.buckets)
        np.add(prior, variable_sums(m_cv, edge_var, code.n), out=posterior)
        u_hat = (posterior < 0).astype(np.uint8)
        iterations = it + 1
        if early_stop and np.array_equal(code.syndrome(u_hat), syndrome):
            return DecodeResult(u_hat, True, iterations, posterior)
    satisfied = bool(np.array_equal(code.syndrome(u_hat), syndrome))
    return DecodeResult(u_hat, satisfied, iterations, posterior)


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


def _cross_transfer(extrinsic: np.ndarray, q: float, out: np.ndarray) -> None:
    """Soften beliefs through the pairwise BSC(q) correlation channel,
    writing 2*atanh(tanh(extrinsic/2) * (1 - 2q)), clamped, into out."""
    np.multiply(extrinsic, 0.5, out=out)
    np.tanh(out, out=out)
    out *= 1.0 - 2.0 * q
    np.arctanh(out, out=out)
    out *= 2.0
    np.clip(out, -LLR_CLAMP, LLR_CLAMP, out=out)


def _belief(
    prior: np.ndarray, cross: np.ndarray, cv_sums: np.ndarray, out: np.ndarray
) -> None:
    """Per-variable total LLR (prior + cross) + cv_sums, written into out."""
    np.add(prior, cross, out=out)
    out += cv_sums


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
    """Flooding sum-product on the union factor graph of both links.

    The two Tanner graphs are joined by one correlation factor per
    coupled symbol pair, modelling the BSC(q) between the quantized
    sequences; its messages are refreshed every iteration from the other
    side's extrinsic belief.  Message state persists across the whole run
    (a total budget of local_iters * global_iters flooding iterations);
    the hard decisions are tested against both syndromes every
    local_iters iterations and the decoder stops at the first joint
    success.  iterations_used reports flooding iterations.
    """
    if not 0.0 <= q <= 0.5:
        raise ValueError(f"crossover must be in [0, 0.5], got {q!r}")
    prior1 = np.zeros(code1.n) if prior1 is None else np.asarray(prior1, dtype=float)
    prior2 = np.zeros(code2.n) if prior2 is None else np.asarray(prior2, dtype=float)
    if prior1.shape != (code1.n,) or prior2.shape != (code2.n,):
        raise ValueError("prior lengths do not match the codes")
    nc = min(code1.n, code2.n) if n_coupled is None else n_coupled
    if nc > min(code1.n, code2.n):
        raise ValueError(f"n_coupled={nc} exceeds a code's block length")
    s1 = np.asarray(s1)
    s2 = np.asarray(s2)
    if s1.shape != (code1.m,) or s2.shape != (code2.m,):
        raise ValueError("syndrome lengths do not match the codes")

    g1, g2 = code1.graph, code2.graph
    ev1, ev2 = g1.indices, g2.indices
    edge_sign1 = (1.0 - 2.0 * s1.astype(float))[g1.edge_fac]
    edge_sign2 = (1.0 - 2.0 * s2.astype(float))[g2.edge_fac]
    m_cv1 = np.zeros(g1.n_edges)
    m_cv2 = np.zeros(g2.n_edges)
    # Check-message sums per variable, refreshed once per iteration.
    cv_sums1 = np.zeros(code1.n)
    cv_sums2 = np.zeros(code2.n)
    # Correlation-factor messages into each decoder; zero past nc.
    cross1 = np.zeros(code1.n)
    cross2 = np.zeros(code2.n)
    # Per-variable work buffers, rewritten in place every iteration.
    tot1 = np.empty(code1.n)
    tot2 = np.empty(code2.n)
    extr1 = np.empty(nc)
    extr2 = np.empty(nc)
    total = local_iters * global_iters
    post1 = prior1.copy()
    post2 = prior2.copy()
    used = 0
    satisfied = False
    for it in range(total):
        _belief(prior1, cross1, cv_sums1, out=tot1)
        _belief(prior2, cross2, cv_sums2, out=tot2)
        np.subtract(tot1[:nc], cross1[:nc], out=extr1)
        np.subtract(tot2[:nc], cross2[:nc], out=extr2)
        _cross_transfer(extr2, q, out=cross1[:nc])
        _cross_transfer(extr1, q, out=cross2[:nc])
        _belief(prior1, cross1, cv_sums1, out=tot1)
        _belief(prior2, cross2, cv_sums2, out=tot2)
        m_vc1 = extrinsic_messages(tot1, ev1, m_cv1)
        m_vc2 = extrinsic_messages(tot2, ev2, m_cv2)
        m_cv1 = check_messages(m_vc1, edge_sign1, g1.buckets)
        m_cv2 = check_messages(m_vc2, edge_sign2, g2.buckets)
        cv_sums1 = variable_sums(m_cv1, ev1, code1.n)
        cv_sums2 = variable_sums(m_cv2, ev2, code2.n)
        used = it + 1
        if used % local_iters == 0 or used == total:
            post1 = prior1 + cross1 + cv_sums1
            post2 = prior2 + cross2 + cv_sums2
            hat1 = (post1 < 0).astype(np.uint8)
            hat2 = (post2 < 0).astype(np.uint8)
            ok1 = bool(np.array_equal(code1.syndrome(hat1), s1))
            ok2 = bool(np.array_equal(code2.syndrome(hat2), s2))
            if ok1 and ok2:
                satisfied = True
                break
    hat1 = (post1 < 0).astype(np.uint8)
    hat2 = (post2 < 0).astype(np.uint8)
    ok1 = satisfied or bool(np.array_equal(code1.syndrome(hat1), s1))
    ok2 = satisfied or bool(np.array_equal(code2.syndrome(hat2), s2))
    return (
        DecodeResult(hat1, ok1, used, post1),
        DecodeResult(hat2, ok2, used, post2),
    )


def combined_syndrome_code(cc: CompoundCode) -> LdpcCode:
    """Decoder-side graph exposing the quantizer structure to the decoder.

    Variables are the n codeword bits followed by the k information bits.
    Checks are the LDPC checks (unchanged) followed by one parity factor
    per codeword bit tying it to its generating information bits; those
    extra factors carry syndrome 0 by construction.
    """
    n = cc.n
    ldpc, ldgm = cc.ldpc.graph, cc.ldgm.graph
    # Factor i of the LDGM part is (i, its information bits shifted by n);
    # own[e] marks the edges that carry the codeword bit.
    indptr = ldgm.indptr + np.arange(n + 1)
    own = np.zeros(indptr[-1], dtype=bool)
    own[indptr[:-1]] = True
    ldgm_indices = np.empty(indptr[-1], dtype=np.int64)
    ldgm_indices[own] = np.arange(n)
    ldgm_indices[~own] = ldgm.indices + n
    graph = SparseBipartiteGraph(
        n_var=n + ldgm.n_var,
        indptr=np.concatenate([ldpc.indptr, indptr[1:] + ldpc.n_edges]),
        indices=np.concatenate([ldpc.indices, ldgm_indices]),
    )
    return LdpcCode(graph=graph)


def combined_syndrome(cc: CompoundCode, s: np.ndarray) -> np.ndarray:
    return np.concatenate([np.asarray(s, dtype=np.uint8), np.zeros(cc.n, dtype=np.uint8)])


def combined_prior(cc: CompoundCode, u_prior: np.ndarray) -> np.ndarray:
    return np.concatenate([np.asarray(u_prior, dtype=float), np.zeros(cc.ldgm.k)])


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
