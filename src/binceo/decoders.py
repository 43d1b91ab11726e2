"""Receiver side: syndrome-based sum-product decoding, the coupled
joint-sum-product variant, side-information priors, and soft
reconstruction of the remote source.

LLR convention everywhere: natural log, positive favors bit 0, messages
clamped to +-30.  The message-passing loop carries every LLR halved.
Both decoders first peel the bits that the syndromes fix, fold the
leaves left into their factors, and run sum-product only on the other
bits' residual graph, testing the syndromes after every iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# perfbench's tracer wraps check_messages here, so the name stays.
from ._msgpass import (HALF_CLAMP, LLR_CLAMP, Bucket, bounded_check_update,
                       check_messages, extrinsic_messages, hoist_unit_block, peel, row_sums,
                       slot_major, variable_sums)
from .binmath import ChainParams, _check_bits, chain_posterior_table
from .graphs import CompoundCode, LdpcCode, SparseBipartiteGraph


@dataclass
class DecodeResult:
    u_hat: np.ndarray
    syndrome_satisfied: bool
    iterations_used: int
    posterior: np.ndarray
    # Bits peeled; edges on this link's variables updated every iteration,
    # as in sum-product on the union graph: a pair leaf's ends count one
    # each, though the loop computes the leaf end's posterior only once.
    pinned: int
    live_edges: int


def _check_not_nan(prior: np.ndarray, name: str) -> None:
    # The loop clips +-inf, but a NaN passes the clip and spreads.
    if np.isnan(prior).any():
        raise ValueError(f"{name} must not hold NaN")


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
    those are tested.  With early_stop the decoder returns after the first
    iteration whose hard decision satisfies the syndrome; early_stop=False
    always runs max_iters rounds.  Non-convergence is reported through the
    flag, not an error.
    """
    syndrome = np.asarray(syndrome)
    prior = np.asarray(prior, dtype=float)
    leaf_scale = np.zeros(0) if leaf_scale is None else np.asarray(leaf_scale, dtype=float)
    m = code.m - len(leaf_scale)
    if syndrome.shape != (m,):
        raise ValueError(f"syndrome length {syndrome.shape} does not match m={m}")
    _check_bits(syndrome, "syndrome")
    if prior.shape != (code.n,):
        raise ValueError(f"prior length {prior.shape} does not match n={code.n}")
    _check_not_nan(prior, "prior")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    # Also the loop's premise: every factor scale lies in [-1, 1].
    if not (np.abs(leaf_scale) <= 1.0).all():
        raise ValueError("leaf_scale must hold finite values in [-1, 1] only")

    # Check f's parity target as a sign (1 - 2s_f), then the leaf scales.
    fac_scale = np.concatenate([1.0 - 2.0 * syndrome.astype(float), leaf_scale])
    return _sum_product(code.graph, fac_scale, prior, max_iters, [(code.n, m)],
                        stop=early_stop)[0]


# Violated checks (without a leaf) that a failed stop test keeps to re-test.
WITNESSES = 64


def _sum_product(
    graph: SparseBipartiteGraph, fac_scale: np.ndarray, prior: np.ndarray, budget: int,
    links: list[tuple[int, int]], pairs: tuple[int, int, float] | None = None,
    stop: bool = True,
) -> list[DecodeResult]:
    """Sum-product from per-variable prior LLRs on graph, whose factor f
    never leaves out the term fac_scale[f].

    pairs = (nc, n1, scale) adds nc degree-2 checks (i, n1 + i), i < nc,
    of that scale.  links lists (n_var, n_checks) per link: its variables
    and its (hard) checks are the graph's next ones in order.  The hard
    factors (|scale| == 1) are peeled, and the loop runs on the residual
    graph: unpinned variables' edges, each factor's scale times
    (-1)^(its pinned bits); pinned variables hold +-HALF_CLAMP.  A pair
    with one pinned end is a constant in the other end's prior.  A free
    pair whose first end has no residual edge and a prior of +-0 is a
    pair leaf: that end sends +-0 and then exactly +0, so its partner's
    base is its prior + 0 and the pair leaves the loop; the end's
    posterior is the last iteration's pair update, computed once from its
    partner's posterior at that iteration's start.  A leaf is an unpinned
    variable with one residual edge that is no end of a pair left, alone
    as such on a factor with at least two more edges.  It always sends
    that factor tanh of its clamped prior, so that term folds into the
    factor's scale, and its posterior is computed from the factor's other
    tanh values when needed.  The loop runs on the other variables with
    an edge, the two-way pairs' ends first, then the pair leaves'
    partners.  Every iteration updates the two-way pairs from the
    extrinsic beliefs, then all residual factors from the refreshed
    beliefs (without pairs, flooding).  With
    stop, the checks are tested on the hard decision after every
    iteration (else after the last), and the loop ends at the first
    iteration at which every link's checks hold.  Before a full test the
    loop re-tests a few checks the last one found violated and skips the
    full test while any of them still is.
    """
    n_var = graph.n_var
    # The residual graph: each factor's unpinned variables, and its scale
    # times (-1)^(its pinned ones).
    pinned, bits, fac_degree, flip = peel(graph, fac_scale)
    indices = _kept(~pinned[graph.indices], graph.indices)
    scale = fac_scale * np.where(flip, -1.0, 1.0)
    del flip
    # The checks' parity targets, taken before leaves fold into the scales.
    n_checks = sum(m for _, m in links)
    target = scale[:n_checks] < 0
    # The loop runs on half LLRs.
    half = np.where(pinned, HALF_CLAMP * (1.0 - 2.0 * bits), 0.5 * prior)
    degree = np.bincount(indices, minlength=n_var)
    ends = two_way = partners = np.zeros(0, np.int64)
    if pairs is not None:
        nc, n1, coupling = pairs
        first, second = pinned[:nc], pinned[n1 : n1 + nc]
        # A pair with one pinned end sends the other end a constant message.
        i = np.flatnonzero(first != second)
        src, dst = np.where(first[i], i, n1 + i), np.where(first[i], n1 + i, i)
        with np.errstate(divide="ignore"):
            half[dst] += np.clip(np.arctanh(coupling * (1.0 - 2.0 * bits[src])),
                                 -HALF_CLAMP, HALF_CLAMP)
        free = np.flatnonzero(~(first | second))
        ends = np.concatenate([free, n1 + free])
        # A pair leaf's first end has no residual edge and a prior of +-0,
        # so from the second iteration on its extrinsic is +0 and it sends
        # +0: its partner's base is its prior + 0 (the first iteration's
        # +-0 changes no posterior) and the pair leaves the loop.
        leaf = (degree[free] == 0) & (half[free] == 0.0)
        two_way, partners = np.concatenate([free[~leaf], n1 + free[~leaf]]), n1 + free[leaf]
        half[partners] += 0.0
    nf = len(two_way) // 2

    # Each leaf folds into its host's scale and leaves the graph.
    degree[ends] = 0
    lone = degree[indices] == 1
    indptr = np.concatenate(([0], np.cumsum(fac_degree)))
    hosts = (row_sums(degree == 1, indices, indptr) == 1) & (fac_degree >= 3)
    del indptr
    lone &= np.repeat(hosts, fac_degree)
    leaves, hosts = _kept(lone, indices), np.flatnonzero(hosts)
    host_scale = scale[hosts]
    scale[hosts] *= np.tanh(np.clip(half[leaves], -HALF_CLAMP, HALF_CLAMP))
    degree[leaves] = 0
    fac_degree[hosts] -= 1
    indptr = np.concatenate(([0], np.cumsum(fac_degree)))
    indices = _kept(~lone, indices)
    del lone, fac_degree
    # The loop's variables: the two-way pair ends, the pair leaves'
    # partners, then the others with an edge.
    loop_var = np.concatenate([two_way, partners, np.flatnonzero(degree)])
    del degree
    n_loop = len(loop_var)
    loop_id = np.zeros(n_var, np.int32)
    loop_id[loop_var] = np.arange(n_loop, dtype=np.int32)

    # Residual factors by degree, each degree one slot-major block, degree 1 first.
    perm, fac_order, buckets = slot_major(indptr)
    edge_var = loop_id[indices[perm]].astype(np.intp)
    del perm, indptr, indices, loop_id
    scale = scale[fac_order]
    # Slot-major positions of the checks and of the leaves' hosts, and the
    # hosts' edges; a leaf's message is atanh(host scale * the product of
    # the tanh values on them), taken slot by slot.
    position = np.empty(graph.n_fac, np.intp)
    position[fac_order] = np.arange(graph.n_fac)
    checks, hosts = position[:n_checks], position[hosts]
    del position, fac_order
    order = np.argsort(hosts)
    hosts, leaves, host_scale = hosts[order], leaves[order], host_scale[order]
    table = _bucket_table(buckets)
    host_edges, host_ptr = _slot_edges(buckets, hosts, table)
    leaf_prior = half[leaves]
    link = np.repeat(np.arange(len(links)), [m for _, m in links])
    # A witness is a check with edges and no leaf.
    witness_ok = np.ones(graph.n_fac, bool)
    witness_ok[: buckets[0][2].start if buckets else graph.n_fac] = False
    witness_ok[hosts] = False

    def leaf_posterior() -> np.ndarray:
        """The leaves' half-LLR posteriors; m_vc holds the tanh values."""
        msg = np.multiply.reduceat(m_vc[host_edges], host_ptr) * host_scale
        with np.errstate(divide="ignore"):
            np.arctanh(msg, out=msg)
        return leaf_prior + np.clip(msg, -HALF_CLAMP, HALF_CLAMP, out=msg)

    def parity_test(last: bool) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per link whether its checks hold on the hard decision, and the
        edge variables, reduceat offsets and targets of a few witnesses
        that do not.  Before the last iteration a test that finds a
        witness fails without the leaves, and their hosts' checks are
        left untested (their links may then read as holding)."""
        signs = (posterior < 0)[edge_var]
        parity = np.zeros(graph.n_fac, bool)
        for d, edges, facs, _ in buckets:
            np.bitwise_xor.reduce(signs[edges].reshape(d, -1), axis=0, out=parity[facs])
        bad = np.flatnonzero(parity[checks] != target)
        if last or not witness_ok[checks[bad]].any():
            parity[hosts] ^= leaf_posterior() < 0
            bad = np.flatnonzero(parity[checks] != target)
        bad_links = np.bincount(link[bad], minlength=len(links))
        bad = bad[witness_ok[checks[bad]]][:WITNESSES]
        w_edges, w_ptr = _slot_edges(buckets, checks[bad], table)
        return bad_links == 0, (edge_var[w_edges], w_ptr, target[bad])

    m_cv = np.zeros(len(edge_var))
    p, live = hoist_unit_block(buckets, scale, m_cv)
    m_vc = np.empty(len(edge_var))
    # Every input is clipped to +-HALF_CLAMP and every scale lies in
    # [-1, 1], so no message needs a clamp or meets atanh(+-1).
    check_update = bounded_check_update(m_vc, m_cv, scale, live)
    # The edges past the degree-1 block, viewed once.  The posteriors are
    # double-buffered, so that after the loop `before` holds those at the
    # start of the last iteration.
    live_var, live_in, live_out = edge_var[p:], m_cv[p:], m_vc[p:]
    base = half[loop_var]
    posterior, before, sums = base.copy(), np.empty(n_loop), np.zeros(n_loop)
    if nf:
        # The messages into the two-way pairs' first ends, then their second
        # ends; each end's message is the coupling times the tanh of the
        # other end's.  (One multiply over a row-reversed view would make
        # numpy buffer a copy of it.)
        pair_prior = base[: 2 * nf].copy()
        cross, ext = np.zeros(2 * nf), np.empty(2 * nf)
        halves = ((ext[nf:], cross[:nf]), (ext[:nf], cross[nf:]))
    w_var = np.zeros(0, np.intp)
    for it in range(1, budget + 1):
        if nf:
            np.subtract(posterior[: 2 * nf], cross, out=ext)
            np.clip(ext, -HALF_CLAMP, HALF_CLAMP, out=ext)
            np.tanh(ext, out=ext)
            for other, into in halves:
                np.multiply(other, coupling, out=into)
            np.arctanh(cross, out=cross)
            np.add(pair_prior, cross, out=base[: 2 * nf])
            np.add(base[: 2 * nf], sums[: 2 * nf], out=posterior[: 2 * nf])
        # posterior holds base plus the sums of the current factor messages.
        extrinsic_messages(posterior, live_var, live_in, out=live_out)
        check_update()
        sums = variable_sums(m_cv, edge_var, n_loop)
        posterior, before = np.add(base, sums, out=before), posterior
        # Before the last iteration, a witness that still fails spares the
        # full test.
        if it < budget and (not stop or len(w_var) and (
                np.bitwise_xor.reduceat(posterior[w_var] < 0, w_ptr) != w_target).any()):
            continue
        oks, (w_var, w_ptr, w_target) = parity_test(it == budget)
        if oks.all():
            break
    half[loop_var] = posterior
    half[leaves] = leaf_posterior()
    if len(partners):
        # The pair leaves' first ends take the pair update of the last
        # iteration, from their partners' posteriors at its start.
        msg = np.clip(before[2 * nf : 2 * nf + len(partners)], -HALF_CLAMP, HALF_CLAMP)
        np.tanh(msg, out=msg)
        msg *= coupling
        np.arctanh(msg, out=msg)
        # Plus the prior, then the +0 of the end's empty bincount.
        half[partners - n1] = (half[partners - n1] + msg) + 0.0
    del m_cv, m_vc, live_in, live_out, check_update, before
    live_edges = np.zeros(n_var, np.int64)
    live_edges[loop_var] = np.bincount(live_var, minlength=n_loop)
    live_edges[ends] += 1
    bounds = np.cumsum([n for n, _ in links[:-1]])
    return [DecodeResult((post < 0).astype(np.uint8), bool(ok), it, 2.0 * post,
                         int(pins.sum()), int(edges.sum()))
            for ok, post, pins, edges in zip(oks, np.split(half, bounds),
                                             np.split(pinned, bounds),
                                             np.split(live_edges, bounds))]


def _kept(keep: np.ndarray, a: np.ndarray) -> np.ndarray:
    """a[keep], gathered by index (several times faster than a boolean
    mask that is hard to predict).  The result is allocated before the
    index array, so the index array is freed from above it: allocated the
    other way round, the successive workload's peak RSS rose by about
    2 MiB."""
    out = np.empty(np.count_nonzero(keep), a.dtype)
    # In range, the indices never wrap; "wrap" fills out without a buffer.
    return np.take(a, np.flatnonzero(keep), out=out, mode="wrap")


def _bucket_table(buckets: tuple[Bucket, ...]) -> np.ndarray:
    """Per slot-major bucket its first factor, degree, factor count and
    first edge less first factor, as the rows of a (4, len(buckets))
    array: slot j of its factor f is edge f + that offset + j * count."""
    return np.array([(f.start, d, f.stop - f.start, e.start - f.start)
                     for d, e, f, _ in buckets], np.intp).reshape(-1, 4).T


def _slot_edges(
    buckets: tuple[Bucket, ...], facs: np.ndarray, table: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The edges of the slot-major factors facs, factor by factor in slot
    order, and the offset at which each factor's run starts; table is the
    buckets' _bucket_table, built here when not given."""
    first, degree, count, offset = _bucket_table(buckets) if table is None else table
    b = np.searchsorted(first, facs, side="right") - 1
    degree, count = degree[b], count[b]
    ptr = np.cumsum(degree) - degree
    # Run entry i of factor f is its slot i - ptr[f].
    return (np.repeat(facs + offset[b] - count * ptr, degree)
            + np.repeat(count, degree) * np.arange(degree.sum())), ptr


def side_info_prior(u2: np.ndarray, q: float) -> np.ndarray:
    """Per-symbol LLRs for a sequence observed through a BSC(q).

    q is the end-to-end crossover between the two quantized sequences,
    conv(d1, p1, p2, d2) along the chain.  q = 0 clamps to the LLR bound.
    """
    if not 0.0 <= q <= 0.5:
        raise ValueError(f"crossover must be in [0, 0.5], got {q!r}")
    u2 = np.asarray(u2)
    _check_bits(u2, "u2")
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
    max_iters: int = 600,
    prior1: np.ndarray | None = None,
    prior2: np.ndarray | None = None,
    n_coupled: int | None = None,
    early_stop: bool = True,
) -> tuple[DecodeResult, DecodeResult]:
    """Sum-product on the union factor graph of both links.

    The two Tanner graphs are joined by one correlation factor per
    coupled symbol pair (i, i), i < n_coupled, modelling the BSC(q)
    between the quantized sequences.  That factor is a degree-2 parity
    check with scale 1 - 2q: its message is 2*atanh((1 - 2q) tanh(m/2)).
    Every iteration updates the coupling checks first and then, from the
    refreshed beliefs, all link checks at once.  The decoder runs at most
    max_iters iterations.  With early_stop it returns after the first
    iteration whose hard decisions satisfy both syndromes;
    early_stop=False always runs the whole budget.
    """
    if not 0.0 <= q <= 0.5:
        raise ValueError(f"crossover must be in [0, 0.5], got {q!r}")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    prior1 = np.zeros(code1.n) if prior1 is None else np.asarray(prior1, dtype=float)
    prior2 = np.zeros(code2.n) if prior2 is None else np.asarray(prior2, dtype=float)
    if prior1.shape != (code1.n,) or prior2.shape != (code2.n,):
        raise ValueError("prior lengths do not match the codes")
    _check_not_nan(prior1, "prior1")
    _check_not_nan(prior2, "prior2")
    nc = min(code1.n, code2.n) if n_coupled is None else n_coupled
    if not 0 <= nc <= min(code1.n, code2.n):
        raise ValueError(f"n_coupled={nc} must be in [0, {min(code1.n, code2.n)}]")
    s1, s2 = np.asarray(s1), np.asarray(s2)
    if s1.shape != (code1.m,) or s2.shape != (code2.m,):
        raise ValueError("syndrome lengths do not match the codes")
    _check_bits(s1, "s1")
    _check_bits(s2, "s2")

    # Coupling check i is (i, code1.n + i) with scale 1 - 2q.  The link
    # graph holds link 1's checks, then link 2's on variables shifted by
    # code1.n; each carries its syndrome sign 1 - 2s.
    g1, g2 = code1.graph, code2.graph
    links = SparseBipartiteGraph(n_var=code1.n + code2.n,
                                 indptr=np.concatenate([g1.indptr, g1.n_edges + g2.indptr[1:]]),
                                 indices=np.concatenate([g1.indices, code1.n + g2.indices]))
    return tuple(_sum_product(links, 1.0 - 2.0 * np.concatenate([s1, s2]),
                              np.concatenate([prior1, prior2]), max_iters,
                              [(code1.n, code1.m), (code2.n, code2.m)],
                              (nc, code1.n, 1.0 - 2.0 * q), stop=early_stop))


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
    _check_bits(u1_hat, "u1_hat")
    _check_bits(u2_hat, "u2_hat")
    table = chain_posterior_table(params)
    return table[u1_hat.astype(int), u2_hat.astype(int)]


def reconstruct_soft_successive(
    u1_hat: np.ndarray, u2: np.ndarray, params: ChainParams
) -> np.ndarray:
    """Same kernel; u2 is the exactly re-encoded link-2 quantization."""
    return reconstruct_soft(u1_hat, u2, params)
