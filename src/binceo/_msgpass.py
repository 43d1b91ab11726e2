"""Vectorized helpers shared by the quantizer and the decoders.

The loops carry every message, prior, posterior and clamp as half a
natural-log LLR (positive favoring bit 0), so a check update is
atanh(scale * prod tanh(m)); halving a float is exact, so every sign and
comparison is that of the full-LLR loop.  The buckets of one update tile
one contiguous run of edges; tanh, atanh and the clamp are elementwise
and run once over that run, and the products run per bucket
(d, edges, factors, order): factors of equal degree d whose edge slice,
viewed as a (d, n) array, holds slot j of every factor in row j, either
slot-major ("C", rows contiguous: the decoders' layout) or in the graph's
row order ("F": the quantizer's, so that its variable sums add in graph
order).  Each edge's leave-one-out product is its prefix product times
its suffix product along the slots (the standard tanh-rule layout,
Richardson & Urbanke, Modern Coding Theory, 2008), so exact zeros need
no special case.  The factor term that is never left out (syndrome sign,
quantizer channel tanh, coupling 1 - 2q) is one scale per factor,
multiplied into a block as one row broadcast.  The decoders first peel
the hard factors (scale +-1), fold the leaves left into their factors'
scales and lay out only the residual graph of the other variables.
"""

from __future__ import annotations

import numpy as np

from .graphs import SparseBipartiteGraph

LLR_CLAMP = 30.0
HALF_CLAMP = LLR_CLAMP / 2

Bucket = tuple[int, slice, slice, str]  # (degree, edges, factors, order)


def extrinsic_messages(
    total: np.ndarray, edge_var: np.ndarray, m_in: np.ndarray, limit: float = HALF_CLAMP,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Per-edge message total[v] - m_in[e] out of each variable, clamped to
    +-limit; m_in holds the messages that came in along the same edges.
    Written into out when given (a new array by default)."""
    # The indices are in range, so "wrap" never wraps; unlike the default
    # "raise", it fills out without an intermediate buffer.
    out = np.take(total, edge_var, out=out, mode="wrap")
    out -= m_in
    return np.clip(out, -limit, limit, out=out)


def leave_one_out_products(blk: np.ndarray, res: np.ndarray) -> None:
    """Write into res[j] the product of blk's rows other than row j, for a
    (d, n) block whose row j holds slot j of n factors (res is not blk)."""
    d = len(blk)
    # res[j] = prod(blk[:j]) * prod(blk[j + 1:]); res[0] holds the suffix
    # product until it is its own.
    if d > 1:
        res[1] = blk[0]
    for j in range(2, d):
        np.multiply(res[j - 1], blk[j - 1], out=res[j])
    res[0] = blk[d - 1] if d > 1 else 1.0
    for j in range(d - 2, 0, -1):
        res[j] *= res[0]
        res[0] *= blk[j]


def check_messages(
    m_in: np.ndarray,
    fac_scale: np.ndarray,
    buckets: tuple[Bucket, ...],
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Half-LLR parity-check update atanh(scale_f * prod tanh(m)) on the
    edges of buckets, which must tile one contiguous run of edges in order.

    fac_scale[f] is the term of factor f that is never left out: the
    syndrome sign (1 - 2s) for parity checks, or tanh of the channel half
    LLR for quantizer factors.  Given out, the messages are written there
    (its other edges are left alone) and m_in is spent as the tanh buffer,
    so a loop that reuses both allocates no per-edge array.
    """
    t = np.empty_like(m_in) if out is None else m_in
    out = np.empty_like(m_in) if out is None else out
    if not buckets:
        return out
    # tanh, atanh and the clamp are elementwise: one pass each over the run.
    run = slice(buckets[0][1].start, buckets[-1][1].stop)
    np.tanh(m_in[run], out=t[run])
    for d, edges, facs, order in buckets:
        res = out[edges].reshape((d, -1), order=order)  # a view: written in place in out
        leave_one_out_products(t[edges].reshape((d, -1), order=order), res)
        res *= fac_scale[facs]
    msg = out[run]
    # |scale * product| <= 1, and atanh(+-1) = +-inf is clamped to +-HALF_CLAMP.
    with np.errstate(divide="ignore"):
        np.arctanh(msg, out=msg)
    np.clip(msg, -HALF_CLAMP, HALF_CLAMP, out=msg)
    return out


def variable_sums(
    m_in: np.ndarray, edge_var: np.ndarray, n_var: int
) -> np.ndarray:
    """Per-variable sum of incoming check messages."""
    return np.bincount(edge_var, weights=m_in, minlength=n_var)


def slot_major(indptr: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple[Bucket, ...]]:
    """The factors of the CSR rows indptr by ascending degree (stable) and
    their edges in one slot-major block per degree: returns perm (new edge
    -> graph edge), fac_order (new factor -> graph factor) and the blocks'
    buckets, over factors and edges in the new order."""
    degrees = np.diff(indptr)
    fac_order = np.argsort(degrees, kind="stable")
    perm, buckets, fac, edge = [np.zeros(0, np.int64)], [], 0, 0
    for d, count in enumerate(np.bincount(degrees).tolist()):
        if d and count:
            first = indptr[fac_order[fac : fac + count]]
            perm.append((first + np.arange(d)[:, None]).ravel())
            buckets.append((d, slice(edge, edge + d * count), slice(fac, fac + count), "C"))
            edge += d * count
        fac += count
    return np.concatenate(perm), fac_order, tuple(buckets)


def peel(graph: SparseBipartiteGraph, fac_scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(pinned, bits) per variable: what peeling the hard factors
    (|fac_scale| == 1, parity target fac_scale < 0) fixes, bits 0 elsewhere.
    Each round pins the one unresolved variable of every hard factor that
    has exactly one to the target XOR its pinned bits, the lowest factor's
    value where two claim it (Luby et al., IEEE T-IT 2001: sum-product with
    infinite LLRs).  No factor may list a variable twice."""
    hard = np.abs(fac_scale) == 1.0
    degree = np.diff(graph.indptr)
    # Per variable its hard factors; per factor the count, index sum (at
    # count 1, that variable) and target parity of its unresolved variables.
    left = np.where(hard, degree, 0)
    rows = np.flatnonzero(left)
    var = graph.indices[np.repeat(hard, degree)].astype(np.int32)
    var_ptr = np.concatenate(([0], np.cumsum(np.bincount(var, minlength=graph.n_var))))
    index_sum = np.zeros(graph.n_fac, np.int64)
    index_sum[rows] = np.add.reduceat(var, np.cumsum(left[rows]) - left[rows], dtype=np.int64)
    var_fac = np.repeat(rows.astype(np.int32), left[rows])[np.argsort(var)]
    del var
    parity = (fac_scale < 0).astype(np.uint8)
    pinned, bits = np.zeros(graph.n_var, bool), np.zeros(graph.n_var, np.uint8)
    front = np.flatnonzero(hard & (degree == 1))
    while len(front):
        # front ascends, so the first claim of a variable is the lowest factor's.
        v, first = np.unique(index_sum[front], return_index=True)
        b = parity[front[first]]
        pinned[v], bits[v] = True, b
        count = var_ptr[v + 1] - var_ptr[v]
        edges = np.repeat(var_ptr[v] - np.cumsum(count) + count, count) + np.arange(count.sum())
        f = var_fac[edges]
        np.subtract.at(left, f, 1)
        np.subtract.at(index_sum, f, np.repeat(v, count))
        np.bitwise_xor.at(parity, f, np.repeat(b, count))
        front = np.unique(f[left[f] == 1])
    return pinned, bits


def hoist_unit_block(
    buckets: tuple[Bucket, ...], fac_scale: np.ndarray, messages: np.ndarray
) -> tuple[int, tuple[Bucket, ...]]:
    """If the first bucket is of degree 1, write its messages into messages
    and return the edge where it ends and the buckets after it; else 0
    and all buckets.  A degree-1 factor's leave-one-out product is 1, so
    its message depends on its scale alone and a loop can set it once and
    run the kernels on the other edges only."""
    if not buckets or buckets[0][0] != 1:
        return 0, buckets
    check_messages(np.zeros(len(messages)), fac_scale, buckets[:1], out=messages)
    return buckets[0][1].stop, buckets[1:]
