"""Vectorized helpers shared by the quantizer and the decoders.

Messages are natural-log LLRs with positive sign favoring bit 0.  Check
updates run in the tanh half-angle domain.  The leave-one-out product of
each factor is taken per bucket (SparseBipartiteGraph.buckets), a run of
factors of equal degree d whose edges, one slice, form an (n_run, d)
block; each edge's product is its exclusive prefix product times its
exclusive suffix product along its row (the standard tanh-rule layout,
Richardson & Urbanke, Modern Coding Theory, 2008).  Exact zeros (fully
uninformative legs) therefore need no log, exp or division, and a degree-1
factor gets the empty product 1.

The factor terms that are never left out (syndrome signs, quantizer
channel tanh values) arrive as one scale per edge, gathered by the caller
once per decode or quantize call, so an update gathers nothing per factor.
"""

from __future__ import annotations

import numpy as np

from .graphs import SparseBipartiteGraph

LLR_CLAMP = 30.0
# Keeps atanh finite; corresponds to |message| ~ 37, above the LLR clamp.
TANH_CLIP = 1.0 - 1e-16


def extrinsic_messages(
    total: np.ndarray, edge_var: np.ndarray, m_in: np.ndarray, limit: float = LLR_CLAMP,
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


def leave_one_out_products(
    t: np.ndarray,
    buckets: tuple[tuple[int, slice], ...],
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Per-edge product of t over the other edges of the same factor,
    written into out (a new array by default; never t itself)."""
    out = np.empty_like(t) if out is None else out
    for d, edges in buckets:
        blk = t[edges].reshape(-1, d)
        res = out[edges].reshape(-1, d)  # a view: written in place in out
        # Column by column: numpy's cumprod along a row this short costs
        # about three times as much.
        res[:, 0] = 1.0
        for j in range(1, d):  # res[:, j] = prod(blk[:, :j])
            np.multiply(res[:, j - 1], blk[:, j - 1], out=res[:, j])
        suffix = blk[:, d - 1].copy()  # prod(blk[:, j + 1:])
        for j in range(d - 2, -1, -1):
            res[:, j] *= suffix
            suffix *= blk[:, j]
    return out


def check_messages(
    m_in: np.ndarray,
    edge_scale: np.ndarray,
    buckets: tuple[tuple[int, slice], ...],
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Parity-check message update 2*atanh(scale_e * prod tanh(m/2)).

    edge_scale[e] is the factor term of edge e's factor that is never left
    out: the syndrome sign (1 - 2s) for parity checks, or tanh of the
    channel LLR for quantizer factors.  Given out, the messages are
    written there and m_in is spent as the tanh buffer, so a decoder loop
    that reuses both allocates no per-edge array.
    """
    t = np.multiply(m_in, 0.5, out=None if out is None else m_in)
    np.tanh(t, out=t)
    prod = leave_one_out_products(t, buckets, out)
    prod *= edge_scale
    np.clip(prod, -TANH_CLIP, TANH_CLIP, out=prod)
    np.arctanh(prod, out=prod)
    prod *= 2.0
    return np.clip(prod, -LLR_CLAMP, LLR_CLAMP, out=prod)


def variable_sums(
    m_in: np.ndarray, edge_var: np.ndarray, n_var: int
) -> np.ndarray:
    """Per-variable sum of incoming check messages."""
    return np.bincount(edge_var, weights=m_in, minlength=n_var)


def hoist_unit_factors(
    graph: SparseBipartiteGraph, edge_scale: np.ndarray, messages: np.ndarray
) -> tuple[int, tuple]:
    """Write the messages of graph's p leading degree-1 factors (one edge
    each) into messages[:p]; return p and graph.buckets over the edges
    after them, renumbered from 0.  A degree-1 factor's leave-one-out
    product is 1, so its message depends on its scale alone and a loop can
    set it once and run the kernels on the other edges only."""
    not_unit = np.flatnonzero(np.diff(graph.indptr) != 1)
    p = int(not_unit[0]) if len(not_unit) else graph.n_fac
    check_messages(np.zeros(p), edge_scale[:p], ((1, slice(0, p)),), out=messages[:p])
    # The prefix is the first bucket, if any; every other one starts after it.
    return p, tuple((d, slice(e.start - p, e.stop - p))
                    for d, e in graph.buckets if e.start >= p)
