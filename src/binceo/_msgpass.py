"""Vectorized helpers shared by the quantizer and the decoders.

Messages are natural-log LLRs with positive sign favoring bit 0.  Check
updates run in the tanh half-angle domain.  The leave-one-out product of
each factor is taken per degree bucket (see SparseBipartiteGraph.buckets):
a bucket's edges form an (n_fac_d, d) block, and each edge's product is
its exclusive prefix product times its exclusive suffix product along its
row (the standard tanh-rule layout, Richardson & Urbanke, Modern Coding
Theory, 2008).  Exact zeros (fully uninformative legs) therefore need no
log, exp or division, and a degree-1 factor gets the empty product 1.
"""

from __future__ import annotations

import numpy as np

LLR_CLAMP = 30.0
# Keeps atanh finite; corresponds to |message| ~ 37, above the LLR clamp.
TANH_CLIP = 1.0 - 1e-16


def clamp_llr(values: np.ndarray, limit: float = LLR_CLAMP) -> np.ndarray:
    return np.clip(values, -limit, limit)


def leave_one_out_products(
    t: np.ndarray, buckets: tuple[tuple[int, slice | np.ndarray], ...]
) -> np.ndarray:
    """Per-edge product of t over the other edges of the same factor."""
    out = np.empty_like(t)
    for d, edges in buckets:
        # Column by column: numpy's cumprod along a row this short costs
        # about three times as much.
        blk = t[edges].reshape(-1, d)
        res = np.ones_like(blk)
        for j in range(1, d):  # res[:, j] = prod(blk[:, :j])
            np.multiply(res[:, j - 1], blk[:, j - 1], out=res[:, j])
        suffix = blk[:, d - 1].copy()  # prod(blk[:, j + 1:])
        for j in range(d - 2, -1, -1):
            res[:, j] *= suffix
            suffix *= blk[:, j]
        out[edges] = res.ravel()
    return out


def check_messages(
    m_in: np.ndarray,
    edge_fac: np.ndarray,
    buckets: tuple[tuple[int, slice | np.ndarray], ...],
    factor_scale: np.ndarray | None = None,
) -> np.ndarray:
    """Parity-check message update 2*atanh(scale_f * prod tanh(m/2)).

    factor_scale carries per-factor terms that are never left out: the
    syndrome sign (1 - 2s) for parity checks, or tanh of the channel LLR
    for quantizer factors.
    """
    t = np.tanh(0.5 * m_in)
    prod = leave_one_out_products(t, buckets)
    if factor_scale is not None:
        prod *= factor_scale[edge_fac]
    np.clip(prod, -TANH_CLIP, TANH_CLIP, out=prod)
    return clamp_llr(2.0 * np.arctanh(prod))


def variable_sums(
    m_in: np.ndarray, edge_var: np.ndarray, n_var: int
) -> np.ndarray:
    """Per-variable sum of incoming check messages."""
    return np.bincount(edge_var, weights=m_in, minlength=n_var)
