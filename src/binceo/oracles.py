"""Brute-force reference implementations used by tests and acceptance runs.

These are deliberately independent of the message-passing code paths: they
enumerate, they do not propagate.
"""

from __future__ import annotations

import numpy as np

from .binmath import _check_prob

# Enumeration caps: 2^k codewords / 2^n words stay comfortably sub-second.
MAX_BRUTE_FORCE_INFO_BITS = 20
MAX_EXACT_MARGINAL_BITS = 20

# Axis order of the joint pmf table: (X, Y1, Y2, U1, U2).
AXIS_X, AXIS_Y1, AXIS_Y2, AXIS_U1, AXIS_U2 = range(5)


class CapacityError(ValueError):
    """Requested enumeration exceeds the hard size cap."""


def _bsc_kernel(crossover: float) -> np.ndarray:
    """2x2 table k[a, b] = Pr{out = b | in = a} for a BSC."""
    c = float(crossover)
    return np.array([[1.0 - c, c], [c, 1.0 - c]])


def enumerate_joint(p1: float, p2: float, d1: float, d2: float) -> np.ndarray:
    """Exact 32-entry joint pmf of (X, Y1, Y2, U1, U2).

    X is uniform, Y_i = X + Bernoulli(p_i), and U_i is the output of a BSC
    test channel with crossover d_i fed with Y_i.
    """
    for name, v in (("p1", p1), ("p2", p2), ("d1", d1), ("d2", d2)):
        _check_prob(v, name)
    ky1 = _bsc_kernel(p1)
    ky2 = _bsc_kernel(p2)
    ku1 = _bsc_kernel(d1)
    ku2 = _bsc_kernel(d2)
    pmf = np.einsum("a,ab,ac,bd,ce->abcde", np.full(2, 0.5), ky1, ky2, ku1, ku2)
    return pmf


def entropy_bits(pmf: np.ndarray) -> float:
    """Shannon entropy (bits) of a probability table of any shape."""
    p = np.asarray(pmf, dtype=float).ravel()
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log2(nz)))


def marginal(pmf: np.ndarray, keep_axes: tuple[int, ...]) -> np.ndarray:
    """Marginal of a joint table over the axes *not* listed in keep_axes."""
    drop = tuple(ax for ax in range(pmf.ndim) if ax not in keep_axes)
    return pmf.sum(axis=drop)


def marginal_entropy(pmf: np.ndarray, keep_axes: tuple[int, ...]) -> float:
    return entropy_bits(marginal(pmf, keep_axes))


def _dense(graph) -> np.ndarray:
    """Dense 0/1 matrix H[f, v] = 1 iff factor f touches variable v."""
    h = np.zeros((graph.n_fac, graph.n_var), dtype=np.uint8)
    h[np.repeat(np.arange(graph.n_fac), np.diff(graph.indptr)), graph.indices] = 1
    return h


def brute_force_quantize(code, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Exhaustive minimum-Hamming-distance quantization with an LDGM code.

    Returns (info_bits, min_distortion).  Ties are broken toward the
    smallest info word read as an integer with bit j of the index mapped to
    info bit j.
    """
    y = np.asarray(y)
    k = code.k
    n = code.n
    if y.shape != (n,):
        raise ValueError(f"observation length {y.shape} does not match n={n}")
    if k > MAX_BRUTE_FORCE_INFO_BITS:
        raise CapacityError(
            f"k={k} exceeds brute-force cap {MAX_BRUTE_FORCE_INFO_BITS}"
        )
    words = np.arange(2**k, dtype=np.int64)
    info = ((words[:, None] >> np.arange(k)) & 1).astype(np.uint8)
    codewords = (info @ _dense(code.graph).T) % 2
    dists = np.count_nonzero(codewords != y[None, :], axis=1)
    best = int(np.argmin(dists))  # argmin returns the first (smallest) word
    return info[best], dists[best] / n


def exact_marginals(code, syndrome: np.ndarray, prior: np.ndarray) -> np.ndarray:
    """Exact posterior LLRs for syndrome decoding by full enumeration.

    Enumerates all 2^n words, keeps the ones consistent with the syndrome,
    weights them by the prior likelihoods (natural-log LLRs, positive
    favoring bit 0), and returns the exact per-bit posterior LLRs.
    """
    n = code.n
    m = code.m
    syndrome = np.asarray(syndrome)
    prior = np.asarray(prior, dtype=float)
    if syndrome.shape != (m,):
        raise ValueError(f"syndrome length {syndrome.shape} does not match m={m}")
    if prior.shape != (n,):
        raise ValueError(f"prior length {prior.shape} does not match n={n}")
    if n > MAX_EXACT_MARGINAL_BITS:
        raise CapacityError(f"n={n} exceeds enumeration cap {MAX_EXACT_MARGINAL_BITS}")
    words = np.arange(2**n, dtype=np.int64)
    bits = ((words[:, None] >> np.arange(n)) & 1).astype(np.uint8)
    ok = np.all((bits @ _dense(code.graph).T) % 2 == syndrome, axis=1)
    if not np.any(ok):
        raise ValueError("no word is consistent with the syndrome")
    # Unnormalized log-weight with P(bit=0) ∝ 1, P(bit=1) ∝ exp(-LLR).
    logw = -(bits[ok].astype(float) @ prior)
    logw -= logw.max()
    w = np.exp(logw)
    bits_ok = bits[ok]
    w1 = np.array([w[bits_ok[:, j] == 1].sum() for j in range(n)])
    w0 = w.sum() - w1
    with np.errstate(divide="ignore"):
        return np.log(w0) - np.log(w1)
