"""Brute-force references for the tests: exhaustive quantization, exact
marginals by enumeration, and the small hand-built codes they run on.

The references are deliberately independent of the message-passing code
paths: they enumerate, they do not propagate.
"""

from __future__ import annotations

import numpy as np

from binceo.graphs import LdpcCode, SparseBipartiteGraph

# Enumeration caps: 2^k codewords / 2^n words stay comfortably sub-second.
MAX_BRUTE_FORCE_INFO_BITS = 20
MAX_EXACT_MARGINAL_BITS = 20


class CapacityError(ValueError):
    """Requested enumeration exceeds the hard size cap."""


def csr(n_var: int, adjs) -> SparseBipartiteGraph:
    """The graph whose factor f touches the variables adjs[f], in order."""
    indptr = np.cumsum([0] + [len(a) for a in adjs])
    indices = np.array([v for a in adjs for v in a], dtype=np.int64)
    return SparseBipartiteGraph(n_var=n_var, indptr=indptr, indices=indices)


def tree_code(rng, n: int) -> LdpcCode:
    """A random cycle-free syndrome code on n variables: every check joins
    one variable already in the tree with one or two fresh ones."""
    perm = rng.permutation(n)
    adjs, used = [], 1
    while used < n:
        fresh = min(int(rng.integers(1, 3)), n - used)
        adjs.append(np.sort([perm[int(rng.integers(used))], *perm[used : used + fresh]]))
        used += fresh
    return LdpcCode(csr(n, adjs))


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
