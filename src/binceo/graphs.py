"""Sparse bipartite graph construction for LDGM quantizers and LDPC
syndrome formers, plus the compound pairing used by both coding schemes.

Graphs are stored as factor-major CSR arrays and sampled by
permutation-based socket matching with a seeded generator; duplicate
edges within a factor are repaired by socket swaps.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._msgpass import Bucket, row_runs
from .binmath import binary_entropy

DUPLICATE_RETRY_CAP = 100
FRACTION_TOL = 1e-9


class GraphConstructionError(ValueError):
    """Degree budget inconsistent or duplicate-edge repair failed."""


@dataclass(frozen=True)
class DegreeDistribution:
    """Node-perspective factor degree distribution {degree: fraction}.

    The variable side is always filled with as-uniform-as-possible degrees
    matching the factor side's edge budget.
    """

    fac: dict[int, float]

    def __post_init__(self) -> None:
        if not self.fac:
            raise GraphConstructionError("degree distribution is empty")
        for d, frac in self.fac.items():
            # A bool is an Integral, but True is no degree.
            if isinstance(d, bool) or not isinstance(d, numbers.Integral) or d < 1:
                raise GraphConstructionError(f"factor degree {d!r} is not an integer >= 1")
            if not (isinstance(frac, numbers.Real) and math.isfinite(frac) and frac >= 0):
                raise GraphConstructionError(
                    f"degree {d} has fraction {frac!r}, expected a finite number >= 0")
        total = sum(self.fac.values())
        if abs(total - 1.0) > FRACTION_TOL:
            raise GraphConstructionError(f"fractions sum to {total}, expected 1")


def _apportion(dist: dict[int, float], count: int) -> np.ndarray:
    """Per-node degrees realizing the fractions by largest remainder."""
    degs = sorted(dist)
    exact = np.array([dist[d] * count for d in degs])
    base = np.floor(exact).astype(int)
    short = count - base.sum()
    order = np.argsort(-(exact - base), kind="stable")
    base[order[:short]] += 1
    return np.repeat(degs, base)


def _balanced(total_edges: int, count: int) -> np.ndarray:
    base = total_edges // count
    degrees = np.full(count, base, dtype=int)
    degrees[: total_edges - base * count] += 1
    if base == 0:
        raise GraphConstructionError("fewer edges than nodes on the balanced side")
    return degrees


@dataclass(frozen=True, eq=False)
class SparseBipartiteGraph:
    """CSR adjacency: factor f touches variables indices[indptr[f]:indptr[f + 1]].

    Edges are numbered in that order.
    """

    n_var: int
    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self) -> None:
        indptr = _index_array(self.indptr, "indptr")
        indices = _index_array(self.indices, "indices")
        if (not len(indptr) or indptr[0] != 0 or indptr[-1] != len(indices)
                or (indptr[1:] < indptr[:-1]).any()):
            raise GraphConstructionError("indptr must rise from 0 to len(indices)")
        # min and max allocate nothing per edge.
        if len(indices) and (indices.min() < 0 or indices.max() >= self.n_var):
            raise GraphConstructionError(f"variable index outside [0, {self.n_var})")
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)

    @property
    def n_fac(self) -> int:
        return len(self.indptr) - 1

    @property
    def n_edges(self) -> int:
        return len(self.indices)

    @cached_property
    def runs(self) -> tuple[Bucket, ...]:
        """row_runs(indptr), found once per graph."""
        return row_runs(self.indptr)

    def factor_parity(self, bits: np.ndarray) -> np.ndarray:
        """Mod-2 sum of bits over each factor's neighborhood."""
        bits = np.asarray(bits)
        if bits.shape != (self.n_var,):
            raise ValueError(f"bit length {bits.shape} does not match n_var={self.n_var}")
        # Column by column over each run of equal-degree rows, as
        # _msgpass.row_sums sums; a row without edges reads 0.
        edge_bits = bits.astype(np.uint8, copy=False)[self.indices]
        parity = np.zeros(self.n_fac, np.uint8)
        for d, edges, facs, _ in self.runs:
            col = edge_bits[edges].reshape(-1, d).T
            if d == 1:
                parity[facs] = col[0]
                continue
            out = parity[facs]
            np.bitwise_xor(col[0], col[1], out=out)
            for row in col[2:]:
                out ^= row
        return parity & 1


def _index_array(values, name: str) -> np.ndarray:
    """values as a 1-D int64 array; GraphConstructionError unless they are
    1-D and integers (integral floats and bools count)."""
    a = np.asarray(values)
    if a.ndim != 1:
        raise GraphConstructionError(f"{name} must be 1-D, got shape {a.shape}")
    if a.dtype.kind in "iu":
        return a.astype(np.int64, copy=False)
    with np.errstate(invalid="ignore"):
        out = a.astype(np.int64) if a.dtype.kind in "bf" else None
    if out is None or not np.array_equal(out, a):
        raise GraphConstructionError(f"{name} must hold integers, got {a.dtype} values")
    return out


def _degrees(
    dist: DegreeDistribution, n_var: int, n_fac: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-node (variable, factor) degrees that sample_graph realizes."""
    if n_var < 1 or n_fac < 1:
        raise GraphConstructionError("n_var and n_fac must be positive")
    fac_degs = _apportion(dist.fac, n_fac)
    var_degs = _balanced(int(fac_degs.sum()), n_var)
    if fac_degs.max() > n_var:
        raise GraphConstructionError("a factor degree exceeds the variable count")
    return var_degs, fac_degs


def sample_graph(
    dist: DegreeDistribution, n_var: int, n_fac: int, seed: int
) -> SparseBipartiteGraph:
    """Sample a simple bipartite graph realizing the degree distribution.

    Deterministic for a fixed (dist, n_var, n_fac, seed).
    """
    var_degs, fac_degs = _degrees(dist, n_var, n_fac)
    rng = np.random.default_rng(seed)
    sockets = rng.permutation(np.repeat(np.arange(n_var), var_degs))
    ptr = np.concatenate([[0], np.cumsum(fac_degs)])
    # Sorting the keys factor * n_var + variable, in place, puts each
    # factor's variables in increasing order within its edges; a repeated
    # key is a duplicate edge.
    base = np.repeat(np.arange(0, n_fac * n_var, n_var), fac_degs)
    adj_sorted = base + sockets
    adj_sorted.sort()
    dup_facs = np.unique(adj_sorted[1:][adj_sorted[1:] == adj_sorted[:-1]] // n_var)
    adj_sorted -= base
    del base

    # Duplicate repair: swap an offending socket with a random socket of
    # another factor, accepting only swaps that create no new duplicates.
    # A factor without duplicates never gains one, so only the factors
    # found above are visited, in the order a full scan would reach them;
    # they and their swap partners are the factors to sort again.
    touched = set(dup_facs.tolist())
    for i in dup_facs:
        adj = sockets[ptr[i] : ptr[i + 1]]
        tries = 0
        while len(np.unique(adj)) != len(adj):
            if tries >= DUPLICATE_RETRY_CAP:
                raise GraphConstructionError(
                    f"duplicate repair exhausted {DUPLICATE_RETRY_CAP} tries at factor {i}"
                )
            tries += 1
            vals, counts = np.unique(adj, return_counts=True)
            dup_val = vals[counts > 1][0]
            pos = int(np.flatnonzero(adj == dup_val)[0])
            j = int(rng.integers(n_fac))
            if j == i or fac_degs[j] == 0:
                continue
            q = int(rng.integers(fac_degs[j]))
            other = sockets[ptr[j] : ptr[j + 1]]
            if other[q] == dup_val or other[q] in adj or dup_val in np.delete(other, q):
                continue
            adj[pos], other[q] = other[q], adj[pos]
            touched.add(j)
    for f in touched:
        adj_sorted[ptr[f] : ptr[f + 1]] = np.sort(sockets[ptr[f] : ptr[f + 1]])
    return SparseBipartiteGraph(n_var=n_var, indptr=ptr, indices=adj_sorted)


@dataclass(frozen=True)
class LdgmCode:
    """Generator-side code: n_fac output bits, n_var information bits."""

    graph: SparseBipartiteGraph

    @property
    def k(self) -> int:
        return self.graph.n_var

    @property
    def n(self) -> int:
        return self.graph.n_fac

    def encode(self, info_bits: np.ndarray) -> np.ndarray:
        """Output bit i is the mod-2 sum of its adjacent information bits."""
        return self.graph.factor_parity(info_bits)


@dataclass(frozen=True)
class LdpcCode:
    """Parity-side code: n_var codeword bits, n_fac checks."""

    graph: SparseBipartiteGraph

    @property
    def n(self) -> int:
        return self.graph.n_var

    @property
    def m(self) -> int:
        return self.graph.n_fac

    def syndrome(self, u: np.ndarray) -> np.ndarray:
        return self.graph.factor_parity(u)


@dataclass(frozen=True)
class CompoundCode:
    """An LDGM quantizer and an LDPC syndrome former over the same block."""

    ldgm: LdgmCode
    ldpc: LdpcCode

    def __post_init__(self) -> None:
        if self.ldgm.n != self.ldpc.n:
            raise GraphConstructionError(
                f"block length mismatch: LDGM n={self.ldgm.n}, LDPC n={self.ldpc.n}"
            )

    @property
    def n(self) -> int:
        return self.ldgm.n


# Default ensembles for the nested construction below.  The LDGM mixed
# outputs are regular degree-4: low enough for messages to survive the
# tanh shrinkage at the receiver, high enough for competitive quantizer
# distortion.  The LDPC side is dominated by degree-2 checks, which form
# a percolating backbone along which exactly-known bits spread, with a
# high-degree tail for rate efficiency; a fraction of degree-1 ("doped")
# checks seeds that percolation.  A doped check's syndrome bit reveals
# one information bit outright and is paid for in the transmitted rate
# m/n like any other check.
DEFAULT_LDGM = DegreeDistribution(fac={4: 1.0})
DEFAULT_LDPC = DegreeDistribution(fac={2: 0.6, 3: 0.2, 6: 0.2})
DOPED_CHECK_FRACTION = 0.10


def _with_unit_factors(
    unit_vars: np.ndarray, graph: SparseBipartiteGraph, n_var: int
) -> SparseBipartiteGraph:
    """Graph over n_var variables: one degree-1 factor on each entry of
    unit_vars, followed by the factors of graph."""
    r = len(unit_vars)
    return SparseBipartiteGraph(
        n_var=n_var,
        indptr=np.concatenate([np.arange(r), graph.indptr + r]),
        indices=np.concatenate([unit_vars, graph.indices]),
    )


def _systematic_ldgm(
    n: int,
    k: int,
    mixed_pool: int,
    ldgm_dist: DegreeDistribution,
    seed: int,
) -> LdgmCode:
    """LDGM with outputs 0..k-1 systematic and the rest mixed.

    Output i < k copies information bit i; outputs k..n-1 draw their
    neighborhoods from the first mixed_pool information bits only.
    """
    mixed = sample_graph(ldgm_dist, n_var=mixed_pool, n_fac=n - k, seed=seed)
    return LdgmCode(graph=_with_unit_factors(np.arange(k), mixed, k))


def compound_sizes(
    n: int,
    ldgm_rate: float,
    syndrome_rate: float,
    ldgm_dist: DegreeDistribution,
    ldpc_dist: DegreeDistribution,
) -> tuple[int, int, int]:
    """(k, m, n_doped) of the code build_compound builds from these
    arguments; raises GraphConstructionError if it cannot build it.  A
    syndrome_rate of 0 gives m = 0: a code without checks."""
    if not 0.0 < ldgm_rate <= 1.0:
        raise GraphConstructionError(f"ldgm_rate must be in (0, 1], got {ldgm_rate}")
    if not 0.0 <= syndrome_rate < 1.0:
        raise GraphConstructionError(
            f"syndrome_rate must be in [0, 1), got {syndrome_rate}"
        )
    k = round(n * ldgm_rate)
    m = round(n * syndrome_rate)
    n_doped = int(round(DOPED_CHECK_FRACTION * m))
    if k < 1 or (m < 1 and syndrome_rate > 0) or m >= n or k >= n or n_doped > k:
        raise GraphConstructionError(
            f"degenerate code sizes: n={n}, k={k}, m={m}, doped={n_doped}"
        )
    _degrees(ldgm_dist, k, n - k)
    if m:
        _degrees(ldpc_dist, k, m - n_doped)
    return k, m, n_doped


def build_compound(
    n: int,
    ldgm_rate: float,
    syndrome_rate: float,
    ldgm_dist: DegreeDistribution = DEFAULT_LDGM,
    ldpc_dist: DegreeDistribution = DEFAULT_LDPC,
    seed: int = 0,
) -> CompoundCode:
    """Build a nested LDGM/LDPC pair over one block with rate bookkeeping.

    k = round(n * ldgm_rate) information bits, m = round(n * syndrome_rate)
    checks (transmitted rate m / n).  The LDGM is systematic on the first
    k outputs and the LDPC checks live entirely on those systematic
    positions, so the syndrome is a sparse linear functional of the
    information bits themselves.  This nesting is what makes the syndrome
    decodable by belief propagation under the weak pairwise correlation of
    this problem; checks placed on arbitrary codeword positions have no
    workable BP basin there.

    A syndrome_rate of 0 builds the same LDGM and an LDPC without checks,
    drawing nothing for it: the code of a link that sends its information
    bits, at rate k / n.
    """
    k, m, n_doped = compound_sizes(n, ldgm_rate, syndrome_rate, ldgm_dist, ldpc_dist)
    sub = np.random.SeedSequence(seed).generate_state(3)
    ldgm = _systematic_ldgm(n, k, k, ldgm_dist, seed=int(sub[0]))
    if not m:
        no_checks = SparseBipartiteGraph(n_var=n, indptr=np.zeros(1, np.int64),
                                         indices=np.zeros(0, np.int64))
        return CompoundCode(ldgm=ldgm, ldpc=LdpcCode(graph=no_checks))

    rng = np.random.default_rng(int(sub[1]))
    doped = rng.choice(k, size=n_doped, replace=False) if n_doped else np.empty(0, int)
    plain = sample_graph(ldpc_dist, n_var=k, n_fac=m - n_doped, seed=int(sub[2]))
    ldpc = LdpcCode(graph=_with_unit_factors(doped, plain, n))
    return CompoundCode(ldgm=ldgm, ldpc=ldpc)


def anchor_sizes(
    n: int, ldgm_rate: float, gamma_fraction: float, ldgm_dist: DegreeDistribution
) -> tuple[int, int]:
    """(k, m) of the code build_anchor_compound builds from these
    arguments; raises GraphConstructionError if it cannot build it."""
    if not 0.0 < ldgm_rate <= 1.0:
        raise GraphConstructionError(f"ldgm_rate must be in (0, 1], got {ldgm_rate}")
    if not 0.0 <= gamma_fraction < ldgm_rate:
        raise GraphConstructionError(
            f"gamma_fraction must be in [0, ldgm_rate), got {gamma_fraction}"
        )
    k = round(n * ldgm_rate)
    m = k - round(n * gamma_fraction)
    if k < 1 or m < 1 or k >= n:
        raise GraphConstructionError(f"degenerate code sizes: n={n}, k={k}, m={m}")
    _degrees(ldgm_dist, m, n - k)
    return k, m


def build_anchor_compound(
    n: int,
    ldgm_rate: float,
    gamma_fraction: float,
    ldgm_dist: DegreeDistribution = DEFAULT_LDGM,
    seed: int = 0,
) -> CompoundCode:
    """Compound code for the joint scheme's anchoring link.

    The LDPC part is the identity on the checked prefix: check i is the
    single edge (i, i) for i < m = k - gamma, so the syndrome sends the
    first k - gamma information bits as they are.  The last
    gamma = round(gamma_fraction * n) information bits carry no checks at
    all and appear only in their own systematic output; the receiver
    recovers them solely through the cross-link correlation.  That gamma/n
    rate saving below the lossless point is the joint scheme's structural
    advantage over successive decoding.
    """
    k, m = anchor_sizes(n, ldgm_rate, gamma_fraction, ldgm_dist)
    sub = np.random.SeedSequence(seed).generate_state(1)
    # Mixed outputs draw from the checked prefix only: a wrong suffix
    # guess then corrupts exactly one output symbol instead of fanning out.
    ldgm = _systematic_ldgm(n, k, m, ldgm_dist, seed=int(sub[0]))
    checks = SparseBipartiteGraph(n_var=n, indptr=np.arange(m + 1), indices=np.arange(m))
    return CompoundCode(ldgm=ldgm, ldpc=LdpcCode(graph=checks))


def design_rates(
    p1: float, p2: float, d1: float, d2: float, ldgm_margin: float, syndrome_margin: float
) -> tuple[float, float, float, float]:
    """(ldgm_rate_1, ldgm_rate_2, syndrome_rate_1, syndrome_rate_2).

    Quantizer rates are (1 - h_b(d_i)) scaled up by the LDGM margin;
    syndrome rates are the closed-form per-link rate targets
    h_b(p*d) - h_b(d_i) scaled up by the syndrome margin.
    """
    from .binmath import binary_convolution as conv

    h_pd = binary_entropy(conv(conv(p1, p2), conv(d1, d2)))
    g1 = (1.0 - binary_entropy(d1)) * (1.0 + ldgm_margin)
    g2 = (1.0 - binary_entropy(d2)) * (1.0 + ldgm_margin)
    s1 = (h_pd - binary_entropy(d1)) * (1.0 + syndrome_margin)
    s2 = (h_pd - binary_entropy(d2)) * (1.0 + syndrome_margin)
    return g1, g2, s1, s2
