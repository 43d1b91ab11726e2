import hashlib

import numpy as np
import pytest

from binceo.binmath import binary_convolution, binary_entropy
from binceo.decoders import combined_syndrome_code
from binceo.graphs import (
    DEFAULT_LDGM,
    DEFAULT_LDPC,
    CompoundCode,
    DegreeDistribution,
    GraphConstructionError,
    LdgmCode,
    LdpcCode,
    SparseBipartiteGraph,
    build_anchor_compound,
    build_compound,
    compound_sizes,
    design_rates,
    sample_graph,
)


def factors(g: SparseBipartiteGraph) -> list[np.ndarray]:
    return np.split(g.indices, g.indptr[1:-1])


def test_degree_distribution_validation():
    with pytest.raises(GraphConstructionError):
        DegreeDistribution(fac={})
    with pytest.raises(GraphConstructionError):
        DegreeDistribution(fac={0: 1.0})
    with pytest.raises(GraphConstructionError):
        DegreeDistribution(fac={2: 0.4, 3: 0.4})
    DegreeDistribution(fac={4: 1.0})  # valid


def test_sample_graph_deterministic():
    dist = DegreeDistribution(fac={3: 0.5, 4: 0.5})
    g1 = sample_graph(dist, n_var=60, n_fac=100, seed=5)
    g2 = sample_graph(dist, n_var=60, n_fac=100, seed=5)
    g3 = sample_graph(dist, n_var=60, n_fac=100, seed=6)
    assert np.array_equal(g1.indptr, g2.indptr)
    assert np.array_equal(g1.indices, g2.indices)
    assert not np.array_equal(g1.indices, g3.indices)


def test_sample_graph_simple_and_degree_matched():
    dist = DegreeDistribution(fac={3: 0.5, 4: 0.5})
    g = sample_graph(dist, n_var=60, n_fac=100, seed=7)
    for adj in factors(g):
        assert len(np.unique(adj)) == len(adj)  # no duplicate edges
    degs = sorted(np.diff(g.indptr))
    assert degs == [3] * 50 + [4] * 50


def test_sample_graph_rejects_degenerate():
    with pytest.raises(GraphConstructionError):
        sample_graph(DegreeDistribution(fac={3: 1.0}), n_var=0, n_fac=5, seed=0)
    with pytest.raises(GraphConstructionError):
        sample_graph(DegreeDistribution(fac={10: 1.0}), n_var=4, n_fac=5, seed=0)


def test_factor_parity_matches_manual_xor():
    g = SparseBipartiteGraph(n_var=4, indptr=[0, 3, 5], indices=[0, 1, 2, 1, 3])
    bits = np.array([1, 1, 0, 1], dtype=np.uint8)
    np.testing.assert_array_equal(g.factor_parity(bits), [0, 0])
    bits = np.array([1, 0, 0, 1], dtype=np.uint8)
    np.testing.assert_array_equal(g.factor_parity(bits), [1, 1])


def test_graph_rejects_malformed_csr():
    with pytest.raises(GraphConstructionError):
        SparseBipartiteGraph(n_var=3, indptr=[0, 2], indices=[0, 1, 2])
    with pytest.raises(GraphConstructionError):
        SparseBipartiteGraph(n_var=3, indptr=[0, 2, 1], indices=[0])
    with pytest.raises(GraphConstructionError):
        SparseBipartiteGraph(n_var=2, indptr=[0, 1], indices=[2])


def test_ldgm_encode_linear():
    code = LdgmCode(
        graph=sample_graph(DegreeDistribution(fac={3: 1.0}), n_var=30, n_fac=60, seed=1)
    )
    rng = np.random.default_rng(0)
    a = rng.integers(0, 2, 30, dtype=np.uint8)
    b = rng.integers(0, 2, 30, dtype=np.uint8)
    lhs = code.encode(a ^ b)
    rhs = code.encode(a) ^ code.encode(b)
    np.testing.assert_array_equal(lhs, rhs)


def test_compound_code_rejects_length_mismatch():
    ldgm = LdgmCode(
        graph=sample_graph(DegreeDistribution(fac={3: 1.0}), n_var=30, n_fac=60, seed=1)
    )
    ldpc = LdpcCode(
        graph=sample_graph(DegreeDistribution(fac={3: 1.0}), n_var=50, n_fac=20, seed=2)
    )
    with pytest.raises(GraphConstructionError):
        CompoundCode(ldgm=ldgm, ldpc=ldpc)


def test_build_compound_shapes_and_nesting():
    n = 2000
    cc = build_compound(n, ldgm_rate=0.56, syndrome_rate=0.55, seed=3)
    k = round(n * 0.56)
    m = round(n * 0.55)
    assert cc.ldgm.k == k and cc.ldgm.n == n
    assert cc.ldpc.m == m and cc.ldpc.n == n
    assert cc.ldpc.m / cc.n == pytest.approx(m / n)
    # Systematic prefix: output i < k copies information bit i.
    rng = np.random.default_rng(4)
    info = rng.integers(0, 2, k, dtype=np.uint8)
    word = cc.ldgm.encode(info)
    np.testing.assert_array_equal(word[:k], info)
    # All LDPC checks live on the systematic positions.
    assert cc.ldpc.graph.indices.max() < k
    # Doped degree-1 checks are present at the configured fraction.
    n_doped = int(np.sum(np.diff(cc.ldpc.graph.indptr) == 1))
    assert n_doped == round(0.10 * m)


def test_build_compound_syndrome_is_linear_in_info_bits():
    cc = build_compound(1000, ldgm_rate=0.56, syndrome_rate=0.5, seed=8)
    rng = np.random.default_rng(9)
    a = rng.integers(0, 2, cc.ldgm.k, dtype=np.uint8)
    b = rng.integers(0, 2, cc.ldgm.k, dtype=np.uint8)
    s = cc.ldpc.syndrome(cc.ldgm.encode(a)) ^ cc.ldpc.syndrome(cc.ldgm.encode(b))
    np.testing.assert_array_equal(cc.ldpc.syndrome(cc.ldgm.encode(a ^ b)), s)


def test_build_compound_rejects_bad_rates():
    with pytest.raises(GraphConstructionError):
        build_compound(1000, ldgm_rate=0.0, syndrome_rate=0.5)
    with pytest.raises(GraphConstructionError):
        build_compound(1000, ldgm_rate=0.5, syndrome_rate=1.0)


@pytest.mark.parametrize("n", [2000, 10_000])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_build_compound_without_checks_keeps_the_ldgm(n, seed):
    # A link that sends its information bits gets the LDGM that the same
    # seed gives with checks, so matched trials share its quantizer.
    bare = build_compound(n, ldgm_rate=0.56, syndrome_rate=0.0, seed=seed)
    full = build_compound(n, ldgm_rate=0.56, syndrome_rate=0.5, seed=seed)
    np.testing.assert_array_equal(bare.ldgm.graph.indptr, full.ldgm.graph.indptr)
    np.testing.assert_array_equal(bare.ldgm.graph.indices, full.ldgm.graph.indices)
    assert (bare.ldpc.m, bare.ldpc.n, bare.ldpc.graph.n_edges) == (0, n, 0)
    assert len(bare.ldpc.syndrome(np.zeros(n, np.uint8))) == 0


def test_compound_sizes_at_syndrome_rate_zero():
    assert compound_sizes(2000, 0.56, 0.0, DEFAULT_LDGM, DEFAULT_LDPC) == (1120, 0, 0)
    for rate in (-0.1, 1.0, 1.5):
        with pytest.raises(GraphConstructionError, match=r"syndrome_rate must be in \[0, 1\)"):
            compound_sizes(2000, 0.56, rate, DEFAULT_LDGM, DEFAULT_LDPC)
    # A positive rate still needs at least one check.
    with pytest.raises(GraphConstructionError, match="degenerate code sizes"):
        compound_sizes(2000, 0.56, 1e-4, DEFAULT_LDGM, DEFAULT_LDPC)


def test_build_anchor_compound_structure():
    n = 4000
    cc = build_anchor_compound(n, ldgm_rate=0.558, gamma_fraction=0.025, seed=11)
    k = round(n * 0.558)
    gamma = round(n * 0.025)
    m = k - gamma
    assert cc.ldgm.k == k
    assert cc.ldpc.m == m and cc.ldpc.n == n
    # Check i is the single edge (i, i): the syndrome is the checked prefix.
    np.testing.assert_array_equal(cc.ldpc.graph.indptr, np.arange(m + 1))
    np.testing.assert_array_equal(cc.ldpc.graph.indices, np.arange(m))
    info = np.random.default_rng(5).integers(0, 2, k, dtype=np.uint8)
    np.testing.assert_array_equal(cc.ldpc.syndrome(cc.ldgm.encode(info)), info[:m])
    # Suffix bits: no membership in mixed outputs.
    assert cc.ldgm.graph.indices[cc.ldgm.graph.indptr[k] :].max() < m


def test_build_anchor_compound_rejects_bad_gamma():
    with pytest.raises(GraphConstructionError):
        build_anchor_compound(1000, ldgm_rate=0.5, gamma_fraction=0.6)


def test_design_rates_closed_form():
    p1 = p2 = 0.15
    d1 = d2 = 0.1
    g1, g2, s1, s2 = design_rates(p1, p2, d1, d2, 0.0, 0.0)
    h_pd = binary_entropy(
        binary_convolution(binary_convolution(p1, p2), binary_convolution(d1, d2))
    )
    assert g1 == pytest.approx(1.0 - binary_entropy(d1))
    assert g1 == pytest.approx(g2)
    assert s1 == pytest.approx(h_pd - binary_entropy(d1))
    # Margins scale multiplicatively.
    g1m, _, s1m, _ = design_rates(p1, p2, d1, d2, 0.05, 0.22)
    assert g1m == pytest.approx(g1 * 1.05)
    assert s1m == pytest.approx(s1 * 1.22)


# sha256 of (indptr, indices) as little-endian int64, per builder and seed.
# They pin the sampled graphs, and with them the random stream each builder
# draws from.  "anchor" is the anchor's LDGM alone; its LDPC part is the
# identity on the checked prefix and is asserted directly.
GRAPH_DIGESTS = {
    ("sample", 0): "96cb21d1414b20f03971dee7c22a7a6c7747daafb635bb9d74fea4a8b07dec94",
    ("sample", 1): "6dcc9df552ac16d7c37829faf734b48aa0761f39610b404ad16a0dccdb96b8aa",
    ("sample", 2): "bc8c66d70e92a4b4d4803a03faedb80a07358f226a310e13321ffa9c9acc4e6d",
    ("compound", 0): "43a4576de12c6ab8cc636843db3a2fa96fa4fbd2cbb40255b6d92b41bd87c1e1",
    ("compound", 1): "5b9f2fec5fc805bd238df78f58d6aa60b478d086e6704ca885118ebec425fdce",
    ("compound", 2): "d65dd46c1f4b9ceffa091cfa978f03179f3c82b355ba5c88fea465c3d3019dca",
    ("anchor", 0): "26976afb0b0132a8f94060d17f4e2685fd37e2def7f405fab61ed5d4fc04bfdd",
    ("anchor", 1): "0c6bdcf7dad23bf3faefbc4b5a003201d48ad8b5fabfcde6a69737ad7055eb7f",
    ("anchor", 2): "f0ffb1370ccbd1d38ae53d50ea95fd9e52384c6dfd1fb24aa8ceb2c174432020",
    # combined_syndrome_code of the compound and anchor codes above.
    ("decoder-compound", 0): "9867df9e70700f529d465ea8117b9c6cd64468db9b14f9b47f0f910322dc5faf",
    ("decoder-compound", 1): "caf5f6cfc073547d375babc72e8cd649bcb469ff7e2a138783997944f0457caa",
    ("decoder-compound", 2): "f08e49af396cbf4a3b63d685cae63a5c91b64a32cb44df49b294719bbfe28707",
    ("decoder-anchor", 0): "3c5b8ecb48fba4dca12cdb6ef2cc9a82739ad531db5c833219513c979ecb9d4f",
    ("decoder-anchor", 1): "926e9fae3fb5c09e366173facd6afef350a15095709764530ea9fb63dc063793",
    ("decoder-anchor", 2): "522bebcf7360c6dd1e955cd28ad8c8d46076f8ef4cd098ece19560a040c77f68",
}


def _digest(*graphs: SparseBipartiteGraph) -> str:
    h = hashlib.sha256()
    for g in graphs:
        h.update(g.indptr.astype("<i8").tobytes())
        h.update(g.indices.astype("<i8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_graph_builders_golden_digests(seed):
    g = sample_graph(DEFAULT_LDPC, n_var=600, n_fac=500, seed=seed)
    cc = build_compound(2000, ldgm_rate=0.56, syndrome_rate=0.5, seed=seed)
    ac = build_anchor_compound(2000, ldgm_rate=0.558, gamma_fraction=0.025, seed=seed)
    assert _digest(g) == GRAPH_DIGESTS["sample", seed]
    assert _digest(cc.ldgm.graph, cc.ldpc.graph) == GRAPH_DIGESTS["compound", seed]
    assert _digest(ac.ldgm.graph) == GRAPH_DIGESTS["anchor", seed]
    m = ac.ldpc.m
    np.testing.assert_array_equal(ac.ldpc.graph.indptr, np.arange(m + 1))
    np.testing.assert_array_equal(ac.ldpc.graph.indices, np.arange(m))
    assert _digest(combined_syndrome_code(cc).graph) == GRAPH_DIGESTS["decoder-compound", seed]
    assert _digest(combined_syndrome_code(ac).graph) == GRAPH_DIGESTS["decoder-anchor", seed]
