"""Property tests of the graph and message-passing kernels against
per-factor loops and dense GF(2) arithmetic."""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from binceo._msgpass import (LLR_CLAMP, TANH_CLIP, check_messages, hoist_unit_factors,
                             leave_one_out_products)
from binceo.codec import DECIMATION_BIAS_FLOOR, _most_biased
from binceo.graphs import DegreeDistribution, SparseBipartiteGraph, _apportion, sample_graph


@st.composite
def adjacency(draw, max_degree=6):
    """(n_var, per-factor variable lists) with degrees 0..max_degree in
    any order, so a degree can recur in several runs, with or without a
    degree-0 factor between them."""
    n_var = draw(st.integers(max_degree, 12))
    degrees = draw(st.lists(st.integers(0, max_degree), min_size=1, max_size=25))
    adjs = [draw(st.lists(st.integers(0, n_var - 1), min_size=d, max_size=d, unique=True))
            for d in degrees]
    return n_var, adjs


def csr_graph(n_var, adjs):
    indptr = np.cumsum([0] + [len(a) for a in adjs])
    indices = np.array([v for a in adjs for v in a], dtype=np.int64)
    return SparseBipartiteGraph(n_var=n_var, indptr=indptr, indices=indices)


# Edge values of a tanh-domain message: exact zeros, signs, and magnitudes
# up to the clip.
edge_values = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1.0, 1.0),
                        st.sampled_from([TANH_CLIP, -TANH_CLIP, 1e-300]))


def naive_products(t, adjs):
    out, e = [], 0
    for a in adjs:
        row = t[e : e + len(a)]
        out += [math.prod(np.delete(row, j)) for j in range(len(a))]
        e += len(a)
    return np.array(out)


@given(adjacency(), st.data())
def test_leave_one_out_matches_per_factor_loop(adj, data):
    n_var, adjs = adj
    g = csr_graph(n_var, adjs)
    t = np.array(data.draw(st.lists(edge_values, min_size=g.n_edges, max_size=g.n_edges)))
    got = leave_one_out_products(t, g.buckets)
    np.testing.assert_allclose(got, naive_products(t, adjs), rtol=0, atol=1e-12)


@given(adjacency(), st.data())
def test_check_messages_matches_per_factor_loop(adj, data):
    n_var, adjs = adj
    g = csr_graph(n_var, adjs)
    m_in = np.array(data.draw(st.lists(
        st.one_of(st.just(0.0), st.floats(-2 * LLR_CLAMP, 2 * LLR_CLAMP)),
        min_size=g.n_edges, max_size=g.n_edges)))
    scale = np.array(data.draw(st.lists(
        st.one_of(st.sampled_from([1.0, -1.0]), st.floats(-1.0, 1.0)),
        min_size=g.n_fac, max_size=g.n_fac)))
    got = check_messages(m_in, scale[g.edge_fac], g.buckets)
    prod = naive_products(np.tanh(0.5 * m_in), adjs) * scale[g.edge_fac]
    want = np.clip(2.0 * np.arctanh(np.clip(prod, -TANH_CLIP, TANH_CLIP)),
                   -LLR_CLAMP, LLR_CLAMP)
    # Compared in the tanh domain, where rounding of the product is not
    # amplified by arctanh near +-1.
    np.testing.assert_allclose(np.tanh(0.5 * got), np.tanh(0.5 * want), rtol=0, atol=1e-12)
    # Written into a given buffer, the messages are the same bits.
    out = np.empty_like(m_in)
    check_messages(m_in.copy(), scale[g.edge_fac], g.buckets, out=out)
    np.testing.assert_array_equal(out, got)


llr_values = st.one_of(st.just(0.0), st.floats(-2 * LLR_CLAMP, 2 * LLR_CLAMP))


@given(st.integers(1, 20), st.data())
def test_degree1_check_messages_do_not_depend_on_m_in(n, data):
    scale = np.array(data.draw(st.lists(
        st.one_of(st.sampled_from([1.0, -1.0]), st.floats(-1.0, 1.0)), min_size=n, max_size=n)))
    m_a, m_b = (np.array(data.draw(st.lists(llr_values, min_size=n, max_size=n)))
                for _ in range(2))
    bucket = ((1, slice(0, n)),)
    got = check_messages(m_a, scale, bucket)
    np.testing.assert_array_equal(check_messages(m_b, scale, bucket), got)


@given(adjacency(), st.data())
def test_hoist_unit_factors_buckets_are_those_of_the_graph_after_it(adj, data):
    n_var, adjs = adj
    lead = data.draw(st.lists(st.integers(0, n_var - 1).map(lambda v: [v]), max_size=6))
    facs = lead + adjs
    g = csr_graph(n_var, facs)
    scale = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=g.n_edges,
                                        max_size=g.n_edges)))
    messages = np.full(g.n_edges, np.nan)
    p, live = hoist_unit_factors(g, scale, messages)
    # Their messages are written; the other edges' are left alone.
    want = check_messages(np.zeros(p), scale[:p], ((1, slice(0, p)),))
    np.testing.assert_array_equal(messages[:p], want)
    assert np.isnan(messages[p:]).all()
    # adjs may itself start with degree-1 factors; the prefix takes them too.
    assert [len(a) for a in facs[:p]] == [1] * p and p >= len(lead)
    assert p == len(facs) or len(facs[p]) != 1
    rest = csr_graph(n_var, facs[p:])
    edges = np.arange(rest.n_edges)
    assert ([(d, edges[e].tolist()) for d, e in live]
            == [(d, edges[e].tolist()) for d, e in rest.buckets])


@given(adjacency())
def test_buckets_are_ordered_runs_of_equal_degree_covering_every_edge(adj):
    n_var, adjs = adj
    g = csr_graph(n_var, adjs)
    degrees = [len(a) for a in adjs]
    # The slices tile the edges in order, each once.
    assert all(isinstance(e, slice) and e.step is None for _, e in g.buckets)
    covered = [i for _, e in g.buckets for i in range(e.start, e.stop)]
    assert covered == list(range(g.n_edges))
    # Every factor from a bucket's first to its last has degree d.
    for d, e in g.buckets:
        first, last = g.edge_fac[e.start], g.edge_fac[e.stop - 1]
        assert d > 0 and degrees[first : last + 1] == [d] * (last + 1 - first)
    # Neighbouring buckets are distinct runs: a degree-0 factor lies
    # between them, or their degrees differ.
    for (d_a, e_a), (d_b, e_b) in zip(g.buckets, g.buckets[1:]):
        between = degrees[g.edge_fac[e_a.stop - 1] + 1 : g.edge_fac[e_b.start]]
        assert 0 in between or d_a != d_b


# Bias magnitudes from a small pool, so that ties (including dead biases
# at or below the floor) fall on both sides of the batch cut.
bias_magnitudes = st.sampled_from(
    [0.0, DECIMATION_BIAS_FLOOR / 2, DECIMATION_BIAS_FLOOR, 0.3, 1.0, 1.0 + 1e-15, 50.0])


@given(st.lists(bias_magnitudes, min_size=1, max_size=40), st.data())
def test_most_biased_matches_full_lexsort(mags, data):
    mag = np.array(mags)
    unfixed = np.array(sorted(data.draw(st.lists(
        st.integers(0, 200), min_size=len(mag), max_size=len(mag), unique=True))))
    batch = data.draw(st.integers(1, len(mag)))
    want = unfixed[np.lexsort((unfixed, -mag))[:batch]]
    np.testing.assert_array_equal(_most_biased(unfixed, mag, batch), want)


@given(adjacency(), st.data())
def test_factor_parity_matches_dense_matmul(adj, data):
    n_var, adjs = adj
    g = csr_graph(n_var, adjs)
    bits = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n_var, max_size=n_var)),
                    dtype=np.uint8)
    dense = np.zeros((len(adjs), n_var), dtype=np.int64)
    for f, a in enumerate(adjs):
        dense[f, a] = 1
    np.testing.assert_array_equal(g.factor_parity(bits), (dense @ bits) % 2)


@given(
    st.dictionaries(st.integers(1, 6), st.integers(1, 5), min_size=1, max_size=4),
    st.integers(20, 60),
    st.integers(0, 2**32 - 1),
)
def test_sample_graph_degree_and_simplicity_invariants(weights, n_var, seed):
    total = sum(weights.values())
    dist = DegreeDistribution(fac={d: w / total for d, w in weights.items()})
    n_fac = n_var  # every factor has degree >= 1, so edges >= n_var
    g = sample_graph(dist, n_var=n_var, n_fac=n_fac, seed=seed)
    fac_degrees = np.diff(g.indptr)
    np.testing.assert_array_equal(fac_degrees, _apportion(dist.fac, n_fac))
    var_degrees = np.bincount(g.indices, minlength=n_var)
    assert var_degrees.max() - var_degrees.min() <= 1
    assert var_degrees.min() >= 1
    for f in range(n_fac):
        adj = g.indices[g.indptr[f] : g.indptr[f + 1]]
        assert np.all(np.diff(adj) > 0)  # sorted, no duplicate edges
