"""Property tests of the graph and message-passing kernels against
per-factor loops and dense GF(2) arithmetic."""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from binceo import decoders
from binceo._msgpass import (HALF_CLAMP, LLR_CLAMP, bounded_check_update, check_messages, peel,
                             product_ops, row_runs, row_sums, slot_major)
from binceo.codec import DECIMATION_BIAS_FLOOR, _most_biased
from binceo.graphs import DegreeDistribution, SparseBipartiteGraph, _apportion, sample_graph
from binceo.harness import ExperimentConfig, run_joint_trial
from brute_force import csr
from conftest import traced_peak

# The largest float below 1: the full-LLR reference kernel clips to it.
TANH_CLIP = 1.0 - 1e-16


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


# Edge values of a tanh-domain message: exact zeros, signs, and magnitudes
# up to the clip.
edge_values = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1.0, 1.0),
                        st.sampled_from([TANH_CLIP, -TANH_CLIP, 1e-300]))
# Full-LLR messages: exact zeros and magnitudes whose tanh(m / 2) rounds
# to +-1.  Factor scales: signs, zero and the values next to +-1.
special_llrs = [0.0, -0.0, 80.0, -80.0]
special_scales = [1.0, -1.0, 0.0, TANH_CLIP, -TANH_CLIP]
llr_values = st.one_of(st.sampled_from(special_llrs), st.floats(-2 * LLR_CLAMP, 2 * LLR_CLAMP))
scale_values = st.one_of(st.sampled_from(special_scales), st.floats(-1.0, 1.0))


def naive_products(t, adjs):
    out, e = [], 0
    for a in adjs:
        row = t[e : e + len(a)]
        out += [math.prod(np.delete(row, j)) for j in range(len(a))]
        e += len(a)
    return np.array(out)


def reference_check_messages(m_in, edge_scale, buckets):
    """The full-LLR kernel the half-LLR one replaced, kept as written:
    2*atanh(clip(scale_e * prod tanh(m/2))) with one scale per edge, over
    the (d, edges) runs of buckets in row order."""
    t = np.tanh(m_in * 0.5)
    prod = np.empty_like(t)
    for d, edges, *_ in buckets:
        blk = t[edges].reshape(-1, d)
        res = prod[edges].reshape(-1, d)
        res[:, 0] = 1.0
        for j in range(1, d):
            np.multiply(res[:, j - 1], blk[:, j - 1], out=res[:, j])
        suffix = blk[:, d - 1].copy()
        for j in range(d - 2, -1, -1):
            res[:, j] *= suffix
            suffix *= blk[:, j]
    prod *= edge_scale
    np.clip(prod, -TANH_CLIP, TANH_CLIP, out=prod)
    np.arctanh(prod, out=prod)
    prod *= 2.0
    return np.clip(prod, -LLR_CLAMP, LLR_CLAMP, out=prod)


def draw_messages(data, g):
    """Per-edge full-LLR messages and per-factor scales: random fractions,
    whose products round differently in another association order, with
    the special values mixed in."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    m_in, scale = rng.normal(0.0, 4.0, g.n_edges), rng.uniform(-1.0, 1.0, g.n_fac)
    for values, special in ((m_in, special_llrs), (scale, special_scales)):
        mask = rng.random(len(values)) < 0.3
        values[mask] = rng.choice(special, int(mask.sum()))
    return m_in, scale


def leave_one_out_products(blk, res):
    """Write into res[j] the product of blk's rows other than row j."""
    for x, y, out in product_ops(blk, res, 1.0):
        np.multiply(x, y, out)


@given(adjacency(), st.data())
def test_leave_one_out_matches_per_factor_loop(adj, data):
    n_var, adjs = adj
    g = csr(n_var, adjs)
    t = np.array(data.draw(st.lists(edge_values, min_size=g.n_edges, max_size=g.n_edges)))
    # Row-order views of the graph's runs, each written in place.
    got = np.full_like(t, np.nan)
    for d, edges, _, order in row_runs(g.indptr):
        leave_one_out_products(t[edges].reshape((d, -1), order=order),
                               got[edges].reshape((d, -1), order=order))
    np.testing.assert_allclose(got, naive_products(t, adjs), rtol=0, atol=1e-12)


@given(adjacency(), st.data())
def test_check_messages_matches_per_factor_loop(adj, data):
    n_var, adjs = adj
    g = csr(n_var, adjs)
    m_in, scale = draw_messages(data, g)
    got = check_messages(m_in, scale, row_runs(g.indptr))
    edge_fac = np.repeat(np.arange(g.n_fac), np.diff(g.indptr))
    prod = naive_products(np.tanh(m_in), adjs) * scale[edge_fac]
    want = np.clip(np.arctanh(np.clip(prod, -TANH_CLIP, TANH_CLIP)), -HALF_CLAMP, HALF_CLAMP)
    # Compared in the tanh domain, where rounding of the product is not
    # amplified by arctanh near +-1.
    np.testing.assert_allclose(np.tanh(got), np.tanh(want), rtol=0, atol=1e-12)
    # Written into a given buffer, the messages are the same bits.
    out = np.empty_like(m_in)
    check_messages(m_in.copy(), scale, row_runs(g.indptr), out=out)
    np.testing.assert_array_equal(out, got)


@given(adjacency(), st.data())
def test_half_llr_kernel_matches_the_full_llr_reference_bit_for_bit(adj, data):
    n_var, adjs = adj
    g = csr(n_var, adjs)
    m_in, scale = draw_messages(data, g)
    edge_fac = np.repeat(np.arange(g.n_fac), np.diff(g.indptr))
    want = reference_check_messages(m_in, scale[edge_fac], row_runs(g.indptr))
    got = 2.0 * check_messages(m_in / 2, scale, row_runs(g.indptr))
    assert got.tobytes() == want.tobytes()


@given(adjacency(), st.data())
def test_slot_major_layout_permutes_the_row_order_messages_bit_for_bit(adj, data):
    n_var, adjs = adj
    g = csr(n_var, adjs)
    degrees = np.diff(g.indptr)
    perm, fac_order, buckets = slot_major(g.indptr)
    # The layout covers every edge once; factors go by ascending degree,
    # in graph order within a degree.
    assert sorted(perm.tolist()) == list(range(g.n_edges))
    assert sorted(fac_order.tolist()) == list(range(g.n_fac))
    assert sorted(zip(degrees[fac_order], fac_order)) == list(zip(degrees[fac_order], fac_order))
    # One block per degree, in order, tiling the edges; row j of a block is
    # slot j of each of its factors.
    assert [d for d, *_ in buckets] == sorted(set(degrees.tolist()) - {0})
    assert [i for _, e, _, _ in buckets for i in range(e.start, e.stop)] == list(range(g.n_edges))
    for d, edges, facs, order in buckets:
        assert order == "C" and (degrees[fac_order[facs]] == d).all()
        np.testing.assert_array_equal(perm[edges].reshape(d, -1),
                                      g.indptr[fac_order[facs]] + np.arange(d)[:, None])
    m_in, scale = draw_messages(data, g)
    row = check_messages(m_in, scale, row_runs(g.indptr))
    got = check_messages(m_in[perm], scale[fac_order], buckets)
    assert got.tobytes() == row[perm].tobytes()


@given(st.integers(1, 20), st.data())
def test_degree1_check_messages_do_not_depend_on_m_in(n, data):
    scale = np.array(data.draw(st.lists(scale_values, min_size=n, max_size=n)))
    m_a, m_b = (np.array(data.draw(st.lists(llr_values, min_size=n, max_size=n)))
                for _ in range(2))
    bucket = ((1, slice(0, n), slice(0, n), "C"),)
    got = check_messages(m_a, scale, bucket)
    np.testing.assert_array_equal(check_messages(m_b, scale, bucket), got)


@given(adjacency(), st.data())
def test_slot_major_check_messages_leave_tanh_in_the_spent_m_in(adj, data):
    # decoders._sum_product's leaf posteriors read these tanh values back.
    n_var, adjs = adj
    g = csr(n_var, adjs)
    m_in, scale = draw_messages(data, g)
    spent = m_in.copy()
    check_messages(spent, scale, slot_major(g.indptr)[2], out=np.empty_like(m_in))
    assert spent.tobytes() == np.tanh(m_in).tobytes()


@pytest.mark.parametrize("order", ["C", "F"])
def test_leave_one_out_products_of_degree_2_and_3_keep_zeros_and_units_exact(order):
    # Columns of exact zeros of both signs, +-1 and halves, whose products
    # are exact, so a wrong pair of operands shows in a value or a sign.
    cols = [(0.0, -1.0, 0.5), (-0.0, 1.0, -1.0), (1.0, -0.0, -0.0), (-1.0, -1.0, 0.25),
            (0.5, 0.0, -1.0), (-1.0, 1.0, 1.0)]
    for d in (2, 3):
        blk = np.array([c[:d] for c in cols]).T.copy(order=order)
        res = np.full_like(blk, np.nan)
        leave_one_out_products(blk, res)
        if d == 2:
            want = [[c[1] for c in cols], [c[0] for c in cols]]
        else:
            want = [[c[2] * c[1] for c in cols], [c[0] * c[2] for c in cols],
                    [c[0] * c[1] for c in cols]]
        assert res.tobytes(order="C") == np.array(want).tobytes()


def test_tanh_of_the_message_clamp_maps_back_inside_it():
    # The premise that lets the decoder loop drop its clamp.
    t = np.tanh(HALF_CLAMP)
    assert t < 1.0 and np.arctanh(t) < HALF_CLAMP


# Loop inputs: half LLRs within the clamp and factor scales within [-1, 1].
bounded_llrs = st.one_of(st.sampled_from([HALF_CLAMP, -HALF_CLAMP, 0.0, -0.0]),
                         st.floats(-HALF_CLAMP, HALF_CLAMP))
unit_scales = st.one_of(st.sampled_from([1.0, -1.0, 0.0, -0.0]), st.floats(-1.0, 1.0))


@given(adjacency(max_degree=8), st.data())
def test_bounded_check_update_matches_check_messages_bit_for_bit(adj, data):
    n_var, adjs = adj
    g = csr(n_var, adjs)
    _, fac_order, buckets = slot_major(g.indptr)
    m_in = np.array(data.draw(st.lists(bounded_llrs, min_size=g.n_edges, max_size=g.n_edges)))
    scale = np.array(data.draw(st.lists(unit_scales, min_size=g.n_fac, max_size=g.n_fac)))
    # A degree-1 factor sends atanh(scale), within the clamp only while
    # |scale| <= tanh(HALF_CLAMP).
    t = np.tanh(HALF_CLAMP)
    unit = np.diff(g.indptr)[fac_order] == 1
    scale[unit] = np.clip(scale[unit], -t, t)
    want = check_messages(m_in, scale, buckets)
    spent, out = np.full_like(m_in, np.nan), np.full_like(m_in, np.nan)
    update = bounded_check_update(spent, out, scale, buckets)
    # The update reads the buffers' values at each call, and raises no
    # floating-point fault on bounded inputs.
    for _ in range(2):
        spent[:] = m_in
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            update()
        assert out.tobytes() == want.tobytes()
        assert spent.tobytes() == np.tanh(m_in).tobytes()


# Finite inputs of any size, and factor scales within tanh(HALF_CLAMP),
# under which no message reaches the clamp whatever the degree.
finite_llrs = st.one_of(st.sampled_from([0.0, -0.0, HALF_CLAMP, -80.0, 1e300]),
                        st.floats(allow_nan=False, allow_infinity=False))
clamp_tanh = float(np.tanh(HALF_CLAMP))
bounded_scales = st.one_of(st.sampled_from([clamp_tanh, -clamp_tanh, 0.0, -0.0]),
                           st.floats(-clamp_tanh, clamp_tanh))


@given(adjacency(max_degree=8), st.data())
def test_row_order_bounded_check_update_matches_check_messages_bit_for_bit(adj, data):
    # The quantizer's update: row-order runs of any degree, 1 and 2 included.
    n_var, adjs = adj
    g = csr(n_var, adjs)
    buckets = row_runs(g.indptr)
    scale = np.array(data.draw(st.lists(bounded_scales, min_size=g.n_fac, max_size=g.n_fac)))
    spent, out = np.full(g.n_edges, np.nan), np.full(g.n_edges, np.nan)
    update = bounded_check_update(spent, out, scale, buckets)
    # The update reads the buffers' values at each call.
    for _ in range(2):
        m_in = np.array(data.draw(st.lists(finite_llrs, min_size=g.n_edges,
                                           max_size=g.n_edges)))
        want_spent, want = m_in.copy(), np.full_like(m_in, np.nan)
        check_messages(want_spent, scale, buckets, out=want)
        spent[:] = m_in
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            update()
        assert out.tobytes() == want.tobytes()
        assert spent.tobytes() == want_spent.tobytes()


def test_bounded_check_update_allocates_no_edge_array():
    # Slot-major blocks of degrees 1-8 over 2 * 10^5 edges or more, with
    # inputs and scales within the update's bounds: one update runs its
    # prebuilt row-level calls in place, so it allocates no per-edge array.
    rng = np.random.default_rng(3)
    degrees = rng.integers(1, 9, 50_000)
    _, _, buckets = slot_major(np.concatenate(([0], np.cumsum(degrees))))
    m_in = rng.uniform(-HALF_CLAMP, HALF_CLAMP, int(degrees.sum()))
    assert len(m_in) >= 200_000
    t = np.tanh(HALF_CLAMP)
    spent, out = m_in.copy(), np.empty_like(m_in)
    update = bounded_check_update(spent, out, rng.uniform(-t, t, len(degrees)), buckets)
    update()
    spent[:] = m_in
    _, peak = traced_peak(update)
    assert peak < m_in.nbytes / 10


@given(adjacency(), st.data())
def test_row_order_check_messages_write_only_their_buckets_edges(adj, data):
    n_var, adjs = adj
    g = csr(n_var, adjs)
    m_in, scale = draw_messages(data, g)
    buckets = row_runs(g.indptr)
    a = data.draw(st.integers(0, len(buckets)))
    part = buckets[a : data.draw(st.integers(a, len(buckets)))]
    inside = np.zeros(g.n_edges, bool)
    for _, edges, *_ in part:
        inside[edges] = True
    # The sentinel lies outside the clamp, so a stray clip would move it.
    out, spent = np.full_like(m_in, 99.0), m_in.copy()
    check_messages(spent, scale, part, out=out)
    assert (out[~inside] == 99.0).all()
    assert spent[~inside].tobytes() == m_in[~inside].tobytes()
    want = check_messages(m_in, scale, buckets)
    assert out[inside].tobytes() == want[inside].tobytes()


@given(adjacency(), st.data())
def test_check_messages_without_out_leave_m_in_alone(adj, data):
    n_var, adjs = adj
    g = csr(n_var, adjs)
    m_in, scale = draw_messages(data, g)
    for buckets in (row_runs(g.indptr), slot_major(g.indptr)[2]):
        kept = m_in.copy()
        got = check_messages(kept, scale, buckets)
        assert kept.tobytes() == m_in.tobytes()
        out = np.empty_like(m_in)
        check_messages(m_in.copy(), scale, buckets, out=out)
        assert out.tobytes() == got.tobytes()


@given(adjacency(), st.data())
def test_row_order_check_messages_into_out_allocate_no_edge_array(adj, data):
    n_var, adjs = adj
    g = csr(n_var, adjs)
    assume(g.n_edges)
    # Each factor repeated in place, for the same runs over 2 * 10^5 edges
    # or more: numpy's ufunc buffers (at most 8192 elements) then stay far
    # below a tenth of an edge array.
    reps = -(-200_000 // g.n_edges)
    degrees = np.repeat(np.diff(g.indptr), reps)
    rows = np.split(g.indices, g.indptr[1:-1])
    g = SparseBipartiteGraph(n_var, np.concatenate(([0], np.cumsum(degrees))),
                             np.concatenate([np.tile(r, reps) for r in rows]))
    m_in, scale = draw_messages(data, g)
    buckets, out = row_runs(g.indptr), np.empty_like(m_in)
    check_messages(m_in.copy(), scale, buckets, out=out)
    _, peak = traced_peak(check_messages, m_in, scale, buckets, out=out)
    assert peak < m_in.nbytes / 10


def brute_force_peel(adjs, hard, target):
    """Peeling as rounds of a per-factor loop: each round, every hard factor
    (in index order) with exactly one variable unresolved at the round's
    start pins it, unless a lower factor pinned it this round."""
    pinned = {}
    while True:
        claims = {}
        for f, adj in enumerate(adjs):
            free = [v for v in adj if v not in pinned]
            if hard[f] and len(free) == 1 and free[0] not in claims:
                claims[free[0]] = (target[f] + sum(pinned[v] for v in adj if v in pinned)) % 2
        if not claims:
            return pinned
        pinned.update(claims)


def assert_peel_matches(g, adjs, hard, target):
    """peel(g) against brute_force_peel: the same bits pinned to the same
    values, and per factor its unpinned count and pinned parity."""
    pinned, bits, free, flip = peel(g, np.where(hard, 1.0 - 2.0 * target, 0.5))
    want = brute_force_peel(adjs, hard, target)
    assert sorted(np.flatnonzero(pinned).tolist()) == sorted(want)
    assert [int(bits[v]) for v in sorted(want)] == [want[v] for v in sorted(want)]
    assert not bits[~pinned].any()
    assert free.tolist() == [sum(v not in want for v in a) for a in adjs]
    assert flip.tolist() == [sum(want.get(v, 0) for v in a) % 2 == 1 for a in adjs]
    return pinned, bits


@given(adjacency(), st.data())
def test_peel_matches_per_factor_loop(adj, data):
    n_var, adjs = adj
    # Degree-1 factors on top of the drawn ones, so that peeling starts.
    adjs = data.draw(st.lists(st.integers(0, n_var - 1).map(lambda v: [v]), max_size=6)) + adjs
    # Variables on one factor only, which peel leaves to its last pass:
    # one hard factor gains one, another two, and a new degree-1 hard
    # factor holds one alone.
    adjs.insert(data.draw(st.integers(0, len(adjs))), [])
    one, two = data.draw(st.lists(st.integers(0, len(adjs) - 1), min_size=2, max_size=2,
                                  unique=True))
    alone = data.draw(st.integers(0, len(adjs)))
    adjs[one] = adjs[one] + [n_var]
    adjs[two] = adjs[two] + [n_var + 1, n_var + 2]
    adjs.insert(alone, [n_var + 3])
    one, two = (f + (f >= alone) for f in (one, two))
    n_var += 4
    g = csr(n_var, adjs)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    hard = rng.random(g.n_fac) < 0.7
    hard[[one, two, alone]] = True
    from_word = data.draw(st.booleans())
    word = rng.integers(0, 2, n_var, dtype=np.uint8)
    target = g.factor_parity(word) if from_word else rng.integers(0, 2, g.n_fac)
    pinned, bits = assert_peel_matches(g, adjs, hard, target)
    # Hard factors carry their target as a sign; soft ones any other
    # scale, +-(1 - 2^-52) included.
    soft = rng.choice([0.0, 0.3, -0.7, 1.0 - 2.0**-52, -(1.0 - 2.0**-52)], g.n_fac)
    got = peel(g, np.where(hard, 1.0 - 2.0 * target, soft))
    for a, b in zip(got, (pinned, bits)):
        np.testing.assert_array_equal(a, b)
    if from_word:
        # The word's own bits are the only consistent values, so every
        # fully pinned hard factor holds.
        np.testing.assert_array_equal(bits[pinned], word[pinned])
        done = np.array([all(pinned[v] for v in a) for a in adjs], dtype=bool)
        np.testing.assert_array_equal(g.factor_parity(bits)[hard & done], target[hard & done])


def test_peel_matches_per_factor_loop_on_a_joint_decoder_graph(monkeypatch):
    # The union graph of a joint n = 2000 decode: every factor is a hard
    # check, and each mixed output is private to its factor.
    peeled = []
    real = decoders.peel
    monkeypatch.setattr(decoders, "peel", lambda *a: peeled.append(a) or real(*a))
    run_joint_trial(ExperimentConfig(n=2000, scheme="joint", base_seed=11), 0)
    g, scale = peeled[0]
    adjs = [g.indices[g.indptr[f] : g.indptr[f + 1]].tolist() for f in range(g.n_fac)]
    pinned, _ = assert_peel_matches(g, adjs, np.abs(scale) == 1.0, (scale < 0).astype(int))
    private = np.bincount(g.indices, minlength=g.n_var) == 1
    assert 500 < pinned[private].sum() < private.sum()


@given(adjacency())
def test_buckets_are_ordered_runs_of_equal_degree_covering_every_edge(adj):
    n_var, adjs = adj
    g = csr(n_var, adjs)
    runs = row_runs(g.indptr)
    degrees = [len(a) for a in adjs]
    # The slices tile the edges in order, each once.
    assert all(isinstance(e, slice) and e.step is None for _, e, _, _ in runs)
    covered = [i for _, e, _, _ in runs for i in range(e.start, e.stop)]
    assert covered == list(range(g.n_edges))
    # Every factor of a bucket's factor slice has degree d, and owns its
    # edges in row order.
    for d, e, facs, order in runs:
        assert order == "F" and d > 0 and degrees[facs] == [d] * (facs.stop - facs.start)
        assert (g.indptr[facs.start], g.indptr[facs.stop]) == (e.start, e.stop)
    # Neighbouring buckets are distinct runs: a degree-0 factor lies
    # between them, or their degrees differ.
    for (d_a, _, f_a, _), (d_b, _, f_b, _) in zip(runs, runs[1:]):
        assert 0 in degrees[f_a.stop : f_b.start] or d_a != d_b


@given(adjacency(), st.data())
def test_row_sums_match_a_per_row_sum(adj, data):
    n_var, adjs = adj
    g = csr(n_var, adjs)
    code = np.array(data.draw(st.lists(st.integers(-2**40, 2**40), min_size=n_var,
                                       max_size=n_var)))
    got = row_sums(code, g.indices, g.indptr)
    assert got.dtype == np.int64
    assert got.tolist() == [sum(int(code[v]) for v in a) for a in adjs]


@given(adjacency(), st.data())
def test_row_sums_over_some_runs_leave_the_other_rows_zero(adj, data):
    n_var, adjs = adj
    g = csr(n_var, adjs)
    code = np.array(data.draw(st.lists(st.integers(-2**40, 2**40), min_size=n_var,
                                       max_size=n_var)))
    some = [r for r in row_runs(g.indptr) if data.draw(st.booleans())]
    kept = np.zeros(g.n_fac, bool)
    for _, _, facs, _ in some:
        kept[facs] = True
    got = row_sums(code, g.indices, g.indptr, some)
    assert got.dtype == np.int64
    assert got.tolist() == [sum(int(code[v]) for v in a) if k else 0
                            for a, k in zip(adjs, kept)]


@given(st.lists(st.integers(0, 63), max_size=200), st.integers(0, 2**32 - 1))
def test_take_into_its_own_index_array_is_a_gather(idx, seed):
    # The decoders' residual layout maps its edge arrays in place,
    # np.take(x, i, out=i, mode="wrap"), which relies on numpy reading
    # index j before it writes output j.
    x = np.random.default_rng(seed).integers(0, 64, 64).astype(np.intp)
    i = np.array(idx, np.intp)
    want = x[i]
    assert np.take(x, i, out=i, mode="wrap") is i
    assert i.tolist() == want.tolist()


def test_row_sums_of_rows_without_edges_are_zero():
    empty = np.zeros(0, np.int64)
    assert row_sums(np.arange(3), empty, np.zeros(4, np.int64)).tolist() == [0, 0, 0]
    assert row_sums(np.arange(3), empty, np.zeros(1, np.int64)).tolist() == []


@given(adjacency(), st.data())
def test_slot_edges_are_each_factors_slot_major_edges(adj, data):
    n_var, adjs = adj
    g = csr(n_var, adjs)
    perm, fac_order, buckets = slot_major(g.indptr)
    slot = np.argsort(perm)  # graph edge -> slot-major edge
    # Any factors with edges, in any order; the degree-0 ones lead.
    live = range(buckets[0][2].start if buckets else g.n_fac, g.n_fac)
    facs = data.draw(st.permutations(live))[: data.draw(st.integers(0, len(live)))]
    edges, ptr = decoders._slot_edges(buckets, np.array(facs, dtype=np.intp))
    want = [slot[g.indptr[fac_order[f]] : g.indptr[fac_order[f] + 1]].tolist() for f in facs]
    assert edges.tolist() == [e for w in want for e in w]
    assert ptr.tolist() == np.cumsum([0] + [len(w) for w in want])[:-1].tolist()


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
    g = csr(n_var, adjs)
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
