"""Vectorized helpers shared by the quantizer and the decoders.

The loops carry every message, prior, posterior and clamp as half a
natural-log LLR (positive favoring bit 0), so a check update is
atanh(scale * prod tanh(m)); halving a float is exact, so every sign and
comparison is that of the full-LLR loop.  The buckets of one update tile
one contiguous run of edges, and the products run per bucket
(d, edges, factors, order): factors of equal degree d whose edge slice,
viewed as a (d, n) array, holds slot j of every factor in row j, either
slot-major ("C", rows contiguous: the decoders' layout) or in the graph's
row order ("F": the quantizer's, so that its variable sums add in graph
order).  For "C" buckets tanh and atanh run once over the run, and m_in
is spent as the tanh buffer.  "F" views are strided, so tanh and atanh
run per bucket and transpose: tanh writes a contiguous block into the
bucket's span of the output, the products go to m_in's span, and atanh
writes them back in row order; m_in ends up holding the products.  The
clamp runs once over the run.  Both loops run the update as
bounded_check_update, its views and the row-level multiplies of every
bucket (product_ops) bound once per decode or quantizer call, without
the clamp, which none of their messages can reach (the decoders clip
their inputs, and the quantizer's scales are at most 0.998).  Each edge's
leave-one-out product is its prefix product times its suffix product
along the slots (the standard tanh-rule layout, Richardson & Urbanke,
Modern Coding Theory, 2008), so exact zeros need no special case.  The
factor term that is never left out (syndrome sign, quantizer channel
tanh, coupling 1 - 2q) is one scale per factor, multiplied into a block
as one row broadcast, or into each row of a degree-2 block as it is
swapped.  The decoders first peel the hard factors (scale +-1), fold
the leaves left into their factors' scales and lay out only the
residual graph of the other variables.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # graphs imports row_runs from here
    from .graphs import SparseBipartiteGraph

LLR_CLAMP = 30.0
HALF_CLAMP = LLR_CLAMP / 2

Bucket = tuple[int, slice, slice, str]  # (degree, edges, factors, order)


def extrinsic_messages(
    total: np.ndarray, edge_var: np.ndarray, m_in: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Per-edge message total[v] - m_in[e] out of each variable, clamped to
    +-HALF_CLAMP; m_in holds the messages that came in along the same
    edges.  Written into out when given (a new array by default)."""
    # The indices are in range, so "wrap" never wraps; unlike the default
    # "raise", it fills out without an intermediate buffer.
    out = np.take(total, edge_var, out=out, mode="wrap")
    out -= m_in
    return np.clip(out, -HALF_CLAMP, HALF_CLAMP, out=out)


def product_ops(blk: np.ndarray, res: np.ndarray, scale: np.ndarray | float) -> list[tuple]:
    """The row-level multiplies (x, y, out), on views bound here, that
    write into res[j] scale times the product of blk's rows other than
    row j, for a (d, n) block whose row j holds slot j of n factors (res
    is not blk) and one scale per factor.  A row of degree 1 gets
    1 * scale and one of degree 2 the other row times scale, one multiply
    each with the bits of a copy and a scale multiply."""
    d = len(blk)
    if d < 3:
        # Row by row: one multiply over a row-reversed view is slower, and
        # buffers a copy of an "F" one.
        return [(blk[1 - j] if d == 2 else 1.0, scale, res[j]) for j in range(d)]
    # res[j] = prod(blk[:j]) * prod(blk[j + 1:]): the prefix products run
    # forward from blk[0], then the suffix products backward from blk[d - 1],
    # in res[0] until it is its own; 3d - 6 multiplies and no copy.
    ops = [(res[j - 1] if j > 2 else blk[0], blk[j - 1], res[j]) for j in range(2, d)]
    for j in range(d - 2, 0, -1):
        suffix = res[0] if j < d - 2 else blk[d - 1]
        ops += [(res[j] if j > 1 else blk[0], suffix, res[j]), (suffix, blk[j], res[0])]
    return ops + [(res, scale, res)]


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
    LLR for quantizer factors.  The buckets of one call share one order.
    Given out, the messages are written there (its other edges are left
    alone) and m_in is spent as scratch, so a loop that reuses both
    allocates no per-edge array: for "C" buckets m_in ends up holding the
    tanh values, for "F" buckets the scaled products.  Any m_in and any
    scale are allowed: this is bounded_check_update followed by a clamp of
    every message to +-HALF_CLAMP, and atanh(+-1) = +-inf is left to that
    clamp without a divide warning.  For bounded inputs the clamp cannot
    act (bounded_check_update).
    """
    scratch = np.empty_like(m_in) if out is None else m_in
    out = np.empty_like(m_in) if out is None else out
    if not buckets:
        return out
    run = slice(buckets[0][1].start, buckets[-1][1].stop)
    if scratch is not m_in:
        scratch[run] = m_in[run]
    # |scale * product| <= 1, and atanh(+-1) = +-inf is clamped to +-HALF_CLAMP.
    with np.errstate(divide="ignore"):
        bounded_check_update(scratch, out, fac_scale, buckets)()
    np.clip(out[run], -HALF_CLAMP, HALF_CLAMP, out=out[run])
    return out


def bounded_check_update(
    m_in: np.ndarray, out: np.ndarray, fac_scale: np.ndarray, buckets: tuple[Bucket, ...]
) -> Callable[[], None]:
    """check_messages(m_in, fac_scale, buckets, out=out) without the clamp,
    as a function that runs it on the current values of m_in and out,
    spending m_in as check_messages does.  Its views and every bucket's
    product_ops are bound here once, so a call is the tanh calls, those
    row-level multiplies and the arctanh calls: one tanh and one arctanh
    over the run for "C" buckets, one of each per "F" bucket.

    The clamp cannot act when every |fac_scale| <= 1 and every |m_in| <=
    HALF_CLAMP, or when every |fac_scale| <= T = tanh(HALF_CLAMP) and m_in
    is finite: each |tanh| <= 1 (<= T in the first case), and a product
    of floats of magnitude <= 1 rounds to no more than any of them, so a
    factor of degree 2 or more sends at most atanh(T) = 14.99992.  A
    degree-1 factor sends atanh(scale) and needs |scale| <= T; the loops
    set those messages once, with check_messages.  The quantizer's
    scales are at most 0.998 (codec.MIN_TARGET_D), so its messages stay
    within atanh(0.998) = 3.45."""
    if not buckets:
        return lambda: None
    if buckets[0][3] == "C":
        run = slice(buckets[0][1].start, buckets[-1][1].stop)
        tanh_calls, atanh_calls = [(m_in[run], m_in[run])], [(out[run], out[run])]
        blocks = [(m_in[e].reshape(d, -1), out[e].reshape(d, -1), fac_scale[f])
                  for d, e, f, _ in buckets]
    else:
        # Row-order blocks are strided; tanh transposes each into a
        # contiguous block of out, the products go to m_in's span and
        # atanh transposes them back.
        tanh_calls, atanh_calls, blocks = [], [], []
        for d, e, f, _ in buckets:
            blk, res = out[e].reshape(d, -1), m_in[e].reshape(d, -1)
            tanh_calls.append((m_in[e].reshape((d, -1), order="F"), blk))
            atanh_calls.append((res, out[e].reshape((d, -1), order="F")))
            blocks.append((blk, res, fac_scale[f]))
    ops = [op for blk, res, scale in blocks for op in product_ops(blk, res, scale)]
    # Looked up once per binding, not once per row.
    tanh, multiply, arctanh = np.tanh, np.multiply, np.arctanh

    def update() -> None:
        for x, res in tanh_calls:
            tanh(x, out=res)
        for x, y, res in ops:
            multiply(x, y, res)
        for x, res in atanh_calls:
            arctanh(x, out=res)

    return update


def variable_sums(
    m_in: np.ndarray, edge_var: np.ndarray, n_var: int
) -> np.ndarray:
    """Per-variable sum of incoming check messages."""
    return np.bincount(edge_var, weights=m_in, minlength=n_var)


def row_runs(indptr: np.ndarray) -> tuple[Bucket, ...]:
    """The check kernel's buckets over the CSR rows indptr in row order:
    one (d, edges, factors, "F") per maximal run of consecutive factors of
    equal degree d > 0, in factor order, with the slices of the run's
    edges and factors.  A factor's messages depend on its own edges only,
    so how a degree's factors split into runs changes no bit."""
    degrees = np.diff(indptr)
    # (np.diff with prepend is several times slower.)
    change = np.empty(len(degrees), bool)
    change[:1] = True
    np.not_equal(degrees[1:], degrees[:-1], out=change[1:])
    starts = np.flatnonzero(change)
    ends = [*starts[1:].tolist(), len(degrees)]
    return tuple((d, slice(e0, e1), slice(a, b), "F") for d, e0, e1, a, b in zip(
        degrees[starts].tolist(), indptr[starts].tolist(), indptr[ends].tolist(),
        starts.tolist(), ends) if d > 0)


def slot_major(indptr: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple[Bucket, ...]]:
    """The factors of the CSR rows indptr by ascending degree (stable) and
    their edges in one slot-major block per degree: returns perm (new edge
    -> graph edge), fac_order (new factor -> graph factor) and the blocks'
    buckets, over factors and edges in the new order."""
    degrees = np.diff(indptr)
    # A stable sort of 16-bit keys is a radix sort.
    fac_order = np.argsort(degrees.astype(np.uint16) if degrees.max(initial=0) < 1 << 16
                           else degrees, kind="stable")
    perm, buckets, fac, edge = np.empty(indptr[-1], np.int64), [], 0, 0
    for d, count in enumerate(np.bincount(degrees).tolist()):
        if d and count:
            block = perm[edge : edge + d * count].reshape(d, count)
            np.add(indptr[fac_order[fac : fac + count]], np.arange(d)[:, None], out=block)
            buckets.append((d, slice(edge, edge + d * count), slice(fac, fac + count), "C"))
            edge += d * count
        fac += count
    return perm, fac_order, tuple(buckets)


def peel(
    graph: SparseBipartiteGraph, fac_scale: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """What peeling the hard factors (|fac_scale| == 1, parity target
    fac_scale < 0) fixes: per variable (pinned, bits), bits 0 where not
    pinned, and per factor (free, flip), the count of its variables left
    unpinned and the parity of its pinned bits.  Each round pins the one
    unresolved variable of every hard factor that has exactly one to the
    target XOR its pinned bits, the lowest factor's value where two claim
    it (Luby et al., IEEE T-IT 2001: sum-product with infinite LLRs).  No
    factor may list a variable twice.

    A variable on one factor only is private to it.  A hard factor with a
    private variable can pin only that one, and only once all its others
    are pinned, which changes no other factor.  So the rounds run on the
    factors without one, and the pass over all factors that counts free
    and flip pins the private variables of the factors with one.
    """
    n_var, indptr, indices = graph.n_var, graph.indptr, graph.indices
    degree = np.diff(indptr)
    # Sums over a factor pack counts below 2**shift under sums of indices.
    shift = int(degree.max(initial=0)).bit_length()
    mask = (1 << shift) - 1
    runs = graph.runs
    is_hard, odd = np.abs(fac_scale) == 1.0, fac_scale < 0
    private = np.bincount(indices, minlength=n_var) == 1
    # Per hard factor (its index sum << shift) + its count of private variables.
    acc = row_sums((np.arange(n_var) << shift) + private, indices, indptr,
                   [r for r in runs if is_hard[r[2]].any()])
    n_private = acc & mask
    rounds, deferred = is_hard & (n_private == 0), is_hard & (n_private == 1)
    del private, n_private, is_hard
    # Per variable its bit once pinned, 2 before.
    bits = np.full(n_var, 2, np.int8)

    # The rounds, on the hard rows without a private variable, numbered in
    # order.  Per row acc = (the count of its unresolved variables << top)
    # + (their index sum << shift) + its target + its pinned ones, which
    # at count 1 hold that variable and the bit it takes; per variable its
    # rows of degree 2 or more, var_row[var_end[v] - n_rows[v]:var_end[v]].
    # (A row of degree 1 is in the first round's front and needs no
    # update: it never joins a later front.)
    linked = rounds & (degree > 1)
    var = np.concatenate(
        [indices[e] if linked[f].all() else indices[e].reshape(-1, d)[linked[f]].ravel()
         for d, e, f, _ in runs if d > 1 and linked[f].any()] or [indices[:0]])
    rounds = np.flatnonzero(rounds)
    top = 2 * shift + int(n_var).bit_length() + 1
    left = degree[rounds]
    acc = (left << top) + acc[rounds] + odd[rounds]
    del degree, linked
    # Sorted (var << row_bits | row) keys, 32-bit ones where they fit.
    row_bits = len(rounds).bit_length()
    key_type = np.uint32 if n_var << row_bits <= 1 << 32 else np.uint64
    key = var.astype(key_type) << row_bits | np.arange(len(rounds), dtype=key_type).repeat(
        np.where(left > 1, left, 0))
    var_row = (np.sort(key) & (1 << row_bits) - 1).astype(np.intp)
    del key, left
    n_rows = np.bincount(var, minlength=n_var)
    var_end = np.add.accumulate(n_rows)
    del var
    claim, slot = np.zeros(n_var, np.intp), np.zeros(len(rounds), np.intp)
    front = np.flatnonzero(acc >> top == 1)
    while len(front):
        a = acc[front]
        # hi << shift = (1 << top) + (v << shift), what pinning v takes off
        # each of its rows, with its bit added.
        hi = a >> shift
        v = hi - (1 << top - shift)
        # The lowest row's claim on a variable wins.
        claim[v] = front
        won = claim[v] == front
        if not won.all():
            lost = np.flatnonzero(~won)
            np.minimum.at(claim, v[lost], front[lost])
            won = claim[v] == front
            v, a, hi = v[won], a[won], hi[won]
        b = a & 1
        bits[v] = b
        count = n_rows[v]
        ends = np.add.accumulate(count)
        rows = var_row[(var_end[v] - ends).repeat(count) + np.arange(ends[-1])]
        np.subtract.at(acc, rows, ((hi << shift) - b).repeat(count))
        # The rows left with one unresolved variable, each once.
        rows = rows[acc[rows] >> top == 1]
        at = np.arange(len(rows))
        slot[rows] = at
        front = rows[slot[rows] == at]
    del acc, var_row, n_rows, var_end, claim, slot

    # Per factor ((the index sum of its unpinned variables << shift) +
    # their count) << shift + its count of pinned ones.  A row whose only
    # unpinned variable is private pins it.
    sums = row_sums(np.where(bits > 1, ((np.arange(n_var) << shift) + 1) << shift, bits),
                    indices, indptr, runs)
    free, flip = sums >> shift & mask, (sums & 1).astype(bool)
    ready = np.flatnonzero(deferred & (free == 1))
    own = sums[ready] >> 2 * shift
    bits[own] = odd[ready] ^ flip[ready]
    free[ready], flip[ready] = 0, odd[ready]
    return bits < 2, (bits & 1).astype(np.uint8), free, flip


def row_sums(
    code: np.ndarray, var: np.ndarray, ptr: np.ndarray, runs: Sequence[Bucket] | None = None
) -> np.ndarray:
    """Per CSR row (ptr, var) the int64 sum of code over its variables,
    summed column by column over each of runs (row_runs(ptr) by default,
    or some of them); the rows outside the runs read 0.  A per-run sum is
    a few numpy calls per run, so the rows should make few runs, as
    graphs with their factors sorted by degree do."""
    code = code.astype(np.int64, copy=False)
    sums = np.zeros(len(ptr) - 1, np.int64)
    for d, edges, facs, _ in row_runs(ptr) if runs is None else runs:
        col = code[var[edges]].reshape(-1, d).T
        if d == 1:
            sums[facs] = col[0]
            continue
        out = sums[facs]
        np.add(col[0], col[1], out=out)
        for row in col[2:]:
            out += row
    return sums

