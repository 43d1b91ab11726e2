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
clamp runs once over the run.  The decoders' loop runs the same "C"
update as bounded_check_update, on views built once per decode and
without the clamp: its inputs are clipped and its scales lie in
[-1, 1], so no message can reach the clamp.  Each edge's leave-one-out
product is its prefix product times its suffix product along the slots
(the standard tanh-rule layout, Richardson & Urbanke, Modern Coding
Theory, 2008), so exact zeros need no special case.  The factor term
that is never left out (syndrome sign, quantizer channel tanh, coupling
1 - 2q) is one scale per factor, multiplied into a block as one row
broadcast.  The decoders first peel the hard factors (scale +-1), fold
the leaves left into their factors' scales and lay out only the
residual graph of the other variables.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

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


def leave_one_out_products(blk: np.ndarray, res: np.ndarray) -> None:
    """Write into res[j] the product of blk's rows other than row j, for a
    (d, n) block whose row j holds slot j of n factors (res is not blk)."""
    d = len(blk)
    if d < 3:
        # Row by row: assigning a row-reversed "F" view buffers a copy.
        res[0] = blk[1] if d == 2 else 1.0
        if d == 2:
            res[1] = blk[0]
        return
    # res[j] = prod(blk[:j]) * prod(blk[j + 1:]): the prefix products run
    # forward from blk[0], then the suffix products backward from blk[d - 1],
    # in res[0] until it is its own; 3d - 6 multiplies and no copy.
    for j in range(2, d):
        np.multiply(res[j - 1] if j > 2 else blk[0], blk[j - 1], out=res[j])
    for j in range(d - 2, 0, -1):
        suffix = res[0] if j < d - 2 else blk[d - 1]
        np.multiply(res[j] if j > 1 else blk[0], suffix, out=res[j])
        np.multiply(suffix, blk[j], out=res[0])


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
    scale are allowed: every message is clamped to +-HALF_CLAMP, and
    atanh(+-1) = +-inf is left to that clamp without a divide warning.
    For bounded inputs the clamp cannot act (bounded_check_update).
    """
    scratch = np.empty_like(m_in) if out is None else m_in
    out = np.empty_like(m_in) if out is None else out
    if not buckets:
        return out
    run = slice(buckets[0][1].start, buckets[-1][1].stop)
    # |scale * product| <= 1, and atanh(+-1) = +-inf is clamped to +-HALF_CLAMP.
    with np.errstate(divide="ignore"):
        if buckets[0][3] == "C":
            if scratch is not m_in:
                scratch[run] = m_in[run]
            bounded_check_update(scratch, out, fac_scale, buckets)()
        else:
            # Row-order blocks are strided; tanh transposes each into a
            # contiguous block of out and atanh transposes it back.
            for d, edges, facs, _ in buckets:
                blk, res = out[edges].reshape(d, -1), scratch[edges].reshape(d, -1)
                np.tanh(m_in[edges].reshape((d, -1), order="F"), out=blk)
                leave_one_out_products(blk, res)
                res *= fac_scale[facs]
                np.arctanh(res, out=out[edges].reshape((d, -1), order="F"))
    np.clip(out[run], -HALF_CLAMP, HALF_CLAMP, out=out[run])
    return out


def bounded_check_update(
    m_in: np.ndarray, out: np.ndarray, fac_scale: np.ndarray, buckets: tuple[Bucket, ...]
) -> Callable[[], None]:
    """check_messages(m_in, fac_scale, buckets, out=out) on slot-major
    buckets, without the clamp, as a function that runs it on the current
    values of m_in and out through views built here once; m_in is spent
    as the tanh buffer.

    The clamp cannot act when every |m_in| <= HALF_CLAMP and every
    |fac_scale| <= 1: each |tanh| <= T = tanh(HALF_CLAMP), and a product
    of floats of magnitude <= 1 rounds to no more than any of them, so a
    factor of degree 2 or more sends at most atanh(T) = 14.99992.  A
    degree-1 factor sends atanh(scale) and needs |scale| <= T; the
    decoders set those messages once (hoist_unit_block)."""
    if not buckets:
        return lambda: None
    run = slice(buckets[0][1].start, buckets[-1][1].stop)
    tanh_run, msg_run = m_in[run], out[run]
    blocks = [(m_in[edges].reshape(d, -1), out[edges].reshape(d, -1), fac_scale[facs])
              for d, edges, facs, _ in buckets]

    def update() -> None:
        np.tanh(tanh_run, out=tanh_run)
        for blk, res, scale in blocks:
            leave_one_out_products(blk, res)
            res *= scale
        np.arctanh(msg_run, out=msg_run)

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
    starts = np.flatnonzero(np.diff(degrees, prepend=-1)).tolist()
    return tuple((int(degrees[a]), slice(int(indptr[a]), int(indptr[b])), slice(a, b), "F")
                 for a, b in zip(starts, starts[1:] + [len(degrees)]) if degrees[a] > 0)


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
    n_var, degree = graph.n_var, np.diff(graph.indptr)
    # Sums over a factor pack counts below 2**shift under sums of indices.
    shift = int(degree.max(initial=0)).bit_length()
    mask = (1 << shift) - 1
    # The hard factors' rows, numbered in order.
    is_hard = np.abs(fac_scale) == 1.0
    hard = np.flatnonzero(is_hard)
    var = graph.indices
    if len(hard) < graph.n_fac:
        # The edges of each run of consecutive hard rows.
        run = graph.indptr[np.flatnonzero(np.diff(is_hard, prepend=False, append=False))]
        var = np.concatenate([var[:0]] + [var[a:b] for a, b in run.reshape(-1, 2)])
    odd, degree = fac_scale[hard] < 0, degree[hard]
    private = np.bincount(graph.indices, minlength=n_var) == 1
    # Per row (its index sum << shift) + its count of private variables.
    acc = row_sums((np.arange(n_var) << shift) + private, var,
                   np.concatenate(([0], np.cumsum(degree))))
    n_private = acc & mask
    rounds, deferred = n_private == 0, n_private == 1
    del n_private, private
    if not rounds.all():
        var = np.compress(np.repeat(rounds, degree), var)
    pinned, bits = np.zeros(n_var, bool), np.zeros(n_var, np.uint8)

    # The rounds, on the rows without a private variable.  Per row the
    # count of its unresolved variables, and acc = (their index sum <<
    # shift) + its target + its pinned ones, which at count 1 hold that
    # variable and the bit it takes; per variable its rows,
    # var_row[var_end[v] - n_rows[v]:var_end[v]].
    acc += odd
    left = np.where(rounds, degree, 0)
    del degree, rounds
    # Sorted (var << row_bits | row) keys, 32-bit ones where they fit.
    row_bits = len(hard).bit_length()
    key_type = np.uint32 if n_var << row_bits <= 1 << 32 else np.uint64
    key = var.astype(key_type) << row_bits | np.repeat(np.arange(len(hard), dtype=key_type), left)
    var_row = (np.sort(key) & (1 << row_bits) - 1).astype(np.intp)
    del key
    n_rows = np.bincount(var, minlength=n_var)
    var_end = np.cumsum(n_rows)
    del var
    claim, slot = np.zeros(n_var, np.int32), np.zeros(len(hard), np.int32)
    front = np.flatnonzero(left == 1)
    while len(front):
        a = acc[front]
        v = a >> shift
        # The lowest row's claim on a variable wins.
        claim[v] = front
        won = claim[v] == front
        if not won.all():
            lost = np.flatnonzero(~won)
            np.minimum.at(claim, v[lost], front[lost].astype(np.int32))
            won = np.flatnonzero(claim[v] == front)
            v, a = v[won], a[won]
        b = a & 1
        pinned[v], bits[v] = True, b
        count = n_rows[v]
        ends = np.cumsum(count)
        rows = var_row[np.repeat(var_end[v] - ends, count) + np.arange(ends[-1])]
        np.subtract.at(left, rows, 1)
        np.subtract.at(acc, rows, np.repeat((v << shift) - b, count))
        # The rows left with one unresolved variable, each once.
        rows = np.compress(left[rows] == 1, rows)
        at = np.arange(len(rows))
        slot[rows] = at
        front = rows[slot[rows] == at]
    del acc, left, var_row, n_rows, var_end, claim, slot

    # Per factor ((the index sum of its unpinned variables << shift) +
    # their count) << shift + its count of pinned ones.  A row whose only
    # unpinned variable is private pins it.
    sums = row_sums(np.where(pinned, bits, ((np.arange(n_var) << shift) + 1) << shift),
                    graph.indices, graph.indptr)
    row = np.flatnonzero(deferred & (sums[hard] >> shift & mask == 1))
    ready = hard[row]
    own = sums[ready] >> 2 * shift
    pinned[own], bits[own] = True, (odd[row] ^ sums[ready]) & 1
    free, flip = sums >> shift & mask, (sums & 1).astype(bool)
    free[ready], flip[ready] = 0, odd[row]
    return pinned, bits, free, flip


def row_sums(code: np.ndarray, var: np.ndarray, ptr: np.ndarray) -> np.ndarray:
    """Per CSR row (ptr, var) the int64 sum of code over its variables.
    The running total may wrap; a row's sum is exact when it fits."""
    total = np.zeros(len(var) + 1, np.int64)
    # In range, var never wraps; "wrap" fills total without a buffer.
    np.take(code.astype(np.int64, copy=False), var, out=total[1:], mode="wrap")
    np.cumsum(total, out=total)
    sums = total[ptr[1:]]
    sums -= total[ptr[:-1]]
    return sums


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
