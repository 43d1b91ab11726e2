"""Encoder side: bias-propagation LDGM quantization, LDPC syndrome
generation, and the encoder both schemes share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# perfbench's tracer wraps check_messages and variable_sums here, so the
# quantizer calls them by these names.
from ._msgpass import bounded_check_update, check_messages, row_runs, variable_sums
from .binmath import _check_bits, _check_int, _check_prob
from .bounds import TestChannelPair
from .graphs import CompoundCode, LdgmCode, LdpcCode

DECIMATION_BIAS_FLOOR = 1e-9
# LLR magnitude assigned to a decimated (hard-fixed) information bit.
FIXED_LLR = 50.0
# Floor on the design-distortion channel parameter so its LLR stays finite.
MIN_TARGET_D = 1e-3


@dataclass
class QuantizationResult:
    info_bits: np.ndarray
    quantized: np.ndarray
    empirical_distortion: float
    # False whenever a coin decided a bit, even one whose bias was an exact
    # tie (a mixed factor's message cancelling the systematic one), which
    # happens in almost every call at the reference point.
    converged: bool


def bias_propagation_quantize(
    code: LdgmCode,
    y: np.ndarray,
    target_d: float,
    max_iters: int = 25,
    seed: int = 0,
) -> QuantizationResult:
    """Quantize y onto the LDGM codebook by message passing with decimation.

    y is treated as the codeword seen through a BSC(target_d).  Each sweep
    runs one flooding round on the quantizer graph and then hard-fixes the
    most biased undecided information bits; the batch size is chosen so all
    bits are fixed within the sweep budget.  Equal biases go to the lower
    index first.  A chosen bit with a dead bias (below 1e-9) is set by a
    seeded coin flip, drawn in selection order, which also clears the
    converged flag.  The flag is therefore False whenever a coin decided an
    exact tie, which at the reference point is almost every call: it does
    not tell a quantizer that settled from one that did not.

    target_d must lie in [0, 0.5] and floors at MIN_TARGET_D, so every
    channel scale is at most tanh(ln(999) / 2) = 0.998 and every message
    at most atanh(0.998) = 3.45 < HALF_CLAMP.  The sweeps therefore run
    the row-order check update bound once per call
    (_msgpass.bounded_check_update), without a clamp.
    """
    y = np.asarray(y)
    if y.shape != (code.n,):
        raise ValueError(f"observation length {y.shape} does not match n={code.n}")
    _check_bits(y, "y")
    if _check_int(max_iters, "max_iters") < 1:
        raise ValueError("max_iters must be >= 1")
    td = max(_check_prob(target_d, "target_d", upper=0.5), MIN_TARGET_D)
    rng = np.random.default_rng(seed)
    # tanh of the channel half LLR, +-t by the observed bit (tanh is odd).
    t = np.tanh(0.5 * np.log((1.0 - td) / td))
    channel_tanh = np.where(y, -t, t)

    k = code.k
    graph = code.graph
    edge_var = graph.indices
    m_fv = np.zeros(graph.n_edges)
    m_vf = np.empty(graph.n_edges)
    # The systematic outputs lead; their messages never change and are
    # set once here.  The loop runs on half LLRs in the graph's row order,
    # so each variable adds its messages in graph order.
    runs = row_runs(graph.indptr)
    unit = runs[:1] if runs and runs[0][0] == 1 else ()
    p = unit[0][1].stop if unit else 0
    check_messages(np.zeros(p), channel_tanh, unit, out=m_fv)
    buckets = runs[len(unit):]
    check_update = bounded_check_update(m_vf, m_fv, channel_tanh, buckets)
    # The other messages start at 0, so sweep 0's check update sends +-0
    # out of a factor of degree >= 2, and a sum that adds +-0 to +0.0 is
    # unchanged; a degree-1 factor would send atanh of its scale.
    skip_first_update = all(d > 1 for d, *_ in buckets)
    # The edges past the systematic block, viewed once.
    live_var, live_vf, live_fv = edge_var[p:], m_vf[p:], m_fv[p:]
    # Per bit, its fixed LLR plus the messages into it: the bias after a
    # check update, and the total the next sweep's messages leave from.
    total = np.zeros(k)
    fix_llr = np.zeros(k)
    unfixed = np.arange(k)
    converged = True

    for sweep in range(max_iters):
        if len(unfixed) == 0:
            break
        if sweep or not skip_first_update:
            # Unclipped: only their tanh is read, and float64 tanh is
            # exactly +-1 from 19.06 up, so a clip at a fixed bit's 25
            # would change no tanh.
            np.take(total, live_var, out=live_vf, mode="wrap")
            np.subtract(live_vf, live_fv, out=live_vf)
            check_update()
        total = variable_sums(m_fv, edge_var, k)
        total += fix_llr

        batch = -(-len(unfixed) // (max_iters - sweep))  # ceil division
        mag = np.take(total, unfixed)
        np.abs(mag, out=mag)
        pick, cut = _strongest(mag, batch)
        # A dead bias is chosen only if the cut is dead; then the batch is
        # put in selection order, in which its coins are drawn.
        dead_cut = cut < DECIMATION_BIAS_FLOOR / 2
        chosen = _most_biased(unfixed, mag, batch) if dead_cut else unfixed[pick]
        bias = total[chosen]
        values = bias < 0
        # Otherwise every chosen |bias| is at least the cut, so none is dead.
        if dead_cut and (dead := np.abs(bias) < DECIMATION_BIAS_FLOOR / 2).any():
            values[dead] = rng.integers(0, 2, size=int(dead.sum()), dtype=np.int8)
            converged = False
        keep = np.ones(len(unfixed), bool)
        keep[pick] = False
        unfixed = unfixed[keep]
        llr = np.where(values, -FIXED_LLR / 2, FIXED_LLR / 2)
        fix_llr[chosen] = llr
        total[chosen] = bias + llr

    info = (fix_llr < 0).astype(np.uint8)
    quantized = code.encode(info)
    distortion = float(np.mean(quantized != y))
    return QuantizationResult(
        info_bits=info,
        quantized=quantized,
        empirical_distortion=distortion,
        converged=converged,
    )


def _strongest(mag: np.ndarray, batch: int) -> tuple[np.ndarray, float]:
    """The positions of the batch largest entries of mag, ties to the lower
    position, ascending, and the batch-th largest entry.

    A partition finds the batch-th largest magnitude; every entry at least
    as large is taken, less the highest-positioned entries equal to it
    beyond the batch.
    """
    kth = len(mag) - batch
    cut = np.partition(mag, kth)[kth]
    pick = np.flatnonzero(mag >= cut)
    surplus = len(pick) - batch
    if surplus:
        tied = np.flatnonzero(mag[pick] == cut)
        pick = np.delete(pick, tied[-surplus:])
    return pick, cut


def _most_biased(unfixed: np.ndarray, mag: np.ndarray, batch: int) -> np.ndarray:
    """The batch entries of unfixed (ascending) with the largest mag, most
    biased first and ties to the lower index.

    Equal to unfixed[np.lexsort((unfixed, -mag))[:batch]], but sorts only
    the chosen entries.
    """
    pick, _ = _strongest(mag, batch)
    return unfixed[pick[np.lexsort((pick, -mag[pick]))]]


def syndrome_generate(code: LdpcCode, u: np.ndarray) -> np.ndarray:
    """s_i = mod-2 sum of u over the variables adjacent to check i."""
    return code.syndrome(u)


def encode(
    cc1: CompoundCode,
    cc2: CompoundCode,
    y1: np.ndarray,
    y2: np.ndarray,
    targets: TestChannelPair,
    seed: int = 0,
    biasprop_sweeps: int = 25,
) -> tuple[np.ndarray, np.ndarray, QuantizationResult, QuantizationResult]:
    """Quantize both observations and emit each link's LDPC syndrome.

    Returns (syndrome1, syndrome2, q1, q2).  A code without checks (successive
    link 2) gives an empty syndrome: that link sends q.info_bits, which the
    receiver re-encodes to u exactly, so its rate is k/n.
    """
    s1, s2 = (int(s) for s in np.random.SeedSequence(seed).generate_state(2))
    q1 = bias_propagation_quantize(cc1.ldgm, y1, targets.d1, biasprop_sweeps, seed=s1)
    q2 = bias_propagation_quantize(cc2.ldgm, y2, targets.d2, biasprop_sweeps, seed=s2)
    return (syndrome_generate(cc1.ldpc, q1.quantized),
            syndrome_generate(cc2.ldpc, q2.quantized), q1, q2)


# perfbench/layers.py wraps both names in harness, so they stay.
encode_joint = encode_successive = encode
