"""Encoder side: bias-propagation LDGM quantization, LDPC syndrome
generation, and the per-scheme encoder pipelines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._msgpass import check_messages, hoist_unit_block, row_runs, variable_sums
from .binmath import _check_bits
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
    """
    y = np.asarray(y)
    if y.shape != (code.n,):
        raise ValueError(f"observation length {y.shape} does not match n={code.n}")
    _check_bits(y, "y")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    rng = np.random.default_rng(seed)
    td = min(max(float(target_d), MIN_TARGET_D), 0.5)
    # tanh of the channel half LLR, +-t by the observed bit (tanh is odd).
    t = np.tanh(0.5 * np.log((1.0 - td) / td))
    channel_tanh = np.where(y, -t, t)

    k = code.k
    graph = code.graph
    edge_var = graph.indices
    m_fv = np.zeros(graph.n_edges)
    # The systematic outputs lead; their messages never change.  The loop
    # runs on half LLRs in the graph's row order, so each variable adds its
    # messages in graph order.
    p, buckets = hoist_unit_block(row_runs(graph.indptr), channel_tanh, m_fv)
    # The other messages start at 0, so sweep 0's check update sends +-0
    # out of a factor of degree >= 2, and a sum that adds +-0 to +0.0 is
    # unchanged; a degree-1 factor would send atanh of its scale.
    skip_first_update = all(d > 1 for d, *_ in buckets)
    m_vf = np.empty(graph.n_edges)
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
            np.take(total, edge_var[p:], out=m_vf[p:], mode="wrap")
            m_vf[p:] -= m_fv[p:]
            check_messages(m_vf, channel_tanh, buckets, out=m_fv)
        total = variable_sums(m_fv, edge_var, k)
        total += fix_llr

        batch = -(-len(unfixed) // (max_iters - sweep))  # ceil division
        mag = np.abs(total[unfixed])
        pick, cut = _strongest(mag, batch)
        # A dead bias is chosen only if the cut is dead; then the batch is
        # put in selection order, in which its coins are drawn.
        chosen = (_most_biased(unfixed, mag, batch) if cut < DECIMATION_BIAS_FLOOR / 2
                  else unfixed[pick])
        unfixed = np.delete(unfixed, pick)
        values = total[chosen] < 0
        dead = np.abs(total[chosen]) < DECIMATION_BIAS_FLOOR / 2
        if np.any(dead):
            values[dead] = rng.integers(0, 2, size=int(dead.sum()), dtype=np.int8)
            converged = False
        llr = np.where(values, -FIXED_LLR / 2, FIXED_LLR / 2)
        fix_llr[chosen] = llr
        total[chosen] += llr

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
    position, in no set order, and the batch-th largest entry.

    A partition finds the batch-th largest magnitude; every entry above it
    is taken, then the lowest-positioned entries equal to it.
    """
    kth = len(mag) - batch
    cut = np.partition(mag, kth)[kth]
    above = np.flatnonzero(mag > cut)
    tied = np.flatnonzero(mag == cut)[: batch - len(above)]
    return np.concatenate([above, tied]), cut


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


def _quantizer_seeds(seed: int) -> tuple[int, int]:
    state = np.random.SeedSequence(seed).generate_state(2)
    return int(state[0]), int(state[1])


def encode_joint(
    cc1: CompoundCode,
    cc2: CompoundCode,
    y1: np.ndarray,
    y2: np.ndarray,
    targets: TestChannelPair,
    seed: int = 0,
    biasprop_sweeps: int = 25,
) -> tuple[np.ndarray, np.ndarray, QuantizationResult, QuantizationResult]:
    """Quantize both observations, emit both LDPC syndromes (Fig-2 style).

    Returns (syndrome1, syndrome2, q1, q2).
    """
    s1, s2 = _quantizer_seeds(seed)
    q1 = bias_propagation_quantize(cc1.ldgm, y1, targets.d1, biasprop_sweeps, seed=s1)
    q2 = bias_propagation_quantize(cc2.ldgm, y2, targets.d2, biasprop_sweeps, seed=s2)
    return (syndrome_generate(cc1.ldpc, q1.quantized),
            syndrome_generate(cc2.ldpc, q2.quantized), q1, q2)


def encode_successive(
    cc1: CompoundCode,
    ldgm2: LdgmCode,
    y1: np.ndarray,
    y2: np.ndarray,
    targets: TestChannelPair,
    seed: int = 0,
    biasprop_sweeps: int = 25,
) -> tuple[np.ndarray, QuantizationResult, QuantizationResult]:
    """Link 1 emits a syndrome; link 2 emits its quantizer information bits.

    Returns (syndrome1, q1, q2).  Link 2 sends q2.info_bits; the receiver
    reconstructs u2 exactly by re-encoding them, so the link-2 rate is k2/n.
    """
    s1, s2 = _quantizer_seeds(seed)
    q1 = bias_propagation_quantize(cc1.ldgm, y1, targets.d1, biasprop_sweeps, seed=s1)
    q2 = bias_propagation_quantize(ldgm2, y2, targets.d2, biasprop_sweeps, seed=s2)
    return syndrome_generate(cc1.ldpc, q1.quantized), q1, q2
