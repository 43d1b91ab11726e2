"""Scalar information-theoretic kernels for the two-link binary CEO pipeline.

All rates and losses are in bits (log base 2).  Soft reconstructions are
represented as plain floats / float arrays holding the probability assigned
to symbol 1.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

# Probability assignments below this value are clamped before taking logs,
# so a decoder that assigns (numerically) zero mass to the realized symbol
# yields a large but finite loss.
LOG_LOSS_EPS = 1e-12


def _check_prob(value: float, name: str = "probability", upper: float = 1.0) -> float:
    value = float(value)
    if not 0.0 <= value <= upper:
        raise ValueError(f"{name} must be in [0, {upper}], got {value!r}")
    return value


def _check_int(value, name: str) -> int:
    """value as an int, if it is an integer; a bool or another number is
    an error that names it."""
    # A bool is an Integral, but True is no count.
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_bits(bits: np.ndarray, name: str) -> None:
    if ((bits != 0) & (bits != 1)).any():
        raise ValueError(f"{name} must hold bits (0 or 1) only")


def binary_entropy(q: float) -> float:
    """h_b(q) in bits, with the convention 0*log2(0) = 0."""
    q = _check_prob(q, "entropy argument")
    if q == 0.0 or q == 1.0:
        return 0.0
    return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)


def binary_convolution(a: float, b: float) -> float:
    """Crossover probability of two cascaded BSCs: a(1-b) + b(1-a)."""
    a = _check_prob(a, "crossover a")
    b = _check_prob(b, "crossover b")
    return a * (1.0 - b) + b * (1.0 - a)


@dataclass(frozen=True)
class ChainParams:
    """Crossover probabilities along the chain U1 - Y1 - X - Y2 - U2.

    Each parameter is the crossover of one BSC edge; all must lie in
    [0, 0.5] (the canonical form, values above 0.5 are rejected rather
    than flipped).
    """

    d1: float
    p1: float
    p2: float
    d2: float

    def __post_init__(self) -> None:
        for name in ("d1", "p1", "p2", "d2"):
            _check_prob(getattr(self, name), name, upper=0.5)

    @property
    def x_to_u1(self) -> float:
        """End-to-end crossover of the X -> Y1 -> U1 cascade."""
        return binary_convolution(self.p1, self.d1)

    @property
    def x_to_u2(self) -> float:
        return binary_convolution(self.p2, self.d2)

    @property
    def u1_to_u2(self) -> float:
        """End-to-end crossover between the two quantized sequences."""
        return binary_convolution(self.x_to_u1, self.x_to_u2)


def chain_posterior(params: ChainParams, u1: int, u2: int) -> float:
    """Pr{X = 1 | U1 = u1, U2 = u2} under a uniform prior on X.

    The chain reduces to two independent BSCs from X to U1 and from X to U2
    with crossovers conv(p1, d1) and conv(p2, d2).
    """
    if u1 not in (0, 1) or u2 not in (0, 1):
        raise ValueError(f"u1/u2 must be bits, got {u1!r}, {u2!r}")
    a = params.x_to_u1
    b = params.x_to_u2
    like1_x1 = 1.0 - a if u1 == 1 else a
    like1_x0 = a if u1 == 1 else 1.0 - a
    like2_x1 = 1.0 - b if u2 == 1 else b
    like2_x0 = b if u2 == 1 else 1.0 - b
    num = like1_x1 * like2_x1
    den = num + like1_x0 * like2_x0
    return num / den


def chain_posterior_table(params: ChainParams) -> np.ndarray:
    """2x2 table t[u1, u2] = Pr{X = 1 | u1, u2} for vectorized lookups."""
    table = np.empty((2, 2))
    for u1 in (0, 1):
        for u2 in (0, 1):
            table[u1, u2] = chain_posterior(params, u1, u2)
    return table


def log_loss(prob_of_one: float, x: int) -> float:
    """Logarithmic loss (bits) of a soft reconstruction against symbol x."""
    if x not in (0, 1):
        raise ValueError(f"source symbol must be a bit, got {x!r}")
    q = prob_of_one if x == 1 else 1.0 - prob_of_one
    q = min(max(q, LOG_LOSS_EPS), 1.0)
    return -math.log2(q)


def average_log_loss(prob_of_one: np.ndarray, source: np.ndarray) -> float:
    """Mean symbol-wise log loss of soft reconstructions against a source."""
    prob_of_one = np.asarray(prob_of_one, dtype=float)
    source = np.asarray(source)
    if prob_of_one.shape != source.shape:
        raise ValueError(
            f"length mismatch: {prob_of_one.shape} reconstructions "
            f"vs {source.shape} source symbols"
        )
    if prob_of_one.size == 0:
        raise ValueError("need at least one symbol")
    _check_bits(source, "source")
    q = np.where(source == 1, prob_of_one, 1.0 - prob_of_one)
    q = np.clip(q, LOG_LOSS_EPS, 1.0)
    return float(np.mean(-np.log2(q)))
