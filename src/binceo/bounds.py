"""Closed-form rate-distortion bounds under the BSC test-channel model,
an exact mutual-information oracle over the enumerated joint pmf, and
constrained test-channel optimization (minimum distortion at a fixed
sum-rate).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .binmath import _check_prob, binary_convolution, binary_entropy

# Optimizer knobs: coarse grid over d1, root-finding for the sum-rate
# constraint in d2, golden-section refinement around every local minimum.
# The optimizer alone imports scipy, inside its functions: bounds and
# simulation load numpy only.
GRID_STEP = 0.005
CONSTRAINT_TOL = 1e-6
REFINE_XTOL = 1e-9
# Finite penalty for infeasible points (any true distortion is <= 1), so
# the scalar minimizer never sees non-finite values.
INFEASIBLE_PENALTY = 2.0

# Axis order of the joint pmf table: (X, Y1, Y2, U1, U2).
AXIS_X, AXIS_Y1, AXIS_Y2, AXIS_U1, AXIS_U2 = range(5)


class InfeasibleRateError(ValueError):
    """No test-channel pair attains the requested sum-rate."""


@dataclass(frozen=True)
class TestChannelPair:
    d1: float
    d2: float

    def __post_init__(self) -> None:
        _check_prob(self.d1, "d1", upper=0.5)
        _check_prob(self.d2, "d2", upper=0.5)


@dataclass(frozen=True)
class RegionPoint:
    """Three rate lower bounds plus the distortion lower bound, in bits."""

    r1: float
    r2: float
    sum_rate: float
    distortion: float


@dataclass(frozen=True)
class OptimumResult:
    pair: TestChannelPair
    distortion: float
    achieved_sum_rate: float


def point_to_point_rate(d: float) -> float:
    """Single-link rate-distortion relation R(d) = 1 - h_b(d)."""
    _check_prob(d, "distortion", upper=0.5)
    return 1.0 - binary_entropy(d)


def bsc_bounds(p1: float, p2: float, tc: TestChannelPair) -> RegionPoint:
    """Closed-form bounds for BSC observation noise and BSC test channels."""
    _check_prob(p1, "p1", upper=0.5)
    _check_prob(p2, "p2", upper=0.5)
    p = binary_convolution(p1, p2)
    d = binary_convolution(tc.d1, tc.d2)
    h_pd = binary_entropy(binary_convolution(p, d))
    h_d1 = binary_entropy(tc.d1)
    h_d2 = binary_entropy(tc.d2)
    return RegionPoint(
        r1=h_pd - h_d1,
        r2=h_pd - h_d2,
        sum_rate=1.0 + h_pd - h_d1 - h_d2,
        distortion=(
            binary_entropy(binary_convolution(p1, tc.d1))
            + binary_entropy(binary_convolution(p2, tc.d2))
            - h_pd
        ),
    )


def _bsc_kernel(crossover: float) -> np.ndarray:
    """2x2 table k[a, b] = Pr{out = b | in = a} for a BSC."""
    c = float(crossover)
    return np.array([[1.0 - c, c], [c, 1.0 - c]])


def enumerate_joint(p1: float, p2: float, d1: float, d2: float) -> np.ndarray:
    """Exact 32-entry joint pmf of (X, Y1, Y2, U1, U2).

    X is uniform, Y_i = X + Bernoulli(p_i), and U_i is the output of a BSC
    test channel with crossover d_i fed with Y_i.
    """
    for name, v in (("p1", p1), ("p2", p2), ("d1", d1), ("d2", d2)):
        _check_prob(v, name)
    ky1 = _bsc_kernel(p1)
    ky2 = _bsc_kernel(p2)
    ku1 = _bsc_kernel(d1)
    ku2 = _bsc_kernel(d2)
    pmf = np.einsum("a,ab,ac,bd,ce->abcde", np.full(2, 0.5), ky1, ky2, ku1, ku2)
    return pmf


def entropy_bits(pmf: np.ndarray) -> float:
    """Shannon entropy (bits) of a probability table of any shape."""
    p = np.asarray(pmf, dtype=float).ravel()
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log2(nz)))


def marginal(pmf: np.ndarray, keep_axes: tuple[int, ...]) -> np.ndarray:
    """Marginal of a joint table over the axes *not* listed in keep_axes."""
    drop = tuple(ax for ax in range(pmf.ndim) if ax not in keep_axes)
    return pmf.sum(axis=drop)


def marginal_entropy(pmf: np.ndarray, keep_axes: tuple[int, ...]) -> float:
    return entropy_bits(marginal(pmf, keep_axes))


def mi_region_oracle(p1: float, p2: float, tc: TestChannelPair) -> RegionPoint:
    """Same region point computed from the exact 32-entry joint pmf.

    r1 = I(Y1;U1|U2), r2 = I(Y2;U2|U1), sum_rate = I(Y1,Y2;U1,U2),
    distortion = H(X|U1,U2), all by direct summation.
    """
    pmf = enumerate_joint(p1, p2, tc.d1, tc.d2)
    H = lambda *axes: marginal_entropy(pmf, axes)
    X, Y1, Y2, U1, U2 = AXIS_X, AXIS_Y1, AXIS_Y2, AXIS_U1, AXIS_U2
    r1 = H(Y1, U2) + H(U1, U2) - H(Y1, U1, U2) - H(U2)
    r2 = H(Y2, U1) + H(U1, U2) - H(Y2, U1, U2) - H(U1)
    sum_rate = H(Y1, Y2) + H(U1, U2) - H(Y1, Y2, U1, U2)
    distortion = H(X, U1, U2) - H(U1, U2)
    return RegionPoint(r1=r1, r2=r2, sum_rate=sum_rate, distortion=distortion)


def _d2_on_constraint(p1: float, p2: float, d1: float, target: float) -> float | None:
    """Solve sum_rate(d1, d2) = target for d2 in [0, 0.5], or None."""
    lo = bsc_bounds(p1, p2, TestChannelPair(d1, 0.5)).sum_rate
    hi = bsc_bounds(p1, p2, TestChannelPair(d1, 0.0)).sum_rate
    if target > hi or target < lo:
        return None
    if target == hi:
        return 0.0
    if target == lo:
        return 0.5
    from scipy.optimize import brentq
    return float(
        brentq(
            lambda d2: bsc_bounds(p1, p2, TestChannelPair(d1, d2)).sum_rate - target,
            0.0, 0.5, xtol=REFINE_XTOL,
        )
    )


def optimize_test_channels(p1: float, p2: float, target_sum_rate: float) -> OptimumResult:
    """Minimize the closed-form distortion at a fixed sum-rate.

    The problem is non-convex, so the search walks a coarse d1 grid along
    the constraint manifold, records every local minimum, refines each by
    bounded golden-section search, and returns the best.
    """
    target = float(target_sum_rate)
    if not 0.0 < target <= 2.0:
        raise ValueError(f"target sum-rate must be in (0, 2], got {target!r}")
    max_rate = bsc_bounds(p1, p2, TestChannelPair(0.0, 0.0)).sum_rate
    if target > max_rate + 1e-12:
        raise InfeasibleRateError(
            f"sum-rate {target} exceeds the maximum {max_rate:.6f} at d1=d2=0"
        )

    def constrained_distortion(d1: float) -> float:
        d2 = _d2_on_constraint(p1, p2, d1, target)
        if d2 is None:
            return INFEASIBLE_PENALTY
        return bsc_bounds(p1, p2, TestChannelPair(d1, d2)).distortion

    grid = np.arange(0.0, 0.5 + GRID_STEP / 2, GRID_STEP)
    vals = np.array([constrained_distortion(d1) for d1 in grid])
    feasible = vals < INFEASIBLE_PENALTY
    if not np.any(feasible):
        raise InfeasibleRateError(f"no (d1, d2) attains sum-rate {target}")

    # Local minima of the gridded profile (plateau-tolerant at the edges).
    candidates: list[int] = []
    for i in np.flatnonzero(feasible):
        left = vals[i - 1] if i > 0 else INFEASIBLE_PENALTY
        right = vals[i + 1] if i < len(vals) - 1 else INFEASIBLE_PENALTY
        if vals[i] <= left and vals[i] <= right:
            candidates.append(i)

    from scipy.optimize import minimize_scalar
    best: OptimumResult | None = None
    for i in candidates:
        lo = grid[max(i - 1, 0)]
        hi = grid[min(i + 1, len(grid) - 1)]
        res = minimize_scalar(
            constrained_distortion,
            bounds=(lo, hi),
            method="bounded",
            options={"xatol": REFINE_XTOL},
        )
        d1 = float(res.x)
        d2 = _d2_on_constraint(p1, p2, d1, target)
        if d2 is None:
            continue
        pair = TestChannelPair(d1, d2)
        point = bsc_bounds(p1, p2, pair)
        cand = OptimumResult(pair, point.distortion, point.sum_rate)
        if best is None or cand.distortion < best.distortion:
            best = cand
    assert best is not None
    if abs(best.achieved_sum_rate - target) > CONSTRAINT_TOL:
        raise InfeasibleRateError(
            f"constraint violated: achieved {best.achieved_sum_rate} vs {target}"
        )
    return best
