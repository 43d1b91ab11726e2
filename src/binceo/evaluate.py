"""Empirical rate/distortion bookkeeping and gap-to-bound computation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .binmath import ChainParams, average_log_loss
from .bounds import RegionPoint, TestChannelPair, bsc_bounds
from .decoders import DecodeResult

CSV_SCHEMA = "binceo-run-v1"

CSV_COLUMNS = (
    "scheme",
    "trial",
    "n",
    "empirical_r1",
    "empirical_r2",
    "empirical_sum_rate",
    "empirical_log_loss",
    "bound_sum_rate",
    "bound_distortion",
    "sum_rate_gap",
    "distortion_gap",
    "ber_u1",
    "ber_u2",
    "seeds",
)

# Empirical log-loss this far below the bound is flagged as suspicious
# rather than celebrated: it can only happen through Monte Carlo noise.
BELOW_BOUND_FLAG_MARGIN = 0.01


@dataclass
class RunReport:
    scheme: str
    trial: int
    n: int
    empirical_r1: float
    empirical_r2: float
    empirical_sum_rate: float
    empirical_log_loss: float
    theoretical: RegionPoint
    sum_rate_gap: float
    distortion_gap: float
    ber_u1: float
    ber_u2: float
    seeds: str
    # Decoder outcome of each decoded link, keyed by link number (successive
    # link 2 sends its information bits and is not decoded).  Not part of the
    # v1 CSV row.  live_edges * iterations_used is the decode's work.
    syndrome_satisfied: dict[int, bool]
    iterations_used: dict[int, int]
    pinned: dict[int, int]
    live_edges: dict[int, int]

    @property
    def below_bound_flag(self) -> bool:
        return (
            self.empirical_log_loss
            < self.theoretical.distortion - BELOW_BOUND_FLAG_MARGIN
        )

    def csv_row(self) -> str:
        # Every non-string value is a Python int or float, so repr is lossless.
        vals = {**vars(self), "bound_sum_rate": self.theoretical.sum_rate,
                "bound_distortion": self.theoretical.distortion}
        return ",".join(vals[c] if isinstance(vals[c], str) else repr(vals[c])
                        for c in CSV_COLUMNS)


def empirical_rates_joint(m1: int, m2: int, n: int) -> tuple[float, float]:
    return m1 / n, m2 / n


def empirical_rates_successive(m1: int, k2: int, n: int) -> tuple[float, float]:
    return m1 / n, k2 / n


def report_run(
    scheme: str,
    trial: int,
    x: np.ndarray,
    recons: np.ndarray,
    rates: tuple[float, float],
    tc: TestChannelPair,
    p1: float,
    p2: float,
    u1_hat: np.ndarray,
    u1_true: np.ndarray,
    u2_hat: np.ndarray,
    u2_true: np.ndarray,
    seeds: str = "",
    decoded: dict[int, DecodeResult] | None = None,
) -> RunReport:
    """Assemble a RunReport for one completed trial.

    BERs compare decoded words against the true quantized words; the
    theoretical reference point is the closed-form bound at the design
    test channels.  decoded maps each decoded link to its DecodeResult.
    """
    decoded = decoded or {}
    n = len(x)
    loss = average_log_loss(recons, x)
    theo = bsc_bounds(p1, p2, tc)
    r1, r2 = rates
    return RunReport(
        scheme=scheme,
        trial=trial,
        n=n,
        empirical_r1=r1,
        empirical_r2=r2,
        empirical_sum_rate=r1 + r2,
        empirical_log_loss=loss,
        theoretical=theo,
        sum_rate_gap=(r1 + r2) - theo.sum_rate,
        distortion_gap=loss - theo.distortion,
        ber_u1=float(np.mean(np.asarray(u1_hat) != np.asarray(u1_true))),
        ber_u2=float(np.mean(np.asarray(u2_hat) != np.asarray(u2_true))),
        seeds=seeds,
        syndrome_satisfied={k: r.syndrome_satisfied for k, r in decoded.items()},
        iterations_used={k: r.iterations_used for k, r in decoded.items()},
        pinned={k: r.pinned for k, r in decoded.items()},
        live_edges={k: r.live_edges for k, r in decoded.items()},
    )


def csv_header() -> str:
    return f"# schema={CSV_SCHEMA}\n" + ",".join(CSV_COLUMNS)


def summary_row(scheme: str, reports: list[RunReport]) -> str:
    """Mean/std summary over the trial rows of one scheme, as trial -1."""
    mean = {k: float(np.mean([getattr(r, k) for r in reports])) for k in (
        "empirical_r1", "empirical_r2", "empirical_sum_rate", "empirical_log_loss",
        "ber_u1", "ber_u2")}
    theo = reports[0].theoretical
    return RunReport(
        scheme=f"{scheme}-summary", trial=-1, n=reports[0].n, theoretical=theo, **mean,
        sum_rate_gap=mean["empirical_sum_rate"] - theo.sum_rate,
        distortion_gap=mean["empirical_log_loss"] - theo.distortion,
        seeds=f"std_loss={np.std([r.empirical_log_loss for r in reports]):.6g}",
        syndrome_satisfied={}, iterations_used={}, pinned={}, live_edges={}).csv_row()
