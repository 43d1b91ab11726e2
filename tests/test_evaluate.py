import numpy as np
import pytest

from binceo.bounds import TestChannelPair, bsc_bounds
from binceo.evaluate import (
    CSV_COLUMNS,
    CSV_SCHEMA,
    csv_header,
    empirical_rates_joint,
    empirical_rates_successive,
    report_run,
    summary_row,
)


def _dummy_report(trial=0, loss_shift=0.0):
    rng = np.random.default_rng(trial)
    n = 500
    x = rng.integers(0, 2, n, dtype=np.uint8)
    recons = np.clip(0.5 + 0.1 * (x - 0.5) * 2 + loss_shift, 0.01, 0.99)
    tc = TestChannelPair(0.1, 0.1)
    u = rng.integers(0, 2, n, dtype=np.uint8)
    return report_run(
        "joint", trial, x, recons, (0.55, 0.55), tc, 0.15, 0.15,
        u, u, u, u ^ 1, seeds=f"base=0;trial={trial}",
    )


def test_report_run_gap_arithmetic():
    rep = _dummy_report()
    theo = bsc_bounds(0.15, 0.15, TestChannelPair(0.1, 0.1))
    assert rep.empirical_sum_rate == pytest.approx(1.10)
    assert rep.sum_rate_gap == pytest.approx(1.10 - theo.sum_rate)
    assert rep.distortion_gap == pytest.approx(rep.empirical_log_loss - theo.distortion)
    assert rep.ber_u1 == 0.0
    assert rep.ber_u2 == 1.0


def test_csv_header_carries_schema_tag():
    header = csv_header()
    assert header.startswith(f"# schema={CSV_SCHEMA}\n")
    assert header.splitlines()[1] == ",".join(CSV_COLUMNS)


def test_csv_row_roundtrip():
    rep = _dummy_report(trial=3)
    row = dict(zip(CSV_COLUMNS, rep.csv_row().split(","), strict=True))
    assert row["scheme"] == rep.scheme
    assert int(row["trial"]) == rep.trial
    # repr() is lossless
    assert float(row["empirical_log_loss"]) == rep.empirical_log_loss
    assert float(row["sum_rate_gap"]) == rep.sum_rate_gap
    assert row["seeds"] == rep.seeds
    # csv_row writes non-strings by repr, which is lossless and bare only
    # for Python scalars (numpy's own scalars repr as np.float64(...)).
    values = [getattr(rep, c) for c in CSV_COLUMNS if not c.startswith("bound_")]
    values += [rep.theoretical.sum_rate, rep.theoretical.distortion]
    assert {type(v) for v in values} <= {int, float, str}


def test_below_bound_flag():
    rep = _dummy_report()
    assert not rep.below_bound_flag
    rep.empirical_log_loss = rep.theoretical.distortion - 0.05
    assert rep.below_bound_flag


def test_summary_row_shape():
    reports = [_dummy_report(trial=t) for t in range(3)]
    row = summary_row("joint", reports)
    parts = row.split(",")
    assert len(parts) == len(CSV_COLUMNS)
    assert parts[0] == "joint-summary"
    assert parts[1] == "-1"
    assert parts[-1].startswith("std_loss=")


def test_empirical_rate_helpers():
    assert empirical_rates_joint(550, 560, 1000) == (0.55, 0.56)
    assert empirical_rates_successive(550, 558, 1000) == (0.55, 0.558)
