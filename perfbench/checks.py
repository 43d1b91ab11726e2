"""Output checks run on every benchmark run.  Each returns a list of
failure messages; an empty list means the check passed.
"""

from __future__ import annotations

import math

from layers import Trial

SCHEMA_LINE = "# schema=binceo-run-v1"
NUMERIC_COLUMNS = range(3, 13)  # empirical_r1 .. ber_u2
BOUND_ORACLE_TOL = 1e-9
SUMMARY_TOL = 1e-12


def check_csv(text: str, n: int, reports: list) -> list[str]:
    """Schema line, one row per recorded trial report, and a summary row
    equal to the mean of its trial rows."""
    from binceo.evaluate import CSV_COLUMNS

    lines = text.rstrip("\n").split("\n")
    if lines[0] != SCHEMA_LINE:
        return [f"first CSV line is {lines[0]!r}, expected {SCHEMA_LINE!r}"]
    if lines[1] != ",".join(CSV_COLUMNS):
        return ["CSV column header differs from binceo.evaluate.CSV_COLUMNS"]
    rows = [line.split(",") for line in lines[2:]]
    errors = []
    body, summary = rows[:-1], rows[-1]
    if len(body) != len(reports) or not summary[0].endswith("-summary"):
        return [f"expected {len(reports)} trial rows and a summary row, got {len(rows)} rows"]
    if lines[2:-1] != [r.csv_row() for r in reports]:
        errors.append("CSV trial rows differ from the trials' RunReport rows")
    for row in body:
        if int(row[2]) != n:
            errors.append(f"trial {row[1]}: n={row[2]}, expected {n}")
    for col in NUMERIC_COLUMNS:
        mean = math.fsum(float(r[col]) for r in body) / len(body)
        got = float(summary[col])
        if not math.isclose(got, mean, rel_tol=SUMMARY_TOL, abs_tol=SUMMARY_TOL):
            errors.append(f"summary {CSV_COLUMNS[col]}={got!r} != trial mean {mean!r}")
    return errors


def check_bound(p1: float, p2: float, d1: float, d2: float) -> list[str]:
    """The closed-form bound equals the mutual-information oracle."""
    from binceo.bounds import TestChannelPair, bsc_bounds, mi_region_oracle

    tc = TestChannelPair(d1, d2)
    closed, oracle = bsc_bounds(p1, p2, tc), mi_region_oracle(p1, p2, tc)
    return [f"bsc_bounds.{k}={getattr(closed, k)!r} != oracle {getattr(oracle, k)!r}"
            for k in ("r1", "r2", "sum_rate", "distortion")
            if abs(getattr(closed, k) - getattr(oracle, k)) > BOUND_ORACLE_TOL]


def check_trial(t: Trial, scheme: str) -> list[str]:
    """Rates match the built codes, and no log-loss falls below the bound."""
    r = t.report
    where = f"{scheme} trial {r.trial} ({r.seeds})"
    errors = []
    if r.empirical_sum_rate != r.empirical_r1 + r.empirical_r2:
        errors.append(f"{where}: empirical_sum_rate != r1 + r2")
    if r.below_bound_flag:
        errors.append(f"{where}: below_bound_flag set")
    # Joint: both links send an LDPC syndrome, r_i = m_i / n.  Successive:
    # link 2 sends the information bits of the second code built, r2 = k2 / n.
    if len(t.codes) != 2:
        return errors + [f"{where}: {len(t.codes)} codes built, expected 2"]
    c1, c2 = t.codes
    r2_code = c2["m"] / c2["n"] if scheme == "joint" else c2["k"] / c2["n"]
    if (r.empirical_r1, r.empirical_r2) != (c1["m"] / c1["n"], r2_code):
        errors.append(f"{where}: rates ({r.empirical_r1}, {r.empirical_r2}) differ "
                      f"from the built codes ({c1['m'] / c1['n']}, {r2_code})")
    return errors
