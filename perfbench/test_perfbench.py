"""Self-test of the benchmark's own arithmetic and plumbing at tiny n.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
from types import SimpleNamespace

import pytest

import run
from checks import check_csv
from layers import (LIGHT_TARGETS, TRACE_TARGETS, Trial, failed_share, layer_metrics,
                    link_ok_share, ns_per_edge, trial_times, trials)
from tracing import Span, covered, self_times

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
run.import_binceo()


def test_covered_merges_overlapping_and_clips_to_parent():
    assert covered(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0), (6.0, 7.0), (9.0, 12.0)]) == 5.0
    assert covered(0.0, 10.0, []) == 0.0


def test_self_time_subtracts_children_not_grandchildren():
    spans = [
        Span("harness.trial", None, 0, 0.0, 10.0),
        Span("graphs.build_compound", 0, 0, 1.0, 4.0),
        Span("graphs.sample_graph", 1, 0, 2.0, 3.0),
        Span("decoders.sum_product_decode", 0, 0, 5.0, 9.0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_ns_per_edge():
    assert ns_per_edge(1e-3, 1_000_000) == pytest.approx(1.0)
    assert ns_per_edge(1.0, 0) == 0.0


def _trial(ok: list[bool], joint: bool) -> Trial:
    return Trial(Span("harness.trial", None, 0), report=None, ok=ok, link2_decoded=joint)


def test_failure_shares():
    ts = [_trial([True, True], True), _trial([True, False], True), _trial([False], False)]
    assert failed_share(ts) == pytest.approx(2 / 3)
    assert link_ok_share(ts) == pytest.approx(3 / 5)
    # Successive link 2 is sent as information bits: nothing to fail.
    assert [t.ok_u2 for t in ts] == [True, False, True]


def test_summary_check_catches_a_wrong_mean():
    from binceo.evaluate import CSV_COLUMNS

    rows = [f"joint,{i},100,0.5,0.5,1.0,0.2,0.9,0.1,0.1,0.1,0.0,{i / 10},s" for i in (0, 1)]
    reports = [SimpleNamespace(csv_row=lambda r=r: r) for r in rows]
    head = ["# schema=binceo-run-v1", ",".join(CSV_COLUMNS), *rows]
    good = "joint-summary,-1,100,0.5,0.5,1.0,0.2,0.9,0.1,0.1,0.1,0.0,0.05,std_loss=0"
    assert check_csv("\n".join(head + [good]) + "\n", 100, reports) == []
    bad = good.replace(",0.05,", ",0.06,")
    assert any("ber_u2" in e for e in check_csv("\n".join(head + [bad]) + "\n", 100, reports))


@pytest.mark.parametrize("scheme", ["joint", "successive"])
def test_tiny_run_is_checked_and_reports_every_declared_metric(scheme):
    wl = run.Workload(f"tiny-{scheme}", scheme, 2_000, trials_per_call=2, quality_calls=1)
    untraced, traced = run.run_calls(wl.configs(3), [LIGHT_TARGETS, TRACE_TARGETS],
                                     budget=0.0, min_calls=1, kernel=lambda: 0.05)
    for phase in (untraced, traced):
        assert run.check_phase(wl, phase) == ([], 0)
    assert traced.csvs == untraced.csvs

    wall = trial_times(untraced.recorder.spans)
    # The stub kernel reads half the nominal time: the host looks 2x fast.
    assert trial_times(untraced.recorder.spans, scaled=True) == pytest.approx(
        [2 * w for w in wall])
    layers = layer_metrics(traced.recorder.spans, 2 * wall[0])
    assert list(layers) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert all(math.isfinite(v) for v, _ in layers.values())
    assert layers["codec.quantize_calls"][0] == 2
    assert layers["graphs.sample_graph_calls"][0] == (3 if scheme == "joint" else 4)

    e2e = run.end_to_end(wl, untraced, setup_s=1.0)
    declared = [m["name"] for m in BENCHMARK["end_to_end"]]
    assert [k for k in e2e if k not in run.PRINT_ONLY] == declared
    assert len(trials(untraced.recorder.spans)) == 2
