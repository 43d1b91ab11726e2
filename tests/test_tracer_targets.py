"""The benchmark's tracer (perfbench/layers.py) wraps binceo functions at the
names their callers look up.  A refactor that renames or drops one of them
breaks every traced benchmark run, and one that stops calling it leaves the
layer's metrics at zero; these tests catch both in seconds, and a change to
what a trial builds that the benchmark's output checks (perfbench/checks.py)
would refuse."""

import importlib
import sys
from pathlib import Path

import pytest

from binceo.harness import ExperimentConfig, simulate

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's layers and tracing modules, freshly imported; its checks
    module imports fresh after this too."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    # layers.py and checks.py import their siblings as top-level modules.
    for name in ("checks", "layers", "reference", "tracing"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    return importlib.import_module("layers"), importlib.import_module("tracing")


def test_every_traced_name_resolves(perfbench):
    layers, _ = perfbench
    targets = layers.LIGHT_TARGETS + layers.TRACE_TARGETS
    assert targets
    missing = []
    for target in targets:
        owner = importlib.import_module(target.module)
        for part in target.attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{target.module}.{target.attr}")
    assert not missing, f"names the tracer wraps no longer resolve: {missing}"


def test_every_traced_name_is_called_by_simulate(perfbench):
    layers, tracing = perfbench
    recorder = tracing.Recorder()
    with recorder.installed(layers.TRACE_TARGETS):
        simulate(ExperimentConfig(n=2000, scheme="both", base_seed=11))
    recorded = {span.name for span in recorder.spans}
    silent = sorted({t.name for t in layers.TRACE_TARGETS} - recorded)
    assert not silent, f"traced names that simulate no longer calls: {silent}"


@pytest.mark.parametrize("scheme", ["joint", "successive"])
def test_untraced_run_passes_the_benchmark_output_checks(perfbench, scheme):
    # The benchmark reads each trial's rates from the codes it builds, two
    # per trial, and refuses a run whose output checks fail.
    layers, tracing = perfbench
    checks = importlib.import_module("checks")
    cfg = ExperimentConfig(n=2000, scheme=scheme, trials=2, base_seed=11)
    recorder = tracing.Recorder()
    with recorder.installed(layers.LIGHT_TARGETS):
        text = simulate(cfg)
    trials = layers.trials(recorder.spans)
    assert len(trials) == cfg.trials
    assert checks.check_csv(text, cfg.n, [t.report for t in trials]) == []
    assert [e for t in trials for e in checks.check_trial(t, scheme)] == []
