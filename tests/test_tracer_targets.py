"""The benchmark's tracer (perfbench/layers.py) wraps binceo functions at the
names their callers look up.  A refactor that renames or drops one of them
breaks every traced benchmark run; this test catches it in seconds."""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    # layers.py imports its siblings as top-level modules.
    for name in ("layers", "reference", "tracing"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    layers = importlib.import_module("layers")
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
