"""In-memory span recording around binceo's public functions.

Each target is replaced at the name its caller looks it up (for example
``binceo.harness.build_compound``, which ``run_joint_trial`` reads from the
harness module globals), so no file of the package changes.  A span holds
(name, start, end, parent span, trial id) plus a few facts taken from the
call's arguments and result.  ``installed`` restores every original on exit.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

TRIAL = "harness.trial"

Facts = Callable[[tuple, dict, Any], dict]


@dataclass
class Span:
    name: str
    parent: int | None
    trial: int | None
    start: float = 0.0
    end: float = 0.0
    facts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """Wrap ``module.attr`` (attr may be ``Class.method``) as span ``name``.

    ``facts`` runs right after the call and must be O(1); ``late_facts``
    gets only the result and runs when the enclosing trial has ended, so
    O(n) work such as counting edges stays outside every timed span.
    """

    module: str
    attr: str
    name: str
    facts: Facts | None = None
    late_facts: Callable[[Any], dict] | None = None


class Recorder:
    """Records spans of the installed targets.

    ``reference``, if given, is a timing function run right before each
    trial span opens and right after it closes; the mean of the two is kept
    as that trial's ``ref_s`` fact.
    """

    def __init__(self, reference: Callable[[], float] | None = None) -> None:
        self.reference = reference
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._trial: int | None = None
        self._n_trials = 0
        self._late: list[tuple[Span, Callable[[Any], dict], Any]] = []

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        spans, stack, late = self.spans, self._stack, self._late
        is_trial = target.name == TRIAL

        def wrapper(*args, **kwargs):
            if is_trial:
                self._trial = self._n_trials
                self._n_trials += 1
            timed_ref = is_trial and self.reference is not None
            ref_before = self.reference() if timed_ref else 0.0
            span = Span(target.name, stack[-1] if stack else None, self._trial)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if timed_ref:
                span.facts["ref_s"] = (ref_before + self.reference()) / 2
            if target.facts is not None:
                span.facts.update(target.facts(args, kwargs, result))
            if target.late_facts is not None:
                late.append((span, target.late_facts, result))
            if is_trial:
                for s, facts, res in late:
                    s.facts.update(facts(res))
                late.clear()
                self._trial = None
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, targets: list[Target]):
        saved = []
        try:
            for t in targets:
                owner = importlib.import_module(t.module)
                *path, leaf = t.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
                saved.append((owner, leaf, original))
                setattr(owner, leaf, self._wrap(original, t))
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)

    def write_jsonl(self, path) -> None:
        """One JSON object per span; facts that are not plain numbers are dropped."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                facts = {k: v for k, v in s.facts.items()
                         if isinstance(v, (bool, int, float, list))}
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "trial": s.trial, "facts": facts}) + "\n")


def covered(lo: float, hi: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [s.duration - covered(s.start, s.end, children[i])
            for i, s in enumerate(spans)]
