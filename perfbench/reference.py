"""A fixed numpy kernel timed next to every trial, to scale trial times to
a nominal machine speed.

On a shared host the same trial can take 0.85 s or 1.4 s depending on what
other tenants run, and that state lasts for minutes, longer than one
benchmark run.  The kernel below does the same kind of work as the
simulator's message passing (tanh, log, gathers and bincount over a few
hundred thousand edges) on fixed inputs, so it slows down with the host.
A trial's scaled time is its wall time times NOMINAL_S over the mean of
the kernel's times just before and just after it: the trial's seconds on
a host where the kernel takes NOMINAL_S.  The kernel does not use binceo, so no change to
the program moves it.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.1
EDGES = 200_000
FACTORS = 50_000
REPS = 24


class ReferenceKernel:
    def __init__(self) -> None:
        rng = np.random.default_rng(20200411)
        self.fac = np.sort(rng.integers(0, FACTORS, EDGES))
        self.var = rng.integers(0, FACTORS, EDGES)
        self.msg = rng.normal(0.0, 3.0, EDGES)

    def __call__(self) -> float:
        """Seconds for REPS passes of the kernel."""
        start = time.perf_counter()
        for _ in range(REPS):
            t = np.tanh(0.5 * self.msg)
            logabs = np.log(np.abs(t) + 1e-300)
            fac_log = np.bincount(self.fac, weights=logabs, minlength=FACTORS)
            prod = np.clip(np.exp(fac_log[self.fac] - logabs), -0.999, 0.999)
            out = np.clip(2.0 * np.arctanh(prod), -30.0, 30.0)
            np.bincount(self.var, weights=out, minlength=FACTORS)
        return time.perf_counter() - start
