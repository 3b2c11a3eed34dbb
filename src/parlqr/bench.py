"""Timing harness comparing the solvers, with plot-ready CSV/JSON reports.

Each row times one solver configuration on one generated problem; the
reported time is the minimum over a fixed number of repeats, and every row
that can be compared against the serial baseline carries the maximum
state deviation so that result drift is machine-checkable.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time

import numpy as np

from . import kkt, parallel, serial
from .generate import generate

__all__ = ["BenchRecord", "BenchReport", "run_bench", "time_min_of"]

DEFAULT_REPEATS = 10


def time_min_of(fn, repeats):
    """Best-of-``repeats`` wall-clock timing; returns (seconds, last result)."""
    best = math.inf
    result = None
    for _ in range(repeats):
        tic = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - tic)
    return best, result


@dataclasses.dataclass(frozen=True)
class BenchRecord:
    solver: str
    n: int
    m: int
    T: int
    J: int
    workers: int
    seconds: float
    deviation: float
    ok: bool = True
    note: str = ""

    def csv_row(self):
        return ",".join([
            str(self.n), str(self.m), str(self.T), str(self.J),
            str(self.workers), self.solver, repr(self.seconds),
            repr(self.deviation),
        ])


CSV_HEADER = "n,m,T,J,workers,solver,seconds,deviation"


@dataclasses.dataclass(eq=False)
class BenchReport:
    """All timing rows plus a note about the machine they ran on."""

    records: list
    cpu_count: int
    repeats: int

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            fh.write(CSV_HEADER + "\n")
            for rec in self.records:
                fh.write(rec.csv_row() + "\n")

    def to_json(self, path):
        payload = {
            "environment": {"cpu_count": self.cpu_count,
                            "repeats": self.repeats},
            "records": [dataclasses.asdict(rec) for rec in self.records],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")

    def max_deviation(self):
        return max((rec.deviation for rec in self.records if rec.ok),
                   default=0.0)


def run_bench(n, m, T_list, J_list, workers_list, repeats=DEFAULT_REPEATS,
              seed=0, include_oracle=True):
    """Time the serial, partitioned and (size permitting) dense solvers.

    One problem is generated per horizon from ``seed``; rows are emitted in
    a fixed order (serial first, then every ``J x workers`` combination,
    then the dense oracle) so CSV bodies are deterministic apart from the
    timing column.  Raises ``ValueError`` when ``repeats`` is below one.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    records = []
    for T in T_list:
        problem = generate(n, m, T, seed)
        secs, ref = time_min_of(lambda: serial.solve(problem), repeats)
        records.append(BenchRecord("serial", n, m, T, 1, 1, secs, 0.0))
        for J in J_list:
            if J > T:
                continue
            for workers in workers_list:
                try:
                    secs, sol = time_min_of(
                        lambda: parallel.solve_parallel(problem, J=J,
                                                        workers=workers),
                        repeats)
                    dev = float(np.abs(sol.states - ref.states).max())
                    records.append(BenchRecord(
                        "parallel", n, m, T, J, workers, secs, dev))
                except Exception as exc:  # recorded, not raised
                    records.append(BenchRecord(
                        "parallel", n, m, T, J, workers, math.nan, math.nan,
                        ok=False, note=f"{type(exc).__name__}: {exc}"))
        if include_oracle and T <= kkt.MAX_ORACLE_HORIZON:
            secs, sol = time_min_of(lambda: kkt.solve_dense(problem), repeats)
            dev = float(np.abs(sol.states - ref.states).max())
            records.append(BenchRecord("kkt", n, m, T, 1, 1, secs, dev))
    return BenchReport(records, os.cpu_count() or 1, repeats)
