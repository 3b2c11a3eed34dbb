import math
import time

import numpy as np
import pytest

from parlqr import generate
from parlqr.problem import (
    LqrProblem,
    StageCost,
    StageDynamics,
    TerminalCost,
    data_magnitude,
)


def scalar_problem(T, Quu=1.0, Qxx_T=1.0, x0=1.0, Fx=1.0, Fu=1.0):
    """n = m = 1 instance used by the hand-checked examples."""
    cost = StageCost([[0.0]], [[0.0]], [[Quu]], [0.0], [0.0])
    dyn = StageDynamics([[Fx]], [[Fu]], [0.0])
    return LqrProblem([(cost, dyn)] * T, TerminalCost([[Qxx_T]], [0.0]), [x0])


def interpolation_problem(T=2):
    """Single integrator with pure control cost and no terminal cost."""
    cost = StageCost([[0.0]], [[0.0]], [[1.0]], [0.0], [0.0])
    dyn = StageDynamics([[1.0]], [[1.0]], [0.0])
    return LqrProblem([(cost, dyn)] * T, TerminalCost.zero(1), [0.0])


def tolerance_scale(problem):
    return 1.0 + data_magnitude(problem)


def max_deviation(a, b):
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


def interleaved_min_of(fns, repeats):
    """Best-of-``repeats`` wall time of each function, called in turn.

    Every repeat calls each function once, so a drift of the host's speed
    during the measurement reaches all of them alike.  Results are dropped
    at once, so no more than one is alive at a time.
    """
    best = [math.inf] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            tic = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - tic)
    return best


def with_control_cost(problem, t, quu):
    """Copy of the problem whose stage ``t`` has ``Quu = quu I`` and ``Qux = 0``."""
    stages = list(problem.stages)
    cost, dyn = stages[t]
    stages[t] = (StageCost(cost.Qxx, np.zeros_like(cost.Qux),
                           quu * np.eye(problem.m), cost.qx1, cost.qu1), dyn)
    return LqrProblem(stages, problem.terminal, problem.x_init)


def drop_controls(problem):
    """Copy of the problem with all control channels zeroed (Fu = 0)."""
    stages = [
        (cost, StageDynamics(dyn.Fx, np.zeros_like(dyn.Fu), dyn.f1))
        for cost, dyn in problem.stages
    ]
    return LqrProblem(stages, problem.terminal, problem.x_init)


def free_evolution(problem):
    """Terminal state of the uncontrolled system from x_init."""
    x = problem.x_init.copy()
    for _, dyn in problem.stages:
        x = dyn.Fx @ x + dyn.f1
    return x


@pytest.fixture(scope="session")
def small_random_problems():
    """Deterministic pool of small instances spanning all dimension combos."""
    problems = []
    for k in range(40):
        dims = np.random.default_rng(1_000 + k)
        n = int(dims.integers(1, 7))
        m = int(dims.integers(1, 4))
        T = int(dims.integers(1, 21))
        problems.append(generate(n, m, T, seed=2_000 + k))
    return problems
