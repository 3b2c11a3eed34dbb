import numpy as np
import pytest

from parlqr import kkt, serial
from parlqr.errors import CholeskyFailure
from parlqr.generate import generate
from parlqr.problem import (
    LqrProblem,
    StageCost,
    StageDynamics,
    TerminalCost,
    evaluate_objective,
    kkt_residual,
)

from conftest import (
    interleaved_min_of,
    max_deviation,
    scalar_problem,
    tolerance_scale,
)


def test_one_step_scalar_backward_pass():
    problem = scalar_problem(1)
    policies, values = serial.backward_pass(problem.stages, problem.terminal)
    assert policies[0].Kx[0, 0] == pytest.approx(-0.5)
    assert values[0].Vxx[0, 0] == pytest.approx(0.5)


def test_one_step_scalar_solve():
    sol = serial.solve(scalar_problem(1))
    np.testing.assert_allclose(sol.controls.ravel(), [-0.5])
    np.testing.assert_allclose(sol.states.ravel(), [1.0, 0.5])
    assert sol.objective == pytest.approx(0.25)


def test_two_step_scalar_solve():
    sol = serial.solve(scalar_problem(2))
    np.testing.assert_allclose(sol.controls.ravel(), [-1 / 3, -1 / 3], atol=1e-12)
    np.testing.assert_allclose(sol.states.ravel(), [1.0, 2 / 3, 1 / 3], atol=1e-12)
    assert sol.objective == pytest.approx(1 / 6)


def test_decoupled_control_gain():
    # Fu = 0 at every stage: the gain reduces to the one-step minimizer
    rng = np.random.default_rng(4)
    stages = []
    for _ in range(5):
        B = rng.standard_normal((2, 2))
        Quu = B @ B.T + np.eye(2)
        Qux = 0.1 * rng.standard_normal((2, 3))
        C = rng.standard_normal((3, 3))
        stages.append((
            StageCost(C @ C.T + np.eye(3), Qux, Quu, np.zeros(3), np.zeros(2)),
            StageDynamics(0.5 * rng.standard_normal((3, 3)), np.zeros((3, 2)),
                          np.zeros(3)),
        ))
    problem = LqrProblem(stages, TerminalCost.zero(3), np.zeros(3))
    policies, _ = serial.backward_pass(problem.stages, problem.terminal)
    for pol, (cost, _) in zip(policies, problem.stages):
        np.testing.assert_allclose(
            pol.Kx, -np.linalg.solve(cost.Quu, cost.Qux), atol=1e-12)


@pytest.mark.parametrize("seed", range(12))
def test_matches_dense_oracle(seed):
    dims = np.random.default_rng(seed)
    n = int(dims.integers(1, 7))
    m = int(dims.integers(1, 4))
    T = int(dims.integers(1, 21))
    problem = generate(n, m, T, seed=100 + seed)
    sol = serial.solve(problem)
    oracle = kkt.solve_dense(problem)
    tol = 1e-8 * tolerance_scale(problem)
    assert max_deviation(sol.states, oracle.states) <= tol
    assert max_deviation(sol.controls, oracle.controls) <= tol
    assert max_deviation(sol.lambdas, oracle.lambdas) <= tol


def test_multipliers_satisfy_stationarity():
    problem = generate(5, 3, 18, seed=8)
    sol = serial.solve(problem)
    assert sol.kkt_residual_inf <= 1e-8 * tolerance_scale(problem)
    assert kkt_residual(problem, sol) == sol.kkt_residual_inf


def test_cost_to_go_predicts_tail_objective():
    problem = generate(4, 2, 12, seed=30)
    sol = serial.solve(problem)
    values = sol.details
    for t in range(problem.T + 1):
        tail = LqrProblem(problem.stages[t:], problem.terminal, sol.states[t]) \
            if t < problem.T else None
        if tail is None:
            tail_cost = 0.5 * sol.states[-1] @ (problem.terminal.Qxx @ sol.states[-1]) \
                + problem.terminal.qx1 @ sol.states[-1]
        else:
            tail_cost = evaluate_objective(tail, sol.states[t:], sol.controls[t:])
        x = sol.states[t]
        predicted = 0.5 * x @ (values[t].Vxx @ x) + values[t].vx1 @ x + values[t].const
        assert tail_cost == pytest.approx(predicted, abs=1e-9 * (1 + abs(sol.objective)))


def test_non_convex_control_cost_fails_loudly():
    problem = scalar_problem(3, Quu=1.0)
    stages = list(problem.stages)
    bad = StageCost([[0.0]], [[0.0]], [[-1.0]], [0.0], [0.0])
    stages[1] = (bad, stages[1][1])
    broken = LqrProblem(stages, problem.terminal, problem.x_init)
    with pytest.raises(CholeskyFailure) as info:
        serial.solve(broken)
    assert info.value.stage == 1


def test_deterministic_solutions():
    problem = generate(4, 2, 30, seed=77)
    a = serial.solve(problem)
    b = serial.solve(problem)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.lambdas, b.lambdas)


@pytest.mark.slow
def test_runtime_scales_linearly_in_horizon():
    horizons = [256, 512, 1024, 2048, 4096]
    problems = [generate(8, 3, T, seed=1) for T in horizons]
    times = interleaved_min_of(
        [lambda p=p: serial.solve(p) for p in problems], repeats=3)
    slope = np.polyfit(np.log(horizons), np.log(times), 1)[0]
    assert 0.8 <= slope <= 1.2, f"log-log slope {slope:.3f} not near linear"
