import pickle

import numpy as np
import pytest

from parlqr import kkt, serial
from parlqr.generate import generate
from parlqr.problem import (
    AffinePolicy,
    LqrProblem,
    StageCost,
    StageDynamics,
    StageStack,
    TerminalCost,
    evaluate_objective,
    kkt_residual,
    rollout,
    validate,
)

from conftest import scalar_problem, tolerance_scale


class TestValidate:
    def test_identity_quu_ok(self):
        assert validate(scalar_problem(3)).ok

    def test_zero_quu_reported(self):
        report = validate(scalar_problem(3, Quu=0.0))
        assert not report.ok
        assert any("Quu not positive-definite at stage 0" in e for e in report.errors)

    def test_asymmetric_qxx_reported(self):
        Qxx = np.array([[1.0, 0.5e-3], [1.5e-3, 1.0]])
        cost = StageCost(Qxx, np.zeros((1, 2)), [[1.0]], np.zeros(2), np.zeros(1))
        dyn = StageDynamics(np.eye(2), np.ones((2, 1)), np.zeros(2))
        problem = LqrProblem([(cost, dyn)], TerminalCost.zero(2), np.zeros(2))
        report = validate(problem)
        assert any("asymmetry exceeds tolerance" in e for e in report.errors)

    def test_reports_every_violation_without_aborting(self):
        cost = StageCost([[1.0]], [[0.0]], [[-1.0]], [np.nan], [0.0])
        dyn = StageDynamics([[1.0]], [[1.0]], [0.0])
        problem = LqrProblem([(cost, dyn)], TerminalCost([[-1.0]], [0.0]), [0.0])
        report = validate(problem)
        assert len(report.errors) >= 3

    def test_defects_at_several_stages_reported_in_stage_order(self):
        problem = generate(3, 2, 8, seed=4)
        stages = list(problem.stages)
        c, d = stages[1]  # asymmetric, indefinite state cost
        Qxx = -np.eye(3)
        Qxx[0, 1] = 1.0
        stages[1] = (StageCost(Qxx, c.Qux, c.Quu, c.qx1, c.qu1), d)
        c, d = stages[3]  # indefinite control cost
        stages[3] = (StageCost(c.Qxx, c.Qux, -np.eye(2), c.qx1, c.qu1), d)
        c, d = stages[4]  # non-finite Quu and f1: no definiteness checks
        Quu = c.Quu.copy()
        Quu[1, 1] = np.nan
        f1 = d.f1.copy()
        f1[0] = np.inf
        stages[4] = (StageCost(c.Qxx, c.Qux, Quu, c.qx1, c.qu1),
                     StageDynamics(d.Fx, d.Fu, f1))
        c, d = stages[6]  # non-finite Qux: no check of the indefinite Qxx
        Qux = c.Qux.copy()
        Qux[0, 2] = np.nan
        stages[6] = (StageCost(-np.eye(3), Qux, c.Quu, c.qx1, c.qu1), d)
        defective = LqrProblem(stages, TerminalCost(-np.eye(3), problem.terminal.qx1),
                               [0.0, np.nan, 0.0])
        assert list(validate(defective).errors) == [
            "asymmetry exceeds tolerance in cost at stage 1",
            "control-eliminated state cost not PSD at stage 1",
            "Quu not positive-definite at stage 3",
            "non-finite entries in Quu at stage 4",
            "non-finite entries in f1 at stage 4",
            "non-finite entries in Qux at stage 6",
            "terminal cost not positive semi-definite",
            "non-finite entries in x_init",
        ]

    def test_generated_problems_always_valid(self):
        for seed in range(20):
            assert validate(generate(3, 2, 7, seed)).ok


class TestRollout:
    def test_zero_everything_stays_at_origin(self):
        problem = scalar_problem(4, x0=0.0)
        zero = AffinePolicy.state_feedback(np.zeros((1, 1)), np.zeros(1))
        states, controls = rollout(problem, [zero] * 4, np.zeros(1))
        assert not states.any() and not controls.any()

    def test_one_step_scalar(self):
        problem = scalar_problem(1)
        policy = AffinePolicy.state_feedback([[-0.5]], [0.0])
        states, controls = rollout(problem, [policy], np.array([1.0]))
        np.testing.assert_allclose(states.ravel(), [1.0, 0.5])
        np.testing.assert_allclose(controls.ravel(), [-0.5])

    def test_serial_policies_reproduce_oracle_trajectory(self):
        problem = generate(3, 2, 10, seed=5)
        solution = serial.solve(problem)
        oracle = kkt.solve_dense(problem)
        states, controls = rollout(problem, solution.policies, problem.x_init)
        scale = tolerance_scale(problem)
        assert np.abs(states - oracle.states).max() <= 1e-9 * scale
        assert np.abs(controls - oracle.controls).max() <= 1e-9 * scale

    def test_bit_identical_repeats(self):
        problem = generate(4, 2, 12, seed=9)
        policies = serial.solve(problem).policies
        a = rollout(problem, policies, problem.x_init)
        b = rollout(problem, policies, problem.x_init)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_dimension_mismatch_raises(self):
        problem = scalar_problem(2)
        policy = AffinePolicy.state_feedback(np.zeros((1, 1)), np.zeros(1))
        with pytest.raises(ValueError):
            rollout(problem, [policy], np.zeros(1))
        with pytest.raises(ValueError):
            rollout(problem, [policy, policy], np.zeros(2))


class TestObjective:
    def test_zero_trajectory_costs_nothing(self):
        problem = scalar_problem(3, x0=0.0)
        assert evaluate_objective(problem, np.zeros((4, 1)), np.zeros((3, 1))) == 0.0

    def test_scalar_hand_value(self):
        problem = scalar_problem(1)
        states = np.array([[1.0], [0.5]])
        controls = np.array([[-0.5]])
        assert evaluate_objective(problem, states, controls) == pytest.approx(0.25)

    def test_matches_stacked_quadratic_form(self):
        # oracle: 0.5 z'Hz + g'z with H, g taken from the saddle-point assembly
        problem = generate(4, 2, 8, seed=3)
        sol = kkt.solve_dense(problem)
        sys = kkt.assemble(problem)
        d = sys.primal_dim
        H = sys.matrix[:d, :d]
        g = -sys.rhs[:d]
        z = np.empty(d)
        for t in range(problem.T + 1):
            z[sys.x_slice(t)] = sol.states[t]
        for t in range(problem.T):
            z[sys.u_slice(t)] = sol.controls[t]
        expected = 0.5 * z @ (H @ z) + g @ z
        got = evaluate_objective(problem, sol.states, sol.controls)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_summation_order_invariance(self):
        problem = generate(2, 1, 1000, seed=17)
        sol = serial.solve(problem)
        total = evaluate_objective(problem, sol.states, sol.controls)
        terms = []
        for t, (cost, _) in enumerate(problem.stages):
            x, u = sol.states[t], sol.controls[t]
            terms.append(0.5 * x @ (cost.Qxx @ x) + 0.5 * u @ (cost.Quu @ u)
                         + u @ (cost.Qux @ x) + cost.qx1 @ x + cost.qu1 @ u)
        xT = sol.states[-1]
        terms.append(0.5 * xT @ (problem.terminal.Qxx @ xT)
                     + problem.terminal.qx1 @ xT)
        reverse_sum = sum(reversed(terms))
        assert total == pytest.approx(reverse_sum, rel=1e-12)


class TestKktResidual:
    def test_oracle_solution_nearly_stationary(self):
        problem = generate(5, 2, 15, seed=21)
        sol = kkt.solve_dense(problem)
        assert kkt_residual(problem, sol) <= 1e-8 * tolerance_scale(problem)

    def test_perturbed_control_breaks_stationarity(self):
        import dataclasses
        problem = generate(3, 2, 6, seed=2)
        sol = kkt.solve_dense(problem)
        controls = sol.controls.copy()
        controls[2, 0] += 1.0
        bad = dataclasses.replace(sol, controls=controls)
        quu_min = min(np.linalg.eigvalsh(c.Quu).min() for c, _ in problem.stages)
        assert kkt_residual(problem, bad) >= quu_min

    def test_zero_multipliers_expose_terminal_gradient(self):
        import dataclasses
        cost = StageCost([[0.0]], [[0.0]], [[1.0]], [0.0], [0.0])
        dyn = StageDynamics([[1.0]], [[1.0]], [0.0])
        problem = LqrProblem([(cost, dyn)], TerminalCost([[0.0]], [3.0]), [1.0])
        sol = kkt.solve_dense(problem)
        bad = dataclasses.replace(sol, lambdas=np.zeros_like(sol.lambdas))
        assert kkt_residual(problem, bad) >= 3.0


class TestConstruction:
    def test_symmetrization_on_construction(self):
        Qxx = np.array([[1.0, 2.0], [0.0, 1.0]])
        cost = StageCost(Qxx, np.zeros((1, 2)), [[1.0]], np.zeros(2), np.zeros(1))
        np.testing.assert_allclose(cost.Qxx, cost.Qxx.T)
        assert cost.asymmetry > 0

    def test_arrays_are_read_only(self):
        problem = scalar_problem(1)
        with pytest.raises(ValueError):
            problem.stages[0][0].Qxx[0, 0] = 5.0

    def test_empty_horizon_rejected(self):
        with pytest.raises(ValueError):
            LqrProblem([], TerminalCost.zero(1), [0.0])

    def test_policy_requires_terminal_state_when_conditioned(self):
        policy = AffinePolicy(np.zeros((1, 1)), np.ones((1, 1)), np.zeros(1))
        with pytest.raises(ValueError):
            policy(np.zeros(1))


class TestStageStack:
    def test_problems_and_slices_share_the_stacks(self):
        problem = generate(3, 2, 12, seed=1)
        pair = problem.stages[4]
        again = LqrProblem(problem.stages, problem.terminal, np.ones(3))
        part = problem.stages[4:9]
        assert again.stages is problem.stages
        assert problem.stages[4] is pair and part[0] is pair
        for f in StageStack.FIELDS:
            whole = getattr(problem.stages, f)
            assert not whole.flags.writeable
            assert np.shares_memory(getattr(part, f), whole)
            assert not getattr(part, f).flags.writeable
        cost, dyn = part[2]
        for arr, whole in ((cost.Qxx, problem.stages.Qxx), (dyn.f1, problem.stages.f1)):
            assert np.shares_memory(arr, whole)
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_slice_pickles_as_its_arrays(self):
        problem = generate(10, 3, 200, seed=2)
        part = problem.stages[20:170]
        blob = pickle.dumps(part)
        raw = sum(getattr(part, f).nbytes for f in StageStack.FIELDS)
        assert len(blob) <= 1.01 * raw
        back = pickle.loads(blob)
        assert len(back) == len(part)
        for f in StageStack.FIELDS:
            assert np.array_equal(getattr(back, f), getattr(part, f))
            assert not getattr(back, f).flags.writeable
