import numpy as np
import pytest

from parlqr import endpoint, kkt, serial
from parlqr.errors import CholeskyFailure, FactorizationFailure, Infeasible
from parlqr.generate import generate
from parlqr.problem import AffinePolicy, rollout

from conftest import (
    drop_controls,
    free_evolution,
    interpolation_problem,
    max_deviation,
    tolerance_scale,
    with_control_cost,
)


def reachable_endpoint(problem, seed, gain=0.3):
    """Terminal state produced by a random bounded control sequence."""
    rng = np.random.default_rng(seed)
    x = problem.x_init.copy()
    for _, dyn in problem.stages:
        x = dyn.Fx @ x + dyn.Fu @ (gain * rng.standard_normal(problem.m)) + dyn.f1
    return x


def textbook_riccati(problem):
    """Unconstrained Riccati recursion written out with ``np.linalg.solve``.

    Returns per-stage gains ``(Kx, k1)`` of ``u = Kx x + k1`` and per-time
    values ``(Vxx, vx1, const)`` of ``1/2 x'Vxx x + vx1'x + const``.
    """
    Vxx, vx1, const = problem.terminal.Qxx, problem.terminal.qx1, 0.0
    values = [(Vxx, vx1, const)]
    gains = []
    for cost, dyn in reversed(list(problem.stages)):
        grad = Vxx @ dyn.f1 + vx1  # gradient of the next value at the drift
        Mxx = cost.Qxx + dyn.Fx.T @ Vxx @ dyn.Fx
        Mux = cost.Qux + dyn.Fu.T @ Vxx @ dyn.Fx
        Muu = cost.Quu + dyn.Fu.T @ Vxx @ dyn.Fu
        mx1 = cost.qx1 + dyn.Fx.T @ grad
        mu1 = cost.qu1 + dyn.Fu.T @ grad
        Kx = -np.linalg.solve(Muu, Mux)
        k1 = -np.linalg.solve(Muu, mu1)
        const = const + dyn.f1 @ (vx1 + 0.5 * Vxx @ dyn.f1) + 0.5 * mu1 @ k1
        Vxx = Mxx + Mux.T @ Kx
        vx1 = mx1 + Mux.T @ k1
        gains.append((Kx, k1))
        values.append((Vxx, vx1, const))
    return gains[::-1], values[::-1]


class TestBackwardPass:
    def test_interpolation_policies_by_hand(self):
        problem = interpolation_problem()
        bw = endpoint.backward_pass(problem.stages, None)
        # last stage: the constraint has full control rank, pure range-space move
        np.testing.assert_allclose(bw.policies[1].Kx, [[-1.0]])
        np.testing.assert_allclose(bw.policies[1].Kz, [[1.0]])
        np.testing.assert_allclose(bw.policies[1].k1, [0.0])
        # one absorbed row per stage: empty feasibility triple at the start
        assert bw.constraints[1].rows == 0
        assert bw.feasibility.rows == 0
        # two equal steps cost 2 * 1/2 * (dz/2)^2
        v0 = bw.values[0]
        assert v0.value(np.zeros(1), np.ones(1)) == pytest.approx(0.25)

    def test_uncontrollable_feasibility_triple_is_free_evolution_gap(self):
        problem = drop_controls(generate(3, 2, 6, seed=11))
        bw = endpoint.backward_pass(problem.stages, problem.terminal)
        assert bw.feasibility.rows == problem.n
        x_free = free_evolution(problem)
        x_term = x_free + np.array([0.7, -0.2, 0.1])
        res = bw.feasibility.residual(problem.x_init, x_term)
        assert np.abs(res).max() == pytest.approx(
            np.abs(x_free - x_term).max(), abs=1e-9)

    def test_without_terminal_rows_reduces_to_serial(self):
        rng = np.random.default_rng(0)
        for seed in range(20):
            problem = generate(3, 2, 8, seed=300 + seed)
            bw = endpoint.backward_pass(problem.stages, problem.terminal,
                                        terminal_constrained=False)
            gains, values = textbook_riccati(problem)
            for pe, (Kx, k1) in zip(bw.policies, gains):
                np.testing.assert_allclose(pe.Kx, Kx, atol=1e-12)
                np.testing.assert_allclose(pe.Kz, 0.0, atol=1e-12)
                np.testing.assert_allclose(pe.k1, k1, atol=1e-12)
            for ve, (Vxx, vx1, const) in zip(bw.values, values):
                np.testing.assert_allclose(ve.Vxx, Vxx, atol=1e-12)
                np.testing.assert_allclose(ve.vx1, vx1, atol=1e-12)
                assert ve.const == pytest.approx(const, abs=1e-12)
                # no endpoint: zero-width endpoint blocks, a value in x alone
                assert ve.Vzx.shape == (0, 3)
                assert ve.Vzz.shape == (0, 0)
                assert ve.vz1.shape == (0,)
                x = rng.standard_normal(3)
                assert ve.value(x, np.zeros(0)) == pytest.approx(
                    0.5 * x @ ve.Vxx @ x + ve.vx1 @ x + ve.const, abs=1e-12)

    def test_indefinite_stage_without_pending_rows_fails_loudly(self):
        problem = generate(2, 1, 10, seed=21)
        t = 3
        # no endpoint row is pending after stage t, so it takes the plain kernel
        bw = endpoint.backward_pass(problem.stages, problem.terminal)
        assert bw.constraints[t + 1].rows == 0
        broken = with_control_cost(problem, t, -1e3)
        with pytest.raises(CholeskyFailure) as info:
            endpoint.backward_pass(broken.stages, broken.terminal)
        assert info.value.stage == t

    def test_row_counts_monotone_and_bounded(self, small_random_problems):
        for problem in small_random_problems:
            bw = endpoint.backward_pass(problem.stages, problem.terminal)
            rows = [c.rows for c in bw.constraints]
            assert all(r <= problem.n for r in rows)
            assert all(rows[t] <= rows[t + 1] for t in range(len(rows) - 1))

    def test_basis_and_projector_diagnostics(self, small_random_problems):
        for problem in small_random_problems:
            bw = endpoint.backward_pass(problem.stages, problem.terminal,
                                        collect_diagnostics=True)
            assert bw.diagnostics.basis_defect <= 1e-10
            assert bw.diagnostics.projector_defect <= 1e-12

    def test_value_function_hessian_psd(self, small_random_problems):
        for problem in small_random_problems[:10]:
            bw = endpoint.backward_pass(problem.stages, problem.terminal)
            for vf in bw.values:
                hess = np.block([[vf.Vxx, vf.Vzx.T], [vf.Vzx, vf.Vzz]])
                eigs = np.linalg.eigvalsh(hess)
                scale = max(1.0, float(np.abs(eigs).max()))
                assert eigs.min() >= -1e-9 * scale


def reference_maps(policies, stages):
    """The trajectory maps stage by stage, each block its own products."""
    T, n, m = len(stages), stages[0][0].n, stages[0][0].m
    Ra, Rz, r1 = np.empty((T + 1, n, n)), np.empty((T + 1, n, n)), np.empty((T + 1, n))
    Sa, Sz, s1 = np.empty((T, m, n)), np.empty((T, m, n)), np.empty((T, m))
    Ra[0], Rz[0], r1[0] = np.eye(n), 0.0, 0.0
    for t, (pol, (_, dyn)) in enumerate(zip(policies, stages)):
        Sa[t] = pol.Kx @ Ra[t]
        Sz[t] = pol.Kx @ Rz[t] + pol.Kz
        s1[t] = pol.Kx @ r1[t] + pol.k1
        Ra[t + 1] = dyn.Fx @ Ra[t] + dyn.Fu @ Sa[t]
        Rz[t + 1] = dyn.Fx @ Rz[t] + dyn.Fu @ Sz[t]
        r1[t + 1] = dyn.Fx @ r1[t] + dyn.Fu @ s1[t] + dyn.f1
    return Ra, Rz, r1, Sa, Sz, s1


class TestForwardPass:
    @pytest.mark.parametrize("n, m, T", [(4, 2, 9), (40, 10, 12)])
    def test_maps_match_stage_by_stage_reference(self, n, m, T):
        problem = generate(n, m, T, seed=42)
        policies = endpoint.backward_pass(problem.stages, problem.terminal).policies
        assert any(p.Kz.any() for p in policies)
        want = reference_maps(policies, problem.stages)
        for stages in (problem.stages, list(problem.stages)):
            maps = endpoint.forward_pass(policies, stages)
            for name, block in zip(("Ra", "Rz", "r1", "Sa", "Sz", "s1"), want):
                assert np.array_equal(getattr(maps, name), block), name

    def test_open_loop_maps_are_transition_products(self):
        problem = generate(3, 1, 5, seed=40)
        stages = [(c, d) for c, d in problem.stages]
        # zero drift so r1 stays zero
        from parlqr.problem import StageDynamics
        stages = [(c, StageDynamics(d.Fx, d.Fu, np.zeros(3))) for c, d in stages]
        zero = AffinePolicy(np.zeros((1, 3)), np.zeros((1, 3)), np.zeros(1))
        maps = endpoint.forward_pass([zero] * 5, stages)
        prod = np.eye(3)
        for t, (_, dyn) in enumerate(stages):
            np.testing.assert_allclose(maps.Ra[t], prod, atol=1e-12)
            prod = dyn.Fx @ prod
        assert not maps.Rz.any() and not maps.r1.any()

    def test_interpolation_terminal_maps(self):
        problem = interpolation_problem()
        bw = endpoint.backward_pass(problem.stages, None)
        maps = endpoint.forward_pass(bw.policies, problem.stages)
        np.testing.assert_allclose(maps.Ra[2], [[0.0]], atol=1e-12)
        np.testing.assert_allclose(maps.Rz[2], [[1.0]], atol=1e-12)
        np.testing.assert_allclose(maps.r1[2], [0.0], atol=1e-12)

    def test_maps_agree_with_policy_rollout(self):
        problem = generate(4, 2, 9, seed=41)
        bw = endpoint.backward_pass(problem.stages, problem.terminal)
        maps = endpoint.forward_pass(bw.policies, problem.stages)
        a = problem.x_init
        z = reachable_endpoint(problem, seed=1)
        states, controls = rollout(problem, bw.policies, a, x_term=z)
        np.testing.assert_allclose(maps.states(a, z), states, atol=1e-10)
        np.testing.assert_allclose(maps.controls(a, z), controls, atol=1e-10)


class TestMultiplierPass:
    def test_interpolation_full_stack(self):
        problem = interpolation_problem()
        sol = endpoint.solve_endpoint(problem, [0.0], [1.0])
        assert sol.kkt_residual_inf <= 1e-10
        np.testing.assert_allclose(sol.lambdas.ravel(), [0.5, 0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(sol.mu, [-0.5], atol=1e-12)

    def test_zero_data_means_zero_multipliers(self):
        from parlqr.problem import LqrProblem, StageCost, StageDynamics, TerminalCost
        cost = StageCost(np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2),
                         np.zeros(2), np.zeros(2))
        dyn = StageDynamics(np.eye(2), np.eye(2), np.zeros(2))
        problem = LqrProblem([(cost, dyn)] * 4, TerminalCost.zero(2), np.zeros(2))
        sol = endpoint.solve_endpoint(problem, np.zeros(2), np.zeros(2))
        assert np.abs(sol.lambdas).max() <= 1e-12
        assert np.abs(sol.mu).max() <= 1e-12

    @pytest.mark.parametrize("seed, dims", [
        *(pytest.param(seed, (4, 2, 10), id=str(seed)) for seed in range(8)),
        # three pending-row time points take the stationarity recursion
        pytest.param(8, (6, 2, 30), id="n6-m2-T30"),
    ])
    def test_multiplier_maps_match_constrained_oracle(self, seed, dims):
        problem = generate(*dims, seed=500 + seed)
        z = reachable_endpoint(problem, seed)
        affine = endpoint.solve_endpoint_affine(problem)
        assert affine.multipliers is not None
        oracle = kkt.solve_dense(problem, terminal_constraint=z)
        lam = affine.multipliers.lambdas(problem.x_init, z)
        mu = affine.multipliers.mu(problem.x_init, z)
        tol = 1e-7 * tolerance_scale(problem)
        assert max_deviation(lam, oracle.lambdas) <= tol
        assert max_deviation(mu, oracle.mu) <= tol

    def test_gram_system_singular_for_dependent_constraints(self):
        # one step cannot pin three states with one control
        problem = generate(3, 1, 1, seed=61)
        with pytest.raises(FactorizationFailure):
            endpoint.solve_endpoint_affine(problem, require_multipliers=True)

    def test_map_boundary_blocks_equal_value_gradients(self):
        problem = generate(4, 2, 12, seed=62)
        affine = endpoint.solve_endpoint_affine(problem)
        v0 = affine.values[0]
        tol = 1e-7 * tolerance_scale(problem)
        assert max_deviation(affine.multipliers.La[0], -v0.Vxx) <= tol
        assert max_deviation(affine.multipliers.Lz[0], -v0.Vzx.T) <= tol
        assert max_deviation(affine.multipliers.l1[0], -v0.vx1) <= tol
        assert max_deviation(affine.multipliers.Ea, -v0.Vzx) <= tol
        assert max_deviation(affine.multipliers.Ez, -v0.Vzz) <= tol
        assert max_deviation(affine.multipliers.e1, -v0.vz1) <= tol

    def test_multiplier_pass_matches_affine_solution(self):
        # the per-layer call sweeps again; the solver reuses its own sweep
        problem = generate(4, 2, 40, seed=63)
        bw = endpoint.backward_pass(problem.stages, problem.terminal)
        got = endpoint.multiplier_pass(
            problem.stages, problem.terminal,
            endpoint.forward_pass(bw.policies, problem.stages))
        want = endpoint.solve_endpoint_affine(problem).multipliers
        tol = 1e-12 * tolerance_scale(problem)
        for block in ("La", "Lz", "l1", "Ea", "Ez", "e1"):
            assert max_deviation(getattr(got, block), getattr(want, block)) <= tol


class TestSolveEndpoint:
    def test_interpolation_forces_symmetric_split(self):
        sol = endpoint.solve_endpoint(interpolation_problem(), [0.0], [1.0])
        np.testing.assert_allclose(sol.controls.ravel(), [0.5, 0.5], atol=1e-12)
        assert sol.objective == pytest.approx(0.25)

    def test_unreachable_endpoint_is_infeasible(self):
        problem = drop_controls(generate(2, 1, 1, seed=70))
        x_term = free_evolution(problem) + np.array([1.0, 0.0])
        with pytest.raises(Infeasible) as info:
            endpoint.solve_endpoint(problem, problem.x_init, x_term)
        assert info.value.residual == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_constrained_oracle(self, seed):
        problem = generate(5, 2, 14, seed=700 + seed)
        z = reachable_endpoint(problem, seed)
        sol = endpoint.solve_endpoint(problem, problem.x_init, z)
        oracle = kkt.solve_dense(problem, terminal_constraint=z)
        tol = 1e-8 * tolerance_scale(problem)
        assert max_deviation(sol.states, oracle.states) <= tol
        assert max_deviation(sol.controls, oracle.controls) <= tol

    def test_endpoint_exactness_over_many_targets(self):
        problem = generate(4, 2, 10, seed=71)
        affine = endpoint.solve_endpoint_affine(problem)
        rng = np.random.default_rng(5)
        for k in range(50):
            a = rng.standard_normal(4)
            z = rng.standard_normal(4)
            states, _ = rollout(problem, affine.policies, a, x_term=z)
            assert np.abs(states[-1] - z).max() <= 1e-8 * (1 + np.abs(z).max())

    def test_objective_equals_initial_cost_to_go(self, small_random_problems):
        rng = np.random.default_rng(6)
        for problem in small_random_problems:
            z = reachable_endpoint(problem, seed=int(rng.integers(1 << 31)))
            sol = endpoint.solve_endpoint(problem, problem.x_init, z)
            affine_value = endpoint.backward_pass(
                problem.stages, problem.terminal).values[0].value(problem.x_init, z)
            assert sol.objective == pytest.approx(
                affine_value, rel=1e-9, abs=1e-9 * (1 + abs(affine_value)))

    def test_full_kkt_stack_residual(self, small_random_problems):
        rng = np.random.default_rng(7)
        for problem in small_random_problems:
            z = reachable_endpoint(problem, seed=int(rng.integers(1 << 31)))
            sol = endpoint.solve_endpoint(problem, problem.x_init, z)
            assert sol.kkt_residual_inf <= 1e-8 * tolerance_scale(problem)
