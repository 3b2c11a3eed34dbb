import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parlqr import parallel, serial
from parlqr.generate import generate
from parlqr.parallel import Partition, make_partition
from parlqr.errors import (
    CholeskyFailure,
    FactorizationFailure,
    Infeasible,
    LinkSingular,
)
from parlqr.problem import LqrProblem, StageDynamics, kkt_residual

from conftest import (
    max_deviation,
    scalar_problem,
    tolerance_scale,
    with_control_cost,
)


class TestPartition:
    def test_balanced_remainder_goes_first(self):
        assert make_partition(10, 3).split_times == (0, 4, 7, 10)

    def test_single_segment(self):
        assert make_partition(5, 1).split_times == (0, 5)

    def test_unit_segments(self):
        assert make_partition(4, 4).split_times == (0, 1, 2, 3, 4)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            make_partition(5, 0)
        with pytest.raises(ValueError):
            make_partition(5, 6)

    @given(T=st.integers(1, 300), J=st.integers(1, 300))
    @settings(max_examples=200, deadline=None)
    def test_partition_properties(self, T, J):
        if J > T:
            with pytest.raises(ValueError):
                make_partition(T, J)
            return
        part = make_partition(T, J)
        splits = part.split_times
        assert splits[0] == 0 and splits[-1] == T and len(splits) == J + 1
        lengths = np.diff(splits)
        assert lengths.min() >= 1
        assert lengths.max() - lengths.min() <= 1
        if J > 1:
            assert lengths[:-1].min() >= lengths[-1]  # remainder taken early


class TestHandExample:
    def test_two_way_split_of_scalar_problem(self):
        sol = parallel.solve_parallel(scalar_problem(2), J=2, workers=1)
        np.testing.assert_allclose(sol.details.link_points, [[2 / 3]], atol=1e-12)
        np.testing.assert_allclose(sol.controls.ravel(), [-1 / 3, -1 / 3], atol=1e-12)
        assert sol.objective == pytest.approx(1 / 6)
        reference = serial.solve(scalar_problem(2))
        assert max_deviation(sol.states, reference.states) <= 1e-12

    def test_single_split_is_bit_identical_to_serial(self):
        problem = generate(4, 2, 11, seed=1)
        a = parallel.solve_parallel(problem, J=1, workers=2)
        b = serial.solve(problem)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.controls, b.controls)
        assert np.array_equal(a.lambdas, b.lambdas)

    def test_link_system_shape_and_solution(self):
        problem = generate(3, 2, 12, seed=2)
        sol = parallel.solve_parallel(problem, J=3, workers=1)
        reference = serial.solve(problem)
        splits = sol.details.partition.split_times[1:-1]
        for k, tau in enumerate(splits):
            assert max_deviation(sol.details.link_points[k],
                                 reference.states[tau]) <= 1e-8 * tolerance_scale(problem)


class TestEquivalence:
    @pytest.mark.parametrize("J", [2, 3, 4])
    def test_matches_serial_on_random_instances(self, J, small_random_problems):
        for problem in small_random_problems:
            if J > problem.T:
                continue
            sol = parallel.solve_parallel(problem, J=J, workers=1)
            ref = serial.solve(problem)
            tol = 1e-8 * tolerance_scale(problem)
            assert max_deviation(sol.states, ref.states) <= tol
            assert max_deviation(sol.controls, ref.controls) <= tol
            assert max_deviation(sol.lambdas, ref.lambdas) <= tol

    def test_unit_segment_partition(self, small_random_problems):
        for problem in small_random_problems[:12]:
            sol = parallel.solve_parallel(problem, J=problem.T, workers=1)
            ref = serial.solve(problem)
            tol = 1e-8 * tolerance_scale(problem)
            assert max_deviation(sol.states, ref.states) <= tol
            assert max_deviation(sol.lambdas, ref.lambdas) <= tol

    def test_partition_invariance_random_splits(self):
        rng = np.random.default_rng(9)
        for trial in range(100):
            dims = np.random.default_rng(5_000 + trial)
            n = int(dims.integers(1, 6))
            m = int(dims.integers(1, 4))
            T = int(dims.integers(2, 18))
            problem = generate(n, m, T, seed=6_000 + trial)
            J = int(rng.integers(2, T + 1))
            interior = np.sort(rng.choice(np.arange(1, T), size=J - 1,
                                          replace=False))
            part = Partition(J, (0, *map(int, interior), T))
            sol = parallel.solve_parallel(problem, J=J, workers=1,
                                          partition=part)
            ref = serial.solve(problem)
            tol = 1e-8 * tolerance_scale(problem)
            assert max_deviation(sol.states, ref.states) <= tol
            assert max_deviation(sol.controls, ref.controls) <= tol

    def test_uncontrollable_middle_segment(self):
        # middle third has no control authority; global problem stays convex
        problem = generate(3, 2, 9, seed=123)
        stages = list(problem.stages)
        for t in range(3, 6):
            cost, dyn = stages[t]
            stages[t] = (cost, StageDynamics(dyn.Fx, np.zeros_like(dyn.Fu), dyn.f1))
        problem = LqrProblem(stages, problem.terminal, problem.x_init)
        sol = parallel.solve_parallel(problem, J=3, workers=1)
        assert sol.details.degenerate
        ref = serial.solve(problem)
        splits = sol.details.partition.split_times[1:-1]
        tol = 1e-8 * tolerance_scale(problem)
        for k, tau in enumerate(splits):
            assert max_deviation(sol.details.link_points[k], ref.states[tau]) <= tol
        assert max_deviation(sol.states, ref.states) <= tol

    def test_global_kkt_residual(self, small_random_problems):
        for problem in small_random_problems[:15]:
            J = min(3, problem.T)
            sol = parallel.solve_parallel(problem, J=J, workers=1)
            assert kkt_residual(problem, sol) <= 1e-8 * tolerance_scale(problem)


class TestLinkDiagnostics:
    def test_multiplier_matching_at_links(self, small_random_problems):
        for problem in small_random_problems:
            for J in {2, 3, 4, problem.T}:
                if not 2 <= J <= problem.T:
                    continue
                sol = parallel.solve_parallel(problem, J=J, workers=1)
                assert sol.details.link_mismatch <= 1e-8 * tolerance_scale(problem)

    def test_link_residual_small(self):
        problem = generate(4, 2, 16, seed=14)
        part = parallel.make_partition(problem.T, 4)
        payloads = parallel._segment_payloads(
            problem, part, parallel.DEFAULT_TOLERANCES, False)
        segments = [parallel._solve_segment_task(parallel._copy_payload(p))
                    for p in payloads]
        system = parallel.assemble_link_system(segments, part, problem.x_init)
        assert system.diag.shape == (3, 4, 4)
        assert system.sub.shape == (2, 4, 4)
        links = system.solve()
        assert system.residual <= 1e-9 * (1.0 + np.abs(system.rhs).max())
        ref = serial.solve(problem)
        for k, tau in enumerate(part.split_times[1:-1]):
            assert max_deviation(links[k], ref.states[tau]) \
                <= 1e-8 * tolerance_scale(problem)

    def test_repeated_runs_bit_identical_per_worker_count(self):
        problem = generate(5, 2, 24, seed=15)
        for w in (1, 2):
            a = parallel.solve_parallel(problem, J=4, workers=w)
            b = parallel.solve_parallel(problem, J=4, workers=w)
            assert np.array_equal(a.details.link_points, b.details.link_points)
            assert np.array_equal(a.states, b.states)
            assert np.array_equal(a.lambdas, b.lambdas)

    def test_worker_count_does_not_change_results_materially(self):
        # sub-solves are bit-reproducible across transports; the assembled
        # trajectory may differ by allocator-dependent BLAS rounding only.
        # J=T sends the unit segments to the pool in chunks.
        problem = generate(5, 2, 24, seed=15)
        for J in (4, problem.T):
            a = parallel.solve_parallel(problem, J=J, workers=1)
            b = parallel.solve_parallel(problem, J=J, workers=2)
            assert np.array_equal(a.details.link_points, b.details.link_points)
            assert np.abs(a.states - b.states).max() <= 1e-12
            assert np.abs(a.lambdas - b.lambdas).max() <= 1e-12


class TestSegmentFailures:
    @pytest.mark.parametrize("exc", [
        CholeskyFailure(3), FactorizationFailure(2), FactorizationFailure(None, "why"),
        Infeasible(0.5, segment=1), LinkSingular("singular")])
    def test_errors_survive_pickling(self, exc):
        # worker processes hand their exceptions back pickled
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc)
        assert str(back) == str(exc)
        assert vars(back) == vars(exc)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_cholesky_failure_reports_global_stage(self, workers):
        broken = with_control_cost(generate(2, 1, 16, seed=3), 13, -1.0)
        with pytest.raises(CholeskyFailure) as info:
            parallel.solve_parallel(broken, J=4, workers=workers)
        assert info.value.stage == 13
        assert str(info.value) == "Cholesky failed at stage 13"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_smoothing_failure_reports_global_stage(self, workers):
        problem = generate(2, 1, 16, seed=3)
        psol = parallel.solve_parallel(problem, J=4, workers=workers)
        # the smoothing sweeps read the stage data of the problem passed in
        with pytest.raises(CholeskyFailure) as info:
            parallel.smooth(with_control_cost(problem, 6, -1e3), psol,
                            workers=workers)
        assert info.value.stage == 6
        assert str(info.value) == "Cholesky failed at stage 6"


class TestSmooth:
    def test_two_way_smoothing_recovers_global_gain(self):
        problem = scalar_problem(2)
        psol = parallel.solve_parallel(problem, J=2, workers=1)
        smoothed = parallel.smooth(problem, psol, workers=1)
        ssol = serial.solve(problem)
        np.testing.assert_allclose(smoothed.policies[0].Kx,
                                   ssol.policies[0].Kx, atol=1e-12)

    def test_single_segment_noop(self):
        problem = generate(3, 1, 6, seed=18)
        psol = parallel.solve_parallel(problem, J=1, workers=1)
        assert parallel.smooth(problem, psol) is psol

    def test_smoothed_rollout_reproduces_parallel_trajectory(self,
                                                             small_random_problems):
        for problem in small_random_problems:
            J = min(3, problem.T)
            if J < 2:
                continue
            psol = parallel.solve_parallel(problem, J=J, workers=1)
            try:
                smoothed = parallel.smooth(problem, psol, workers=1)
            except ValueError:
                # reachability-deficient conditioning segment: undefined
                assert psol.details.degenerate
                continue
            assert smoothed.details.smooth_deviation <= 1e-8 * tolerance_scale(problem)

    def test_smoothing_rejects_deficient_partitions(self):
        problem = generate(4, 1, 12, seed=19)  # length-3 segments reach rank 3 < 4
        psol = parallel.solve_parallel(problem, J=4, workers=1)
        assert psol.details.degenerate
        with pytest.raises(ValueError):
            parallel.smooth(problem, psol, workers=1)

    def test_smoothed_policies_differ_from_both_parents(self):
        problem = generate(2, 1, 30, seed=20)
        psol = parallel.solve_parallel(problem, J=3, workers=1)
        smoothed = parallel.smooth(problem, psol, workers=1)
        ssol = serial.solve(problem)
        gap_parallel = max(
            max_deviation(a.Kx, b.Kx)
            for a, b in zip(smoothed.policies, psol.policies))
        gap_serial = max(
            max_deviation(a.Kx, b.Kx)
            for a, b in zip(smoothed.policies, ssol.policies))
        assert gap_parallel > 1e-6
        assert gap_serial > 1e-6
