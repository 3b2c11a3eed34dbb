import concurrent.futures
import contextlib
import gc
import glob
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from parlqr import endpoint, parallel, serial
from parlqr.generate import generate
from parlqr.parallel import Partition, make_partition
from parlqr.errors import (
    CholeskyFailure,
    FactorizationFailure,
    Infeasible,
    LinkSingular,
    WorkerFailure,
)
from parlqr.problem import (
    DEFAULT_TOLERANCES,
    LqrProblem,
    StageDynamics,
    ToleranceSet,
    evaluate_objective,
    kkt_residual,
    propagate,
)

from conftest import (
    max_deviation,
    scalar_problem,
    tolerance_scale,
    with_control_cost,
)


def sweep(problem, part, workers=1, collect=False):
    """The segment results of a partitioned solve's phase 1, with its gains
    stacked in stage order, its runs and workers."""
    terminal = problem.terminal
    with parallel._swept(
            problem, part.split_times, workers, part.J - 1,
            (terminal.Qxx[None], terminal.qx1[None]), DEFAULT_TOLERANCES, collect) as (
            seg, batches, used, *_, record, _):
        seg.update((name, record[name].copy()) for name in ("Kx", "k1", "Kz"))
    return seg, batches, used


def shared_files(pid=None):
    """Stage files of process ``pid`` (this one by default) under /dev/shm,
    where solves once named them."""
    return glob.glob(f"/dev/shm/parlqr-{pid or os.getpid()}-*")


def held_memory_files():
    """This process's descriptors and mappings of the pooled solves' memory
    file, once its garbage is collected; none where /proc does not show
    them."""
    gc.collect()
    if not os.path.isdir("/proc/self/fd"):
        return []
    held = []
    for fd in os.listdir("/proc/self/fd"):
        with contextlib.suppress(OSError):  # the listing's own descriptor is gone
            held.append(os.readlink(f"/proc/self/fd/{fd}"))
    with open("/proc/self/maps") as maps:
        held += maps.read().splitlines()
    return [line for line in held if "memfd:parlqr" in line]


def lets_go_of_memory_files(timeout=10.0):
    """Whether this process holds no memory file within ``timeout`` seconds.

    A pool dropped for a dead process hands its error, and with it the
    failed solve's frames, to the threads that ran the pool, which let go
    of them as they end.
    """
    deadline = time.monotonic() + timeout
    while held_memory_files() and time.monotonic() < deadline:
        time.sleep(0.05)
    return not held_memory_files()


def kill_own_process(task):
    """A pool task that ends its process as a crash would."""
    os.kill(os.getpid(), signal.SIGKILL)


def assert_same_solution(got, want):
    for field in ("states", "controls", "lambdas"):
        assert np.array_equal(getattr(got, field), getattr(want, field))


def link_segments(problem, J):
    """Balanced partition and its in-process segment results."""
    part = make_partition(problem.T, J)
    return part, sweep(problem, part)[0]


def dense_link_kkt(seg, x_init):
    """Dense KKT matrix and right-hand side of the reduced link problem.

    Unknowns: the links ``l_1 .. l_{J-1}``, then the feasibility-row
    multipliers of each segment in turn.
    """
    J, n = len(seg["Vxx"]), x_init.shape[0]
    rows = [Hx.shape[0] for Hx, _, _ in seg["feasibility"]]
    dim = (J - 1) * n + sum(rows)
    A, b = np.zeros((dim, dim)), np.zeros(dim)

    def link(k):
        return slice((k - 1) * n, k * n)

    at = (J - 1) * n
    for j in range(J):
        if j < J - 1:
            Hx, Hz, h1 = seg["feasibility"][j]
            z, nu = link(j + 1), slice(at, at + rows[j])
            at += rows[j]
            A[z, z] += seg["Vzz"][j]
            b[z] -= seg["vz1"][j]
            A[nu, z], A[z, nu] = Hz, Hz.T
            b[nu] = -h1
            if j:
                A[z, link(j)], A[link(j), z] = seg["Vzx"][j], seg["Vzx"][j].T
                A[nu, link(j)], A[link(j), nu] = Hx, Hx.T
            else:
                b[z] -= seg["Vzx"][j] @ x_init
                b[nu] -= Hx @ x_init
        if j:
            A[link(j), link(j)] += seg["Vxx"][j]
            b[link(j)] -= seg["vx1"][j]
    return A, b


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
        ref = serial.solve(problem)
        for J in (4, problem.T):
            part, segments = link_segments(problem, J)
            links, _, residual, _ = parallel._solve_links(
                segments, problem.x_init)
            _, rhs = dense_link_kkt(segments, problem.x_init)
            assert residual <= 1e-9 * (1.0 + np.abs(rhs).max())
            for k, tau in enumerate(part.split_times[1:-1]):
                assert max_deviation(links[k], ref.states[tau]) \
                    <= 1e-8 * tolerance_scale(problem)

    @pytest.mark.parametrize("n, m, T", [(3, 2, 12), (4, 1, 9)])
    def test_link_rcond_estimates_dense_condition(self, n, m, T):
        # (4, 1, 9): length-3 segments reach rank 3 < 4, one feasibility row each
        problem = generate(n, m, T, seed=21)
        _, segments = link_segments(problem, 3)
        dense, _ = dense_link_kkt(segments, problem.x_init)
        exact = 1.0 / np.linalg.cond(dense, 1)
        sol = parallel.solve_parallel(problem, J=3, workers=1)
        assert exact / 10 <= sol.details.link_rcond <= exact * 10

    def test_zero_value_blocks_raise_link_singular(self):
        n, J = 2, 3
        no_rows = (np.zeros((0, n)), np.zeros((0, n)), np.zeros(0))
        blocks = np.zeros((J, n, n))
        segments = {"Vxx": blocks, "vx1": np.zeros((J, n)), "Vzx": blocks[1:],
                    "Vzz": blocks[1:], "vz1": np.zeros((J - 1, n)),
                    "feasibility": (no_rows,) * (J - 1)}
        with pytest.raises(LinkSingular):
            parallel._solve_links(segments, np.ones(n))

    def test_unit_segments_solve_in_linear_memory(self):
        # the dense KKT matrix of this partition's link problem alone would
        # take 102 MB
        problem = generate(4, 1, 512, seed=7)
        ref = serial.solve(problem)
        tracemalloc.start()
        try:
            sol = parallel.solve_parallel(problem, J=problem.T, workers=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        tol = 1e-8 * tolerance_scale(problem)
        assert max_deviation(sol.states, ref.states) <= tol
        assert max_deviation(sol.lambdas, ref.lambdas) <= tol
        assert peak < 32 * 2**20

    def test_repeated_runs_bit_identical_per_worker_count(self):
        problem = generate(5, 2, 24, seed=15)
        for w in (1, 2):
            a = parallel.solve_parallel(problem, J=4, workers=w)
            b = parallel.solve_parallel(problem, J=4, workers=w)
            assert np.array_equal(a.details.link_points, b.details.link_points)
            assert np.array_equal(a.states, b.states)
            assert np.array_equal(a.lambdas, b.lambdas)

    def test_worker_count_does_not_change_results_materially(self):
        # J=T sends runs of unit segments to the pool, one run per process
        problem = generate(5, 2, 24, seed=15)
        for J in (4, problem.T):
            a = parallel.solve_parallel(problem, J=J, workers=1)
            b = parallel.solve_parallel(problem, J=J, workers=2)
            assert np.array_equal(a.details.link_points, b.details.link_points)
            assert np.abs(a.states - b.states).max() <= 1e-12
            assert np.abs(a.lambdas - b.lambdas).max() <= 1e-12


    def test_results_bit_identical_across_worker_counts(self, monkeypatch):
        # None: the default count, on two cores as on the benchmark's host
        monkeypatch.delenv(parallel.WORKERS_ENV_VAR, raising=False)
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 2)
        problem = generate(5, 2, 24, seed=15)
        ragged = Partition(5, (0, 1, 7, 9, 10, 24))
        for part in (make_partition(24, 8), make_partition(24, 24), ragged):
            ref = parallel.solve_parallel(problem, J=part.J, workers=1, partition=part)
            for w in (2, 3, None):
                sol = parallel.solve_parallel(problem, J=part.J, workers=w, partition=part)
                for field in ("states", "controls", "lambdas", "objective",
                              "kkt_residual_inf"):
                    assert np.array_equal(getattr(sol, field), getattr(ref, field))
                assert sol.details.link_mismatch == ref.details.link_mismatch
                for name in ("Kx", "k1"):
                    assert np.array_equal(
                        np.stack([getattr(p, name) for p in sol.policies]),
                        np.stack([getattr(p, name) for p in ref.policies]))
                # the solve's own objective and residual, bit for bit
                assert sol.kkt_residual_inf == kkt_residual(problem, sol)
                assert sol.objective == evaluate_objective(
                    problem, sol.states, sol.controls)
        ref = parallel.smooth(problem, parallel.solve_parallel(problem, J=8, workers=1),
                              workers=1)
        for w in (2, 3, None):
            sol = parallel.smooth(
                problem, parallel.solve_parallel(problem, J=8, workers=w), workers=w)
            assert np.array_equal(sol.states, ref.states)
            assert np.array_equal(sol.controls, ref.controls)

    def test_link_factorization_runs_on_one_lapack_thread(self, monkeypatch):
        calls = []

        def set_threads(threads):  # returns the count it replaces
            calls.append(threads)
            return 4 if threads == 1 else 1

        monkeypatch.setattr(parallel, "_lapack_thread_setter", lambda: set_threads)
        # 2n - 1 = 65 bands take LAPACK's blocked factorization; 5 do not
        parallel.solve_parallel(generate(33, 10, 16, seed=3), J=4, workers=1)
        assert calls == [1, 4]
        parallel.solve_parallel(generate(3, 2, 16, seed=3), J=4, workers=1)
        assert calls == [1, 4]

    def test_band_matrix_matches_dense_assembly(self, monkeypatch):
        # unit segments with m < n: every segment but the last has rows
        problem = generate(4, 1, 12, seed=21)
        _, seg = link_segments(problem, problem.T)
        rows = [Hx.shape[0] for Hx, _, _ in seg["feasibility"]]
        assert all(rows)
        factored, real = [], scipy.linalg.lapack.dgbsv

        def dgbsv(kl, ku, ab, b):
            factored.append((kl, ab.copy(), b.copy()))
            return real(kl, ku, ab, b)

        monkeypatch.setattr(parallel.scipy.linalg.lapack, "dgbsv", dgbsv)
        parallel._solve_links(seg, problem.x_init)
        (bw, ab, b), = factored
        dim, n = len(b), problem.n
        i, j = np.indices((dim, dim))
        inside = np.abs(i - j) <= bw
        band = np.zeros((dim, dim))
        band[inside] = ab[2 * bw + i[inside] - j[inside], j[inside]]
        # per link, its unknowns follow the multipliers of the rows that end
        # there; the dense unknowns are the links, then the multipliers
        nu_at = np.concatenate([[0], np.cumsum(np.add(rows, n))[:-1]])
        order = np.concatenate(
            [(nu_at[:, None] + np.add(rows, np.arange(n)[:, None]).T).ravel()]
            + [np.arange(nu, nu + r) for nu, r in zip(nu_at, rows)])
        dense, rhs = dense_link_kkt(seg, problem.x_init)
        assert np.array_equal(band[np.ix_(order, order)], dense)
        assert np.array_equal(b[order, 0], rhs)

    def test_details_report_workers_and_batches(self):
        problem = generate(3, 2, 16, seed=3)
        one = parallel.solve_parallel(problem, J=8, workers=1)
        assert (one.details.workers, one.details.batches) == (1, ((0, 7),))
        three = parallel.solve_parallel(problem, J=8, workers=3)
        assert three.details.workers == 3
        assert three.details.batches == ((0, 2), (3, 5), (6, 7))


def without_controls(problem, stages):
    """Copy of the problem with no control authority at the given stages."""
    pairs = list(problem.stages)
    for t in stages:
        cost, dyn = pairs[t]
        pairs[t] = (cost, StageDynamics(dyn.Fx, np.zeros_like(dyn.Fu), dyn.f1))
    return LqrProblem(pairs, problem.terminal, problem.x_init)


LOCKSTEP_CASES = {
    "balanced": lambda: (generate(4, 2, 64, seed=31), make_partition(64, 8)),
    "unit": lambda: (generate(4, 1, 24, seed=32), make_partition(24, 24)),
    "ragged": lambda: (generate(3, 2, 15, seed=33), Partition(4, (0, 1, 6, 8, 15))),
    # stages 14 and 23 end segments 3 and 5 of 8 within the steps that
    # still have endpoint rows pending, so those segments reach other ranks
    "mixed_ranks": lambda: (without_controls(generate(4, 2, 32, seed=34), (14, 23)),
                            make_partition(32, 8)),
}


class TestLockstep:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("case", sorted(LOCKSTEP_CASES))
    def test_batched_sweeps_match_each_segment_alone(self, case, workers):
        problem, part = LOCKSTEP_CASES[case]()
        seg, _, used = sweep(problem, part, workers, collect=True)
        assert used == workers
        for j in range(part.J):
            lo, hi = part.segment(j)
            last = j == part.J - 1
            alone = endpoint.backward_pass(
                problem.stages[lo:hi], problem.terminal if last else None,
                terminal_constrained=not last, collect_diagnostics=not last)
            for name in ("Kx", "k1", "Kz"):
                assert np.array_equal(
                    seg[name][lo:hi],
                    np.stack([getattr(p, name) for p in alone.policies]))
            v0 = alone.values[0]
            assert np.array_equal(seg["Vxx"][j], v0.Vxx)
            assert np.array_equal(seg["vx1"][j], v0.vx1)
            if last:
                assert seg["diagnostics"][j] is None
                continue
            for name in ("Vzx", "Vzz", "vz1"):
                assert np.array_equal(seg[name][j], getattr(v0, name))
            feas = alone.feasibility
            for got, want in zip(seg["feasibility"][j], (feas.Hx, feas.Hz, feas.h1)):
                assert np.array_equal(got, want)
            assert vars(seg["diagnostics"][j]) == vars(alone.diagnostics)

    @pytest.mark.parametrize("case", sorted(LOCKSTEP_CASES))
    def test_lockstep_rollout_matches_each_segment_alone(self, case):
        problem, part = LOCKSTEP_CASES[case]()
        T, n, m, splits = problem.T, problem.n, problem.m, part.split_times
        rng = np.random.default_rng(7)
        Kx, k = 0.3 * rng.standard_normal((T, m, n)), rng.standard_normal((T, m))
        dynamics = problem.stages.Fx, problem.stages.Fu, problem.stages.f1
        states, controls = np.empty((T + 1, n)), np.empty((T, m))
        states[list(splits[:-1])] = starts = rng.standard_normal((part.J, n))
        propagate(Kx, k, *dynamics, states, controls, splits)
        for j in range(part.J):
            lo, hi = part.segment(j)
            alone, alone_controls = np.empty((hi - lo + 1, n)), np.empty((hi - lo, m))
            alone[0] = starts[j]
            propagate(Kx[lo:hi], k[lo:hi], *(a[lo:hi] for a in dynamics), alone,
                      alone_controls)
            assert np.array_equal(states[lo:hi], alone[:-1])
            assert np.array_equal(controls[lo:hi], alone_controls)
        assert np.array_equal(states[T], alone[-1])

    def test_sent_tasks_carry_no_stage_data(self, monkeypatch):
        sent, run_tasks = [], parallel._run_tasks

        def capture(local, remote):
            sent.append([len(pickle.dumps(task)) for task in remote])
            return run_tasks(local, remote)

        monkeypatch.setattr(parallel, "_run_tasks", capture)
        short, long = (parallel.solve_parallel(generate(3, 2, T, seed=3), J=8, workers=2)
                       for T in (256, 2048))
        # one batch per worker, at any horizon
        assert short.details.batches == long.details.batches == ((0, 3), (4, 7))
        assert long.details.shared_bytes > 7 * short.details.shared_bytes
        # eight times the stages, yet each sent task, the sweep and the
        # reconstruction of the pool's run, keeps its size up to the pickled
        # width of the stage numbers and byte offsets it names
        short_sweep, short_finish, long_sweep, long_finish = sent
        assert len(short_sweep) == len(short_finish) == 1
        for a, b in zip(short_sweep + short_finish, long_sweep + long_finish):
            assert abs(a - b) <= 32
            assert b < short.details.shared_bytes / 10

    def test_unshareable_stages_are_swept_here(self, monkeypatch):
        problem = generate(3, 2, 64, seed=3)
        want = parallel.solve_parallel(problem, J=8, workers=1)
        # no memory file, and none left from an earlier solve
        parallel.shutdown_pools()

        def no_memory_file(name, flags=0):
            raise OSError("no memory files")

        monkeypatch.setattr(os, "memfd_create", no_memory_file)
        got = parallel.solve_parallel(problem, J=8, workers=2)
        assert (got.details.workers, got.details.shared_bytes) == (1, 0)
        assert got.details.batches == ((0, 3), (4, 7))
        assert_same_solution(got, want)
        assert_same_solution(parallel.smooth(problem, got, workers=2),
                             parallel.smooth(problem, want, workers=1))

    def test_mixed_ranks_case_reaches_other_ranks(self):
        # rows still pending after two steps: two where stage 14 or 23 spent
        # no control direction on them, none elsewhere
        problem, part = LOCKSTEP_CASES["mixed_ranks"]()
        pending = [endpoint.backward_pass(problem.stages[lo:hi]).constraints[2].rows
                   for lo, hi in map(part.segment, range(part.J - 1))]
        assert pending == [0, 0, 0, 2, 0, 2, 0]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_cholesky_failure_in_a_batch_reports_global_stage(self, workers):
        # with m > n a unit segment keeps free control directions, whose
        # cost Hessian its sweep factors; with two workers stage 13 lies in
        # the pool's run and stage 3 in this process's own.  Stage 15 is
        # the terminal segment's last, swept in its run's batch; with J=5
        # that segment holds stages 13 to 15, and its sweep meets 15 first
        base = generate(1, 2, 16, seed=3)
        broken = with_control_cost(base, 13, -1.0)
        for stage, problem, J in ((13, broken, 16), (3, with_control_cost(broken, 3, -1.0), 16),
                                  (15, with_control_cost(base, 15, -1.0), 16),
                                  (15, with_control_cost(broken, 15, -1.0), 5)):
            with pytest.raises(CholeskyFailure) as info:
                parallel.solve_parallel(problem, J=J, workers=workers)
            assert info.value.stage == stage
            assert str(info.value) == f"Cholesky failed at stage {stage}"
            assert not shared_files()


class TestPoolSize:
    def test_pool_never_gets_more_processes_than_tasks(self, monkeypatch):
        asked, slots = [], []

        class InProcessPool:
            def submit(self, fn, task):
                future = concurrent.futures.Future()
                future.set_result(fn(task))
                return future

        def get_pool(slot):
            asked.append(slot)
            return InProcessPool()

        def slots_used(result):
            slots.append(sorted(set(asked)))
            asked.clear()
            return result

        monkeypatch.setattr(parallel, "_get_pool", get_pool)
        problem = generate(3, 2, 16, seed=3)
        sol = slots_used(parallel.solve_parallel(problem, J=8, workers=5000))
        monkeypatch.setenv(parallel.WORKERS_ENV_VAR, "5000")
        base = slots_used(parallel.solve_parallel(problem, J=8))
        slots_used(parallel.smooth(problem, base))
        # this process sweeps one of the runs itself, each slot one other
        assert slots == [list(range(7)), list(range(7)), list(range(6))]
        assert kkt_residual(problem, sol) <= 1e-8 * tolerance_scale(problem)


class TestDefaultWorkers:
    @pytest.mark.parametrize("n, m, T, J, on_two, on_eight", [
        (4, 2, 1024, 8, 1, 1),      # narrow
        (4, 1, 256, 256, 1, 1),     # degenerate
        (40, 10, 2048, 8, 2, 8),    # wide
        (40, 10, 64, 8, 2, 1),      # eight runs of 8 stages each are too short
    ])
    def test_rule(self, n, m, T, J, on_two, on_eight):
        assert parallel.sized_workers(n, m, T, J, 2) == on_two
        assert parallel.sized_workers(n, m, T, J, 8) == on_eight
        assert parallel.sized_workers(n, m, T, J, 1) == 1
        assert parallel.sized_workers(n, m, T, 1, 8) == 1

    def test_rule_on_the_stages_smooth_sweeps(self):
        # smooth sweeps J - 1 segments, all the stages but the last segment's
        assert parallel.sized_workers(40, 10, 2048 - 256, 7, 2) == 2
        assert parallel.sized_workers(4, 2, 1024 - 128, 7, 2) == 1

    def test_explicit_and_environment_counts_keep_their_meaning(self, monkeypatch):
        problem = generate(4, 2, 64, seed=4)
        sol = parallel.solve_parallel(problem, J=8, workers=2)
        assert (sol.details.workers, sol.details.workers_reason) == (2, "explicit")
        assert sol.details.shared_bytes > 0
        smoothed = parallel.smooth(problem, sol, workers=2)
        assert (smoothed.details.workers, smoothed.details.workers_reason) == (2, "explicit")
        monkeypatch.setenv(parallel.WORKERS_ENV_VAR, "2")
        sol = parallel.solve_parallel(problem, J=8)
        assert (sol.details.workers, sol.details.workers_reason) == (2, "environment")
        smoothed = parallel.smooth(problem, sol)
        assert (smoothed.details.workers, smoothed.details.workers_reason) == (
            2, "environment")

    def test_default_solve_of_a_small_problem_starts_no_process(self, monkeypatch):
        monkeypatch.delenv(parallel.WORKERS_ENV_VAR, raising=False)
        parallel.shutdown_pools()
        for child in multiprocessing.active_children():
            child.join(30)
        problem = generate(4, 2, 64, seed=4)
        sol = parallel.solve_parallel(problem, J=8)
        smoothed = parallel.smooth(problem, sol)
        assert not multiprocessing.active_children()
        for details in (sol.details, smoothed.details):
            assert (details.workers, details.workers_reason, details.shared_bytes) == (
                1, "rule", 0)

    def test_smooth_details_describe_its_own_sweep(self):
        problem = generate(3, 2, 64, seed=4)
        base = parallel.solve_parallel(problem, J=8, workers=1)
        smoothed = parallel.smooth(problem, base, workers=2)
        details = smoothed.details
        assert (details.workers, details.batches) == (2, ((0, 3), (4, 6)))
        # the pool's run, segments 4 to 6, is stages 32 to 55
        per_stage = sum(getattr(problem.stages, f)[0].nbytes for f in problem.stages.FIELDS)
        assert details.shared_bytes == 24 * per_stage
        assert set(details.timings) == {"publish", "local_sweep", "wait"}
        assert base.details.workers == 1  # the refined solve's details stay its own


class TestSharedStages:
    def test_solve_and_smooth_leave_no_files(self):
        problem = generate(3, 2, 64, seed=4)
        sol = parallel.solve_parallel(problem, J=8, workers=2)
        assert sol.details.workers == 2
        assert not shared_files()
        parallel.smooth(problem, sol, workers=2)
        assert not shared_files()

    def test_details_report_shared_bytes_and_timings(self):
        problem = generate(3, 2, 64, seed=4)
        one = parallel.solve_parallel(problem, J=8, workers=1)
        two = parallel.solve_parallel(problem, J=8, workers=2)
        # the pool's run, segments 4 to 7, is stages 32 to 63
        per_stage = sum(getattr(problem.stages, f)[0].nbytes for f in problem.stages.FIELDS)
        assert one.details.shared_bytes == 0
        assert two.details.shared_bytes == 32 * per_stage
        for details in (one.details, two.details):
            assert set(details.timings) == {
                "publish", "local_sweep", "wait", "links", "reconstruct", "residual"}
            assert all(t >= 0.0 for t in details.timings.values())

    def test_killed_worker_raises_worker_failure_then_pool_recovers(self):
        problem = generate(3, 2, 64, seed=4)
        want = parallel.solve_parallel(problem, J=8, workers=1)
        assert parallel.solve_parallel(problem, J=8, workers=2).details.workers == 2
        for pool in parallel._POOLS.values():
            for pid in list(pool._processes):
                os.kill(pid, signal.SIGKILL)
        with pytest.raises(WorkerFailure):
            parallel.solve_parallel(problem, J=8, workers=2)
        assert not shared_files()
        assert lets_go_of_memory_files()  # closed with the pools
        got = parallel.solve_parallel(problem, J=8, workers=2)
        assert got.details.workers == 2
        assert_same_solution(got, want)

    def test_worker_killed_in_reconstruction_raises_worker_failure(self, monkeypatch):
        problem = generate(3, 2, 64, seed=4)
        want = parallel.solve_parallel(problem, J=8, workers=1)
        parallel.shutdown_pools()
        with monkeypatch.context() as patch:
            # the pool forks with a phase 3 that kills its own process
            patch.setattr(parallel, "_finish_shared", kill_own_process)
            with pytest.raises(WorkerFailure):
                parallel.solve_parallel(problem, J=8, workers=2)
        assert not parallel._POOLS
        assert not shared_files()
        assert lets_go_of_memory_files()
        got = parallel.solve_parallel(problem, J=8, workers=2)
        assert got.details.workers == 2
        assert_same_solution(got, want)

    def test_phases_of_a_run_may_meet_different_processes(self, monkeypatch):
        problem = generate(3, 2, 64, seed=4)
        want = parallel.solve_parallel(problem, J=8, workers=1)
        pools = []

        def new_pool(slot):
            pools.append(concurrent.futures.ProcessPoolExecutor(
                max_workers=1, mp_context=multiprocessing.get_context("fork")))
            return pools[-1]

        monkeypatch.setattr(parallel, "_get_pool", new_pool)
        try:
            got = parallel.solve_parallel(problem, J=8, workers=2)
        finally:
            for pool in pools:
                pool.shutdown()
        # the pool's run swept in one process and reconstructed in another
        assert len(pools) == 2
        assert_same_solution(got, want)
        for name in ("Kx", "k1"):
            assert np.array_equal(np.stack([getattr(p, name) for p in got.policies]),
                                  np.stack([getattr(p, name) for p in want.policies]))
        assert not shared_files()

    def test_shutdown_pools_leaves_no_files(self):
        problem = generate(3, 2, 64, seed=4)
        parallel.solve_parallel(problem, J=8, workers=3)
        parallel.shutdown_pools()
        assert not parallel._POOLS
        assert not shared_files()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc")
    def test_shutdown_pools_releases_the_memory_file(self):
        problem = generate(3, 2, 64, seed=4)
        parallel.smooth(problem, parallel.solve_parallel(problem, J=8, workers=3), workers=3)
        # between solves the file stays open for the pools, but unmapped
        held = held_memory_files()
        assert len(held) == 1 and held[0].startswith("/memfd:parlqr")
        parallel.shutdown_pools()
        for child in multiprocessing.active_children():
            child.join(30)
        assert not held_memory_files()

    def test_killed_caller_leaves_no_file(self):
        # the caller dies between publishing the stages and asking the pool
        script = "\n".join([
            "import os, signal",
            "from parlqr import generate, parallel",
            "parallel._run_tasks = lambda *_: os.kill(os.getpid(), signal.SIGKILL)",
            "parallel.solve_parallel(generate(3, 2, 64, seed=4), J=8, workers=2)"])
        src = os.path.dirname(os.path.dirname(parallel.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        child = subprocess.Popen([sys.executable, "-c", script], env=env)
        assert child.wait(60) == -signal.SIGKILL
        assert not shared_files(child.pid)


def assert_pooled_as_one_process(problem, J=8):
    """A two-worker solve and its smoothing pass bit-identical to one
    process's."""
    want = parallel.solve_parallel(problem, J=J, workers=1)
    got = parallel.solve_parallel(problem, J=J, workers=2)
    assert got.details.workers == 2
    for a, b in ((got, want), (parallel.smooth(problem, got, workers=2),
                               parallel.smooth(problem, want, workers=1))):
        assert_same_solution(a, b)
        for name in ("Kx", "k1"):
            assert np.array_equal(np.stack([getattr(p, name) for p in a.policies]),
                                  np.stack([getattr(p, name) for p in b.policies]))
        assert (a.objective, a.kkt_residual_inf) == (b.objective, b.kkt_residual_inf)


def arena_size():
    return os.fstat(parallel._ARENA).st_size


class TestArenaReuse:
    """Pooled solves share one memory file, which must never serve one
    solve's rows to another."""

    def test_solve_that_grows_the_file(self):
        parallel.shutdown_pools()
        assert_pooled_as_one_process(generate(3, 2, 64, seed=4))
        small = arena_size()
        assert_pooled_as_one_process(generate(5, 3, 256, seed=5))
        assert arena_size() > small

    def test_smaller_solve_after_a_larger_one(self):
        parallel.shutdown_pools()
        assert_pooled_as_one_process(generate(5, 3, 256, seed=5))
        large = arena_size()
        assert_pooled_as_one_process(generate(3, 2, 64, seed=4))
        assert arena_size() == large

    def test_solve_after_a_failure_in_the_pool(self):
        # stage 13 lies in the pool's run
        base = generate(1, 2, 16, seed=3)
        with pytest.raises(CholeskyFailure) as info:
            parallel.solve_parallel(with_control_cost(base, 13, -1.0), J=16, workers=2)
        assert info.value.stage == 13
        assert_pooled_as_one_process(base, J=16)

    def test_solve_after_shutdown_between_pooled_solves(self):
        assert_pooled_as_one_process(generate(5, 3, 256, seed=5))
        parallel.shutdown_pools()
        assert parallel._ARENA is None
        assert_pooled_as_one_process(generate(3, 2, 64, seed=4))

    def test_concurrent_pooled_solves_take_the_file_in_turn(self):
        problems = [generate(3, 2, 64, seed=4), generate(5, 3, 256, seed=5)]
        want = [parallel.solve_parallel(p, J=8, workers=1) for p in problems]
        # the pools start before the threads, so no process forks beside them
        parallel.solve_parallel(problems[0], J=8, workers=2)
        start = threading.Barrier(len(problems))

        def solve(problem):
            start.wait()
            return [parallel.solve_parallel(problem, J=8, workers=2) for _ in range(10)]

        with concurrent.futures.ThreadPoolExecutor(len(problems)) as threads:
            got = list(threads.map(solve, problems))
        for sols, one in zip(got, want):
            for sol in sols:
                assert sol.details.workers == 2
                assert_same_solution(sol, one)
                assert sol.objective == one.objective


class TestSegmentFailures:
    @pytest.mark.parametrize("exc", [
        CholeskyFailure(3), FactorizationFailure(2), FactorizationFailure(None, "why"),
        Infeasible(0.5, segment=1), LinkSingular("singular"),
        WorkerFailure("a worker process ended abruptly")])
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

    def test_infeasible_links_leave_no_file(self):
        # unit segments with m < n each have feasibility rows, whose residual
        # at the solved links no zero tolerance admits
        problem = generate(4, 1, 64, seed=0)
        with pytest.raises(Infeasible) as info:
            parallel.solve_parallel(problem, J=64, workers=2,
                                    tolerances=ToleranceSet(feas_tol=0.0))
        assert info.value.segment == 0
        assert not shared_files()
        assert_same_solution(parallel.solve_parallel(problem, J=64, workers=2),
                             parallel.solve_parallel(problem, J=64, workers=1))

    def test_singular_links_leave_no_file(self, monkeypatch):
        problem = generate(4, 1, 64, seed=0)

        def singular(seg, x_init):
            raise LinkSingular("link system is singular")

        with monkeypatch.context() as patch:
            patch.setattr(parallel, "_solve_links", singular)
            with pytest.raises(LinkSingular):
                parallel.solve_parallel(problem, J=64, workers=2)
        assert not shared_files()
        assert_same_solution(parallel.solve_parallel(problem, J=64, workers=2),
                             parallel.solve_parallel(problem, J=64, workers=1))

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
        # with two workers stage 6 lies in this process's own run
        assert not shared_files()


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
