"""End-to-end acceptance checks.

Each test exercises one exit criterion at its stated tolerance and prints a
single PASS line (visible with ``pytest -s`` or in the failure report).
Criterion 6's eight-worker speedup clause only applies on machines with at
least eight cores and is skipped elsewhere, with the measured context
printed instead.
"""

import dataclasses
import os
import time

import numpy as np
import pytest

from parlqr import bench, demo, endpoint, kkt, parallel, serial
from parlqr.errors import Infeasible
from parlqr.generate import generate
from parlqr.problem import data_magnitude

from conftest import (
    drop_controls,
    free_evolution,
    interleaved_min_of,
    max_deviation,
)

N_INSTANCES = 200
ORACLE_TOL = 1e-8


def instance(k):
    dims = np.random.default_rng(10_000 + k)
    n = int(dims.integers(1, 7))
    m = int(dims.integers(1, 4))
    T = int(dims.integers(1, 21))
    return generate(n, m, T, seed=20_000 + k)


@dataclasses.dataclass
class InstanceRun:
    problem: object
    scale: float
    oracle: object
    serial: object
    endpoint: object
    parallel: dict          # J -> solution
    diagnostics: object


@pytest.fixture(scope="module")
def runs():
    out = []
    solve_seconds = 0.0
    for k in range(N_INSTANCES):
        problem = instance(k)
        scale = 1.0 + data_magnitude(problem)
        tic = time.perf_counter()
        oracle = kkt.solve_dense(problem)
        ser = serial.solve(problem)
        end = endpoint.solve_endpoint(problem, problem.x_init, oracle.states[-1])
        par = {}
        for J in sorted({1, 2, 3, 4, problem.T}):
            if J <= problem.T:
                par[J] = parallel.solve_parallel(problem, J=J, workers=1)
        solve_seconds += time.perf_counter() - tic
        diag = endpoint.backward_pass(problem.stages, problem.terminal,
                                      collect_diagnostics=True).diagnostics
        out.append(InstanceRun(problem, scale, oracle, ser, end, par, diag))
    return out, solve_seconds


@pytest.mark.acceptance
def test_criterion_1_oracle_equivalence(runs):
    records, solve_seconds = runs
    worst = 0.0
    for run in records:
        tol = ORACLE_TOL * run.scale
        for name, sol in [("serial", run.serial), ("endpoint", run.endpoint),
                          *[(f"parallel J={J}", s) for J, s in run.parallel.items()]]:
            for field in ("states", "controls", "lambdas"):
                dev = max_deviation(getattr(sol, field),
                                    getattr(run.oracle, field))
                worst = max(worst, dev / run.scale)
                assert dev <= tol, (
                    f"{name} {field} deviates {dev:.3e} > {tol:.3e} "
                    f"(n={run.problem.n}, m={run.problem.m}, T={run.problem.T})")
    assert solve_seconds < 60.0, f"solves took {solve_seconds:.1f}s"
    print(f"\nACCEPTANCE 1 oracle equivalence: PASS "
          f"({N_INSTANCES} instances, worst scaled deviation {worst:.2e}, "
          f"solve time {solve_seconds:.1f}s)")


@pytest.mark.acceptance
def test_criterion_2_demo_identity(tmp_path):
    config = demo.DemoConfig()  # alpha_t=10, alpha_T=1e3, beta_t=1e-2
    summary = demo.run_demo(config, tmp_path, workers=1)
    dev = summary["undisturbed_max_pairwise_deviation"]
    assert dev <= 1e-8, f"undisturbed rollouts differ by {dev:.3e}"
    costs = summary["disturbed_costs"]
    spread = abs(costs["serial"] - costs["parallel"])
    assert spread > 1e-6, "disturbed rollouts should diverge"
    print(f"\nACCEPTANCE 2 serial/parallel trajectory identity: PASS "
          f"(undisturbed deviation {dev:.2e}; observed disturbed costs "
          f"serial {costs['serial']:.4e}, parallel {costs['parallel']:.4e}, "
          f"smoothed {costs['smoothed']:.4e})")


@pytest.mark.acceptance
def test_criterion_3_link_condition(runs):
    records, _ = runs
    worst = 0.0
    checked = 0
    for run in records:
        for J, sol in run.parallel.items():
            if J == 1:
                continue
            mismatch = sol.details.link_mismatch
            worst = max(worst, mismatch / run.scale)
            checked += sol.details.partition.J - 1
            assert mismatch <= ORACLE_TOL * run.scale
    print(f"\nACCEPTANCE 3 multiplier matching at links: PASS "
          f"({checked} interior links, worst scaled mismatch {worst:.2e})")


@pytest.mark.acceptance
def test_criterion_4_infeasibility_detection():
    worst_gap_error = 0.0
    for k in range(25):
        problem = drop_controls(instance(k))
        rng = np.random.default_rng(30_000 + k)
        x_free = free_evolution(problem)
        x_term = x_free + rng.standard_normal(problem.n)
        gap = float(np.abs(x_free - x_term).max())
        with pytest.raises(Infeasible) as info:
            endpoint.solve_endpoint(problem, problem.x_init, x_term)
        worst_gap_error = max(worst_gap_error, abs(info.value.residual - gap))
        assert info.value.residual == pytest.approx(gap, abs=1e-9)
        # the uncontrolled evolution itself stays feasible
        endpoint.solve_endpoint(problem, problem.x_init, x_free)
    print(f"\nACCEPTANCE 4 infeasibility detection: PASS "
          f"(25 instances, worst residual-vs-gap error {worst_gap_error:.2e})")


@pytest.mark.acceptance
def test_criterion_5_numerical_invariants(runs):
    records, _ = runs
    worst_basis = worst_proj = worst_grad = 0.0
    for run in records:
        worst_basis = max(worst_basis, run.diagnostics.basis_defect)
        worst_proj = max(worst_proj, run.diagnostics.projector_defect)
        assert run.diagnostics.basis_defect <= 1e-10
        assert run.diagnostics.projector_defect <= 1e-12
        # multipliers defined through the value-function gradient satisfy
        # the full stationarity stack
        resid = run.serial.kkt_residual_inf
        worst_grad = max(worst_grad, resid / run.scale)
        assert resid <= ORACLE_TOL * run.scale
    print(f"\nACCEPTANCE 5 numerical invariants: PASS "
          f"(basis {worst_basis:.2e} <= 1e-10, projector {worst_proj:.2e} "
          f"<= 1e-12, value-gradient stationarity {worst_grad:.2e} <= 1e-8)")


@pytest.mark.acceptance
@pytest.mark.slow
def test_criterion_6_scaling():
    n, m = 40, 10
    horizons = [256, 512, 1024, 2048, 4096]
    problems = [generate(n, m, T, seed=50_000 + T) for T in horizons]
    secs = interleaved_min_of(
        [lambda p=p: serial.solve(p) for p in problems], repeats=5)
    serial_times = dict(zip(horizons, secs))
    del problems
    slope = np.polyfit(np.log(horizons),
                       np.log([serial_times[T] for T in horizons]), 1)[0]
    assert 0.8 <= slope <= 1.2, f"serial log-log slope {slope:.3f}"
    doubling = serial_times[2048] / serial_times[1024]
    assert 1.6 <= doubling <= 2.4, f"T-doubling ratio {doubling:.2f}"
    print(f"\nACCEPTANCE 6a serial scaling: PASS (log-log slope {slope:.3f}, "
          f"doubling ratio {doubling:.2f}, "
          f"times {['%.3fs' % serial_times[T] for T in horizons]})")

    cores = os.cpu_count() or 1
    problem = generate(n, m, 2048, seed=50_000 + 2048)
    serial_secs, parallel_secs = interleaved_min_of(
        [lambda: serial.solve(problem),
         lambda: parallel.solve_parallel(problem, J=8, workers=8)], repeats=10)
    ref = serial.solve(problem)
    sol = parallel.solve_parallel(problem, J=8, workers=8)
    assert max_deviation(sol.states, ref.states) <= 1e-8 * (
        1.0 + data_magnitude(problem))
    ratio = parallel_secs / serial_secs
    print(f"ACCEPTANCE 6b parallel speedup: serial {serial_secs:.3f}s, "
          f"parallel(J=8, workers=8) {parallel_secs:.3f}s, ratio {ratio:.2f} "
          f"on {cores} cores")
    if cores < 8:
        pytest.skip(f"speedup bound applies on >=8-core machines; "
                    f"this machine has {cores} (measured ratio {ratio:.2f})")
    assert ratio <= 0.67, f"parallel/serial ratio {ratio:.2f} > 0.67"


@pytest.mark.acceptance
def test_criterion_7_determinism(tmp_path):
    # bench CSV bodies identical apart from the timing column
    def stripped_rows(report):
        rows = []
        for rec in report.records:
            cells = rec.csv_row().split(",")
            del cells[6]
            rows.append(",".join(cells))
        return rows

    a = bench.run_bench(3, 2, T_list=[8, 12], J_list=[1, 2, 3],
                        workers_list=[1, 2], repeats=1, seed=11)
    b = bench.run_bench(3, 2, T_list=[8, 12], J_list=[1, 2, 3],
                        workers_list=[1, 2], repeats=1, seed=11)
    assert stripped_rows(a) == stripped_rows(b)

    config = demo.DemoConfig(T=100)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    demo.run_demo(config, dir_a, workers=1)
    demo.run_demo(config, dir_b, workers=1)
    for name in sorted(os.listdir(dir_a)):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name
    print("\nACCEPTANCE 7 determinism: PASS (bench bodies and demo CSV files "
          "byte-identical across reruns)")
