"""Tests of the benchmark itself: its checks, its oracle agreement, its runs.

    python3 -m pytest -q benchmark/tests
"""

from __future__ import annotations

import ast
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402

parlqr = run.import_parlqr()

# scaled-down members of each workload family: same n, m and J, T <= 128
SMALL = {
    "wide": run.Workload(n=40, m=10, T=64, J=8, endpoint_T=32,
                         parallel_multipliers=False),
    "narrow": run.Workload(n=4, m=2, T=128, J=8, endpoint_T=128),
    "degenerate": run.Workload(n=4, m=1, T=32, J=32, endpoint_T=32),
}


@pytest.fixture(scope="module", params=sorted(SMALL))
def case(request):
    w = SMALL[request.param]
    return run.Case(parlqr, w, 5, parlqr.generate(w.n, w.m, w.T, 5))


def test_dense_oracle_passes_the_checks(case):
    oracle = parlqr.solve_dense(case.problem)
    assert checks.check_optimal(case.data, oracle, "oracle") == []
    assert checks.check_agree(case.data, oracle, case.reference, "serial",
                              checks.ALL_FIELDS) == []
    assert case.reference_problems == []


def test_dense_oracle_agrees_at_the_endpoint_pair(case):
    sub = case.fresh_sub()
    pinned = parlqr.LqrProblem(sub.stages, sub.terminal, case.pair[0])
    oracle = parlqr.solve_dense(pinned, terminal_constraint=case.pair[1])
    assert checks.check_optimal(case.eval_data, oracle, "oracle") == []
    affine = parlqr.solve_endpoint_affine(case.fresh_sub())
    sol = affine.evaluate(*case.pair)
    assert case.check_eval(sol) == []
    assert checks.check_agree(case.eval_data, oracle, sol, "eval",
                              checks.ALL_FIELDS) == []


def perturbed(sol, **changes):
    return dataclasses.replace(sol, **changes)


def bump(arr, index, delta):
    out = np.array(arr, dtype=float)
    out[index] += delta
    return out


def test_checks_reject_perturbed_solutions(case):
    d, ref = case.data, case.reference
    step = 3 * checks.TOL * d.scale
    mid = d.T // 2
    label = "x"
    assert checks.check_optimal(d, ref, label) == []
    assert checks.check_optimal(d, perturbed(ref, states=bump(ref.states, (mid, 0), step)), label)
    assert checks.check_optimal(d, perturbed(ref, controls=bump(ref.controls, (mid, 0), step)), label)
    assert checks.check_optimal(d, perturbed(ref, lambdas=bump(ref.lambdas, (mid, 0), step)), label)
    assert checks.check_optimal(
        d, perturbed(ref, lambdas=bump(ref.lambdas, (mid, 0), step)), label,
        multipliers=False) == []
    assert checks.check_optimal(d, perturbed(
        ref, objective=ref.objective + 3 * checks.OBJECTIVE_TOL * (1 + abs(ref.objective))), label)
    # agreement with the reference
    other = perturbed(ref, states=bump(ref.states, (mid, 0), step))
    assert checks.check_agree(d, ref, other, label)
    other = perturbed(ref, controls=bump(ref.controls, (mid, 0), step))
    assert checks.check_agree(d, ref, other, label)
    other = perturbed(ref, lambdas=bump(ref.lambdas, (mid, 0), step))
    assert checks.check_agree(d, ref, other, label) == []
    assert checks.check_agree(d, ref, other, label, checks.ALL_FIELDS)
    # a policy that does not drive the reported trajectory
    policies = list(ref.policies)
    p = policies[mid]
    policies[mid] = parlqr.AffinePolicy(p.Kx, p.Kz, bump(p.k1, 0, step))
    assert checks.check_rollout(d, perturbed(ref, policies=tuple(policies)), label)
    assert checks.check_rollout(d, perturbed(ref, policies=ref.policies[1:]), label)


def test_endpoint_checks_reject_misses(case):
    x_init, x_term = case.pair
    sol = parlqr.solve_endpoint_affine(case.fresh_sub()).evaluate(x_init, x_term)
    assert checks.check_endpoints(sol, x_init, x_term, "e") == []
    assert checks.check_endpoints(sol, bump(x_init, 0, 1e-12), x_term, "e")
    miss = 3 * checks.ENDPOINT_TOL * (1 + np.abs(x_term).max())
    assert checks.check_endpoints(sol, x_init, bump(x_term, 0, miss), "e")
    step = 3 * checks.TOL * case.eval_data.scale
    assert case.check_eval(perturbed(sol, mu=bump(sol.mu, 0, step)))


def test_parallel_multipliers_are_checked_against_serial(case):
    """Where the workload holds them to TOL, parallel lambdas must match serial."""
    sol = parlqr.solve_parallel(case.fresh(), case.w.J)
    check = case.check_solve("parallel", parallel=True)
    assert check(sol) == []
    moved = perturbed(sol, lambdas=bump(sol.lambdas, (case.w.T // 2, 0),
                                        3 * checks.TOL * case.data.scale))
    assert bool(check(moved)) == case.w.parallel_multipliers


def test_fault_probe_counts_the_known_fault(case):
    """The fixed probe input fails its multiplier checks, and only those."""
    rec = run.Recorder()
    case.fault_probe_round(rec)
    if case.probe is None:
        assert rec.attempted == 0
        return
    assert (rec.attempted, rec.failed, rec.wrong, rec.errors) == (1, 1, [], [])
    assert any("stationarity" in m for m in rec.known)


@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_of_each_workload_family(case, trace):
    result = run.run(parlqr, case.w, 5, 0.0, trace)
    # one known-fault probe per round where the workload has one
    probes = run.MIN_ROUNDS if case.probe is not None else 0
    assert result["correct"] and result["failed"] == probes
    assert result["attempted"] > 0
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float)), name
    run.stop_workers(parlqr)


def test_metric_lists_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER_UNITS)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    for m in spec["end_to_end"] + spec["per_layer"]:
        units = {**run.END_TO_END_UNITS, **run.PER_LAYER_UNITS}
        assert m["unit"] == units[m["name"]]


def test_no_private_parlqr_names():
    """The benchmark reaches the package through public names only."""
    for path in BENCH.rglob("*.py"):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("parlqr"):
                assert not any(a.name.startswith("_") for a in node.names), path
                assert not any(part.startswith("_") for part in node.module.split(".")), path
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("parlqr"):
                        assert not any(p.startswith("_") for p in alias.name.split(".")), path
            if isinstance(node, ast.Attribute) and node.attr.startswith("_") \
                    and not node.attr.startswith("__"):
                pytest.fail(f"{path}:{node.lineno} uses private name {node.attr}")
