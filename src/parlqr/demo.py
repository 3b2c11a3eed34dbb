"""Double-integrator demonstration comparing the three policy variants.

A point mass with position/velocity state is regulated to the origin from
``x0 = [1, 0]`` under the cost ``alpha_T |x_T|^2 + sum alpha_t |x_t|^2 +
beta_t |u_t|^2``.  The feedback policies of the serial solve, of the
partitioned solve (J = 3) and of its smoothing pass are each rolled out on
the nominal dynamics, where all three reproduce the same optimal
trajectory, and on a disturbed system with a state-dependent velocity kick

    x' = A x + B u + [0, x(0) / (x(0)^2 + 1e-4)]

where the policies genuinely differ: the partitioned policies steer back
toward the would-be-optimal link points while the smoothed ones relax that
correction.  Outputs are plot-ready CSV files plus a closed-loop cost
summary.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np

from . import parallel, serial
from .problem import LqrProblem, StageCost, StageDynamics, TerminalCost, evaluate_objective, rollout

__all__ = ["DemoConfig", "double_integrator_problem", "policy_rollout", "run_demo"]

DISTURBANCE_SMOOTHING = 1e-4
DEMO_SPLITS = 3


@dataclasses.dataclass(frozen=True)
class DemoConfig:
    """Step length, horizon, cost weights and the disturbance switch."""

    dt: float = 0.02
    T: int = 200
    alpha_t: float = 10.0
    alpha_T: float = 1e3
    beta_t: float = 1e-2
    disturbed: bool = True

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.T < 1:
            raise ValueError("T must be at least 1")
        if min(self.alpha_t, self.alpha_T, self.beta_t) < 0:
            raise ValueError("cost weights must be nonnegative")


def double_integrator_problem(config):
    """Build the demo problem; quadratic forms carry the factor-two weights
    so the objective equals the plain weighted squared-norm sum."""
    dt = config.dt
    Fx = np.array([[1.0, dt], [0.0, 1.0]])
    Fu = np.array([[0.0], [dt]])
    cost = StageCost(2.0 * config.alpha_t * np.eye(2), np.zeros((1, 2)),
                     [[2.0 * config.beta_t]], np.zeros(2), np.zeros(1))
    dyn = StageDynamics(Fx, Fu, np.zeros(2))
    terminal = TerminalCost(2.0 * config.alpha_T * np.eye(2), np.zeros(2))
    return LqrProblem([(cost, dyn)] * config.T, terminal, [1.0, 0.0])


def _disturbance(x):
    return x[0] / (x[0] * x[0] + DISTURBANCE_SMOOTHING)


def policy_rollout(problem, policies):
    """Closed-loop rollout of per-stage policies on the disturbed system."""
    T, n, m = problem.T, problem.n, problem.m
    states = np.empty((T + 1, n))
    controls = np.empty((T, m))
    states[0] = problem.x_init
    for t, (_, dyn) in enumerate(problem.stages):
        u = policies[t](states[t])
        controls[t] = u
        states[t + 1] = (dyn.Fx @ states[t] + dyn.Fu @ u + dyn.f1
                         + np.array([0.0, _disturbance(states[t])]))
    return states, controls


def _write_trajectory_csv(path, states, controls):
    n = states.shape[1]
    m = controls.shape[1]
    header = "t," + ",".join(f"x{i + 1}" for i in range(n)) \
        + "," + ",".join(f"u{i + 1}" for i in range(m))
    lines = [header]
    for t in range(states.shape[0]):
        cells = [str(t)] + [repr(v) for v in states[t]]
        if t < controls.shape[0]:
            cells += [repr(v) for v in controls[t]]
        else:
            cells += [""] * m
        lines.append(",".join(cells))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def run_demo(config, out_dir, workers=None):
    """Solve, roll out and write all demo CSV files into ``out_dir``.

    Returns a summary dict with the closed-loop costs and the pairwise
    deviations of the nominal rollouts.
    """
    os.makedirs(out_dir, exist_ok=True)
    problem = double_integrator_problem(config)
    serial_solution = serial.solve(problem)
    parallel_solution = parallel.solve_parallel(
        problem, J=DEMO_SPLITS, workers=workers)
    smoothed_solution = parallel.smooth(problem, parallel_solution,
                                        workers=workers)
    variants = {
        "serial": serial_solution.policies,
        "parallel": parallel_solution.policies,
        "smoothed": smoothed_solution.policies,
    }
    nominal = {}
    summary = {"config": dataclasses.asdict(config)}
    for name, policies in variants.items():
        states, controls = rollout(problem, policies, problem.x_init)
        nominal[name] = states
        _write_trajectory_csv(os.path.join(out_dir, f"{name}_undisturbed.csv"),
                              states, controls)
    summary["undisturbed_max_pairwise_deviation"] = max(
        float(np.abs(nominal[a] - nominal[b]).max())
        for a in nominal for b in nominal if a < b)
    if config.disturbed:
        costs = {}
        for name, policies in variants.items():
            states, controls = policy_rollout(problem, policies)
            _write_trajectory_csv(os.path.join(out_dir, f"{name}_disturbed.csv"),
                                  states, controls)
            costs[name] = evaluate_objective(problem, states, controls)
        summary["disturbed_costs"] = costs
        line = ",".join(repr(costs[k]) for k in ("serial", "parallel", "smoothed"))
        with open(os.path.join(out_dir, "summary.csv"), "w", newline="") as fh:
            fh.write("cost_s,cost_p,cost_smoothed\n" + line + "\n")
    return summary
