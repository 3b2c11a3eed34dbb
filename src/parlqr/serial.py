"""Baseline serial Riccati solver for the unconstrained problem.

The backward sweep is the endpoint sweep of :mod:`parlqr.endpoint` with no
endpoint rows: its endpoint block has width zero, so it is the plain
Riccati recursion, producing state-feedback policies and quadratic
cost-to-go functions (:class:`parlqr.endpoint.ValueFunction` with
zero-width ``Vzx``/``Vzz``/``vz1``).  A forward rollout recovers the
trajectory and the multipliers follow from the value-function gradient,
``lam_t = -(Vxx_t x_t + vx1_t)``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import endpoint
from .problem import LqrSolution, evaluate_objective, kkt_residual, rollout

__all__ = ["backward_pass", "solve"]


def backward_pass(stages, terminal):
    """Riccati sweep over ``stages`` ending in ``terminal``.

    Returns ``(policies, values)`` where ``values`` has one entry per time
    point including the terminal one.  The control-space Hessian is
    factorized with no regularization: a failure means the problem is not
    strictly convex and raises :class:`CholeskyFailure`.
    """
    bw = endpoint.backward_pass(stages, terminal, terminal_constrained=False)
    return bw.policies, bw.values


def solve(problem):
    """Solve the full problem: backward sweep, rollout, multipliers."""
    policies, values = backward_pass(problem.stages, problem.terminal)
    states, controls = rollout(problem, policies, problem.x_init)
    lambdas = np.empty_like(states)
    for t, value in enumerate(values):
        lambdas[t] = -(value.Vxx @ states[t] + value.vx1)
    solution = LqrSolution(
        states=states,
        controls=controls,
        lambdas=lambdas,
        policies=policies,
        objective=evaluate_objective(problem, states, controls),
        kkt_residual_inf=0.0,
        details=values,
    )
    return dataclasses.replace(solution, kkt_residual_inf=kkt_residual(problem, solution))
