"""Baseline serial Riccati solver for the unconstrained problem.

One backward dynamic-programming sweep produces state-feedback policies and
quadratic cost-to-go functions; a forward rollout recovers the trajectory
and the multipliers follow from the value-function gradient,
``lam_t = -(Vxx_t x_t + vx1_t)``.

Each stage of the sweep is one small dense kernel, shared with the
endpoint sweep of :mod:`parlqr.endpoint`: the stage Hessian and gradient
come from one product with ``F = [Fx Fu]`` each, and the control Hessian
``Muu`` is factored and solved against the whole right-hand side
``[Mux | mu1]`` by one direct LAPACK ``dposv`` call.  At small state
dimensions a stage is dominated by per-call overhead, so the kernel keeps
the number of numpy and LAPACK calls per stage low.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from scipy.linalg.lapack import dposv

from .errors import CholeskyFailure
from .problem import (
    AffinePolicy,
    LqrSolution,
    evaluate_objective,
    kkt_residual,
    rollout,
)

__all__ = ["PlainValueFunction", "backward_pass", "solve"]


@dataclasses.dataclass(frozen=True, eq=False, repr=False)
class PlainValueFunction:
    """Cost-to-go ``1/2 x'Vxx x + vx1'x + const`` in the state alone."""

    Vxx: np.ndarray
    vx1: np.ndarray
    const: float = 0.0


def stage_gains(Muu, rhs, stage):
    """Gains ``-Muu^{-1} rhs`` from one LAPACK Cholesky factor-and-solve.

    ``dposv`` factors ``Muu`` with no regularization and solves for every
    column of ``rhs`` at once.  A failed factorization means the problem is
    not strictly convex at ``stage`` and raises :class:`CholeskyFailure`.
    The returned gains are read-only, so policies may keep views of them.
    """
    _, gains, info = dposv(Muu, rhs)
    if info:
        raise CholeskyFailure(stage)
    np.negative(gains, out=gains)
    gains.setflags(write=False)
    return gains


def value_update(Muu, rhs, gains):
    """Stage cost-to-go increment under the control ``u = G @ [y; 1]``.

    ``rhs`` holds the cross terms ``[Muy | mu1]`` between the control and
    the affine argument ``[y; 1]`` of the cost-to-go (``y = x`` in the
    serial sweep, ``y = (x, x_term)`` in the endpoint sweep) and ``G`` is
    ``gains``.  Returns ``rhs' G + G' rhs + G' Muu G``, formed as
    ``G' W + W' G`` with ``W = rhs + Muu G / 2`` so that it is exactly
    symmetric: its leading block adds to the quadratic coefficients, its
    last column to the linear ones, and its last entry is twice the
    constant increment.  The form holds for any gains.
    """
    half = gains.T @ (rhs + 0.5 * (Muu @ gains))
    return half + half.T


def backward_pass(stages, terminal):
    """Riccati sweep over ``stages`` ending in ``terminal``.

    Returns ``(policies, values)`` where ``values`` has one entry per time
    point including the terminal one.  The control-space Hessian is
    factorized by :func:`stage_gains` with no regularization: a failure
    means the problem is not strictly convex and raises
    :class:`CholeskyFailure`.
    """
    T = len(stages)
    n = stages[0][0].n
    m = stages[0][0].m
    Vxx = terminal.Qxx
    vx1 = terminal.qx1
    const = 0.0
    values = [None] * (T + 1)
    values[T] = PlainValueFunction(Vxx, vx1, const)
    policies = [None] * T
    zero_kz = np.zeros((m, n))
    zero_kz.setflags(write=False)
    rhs = np.empty((m, n + 1))  # [Mux | mu1], refilled every stage
    for t in range(T - 1, -1, -1):
        cost, dyn = stages[t]
        F = np.concatenate((dyn.Fx, dyn.Fu), axis=1)
        H = F.T @ (Vxx @ F)
        Vf1 = Vxx @ dyn.f1
        g = F.T @ (vx1 + Vf1)
        np.add(cost.Qux, H[n:, :n], out=rhs[:, :n])
        np.add(cost.qu1, g[n:], out=rhs[:, n])
        Muu = cost.Quu + H[n:, n:]
        gains = stage_gains(Muu, rhs, t)
        policies[t] = AffinePolicy._from_gains(gains[:, :n], zero_kz, gains[:, n])
        A = value_update(Muu, rhs, gains)
        # drift cost and control offset enter only the constant term
        const = const + dyn.f1 @ (vx1 + 0.5 * Vf1) + 0.5 * A[n, n]
        Vxx = cost.Qxx + H[:n, :n] + A[:n, :n]
        Vxx = 0.5 * (Vxx + Vxx.T)
        vx1 = cost.qx1 + g[:n] + A[:n, n]
        values[t] = PlainValueFunction(Vxx, vx1, const)
    return tuple(policies), tuple(values)


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
