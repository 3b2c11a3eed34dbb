"""Dense KKT assembly and direct solve, used as the reference oracle.

The first-order optimality system of a problem instance is assembled as one
symmetric saddle-point matrix and solved by dense LU with partial pivoting.
Variable layout: the primal block interleaves ``x_0, u_0, x_1, ..,
u_{T-1}, x_T``; the dual block stacks ``lam_0 .. lam_T`` and, when a
terminal endpoint constraint is present, ``mu_T`` last.  Constraints are
written as ``x_0 - x_init = 0``, ``x_{t+1} - Fx x_t - Fu u_t - f1 = 0`` and
``x_T - x_term = 0`` so the stationarity rows carry the sign convention of
:mod:`parlqr.problem`.

This module trades speed for transparency; it is a correctness reference
for the structured solvers, guarded by a horizon cap.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import SingularKkt
from .problem import LqrSolution, evaluate_objective, kkt_residual

__all__ = ["KktSystem", "assemble", "solve_dense", "MAX_ORACLE_HORIZON"]

MAX_ORACLE_HORIZON = 512


@dataclasses.dataclass(frozen=True, eq=False, repr=False)
class KktSystem:
    """Assembled saddle-point system ``matrix @ [z; lam] = rhs``."""

    matrix: np.ndarray
    rhs: np.ndarray
    n: int
    m: int
    T: int
    has_terminal: bool

    @property
    def primal_dim(self):
        return (self.T + 1) * self.n + self.T * self.m

    def x_slice(self, t):
        start = t * (self.n + self.m)
        return slice(start, start + self.n)

    def u_slice(self, t):
        start = t * (self.n + self.m) + self.n
        return slice(start, start + self.m)

    def lam_slice(self, t):
        start = self.primal_dim + t * self.n
        return slice(start, start + self.n)

    @property
    def mu_slice(self):
        if not self.has_terminal:
            raise ValueError("system has no terminal constraint")
        start = self.primal_dim + (self.T + 1) * self.n
        return slice(start, start + self.n)


def assemble(problem, terminal_constraint=None):
    """Build the dense KKT system of a problem instance.

    ``terminal_constraint`` is an optional endpoint vector adding the
    constraint ``x_T = x_term`` (n extra rows and columns).
    """
    n, m, T = problem.n, problem.m, problem.T
    has_terminal = terminal_constraint is not None
    np_dim = (T + 1) * n + T * m
    nd_dim = (T + 1) * n + (n if has_terminal else 0)
    dim = np_dim + nd_dim
    K = np.zeros((dim, dim))
    rhs = np.zeros(dim)
    sys = KktSystem(K, rhs, n, m, T, has_terminal)

    for t, (cost, dyn) in enumerate(problem.stages):
        xs, us = sys.x_slice(t), sys.u_slice(t)
        K[xs, xs] += cost.Qxx
        K[us, us] += cost.Quu
        K[us, xs] += cost.Qux
        K[xs, us] += cost.Qux.T
        rhs[xs] += -cost.qx1
        rhs[us] += -cost.qu1
    xT = sys.x_slice(T)
    K[xT, xT] += problem.terminal.Qxx
    rhs[xT] += -problem.terminal.qx1

    # Initial-state row: x_0 = x_init.
    l0 = sys.lam_slice(0)
    K[l0, sys.x_slice(0)] = np.eye(n)
    K[sys.x_slice(0), l0] = np.eye(n)
    rhs[l0] = problem.x_init
    # Dynamics rows: x_{t+1} - Fx x_t - Fu u_t = f1.
    for t, (_, dyn) in enumerate(problem.stages):
        lt = sys.lam_slice(t + 1)
        K[lt, sys.x_slice(t)] = -dyn.Fx
        K[lt, sys.u_slice(t)] = -dyn.Fu
        K[lt, sys.x_slice(t + 1)] = np.eye(n)
        K[sys.x_slice(t), lt] = -dyn.Fx.T
        K[sys.u_slice(t), lt] = -dyn.Fu.T
        K[sys.x_slice(t + 1), lt] = np.eye(n)
        rhs[lt] = dyn.f1
    if has_terminal:
        ms = sys.mu_slice
        K[ms, xT] = np.eye(n)
        K[xT, ms] = np.eye(n)
        rhs[ms] = np.asarray(terminal_constraint, dtype=float)
    return sys


def solve_dense(problem, terminal_constraint=None, *, max_horizon=MAX_ORACLE_HORIZON,
                allow_large=False):
    """Solve the assembled KKT system directly and unpack the solution.

    Dense factorization only; refuses horizons beyond ``max_horizon``
    unless ``allow_large`` is set.  Raises :class:`SingularKkt` when the
    saddle matrix is singular (infeasible or non-convex data).
    """
    if problem.T > max_horizon and not allow_large:
        raise ValueError(
            f"horizon {problem.T} exceeds the dense-oracle cap {max_horizon}; "
            "pass allow_large=True to override")
    sys = assemble(problem, terminal_constraint)
    try:
        sol = np.linalg.solve(sys.matrix, sys.rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularKkt(str(exc)) from exc
    n, m, T = sys.n, sys.m, sys.T
    states = np.empty((T + 1, n))
    controls = np.empty((T, m))
    lambdas = np.empty((T + 1, n))
    for t in range(T + 1):
        states[t] = sol[sys.x_slice(t)]
        lambdas[t] = sol[sys.lam_slice(t)]
    for t in range(T):
        controls[t] = sol[sys.u_slice(t)]
    mu = sol[sys.mu_slice] if sys.has_terminal else None
    x_term = None
    if sys.has_terminal:
        x_term = np.asarray(terminal_constraint, dtype=float)
    solution = LqrSolution(
        states=states,
        controls=controls,
        lambdas=lambdas,
        policies=None,
        objective=evaluate_objective(problem, states, controls),
        kkt_residual_inf=0.0,
        mu=mu,
        x_term=x_term,
    )
    return dataclasses.replace(solution, kkt_residual_inf=kkt_residual(problem, solution))


def system_residual(sys, solution):
    """Residual of a solution vector in its own assembled system."""
    n, m, T = sys.n, sys.m, sys.T
    vec = np.empty(sys.matrix.shape[0])
    for t in range(T + 1):
        vec[sys.x_slice(t)] = solution.states[t]
        vec[sys.lam_slice(t)] = solution.lambdas[t]
    for t in range(T):
        vec[sys.u_slice(t)] = solution.controls[t]
    if sys.has_terminal:
        vec[sys.mu_slice] = solution.mu
    return float(np.abs(sys.matrix @ vec - sys.rhs).max())
