"""Data model for discrete-time, time-varying, finite-horizon LQR problems.

A problem over horizon ``T`` consists of stage costs

    cost_t(x, u) = 1/2 x'Qxx x + 1/2 u'Quu u + u'Qux x + qx1'x + qu1'u,

affine dynamics ``x_{t+1} = Fx x_t + Fu u_t + f1``, a terminal cost
``1/2 x'Qxx_T x + qx1_T'x`` and a fixed initial state.  The multiplier
convention used throughout the package is the one in which the KKT
stationarity conditions read

    Qxx x_t + Qux'u_t + qx1 + lam_t - Fx'lam_{t+1} = 0
    Qux x_t + Quu u_t + qu1       - Fu'lam_{t+1} = 0
    Qxx_T x_T + qx1_T + lam_T               = 0

so that ``lam_t`` equals minus the gradient of the cost-to-go.
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = [
    "ToleranceSet",
    "DEFAULT_TOLERANCES",
    "StageCost",
    "TerminalCost",
    "StageDynamics",
    "LqrProblem",
    "AffinePolicy",
    "LqrSolution",
    "ValidationReport",
    "validate",
    "rollout",
    "evaluate_objective",
    "kkt_residual",
    "stationarity_residuals",
    "data_magnitude",
]


@dataclasses.dataclass(frozen=True)
class ToleranceSet:
    """Numerical thresholds shared by all solvers.

    ``rank_tol`` is relative to the largest singular value of the matrix
    being ranked; ``feas_tol`` and ``kkt_tol`` are absolute up to the
    ``1 + data magnitude`` scaling applied at the point of use.
    """

    rank_tol: float = 1e-10
    feas_tol: float = 1e-8
    kkt_tol: float = 1e-8


DEFAULT_TOLERANCES = ToleranceSet()

# Relative asymmetry allowed in user-supplied quadratic cost blocks.
SYMMETRY_TOL = 1e-12
# Relative eigenvalue floor for positive semi-definiteness checks.
PSD_FLOOR = 1e-9


def _matrix(value, shape, name):
    arr = np.array(value, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    arr.setflags(write=False)
    return arr


def _relative_asymmetry(a):
    amax = float(np.abs(a).max()) if a.size else 0.0
    if amax == 0.0:
        return 0.0
    return float(np.abs(a - a.T).max()) / amax


def _symmetrized(value, name):
    arr = np.array(value, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    defect = _relative_asymmetry(arr)
    sym = 0.5 * (arr + arr.T)
    sym.setflags(write=False)
    return sym, defect


@dataclasses.dataclass(frozen=True, eq=False, repr=False)
class StageCost:
    """Quadratic stage cost coefficients.

    ``Qxx`` and ``Quu`` are symmetrized on construction; the relative
    asymmetry of the raw inputs is retained for :func:`validate`.
    """

    Qxx: np.ndarray
    Qux: np.ndarray
    Quu: np.ndarray
    qx1: np.ndarray
    qu1: np.ndarray
    asymmetry: float = 0.0

    def __init__(self, Qxx, Qux, Quu, qx1, qu1):
        Qxx, dx = _symmetrized(Qxx, "Qxx")
        Quu, du = _symmetrized(Quu, "Quu")
        n = Qxx.shape[0]
        m = Quu.shape[0]
        object.__setattr__(self, "Qxx", Qxx)
        object.__setattr__(self, "Quu", Quu)
        object.__setattr__(self, "Qux", _matrix(Qux, (m, n), "Qux"))
        object.__setattr__(self, "qx1", _matrix(qx1, (n,), "qx1"))
        object.__setattr__(self, "qu1", _matrix(qu1, (m,), "qu1"))
        object.__setattr__(self, "asymmetry", max(dx, du))

    @property
    def n(self):
        return self.Qxx.shape[0]

    @property
    def m(self):
        return self.Quu.shape[0]


@dataclasses.dataclass(frozen=True, eq=False, repr=False)
class TerminalCost:
    """Quadratic terminal cost; ``Qxx`` symmetrized on construction."""

    Qxx: np.ndarray
    qx1: np.ndarray
    asymmetry: float = 0.0

    def __init__(self, Qxx, qx1):
        Qxx, defect = _symmetrized(Qxx, "terminal Qxx")
        object.__setattr__(self, "Qxx", Qxx)
        object.__setattr__(self, "qx1", _matrix(qx1, (Qxx.shape[0],), "terminal qx1"))
        object.__setattr__(self, "asymmetry", defect)

    @property
    def n(self):
        return self.Qxx.shape[0]

    @classmethod
    def zero(cls, n):
        return cls(np.zeros((n, n)), np.zeros(n))


@dataclasses.dataclass(frozen=True, eq=False, repr=False)
class StageDynamics:
    """Affine dynamics ``x_next = Fx x + Fu u + f1``."""

    Fx: np.ndarray
    Fu: np.ndarray
    f1: np.ndarray

    def __init__(self, Fx, Fu, f1):
        Fx = np.array(Fx, dtype=float)
        if Fx.ndim != 2 or Fx.shape[0] != Fx.shape[1]:
            raise ValueError(f"Fx must be square, got shape {Fx.shape}")
        n = Fx.shape[0]
        Fu = np.array(Fu, dtype=float)
        if Fu.ndim != 2 or Fu.shape[0] != n:
            raise ValueError(f"Fu must have {n} rows, got shape {Fu.shape}")
        Fx.setflags(write=False)
        Fu.setflags(write=False)
        object.__setattr__(self, "Fx", Fx)
        object.__setattr__(self, "Fu", Fu)
        object.__setattr__(self, "f1", _matrix(f1, (n,), "f1"))

    @property
    def n(self):
        return self.Fx.shape[0]

    @property
    def m(self):
        return self.Fu.shape[1]


@dataclasses.dataclass(frozen=True, eq=False, repr=False)
class LqrProblem:
    """Full time-varying problem data.

    ``stages`` is a length-``T`` sequence of ``(StageCost, StageDynamics)``
    pairs; ``T`` is the number of controls.
    """

    stages: tuple
    terminal: TerminalCost
    x_init: np.ndarray

    def __init__(self, stages, terminal, x_init):
        stages = tuple((cost, dyn) for cost, dyn in stages)
        if not stages:
            raise ValueError("horizon must contain at least one stage")
        n = stages[0][0].n
        m = stages[0][0].m
        for t, (cost, dyn) in enumerate(stages):
            if cost.n != n or cost.m != m or dyn.n != n or dyn.m != m:
                raise ValueError(f"inconsistent dimensions at stage {t}")
        if terminal.n != n:
            raise ValueError("terminal cost dimension mismatch")
        object.__setattr__(self, "stages", stages)
        object.__setattr__(self, "terminal", terminal)
        object.__setattr__(self, "x_init", _matrix(x_init, (n,), "x_init"))

    @property
    def n(self):
        return self.stages[0][0].n

    @property
    def m(self):
        return self.stages[0][0].m

    @property
    def T(self):
        return len(self.stages)

    def __repr__(self):
        return f"LqrProblem(n={self.n}, m={self.m}, T={self.T})"


@dataclasses.dataclass(frozen=True, eq=False, repr=False)
class AffinePolicy:
    """Affine feedback law ``u = Kx x + Kz x_term + k1``.

    Policies produced by the unconstrained solvers carry ``Kz = 0`` and can
    be evaluated from the state alone; endpoint-conditioned policies need
    the terminal state as well.
    """

    Kx: np.ndarray
    Kz: np.ndarray
    k1: np.ndarray

    def __init__(self, Kx, Kz, k1):
        Kx = np.array(Kx, dtype=float)
        if Kx.ndim != 2:
            raise ValueError("Kx must be a matrix")
        m, n = Kx.shape
        Kx.setflags(write=False)
        object.__setattr__(self, "Kx", Kx)
        object.__setattr__(self, "Kz", _matrix(Kz, (m, n), "Kz"))
        object.__setattr__(self, "k1", _matrix(k1, (m,), "k1"))
        object.__setattr__(self, "_uses_terminal", bool(np.any(self.Kz)))

    @classmethod
    def state_feedback(cls, Kx, k1):
        Kx = np.asarray(Kx, dtype=float)
        return cls(Kx, np.zeros_like(Kx), k1)

    @classmethod
    def _from_gains(cls, Kx, Kz, k1, uses_terminal=False):
        """Solver-built policy: takes read-only gain views as they are.

        Skips the copies and checks of the public constructor, which at
        small dimensions cost a sizeable share of a sweep stage.  ``Kz`` may
        be one read-only zero block shared by many policies; ``uses_terminal``
        must be true exactly when ``Kz`` has a nonzero entry.
        """
        policy = object.__new__(cls)
        object.__setattr__(policy, "Kx", Kx)
        object.__setattr__(policy, "Kz", Kz)
        object.__setattr__(policy, "k1", k1)
        object.__setattr__(policy, "_uses_terminal", uses_terminal)
        return policy

    def __call__(self, x, x_term=None):
        u = self.Kx @ x + self.k1
        if self._uses_terminal:
            if x_term is None:
                raise ValueError("policy depends on x_term but none was given")
            u = u + self.Kz @ x_term
        return u


@dataclasses.dataclass(frozen=True, eq=False, repr=False)
class LqrSolution:
    """Numeric solution of a problem instance.

    ``lambdas`` holds the multipliers of the initial-state and dynamics
    constraints; ``mu`` the terminal-endpoint multiplier when the problem
    was endpoint-constrained (``x_term`` records the endpoint).  ``details``
    is solver-specific diagnostic data.
    """

    states: np.ndarray
    controls: np.ndarray
    lambdas: np.ndarray
    policies: tuple
    objective: float
    kkt_residual_inf: float
    mu: np.ndarray = None
    x_term: np.ndarray = None
    details: object = None


class ValidationReport:
    """List of violated invariants; empty means the problem is usable."""

    def __init__(self, errors):
        self.errors = tuple(errors)

    @property
    def ok(self):
        return not self.errors

    def __repr__(self):
        status = "ok" if self.ok else f"{len(self.errors)} error(s)"
        return f"ValidationReport({status})"


def validate(problem, tolerances=DEFAULT_TOLERANCES):
    """Check every problem invariant and report all violations.

    Never raises: structural dimension errors are caught at construction,
    everything numerical (symmetry, definiteness, finiteness) is reported
    here so a caller can list all defects of a data file at once.
    """
    errors = []
    for t, (cost, dyn) in enumerate(problem.stages):
        if cost.asymmetry > SYMMETRY_TOL:
            errors.append(f"asymmetry exceeds tolerance in cost at stage {t}")
        for name, arr in (("Qxx", cost.Qxx), ("Qux", cost.Qux), ("Quu", cost.Quu),
                          ("qx1", cost.qx1), ("qu1", cost.qu1)):
            if not np.all(np.isfinite(arr)):
                errors.append(f"non-finite entries in {name} at stage {t}")
        for name, arr in (("Fx", dyn.Fx), ("Fu", dyn.Fu), ("f1", dyn.f1)):
            if not np.all(np.isfinite(arr)):
                errors.append(f"non-finite entries in {name} at stage {t}")
        if not np.all(np.isfinite(cost.Quu)):
            continue
        try:
            np.linalg.cholesky(cost.Quu)
        except np.linalg.LinAlgError:
            errors.append(f"Quu not positive-definite at stage {t}")
            continue
        if not np.all(np.isfinite(cost.Qxx)) or not np.all(np.isfinite(cost.Qux)):
            continue
        schur = cost.Qxx - cost.Qux.T @ np.linalg.solve(cost.Quu, cost.Qux)
        eigs = np.linalg.eigvalsh(schur)
        scale = float(np.abs(np.linalg.eigvalsh(cost.Qxx)).max()) if cost.Qxx.size else 0.0
        if eigs.min() < -PSD_FLOOR * max(scale, 1.0):
            errors.append(f"control-eliminated state cost not PSD at stage {t}")
    if problem.terminal.asymmetry > SYMMETRY_TOL:
        errors.append("asymmetry exceeds tolerance in terminal cost")
    if not np.all(np.isfinite(problem.terminal.Qxx)) or not np.all(np.isfinite(problem.terminal.qx1)):
        errors.append("non-finite entries in terminal cost")
    else:
        eigs = np.linalg.eigvalsh(problem.terminal.Qxx)
        scale = float(np.abs(eigs).max()) if eigs.size else 0.0
        if eigs.size and eigs.min() < -PSD_FLOOR * max(scale, 1.0):
            errors.append("terminal cost not positive semi-definite")
    if not np.all(np.isfinite(problem.x_init)):
        errors.append("non-finite entries in x_init")
    return ValidationReport(errors)


def rollout(problem, policies, x0, x_term=None):
    """Forward-simulate the dynamics under per-stage affine policies.

    Returns ``(states, controls)`` with ``states[0] = x0``.  Deterministic:
    repeated calls on identical inputs are bit-identical.
    """
    n, m, T = problem.n, problem.m, problem.T
    if len(policies) != T:
        raise ValueError(f"expected {T} policies, got {len(policies)}")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise ValueError(f"x0 must have shape ({n},)")
    states = np.empty((T + 1, n))
    controls = np.empty((T, m))
    states[0] = x0
    for t, (_, dyn) in enumerate(problem.stages):
        u = policies[t](states[t], x_term)
        controls[t] = u
        states[t + 1] = dyn.Fx @ states[t] + dyn.Fu @ u + dyn.f1
    return states, controls


def evaluate_objective(problem, states, controls):
    """Exact cost of a trajectory: terminal cost plus the stage-cost sum."""
    states = np.asarray(states, dtype=float)
    controls = np.asarray(controls, dtype=float)
    if states.shape != (problem.T + 1, problem.n):
        raise ValueError("states have wrong shape")
    if controls.shape != (problem.T, problem.m):
        raise ValueError("controls have wrong shape")
    total = 0.0
    for t, (cost, _) in enumerate(problem.stages):
        x = states[t]
        u = controls[t]
        total += 0.5 * (x @ (cost.Qxx @ x)) + 0.5 * (u @ (cost.Quu @ u))
        total += u @ (cost.Qux @ x) + cost.qx1 @ x + cost.qu1 @ u
    xT = states[-1]
    total += 0.5 * (xT @ (problem.terminal.Qxx @ xT)) + problem.terminal.qx1 @ xT
    return float(total)


def stationarity_residuals(problem, states, controls, lambdas, mu=None, x_term=None):
    """Stack all first-order optimality residuals of a candidate solution.

    Rows: per-stage stationarity in x and u, terminal stationarity
    (including ``mu`` when an endpoint constraint is present), the dynamics
    defects, the initial-state defect and, when ``x_term`` is given, the
    endpoint defect.  Returns a flat array.
    """
    parts = []
    for t, (cost, dyn) in enumerate(problem.stages):
        x, u = states[t], controls[t]
        lam, lam_next = lambdas[t], lambdas[t + 1]
        parts.append(cost.Qxx @ x + cost.Qux.T @ u + cost.qx1 + lam - dyn.Fx.T @ lam_next)
        parts.append(cost.Qux @ x + cost.Quu @ u + cost.qu1 - dyn.Fu.T @ lam_next)
        parts.append(states[t + 1] - (dyn.Fx @ x + dyn.Fu @ u + dyn.f1))
    term = problem.terminal.Qxx @ states[-1] + problem.terminal.qx1 + lambdas[-1]
    if mu is not None:
        term = term + mu
    parts.append(term)
    parts.append(states[0] - problem.x_init)
    if x_term is not None:
        parts.append(states[-1] - x_term)
    return np.concatenate(parts)


def kkt_residual(problem, solution):
    """Infinity norm of the stationarity and primal residuals of a solution."""
    res = stationarity_residuals(
        problem,
        solution.states,
        solution.controls,
        solution.lambdas,
        mu=solution.mu,
        x_term=solution.x_term,
    )
    return float(np.abs(res).max())


def data_magnitude(problem):
    """Largest absolute entry across all problem data arrays."""
    peak = float(np.abs(problem.x_init).max()) if problem.x_init.size else 0.0
    for cost, dyn in problem.stages:
        for arr in (cost.Qxx, cost.Qux, cost.Quu, cost.qx1, cost.qu1,
                    dyn.Fx, dyn.Fu, dyn.f1):
            if arr.size:
                peak = max(peak, float(np.abs(arr).max()))
    for arr in (problem.terminal.Qxx, problem.terminal.qx1):
        if arr.size:
            peak = max(peak, float(np.abs(arr).max()))
    return peak
