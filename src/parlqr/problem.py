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

import collections.abc
import dataclasses

import numpy as np

__all__ = [
    "ToleranceSet",
    "DEFAULT_TOLERANCES",
    "StageCost",
    "TerminalCost",
    "StageDynamics",
    "StageStack",
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


COST_FIELDS = ("Qxx", "Qux", "Quu", "qx1", "qu1")
DYNAMICS_FIELDS = ("Fx", "Fu", "f1")


def _view(cls, stack, fields, t):
    """A ``cls`` instance holding views of stage ``t`` of the stacked fields."""
    obj = object.__new__(cls)
    for f in fields:
        object.__setattr__(obj, f, getattr(stack, f)[t])
    return obj


class StageStack(collections.abc.Sequence):
    """Read-only sequence of ``(StageCost, StageDynamics)`` pairs over stacks.

    Each stage coefficient is stored once, as one read-only ``(T, ...)``
    array (``Qxx`` is ``(T, n, n)``, ``qx1`` is ``(T, n)``, and so on), and
    ``asymmetry`` holds the ``(T,)`` relative asymmetries of the raw cost
    inputs.  ``stages[t]`` is a pair of views into these stacks, built on
    first access and the same objects on every later one.  A slice is a
    ``StageStack`` over views of the same stacks, reusing the pairs built
    so far, and pickles as its own arrays only.
    """

    FIELDS = COST_FIELDS + DYNAMICS_FIELDS + ("asymmetry",)

    def __init__(self, Qxx, Qux, Quu, qx1, qu1, Fx, Fu, f1, asymmetry):
        for name, arr in zip(self.FIELDS,
                             (Qxx, Qux, Quu, qx1, qu1, Fx, Fu, f1, asymmetry)):
            arr.setflags(write=False)
            setattr(self, name, arr)
        self._pairs = [None] * len(asymmetry)

    @classmethod
    def from_pairs(cls, stages):
        """Stack a non-empty sequence of pairs of equal dimensions."""
        n, m = stages[0][0].n, stages[0][0].m
        for t, (cost, dyn) in enumerate(stages):
            if cost.n != n or cost.m != m or dyn.n != n or dyn.m != m:
                raise ValueError(f"inconsistent dimensions at stage {t}")
        costs = [cost for cost, _ in stages]
        dyns = [dyn for _, dyn in stages]
        return cls(*(np.array([getattr(c, f) for c in costs]) for f in COST_FIELDS),
                   *(np.array([getattr(d, f) for d in dyns]) for f in DYNAMICS_FIELDS),
                   np.array([c.asymmetry for c in costs]))

    def __len__(self):
        return len(self._pairs)

    def __getitem__(self, key):
        if isinstance(key, slice):
            part = StageStack(*(getattr(self, f)[key] for f in self.FIELDS))
            part._pairs = self._pairs[key]
            return part
        pair = self._pairs[key]
        if pair is None:
            t = range(len(self))[key]
            cost = _view(StageCost, self, COST_FIELDS, t)
            object.__setattr__(cost, "asymmetry", float(self.asymmetry[t]))
            pair = self._pairs[t] = (cost, _view(StageDynamics, self, DYNAMICS_FIELDS, t))
        return pair

    def __iter__(self):
        return (self[t] for t in range(len(self)))

    def __reduce__(self):
        return StageStack, tuple(getattr(self, f) for f in self.FIELDS)


@dataclasses.dataclass(frozen=True, eq=False, repr=False)
class LqrProblem:
    """Full time-varying problem data.

    ``stages`` is a :class:`StageStack`: a read-only length-``T`` sequence
    of ``(StageCost, StageDynamics)`` views into stacked ``(T, ...)``
    coefficient arrays; ``T`` is the number of controls.  A ``StageStack``
    passed in (such as another problem's ``stages`` or a slice of them) is
    shared as it is; any other sequence of pairs is stacked once.
    """

    stages: StageStack
    terminal: TerminalCost
    x_init: np.ndarray

    def __init__(self, stages, terminal, x_init):
        if not isinstance(stages, StageStack):
            stages = tuple((cost, dyn) for cost, dyn in stages)
            if stages:
                stages = StageStack.from_pairs(stages)
        if not len(stages):
            raise ValueError("horizon must contain at least one stage")
        n = stages.Qxx.shape[1]
        if terminal.n != n:
            raise ValueError("terminal cost dimension mismatch")
        object.__setattr__(self, "stages", stages)
        object.__setattr__(self, "terminal", terminal)
        object.__setattr__(self, "x_init", _matrix(x_init, (n,), "x_init"))

    @property
    def n(self):
        return self.stages.Qxx.shape[1]

    @property
    def m(self):
        return self.stages.Quu.shape[1]

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
    here so a caller can list all defects of a data file at once.  Messages
    come stage by stage.  A stage whose ``Quu`` is not finite skips the
    definiteness checks, and one whose ``Qxx`` or ``Qux`` is not finite
    skips the control-eliminated state cost check.
    """
    stages = problem.stages
    T = len(stages)
    finite = {f: np.isfinite(getattr(stages, f)).reshape(T, -1).all(axis=1)
              for f in COST_FIELDS + DYNAMICS_FIELDS}
    # Quu positive-definite where finite; Cholesky of the whole batch, and
    # stage by stage only when some factorization fails
    quu_pd = finite["Quu"].copy()
    checked = np.flatnonzero(quu_pd)
    try:
        np.linalg.cholesky(stages.Quu[checked])
    except np.linalg.LinAlgError:
        for t in checked:
            try:
                np.linalg.cholesky(stages.Quu[t])
            except np.linalg.LinAlgError:
                quu_pd[t] = False
    checked = np.flatnonzero(quu_pd & finite["Qxx"] & finite["Qux"])
    Qxx, Qux = stages.Qxx[checked], stages.Qux[checked]
    schur = Qxx - np.swapaxes(Qux, 1, 2) @ np.linalg.solve(stages.Quu[checked], Qux)
    scale = np.abs(np.linalg.eigvalsh(Qxx)).max(axis=1, initial=0.0)
    not_psd = checked[np.linalg.eigvalsh(schur).min(axis=1)
                      < -PSD_FLOOR * np.maximum(scale, 1.0)]
    # (stage, message) in check order; the stable sort groups them by stage
    found = [(t, "asymmetry exceeds tolerance in cost")
             for t in np.flatnonzero(stages.asymmetry > SYMMETRY_TOL)]
    for name, ok in finite.items():
        found += [(t, f"non-finite entries in {name}") for t in np.flatnonzero(~ok)]
    found += [(t, "Quu not positive-definite") for t in np.flatnonzero(finite["Quu"] & ~quu_pd)]
    found += [(t, "control-eliminated state cost not PSD") for t in not_psd]
    errors = [f"{what} at stage {t}" for t, what in sorted(found, key=lambda e: e[0])]
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


def _mv(A, v):
    """Stage-wise products ``A[t] @ v[t]`` of a ``(T, p, q)`` and a ``(T, q)`` stack."""
    return np.einsum("tij,tj->ti", A, v)


def _mtv(A, v):
    """Stage-wise products ``A[t].T @ v[t]``."""
    return np.einsum("tji,tj->ti", A, v)


def evaluate_objective(problem, states, controls):
    """Exact cost of a trajectory: terminal cost plus the stage-cost sum."""
    states = np.asarray(states, dtype=float)
    controls = np.asarray(controls, dtype=float)
    if states.shape != (problem.T + 1, problem.n):
        raise ValueError("states have wrong shape")
    if controls.shape != (problem.T, problem.m):
        raise ValueError("controls have wrong shape")
    s = problem.stages
    x, u = states[:-1], controls
    stage = (x * (0.5 * _mv(s.Qxx, x) + s.qx1)
             ).sum() + (u * (0.5 * _mv(s.Quu, u) + _mv(s.Qux, x) + s.qu1)).sum()
    xT = states[-1]
    total = stage + 0.5 * (xT @ (problem.terminal.Qxx @ xT)) + problem.terminal.qx1 @ xT
    return float(total)


def stationarity_residuals(problem, states, controls, lambdas, mu=None, x_term=None):
    """Stack all first-order optimality residuals of a candidate solution.

    Rows: for each stage in turn, its stationarity in x, its stationarity
    in u and its dynamics defect; then terminal stationarity (including
    ``mu`` when an endpoint constraint is present), the initial-state
    defect and, when ``x_term`` is given, the endpoint defect.  Returns a
    flat array.
    """
    s = problem.stages
    x, xn, u = states[:-1], states[1:], controls
    lam, lam_next = lambdas[:-1], lambdas[1:]
    per_stage = np.concatenate([
        _mv(s.Qxx, x) + _mtv(s.Qux, u) + s.qx1 + lam - _mtv(s.Fx, lam_next),
        _mv(s.Qux, x) + _mv(s.Quu, u) + s.qu1 - _mtv(s.Fu, lam_next),
        xn - (_mv(s.Fx, x) + _mv(s.Fu, u) + s.f1),
    ], axis=1)
    term = problem.terminal.Qxx @ states[-1] + problem.terminal.qx1 + lambdas[-1]
    if mu is not None:
        term = term + mu
    parts = [per_stage.ravel(), term, states[0] - problem.x_init]
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
    stacks = [getattr(problem.stages, f) for f in COST_FIELDS + DYNAMICS_FIELDS]
    for arr in stacks + [problem.terminal.Qxx, problem.terminal.qx1]:
        if arr.size:
            peak = max(peak, float(np.abs(arr).max()))
    return peak
