"""Endpoint-constrained LQR with solutions explicit in both boundary states.

Solves

    min  cost_T(x_T) + sum_t cost_t(x_t, u_t)
    s.t. x_{t+1} = Fx x_t + Fu u_t + f1,   x_0 = x_init,   x_T = x_term

while keeping every policy, trajectory point and Lagrange multiplier an
affine function of ``(x_init, x_term)``.  The backward sweep carries two
objects: a quadratic cost-to-go in ``(x, x_term)`` and an affine
constraint-to-go collecting the endpoint-constraint rows that future
controls can no longer influence.  At each stage the control is split into
a range-space component (drives the constraint residual to its least-squares
minimum) and a null-space component (minimizes cost among residual
minimizers); the split comes from one rank-revealing SVD of the constraint's
control Jacobian, which also supplies the pseudo-inverse and the residual
projector.

Stages with no control direction spent on pending rows (rank ``p = 0``,
which is every stage once the endpoint rows are absorbed, so the bulk of a
long sweep) run the stage kernel of the serial sweep: one direct LAPACK
``dposv`` factor-and-solve of the control Hessian against the right-hand
side ``[Mux | Mzu' | mu1]`` (:func:`parlqr.serial.stage_gains`), followed
by the shared cost-to-go update (:func:`parlqr.serial.value_update`).  The
other stages factor the null-space Hessian ``Zw' Muu Zw`` with the same
call.

Multipliers are by-products of the sweep, as in the serial solver: minus
the cost-to-go gradient.  Wherever no endpoint row is pending, ``lam_t`` is
minus the state gradient of the cost-to-go along the trajectory maps, and
the endpoint multiplier ``mu`` is minus the endpoint gradient of the
initial cost-to-go.  Only the times where rows are still pending (the
last ``ceil(n/m)``, or all of them when the boundary constraints are
linearly dependent) take the stationarity recursion backwards from
``lam_T``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import FactorizationFailure, Infeasible
from .problem import (
    DEFAULT_TOLERANCES,
    AffinePolicy,
    LqrProblem,
    LqrSolution,
    StageStack,
    TerminalCost,
    evaluate_objective,
    kkt_residual,
)
from .serial import stage_gains, value_update

__all__ = [
    "ValueFunction",
    "ConstraintToGo",
    "BackwardResult",
    "TrajectoryMaps",
    "MultiplierMaps",
    "EndpointAffineSolution",
    "backward_pass",
    "forward_pass",
    "multiplier_pass",
    "solve_endpoint_affine",
    "solve_endpoint",
]


@dataclasses.dataclass(frozen=True, eq=False, repr=False)
class ValueFunction:
    """Cost-to-go quadratic in the state and the terminal endpoint.

    value(x, z) = 1/2 x'Vxx x + z'Vzx x + 1/2 z'Vzz z + vx1'x + vz1'z + const
    """

    Vxx: np.ndarray
    Vzx: np.ndarray
    Vzz: np.ndarray
    vx1: np.ndarray
    vz1: np.ndarray
    const: float = 0.0

    def gradient_x(self, x, z):
        return self.Vxx @ x + self.Vzx.T @ z + self.vx1

    def gradient_z(self, x, z):
        return self.Vzx @ x + self.Vzz @ z + self.vz1

    def value(self, x, z):
        return float(0.5 * x @ (self.Vxx @ x) + z @ (self.Vzx @ x)
                     + 0.5 * z @ (self.Vzz @ z) + self.vx1 @ x + self.vz1 @ z
                     + self.const)


@dataclasses.dataclass(frozen=True, eq=False, repr=False)
class ConstraintToGo:
    """Affine constraint rows ``Hx x + Hz x_term + h1 = 0`` still pending."""

    Hx: np.ndarray
    Hz: np.ndarray
    h1: np.ndarray

    @property
    def rows(self):
        return self.Hx.shape[0]

    def residual(self, x, z):
        if self.rows == 0:
            return np.zeros(0)
        return self.Hx @ x + self.Hz @ z + self.h1

    @classmethod
    def empty(cls, n):
        return cls(np.zeros((0, n)), np.zeros((0, n)), np.zeros(0))


@dataclasses.dataclass(eq=False, repr=False)
class StageDiagnostics:
    """Worst-case numerical defects accumulated over a backward sweep."""

    basis_defect: float = 0.0       # |Py Py' + Zw Zw' - I|
    projector_defect: float = 0.0   # idempotence defect of the residual projector
    max_rows: int = 0               # largest constraint-to-go row count seen


@dataclasses.dataclass(frozen=True, eq=False, repr=False)
class BackwardResult:
    policies: tuple
    values: tuple
    constraints: tuple
    diagnostics: StageDiagnostics = None

    @property
    def feasibility(self):
        """Constraint rows any ``(x_init, x_term)`` pair must satisfy."""
        return self.constraints[0]


def _compress_rows(Hx, Hz, h1, rank_tol, scale, cert_scale):
    """Reduce constraint rows to a maximal linearly independent set.

    Singular values are thresholded against ``scale``, the magnitude of
    the rows *before* the range-space projection, so directions that the
    projection annihilated in exact arithmetic are dropped instead of
    surviving as roundoff noise.  Any component of ``h1`` outside the
    retained row space is kept as a single zero-coefficient row, an
    infeasibility certificate that propagates to the feasibility triple.
    Rows that are already independent at full scale are returned untouched
    so residual entries keep their original meaning.
    """
    r = Hx.shape[0]
    if r == 0:
        return Hx, Hz, h1
    C = np.concatenate([Hx, Hz], axis=1)
    U, s, _ = np.linalg.svd(C, full_matrices=False)
    threshold = rank_tol * max(scale, s[0] if s.size else 0.0)
    q = int(np.sum(s > threshold))
    if q == r:
        return Hx, Hz, h1
    Uq = U[:, :q]
    n = Hx.shape[1]
    if q:
        body = Uq.T @ np.concatenate([Hx, Hz, h1[:, None]], axis=1)
        Hx_new, Hz_new, h1_new = body[:, :n], body[:, n:2 * n], body[:, 2 * n]
        leftover = h1 - Uq @ (Uq.T @ h1)
    else:
        Hx_new, Hz_new, h1_new = np.zeros((0, n)), np.zeros((0, n)), np.zeros(0)
        leftover = h1
    resid = float(np.linalg.norm(leftover))
    if resid > rank_tol * cert_scale:
        Hx_new = np.concatenate([Hx_new, np.zeros((1, n))], axis=0)
        Hz_new = np.concatenate([Hz_new, np.zeros((1, n))], axis=0)
        h1_new = np.concatenate([h1_new, [resid]])
    return Hx_new, Hz_new, h1_new


def backward_pass(stages, terminal=None, *, terminal_constrained=True,
                  tolerances=DEFAULT_TOLERANCES, collect_diagnostics=False):
    """Backward sweep producing endpoint-conditioned policies.

    ``terminal`` may be None for the pure boundary-value case (zero
    terminal cost).  With ``terminal_constrained=False`` no endpoint rows
    are seeded and the sweep reduces to the plain Riccati recursion.
    Raises :class:`CholeskyFailure` when the cost Hessian restricted to the
    constraint null space is not positive-definite; at rank ``p = 0`` that
    is the whole control Hessian, factored by the serial stage kernel.
    """
    T = len(stages)
    n = stages[0][0].n
    m = stages[0][0].m
    rank_tol = tolerances.rank_tol
    if terminal is None:
        terminal = TerminalCost.zero(n)
    Vxx = terminal.Qxx
    vx1 = terminal.qx1
    Vzx = np.zeros((n, n))
    Vzz = np.zeros((n, n))
    vz1 = np.zeros(n)
    const = 0.0
    if terminal_constrained:
        Hx, Hz, h1 = np.eye(n), -np.eye(n), np.zeros(n)
    else:
        Hx, Hz, h1 = np.zeros((0, n)), np.zeros((0, n)), np.zeros(0)

    values = [None] * (T + 1)
    constraints = [None] * (T + 1)
    policies = [None] * T
    values[T] = ValueFunction(Vxx, Vzx, Vzz, vx1, vz1, const)
    constraints[T] = ConstraintToGo(Hx, Hz, h1)
    diag = StageDiagnostics(max_rows=Hx.shape[0]) if collect_diagnostics else None
    eye_m = np.eye(m)
    rhs = np.empty((m, 2 * n + 1))  # [Mux | Mzu' | mu1], refilled every stage

    for t in range(T - 1, -1, -1):
        cost, dyn = stages[t]
        Fx, Fu, f1 = dyn.Fx, dyn.Fu, dyn.f1
        F = np.concatenate((Fx, Fu), axis=1)
        H = F.T @ (Vxx @ F)
        Vf1 = Vxx @ f1
        g = F.T @ (vx1 + Vf1)
        MzF = Vzx @ F
        mz1 = vz1 + Vzx @ f1
        np.add(cost.Qux, H[n:, :n], out=rhs[:, :n])
        rhs[:, n:2 * n] = MzF[:, n:].T
        np.add(cost.qu1, g[n:], out=rhs[:, 2 * n])
        Muu = cost.Quu + H[n:, n:]

        r = Hx.shape[0]
        p = 0
        if r:
            Nx = Hx @ Fx
            Nu = Hx @ Fu
            Nz = Hz
            n1 = Hx @ f1 + h1
            U, s, Vt = np.linalg.svd(Nu)
            # rank judged against the product of the factor norms: entries of
            # Nu that are pure cancellation noise must not be inverted
            nu_scale = float(np.linalg.norm(Hx)) * float(np.linalg.norm(Fu))
            if s.size:
                p = int(np.sum(s > rank_tol * max(nu_scale, s[0])))

        # gains stacked as [Kx | Kz | k1], an m x (2n+1) block
        if not p:
            # no control direction is spent on pending rows: the plain kernel
            gains = stage_gains(Muu, rhs, t)
        else:
            G = (Vt[:p].T / s[:p]) @ U[:, :p].T
            base = G @ np.concatenate([Nx, Nz, n1[:, None]], axis=1)
            if p < m:
                Zw = Vt[p:].T
                gains = Zw @ stage_gains(
                    Zw.T @ Muu @ Zw, Zw.T @ (rhs - Muu @ base), t) - base
            else:
                gains = -base
            gains.setflags(write=False)
        Kz = gains[:, n:2 * n]
        policies[t] = AffinePolicy._from_gains(
            gains[:, :n], Kz, gains[:, 2 * n], bool(Kz.any()))

        if collect_diagnostics:
            if p:
                Py = Vt[:p].T
                Zfull = Vt[p:].T if p < m else np.zeros((m, 0))
                comp = Py @ Py.T + Zfull @ Zfull.T - eye_m
            else:
                comp = np.zeros((m, m))
            diag.basis_defect = max(diag.basis_defect, float(np.abs(comp).max()))

        if r:
            pre_scale = float(np.linalg.norm(np.concatenate([Nx, Nz], axis=1)))
            cert_scale = max(1.0, float(np.abs(n1).max(initial=0.0)))
            if p:
                Up = U[:, :p]
                stack = np.concatenate([Nx, Nz, n1[:, None]], axis=1)
                stack = stack - Up @ (Up.T @ stack)
                Hx, Hz, h1 = stack[:, :n], stack[:, n:2 * n], stack[:, 2 * n]
                if collect_diagnostics:
                    P = np.eye(r) - Up @ Up.T
                    diag.projector_defect = max(
                        diag.projector_defect, float(np.abs(P @ P - P).max()))
            else:
                Hx, Hz, h1 = Nx, Nz, n1
            Hx, Hz, h1 = _compress_rows(Hx, Hz, h1, rank_tol, pre_scale, cert_scale)

        A = value_update(Muu, rhs, gains)
        const = const + f1 @ (vx1 + 0.5 * Vf1) + 0.5 * A[2 * n, 2 * n]
        Vxx = cost.Qxx + H[:n, :n] + A[:n, :n]
        Vxx = 0.5 * (Vxx + Vxx.T)
        Vzx = MzF[:, :n] + A[n:2 * n, :n]
        Vzz = Vzz + A[n:2 * n, n:2 * n]  # both terms exactly symmetric
        vx1 = cost.qx1 + g[:n] + A[:n, 2 * n]
        vz1 = mz1 + A[n:2 * n, 2 * n]

        values[t] = ValueFunction(Vxx, Vzx, Vzz, vx1, vz1, const)
        constraints[t] = ConstraintToGo(Hx, Hz, h1)
        if collect_diagnostics:
            diag.max_rows = max(diag.max_rows, Hx.shape[0])

    return BackwardResult(tuple(policies), tuple(values), tuple(constraints), diag)


@dataclasses.dataclass(frozen=True, eq=False, repr=False)
class TrajectoryMaps:
    """States and controls as affine maps of ``(x_init, x_term)``.

    x_t = Ra[t] x_init + Rz[t] x_term + r1[t]
    u_t = Sa[t] x_init + Sz[t] x_term + s1[t]
    """

    Ra: np.ndarray
    Rz: np.ndarray
    r1: np.ndarray
    Sa: np.ndarray
    Sz: np.ndarray
    s1: np.ndarray

    def states(self, x_init, x_term):
        return self.Ra @ x_init + self.Rz @ x_term + self.r1

    def controls(self, x_init, x_term):
        return self.Sa @ x_init + self.Sz @ x_term + self.s1


def forward_pass(policies, stages):
    """Propagate the policies to affine state/control maps."""
    T = len(stages)
    n = stages[0][0].n
    m = stages[0][0].m
    Ra = np.empty((T + 1, n, n))
    Rz = np.empty((T + 1, n, n))
    r1 = np.empty((T + 1, n))
    Sa = np.empty((T, m, n))
    Sz = np.empty((T, m, n))
    s1 = np.empty((T, m))
    Ra[0] = np.eye(n)
    Rz[0] = 0.0
    r1[0] = 0.0
    for t in range(T):
        pol = policies[t]
        _, dyn = stages[t]
        Sa[t] = pol.Kx @ Ra[t]
        Sz[t] = pol.Kx @ Rz[t] + pol.Kz
        s1[t] = pol.Kx @ r1[t] + pol.k1
        Ra[t + 1] = dyn.Fx @ Ra[t] + dyn.Fu @ Sa[t]
        Rz[t + 1] = dyn.Fx @ Rz[t] + dyn.Fu @ Sz[t]
        r1[t + 1] = dyn.Fx @ r1[t] + dyn.Fu @ s1[t] + dyn.f1
    return TrajectoryMaps(Ra, Rz, r1, Sa, Sz, s1)


@dataclasses.dataclass(frozen=True, eq=False, repr=False)
class MultiplierMaps:
    """All multipliers as affine maps of ``(x_init, x_term)``.

    lam_t = La[t] x_init + Lz[t] x_term + l1[t];  mu = Ea x_init + Ez x_term + e1.
    """

    La: np.ndarray
    Lz: np.ndarray
    l1: np.ndarray
    Ea: np.ndarray
    Ez: np.ndarray
    e1: np.ndarray

    def lambdas(self, x_init, x_term):
        return self.La @ x_init + self.Lz @ x_term + self.l1

    def mu(self, x_init, x_term):
        return self.Ea @ x_init + self.Ez @ x_term + self.e1


def _multiplier_maps(stages, terminal, bw, maps):
    """Multiplier maps from the values of the sweep ``bw`` that made ``maps``.

    Before the first time with pending endpoint rows the cost-to-go is the
    constrained one, so ``lam_t = -(Vxx_t x_t + Vzx_t' x_term + vx1_t)``
    holds pointwise; ``mu = -(Vzx_0 x_init + Vzz_0 x_term + vz1_0)``.  Row
    counts never fall as ``t`` grows, so the pending stages form one tail,
    which takes ``lam_T`` from the terminal cost and ``mu`` and then the
    stationarity recursion backwards.
    """
    T = len(stages)
    n = stages[0][0].n
    if terminal is None:
        terminal = TerminalCost.zero(n)
    tail = next(t for t, c in enumerate(bw.constraints) if c.rows)
    # states and controls as [x_init | x_term | 1] column blocks
    X = np.concatenate([maps.Ra, maps.Rz, maps.r1[:, :, None]], axis=2)
    lam = np.empty_like(X)
    if tail:
        values = bw.values[:tail]
        lam[:tail] = -(np.stack([v.Vxx for v in values]) @ X[:tail])
        lam[:tail, :, n:2 * n] -= np.stack([v.Vzx.T for v in values])
        lam[:tail, :, 2 * n] -= np.stack([v.vx1 for v in values])
    v0 = bw.values[0]
    mu = -np.concatenate([v0.Vzx, v0.Vzz, v0.vz1[:, None]], axis=1)
    lam[T] = -(terminal.Qxx @ X[T]) - mu
    lam[T, :, 2 * n] -= terminal.qx1
    for t in range(T - 1, tail - 1, -1):
        cost, dyn = stages[t]
        U = np.concatenate([maps.Sa[t], maps.Sz[t], maps.s1[t, :, None]], axis=1)
        lam[t] = dyn.Fx.T @ lam[t + 1] - cost.Qxx @ X[t] - cost.Qux.T @ U
        lam[t, :, 2 * n] -= cost.qx1
    return MultiplierMaps(
        La=lam[:, :, :n], Lz=lam[:, :, n:2 * n], l1=lam[:, :, 2 * n],
        Ea=mu[:, :n], Ez=mu[:, n:2 * n], e1=mu[:, 2 * n])


def multiplier_pass(stages, terminal, maps):
    """Multiplier maps for the trajectory maps of the endpoint sweep.

    Sweeps :func:`backward_pass` over ``stages`` for the values the maps
    came from.  :func:`solve_endpoint_affine` reuses the sweep it has.
    """
    return _multiplier_maps(stages, terminal, backward_pass(stages, terminal), maps)


@dataclasses.dataclass(frozen=True, eq=False, repr=False)
class EndpointAffineSolution:
    """Solution of the endpoint-constrained problem in symbolic form.

    Policies, trajectory maps and multiplier maps are all affine in
    ``(x_init, x_term)``; ``values`` and ``constraints`` are the backward
    sweep's cost-to-go and constraint-to-go per time point.  When the
    boundary constraints are linearly dependent (a non-empty feasibility
    triple) the multipliers are not unique, and ``multipliers`` holds the
    representative whose ``mu`` is minus the endpoint gradient of the
    initial cost-to-go.
    """

    stages: StageStack
    terminal: TerminalCost
    policies: tuple
    values: tuple
    constraints: tuple
    maps: TrajectoryMaps
    multipliers: MultiplierMaps
    diagnostics: StageDiagnostics = None

    @property
    def feasibility(self):
        return self.constraints[0]

    def feasibility_residual(self, x_init, x_term):
        res = self.feasibility.residual(np.asarray(x_init, float),
                                        np.asarray(x_term, float))
        return float(np.abs(res).max()) if res.size else 0.0

    def evaluate(self, x_init, x_term, tolerances=DEFAULT_TOLERANCES):
        """Numeric solution at concrete endpoints.

        Raises :class:`Infeasible` when the feasibility rows reject the
        endpoint pair.
        """
        x_init = np.asarray(x_init, dtype=float)
        x_term = np.asarray(x_term, dtype=float)
        residual = self.feasibility_residual(x_init, x_term)
        scale = 1.0 + float(np.abs(x_init).max(initial=0.0)) \
            + float(np.abs(x_term).max(initial=0.0))
        if residual > tolerances.feas_tol * scale:
            raise Infeasible(residual)
        states = self.maps.states(x_init, x_term)
        controls = self.maps.controls(x_init, x_term)
        lambdas = self.multipliers.lambdas(x_init, x_term)
        mu = self.multipliers.mu(x_init, x_term)
        problem = LqrProblem(self.stages, self.terminal, x_init)
        solution = LqrSolution(
            states=states,
            controls=controls,
            lambdas=lambdas,
            policies=self.policies,
            objective=evaluate_objective(problem, states, controls),
            kkt_residual_inf=0.0,
            mu=mu,
            x_term=x_term,
        )
        return dataclasses.replace(
            solution, kkt_residual_inf=kkt_residual(problem, solution))


def solve_endpoint_affine(problem, tolerances=DEFAULT_TOLERANCES,
                          collect_diagnostics=False, require_multipliers=False):
    """Run all passes and return the solution as affine maps.

    A non-empty feasibility triple means the boundary constraints are
    linearly dependent and the multipliers are not unique; the maps then
    hold the representative of :func:`multiplier_pass`, or, with
    ``require_multipliers``, :class:`FactorizationFailure` is raised.
    """
    bw = backward_pass(problem.stages, problem.terminal,
                       tolerances=tolerances,
                       collect_diagnostics=collect_diagnostics)
    if require_multipliers and bw.feasibility.rows:
        raise FactorizationFailure(
            None, "boundary constraints are linearly dependent "
            f"({bw.feasibility.rows} unreachable endpoint rows)")
    maps = forward_pass(bw.policies, problem.stages)
    return EndpointAffineSolution(
        stages=problem.stages,
        terminal=problem.terminal,
        policies=bw.policies,
        values=bw.values,
        constraints=bw.constraints,
        maps=maps,
        multipliers=_multiplier_maps(problem.stages, problem.terminal, bw, maps),
        diagnostics=bw.diagnostics,
    )


def solve_endpoint(problem, x_init, x_term, tolerances=DEFAULT_TOLERANCES):
    """Solve the endpoint-constrained problem at concrete endpoints.

    ``problem.x_init`` is ignored in favor of the ``x_init`` argument.  An
    unreachable endpoint raises :class:`Infeasible` carrying the residual
    of the violated rows.
    """
    return solve_endpoint_affine(problem, tolerances).evaluate(
        x_init, x_term, tolerances)
