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

This is the package's one Riccati sweep (:func:`sweep_segments`): it runs
segments of one stage stack in lockstep, one batched product per backward
step, each slice rounding as its segment swept alone; :func:`backward_pass`
is the lone segment, on 2-D arrays.  Stages with no control direction
spent on pending rows (rank ``p = 0``, the bulk of a long sweep) make one
LAPACK ``dposv`` factor-and-solve of the control Hessian against
``[Mux | Mzu' | mu1]`` (:func:`stage_gains`) and the exactly symmetric
cost-to-go update (:func:`value_update`); the others factor the
null-space Hessian ``Zw' Muu Zw`` with the same call.  Without endpoint
rows the endpoint block has width zero and the sweep is the plain Riccati
recursion of :mod:`parlqr.serial`.  The trajectory maps (:func:`forward_pass`)
come from the package's one forward recursion, :func:`parlqr.problem.propagate`.

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
from scipy.linalg.lapack import dposv

from .errors import CholeskyFailure, FactorizationFailure, Infeasible
from .problem import (
    COST_FIELDS,
    DEFAULT_TOLERANCES,
    DYNAMICS_FIELDS,
    AffinePolicy,
    LqrProblem,
    LqrSolution,
    StageStack,
    TerminalCost,
    evaluate_objective,
    kkt_residual,
    lockstep,
    propagate,
)

__all__ = [
    "ValueFunction",
    "ConstraintToGo",
    "BackwardResult",
    "TrajectoryMaps",
    "MultiplierMaps",
    "EndpointAffineSolution",
    "backward_pass",
    "sweep_segments",
    "forward_pass",
    "multiplier_pass",
    "solve_endpoint_affine",
    "solve_endpoint",
]


@dataclasses.dataclass(frozen=True, eq=False, repr=False, slots=True)
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

    @classmethod
    def _from_blocks(cls, Vxx, Vzx, Vzz, vx1, vz1, const):
        """Sweep-built value: skips the dataclass constructor, as
        :meth:`AffinePolicy._from_gains` does, because at small dimensions
        the constructor is a sizeable share of a stage; slotted fields are
        cheaper to set than instance-dict ones."""
        value = object.__new__(cls)
        set_ = object.__setattr__
        set_(value, "Vxx", Vxx)
        set_(value, "Vzx", Vzx)
        set_(value, "Vzz", Vzz)
        set_(value, "vx1", vx1)
        set_(value, "vz1", vz1)
        set_(value, "const", const)
        return value

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


def _norms(X):
    """Frobenius norm of each slice, rounded as ``np.linalg.norm`` of one."""
    flat = X.reshape(len(X), -1)
    return np.sqrt(np.vecdot(flat, flat))


def _compress_rows(Hx, Hz, h1, rank_tol, scale, cert_scale):
    """Reduce constraint rows to a maximal linearly independent set.

    Batched over segments with equal row counts; yields ``(positions, Hx,
    Hz, h1)`` per resulting row count.  Singular values are thresholded
    against ``scale``, the magnitude of the rows *before* the range-space
    projection, so directions that the projection annihilated in exact
    arithmetic are dropped instead of surviving as roundoff noise.  Any
    component of ``h1`` outside the retained row space is kept as a single
    zero-coefficient row, an infeasibility certificate that propagates to
    the feasibility triple.  Rows that are already independent at full
    scale are returned untouched so residual entries keep their meaning.
    """
    r, n = Hx.shape[1:]
    U, s, _ = np.linalg.svd(np.concatenate([Hx, Hz], axis=2), full_matrices=False)
    ranks = np.count_nonzero(s > (rank_tol * np.maximum(scale, s[:, 0]))[:, None], axis=1)
    for q in np.unique(ranks):
        at = np.flatnonzero(ranks == q)
        if q == r:
            yield at, Hx[at], Hz[at], h1[at]
            continue
        h, Uq = h1[at], U[at][:, :, :q]
        body = Uq.mT @ np.concatenate([Hx[at], Hz[at], h[:, :, None]], axis=2)
        leftover = h - np.matvec(Uq, np.matvec(Uq.mT, h))
        resid = np.sqrt(np.vecdot(leftover, leftover))
        certified = resid > rank_tol * cert_scale[at]
        for flag in np.unique(certified):
            sub = np.flatnonzero(certified == flag)
            rows = body[sub]
            if flag:
                rows = np.concatenate([rows, np.zeros_like(rows[:, :1])], axis=1)
                rows[:, -1, -1] = resid[sub]
            yield at[sub], rows[:, :, :n], rows[:, :, n:-1], rows[:, :, -1]


def stage_gains(Muu, rhs, stages):
    """Gains ``-Muu^{-1} rhs``, one LAPACK ``dposv`` per slice of a batch.

    ``dposv`` factors ``Muu`` with no regularization and solves for every
    column of ``rhs`` at once.  A failed factorization means the problem is
    not strictly convex at that stage (of the indices ``stages``) and raises
    :class:`CholeskyFailure`.  The read-only gains keep the Fortran order of
    ``dposv``, on which the rounding of later products depends.
    """
    if rhs.ndim == 2:  # a lone segment keeps dposv's own array
        _, gains, info = dposv(Muu, rhs)
        failed = info and [stages]
    else:
        gains, failed = np.empty((len(rhs),) + rhs.shape[:0:-1]).mT, []
        for b, stage in enumerate(stages):
            _, gains[b], info = dposv(Muu[b], rhs[b])
            failed += [stage] if info else []
    if failed:
        raise CholeskyFailure(int(failed[0]))
    np.negative(gains, out=gains)
    gains.setflags(write=False)
    return gains


def value_update(Muu, rhs, gains):
    """Stage cost-to-go increment under the control ``u = G @ [y; 1]``.

    ``rhs`` holds the cross terms ``[Muy | mu1]`` between the control and
    the affine argument ``[y; 1]`` of the cost-to-go, ``y = (x, x_term)``
    (``y = x`` without an endpoint block), and ``G`` is ``gains``; all may
    carry a leading batch axis.  Returns ``rhs' G + G' rhs + G' Muu G``,
    formed as ``G' W + W' G`` with ``W = rhs + Muu G / 2`` so that it is
    exactly symmetric: its leading block adds to the quadratic
    coefficients, its last column to the linear ones, and its last entry is
    twice the constant increment.  The form holds for any gains.
    """
    half = gains.mT @ (rhs + 0.5 * (Muu @ gains))
    return half + half.mT


def _pending_rows(groups, Fx, Fu, f1, Muu, rhs, where, rank_tol, diag):
    """Kernel of a ``(B, ...)`` step for segments with pending rows: gains per
    rank above zero, the groups pending after it, the mask left to dposv."""
    m, n, e = Muu.shape[1], Fx.shape[1], rhs.shape[2] - 1
    parts, pending, plain = [], [], np.ones(len(Muu), bool)
    for at, Hx, Hz, h1 in groups:
        live = at < len(Muu)  # the segments that have not ended
        at, Hx, Hz, h1 = at[live], Hx[live], Hz[live], h1[live]
        if not at.size:
            continue
        Nx, Nu, n1 = Hx @ Fx[at], Hx @ Fu[at], np.matvec(Hx, f1[at]) + h1
        U, s, Vt = np.linalg.svd(Nu)
        # rank judged against the product of the factor norms: entries of
        # Nu that are pure cancellation noise must not be inverted
        nu_scale = _norms(Hx) * _norms(Fu[at])
        threshold = rank_tol * np.maximum(nu_scale, s[:, 0])
        ranks = np.count_nonzero(s > threshold[:, None], axis=1)
        stack = np.concatenate([Nx, Hz, n1[:, :, None]], axis=2)
        pre_scale = _norms(stack[:, :, :e])
        cert_scale = np.maximum(1.0, np.abs(n1).max(axis=1, initial=0.0))
        for p in np.unique(ranks):
            sub = np.flatnonzero(ranks == p)
            who, rows = at[sub], stack[sub]
            if p:
                Us, Vs, Zw, M = U[sub], Vt[sub], Vt[sub][:, p:].mT, Muu[who]
                base = (Vs[:, :p].mT / s[sub][:, None, :p]) @ Us[:, :, :p].mT @ rows
                gains = -base if p == m else Zw @ stage_gains(
                    Zw.mT @ M @ Zw, Zw.mT @ (rhs[who] - M @ base), where[who]) - base
                gains.setflags(write=False)
                parts.append((who, gains))
                plain[who] = False
                Up = Us[:, :, :p]
                rows = rows - Up @ (Up.mT @ rows)
                if diag is not None:
                    Py, P = Vs[:, :p].mT, np.eye(Up.shape[1]) - Up @ Up.mT
                    defects = (Py @ Py.mT + Zw @ Zw.mT - np.eye(m), P @ P - P)
                    for worst, new in zip(diag, defects):
                        worst[who] = np.maximum(worst[who], np.abs(new).max(axis=(1, 2)))
            pending.extend((who[kept], *new) for kept, *new in _compress_rows(
                rows[:, :, :n], rows[:, :, n:e], rows[:, :, e], rank_tol,
                pre_scale[sub], cert_scale[sub]) if new[2].shape[1])
    return parts, pending, plain


def sweep_segments(stages, splits, Qxx_T, qx1_T, constrained, tolerances=DEFAULT_TOLERANCES,
                   collect_diagnostics=False):
    """Lockstep Riccati sweeps of the segments ``stages[splits[b]:splits[b+1]]``.

    Each runs back from its terminal cost ``(Qxx_T[b], qx1_T[b])``; the
    first ``constrained`` have ``n`` endpoint rows seeded at their ends, the
    others none.  The endpoint block is ``k = n`` wide if any segment is
    constrained, else empty; an unconstrained segment's block stays exactly
    zero and its other bits are those of its sweep at width zero.  A lone
    segment runs on 2-D arrays.  Returns the held order (:func:`lockstep`),
    per-segment :class:`StageDiagnostics` or None, and per step the stages,
    ``(positions, [Kx | Kz | k1])`` per kernel, ``(positions, Hx, Hz, h1)``
    per group of rows pending after it and, where a segment starts or for a
    lone one (else None), the values ``(Vxx, Vzx, Vzz, vx1, vz1, const)``.
    """
    n, m = stages.Qxx.shape[1], stages.Quu.shape[1]
    k = n if constrained else 0
    e = n + k
    lone = len(splits) == 2
    order, plan = (np.zeros(1, int), [(1, t) for t in reversed(range(*splits))]
                   ) if lone else lockstep(splits)
    B = len(order)
    lead = () if lone else (B,)
    Vxx, vx1 = (Qxx_T[0], qx1_T[0]) if lone else (Qxx_T[order], qx1_T[order])
    Vzx, Vzz, vz1 = (np.zeros(lead + shape) for shape in ((k, n), (k, k), (k,)))
    const = 0.0 if lone else np.zeros(B)
    groups = [(np.flatnonzero(order < constrained), np.tile(np.eye(k, n), (constrained, 1, 1)),
               np.tile(-np.eye(k), (constrained, 1, 1)), np.zeros((constrained, k)))] if k else []
    diag = (np.zeros(B), np.zeros(B)) if collect_diagnostics else None
    stage_index = np.arange(len(stages))
    rhs = rhs_all = np.empty(lead + (m, e + 1))  # [Mux | Mzu' | mu1], refilled every step
    steps = []

    for i, (B, rows) in enumerate(plan):
        if lone:  # the stage's cached pair of views
            (cost, dyn), where = stages[rows], rows
            Qxx, Qux, Quu, qx1, qu1 = cost.Qxx, cost.Qux, cost.Quu, cost.qx1, cost.qu1
            Fx, Fu, f1 = dyn.Fx, dyn.Fu, dyn.f1
        else:
            Qxx, Qux, Quu, qx1, qu1, Fx, Fu, f1 = (
                getattr(stages, field)[rows] for field in COST_FIELDS + DYNAMICS_FIELDS)
            rhs, where = rhs_all[:B], stage_index[rows]
            Vxx, Vzx, Vzz, vx1, vz1, const = (
                block[:B] for block in (Vxx, Vzx, Vzz, vx1, vz1, const))
        F = np.concatenate((Fx, Fu), axis=-1)
        H = F.mT @ (Vxx @ F)
        Vf1 = np.matvec(Vxx, f1)
        g = np.matvec(F.mT, vx1 + Vf1)
        np.add(Qux, H[..., n:, :n], out=rhs[..., :n])
        if k:
            MzF = Vzx @ F
            mz1 = vz1 + np.matvec(Vzx, f1)
            rhs[..., n:e] = MzF[..., n:].mT
        np.add(qu1, g[..., n:], out=rhs[..., e])
        Muu = Quu + H[..., n:, n:]

        # gains stacked as [Kx | Kz | k1], an m x (e+1) block per segment
        if not groups:
            gains = stage_gains(Muu, rhs, where)
            parts = (((), gains),)
            A = value_update(Muu, rhs, gains)
        else:
            batch = (Fx, Fu, f1, Muu, rhs)
            parts, groups, plain = _pending_rows(
                groups, *(a[None] for a in batch) if lone else batch,
                np.atleast_1d(where), tolerances.rank_tol, diag)
            parts = [((), gains[0]) for _, gains in parts] if lone else parts
            if plain.any():
                at = () if lone else np.flatnonzero(plain)
                parts.append((at, stage_gains(Muu[at], rhs[at], np.atleast_1d(where)[at])))
            A = np.empty(Muu.shape[:-2] + (e + 1, e + 1))
            for at, gains in parts:
                A[at] = value_update(Muu[at], rhs[at], gains)

        const = const + np.vecdot(f1, vx1 + 0.5 * Vf1) + 0.5 * A[..., e, e]
        Vxx = Qxx + H[..., :n, :n] + A[..., :n, :n]
        Vxx = 0.5 * (Vxx + Vxx.mT)
        vx1 = qx1 + g[..., :n] + A[..., :n, e]
        if k:
            Vzx = MzF[..., :n] + A[..., n:e, :n]
            Vzz = Vzz + A[..., n:e, n:e]  # both terms exactly symmetric
            vz1 = mz1 + A[..., n:e, e]
        last = lone or i + 1 == len(plan) or plan[i + 1][0] < B
        steps.append((rows, parts, groups, (Vxx, Vzx, Vzz, vx1, vz1, const) if last else None))

    # rows never grow as a sweep goes back, so the most rows seen are those seeded
    diagnostics = [None] * len(order) if diag is None else [
        StageDiagnostics(float(basis), float(projector), k * (j < constrained))
        for j, basis, projector in zip(order, *diag)]
    return order, [diagnostics[b] for b in np.argsort(order)], steps


def _constraint(groups, b, n, k):
    """The rows pending for held segment ``b`` in a step's ``groups``."""
    for at, Hx, Hz, h1 in groups:
        for g in np.flatnonzero(at == b):
            return ConstraintToGo(Hx[g], Hz[g], h1[g])
    return ConstraintToGo(np.zeros((0, n)), np.zeros((0, k)), np.zeros(0))


def segment_ends(splits, order, steps):
    """A :func:`sweep_segments` batch's gains, stacked in stage order, and per
    segment ``(Vxx, Vzx, Vzz, vx1, vz1)`` at its start and its feasibility rows."""
    n, k = steps[-1][3][0].shape[-1], steps[-1][3][1].shape[-2]
    gains = np.empty((splits[-1] - splits[0],) + steps[0][1][0][1].shape[-2:])
    local = np.arange(splits[-1]) - splits[0]
    for rows, parts, _, _ in steps:
        for at, block in parts:
            gains[local[rows][at]] = block
    ends = [(steps[length - 1], b) for length, b in zip(np.diff(splits), np.argsort(order))]
    lone = len(order) == 1
    return (gains, tuple(np.stack([step[3][i][() if lone else b] for step, b in ends])
                         for i in range(5)),
            tuple(_constraint(step[2], b, n, k) for step, b in ends))


def backward_pass(stages, terminal=None, *, terminal_constrained=True,
                  tolerances=DEFAULT_TOLERANCES, collect_diagnostics=False):
    """Riccati sweep producing endpoint-conditioned policies.

    :func:`sweep_segments` of one segment.  ``terminal`` may be None for the
    pure boundary-value case (zero terminal cost).  With
    ``terminal_constrained=False`` no endpoint rows are seeded and the
    sweep is the plain Riccati recursion: policies share one zero ``Kz``
    and values have zero-width ``Vzx``/``Vzz``/``vz1``.  Raises
    :class:`CholeskyFailure` when the cost Hessian restricted to the
    constraint null space is not positive-definite; at rank ``p = 0`` that
    is the whole control Hessian.
    """
    if not isinstance(stages, StageStack):
        stages = StageStack.from_pairs(stages)
    T, n, m = len(stages), stages.Qxx.shape[1], stages.Quu.shape[1]
    terminal = TerminalCost.zero(n) if terminal is None else terminal
    k = n if terminal_constrained else 0
    _, (diagnostics,), steps = sweep_segments(
        stages, (0, T), terminal.Qxx[None], terminal.qx1[None], int(terminal_constrained),
        tolerances, collect_diagnostics)
    policies, values, constraints = [None] * T, [None] * (T + 1), [None] * (T + 1)
    values[T] = ValueFunction._from_blocks(terminal.Qxx, np.zeros((k, n)), np.zeros((k, k)),
                                           terminal.qx1, np.zeros(k), 0.0)
    constraint = constraints[T] = ConstraintToGo(np.eye(k, n), -np.eye(k), np.zeros(k))
    zero_kz = np.zeros((m, n))  # Kz of every policy without an endpoint block
    zero_kz.setflags(write=False)
    rows = constraint.rows  # pending rows, updated only where they change
    for t, (_, ((_, gains),), groups, value) in zip(range(T - 1, -1, -1), steps):
        Kz = gains[:, n:n + k] if k else zero_kz
        policies[t] = AffinePolicy._from_gains(
            gains[:, :n], Kz, gains[:, -1], k > 0 and bool(Kz.any()))
        values[t] = ValueFunction._from_blocks(*value)
        if rows:
            rows = (constraint := _constraint(groups, 0, n, k)).rows
        constraints[t] = constraint
    return BackwardResult(tuple(policies), tuple(values), tuple(constraints), diagnostics)


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
    """Propagate the policies to affine state/control maps: the ``[Ra | Rz]``
    block from ``[I | 0]`` with offsets ``[0 | Kz]`` and no drift, one
    product per step for both, then ``r1`` (:func:`parlqr.problem.propagate`).
    """
    if not isinstance(stages, StageStack):
        stages = StageStack.from_pairs(stages)
    T, n, m = len(stages), stages.Qxx.shape[1], stages.Quu.shape[1]
    Kx = [policy.Kx for policy in policies]
    R, S = np.empty((T + 1, n, 2 * n)), np.empty((T, m, 2 * n))
    R[0] = np.eye(n, 2 * n)
    offsets = np.zeros((T, m, 2 * n))
    offsets[:, :, n:] = [policy.Kz for policy in policies]
    propagate(Kx, offsets, stages.Fx, stages.Fu, None, R, S)
    r1, s1 = np.empty((T + 1, n)), np.empty((T, m))
    r1[0] = 0.0
    propagate(Kx, [policy.k1 for policy in policies], stages.Fx, stages.Fu, stages.f1, r1, s1)
    # each map a contiguous stack: products on strided halves run slower
    Ra, Rz, Sa, Sz = map(np.ascontiguousarray, np.split(R, 2, axis=2) + np.split(S, 2, axis=2))
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
