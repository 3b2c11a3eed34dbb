"""Horizon-partitioned solver: concurrent sub-problem sweeps plus link solve.

The horizon is split into ``J`` segments.  Every segment except the last is
an endpoint-constrained problem with zero terminal cost whose boundary
states are unknown link points; the last segment keeps the terminal cost
and is solved by the plain Riccati sweep with a symbolic start state.  Each
segment is solved independently (on a process pool when ``workers > 1``),
producing its solution as affine maps of its two boundary states.  Matching
the terminal-endpoint multiplier of each segment against the initial-state
multiplier of its right neighbour yields a block-tridiagonal system of
``(J-1) n`` equations in the link points; substituting its solution back
into the segment maps reconstructs the global trajectory, multipliers and
per-stage feedback policies.

Boundary multipliers are minus the segment value-function gradients, the
same maps :func:`parlqr.endpoint.multiplier_pass` gives for the first
state and the endpoint of a segment; interior multipliers then follow the
stationarity recursion within each segment.  Partitions whose segments
cannot reach arbitrary endpoints (segment length times control dimension
below the state dimension) have non-unique segment multipliers; their link
points come from the equivalent reduced problem over the links, minimizing
the summed segment cost-to-go subject to each segment's feasibility rows,
which coincides with the multiplier-matching system whenever all
feasibility triples are empty.

Each segment's payload carries ``problem.stages[lo:hi]``, a
:class:`parlqr.problem.StageStack` slice whose stage pairs are views into
the problem's stacked ``(T, ...)`` coefficient arrays.  It pickles as one
contiguous buffer per coefficient, holding only the segment's stages, and
the worker sweeps it through the same views.
"""

from __future__ import annotations

import atexit
import concurrent.futures
import copy
import dataclasses
import multiprocessing
import os

import numpy as np
import scipy.linalg

from . import endpoint as ep
from . import serial
from .errors import (
    CholeskyFailure,
    FactorizationFailure,
    Infeasible,
    LinkSingular,
    WorkerConfigError,
)
from .problem import (
    DEFAULT_TOLERANCES,
    AffinePolicy,
    LqrSolution,
    TerminalCost,
    evaluate_objective,
    kkt_residual,
    rollout,
)

__all__ = [
    "Partition",
    "LinkSystem",
    "make_partition",
    "assemble_link_system",
    "solve_parallel",
    "smooth",
    "default_workers",
    "shutdown_pools",
]

WORKERS_ENV_VAR = "PAR_RICCATI_WORKERS"

# Feasibility slack at solved link points, relative to ``feas_tol``.  The
# endpoint solver checks endpoints the caller gave exactly; link points come
# out of the link solve, so their feasibility residual also carries that
# solve's rounding, which scales with the whole link matrix (the segments'
# cost-to-go blocks included), not with the feasibility rows alone.
LINK_FEAS_SLACK = 10.0


@dataclasses.dataclass(frozen=True)
class Partition:
    """Split of the horizon into ``J`` contiguous segments."""

    J: int
    split_times: tuple

    def segment(self, j):
        return self.split_times[j], self.split_times[j + 1]

    @property
    def interior(self):
        return self.split_times[1:-1]


def make_partition(T, J):
    """Balanced partition: segment lengths differ by at most one.

    Earlier segments absorb the remainder, e.g. ``T=10, J=3`` gives split
    times ``(0, 4, 7, 10)``.
    """
    if not 1 <= J <= T:
        raise ValueError(f"J must be in [1, {T}], got {J}")
    base, extra = divmod(T, J)
    splits = [0]
    for j in range(J):
        splits.append(splits[-1] + base + (1 if j < extra else 0))
    return Partition(J, tuple(splits))


def default_workers(J):
    """Worker-count default: min(J, cores), overridable via environment.

    Raises :class:`WorkerConfigError` when the environment variable is set
    to something other than an integer.
    """
    env = os.environ.get(WORKERS_ENV_VAR)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise WorkerConfigError(
                f"{WORKERS_ENV_VAR} must be an integer, got {env!r}") from None
    return max(1, min(J, os.cpu_count() or 1))


# ---------------------------------------------------------------------------
# worker pool

_POOLS = {}


def _get_pool(workers):
    pool = _POOLS.get(workers)
    if pool is None:
        ctx = multiprocessing.get_context("fork")
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, mp_context=ctx)
        _POOLS[workers] = pool
    return pool


def shutdown_pools():
    """Shut down any process pools created by :func:`solve_parallel`."""
    while _POOLS:
        _, pool = _POOLS.popitem()
        pool.shutdown(wait=False, cancel_futures=True)


atexit.register(shutdown_pools)


def _run_tasks(payloads, workers):
    # a pool starts all its processes at once, so it gets no more than it
    # has tasks
    workers = min(workers, len(payloads))
    if workers <= 1:
        # fresh buffers, matching the copies the pool transport would make:
        # BLAS kernel selection is alignment-sensitive, and results must be
        # bit-identical for every worker count
        return [_solve_segment_task(copy.deepcopy(p)) for p in payloads]
    try:
        pool = _get_pool(workers)
    except ValueError:  # platform without fork
        return [_solve_segment_task(copy.deepcopy(p)) for p in payloads]
    # Batch segments only when they far outnumber the workers: each pool
    # task costs a round trip, which dominates tiny segments (J=T), while a
    # chunk must be pickled whole before its worker starts, which would
    # serialize the transport of large segments.  Few segments keep one
    # task each.
    chunksize = max(1, len(payloads) // (4 * workers))
    return list(pool.map(_solve_segment_task, payloads, chunksize=chunksize))


def _solve_segment_task(payload):
    """Symbolic solve of one segment.

    Returns only what link assembly and reconstruction need (stacked policy
    gains, initial value-function blocks, feasibility rows): trajectories
    are re-derived in the parent by rolling the policies out, which keeps
    the inter-process result payload small.
    """
    kind, lo, stages, terminal, tolerances, collect = payload
    try:
        return _solve_segment(kind, stages, terminal, tolerances, collect)
    except CholeskyFailure as exc:
        # report the stage on the global horizon, not within the segment
        raise CholeskyFailure(lo + exc.stage) from exc


def _solve_segment(kind, stages, terminal, tolerances, collect):
    if kind == "serial":
        policies, values = serial.backward_pass(stages, terminal)
        return {
            "kind": kind,
            "Kx": np.stack([p.Kx for p in policies]),
            "k1": np.stack([p.k1 for p in policies]),
            "vf0": (values[0].Vxx, values[0].vx1),
        }
    bw = ep.backward_pass(stages, terminal, tolerances=tolerances,
                          collect_diagnostics=collect)
    v0 = bw.values[0]
    feas = bw.feasibility
    return {
        "kind": kind,
        "Kx": np.stack([p.Kx for p in bw.policies]),
        "Kz": np.stack([p.Kz for p in bw.policies]),
        "k1": np.stack([p.k1 for p in bw.policies]),
        "vf0": (v0.Vxx, v0.Vzx, v0.Vzz, v0.vx1, v0.vz1),
        "feas": (feas.Hx, feas.Hz, feas.h1),
        "diagnostics": bw.diagnostics,
    }


# ---------------------------------------------------------------------------
# link system

def solve_block_tridiagonal(diag, sub, rhs):
    """Solve a symmetric positive-definite block-tridiagonal system.

    ``sub[i]`` couples block row ``i+1`` to block row ``i``; the
    superdiagonal is its transpose.  Block Cholesky elimination without
    pivoting across blocks; raises :class:`FactorizationFailure` when a
    pivot block is not positive-definite.
    """
    K = len(diag)
    X = [None] * K
    d = [None] * K
    P = diag[0]
    for i in range(K):
        if i:
            P = diag[i] - sub[i - 1] @ X[i - 1]
        try:
            L = np.linalg.cholesky(P)
        except np.linalg.LinAlgError as exc:
            raise FactorizationFailure(i) from exc
        factor = (L, True)
        g = rhs[i] if not i else rhs[i] - sub[i - 1] @ d[i - 1]
        d[i] = scipy.linalg.cho_solve(factor, g, check_finite=False)
        if i < K - 1:
            X[i] = scipy.linalg.cho_solve(factor, sub[i].T, check_finite=False)
    out = [None] * K
    out[K - 1] = d[K - 1]
    for i in range(K - 2, -1, -1):
        out[i] = d[i] - X[i] @ out[i + 1]
    return np.array(out)


@dataclasses.dataclass(eq=False, repr=False)
class LinkSystem:
    """Block-tridiagonal equations determining the interior link points.

    Row ``k`` matches the terminal-endpoint multiplier of segment ``k``
    with the initial-state multiplier of segment ``k+1``:

        sub[k-1] lnk_{k-1} + diag[k] lnk_k + sub[k]' lnk_{k+1} + rhs[k] = 0.

    ``links`` and ``residual`` are filled by :meth:`solve`.
    """

    diag: np.ndarray
    sub: np.ndarray
    rhs: np.ndarray
    links: np.ndarray = None
    residual: float = None

    def solve(self):
        # the coefficient matrix is minus the link Hessian of the summed
        # cost-to-go, so the negated system is symmetric positive-definite
        try:
            sol = solve_block_tridiagonal(
                -self.diag, -self.sub, self.rhs[:, :, None])
        except FactorizationFailure as exc:
            raise LinkSingular(str(exc)) from exc
        self.links = sol[:, :, 0]
        K = len(self.diag)
        worst = 0.0
        for k in range(K):
            r = self.diag[k] @ self.links[k] + self.rhs[k]
            if k:
                r = r + self.sub[k - 1] @ self.links[k - 1]
            if k < K - 1:
                r = r + self.sub[k].T @ self.links[k + 1]
            worst = max(worst, float(np.abs(r).max()))
        self.residual = worst
        return self.links


def _link_blocks(seg):
    """(La0, Lz0, l10, Ea, Ez, e1) of one segment's boundary multipliers.

    The initial-state multiplier map is minus the gradient of the segment
    cost-to-go in its start state, the terminal-endpoint map minus the
    gradient in the endpoint; both are the boundary blocks of the maps of
    :func:`parlqr.endpoint.multiplier_pass` whenever the segment's
    feasibility triple is empty.
    """
    if seg["kind"] == "serial":
        Vxx, vx1 = seg["vf0"]
        return -Vxx, None, -vx1, None, None, None
    Vxx, Vzx, Vzz, vx1, vz1 = seg["vf0"]
    return -Vxx, -Vzx.T, -vx1, -Vzx, -Vzz, -vz1


def assemble_link_system(segments, partition, x_init):
    """Multiplier-matching equations over the ``J-1`` interior link points."""
    J = partition.J
    n = x_init.shape[0]
    diag = np.empty((J - 1, n, n))
    sub = np.empty((J - 2, n, n)) if J > 2 else np.zeros((0, n, n))
    rhs = np.empty((J - 1, n))
    blocks = [_link_blocks(seg) for seg in segments]
    for k in range(1, J):
        La_r, _, l1_r, _, _, _ = blocks[k]
        _, _, _, Ea_l, Ez_l, e1_l = blocks[k - 1]
        diag[k - 1] = Ez_l + La_r
        rhs[k - 1] = e1_l + l1_r
        if k == 1:
            rhs[k - 1] += Ea_l @ x_init
        else:
            sub[k - 2] = Ea_l
    return LinkSystem(diag, sub, rhs)


def _solve_links_with_feasibility(segments, partition, x_init):
    """Link points for partitions with reachability-deficient segments.

    Solves the reduced problem over the links, minimizing the summed
    segment cost-to-go subject to every segment's feasibility rows, via
    its dense KKT system.  Returns ``(links, nus)`` where ``nus[j]`` holds
    the multipliers of segment ``j``'s feasibility rows.
    """
    J = partition.J
    n = x_init.shape[0]
    nl = (J - 1) * n
    row_counts = [seg["feas"][0].shape[0] if seg["kind"] == "endpoint" else 0
                  for seg in segments]
    offsets = np.concatenate([[0], np.cumsum(row_counts[:-1])]) + nl
    dim = nl + sum(row_counts)
    A = np.zeros((dim, dim))
    b = np.zeros(dim)

    def lsl(k):  # slice of interior link k (1-based)
        return slice((k - 1) * n, k * n)

    for k in range(1, J):
        left = segments[k - 1]["vf0"]       # endpoint segment: 5 blocks
        Vzx_l, Vzz_l, vz1_l = left[1], left[2], left[4]
        rows = lsl(k)
        A[rows, rows] += Vzz_l
        b[rows] -= vz1_l
        if k == 1:
            b[rows] -= Vzx_l @ x_init
        else:
            A[rows, lsl(k - 1)] += Vzx_l
        right = segments[k]["vf0"]
        if segments[k]["kind"] == "serial":
            Vxx_r, vx1_r = right
            A[rows, rows] += Vxx_r
            b[rows] -= vx1_r
        else:
            Vxx_r, Vzx_r, _, vx1_r, _ = right
            A[rows, rows] += Vxx_r
            b[rows] -= vx1_r
            if k < J - 1:
                A[rows, lsl(k + 1)] += Vzx_r.T
    for j, seg in enumerate(segments):
        r = row_counts[j]
        if not r:
            continue
        Hx, Hz, h1 = seg["feas"]
        rows = slice(offsets[j], offsets[j] + r)
        A[rows, lsl(j + 1)] = Hz
        A[lsl(j + 1), rows] = Hz.T
        b[rows] = -h1
        if j == 0:
            b[rows] -= Hx @ x_init
        else:
            A[rows, lsl(j)] = Hx
            A[lsl(j), rows] = Hx.T
    try:
        sol = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise LinkSingular(str(exc)) from exc
    links = sol[:nl].reshape(J - 1, n)
    nus = [sol[offsets[j]:offsets[j] + row_counts[j]] for j in range(J)]
    return links, nus


# ---------------------------------------------------------------------------
# solve and reconstruct

def _feedback_policies(Kx, k1):
    """State-feedback policies viewing stacked gains, which become read-only."""
    Kx.setflags(write=False)
    k1.setflags(write=False)
    zero_kz = np.zeros(Kx.shape[1:])
    zero_kz.setflags(write=False)
    return [AffinePolicy._from_gains(Kx[s], zero_kz, k1[s])
            for s in range(len(Kx))]


@dataclasses.dataclass(eq=False, repr=False)
class ParallelDetails:
    """Diagnostics attached to a partitioned solve."""

    partition: Partition
    link_points: np.ndarray
    link_residual: float
    mu_left: np.ndarray
    lambda_right: np.ndarray
    link_mismatch: float
    segment_values0: tuple
    segment_feasibility: tuple
    feasibility_residuals: tuple
    degenerate: bool
    segment_diagnostics: tuple = None
    smooth_deviation: float = None


def _segment_payloads(problem, partition, tolerances, collect):
    payloads = []
    for j in range(partition.J):
        lo, hi = partition.segment(j)
        stages = problem.stages[lo:hi]
        if j == partition.J - 1:
            payloads.append(("serial", lo, stages, problem.terminal,
                             tolerances, collect))
        else:
            payloads.append(("endpoint", lo, stages, None, tolerances,
                             collect))
    return payloads


def solve_parallel(problem, J, workers=None, tolerances=DEFAULT_TOLERANCES,
                   collect_diagnostics=False, partition=None):
    """Solve the global problem through ``J`` concurrent sub-problems.

    Equivalent to :func:`parlqr.serial.solve` up to solver tolerance for
    any valid partition; ``J=1`` delegates to it outright.  A custom
    :class:`Partition` overrides the balanced default (and ``J``).
    Results are assembled by segment index, so repeated runs are
    bit-identical for any worker count.  Raises :class:`Infeasible` when a
    segment's feasibility rows reject every link value and
    :class:`LinkSingular` when the link system cannot be factorized.
    """
    if partition is not None:
        splits = partition.split_times
        if splits[0] != 0 or splits[-1] != problem.T:
            raise ValueError("partition does not cover the horizon")
        if len(splits) != partition.J + 1 or np.diff(splits).min() < 1:
            raise ValueError("split times must be strictly increasing")
        J = partition.J
    if J == 1:
        return serial.solve(problem)
    if partition is None:
        partition = make_partition(problem.T, J)
    workers = default_workers(J) if workers is None else max(1, workers)
    segments = _run_tasks(
        _segment_payloads(problem, partition, tolerances, collect_diagnostics),
        workers)
    x_init = problem.x_init
    n, m, T = problem.n, problem.m, problem.T

    degenerate = any(seg["kind"] == "endpoint" and seg["feas"][0].shape[0] > 0
                     for seg in segments)
    nus = [np.zeros(0)] * J
    if degenerate:
        links, nus = _solve_links_with_feasibility(segments, partition, x_init)
        link_residual = 0.0
    else:
        system = assemble_link_system(segments, partition, x_init)
        links = system.solve()
        link_residual = system.residual

    # per-segment feasibility at the solved links
    feas_residuals = []
    bounds = [x_init] + [links[k] for k in range(J - 1)]
    for j, seg in enumerate(segments):
        if seg["kind"] == "serial" or seg["feas"][0].shape[0] == 0:
            feas_residuals.append(0.0)
            continue
        Hx, Hz, h1 = seg["feas"]
        a, z = bounds[j], links[j]
        resid = float(np.abs(Hx @ a + Hz @ z + h1).max())
        feas_residuals.append(resid)
        scale = 1.0 + float(np.abs(a).max()) + float(np.abs(z).max())
        if resid > tolerances.feas_tol * scale * LINK_FEAS_SLACK:
            raise Infeasible(resid, segment=j)

    states = np.empty((T + 1, n))
    controls = np.empty((T, m))
    lambdas = np.empty((T + 1, n))
    policies = [None] * T
    mu_left = np.empty((J - 1, n))
    lambda_right = np.empty((J - 1, n))

    for j, seg in enumerate(segments):
        lo, hi = partition.segment(j)
        a = bounds[j]
        Kx, k1 = seg["Kx"], seg["k1"]
        if seg["kind"] == "serial":
            folded = k1
            xs = states[lo:]
            us = controls[lo:]
        else:
            z = links[j]
            folded = seg["Kz"] @ z + k1
            xs = np.empty((hi - lo + 1, n))
            us = controls[lo:hi]
        xs[0] = a
        for s in range(hi - lo):
            us[s] = Kx[s] @ xs[s] + folded[s]
            dyn = problem.stages[lo + s][1]
            xs[s + 1] = dyn.Fx @ xs[s] + dyn.Fu @ us[s] + dyn.f1
        policies[lo:hi] = _feedback_policies(Kx, folded)
        if seg["kind"] == "serial":
            lam = -(problem.terminal.Qxx @ xs[-1] + problem.terminal.qx1)
            lambdas[T] = lam
        else:
            states[lo:hi] = xs[:-1]
            Vxx, Vzx, Vzz, vx1, vz1 = seg["vf0"]
            mu = -(Vzx @ a + Vzz @ z + vz1)
            if nus[j].size:
                mu = mu - seg["feas"][1].T @ nus[j]
            mu_left[j] = mu
            lam = -mu
        # interior multipliers follow the stationarity recursion backwards,
        # seeded by the segment's own boundary multiplier
        for s in range(hi - lo - 1, -1, -1):
            cost, dyn = problem.stages[lo + s]
            lam = dyn.Fx.T @ lam - (
                cost.Qxx @ states[lo + s] + cost.Qux.T @ controls[lo + s]
                + cost.qx1)
            lambdas[lo + s] = lam
        if j:
            lambda_right[j - 1] = lam

    mismatch = float(np.abs(mu_left + lambda_right).max()) if J > 1 else 0.0

    solution = LqrSolution(
        states=states,
        controls=controls,
        lambdas=lambdas,
        policies=tuple(policies),
        objective=evaluate_objective(problem, states, controls),
        kkt_residual_inf=0.0,
        details=ParallelDetails(
            partition=partition,
            link_points=links,
            link_residual=link_residual,
            mu_left=mu_left,
            lambda_right=lambda_right,
            link_mismatch=mismatch,
            segment_values0=tuple(seg["vf0"] for seg in segments),
            segment_feasibility=tuple(
                seg["feas"] if seg["kind"] == "endpoint" else None
                for seg in segments),
            feasibility_residuals=tuple(feas_residuals),
            degenerate=degenerate,
            segment_diagnostics=tuple(seg.get("diagnostics") for seg in segments),
        ),
    )
    return dataclasses.replace(
        solution, kkt_residual_inf=kkt_residual(problem, solution))


def smooth(problem, result, workers=None, tolerances=DEFAULT_TOLERANCES):
    """Second pass trading endpoint constraints for conditioned value costs.

    For each segment ahead of the last, the next segment's initial
    cost-to-go, conditioned on its now-known terminal link point, becomes
    the terminal cost of an unconstrained Riccati sweep over the segment.
    The re-computed policies drive the same optimal trajectory on the
    nominal dynamics but no longer steer at the link points under
    disturbances.  A ``J=1`` result is returned unchanged.

    Requires every conditioning segment to reach arbitrary endpoints
    (empty feasibility triple): the relaxed cost-to-go of a
    reachability-deficient segment is only faithful on its feasible
    manifold, which an unconstrained sweep would leave.
    """
    details = result.details
    if not isinstance(details, ParallelDetails):
        # a J=1 solve is a plain serial solution: nothing to smooth
        return result
    partition = details.partition
    J = partition.J
    if J == 1:
        return result
    for j in range(1, J - 1):
        feas = details.segment_feasibility[j]
        if feas is not None and feas[0].shape[0]:
            raise ValueError(
                f"segment {j} cannot reach arbitrary endpoints "
                f"({feas[0].shape[0]} feasibility rows); smoothing undefined "
                "for this partition")
    links = details.link_points
    workers = default_workers(J - 1) if workers is None else max(1, workers)
    payloads = []
    for j in range(J - 1):
        lo, hi = partition.segment(j)
        vf = details.segment_values0[j + 1]
        if j + 1 == J - 1:
            Vxx, vx1 = vf
            terminal = TerminalCost(Vxx, vx1)
        else:
            Vxx, Vzx, _, vx1, _ = vf
            terminal = TerminalCost(Vxx, vx1 + Vzx.T @ links[j + 1])
        payloads.append(("serial", lo, problem.stages[lo:hi], terminal,
                         tolerances, False))
    repassed = _run_tasks(payloads, workers)
    policies = list(result.policies)
    for j in range(J - 1):
        lo, hi = partition.segment(j)
        policies[lo:hi] = _feedback_policies(repassed[j]["Kx"], repassed[j]["k1"])
    states, controls = rollout(problem, policies, problem.x_init)
    deviation = max(float(np.abs(states - result.states).max()),
                    float(np.abs(controls - result.controls).max()))
    smoothed = LqrSolution(
        states=states,
        controls=controls,
        lambdas=result.lambdas,
        policies=tuple(policies),
        objective=evaluate_objective(problem, states, controls),
        kkt_residual_inf=0.0,
        details=dataclasses.replace(details, smooth_deviation=deviation),
    )
    return dataclasses.replace(
        smoothed, kkt_residual_inf=kkt_residual(problem, smoothed))
