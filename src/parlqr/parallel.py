"""Horizon-partitioned solver: concurrent sub-problem sweeps plus link solve.

The horizon is split into ``J`` segments.  Every segment except the last is
an endpoint-constrained problem with zero terminal cost whose boundary
states are unknown link points; the last segment keeps the terminal cost
and is solved by the plain Riccati sweep with a symbolic start state.  Each
segment is solved independently (on a process pool when ``workers > 1``),
producing its solution as affine maps of its two boundary states.  The link
points solve the reduced problem over the links: minimize the summed
segment cost-to-go subject to each segment's feasibility rows, which are
empty unless the segment cannot reach arbitrary endpoints (segment length
times control dimension below the state dimension).  Its stationarity rows
match the terminal-endpoint multiplier of each segment against the
initial-state multiplier of its right neighbour.  Interleaving each link
with the multipliers of the rows that end at it makes the KKT system
banded, so one banded LU solve serves every partition at a cost linear in
``J``; substituting its solution back into the segment maps reconstructs
the global trajectory, multipliers and per-stage feedback policies.

Boundary multipliers are minus the segment value-function gradients, the
same maps :func:`parlqr.endpoint.multiplier_pass` gives for the first
state and the endpoint of a segment, corrected by the feasibility-row
multipliers; interior multipliers then follow the stationarity recursion
within each segment.

Each worker takes a contiguous run of segments, the calling process the
first, and sweeps it as one lockstep batch per kind of segment
(:func:`parlqr.endpoint.sweep_segments`); the reconstruction is lockstep
too, and a segment's bits do not depend on its batch or worker count.  The
pool's stage data travels through one file per solve in a memory-backed
directory (:data:`SHARED_DIR`): the calling process writes the pool's
stages there, each pool task names only the file, its byte layout and the
batch's stage range, and the worker maps the file read-only for the
length of its sweep.  The file is removed once the results are in.  Where
it cannot be created, the calling process sweeps every batch itself.
"""

from __future__ import annotations

import atexit
import concurrent.futures
import dataclasses
import itertools
import math
import mmap
import multiprocessing
import os
import time
import traceback

import numpy as np
import scipy.linalg

from . import endpoint as ep
from . import serial
from .errors import (
    CholeskyFailure,
    Infeasible,
    LinkSingular,
    WorkerConfigError,
    WorkerFailure,
)
from .problem import (
    DEFAULT_TOLERANCES,
    AffinePolicy,
    LqrSolution,
    StageStack,
    TerminalCost,
    evaluate_objective,
    kkt_residual,
    rollout,
)

__all__ = [
    "Partition",
    "make_partition",
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

# Directory of the per-solve stage files (a memory-backed filesystem) and
# the counter that names them within this process
SHARED_DIR = "/dev/shm"
_FILE_NUMBERS = itertools.count()


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


def _publish(stages, path):
    """Write ``stages`` to a new file at ``path``, one stack after another at
    64-byte aligned offsets; return each stack's ``(offset, dtype, stage
    shape)`` in :attr:`StageStack.FIELDS` order and the bytes written.

    The stacks go out through ``os.pwrite``, so this process never maps the
    file.  The file is removed again if writing fails.
    """
    fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o600)
    layout, end = [], 0
    try:
        for field in StageStack.FIELDS:
            arr = np.ascontiguousarray(getattr(stages, field))
            at = offset = -(-end // 64) * 64
            data = memoryview(arr).cast("B")
            while data:
                written = os.pwrite(fd, data, at)
                data, at = data[written:], at + written
            layout.append((offset, arr.dtype.str, arr.shape[1:]))
            end = offset + arr.nbytes
    except BaseException:
        os.unlink(path)
        raise
    finally:
        os.close(fd)
    return tuple(layout), sum(getattr(stages, f).nbytes for f in StageStack.FIELDS)


def _run_tasks(local, remote, workers, timings):
    """Results of the batches in order and the processes used: this process
    sweeps the ``local`` batches (:func:`_sweep_batch` arguments), a pool of
    ``workers - 1`` the ``remote`` ones (:func:`_sweep_shared` tasks).

    Adds the ``local_sweep`` and ``wait`` spans to ``timings``.  Raises
    :class:`WorkerFailure` when a pool process dies; that pool is dropped,
    so the next solve starts a new one.
    """
    pool = _get_pool(workers - 1) if remote else None
    futures = []
    try:
        futures = [pool.submit(_sweep_shared, task) for task in remote]
        tic = time.perf_counter()
        results = [_sweep_batch(*batch) for batch in local]
        timings["local_sweep"], tic = time.perf_counter() - tic, time.perf_counter()
        results += [f.result() for f in futures]
        timings["wait"] = time.perf_counter() - tic
    except concurrent.futures.BrokenExecutor as exc:
        if _POOLS.get(workers - 1) is pool:
            del _POOLS[workers - 1]
        pool.shutdown(wait=False, cancel_futures=True)
        raise WorkerFailure(f"a worker process ended abruptly: {exc}") from exc
    finally:
        for f in futures:
            f.cancel()
    return results, workers if remote else 1


def _sweep_batch(stages, lo, splits, k, terminal, tolerances, collect):
    """Lockstep sweep of one batch of segments, returning only what links and
    reconstruction need (the parent rolls the policies out): the gains, each
    segment's initial cost-to-go and, where endpoint-constrained, its rows.

    ``stages`` holds the batch's stages, the first of them stage ``lo`` of
    the horizon; ``terminal`` is None for endpoint segments (``k = n``),
    whose terminal cost is zero.
    """
    n = stages.Qxx.shape[1]
    if terminal is None:
        terminal = np.zeros((len(splits) - 1, n, n)), np.zeros((len(splits) - 1, n))
    try:
        order, diagnostics, steps = ep.sweep_segments(
            stages, splits, *terminal, k, tolerances, collect)
    except CholeskyFailure as exc:
        # report the stage on the global horizon, not within the batch
        raise CholeskyFailure(lo + exc.stage) from exc
    gains, (Vxx, Vzx, Vzz, vx1, vz1), feasibility = ep.segment_ends(splits, order, steps)
    out = {"Kx": gains[:, :, :n], "k1": gains[:, :, -1], "Vxx": Vxx, "vx1": vx1,
           "diagnostics": tuple(diagnostics)}
    if k:
        out.update(Kz=gains[:, :, n:-1], Vzx=Vzx, Vzz=Vzz, vz1=vz1,
                   feasibility=tuple((c.Hx, c.Hz, c.h1) for c in feasibility))
    return out


def _sweep_shared(task):
    """:func:`_sweep_batch` over stages read from a :func:`_publish` file.

    ``task`` is ``(path, (base, layout), lo, hi, *rest)``: the file holds
    stages ``base, base + 1, ...``, the batch is stages ``[lo, hi)`` and
    ``rest`` the other :func:`_sweep_batch` arguments.  The file is mapped
    read-only for the sweep only; the batch's stacks are views into it.
    """
    path, (base, layout), lo, hi, *rest = task
    with open(path, "rb") as file:
        mapped = mmap.mmap(file.fileno(), 0, access=mmap.ACCESS_READ)
    try:
        stacks = []
        for offset, dtype, shape in layout:
            size = math.prod(shape)
            at = offset + (lo - base) * size * np.dtype(dtype).itemsize
            stacks.append(np.frombuffer(mapped, dtype, (hi - lo) * size, at)
                          .reshape(hi - lo, *shape))
        return _sweep_batch(StageStack(*stacks), lo, *rest)
    except BaseException as exc:
        # the frames of the error's traceback hold views of the mapping
        while exc is not None:
            traceback.clear_frames(exc.__traceback__)
            exc = exc.__cause__ or exc.__context__
        raise
    finally:
        stacks = None  # the last views of the mapping, which can then close
        mapped.close()


def _sweep(problem, splits, workers, constrained, terminal, tolerances, collect):
    """Sweep the segments ``[splits[j], splits[j+1])``, the first ``constrained``
    endpoint-constrained, each other ``j`` ending in ``terminal[:][j - constrained]``.

    Each worker gets a run of segments, this process the first, and sweeps
    it as one lockstep batch per kind of segment.  The pool's stages go
    through one file in :data:`SHARED_DIR`, removed once the results are
    in; if it cannot be created, this process sweeps every batch.  Returns
    the results stacked in segment and stage order, the batches' ``(first,
    last)`` segments, the processes used, the bytes shared and the
    ``publish``, ``local_sweep`` and ``wait`` spans in seconds.
    """
    J = len(splits) - 1
    runs = [(int(run[0]), int(run[-1]))
            for run in np.array_split(np.arange(J), min(workers, J))]
    batches = []
    for first, last in runs:
        for j in range(first, last + 1):
            if j in (first, constrained):
                batches.append([j, j])
            batches[-1][1] = j
    tasks = []
    for first, last in batches:
        lo, ends = splits[first], first < constrained
        tasks.append((lo, splits[last + 1], tuple(s - lo for s in splits[first:last + 2]),
                      problem.n if ends else 0,
                      None if ends else tuple(
                          a[first - constrained:last + 1 - constrained] for a in terminal),
                      tolerances, collect and ends))
    local = sum(last <= runs[0][1] for _, last in batches)
    stages, path, shared = problem.stages, None, 0
    tic = time.perf_counter()
    if local < len(tasks):
        base = tasks[local][0]
        path = os.path.join(SHARED_DIR, f"parlqr-{os.getpid()}-{next(_FILE_NUMBERS)}")
        try:
            layout, shared = _publish(stages[base:splits[-1]], path)
        except OSError:  # no shared directory or no room: sweep here
            path, local = None, len(tasks)
    timings = {"publish": time.perf_counter() - tic}
    try:
        results, used = _run_tasks(
            [(stages[lo:hi], lo, *rest) for lo, hi, *rest in tasks[:local]],
            [(path, (base, layout), *task) for task in tasks[local:]],
            min(workers, J), timings)
    finally:
        if path is not None:
            os.unlink(path)
    merged = {key: [r[key] for r in results if key in r] for key in set().union(*results)}
    return ({key: sum(v, ()) if isinstance(v[0], tuple) else np.concatenate(v)
             for key, v in merged.items()}, tuple(map(tuple, batches)), used, shared, timings)


# ---------------------------------------------------------------------------
# link system

def _solve_links(seg, x_init):
    """Link points and feasibility multipliers from one banded KKT solve.

    The reduced problem over the ``J-1`` interior links minimizes the summed
    segment cost-to-go subject to every segment's feasibility rows
    ``Hx a + Hz z + h1 = 0``.  Its stationarity rows in link ``k`` match the
    terminal-endpoint multiplier of segment ``k-1`` against the
    initial-state multiplier of segment ``k``; without feasibility rows they
    are the whole system.  The unknowns are ordered per link as
    ``[nu_{k-1}, l_k]``, where ``nu_j`` multiplies segment ``j``'s rows, so
    every block lies within ``2n + max_rows - 1`` of the diagonal and one
    LU factorization with partial pivoting restricted to the band (LAPACK
    ``dgbsv``) costs time and memory linear in ``J``.  Each entry gets its
    terms in the order of a segment-by-segment assembly.

    Returns ``(links, nus, residual, rcond)``: ``nus[j]`` holds segment
    ``j``'s row multipliers (empty for the last segment), ``residual`` is
    the infinity norm of the solved system's residual and ``rcond`` the
    reciprocal of the estimated 1-norm condition number.  Raises
    :class:`LinkSingular` when the factorization fails.
    """
    n = x_init.shape[0]
    feas = seg["feasibility"]
    rows = np.array([Hx.shape[0] for Hx, _, _ in feas], dtype=int)
    starts = np.concatenate([[0], np.cumsum(rows + n)])
    nu_at = starts[:-1]           # first unknown of nu_j
    link_at = nu_at + rows        # first unknown of l_{j+1}
    dim = int(starts[-1])
    bw = min(2 * n + int(rows.max()) - 1, dim - 1)
    # LAPACK band storage: A[i, j] at ab[2 bw + i - j, j]; dgbsv uses the
    # top bw rows for the fill-in of its row interchanges
    ab = np.zeros((3 * bw + 1, dim), order="F")
    b = np.zeros(dim)

    def add(i, j, block, mirror=True):
        # A[i[r], j[r] + c] += block[r, c], mirrored into A[j[r] + c, i[r]]
        jj = j[:, None] + np.arange(n)
        ii = np.broadcast_to(i[:, None], jj.shape)
        ab[2 * bw + ii - jj, jj] += block
        if mirror:
            ab[2 * bw + jj - ii, ii] += block

    # segment j's rows face its endpoint z = l_{j+1} and its start a = l_j
    nu_rows = np.arange(rows.sum()) + np.repeat(nu_at - np.cumsum(rows) + rows, rows)
    link_rows = (link_at[:, None] + np.arange(n)).ravel()
    Hx, Hz, h1 = (np.concatenate([f[i] for f in feas]) for i in range(3))
    add(link_rows, np.repeat(link_at, n), seg["Vzz"].reshape(-1, n), False)
    add(nu_rows, np.repeat(link_at, rows), Hz)
    add(link_rows[n:], np.repeat(link_at[:-1], n), seg["Vzx"][1:].reshape(-1, n))
    add(nu_rows[rows[0]:], np.repeat(link_at[:-1], rows[1:]), Hx[rows[0]:])
    add(link_rows, np.repeat(link_at, n), seg["Vxx"][1:].reshape(-1, n), False)
    b[link_rows] -= seg["vz1"].ravel()
    b[link_at[0]:link_at[0] + n] -= seg["Vzx"][0] @ x_init
    b[link_rows] -= seg["vx1"][1:].ravel()
    b[nu_rows] -= h1
    b[nu_at[0]:link_at[0]] -= feas[0][0] @ x_init

    lub, piv, x, info = scipy.linalg.lapack.dgbsv(bw, bw, ab, b[:, None])
    x = x[:, 0]
    if info or not np.isfinite(x).all():
        raise LinkSingular(f"link system is singular (dgbsv info {info})")
    residual = -b
    for d in range(-bw, bw + 1):  # diagonal i - j = d is row 2 bw + d
        lo, hi = max(0, -d), min(dim, dim - d)
        residual[lo + d:hi + d] += ab[2 * bw + d, lo:hi] * x[lo:hi]
    anorm = float(np.abs(ab).sum(axis=0).max())
    links = x[link_at[:, None] + np.arange(n)]
    nus = [x[nu_at[j]:link_at[j]] for j in range(len(link_at))] + [np.zeros(0)]
    return (links, nus, float(np.abs(residual).max()),
            1.0 / (anorm * _inverse_norm1(lub, piv, bw)))


def _inverse_norm1(lub, piv, bw):
    """Hager's lower estimate of ``||A^-1||_1`` from a banded LU factorization.

    The iteration of LAPACK's ``dlacn2``: a few solves with ``A`` and
    ``A'``, each linear in the order.  LAPACK's ``dgbcon`` runs the same
    iteration, but its scaled triangular solves rescan the whole solution at
    every column of a long band, which is quadratic in the order.
    """
    dim = lub.shape[1]

    def solve(v, trans):
        return scipy.linalg.lapack.dgbtrs(
            lub, bw, bw, v[:, None], piv, trans=trans)[0][:, 0]

    x = np.full(dim, 1.0 / dim)
    est = 0.0
    for _ in range(5):
        y = solve(x, 0)
        if np.abs(y).sum() <= est:
            break
        est = float(np.abs(y).sum())
        z = solve(np.where(y < 0, -1.0, 1.0), 1)
        j = int(np.abs(z).argmax())
        if abs(z[j]) <= z @ x:
            break
        x = np.zeros(dim)
        x[j] = 1.0
    return est


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
    link_rcond: float
    mu_left: np.ndarray
    lambda_right: np.ndarray
    link_mismatch: float
    segment_values0: tuple
    segment_feasibility: tuple
    feasibility_residuals: tuple
    degenerate: bool
    segment_diagnostics: tuple = None
    smooth_deviation: float = None
    workers: int = 1     # processes that swept the segments
    batches: tuple = ()  # (first, last) segments of each sweep task
    shared_bytes: int = 0  # stage data written to the pool's shared file
    timings: dict = None   # seconds in publish, local_sweep, wait, links, reconstruct


def _by_rows(feasibility):
    """Segments grouped by feasibility row count, with their rows stacked."""
    rows = np.array([Hx.shape[0] for Hx, _, _ in feasibility], dtype=int)
    for r in np.unique(rows[rows > 0]):
        at = np.flatnonzero(rows == r)
        yield at, *(np.stack([feasibility[j][i] for j in at]) for i in range(3))


def solve_parallel(problem, J, workers=None, tolerances=DEFAULT_TOLERANCES,
                   collect_diagnostics=False, partition=None):
    """Solve the global problem through ``J`` concurrent sub-problems.

    Equivalent to :func:`parlqr.serial.solve` up to solver tolerance for
    any valid partition; ``J=1`` delegates to it outright.  A custom
    :class:`Partition` overrides the balanced default (and ``J``).
    Results are bit-identical for any worker count.  Raises
    :class:`Infeasible` when a segment's feasibility rows reject every link
    value and :class:`LinkSingular` when the link system cannot be
    factorized.
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
    splits, terminal = partition.split_times, problem.terminal
    seg, batches, used, shared, timings = _sweep(
        problem, splits, workers, J - 1, (terminal.Qxx[None], terminal.qx1[None]),
        tolerances, collect_diagnostics)
    x_init, stages = problem.x_init, problem.stages
    n, m, T = problem.n, problem.m, problem.T

    tic = time.perf_counter()
    links, nus, link_residual, link_rcond = _solve_links(seg, x_init)
    timings["links"], tic = time.perf_counter() - tic, time.perf_counter()
    starts = np.concatenate([x_init[None], links])  # each segment's first state

    # per-segment feasibility at the solved links
    feas_residuals = np.zeros(J)
    failed = []
    for at, Hx, Hz, h1 in _by_rows(seg["feasibility"]):
        a, z = starts[at], links[at]
        feas_residuals[at] = np.abs(np.matvec(Hx, a) + np.matvec(Hz, z) + h1).max(axis=1)
        scale = 1.0 + np.abs(a).max(axis=1) + np.abs(z).max(axis=1)
        failed.extend(at[feas_residuals[at] > tolerances.feas_tol * scale * LINK_FEAS_SLACK])
    if failed:
        j = int(min(failed))
        raise Infeasible(feas_residuals[j], segment=j)

    # policy offsets with the endpoint folded in; the last segment has none
    z = np.repeat(links, np.diff(splits)[:-1], axis=0)  # each stage's endpoint
    folded = np.concatenate([np.matvec(seg["Kz"], z) + seg["k1"][:len(z)], seg["k1"][len(z):]])

    # the segments roll out in lockstep from their first states; a link
    # point, not a segment's own end state, is the next segment's start
    states = np.empty((T + 1, n))
    controls = np.empty((T, m))
    order, plan = ep.lockstep(splits, forward=True)
    x = starts[order]
    for B, rows in plan:
        xs, at = x[:B], stages[rows]
        states[rows] = xs
        us = np.matvec(seg["Kx"][rows], xs) + folded[rows]
        controls[rows] = us
        x[:B] = np.matvec(at.Fx, xs) + np.matvec(at.Fu, us) + at.f1
    states[T] = x[np.flatnonzero(order == J - 1)[0]]

    # each segment's multiplier at its end: minus its endpoint gradient,
    # corrected by its feasibility rows, or the terminal cost's gradient
    mu_left = -(np.matvec(seg["Vzx"], starts[:-1]) + np.matvec(seg["Vzz"], links) + seg["vz1"])
    for at, _, Hz, _ in _by_rows(seg["feasibility"]):
        mu_left[at] = mu_left[at] - np.matvec(Hz.mT, np.stack([nus[j] for j in at]))
    lambdas = np.empty((T + 1, n))
    lambdas[T] = -(terminal.Qxx @ states[T] + terminal.qx1)
    # interior multipliers follow the stationarity recursion backwards in
    # lockstep, seeded by each segment's own end multiplier
    order, plan = ep.lockstep(splits)
    lam = np.concatenate([-mu_left, lambdas[T][None]])[order]
    for B, rows in plan:
        at = stages[rows]
        lam[:B] = np.matvec(at.Fx.mT, lam[:B]) - (
            np.matvec(at.Qxx, states[rows]) + np.matvec(at.Qux.mT, controls[rows]) + at.qx1)
        lambdas[rows] = lam[:B]
    lambda_right = lam[np.argsort(order)][1:]

    mismatch = float(np.abs(mu_left + lambda_right).max())
    timings["reconstruct"] = time.perf_counter() - tic
    values0 = tuple(zip(*(seg[key] for key in ("Vxx", "Vzx", "Vzz", "vx1", "vz1"))))
    solution = LqrSolution(
        states=states,
        controls=controls,
        lambdas=lambdas,
        policies=tuple(_feedback_policies(seg["Kx"], folded)),
        objective=evaluate_objective(problem, states, controls),
        kkt_residual_inf=0.0,
        details=ParallelDetails(
            partition=partition,
            link_points=links,
            link_residual=link_residual,
            link_rcond=link_rcond,
            mu_left=mu_left,
            lambda_right=lambda_right,
            link_mismatch=mismatch,
            segment_values0=values0 + ((seg["Vxx"][-1], seg["vx1"][-1]),),
            segment_feasibility=seg["feasibility"] + (None,),
            feasibility_residuals=tuple(float(r) for r in feas_residuals),
            degenerate=any(nu.size for nu in nus),
            segment_diagnostics=seg["diagnostics"],
            workers=used,
            batches=batches,
            shared_bytes=shared,
            timings=timings,
        ),
    )
    return dataclasses.replace(
        solution, kkt_residual_inf=kkt_residual(problem, solution))


def smooth(problem, result, workers=None, tolerances=DEFAULT_TOLERANCES):
    """Second pass trading endpoint constraints for conditioned value costs.

    For each segment ahead of the last, the next segment's initial
    cost-to-go, conditioned on its now-known terminal link point, becomes
    the terminal cost of an unconstrained Riccati sweep over the segment;
    the sweeps run in lockstep, one batch per worker.  The re-computed
    policies drive the same optimal trajectory on the nominal dynamics but
    no longer steer at the link points under disturbances.  A ``J=1``
    result is returned unchanged.

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
    vf = details.segment_values0
    terminals = [TerminalCost(Vxx, vx1 + Vzx.T @ z)
                 for (Vxx, Vzx, _, vx1, _), z in zip(vf[1:-1], links[1:])]
    terminals.append(TerminalCost(*vf[-1]))
    splits = partition.split_times[:-1]
    seg, *_ = _sweep(problem, splits, workers, 0,
                     (np.stack([t.Qxx for t in terminals]),
                      np.stack([t.qx1 for t in terminals])), tolerances, False)
    policies = list(result.policies)
    policies[:splits[-1]] = _feedback_policies(seg["Kx"], seg["k1"])
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
