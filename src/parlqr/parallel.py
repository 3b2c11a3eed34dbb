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

The solve runs in three phases, and each process owns a contiguous run of
segments through all of them: the calling process the first run, each
worker slot of the pool (a single-process pool per slot, so that a task
reaches the process it names) one more.  In phase 1 each process sweeps
its run as one lockstep batch per kind of segment
(:func:`parlqr.endpoint.sweep_segments`), keeps the gains and returns only
the link blocks: each segment's initial cost-to-go, feasibility rows and
diagnostics.  Phase 2 is the link solve in the calling process.  In phase
3 each process gets its segments' first states, link points and end
multipliers, rolls its run out and runs the costate recursion in lockstep,
folds ``Kz z`` into ``k1``, checks the KKT rows of its stages and computes
their cost terms; the calling process finishes the rows that need a
multiplier from the next run and the terminal and initial rows, and sums
the cost terms.  A segment's bits do
not depend on its run or the worker count.

The pool's stage data travels through one file per solve in a
memory-backed directory (:data:`SHARED_DIR`): the calling process writes
the pool's stages there, each phase-1 task names only the file, its byte
layout and the run's stage range, and the worker maps the file.  Behind
the stages the file holds a record stack, one row of state, control,
multiplier, ``k1``, cost terms and ``Kx`` per stage, which each worker fills for its
run (``Kx`` in phase 1, the rest in phase 3) and the calling process reads
after phase 3.  The file's name is removed once phase 1 is done; the
mappings keep its data until phase 3 is.  Where it cannot be created, the
calling process owns every run.
"""

from __future__ import annotations

import atexit
import concurrent.futures
import contextlib
import ctypes
import dataclasses
import functools
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
    boundary_residuals,
    evaluate_objective,
    kkt_residual,
    objective_from_stage_costs,
    rollout,
    stage_costs,
    stage_residuals,
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

# One single-process pool per worker slot, so that a run's phase 3 goes to
# the process that swept it
_POOLS = {}

# The run of segments each worker slot served by this process keeps from
# its sweep to its phase 3: ``slot -> (path, stages, gains, record)``,
# replaced by the slot's next run when a solve fails in between
_OWNED = {}

# Directory of the per-solve stage files (a memory-backed filesystem) and
# the counter that names them within this process
SHARED_DIR = "/dev/shm"
_FILE_NUMBERS = itertools.count()


def _get_pool(slot):
    pool = _POOLS.get(slot)
    if pool is None:
        ctx = multiprocessing.get_context("fork")
        pool = _POOLS[slot] = concurrent.futures.ProcessPoolExecutor(
            max_workers=1, mp_context=ctx)
    return pool


def shutdown_pools():
    """Shut down any process pools created by :func:`solve_parallel`."""
    while _POOLS:
        _, pool = _POOLS.popitem()
        pool.shutdown(wait=False, cancel_futures=True)


atexit.register(shutdown_pools)


def _publish(stages, path, width=0):
    """Write ``stages`` to a new file at ``path``, one stack after another at
    64-byte aligned offsets, and, with a ``width``, leave room after them
    for a record stack of that many floats per stage, one row more than
    ``stages``, from a page boundary on.  Return each stack's ``(offset,
    dtype, row shape)``, the stages' in :attr:`StageStack.FIELDS` order and
    then the record's, the stage bytes written and a read-only view of the
    record stack (None without one).

    The stages go out through ``os.pwrite``, so this process maps the
    record stack alone.  The file is removed again if writing fails.
    """
    fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o600)
    layout, end, record = [], 0, None
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
        if width:
            page = mmap.ALLOCATIONGRANULARITY
            offset = -(-end // page) * page
            layout.append((offset, np.dtype(float).str, (width,)))
            size = (len(stages) + 1) * width * np.dtype(float).itemsize
            os.posix_fallocate(fd, offset, size)  # no room shows here, not in a worker
            record = np.frombuffer(mmap.mmap(fd, size, access=mmap.ACCESS_READ, offset=offset))
    except BaseException:
        os.unlink(path)
        raise
    finally:
        os.close(fd)
    shared = sum(getattr(stages, f).nbytes for f in StageStack.FIELDS)
    return tuple(layout), shared, None if record is None else record.reshape(-1, width)


def _record_width(n, m):
    """Floats per stage of a phase-3 record: state, control, multiplier,
    ``k1``, state and control cost terms and ``Kx``."""
    return 3 * (n + m) + m * n


def _record_columns(record, stages):
    """Views of a record stack's states, controls, multipliers, ``k1``, cost
    terms and ``Kx`` for the dimensions of ``stages``."""
    n, m = stages.Qxx.shape[1], stages.Quu.shape[1]
    bounds = np.cumsum([0, n, m, n, m, n, m, m * n])
    *columns, Kx = (record[:, a:b] for a, b in zip(bounds[:-1], bounds[1:]))
    return *columns, Kx.reshape(len(record), m, n)


def _run_tasks(local, remote):
    """Results of the ``local`` calls ``(function, args)``, made here, then of
    the ``remote`` ones, ``(function, task)``, the ``i``-th in worker slot
    ``i``; with the seconds spent on the local calls and waiting for the rest.

    Raises :class:`WorkerFailure` when a pool process dies; every pool is
    then dropped, with the runs its processes keep, so the next solve
    starts new ones.
    """
    futures = []
    try:
        futures = [_get_pool(slot).submit(fn, task) for slot, (fn, task) in enumerate(remote)]
        tic = time.perf_counter()
        results = [fn(*args) for fn, args in local]
        mid = time.perf_counter()
        results += [f.result() for f in futures]
    except concurrent.futures.BrokenExecutor as exc:
        shutdown_pools()
        raise WorkerFailure(f"a worker process ended abruptly: {exc}") from exc
    finally:
        for f in futures:
            f.cancel()
    return results, mid - tic, time.perf_counter() - mid


def _merge(results):
    """Dicts of per-segment or per-stage results, stacked key by key."""
    merged = {key: [r[key] for r in results if key in r] for key in set().union(*results)}
    return {key: sum(v, ()) if isinstance(v[0], tuple) else np.concatenate(v)
            for key, v in merged.items()}


def _sweep_run(stages, lo, batches):
    """Lockstep sweep of one run of segments, one batch per kind of segment.

    ``stages`` holds the run's stages, the first of them stage ``lo`` of
    the horizon.  Each batch is ``(splits, k, terminal, tolerances,
    collect)``, its segment bounds counted from the run's first stage;
    ``terminal`` is None for endpoint segments (``k = n``), whose terminal
    cost is zero.  Returns the link blocks (each segment's initial
    cost-to-go and diagnostics and, where endpoint-constrained, its rows)
    and the gains ``Kx``, ``k1`` and, over the endpoint segments, ``Kz``,
    stacked in stage order.
    """
    n = stages.Qxx.shape[1]
    blocks, gains = [], []
    for splits, k, terminal, tolerances, collect in batches:
        first = splits[0]
        if terminal is None:
            terminal = np.zeros((len(splits) - 1, n, n)), np.zeros((len(splits) - 1, n))
        local = tuple(s - first for s in splits)
        try:
            order, diagnostics, steps = ep.sweep_segments(
                stages[first:splits[-1]], local, *terminal, k, tolerances, collect)
        except CholeskyFailure as exc:
            # report the stage on the global horizon, not within the batch
            raise CholeskyFailure(lo + first + exc.stage) from exc
        g, (Vxx, Vzx, Vzz, vx1, vz1), feasibility = ep.segment_ends(local, order, steps)
        blocks.append({"Vxx": Vxx, "vx1": vx1, "diagnostics": tuple(diagnostics)})
        gains.append({"Kx": g[:, :, :n], "k1": g[:, :, -1]})
        if k:
            blocks[-1].update(Vzx=Vzx, Vzz=Vzz, vz1=vz1,
                              feasibility=tuple((c.Hx, c.Hz, c.h1) for c in feasibility))
            gains[-1]["Kz"] = g[:, :, n:-1]
    return _merge(blocks), _merge(gains)


def _sweep_shared(task):
    """:func:`_sweep_run` over stages read from a :func:`_publish` file.

    ``task`` is ``(path, (base, layout), lo, hi, batches, slot)``: the file
    holds stages ``base, base + 1, ...`` and the run is stages ``[lo, hi)``,
    whose stacks are views into the mapped file.  Without a ``slot`` this
    returns the link blocks and the gains, and the mapping goes with the
    views.  With one, the file is mapped writable and has a record stack:
    this process writes its rows' ``Kx`` there, keeps the stage views, the
    gains and its record rows for the run's :func:`_finish_shared` and
    returns the link blocks alone.
    """
    path, (base, layout), lo, hi, batches, slot = task
    with open(path, "rb" if slot is None else "r+b") as file:
        mapped = mmap.mmap(file.fileno(), 0, access=(
            mmap.ACCESS_READ if slot is None else mmap.ACCESS_WRITE))
    fields, stacks = len(StageStack.FIELDS), []
    for i, (offset, dtype, shape) in enumerate(layout):
        rows = hi - lo + (i == fields)  # a record has the run's end point too
        size = math.prod(shape)
        at = offset + (lo - base) * size * np.dtype(dtype).itemsize
        stacks.append(np.frombuffer(mapped, dtype, rows * size, at).reshape(rows, *shape))
    del mapped
    stages = StageStack(*stacks[:fields])
    try:
        blocks, gains = _sweep_run(stages, lo, batches)
    except BaseException as exc:
        # the frames of the error's traceback hold views of the mapping
        while exc is not None:
            traceback.clear_frames(exc.__traceback__)
            exc = exc.__cause__ or exc.__context__
        raise
    if slot is None:
        return blocks, gains
    record = stacks[-1]
    _record_columns(record, stages)[-1][:hi - lo] = gains["Kx"]
    _OWNED[slot] = path, stages, gains, record
    return blocks, None


def _finish_shared(task):
    """:func:`_reconstruct` of the run this process keeps for a worker slot,
    written to its record rows; returns the run's largest KKT row entry.

    ``task`` is ``(slot, path, *rest)``: ``path`` names the solve's stage
    file, so a run kept for another solve is never taken for this one.
    """
    slot, path, *rest = task
    kept, stages, gains, record = _OWNED.pop(slot, (None,) * 4)
    if kept != path:
        raise WorkerFailure(f"worker slot {slot} no longer holds its segments")
    *parts, residual = _reconstruct(stages, gains, *rest)
    for column, part in zip(_record_columns(record, stages), parts):
        column[:len(part)] = part
    return residual


def _sweep(problem, splits, workers, constrained, terminal, tolerances, collect,
           keep=False):
    """Sweep the segments ``[splits[j], splits[j+1])``, the first ``constrained``
    endpoint-constrained, each other ``j`` ending in ``terminal[:][j - constrained]``.

    Each process gets a run of segments, this process the first and each
    worker slot one more, and sweeps it as one lockstep batch per kind of
    segment.  The pool's stages go through one file in :data:`SHARED_DIR`,
    removed once the sweeps are done; if it cannot be created, this process
    sweeps every run.  Returns the link blocks stacked in segment order
    (with ``keep`` alone; else the gains too, stacked in stage order), the
    batches' ``(first, last)`` segments, the processes used, the bytes
    shared, the ``publish``, ``local_sweep`` and ``wait`` spans in seconds
    and, with ``keep``, what :func:`_reconstruct_runs` needs: per run its
    ``(first, last)`` segments and its stages and gains where kept here
    (else None), the file's path, the pool's first stage and the record
    stack.
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
    for first, last in runs:
        lo = splits[first]
        tasks.append((lo, splits[last + 1], tuple(
            (tuple(s - lo for s in splits[a:b + 2]),
             problem.n if a < constrained else 0,
             None if a < constrained else tuple(
                 x[a - constrained:b + 1 - constrained] for x in terminal),
             tolerances, collect and a < constrained)
            for a, b in batches if first <= a <= last)))
    stages, path, shared, local, base, record = problem.stages, None, 0, 1, None, None
    tic = time.perf_counter()
    if len(tasks) > 1:
        base = tasks[1][0]
        path = os.path.join(SHARED_DIR, f"parlqr-{os.getpid()}-{next(_FILE_NUMBERS)}")
        try:
            layout, shared, record = _publish(
                stages[base:splits[-1]], path, _record_width(problem.n, problem.m) if keep else 0)
        except OSError:  # no shared directory or no room: sweep here
            path, local = None, len(tasks)
    timings = {"publish": time.perf_counter() - tic}
    try:
        results, timings["local_sweep"], timings["wait"] = _run_tasks(
            [(_sweep_run, (stages[lo:hi], lo, batch)) for lo, hi, batch in tasks[:local]],
            [(_sweep_shared, (path, (base, layout), *task, slot if keep else None))
             for slot, task in enumerate(tasks[local:])])
    finally:
        if path is not None:
            os.unlink(path)
    seg, held = _merge([blocks for blocks, _ in results]), None
    if keep:
        held = [(run, None if gains is None else (stages[lo:hi], gains))
                for run, (lo, hi, _), (_, gains) in zip(runs, tasks, results)], path, base, record
    else:
        seg.update(_merge([gains for _, gains in results]))
    return (seg, tuple(map(tuple, batches)), len(tasks) if local < len(tasks) else 1,
            shared, timings, held)


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

    # more than 64 bands take LAPACK's blocked dgbtrf, whose dgemm updates
    # OpenBLAS spreads over its threads; the idle one then spins for about
    # 0.1 s, taking a core from phase 3, where one thread gets the same bits
    with _one_lapack_thread() if bw > 64 else contextlib.nullcontext():
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


@functools.cache
def _lapack_thread_setter():
    """``openblas_set_num_threads_local`` of the OpenBLAS behind SciPy's
    LAPACK (the symbol lookup searches ``_flapack``'s libraries), or None
    where that LAPACK is not an OpenBLAS."""
    try:
        setter = ctypes.CDLL(scipy.linalg._flapack.__file__).openblas_set_num_threads_local
    except (OSError, AttributeError):
        return None
    setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
    return setter


@contextlib.contextmanager
def _one_lapack_thread():
    """Run SciPy's LAPACK calls of the block on one thread.

    Setting the count wakes that OpenBLAS's idle threads too, and they spin
    for a while, so this only pays around a call that would wake them anyway.
    """
    setter = _lapack_thread_setter()
    previous = None if setter is None else setter(1)
    try:
        yield
    finally:
        if setter is not None:
            setter(previous)


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

def _reconstruct(stages, gains, splits, starts, links, seeds, terminal):
    """Phase 3 of one run of segments, given its link points.

    ``stages`` and ``gains`` are a :func:`_sweep_run`'s stages and gains,
    ``splits`` its segment bounds from its first stage, ``starts`` each
    segment's first state and ``links`` and ``seeds`` each endpoint
    segment's end point and multiplier there; ``terminal`` is the terminal
    cost's ``(Qxx, qx1)`` where the run ends the horizon, else None.  The
    segments roll out in lockstep, a link point and not a segment's own end
    state starting the next one, and then run the stationarity recursion
    back from their end multipliers.

    Returns the run's states, controls and multipliers, with the horizon's
    final row where the run ends it, ``k1`` with ``Kz z`` folded in, its
    stages' cost terms (:func:`parlqr.problem.stage_costs`) and the largest
    absolute KKT row entry of its stages but, where the run does not end
    the horizon, its last, whose rows need the next run's first multiplier.
    A segment's bits do not depend on its run.
    """
    n, m, L = stages.Qxx.shape[1], stages.Quu.shape[1], splits[-1]
    Kx, k1 = gains["Kx"], gains["k1"]
    Fx, Fu, f1, Qxx, Qux, qx1 = (stages.Fx, stages.Fu, stages.f1,
                                 stages.Qxx, stages.Qux, stages.qx1)
    if len(links):  # the horizon's last segment has no endpoint to fold in
        z = np.repeat(links, np.diff(splits)[:len(links)], axis=0)
        k1 = np.concatenate([np.matvec(gains["Kz"], z) + k1[:len(z)], k1[len(z):]])
    end = L + (terminal is not None)
    states, controls, lambdas = np.empty((end, n)), np.empty((L, m)), np.empty((end, n))
    order, plan = ep.lockstep(splits, forward=True)
    x = starts[order]
    for B, rows in plan:
        xs = x[:B]
        states[rows] = xs
        us = np.matvec(Kx[rows], xs) + k1[rows]
        controls[rows] = us
        x[:B] = np.matvec(Fx[rows], xs) + np.matvec(Fu[rows], us) + f1[rows]
    if terminal is not None:
        states[L] = x[np.flatnonzero(order == len(order) - 1)[0]]
        lambdas[L] = -(terminal[0] @ states[L] + terminal[1])
        seeds = np.concatenate([seeds, lambdas[L][None]])
    order, plan = ep.lockstep(splits)
    lam = seeds[order]
    for B, rows in plan:
        lam[:B] = np.matvec(Fx[rows].mT, lam[:B]) - (
            np.matvec(Qxx[rows], states[rows]) + np.matvec(Qux[rows].mT, controls[rows])
            + qx1[rows])
        lambdas[rows] = lam[:B]
    done = end - 1
    rows = stage_residuals(stages[:done], states[:done], states[1:done + 1], controls[:done],
                           lambdas[:done], lambdas[1:done + 1])
    return (states, controls, lambdas, k1, *stage_costs(stages, states[:L], controls),
            float(np.abs(rows).max(initial=0.0)))


def _reconstruct_runs(problem, splits, held, starts, links, seeds):
    """:func:`_reconstruct` of each run a :func:`_sweep` with ``keep`` held,
    in the process that swept it, the pool's runs into the record stack.
    Returns the states, controls, multipliers, ``Kx``, folded ``k1`` and
    cost terms stacked over the horizon and the largest of the runs' KKT
    row entries.
    """
    runs, path, base, record = held
    J, T = len(splits) - 1, problem.T
    terminal = problem.terminal.Qxx, problem.terminal.qx1
    local, remote, Kx = [], [], []
    for (first, last), kept in runs:
        lo = splits[first]
        args = (tuple(s - lo for s in splits[first:last + 2]), starts[first:last + 1],
                links[first:last + 1], seeds[first:last + 1],
                terminal if last == J - 1 else None)
        if kept is None:
            remote.append((_finish_shared, (len(remote), path, *args)))
        else:
            local.append((_reconstruct, (*kept, *args)))
            Kx.append(kept[1]["Kx"])
    results, _, _ = _run_tasks(local, remote)
    parts = [r[:-1] for r in results[:len(local)]]
    residuals = [r[-1] for r in results[:len(local)]] + results[len(local):]
    if remote:  # the pool's rows, from the file
        *columns, pool_Kx = _record_columns(record, problem.stages)
        parts.append([c[:T + 1 - base] for c in columns])
        Kx.append(pool_Kx[:T - base])
    states, controls, lambdas, *per_stage = (np.concatenate(part) for part in zip(*parts))
    return (states, controls[:T], lambdas, np.concatenate(Kx), *(a[:T] for a in per_stage),
            float(np.max(residuals)))


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
    timings: dict = None   # seconds in publish, local_sweep, wait, links, reconstruct, residual


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
    seg, batches, used, shared, timings, held = _sweep(
        problem, splits, workers, J - 1, (terminal.Qxx[None], terminal.qx1[None]),
        tolerances, collect_diagnostics, keep=True)
    x_init, stages = problem.x_init, problem.stages

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

    # each segment's multiplier at its end: minus its endpoint gradient,
    # corrected by its feasibility rows
    mu_left = -(np.matvec(seg["Vzx"], starts[:-1]) + np.matvec(seg["Vzz"], links) + seg["vz1"])
    for at, _, Hz, _ in _by_rows(seg["feasibility"]):
        mu_left[at] = mu_left[at] - np.matvec(Hz.mT, np.stack([nus[j] for j in at]))
    states, controls, lambdas, Kx, k1, x_costs, u_costs, residual = _reconstruct_runs(
        problem, splits, held, starts, links, -mu_left)
    lambda_right = lambdas[list(splits[1:-1])]  # each segment's first multiplier
    mismatch = float(np.abs(mu_left + lambda_right).max())
    timings["reconstruct"], tic = time.perf_counter() - tic, time.perf_counter()

    # the rows the runs left, of each last stage before another run's, and
    # the terminal and initial rows
    t = np.array([splits[last + 1] - 1 for (_, last), _ in held[0][:-1]], dtype=int)
    rows = stage_residuals(stages[t], states[t], states[t + 1], controls[t],
                           lambdas[t], lambdas[t + 1])
    residual = float(np.max([residual, np.abs(rows).max(initial=0.0)] + [
        np.abs(r).max() for r in boundary_residuals(problem, states, lambdas)]))
    objective = objective_from_stage_costs(problem, x_costs, u_costs, states[-1])
    timings["residual"] = time.perf_counter() - tic
    values0 = tuple(zip(*(seg[key] for key in ("Vxx", "Vzx", "Vzz", "vx1", "vz1"))))
    return LqrSolution(
        states=states,
        controls=controls,
        lambdas=lambdas,
        policies=tuple(_feedback_policies(Kx, k1)),
        objective=objective,
        kkt_residual_inf=residual,
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
