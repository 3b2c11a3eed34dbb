"""Horizon-partitioned solver: concurrent sub-problem sweeps plus link solve.

The horizon is split into ``J`` segments.  Every segment except the last is
an endpoint-constrained problem with zero terminal cost whose boundary
states are unknown link points; the last segment keeps the terminal cost
and is solved by the plain Riccati sweep with a symbolic start state.  Each
segment is solved independently, producing its solution as affine maps of
its two boundary states.  The link points solve the reduced problem over
the links: minimize the summed segment cost-to-go subject to each segment's
feasibility rows, which are empty unless the segment cannot reach arbitrary
endpoints (segment length times control dimension below the state
dimension).  Its stationarity rows match the terminal-endpoint multiplier
of each segment against the initial-state multiplier of its right
neighbour.  Interleaving each link
with the multipliers of the rows that end at it makes the KKT system
banded, so one banded LU solve serves every partition at a cost linear in
``J``; substituting its solution back into the segment maps reconstructs
the global trajectory, multipliers and per-stage feedback policies.

Boundary multipliers are minus the segment value-function gradients, the
same maps :func:`parlqr.endpoint.multiplier_pass` gives for the first
state and the endpoint of a segment, corrected by the feasibility-row
multipliers; interior multipliers then follow the stationarity recursion
within each segment.

The solve runs in three phases over contiguous runs of segments: the
calling process takes the first run, each worker slot of the pool (a
single-process pool per slot) one more.  Unless the caller or
:data:`WORKERS_ENV_VAR` names a worker count, :func:`sized_workers` picks
one process, which takes every run, or ``min(J, cores)`` from the size of
the problem (:data:`MIN_RUN_ALGEBRA`).  Phases 1 and 3 are functions of a
run's stages and its record, the run's gains and results, one stack per
field, so no process keeps anything between phases.  In phase 1 each
process sweeps its run, the horizon's last segment included, as one lockstep
batch (:func:`parlqr.endpoint.sweep_segments`), writes the gains to the
record and returns only the link blocks: each segment's initial cost-to-go,
feasibility rows and diagnostics.  Phase 2 is the link solve in the
calling process.  In phase 3 each run gets its segments' first states,
link points and end multipliers, reads its gains, folds ``Kz z`` into
``k1``, rolls out with the package's one forward recursion
(:func:`parlqr.problem.propagate`) and runs the costate recursion, both in
lockstep, checks the KKT rows of its stages, computes their cost terms and
writes it all to the record; the calling process then finishes the rows
that need a multiplier from the next run and the terminal and initial
rows, and sums the cost terms.  A segment's bits do not depend on its run
or the worker count.

Each solve keeps every run's record in one buffer: one stack per record
field over the whole horizon, a run's record being its rows, followed by
room for the stage stacks.  With a pool the buffer is the calling process's
one memory file, which has no name and which every pool process inherits:
it is made before the first pool forks and closed with the pools.  A solve
grows it where it needs room, writes the pool's stages into it and holds it
under a lock for phase 1, a context that lasts through phase 3; a task
names the dimensions and its run's stages, from which both sides derive the
byte layout.  A solve writes every record row it reads, so no solve sees
another's.  Without a pool, or where the file cannot be made, the buffer is
anonymous memory and the calling process takes every run.
"""

from __future__ import annotations

import atexit
import concurrent.futures
import contextlib
import ctypes
import dataclasses
import functools
import math
import mmap
import multiprocessing
import os
import threading
import time

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
    lockstep,
    objective_from_stage_costs,
    propagate,
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


# A run's stage algebra, its stages times n^2 (n + m), from which a process
# per run pays.  A process sweeps its run in lockstep, so more processes split
# each step's batch, not the steps; each one more adds a fixed cost per solve
# (the shared file, its round trips, the rows the calling process finishes).
# Measured in-process on a 2-core host (seed 7, J=8, default BLAS, 12-24
# alternating pairs of workers=1 and workers=2 per shape, ranges over 2-4
# runs), the two-process median time over the one-process one is about 1
# where T n^2 (n + m) is about 5e6, whatever n: (n, m, T) = (4, 1, 65536)
# 0.94, (8, 2, 8192) 0.99, (12, 3, 2048) 1.03, (40, 10, 64) 0.95-1.34,
# (16, 4, 1024) 0.84-1.11.  Below it one process wins, (4, 2, 1024)
# 1.30-1.75 and (8, 2, 2048) 1.06-1.20; above it two do, (24, 6, 2048)
# 0.79-0.88 and (40, 10, 2048) 0.72-0.83.  The constant, 4e6 in all for
# two processes, sits in that band of parity, where either count costs
# about the same.  Only p=2 on 2 cores was measured.  The threshold's
# growth with p, p times the constant, is an unmeasured model (p processes
# save about 1 - 1/p of the stage work for about p - 1 fixed costs), so on
# more cores the rule may pick the slower count either way.
MIN_RUN_ALGEBRA = 2e6


def sized_workers(n, m, T, J, cores):
    """The default worker count of ``J`` segments over ``T`` stages with
    ``n`` states and ``m`` controls on ``cores`` cores: ``min(J, cores)``
    where each process's run carries at least :data:`MIN_RUN_ALGEBRA` of
    stage algebra, else 1."""
    workers = max(1, min(J, cores))
    return workers if T * n * n * (n + m) >= workers * MIN_RUN_ALGEBRA else 1


def _worker_count(workers, J, shape=None):
    """The worker count and why: ``"explicit"`` for a given ``workers``,
    ``"environment"`` where :data:`WORKERS_ENV_VAR` is set, else ``"rule"``:
    :func:`sized_workers` of the problem's ``shape`` ``(n, m, T)`` or,
    without one, ``min(J, cores)``.

    Raises :class:`WorkerConfigError` when the environment variable is set
    to something other than a positive integer.
    """
    if workers is not None:
        return max(1, workers), "explicit"
    env = os.environ.get(WORKERS_ENV_VAR)
    if env:
        try:
            count = int(env)
        except ValueError:
            count = 0
        if count < 1:
            raise WorkerConfigError(
                f"{WORKERS_ENV_VAR} must be a positive integer, got {env!r}")
        return count, "environment"
    cores = os.cpu_count() or 1
    if shape is None:
        return max(1, min(J, cores)), "rule"
    return sized_workers(*shape, J, cores), "rule"


def default_workers(J):
    """Worker-count default for ``J`` segments of a problem of any size:
    :data:`WORKERS_ENV_VAR` where set, else min(J, cores).  The solvers'
    default also weighs the problem's size (:func:`sized_workers`).

    Raises :class:`WorkerConfigError` when the environment variable is set
    to something other than a positive integer.
    """
    return _worker_count(None, J)[0]


# ---------------------------------------------------------------------------
# worker pool

# One single-process pool per worker slot, so that each run of segments
# meets one process per phase
_POOLS = {}

# The descriptor of the memory file that pooled solves share with the pool
# processes, which inherit it (None until the first), and the lock that
# gives it to one solve at a time
_ARENA = None
_ARENA_LOCK = threading.Lock()

# The fields of a run's record, one stack each: the gains phase 1 writes
# (``Kz`` read only over the endpoint segments) and what phase 3 writes, ``k1``
# again with ``Kz z`` folded in; states and multipliers have one row more,
# the horizon's end where the run ends it
RECORD = ("Kx", "k1", "Kz", "states", "controls", "lambdas", "x_costs", "u_costs")


def _get_pool(slot):
    pool = _POOLS.get(slot)
    if pool is None:
        ctx = multiprocessing.get_context("fork")
        pool = _POOLS[slot] = concurrent.futures.ProcessPoolExecutor(
            max_workers=1, mp_context=ctx)
    return pool


def shutdown_pools():
    """Shut down any process pools created by :func:`solve_parallel` and
    close the memory file they share."""
    global _ARENA
    while _POOLS:
        _, pool = _POOLS.popitem()
        pool.shutdown(wait=False, cancel_futures=True)
    if _ARENA is not None:
        os.close(_ARENA)
        _ARENA = None


atexit.register(shutdown_pools)


def _arena():
    """This process's memory file, made where there is none; no pool
    process may be running then, as it would lack the descriptor.  Raises
    :class:`OSError` where the file cannot be made."""
    global _ARENA
    if _ARENA is None:
        if not hasattr(os, "memfd_create"):
            raise OSError("no memory files on this system")
        _ARENA = os.memfd_create("parlqr")
    return _ARENA


def _extent(name, lo, hi):
    """The rows ``[first, end)`` of stage or record field ``name`` that the
    run over stages ``[lo, hi)`` has."""
    return lo, hi + (name in ("states", "lambdas"))


def _layout(n, m, k, end):
    """Byte offset and shape of each stack of a solve's buffer over its
    stages ``[0, end)``, 64-byte aligned: the :data:`RECORD` of one run over
    all of them, ``Kz`` ``k`` columns wide, then the stage fields in
    :attr:`StageStack.FIELDS` order; and the buffer's size.  Both sides of a
    shared file derive it from the dimensions, so a task names none of its
    offsets."""
    shapes = {"Qxx": (n, n), "Qux": (m, n), "Quu": (m, m), "qx1": (n,), "qu1": (m,),
              "Fx": (n, n), "Fu": (n, m), "f1": (n,), "asymmetry": (),
              "Kx": (m, n), "k1": (m,), "Kz": (m, k), "states": (n,), "controls": (m,),
              "lambdas": (n,), "x_costs": (n,), "u_costs": (m,)}
    layout, size = {}, 0
    for name in RECORD + StageStack.FIELDS:
        first, last = _extent(name, 0, end)
        layout[name] = size, (last - first, *shapes[name])
        size += -(-math.prod(layout[name][1]) // 8) * 64
    return layout, size


def _views(buffer, layout, names, lo, hi):
    """Views of the stacks ``names`` of a :func:`_layout` buffer,
    each over the rows the run over its stages ``[lo, hi)`` has."""
    views = {}
    for name in names:
        offset, shape = layout[name]
        stack = np.frombuffer(buffer, float, math.prod(shape), offset).reshape(shape)
        views[name] = stack[slice(*_extent(name, lo, hi))]
    return views


def _publish(stages, lo, fd, layout, size):
    """Write ``stages``, the horizon's from stage ``lo`` on, at their
    :func:`_layout` rows of the memory file ``fd``, grown to ``size`` bytes
    where it is smaller, and reserve the record part.  Returns the stage
    bytes written and a read-write mapping of the file's first ``size``
    bytes.

    The stages go out through ``os.pwrite``, so this process only ever
    touches the record's pages; no run reads the stage rows before ``lo``.
    """
    if os.fstat(fd).st_size < size:
        os.ftruncate(fd, size)
    for field in StageStack.FIELDS:
        data = memoryview(np.ascontiguousarray(getattr(stages, field), float)).cast("B")
        offset, shape = layout[field]
        at = offset + lo * 8 * math.prod(shape[1:])
        while data:
            written = os.pwrite(fd, data, at)
            data, at = data[written:], at + written
    # no room shows here, not in a worker; the stages start where the record ends
    os.posix_fallocate(fd, 0, layout[StageStack.FIELDS[0]][0])
    return sum(getattr(stages, f).nbytes for f in StageStack.FIELDS), mmap.mmap(fd, size)


def _run_tasks(local, remote):
    """Results of the ``local`` calls ``(function, args)``, made here, then of
    the ``remote`` ones, ``(function, task)``, the ``i``-th in worker slot
    ``i``; with the seconds spent on the local calls and waiting for the rest.

    Raises :class:`WorkerFailure` when a pool process dies; every pool is
    then dropped, so the next solve starts new ones.
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
    """The runs' dicts of per-segment results, stacked key by key."""
    merged = {key: [r[key] for r in results if key in r] for key in set().union(*results)}
    return {key: sum(v, ()) if isinstance(v[0], tuple) else np.concatenate(v)
            for key, v in merged.items()}


def _sweep_run(stages, record, lo, splits, terminal, tolerances, collect):
    """Phase 1 of one run of segments: one lockstep sweep over all of them.

    ``stages`` holds the run's stages, the first of them stage ``lo`` of
    the horizon, and ``splits`` its segment bounds on the horizon.  The
    run's endpoint segments come first, with zero terminal costs; the
    others end in ``terminal``, stacked ``(Qxx, qx1)``.  Writes the gains
    ``Kx``, ``k1`` and, where the run has endpoint segments, ``Kz`` into
    the run's ``record`` and returns the link blocks: each segment's initial
    cost-to-go, diagnostics where endpoint-constrained and collected (else
    None) and, where endpoint-constrained, its rows.
    """
    n, J = stages.Qxx.shape[1], len(splits) - 1
    c = J - len(terminal[0])  # the endpoint segments
    Qxx_T, qx1_T = (np.concatenate([np.zeros((c, *x.shape[1:])), x]) for x in terminal)
    local = tuple(s - lo for s in splits)
    try:
        order, diagnostics, steps = ep.sweep_segments(
            stages, local, Qxx_T, qx1_T, c, tolerances, collect)
    except CholeskyFailure as exc:
        # report the stage on the global horizon, not within the run
        raise CholeskyFailure(lo + exc.stage) from exc
    g, (Vxx, Vzx, Vzz, vx1, vz1), feasibility = ep.segment_ends(local, order, steps)
    record["Kx"][:], record["k1"][:] = g[:, :, :n], g[:, :, -1]
    blocks = {"Vxx": Vxx, "vx1": vx1,
              "diagnostics": tuple(diagnostics[:c]) + (None,) * (J - c)}
    if c:
        record["Kz"][:] = g[:, :, n:-1]
        blocks.update(Vzx=Vzx[:c], Vzz=Vzz[:c], vz1=vz1[:c],
                      feasibility=tuple((f.Hx, f.Hz, f.h1) for f in feasibility[:c]))
    return blocks


def _on_shared(fn, task):
    """``fn(stages, record, lo, *args)`` of a pool run, over its views in
    the memory file this process inherited (:func:`_publish`).

    ``task`` is ``((n, m, k, end), lo, hi, *args)``: the file is laid out
    over stages ``[0, end)`` with ``Kz`` ``k`` columns wide, and this run is
    stages ``[lo, hi)``.
    """
    (n, m, k, end), lo, hi, *args = task
    layout, size = _layout(n, m, k, end)
    record = _views(mmap.mmap(_ARENA, size), layout, StageStack.FIELDS + RECORD, lo, hi)
    stages = StageStack(*(record.pop(field) for field in StageStack.FIELDS))
    return fn(stages, record, lo, *args)


def _sweep_shared(task):
    """:func:`_sweep_run` of a pool run (:func:`_on_shared`)."""
    return _on_shared(_sweep_run, task)


def _finish_shared(task):
    """:func:`_reconstruct` of a pool run (:func:`_on_shared`)."""
    return _on_shared(_reconstruct, task)


def _dispatch(stages, held, fn, shared_fn, tasks):
    """:func:`_run_tasks` of one phase over the runs a :func:`_swept`
    ``held``, given per run ``(lo, hi, *args)``: ``fn(stages[lo:hi], record,
    lo, *args)`` here for this process's runs, over their records in the
    buffer, and ``shared_fn((header, lo, hi, *args))`` in the pool for the
    rest."""
    _, records, header = held
    return _run_tasks(
        [(fn, (stages[lo:hi], record, lo, *args))
         for (lo, hi, *args), record in zip(tasks, records)],
        [(shared_fn, (header, *task)) for task in tasks[len(records):]])


@contextlib.contextmanager
def _swept(problem, splits, workers, constrained, terminal, tolerances, collect):
    """Phase 1 over the segments ``[splits[j], splits[j+1])``, the first
    ``constrained`` endpoint-constrained, each other ``j`` ending in
    ``terminal[:][j - constrained]``, as a context that holds the solve's
    buffer.

    Each process gets a run of segments, this process the first and each
    worker slot one more, and sweeps it as one lockstep batch
    (:func:`_sweep_run`) into the run's record, its rows of the
    :func:`_layout` buffer over stages ``[0, splits[-1])``.  With a pool the
    buffer is this process's memory file (:func:`_arena`), which the
    context holds under its lock and which also holds the pool's stages;
    else, or if the file cannot be made, it is anonymous memory and this
    process sweeps every run.  Yields the link blocks stacked in segment
    order, the runs' ``(first, last)`` segments, the processes used, the
    bytes shared, the ``publish``, ``local_sweep`` and ``wait`` spans in
    seconds, the record's stacks over the whole horizon (views of the
    buffer) and the runs for :func:`_dispatch`: per run its ``(first,
    last)`` segments and its stages ``(lo, hi)``, this process's runs'
    records and the file's header (else None).
    """
    J, n, m = len(splits) - 1, problem.n, problem.m
    batches = tuple((int(run[0]), int(run[-1]))
                    for run in np.array_split(np.arange(J), min(workers, J)))
    runs, tasks = [], []
    for first, last in batches:
        free = min(max(first, constrained), last + 1)  # the run's first with a terminal cost
        runs.append((first, last, splits[first], splits[last + 1]))
        tasks.append((splits[first], splits[last + 1], tuple(splits[first:last + 2]),
                      tuple(x[free - constrained:last + 1 - constrained] for x in terminal),
                      tolerances, collect))
    k, end = n if constrained else 0, splits[-1]
    layout, size = _layout(n, m, k, end)
    shared, header = 0, None
    with _ARENA_LOCK if len(runs) > 1 else contextlib.nullcontext():
        tic = time.perf_counter()
        if len(runs) > 1:
            lo = tasks[1][0]
            try:
                shared, buffer = _publish(problem.stages[lo:end], lo, _arena(), layout, size)
                header = n, m, k, end
            except OSError:  # no memory file or no room: sweep here
                pass
        if header is None:
            buffer = mmap.mmap(-1, size)
        timings = {"publish": time.perf_counter() - tic}
        local = 1 if header else len(tasks)
        held = (runs, [_views(buffer, layout, RECORD, lo, hi)
                       for lo, hi, *_ in tasks[:local]], header)
        results, timings["local_sweep"], timings["wait"] = _dispatch(
            problem.stages, held, _sweep_run, _sweep_shared, tasks)
        yield (_merge(results), batches, len(tasks) if header else 1,
               shared, timings, _views(buffer, layout, RECORD, 0, end), held)


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

def _reconstruct(stages, record, lo, splits, starts, links, seeds, terminal):
    """Phase 3 of one run of segments, given its link points.

    ``stages`` and ``record`` are the run's stages and record, the first
    stage stage ``lo`` of the horizon, and ``splits`` its segment bounds on
    the horizon; ``starts`` are each segment's first state and ``links`` and
    ``seeds`` each endpoint segment's end point and multiplier there;
    ``terminal`` is the terminal cost's ``(Qxx, qx1)`` where the run ends
    the horizon, else None.  The segments roll out in lockstep
    (:func:`parlqr.problem.propagate`) from their first states and then run
    the stationarity recursion back from their end multipliers.

    Writes the run's states, controls and multipliers, with the horizon's
    final row where the run ends it, ``k1`` with ``Kz z`` folded in and its
    stages' cost terms (:func:`parlqr.problem.stage_costs`) to the record.
    Returns the largest absolute KKT row entry of its stages but, where the
    run does not end the horizon, its last, whose rows need the next run's
    first multiplier.  A segment's bits do not depend on its run.
    """
    splits = tuple(s - lo for s in splits)
    L, Kx, k1 = splits[-1], record["Kx"], record["k1"]
    states, controls, lambdas = record["states"], record["controls"], record["lambdas"]
    Fx, Qxx, Qux, qx1 = stages.Fx, stages.Qxx, stages.Qux, stages.qx1
    if len(links):  # the horizon's last segment has no endpoint to fold in
        z = np.repeat(links, np.diff(splits)[:len(links)], axis=0)
        k1[:len(z)] = np.matvec(record["Kz"][:len(z)], z) + k1[:len(z)]
    # a link point, not the left neighbour's end state, starts a segment; the
    # row past L where the run does not end the horizon is the next run's
    states[list(splits[:-1])] = starts
    propagate(Kx, k1, Fx, stages.Fu, stages.f1, states[:L + (terminal is not None)],
              controls, splits)
    if terminal is not None:
        lambdas[L] = -(terminal[0] @ states[L] + terminal[1])
        seeds = np.concatenate([seeds, lambdas[L][None]])
    order, plan = lockstep(splits)
    lam = seeds[order]
    for B, rows in plan:
        lam[:B] = np.matvec(Fx[rows].mT, lam[:B]) - (
            np.matvec(Qxx[rows], states[rows]) + np.matvec(Qux[rows].mT, controls[rows])
            + qx1[rows])
        lambdas[rows] = lam[:B]
    done = L - (terminal is None)
    rows = stage_residuals(stages[:done], states[:done], states[1:done + 1], controls[:done],
                           lambdas[:done], lambdas[1:done + 1])
    record["x_costs"][:], record["u_costs"][:] = stage_costs(stages, states[:L], controls)
    return float(np.abs(rows).max(initial=0.0))


def _finish(problem, splits, held, starts, links, seeds):
    """Phase 3 of each run a :func:`_swept` ``held``, given its segments'
    first states, link points and end multipliers, here or in the run's
    worker slot, into the run's record.  Returns the largest of the runs'
    KKT row entries.
    """
    J, terminal = len(splits) - 1, (problem.terminal.Qxx, problem.terminal.qx1)
    tasks = [(lo, hi, splits[first:last + 2], starts[first:last + 1], links[first:last + 1],
              seeds[first:last + 1], terminal if last == J - 1 else None)
             for first, last, lo, hi in held[0]]
    residuals, _, _ = _dispatch(problem.stages, held, _reconstruct, _finish_shared, tasks)
    return float(np.max(residuals))


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
    workers_reason: str = None  # "explicit", "environment" or "rule" (sized_workers)
    batches: tuple = ()  # (first, last) segments of each run
    shared_bytes: int = 0  # stage data written to the pool's shared memory file
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
    workers, reason = _worker_count(workers, J, (problem.n, problem.m, problem.T))
    splits, terminal = partition.split_times, problem.terminal
    x_init, stages = problem.x_init, problem.stages
    with _swept(problem, splits, workers, J - 1, (terminal.Qxx[None], terminal.qx1[None]),
                tolerances, collect_diagnostics) as (
            seg, batches, used, shared, timings, record, held):
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
        mu_left = -(np.matvec(seg["Vzx"], starts[:-1]) + np.matvec(seg["Vzz"], links)
                    + seg["vz1"])
        for at, _, Hz, _ in _by_rows(seg["feasibility"]):
            mu_left[at] = mu_left[at] - np.matvec(Hz.mT, np.stack([nus[j] for j in at]))
        residual = _finish(problem, splits, held, starts, links, -mu_left)
        # copies: the next pooled solve rewrites the file, and a view would keep it mapped
        Kx, k1, states, controls, lambdas, x_costs, u_costs = (
            record[name].copy() for name in RECORD if name != "Kz")
    lambda_right = lambdas[list(splits[1:-1])]  # each segment's first multiplier
    mismatch = float(np.abs(mu_left + lambda_right).max())
    timings["reconstruct"], tic = time.perf_counter() - tic, time.perf_counter()

    # the rows the runs left, of each last stage before another run's, and
    # the terminal and initial rows
    t = np.array([hi - 1 for *_, hi in held[0][:-1]], dtype=int)
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
            workers_reason=reason,
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
    vf = details.segment_values0
    terminals = [TerminalCost(Vxx, vx1 + Vzx.T @ z)
                 for (Vxx, Vzx, _, vx1, _), z in zip(vf[1:-1], links[1:])]
    terminals.append(TerminalCost(*vf[-1]))
    splits = partition.split_times[:-1]
    workers, reason = _worker_count(workers, J - 1, (problem.n, problem.m, splits[-1]))
    policies = list(result.policies)
    with _swept(problem, splits, workers, 0,
                (np.stack([t.Qxx for t in terminals]), np.stack([t.qx1 for t in terminals])),
                tolerances, False) as (_, batches, used, shared, timings, record, _):
        policies[:splits[-1]] = _feedback_policies(record["Kx"].copy(), record["k1"].copy())
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
        details=dataclasses.replace(
            details, smooth_deviation=deviation, workers=used, workers_reason=reason,
            batches=batches, shared_bytes=shared, timings=timings),
    )
    return dataclasses.replace(
        smoothed, kkt_residual_inf=kkt_residual(problem, smoothed))
