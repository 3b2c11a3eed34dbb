"""End-to-end and per-layer benchmark of parlqr through its public API.

    python3 benchmark/run.py --workload wide --seed 1 --seconds 40 --trace 0

Generates the workload's problem from the seed, then runs rounds of every
timed operation, problem generation included, interleaved round-robin so
that a slow spell of the host hits every metric alike, for as many whole
rounds as fit in ``--seconds`` (counted from the start; at least three).
Each timed solve gets a fresh ``LqrProblem`` built from the same stage
tuples, as an iterative optimiser would hand the solver a new problem every
iteration.
Every output is checked by :mod:`checks`, which shares no code with the
package.  Each metric is the median of its run's samples.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones, timed around calls into the package's public functions.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import collections
import ctypes
import dataclasses
import json
import multiprocessing
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclasses.dataclass(frozen=True)
class Workload:
    n: int
    m: int
    T: int
    J: int
    endpoint_T: int   # leading stages solved by solve_endpoint_affine
    # whether the multipliers of parallel and smoothed solutions are held to
    # checks.TOL on the seeded problem.  Where they are not, each round
    # counts the known multiplier fault on a fixed input instead (see
    # FAULT_PROBE_T), and the seeded residuals are printed, not counted.
    parallel_multipliers: bool = True
    # calls per round of each end-to-end operation (default 1).  An operation
    # with k calls runs in the first k of the round's passes over the list,
    # so repeated samples are spread through the round, not back to back.
    repeats: dict = dataclasses.field(default_factory=dict)

    def reps(self, name):
        return self.repeats.get(name, 1)


WORKLOADS = {
    # dense 40x40 stage algebra, BLAS-bound sweeps, ~69 MB sent to workers;
    # generate() costs ~3 s, so it runs once per round and the rest twice
    "wide": Workload(n=40, m=10, T=2048, J=8, endpoint_T=256,
                     parallel_multipliers=False,
                     repeats={"validate_s": 2, "serial_s": 2,
                              "parallel_cold_s": 2, "parallel_s": 2,
                              "smooth_s": 2, "endpoint_affine_s": 4,
                              "endpoint_eval_s": 20}),
    # per-stage Python and numpy call overhead dominates, tiny payloads;
    # T=1024 keeps that regime and gives four times the rounds of T=4096
    "narrow": Workload(n=4, m=2, T=1024, J=8, endpoint_T=1024,
                       repeats={"endpoint_eval_s": 3}),
    # every segment has L*m < n: dense link solve, one tiny worker task per
    # stage; smoothing is undefined for that partition, so smooth refines
    # J=8.  T=256 rather than 512 gives each run about twenty cold and
    # twenty warm parallel samples
    "degenerate": Workload(n=4, m=1, T=256, J=256, endpoint_T=256,
                           repeats={"setup_s": 5, "validate_s": 5, "serial_s": 5,
                                    "parallel_cold_s": 2, "parallel_s": 2,
                                    "smooth_s": 5,
                                    "endpoint_affine_s": 3, "endpoint_eval_s": 10}),
}

SMOOTH_J = 8          # partition of the parallel solve that smooth refines
# generate(n, m, FAULT_PROBE_T, FAULT_PROBE_SEED) solved with the workload's
# J: a fixed input on which solve_parallel's multipliers miss checks.TOL
# on every run (see the FOUND line on solve_parallel in CHANGES.md)
FAULT_PROBE_T = 64
FAULT_PROBE_SEED = 5
MIN_ROUNDS = 3        # rounds run even when --seconds is shorter
WARMUP_T = 64         # horizon of the untimed warm-up round
JOIN_TIMEOUT_S = 30.0

END_TO_END_UNITS = {
    "setup_s": "s", "validate_s": "s", "serial_s": "s", "parallel_s": "s",
    "parallel_cold_s": "s", "smooth_s": "s", "endpoint_affine_s": "s",
    "endpoint_eval_s": "s", "peak_rss_mb": "MiB",
}
PER_LAYER_UNITS = {
    "generate.problem_s": "s",
    "problem.rollout_s": "s", "problem.objective_s": "s",
    "problem.kkt_residual_s": "s",
    "serial.backward_s": "s", "serial.backward_us_per_stage": "us",
    "endpoint.segment_backward_s": "s", "endpoint.segment_backward_max_s": "s",
    "endpoint.backward_us_per_stage": "us",
    "endpoint.forward_s": "s", "endpoint.multiplier_s": "s",
    "parallel.solve_s": "s", "parallel.solve_w1_s": "s",
    "parallel.parent_s": "s", "parallel.dispatch_s": "s",
    "parallel.payload_mb": "MB", "parallel.link_dim": "count",
    "parallel.feas_rows": "count", "parallel.worker_peak_rss_mb": "MiB",
    "parallel.kkt_residual_scaled": "ratio",
}


def import_parlqr():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "parlqr" / "__init__.py").is_file():
        raise SystemExit(f"error: no parlqr sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import parlqr
    import parlqr.endpoint
    import parlqr.parallel
    import parlqr.serial
    if Path(parlqr.__file__).resolve().parent != SRC / "parlqr":
        raise SystemExit(f"error: imported parlqr from {parlqr.__file__}")
    return parlqr


# ---------------------------------------------------------------------------
# environment

def _blas_info():
    """Version and thread count of every OpenBLAS loaded into this process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and "/" in line})
    except OSError:
        return []
    info = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                if config is None or threads is None:
                    continue
                config.argtypes, config.restype = [], ctypes.c_char_p
                threads.argtypes, threads.restype = [], ctypes.c_int
                entry.update(config=config().decode(), threads=threads())
        info.append(entry)
    return info


def environment(parlqr, workload):
    import scipy
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _blas_info(),
        "nproc": os.cpu_count(),
        "start_method": multiprocessing.get_start_method(),
        "workers": parlqr.parallel.default_workers(workload.J),
        "env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "PAR_RICCATI_WORKERS")},
    }


# ---------------------------------------------------------------------------
# recording

class Recorder:
    """Times operations, applies their checks and tallies the outcome."""

    def __init__(self):
        self.samples = collections.defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.wrong = []    # failed checks: the output was incorrect
        self.known = []    # failed checks of the known-fault probe
        self.errors = []   # operations that raised
        self.peak_mib, self.peak_phase = peak_rss_mib(), "start"

    def op(self, name, fn, check=None, known=None):
        """Run ``fn`` once, timed; a raise or a failed check is one failure.

        ``known`` checks a fault the program is known to have: its failure
        is counted as failed but does not make the run incorrect.
        """
        self.attempted += 1
        tic = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # counted and reported, the run goes on
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return None
        self.samples[name].append(time.perf_counter() - tic)
        self.note_peak(name)
        problems = check(out) if check is not None else []
        faults = known(out) if known is not None else []
        if problems or faults:
            self.failed += 1
            self.wrong.extend(problems)
            self.known.extend(faults)
        return out

    def note_peak(self, phase):
        """Remember the phase that last raised the process's peak RSS."""
        peak = peak_rss_mib()
        if peak > self.peak_mib:
            self.peak_mib, self.peak_phase = peak, phase

    def add(self, name, value):
        self.samples[name].append(value)

    def medians(self, units):
        return {name: {"value": (statistics.median(self.samples[name])
                                 if self.samples[name] else None),
                       "unit": unit}
                for name, unit in units.items()}

    def spread_lines(self):
        for name, values in sorted(self.samples.items()):
            q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            yield (f"# {name}: median {statistics.median(values):.6g} "
                   f"q1 {q[0]:.6g} q3 {q[2]:.6g} n {len(values)}")


def peak_rss_mib():
    """Peak resident memory of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def stop_workers(parlqr):
    """Shut the package's worker pools down and wait for every worker to end."""
    parlqr.parallel.shutdown_pools()
    for child in multiprocessing.active_children():
        child.join(JOIN_TIMEOUT_S)
        if child.is_alive():
            child.kill()
            child.join(JOIN_TIMEOUT_S)


def workers_peak_rss_mib():
    """Largest VmHWM among live worker processes, in MiB (0 without workers)."""
    peak = 0.0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]) / 1024.0)
        except OSError:
            continue
    return peak


# ---------------------------------------------------------------------------
# one workload instance

class Case:
    """A generated problem with its independent reference data."""

    def __init__(self, parlqr, workload, seed, problem):
        self.lib = parlqr
        self.w = workload
        self.seed = seed
        self.problem = problem
        self.data = checks.stack_problem(problem)
        self.sub_data = self.data.head(workload.endpoint_T)
        rng = np.random.default_rng([seed, 1])
        self.pair = rng.standard_normal((2, workload.n))
        self.eval_data = dataclasses.replace(self.sub_data, x_init=self.pair[0])
        self.reference = parlqr.solve_serial(self.fresh())
        self.reference_problems = checks.check_optimal(
            self.data, self.reference, "reference serial solve")
        # stationarity / (1 + data magnitude) of multipliers not held to TOL
        self.unchecked = []
        self.probe = None
        if not workload.parallel_multipliers:
            probe = parlqr.generate(workload.n, workload.m, FAULT_PROBE_T,
                                    FAULT_PROBE_SEED)
            self.probe = (probe, checks.stack_problem(probe),
                          parlqr.solve_serial(probe))

    def fresh(self):
        p = self.problem
        return self.lib.LqrProblem(p.stages, p.terminal, p.x_init)

    def fresh_sub(self):
        p = self.problem
        return self.lib.LqrProblem(p.stages[:self.w.endpoint_T], p.terminal,
                                   p.x_init)

    # checks ------------------------------------------------------------

    def check_solve(self, label, parallel=False):
        """Optimal, equal to the serial reference, and its policies roll out.

        The multipliers of a parallel or smoothed solution are left out
        where the workload does not hold them to TOL; their stationarity
        residual is then recorded in ``unchecked``.
        """
        multipliers = self.w.parallel_multipliers or not parallel

        def check(sol):
            if not multipliers:
                self.unchecked.append(checks.residuals(
                    self.data, sol.states, sol.controls, sol.lambdas)[0]
                    / self.data.scale)
            return (checks.check_optimal(self.data, sol, label, multipliers)
                    + checks.check_agree(self.data, self.reference, sol, label,
                                         checks.ALL_FIELDS if multipliers
                                         else checks.PRIMAL_FIELDS)
                    + checks.check_rollout(self.data, sol, label))
        return check

    def check_affine(self, aff):
        """Evaluated at the reference's own state, it reproduces the reference."""
        x_term = self.reference.states[self.w.endpoint_T]
        sol = aff.evaluate(self.problem.x_init, x_term)
        label = "endpoint_affine at the serial state"
        return (checks.check_optimal(self.sub_data, sol, label)
                + checks.check_agree(self.sub_data, self.reference, sol, label,
                                     checks.ALL_FIELDS)
                + checks.check_endpoints(sol, self.problem.x_init, x_term, label))

    def check_eval(self, sol):
        label = "endpoint_eval"
        x_init, x_term = self.pair
        return (checks.check_optimal(self.eval_data, sol, label)
                + checks.check_endpoints(sol, x_init, x_term, label)
                + checks.check_rollout(self.eval_data, sol, label, x_term))

    # rounds ------------------------------------------------------------

    def setup_round(self, rec, name):
        """Generate the workload's problem again; it must equal the first."""
        w = self.w
        rec.op(name, lambda: self.lib.generate(w.n, w.m, w.T, self.seed),
               lambda again: [] if checks.same_problem(again, self.problem)
               else ["generate: the seed did not reproduce the problem"])

    def fault_probe_round(self, rec):
        """Solve the fixed probe input; its multipliers miss TOL every time.

        States, controls and policies are checked as on the seeded problem;
        the multiplier checks are counted as the known fault.
        """
        if self.probe is None:
            return
        problem, data, ref = self.probe
        p = self.lib.LqrProblem(problem.stages, problem.terminal, problem.x_init)
        label = (f"solve_parallel multipliers on generate({self.w.n}, {self.w.m}, "
                 f"{FAULT_PROBE_T}, {FAULT_PROBE_SEED}), J={self.w.J}")
        rec.op("fault probe", lambda: self.lib.solve_parallel(p, self.w.J),
               lambda sol: (checks.check_optimal(data, sol, label,
                                                    multipliers=False)
                            + checks.check_agree(data, ref, sol, label)
                            + checks.check_rollout(data, sol, label)),
               known=lambda sol: (
                   checks.check_stationarity(data, sol, label)
                   + checks.check_agree(data, ref, sol, label, ("lambdas",))))

    def end_to_end_round(self, rec):
        lib, w = self.lib, self.w
        for k in range(max([1, *w.repeats.values()])):
            def due(name):
                return k < w.reps(name)

            if due("setup_s"):
                self.setup_round(rec, "setup_s")
            if due("validate_s"):
                p = self.fresh()
                rec.op("validate_s", lambda: lib.validate(p),
                       lambda r: [] if r.ok else [f"validate: {r.errors[:3]}"])
            if due("serial_s"):
                p = self.fresh()
                rec.op("serial_s", lambda: lib.solve_serial(p),
                       self.check_solve("serial"))
            if due("parallel_cold_s"):
                stop_workers(lib)
                p = self.fresh()
                rec.op("parallel_cold_s", lambda: lib.solve_parallel(p, w.J),
                       self.check_solve("parallel cold", parallel=True))
            if due("parallel_s"):
                solved = self.fresh()
                result = rec.op("parallel_s", lambda: lib.solve_parallel(solved, w.J),
                                self.check_solve("parallel", parallel=True))
                if SMOOTH_J == w.J:
                    smooth_input = (solved, result)
            if k == 0 and SMOOTH_J != w.J:
                solved = self.fresh()
                smooth_input = (solved, rec.op(
                    "smooth input", lambda: lib.solve_parallel(solved, SMOOTH_J),
                    self.check_solve("smooth input", parallel=True)))
            if due("smooth_s"):
                rec.op("smooth_s", lambda: lib.smooth(*smooth_input),
                       self.check_solve("smooth", parallel=True))
            if due("endpoint_affine_s"):
                sub = self.fresh_sub()
                aff = rec.op("endpoint_affine_s",
                             lambda: lib.solve_endpoint_affine(sub), self.check_affine)
            if due("endpoint_eval_s"):
                rec.op("endpoint_eval_s", lambda: aff.evaluate(*self.pair),
                       self.check_eval)
        self.fault_probe_round(rec)

    def layer_setup(self):
        """Untimed inputs of the per-layer calls."""
        part = self.lib.make_partition(self.w.T, self.w.J)
        self.segments = [part.segment(j) for j in range(part.J)]
        sub = self.fresh_sub()
        self.sub_stages = sub.stages
        self.sub_terminal = sub.terminal
        self.sub_policies = self.lib.endpoint.backward_pass(
            sub.stages, sub.terminal).policies
        stage_bytes = sum(np.asarray(a).nbytes for obj in self.problem.stages[0]
                          for a in vars(obj).values() if isinstance(a, np.ndarray))
        terminal_bytes = sum(np.asarray(a).nbytes for a in
                             (self.problem.terminal.Qxx, self.problem.terminal.qx1))
        self.payload_mb = (self.w.T * stage_bytes + terminal_bytes) / 1e6

    def layer_round(self, rec):
        lib, ref, J = self.lib, self.reference, self.w.J
        self.setup_round(rec, "generate.problem_s")
        serial, endpoint = lib.serial, lib.endpoint
        tol = checks.TOL * self.data.scale
        p = self.fresh()

        def close(label, got, want):
            gap = float(np.abs(np.asarray(got) - np.asarray(want)).max())
            return [] if gap <= tol else [f"{label}: off by {gap:.3e}"]

        rec.op("problem.rollout_s",
               lambda: lib.rollout(p, ref.policies, p.x_init),
               lambda out: close("rollout", out[0], ref.states))
        rec.op("problem.objective_s",
               lambda: lib.evaluate_objective(p, ref.states, ref.controls),
               lambda out: close("objective", out, checks.objective(
                   self.data, ref.states, ref.controls)))
        rec.op("problem.kkt_residual_s", lambda: lib.kkt_residual(p, ref),
               lambda out: close("kkt_residual", out, max(checks.residuals(
                   self.data, ref.states, ref.controls, ref.lambdas))))
        rec.op("serial.backward_s",
               lambda: serial.backward_pass(p.stages, p.terminal),
               lambda out: close("serial backward policies", checks.rollout(
                   self.data, out[0], p.x_init)[0], ref.states))
        if rec.samples["serial.backward_s"]:
            rec.add("serial.backward_us_per_stage",
                    1e6 * rec.samples["serial.backward_s"][-1] / self.w.T)

        # each segment swept as a worker sweeps it
        times = []
        for j, (lo, hi) in enumerate(self.segments):
            stages = p.stages[lo:hi]
            if j == J - 1:
                fn = lambda: serial.backward_pass(stages, p.terminal)  # noqa: E731
            else:
                fn = lambda: endpoint.backward_pass(stages)  # noqa: E731
            tic = time.perf_counter()
            rec.op("endpoint.segment_sweep_s", fn)
            times.append(time.perf_counter() - tic)
        endpoint_stages = self.segments[-1][0]
        rec.add("endpoint.segment_backward_s", sum(times))
        rec.add("endpoint.segment_backward_max_s", max(times))
        rec.add("endpoint.backward_us_per_stage",
                1e6 * sum(times[:-1]) / endpoint_stages)

        x_term = ref.states[self.w.endpoint_T]
        maps = rec.op(
            "endpoint.forward_s",
            lambda: endpoint.forward_pass(self.sub_policies, self.sub_stages),
            lambda out: close("forward maps", out.states(p.x_init, x_term),
                              ref.states[:self.w.endpoint_T + 1]))
        rec.op("endpoint.multiplier_s",
               lambda: endpoint.multiplier_pass(self.sub_stages,
                                                self.sub_terminal, maps),
               lambda out: close("multiplier maps", out.lambdas(p.x_init, x_term),
                                 ref.lambdas[:self.w.endpoint_T + 1]))

        p = self.fresh()
        rec.op("parallel.solve_w1_s", lambda: lib.solve_parallel(p, J, workers=1),
               self.check_solve("parallel, one worker", parallel=True))
        p = self.fresh()
        par = rec.op("parallel.solve_s", lambda: lib.solve_parallel(p, J),
                     self.check_solve("parallel", parallel=True))
        if par is not None:
            rec.add("parallel.kkt_residual_scaled", max(checks.residuals(
                self.data, par.states, par.controls, par.lambdas)) / self.data.scale)
            # the link system's size, as the solve reports it
            details = par.details
            rows = sum(f[0].shape[0] for f in details.segment_feasibility
                       if f is not None)
            rec.add("parallel.feas_rows", rows)
            rec.add("parallel.link_dim", np.size(details.link_points)
                    + (rows if details.degenerate else 0))
        w1, warm = rec.samples["parallel.solve_w1_s"], rec.samples["parallel.solve_s"]
        if w1 and warm:
            parent = w1[-1] - sum(times)
            rec.add("parallel.parent_s", parent)
            rec.add("parallel.dispatch_s", warm[-1] - parent - max(times))
        rec.add("parallel.payload_mb", self.payload_mb)
        self.fault_probe_round(rec)


# ---------------------------------------------------------------------------

def run(parlqr, workload, seed, seconds, trace):
    """One benchmark run; returns the result object printed as the last line."""
    deadline = time.perf_counter() + seconds
    rec = Recorder()
    case = Case(parlqr, workload, seed, parlqr.generate(
        workload.n, workload.m, workload.T, seed))
    rec.wrong.extend(case.reference_problems)
    rec.note_peak("set-up (problem, reference solve, stacked copy)")

    tiny_T = min(workload.T, WARMUP_T)
    tiny = dataclasses.replace(
        workload, T=tiny_T, J=min(workload.J, tiny_T),
        endpoint_T=min(workload.endpoint_T, tiny_T), repeats={})
    warm = Case(parlqr, tiny, seed, parlqr.generate(
        tiny.n, tiny.m, tiny.T, seed))
    if trace:
        case.layer_setup()
        warm.layer_setup()
        one_round = Case.layer_round
    else:
        one_round = Case.end_to_end_round
    one_round(warm, Recorder())
    rec.note_peak("warm-up round")

    # whole rounds only: stop when the next one would overrun the deadline
    rounds, last = 0, 0.0
    while rounds < MIN_ROUNDS or time.perf_counter() + last <= deadline:
        tic = time.perf_counter()
        one_round(case, rec)
        last = time.perf_counter() - tic
        rounds += 1

    if trace:
        rec.add("parallel.worker_peak_rss_mb", workers_peak_rss_mib())
        units = PER_LAYER_UNITS
    else:
        rec.add("peak_rss_mb", peak_rss_mib())
        units = END_TO_END_UNITS
    stop_workers(parlqr)
    for line in rec.spread_lines():
        print(line)
    print(f"# peak_rss_mb {rec.peak_mib:.1f} first reached in: {rec.peak_phase}")
    if case.unchecked:
        print(f"# parallel and smoothed multipliers, not held to TOL here: "
              f"worst stationarity / (1 + data magnitude) {max(case.unchecked):.3e} "
              f"over {len(case.unchecked)} solutions (TOL {checks.TOL:g})")
    for message in (rec.wrong + rec.errors)[:20]:
        print(f"FAIL {message}", file=sys.stderr)
    for message in sorted(set(rec.known)):
        print(f"KNOWN FAULT {message}", file=sys.stderr)
    print(f"# rounds {rounds}")
    return {
        "correct": not rec.wrong,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": rec.medians(units),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # the worker count is the program's own decision
    os.environ.pop("PAR_RICCATI_WORKERS", None)
    parlqr = import_parlqr()
    workload = WORKLOADS[args.workload]
    print("# environment " + json.dumps(environment(parlqr, workload)))
    print("# workload " + json.dumps(
        {"name": args.workload, "seed": args.seed, **dataclasses.asdict(workload)}))
    result = run(parlqr, workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
