"""Compare the solver outputs of two source trees, array by array.

    python scripts/compare_outputs.py PARENT_SRC CHANGE_SRC

Each argument is a tree's ``src`` directory, the one holding ``parlqr``.
Each tree is imported in its own subprocess, which solves a fixed input set
and saves every output array.  The script then prints, for each array,
whether the two trees agree bit for bit (``numpy.array_equal``) and the
largest absolute difference, and, for each tree, whether the partitioned
solves and the smoothing passes agree bit for bit across worker counts 1, 2
and 3, with two workers but no shared memory file, with two workers right
after a larger solve and with the package's own worker count.  It exits
with code 1 when any array differs between the trees.  The subprocesses
inherit the environment, so
``OPENBLAS_NUM_THREADS=1 python scripts/compare_outputs.py ...`` compares
single-threaded BLAS runs, and ``PAR_RICCATI_WORKERS`` sets the
``default`` count.

The inputs, all from ``parlqr.generate(n, m, T, seed)``:

- ``(40, 10, 2048, 41)`` and ``(40, 10, 2048, 91)`` with J=8, the two
  ``wide`` seeds closest to the benchmark's state limit;
- ``(40, 10, 64, 5)`` and ``(4, 2, 1024, 1)`` with J=8;
- ``(4, 1, 256, 3)`` with J=T, whose smoothing pass refines a J=8 solve;
- ``(3, 2, 40, 7)`` with J=5 and with J=T.

For each input: states, controls, multipliers, policy gains, objective and
KKT residual (the last two as 0-d arrays) of ``solve_serial``, of
``solve_parallel`` and of ``smooth`` with 1, 2 and 3 workers, the link
points, the one-worker solve's ``segment_diagnostics`` (it collects them)
as ``basis_defect`` and ``projector_defect`` arrays with NaN where a
segment has none (NaN counts as equal to NaN), the partitioned solve and
``smooth`` with 2 workers where the pools' shared memory file cannot be
made (``w2 unshared``: the pools are shut down and ``os.memfd_create``
raises, so the calling process takes every run, its records in anonymous
memory), the partitioned solve and ``smooth`` with 2 workers again, the
solve and the solve that ``smooth`` refines each right after a 2-worker
solve of ``(40, 10, 2304, 7)`` with J=8, whose stages outgrow every
input's (``reuse``: the memory file of the earlier solves serves the next
one), the partitioned solve and ``smooth`` with
``workers=None`` (``default``: the count the package chooses), and
``solve_endpoint_affine`` over the first ``min(256, T)`` stages evaluated
at the serial solution's state there, with its ``mu``, ``Kz``, the initial
value's ``Vzz`` and its trajectory maps ``Ra, Rz, r1, Sa, Sz, s1``.
Last, the bytes of each CSV file of ``demo.run_demo(DemoConfig(T=120),
directory, workers=1)``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from unittest import mock

import numpy as np

INPUTS = [  # (n, m, T, seed, J of the solve, J of the solve that smooth refines)
    (40, 10, 2048, 41, 8, 8),
    (40, 10, 2048, 91, 8, 8),
    (40, 10, 64, 5, 8, 8),
    (4, 2, 1024, 1, 8, 8),
    (4, 1, 256, 3, 256, 8),
    (3, 2, 40, 7, 5, 5),
    (3, 2, 40, 7, 40, 5),
]
WORKERS = (1, 2, 3)
SMOOTH_WORKERS = (1, 2, 3)
UNSHARED = "w2 unshared"  # two workers, no shared memory file
REUSE = "reuse"  # two workers, right after a larger solve
LARGER = (40, 10, 2304, 7, 8)  # (n, m, T, seed, J) of that solve
DEFAULT = "default"  # workers=None
ENDPOINT_T = 256
DEMO_T = 120


def _solution_arrays(out, prefix, solution):
    out[f"{prefix}/states"] = solution.states
    out[f"{prefix}/controls"] = solution.controls
    out[f"{prefix}/lambdas"] = solution.lambdas
    out[f"{prefix}/Kx"] = np.stack([p.Kx for p in solution.policies])
    out[f"{prefix}/k1"] = np.stack([p.k1 for p in solution.policies])
    out[f"{prefix}/objective"] = np.array(solution.objective)
    out[f"{prefix}/kkt_residual_inf"] = np.array(solution.kkt_residual_inf)


def dump(path):
    """Solve every input with the ``parlqr`` on ``sys.path``; save to ``path``."""
    import parlqr
    from parlqr import demo

    out = {}
    larger = parlqr.generate(*LARGER[:4])
    try:
        for n, m, T, seed, J, smooth_J in INPUTS:
            problem = parlqr.generate(n, m, T, seed)
            name = f"generate({n},{m},{T},{seed}) J={J}"
            serial = parlqr.solve_serial(problem)
            _solution_arrays(out, f"{name}/serial", serial)
            for w in WORKERS:
                sol = parlqr.solve_parallel(problem, J, workers=w, collect_diagnostics=w == 1)
                _solution_arrays(out, f"{name}/parallel w{w}", sol)
                out[f"{name}/parallel w{w}/links"] = sol.details.link_points
                if w == 1:
                    for field in ("basis_defect", "projector_defect"):
                        out[f"{name}/parallel diagnostics/{field}"] = np.array(
                            [np.nan if d is None else getattr(d, field)
                             for d in sol.details.segment_diagnostics])
            for w in SMOOTH_WORKERS:
                base = parlqr.solve_parallel(problem, smooth_J, workers=w)
                _solution_arrays(out, f"{name}/smooth w{w}",
                                 parlqr.smooth(problem, base, workers=w))
            sol = parlqr.solve_parallel(problem, J)
            _solution_arrays(out, f"{name}/parallel {DEFAULT}", sol)
            out[f"{name}/parallel {DEFAULT}/links"] = sol.details.link_points
            _solution_arrays(out, f"{name}/smooth {DEFAULT}", parlqr.smooth(
                problem, parlqr.solve_parallel(problem, smooth_J)))
            parlqr.parallel.shutdown_pools()
            with mock.patch.object(os, "memfd_create", side_effect=OSError("no memory file")):
                sol = parlqr.solve_parallel(problem, J, workers=2)
                _solution_arrays(out, f"{name}/parallel {UNSHARED}", sol)
                out[f"{name}/parallel {UNSHARED}/links"] = sol.details.link_points
                base = parlqr.solve_parallel(problem, smooth_J, workers=2)
                _solution_arrays(out, f"{name}/smooth {UNSHARED}",
                                 parlqr.smooth(problem, base, workers=2))
            parlqr.solve_parallel(larger, LARGER[4], workers=2)
            sol = parlqr.solve_parallel(problem, J, workers=2)
            _solution_arrays(out, f"{name}/parallel {REUSE}", sol)
            out[f"{name}/parallel {REUSE}/links"] = sol.details.link_points
            parlqr.solve_parallel(larger, LARGER[4], workers=2)
            base = parlqr.solve_parallel(problem, smooth_J, workers=2)
            _solution_arrays(out, f"{name}/smooth {REUSE}",
                             parlqr.smooth(problem, base, workers=2))
            k = min(ENDPOINT_T, T)
            head = parlqr.LqrProblem(problem.stages[:k], problem.terminal,
                                     problem.x_init)
            affine = parlqr.solve_endpoint_affine(head)
            sol = affine.evaluate(problem.x_init, serial.states[k])
            _solution_arrays(out, f"{name}/endpoint", sol)
            out[f"{name}/endpoint/mu"] = sol.mu
            out[f"{name}/endpoint/Kz"] = np.stack([p.Kz for p in affine.policies])
            out[f"{name}/endpoint/Vzz0"] = affine.values[0].Vzz
            for field in ("Ra", "Rz", "r1", "Sa", "Sz", "s1"):
                out[f"{name}/endpoint/maps/{field}"] = getattr(affine.maps, field)
        with tempfile.TemporaryDirectory() as directory:
            demo.run_demo(demo.DemoConfig(T=DEMO_T), directory, workers=1)
            for file in sorted(os.listdir(directory)):
                with open(os.path.join(directory, file), "rb") as fh:
                    out[f"demo/{file}"] = np.frombuffer(fh.read(), np.uint8)
    finally:
        parlqr.parallel.shutdown_pools()
    np.savez(path, **out)


def _load(src, directory, label):
    path = os.path.join(directory, f"{label}.npz")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    subprocess.run([sys.executable, os.path.abspath(__file__), "--dump", path],
                   env=env, check=True)
    with np.load(path) as arrays:
        return {key: arrays[key] for key in arrays.files}


def _gap(a, b):
    if a.shape != b.shape:
        return float("inf")
    return float(np.nanmax(np.abs(a - b), initial=0.0))


def compare(parent_src, change_src):
    with tempfile.TemporaryDirectory() as directory:
        parent = _load(parent_src, directory, "parent")
        change = _load(change_src, directory, "change")
    differ = 0
    print(f"{'equal':>5}  {'max |diff|':>10}  array")
    for key in sorted(set(parent) | set(change)):
        if key not in parent or key not in change:
            print(f"{'-':>5}  {'-':>10}  {key} (only in "
                  f"{'parent' if key in parent else 'change'})")
            differ += 1
            continue
        equal = np.array_equal(parent[key], change[key], equal_nan=True)
        differ += not equal
        print(f"{str(equal):>5}  {_gap(parent[key], change[key]):10.3e}  {key}")
    print(f"# parent against change: {differ} of "
          f"{len(set(parent) | set(change))} arrays differ")
    for label, arrays in (("parent", parent), ("change", change)):
        for solver, workers in (("parallel", WORKERS), ("smooth", SMOOTH_WORKERS)):
            split = [key for key in arrays if f"/{solver} w1/" in key]
            others = [f"w{w}" for w in workers[1:]] + [UNSHARED, REUSE, DEFAULT]
            uneven = [key.replace(" w1/", f" {other}/") for key in split for other in others
                      if not np.array_equal(arrays[key],
                                            arrays[key.replace(" w1/", f" {other}/")])]
            print(f"# {label}: {solver} outputs across workers {workers}, "
                  f"{UNSHARED}, {REUSE} and {DEFAULT}: {len(uneven)} of "
                  f"{len(split) * len(others)} arrays differ from one worker's")
            for key in uneven:
                print(f"#   {key}")
    return 1 if differ else 0


def main(argv):
    if len(argv) == 2 and argv[0] == "--dump":  # the subprocess of one tree
        dump(argv[1])
        return 0
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    return compare(*argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
