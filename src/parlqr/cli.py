"""Command-line front end: solve, generate, demo and bench subcommands.

Exit codes of ``solve``: 0 success, 1 I/O, parse or argument error, 2
endpoint constraints infeasible, 3 numerical failure (including invalid
problem data).  Every subcommand reports an argument value the library
rejects as an ``error:`` line with exit code 1.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import bench, demo, fileio, kkt, parallel, serial
from .errors import Infeasible, SolverError
from .generate import generate
from .problem import validate

EXIT_OK = 0
EXIT_IO = 1
EXIT_INFEASIBLE = 2
EXIT_NUMERICAL = 3


def _argument_error(exc):
    """Report an argument value the library rejected with ``ValueError``."""
    print(f"error: {exc}", file=sys.stderr)
    return EXIT_IO


def _cmd_solve(args):
    try:
        problem = fileio.load_problem(args.problem)
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        print(f"error: cannot read problem file: {exc}", file=sys.stderr)
        return EXIT_IO
    report = validate(problem)
    if not report.ok:
        for line in report.errors:
            print(f"error: {line}", file=sys.stderr)
        return EXIT_NUMERICAL
    try:
        tic = time.perf_counter()
        if args.solver == "serial":
            solution = serial.solve(problem)
        elif args.solver == "parallel":
            solution = parallel.solve_parallel(problem, J=args.J,
                                               workers=args.workers)
        else:
            solution = kkt.solve_dense(problem)
        elapsed = time.perf_counter() - tic
    except ValueError as exc:  # --J outside [1, T]
        return _argument_error(exc)
    except Infeasible as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    try:
        fileio.save_solution(solution, args.out, solver=args.solver,
                             timing_seconds=elapsed)
    except OSError as exc:
        print(f"error: cannot write solution: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _cmd_generate(args):
    try:
        fileio.save_problem(generate(args.n, args.m, args.T, args.seed), args.out)
    except ValueError as exc:
        return _argument_error(exc)
    except OSError as exc:
        print(f"error: cannot write problem: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _cmd_demo(args):
    try:
        config = demo.DemoConfig(dt=args.dt, T=args.T, disturbed=args.disturbed)
        summary = demo.run_demo(config, args.out_dir)
    except ValueError as exc:
        return _argument_error(exc)
    except OSError as exc:
        print(f"error: cannot write demo output: {exc}", file=sys.stderr)
        return EXIT_IO
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def _cmd_bench(args):
    try:
        report = bench.run_bench(args.n, args.m, args.T, args.J, args.workers,
                                 repeats=args.repeats, seed=args.seed)
        report.to_csv(args.out)
        if args.json_out:
            report.to_json(args.json_out)
    except ValueError as exc:
        return _argument_error(exc)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"{len(report.records)} rows written to {args.out} "
          f"(max deviation {report.max_deviation():.3e})")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="parlqr",
        description="Finite-horizon LQR solvers with a partition-parallel "
                    "Riccati backend")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a problem file")
    p.add_argument("--problem", required=True)
    p.add_argument("--solver", choices=("serial", "parallel", "kkt"),
                   default="serial")
    p.add_argument("--J", type=int, default=2)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("generate", help="write a random problem file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("demo", help="run the double-integrator demonstration")
    p.add_argument("--dt", type=float, default=demo.DemoConfig.dt)
    p.add_argument("--T", type=int, default=demo.DemoConfig.T)
    p.add_argument("--disturbed", action="store_true", default=True)
    p.add_argument("--no-disturbed", dest="disturbed", action="store_false")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser("bench", help="time the solvers and emit CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--T", type=int, nargs="+", required=True)
    p.add_argument("--J", type=int, nargs="+", required=True)
    p.add_argument("--workers", type=int, nargs="+", required=True)
    p.add_argument("--repeats", type=int, default=bench.DEFAULT_REPEATS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--json-out", default=None)
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
