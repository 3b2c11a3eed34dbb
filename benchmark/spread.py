"""Run the benchmark over several seeds and report each metric's spread.

    python3 benchmark/spread.py --label set1 --seeds 1-10
    python3 benchmark/spread.py --label trace1 --workloads narrow --trace 1
    python3 benchmark/spread.py --compare benchmark/out/set1.json benchmark/out/set2.json

Runs ``run.py`` once per (workload, seed), one run at a time and each for
the ``run_seconds`` of ``BENCHMARK.json``, and prints for every metric the
median of the per-run values, their first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median``, plus the failed share of attempted operations.  Raw
results go to ``benchmark/out/<label>.json``.  ``--compare A B`` reads two
such files and prints, per workload and metric, how far B's median lies
from A's, against the metric's bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results):
    rows = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        rows[name] = {"median": med, "q1": q1, "q3": q3,
                      "spread": (q3 - q1) / med if med else 0.0,
                      "unit": results[0]["metrics"][name]["unit"]}
    return rows


def compare(path_a, path_b, bounds):
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    for workload in [w for w in a if w in b]:
        print(f"== {workload}  failed shares {a[workload]['failed_shares']} "
              f"-> {b[workload]['failed_shares']}")
        for name, row in a[workload]["summary"].items():
            new = b[workload]["summary"][name]["median"]
            change = new / row["median"] - 1.0 if row["median"] else 0.0
            bound = bounds.get(name)
            verdict = "" if bound is None else (
                "  WORSE THAN BOUND" if change > bound else f"  within {bound:g}")
            print(f"  {name:34s} {row['median']:.6g} -> {new:.6g} "
                  f"({change:+.3f}){verdict}")


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label")
    parser.add_argument("--compare", nargs=2, metavar="RESULTS")
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    if args.compare:
        compare(*args.compare, bounds)
        return 0
    if not args.label:
        parser.error("--label is required unless --compare is given")
    report = {}
    for workload in args.workloads:
        results = [run_once(workload, s, bench["run_seconds"], args.trace)
                   for s in args.seeds]
        rows = summarize(results)
        shares = {r["failed"] / r["attempted"] for r in results}
        report[workload] = {"seeds": args.seeds, "results": results,
                            "summary": rows, "failed_shares": sorted(shares),
                            "correct": all(r["correct"] for r in results)}
        print(f"== {workload}  correct={report[workload]['correct']}  "
              f"failed shares={sorted(shares)}")
        for name, row in rows.items():
            bound = bounds.get(name) if not args.trace else None
            flag = "" if bound is None else f"  bound {bound:g}"
            print(f"  {name:34s} median {row['median']:.6g} q1 {row['q1']:.6g} "
                  f"q3 {row['q3']:.6g} spread {row['spread']:.3f}{flag}")
        sys.stdout.flush()
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.label}.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
