#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize every metric.

    python3 perfbench/repeat.py --seeds 1-10 --trace 0 --out summary.json

Runs ``perfbench/run.py`` once per (workload, seed), one at a time, and
reports for each metric the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread
(q3 - q1) / median.  ``--seconds`` defaults to ``run_seconds`` from
BENCHMARK.json; ``--workloads`` picks a subset (comma list).  Use it to
compare a parent commit with a change: same seeds, same seconds, both
sides on the same machine.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import WORKLOADS  # noqa: E402


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        run_seconds = json.load(fh)["run_seconds"]
    parser.add_argument("--seconds", type=int, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args()

    summary, environment = {}, None
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            environment = environment or json.loads(lines[0].partition("environment: ")[2])
            runs.append(result)
            print(workload, seed, json.dumps({k: v["value"] for k, v in result["metrics"].items()}),
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        metrics = {name: summarize([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        summary[workload] = {
            "seeds": _seeds(args.seeds),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": metrics,
        }
        for name, s in metrics.items():
            print(f"  {workload} {name}: median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g}"
                  f" spread {s['spread']:.3f}", flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seconds": args.seconds, "trace": args.trace, "environment": environment,
                       "workloads": summary}, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
