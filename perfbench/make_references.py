#!/usr/bin/env python3
"""Recompute perfbench/references.json, the anchor reference energies.

    PYTHONPATH=src python3 perfbench/make_references.py

Each anchor is solved once at the tightest of REF_TOLS that converges
within the package's caps and stored with its own error estimate and
that tolerance.  Accelerated alpha = 1.01 converges only at the
benchmark's own rel_tol = 1e-4, so its reference is a committed baseline
value rather than a tighter solve.  Takes a few minutes; rerun only when the anchors change.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from casimir_cylinders import engine  # noqa: E402
from casimir_cylinders.geometry import TruncationSpec  # noqa: E402

import run  # noqa: E402
import workloads as wl  # noqa: E402

REF_TOLS = (1e-7, 1e-6, 1e-5, 1e-4)


def anchors():
    for alpha in wl.CONCENTRIC_ANCHORS:
        yield "accelerated", ("concentric", alpha)
        if alpha - 1.0 >= wl.EXACT_MIN_GAP:
            yield "exact", ("concentric", alpha)
    for point in wl.MATRIX_ANCHORS:
        yield "exact", point


def main():
    energies = {}
    for evaluator, point in anchors():
        start = time.perf_counter()
        solve = getattr(engine, run.EVALUATORS[evaluator])
        for tol in REF_TOLS:
            try:
                r = solve(wl.geometry(point), TruncationSpec(rel_tol=tol))
                break
            except engine.NoConvergenceError:
                continue
        else:
            raise SystemExit(f"no reference for {evaluator} {point}")
        k = wl.key(evaluator, point)
        energies[k] = {"e_hat": r.e_hat, "est_rel_error": r.est_rel_error, "rel_tol": tol}
        print(k, r.e_hat, r.est_rel_error, tol, f"{time.perf_counter() - start:.1f}s", flush=True)
    with open(wl.REFERENCES, "w") as fh:
        json.dump({"energies": energies}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
