"""Seeded inputs and correctness gates for the three benchmark workloads.

Points are drawn with ``random.Random`` seeded from the workload name and
the seed, so the same seed gives the same points on every machine.  Ranges
are split into equal strata with one draw per stratum, so every seed gets
the same mix of cheap and expensive points and run-to-run spread comes
from the machine rather than from the draw.  The ROADMAP table geometries
are always included as anchors.
"""

import json
import math
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")

# concentric-near-contact: gap alpha - 1 log-uniform in RATIO_BOUNDS.  The
# strata split at EXACT_MIN_GAP, below which energy_exact exceeds its n_max
# cap, so every seed runs the same number of exact solves.
RATIO_BOUNDS = (0.01, 0.5)
EXACT_MIN_GAP = 0.02
CONCENTRIC_STRATA = (4, 20)  # below and above EXACT_MIN_GAP
CONCENTRIC_ANCHORS = (1.05, 1.02, 1.01)

# matrix-geometries: seeded eccentric alpha uniform, delta uniform in
# [ECC_DELTA[0], min(ECC_DELTA[1], alpha - 1 - ECC_MIN_GAP)]; seeded
# cylinder-plane h_over_a uniform in PLANE_H.  Seeded points stay where a
# solve costs about the same everywhere (eccentric gap >= 0.4, h >= 1.5).
# The steep near-contact costs (eccentric gap 0.2 to 0.3 and h near 1.2
# cost 2 to 3 times more per solve) are measured by the fixed anchors
# Eccentric(1.5, 0.3) and CylinderPlane(1.2), so the seed cannot swing a
# pass that holds only seven solves.
ECC_ALPHA = (1.5, 2.5)
ECC_DELTA = (0.1, 0.6)
ECC_MIN_GAP = 0.4
ECC_STRATA = 1
PLANE_H = (1.5, 3.0)
PLANE_STRATA = 2
MATRIX_ANCHORS = (("eccentric", 2.0, 0.5), ("eccentric", 1.5, 0.3), ("cylplane", 2.0), ("cylplane", 1.2))

SWEEP_GAPS = (0.05, 1.0)  # cli-sweep concentric grid, log-uniform
SWEEP_STRATA = 40
SWEEP_EVALUATORS = ("exact", "accelerated", "nntl")
SWEEP_PLANE_H = (1.5, 3.0)
SWEEP_PLANE_STRATA = 2
SWEEP_WORKERS = 2

REL_TOL = 1e-4  # package default, used by every benchmark solve


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


def _strata(rng, lo, hi, count, log=False):
    """One uniform draw in each of ``count`` equal strata of [lo, hi]."""
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    width = (b - a) / count
    vals = [a + (i + rng.random()) * width for i in range(count)]
    return [round(math.exp(v) if log else v, 6) for v in vals]


def concentric_alphas(seed):
    """Anchors, then one seeded alpha per log-uniform gap stratum."""
    rng = _rng("concentric-near-contact", seed)
    below, above = CONCENTRIC_STRATA
    gaps = (_strata(rng, RATIO_BOUNDS[0], EXACT_MIN_GAP, below, log=True)
            + _strata(rng, EXACT_MIN_GAP, RATIO_BOUNDS[1], above, log=True))
    return list(CONCENTRIC_ANCHORS) + [round(1.0 + g, 6) for g in gaps]


def concentric_solves(seed):
    """(evaluator, alpha): accelerated everywhere, exact where its cap allows."""
    solves = []
    for alpha in concentric_alphas(seed):
        solves.append(("accelerated", ("concentric", alpha)))
        if alpha - 1.0 >= EXACT_MIN_GAP:
            solves.append(("exact", ("concentric", alpha)))
    return solves


def matrix_points(seed):
    """Anchors, then stratified eccentric and cylinder-plane points."""
    rng = _rng("matrix-geometries", seed)
    points = list(MATRIX_ANCHORS)
    for alpha in _strata(rng, *ECC_ALPHA, ECC_STRATA):
        hi = min(ECC_DELTA[1], alpha - 1.0 - ECC_MIN_GAP)
        delta = round(ECC_DELTA[0] + rng.random() * (hi - ECC_DELTA[0]), 6)
        points.append(("eccentric", alpha, delta))
    points.extend(("cylplane", h) for h in _strata(rng, *PLANE_H, PLANE_STRATA))
    return points


def matrix_solves(seed):
    return [("exact", p) for p in matrix_points(seed)]


def sweep_grids(seed):
    """Concentric alpha list and cylinder-plane h list for the CLI sweeps."""
    rng = _rng("cli-sweep", seed)
    gaps = _strata(rng, *SWEEP_GAPS, SWEEP_STRATA, log=True)
    alphas = [round(1.0 + g, 6) for g in gaps]
    hs = _strata(rng, *SWEEP_PLANE_H, SWEEP_PLANE_STRATA)
    return alphas, hs


def sweep_commands(seed):
    """Argument lists (after ``casimir_cylinders.cli``) of one sweep iteration."""
    alphas, hs = sweep_grids(seed)
    common = ["--workers", str(SWEEP_WORKERS), "--timing"]
    return [
        ["sweep", "--family", "concentric", "--alpha", ",".join(repr(a) for a in alphas),
         "--evaluators", ",".join(SWEEP_EVALUATORS)] + common,
        ["sweep", "--family", "cylplane", "--h-over-a", ",".join(repr(h) for h in hs),
         "--evaluators", "exact"] + common,
    ]


def geometry(point):
    from casimir_cylinders.geometry import Concentric, CylinderPlane, Eccentric

    kind = point[0]
    if kind == "concentric":
        return Concentric(point[1])
    if kind == "eccentric":
        return Eccentric(point[1], point[2])
    return CylinderPlane(point[1])


def key(evaluator, point):
    return f"{evaluator}:" + ":".join(str(v) for v in point)


def load_references():
    with open(REFERENCES) as fh:
        return json.load(fh)["energies"]


# ---------------------------------------------------------------------------
# Gates.  Each returns a list of failure messages; empty means correct.

def check_result(e_hat, est, converged=True, rel_tol=REL_TOL):
    """A seeded or anchor solve: negative, converged, within its tolerance."""
    bad = []
    if not (math.isfinite(e_hat) and e_hat < 0.0):
        bad.append(f"e_hat {e_hat!r} is not negative")
    if not converged or not (est <= rel_tol):
        bad.append(f"not converged: est_rel_error {est!r} > rel_tol {rel_tol}")
    return bad


def check_reference(e_hat, est, ref):
    """Agreement with a stored reference within both error estimates."""
    tol = est * abs(e_hat) + ref["est_rel_error"] * abs(ref["e_hat"])
    if abs(e_hat - ref["e_hat"]) > tol:
        return [f"e_hat {e_hat!r} differs from reference {ref['e_hat']!r} by more than {tol:.3g}"]
    return []


def check_agree(a, b, what):
    """Two (e_hat, est) estimates of the same energy agree within their estimates."""
    tol = a[1] * abs(a[0]) + b[1] * abs(b[0])
    if abs(a[0] - b[0]) > tol:
        return [f"{what}: {a[0]!r} and {b[0]!r} differ by more than {tol:.3g}"]
    return []


def check_below(ecc, con, what):
    """Eccentric energy at or below the concentric one, within the estimates."""
    tol = ecc[1] * abs(ecc[0]) + con[1] * abs(con[0])
    if ecc[0] > con[0] + tol:
        return [f"{what}: eccentric {ecc[0]!r} above concentric {con[0]!r}"]
    return []


def gate_solves(results, references):
    """Gate in-process results: {key: (e_hat, est, converged)} -> {key: [failures]}.

    Covers the per-solve checks, the anchor references and exact versus
    accelerated agreement.  The eccentric-below-concentric check needs
    extra solves and lives in the runner.
    """
    failures = {}
    for k, (e_hat, est, converged) in results.items():
        bad = check_result(e_hat, est, converged)
        if k in references:
            bad += check_reference(e_hat, est, references[k])
        if k.startswith("exact:concentric:"):
            other = "accelerated" + k[len("exact"):]
            if other in results:
                bad += check_agree(results[k][:2], results[other][:2], k)
        failures[k] = bad
    return failures


def parse_sweep_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def gate_sweep(rows, family, grid, evaluators):
    """Gate one sweep's rows: grid order, status ok, physics checks.

    Returns one failure list per row, in row order.
    """
    expected = [(v, ev) for v in grid for ev in evaluators]
    failures = []
    by_point = {}
    for i, row in enumerate(rows):
        bad = []
        if i >= len(expected):
            failures.append(["unexpected extra row"])
            continue
        value, ev = expected[i]
        col = "alpha" if family == "concentric" else "delta_or_h"
        if row["geometry_family"] != family or row["evaluator"] != ev or float(row[col]) != float(format(value, ".9g")):
            bad.append(f"row {i} out of grid order: {row}")
        if row["status"] != "ok":
            bad.append(f"row {i} status {row['status']}")
        else:
            e_hat, est = float(row["e_hat"]), float(row["est_rel_error"])
            bad += check_result(e_hat, est)
            by_point.setdefault(value, {})[ev] = (e_hat, est)
        failures.append(bad)
    failures += [["row missing"]] * (len(expected) - len(rows))
    for i, row in enumerate(rows[: len(expected)]):
        value, ev = expected[i]
        pair = by_point.get(value, {})
        if ev == "exact" and "accelerated" in pair and "exact" in pair:
            failures[i] += check_agree(pair["exact"], pair["accelerated"], f"alpha {value}")
    return failures
