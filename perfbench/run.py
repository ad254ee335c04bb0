#!/usr/bin/env python3
"""Time-to-energy benchmark for casimir_cylinders.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md for ranges, anchors and why):

* ``concentric-near-contact``: one warm process, concentric shells near
  contact through ``energy_concentric_accelerated`` and ``energy_exact``.
* ``matrix-geometries``: one warm process, ``energy_exact`` on eccentric
  shells and cylinder-plane geometries (dense matrices).
* ``cli-sweep``: fresh ``casimir_cylinders.cli sweep --workers 2 --timing``
  processes, as a user launches them.

Every energy is checked (see workloads.py); a wrong energy counts as
failed.  With ``--trace 0`` the last stdout line is the JSON result with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
one traced pass, plus ``trace.overhead_frac`` against an untraced pass.
Human-readable lines, including ``failed_frac`` and the tail percentile
with its sample count, come before it.  Traces and a full record of the
run go to ``.bench_out/`` in the checkout.
"""

import argparse
import contextlib
import glob
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
PACKAGE = os.path.join(SRC, "casimir_cylinders", "__init__.py")

WORKLOADS = ("concentric-near-contact", "matrix-geometries", "cli-sweep")
SETUP_PROBES = 3
# Passes (CLI: iterations) repeat until --seconds have elapsed, and at
# least this often, so that even a 20 s matrix pass gets a median.
MIN_PASSES = 2
SUBPROCESS_TIMEOUT = 120.0

# Warm-up solve per workload: the setup probe and the warm process both run
# it.  Each is an anchor, so its energy is checked against the references.
WARMUP = {
    "concentric-near-contact": ("accelerated", ("concentric", 1.05)),
    "matrix-geometries": ("exact", ("cylplane", 2.0)),
}
CLI_WARMUP = ["sweep", "--family", "concentric", "--alpha", "1.05",
              "--evaluators", "accelerated", "--workers", "2"]
CLI_WARMUP_KEY = "accelerated:concentric:1.05"

EVALUATORS = {"exact": "energy_exact", "accelerated": "energy_concentric_accelerated"}

# Counts derived from call arguments and results rather than timed; they
# must repeat exactly for the same seed.
COMPUTED = ("bessel.terms", "kernel.inner_terms", "kernel.logdet_flops", "engine.freq_evals")


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _child_env(trace_dir=None):
    env = dict(os.environ)
    paths = [SRC]
    if trace_dir:
        paths += [os.path.join(HERE, "hook"), HERE]
        env["PERFBENCH_TRACE_DIR"] = trace_dir
    else:
        env.pop("PERFBENCH_TRACE_DIR", None)
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _run(args, env, ok_codes=(0,)):
    """Run a Python child in its own session; returns (seconds, stdout)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable] + args, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=SUBPROCESS_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child timed out: {args}") from None
    finally:
        # the child runs in its own session, so this also reaches pool workers
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
    wall = time.perf_counter() - start
    if proc.returncode not in ok_codes:
        raise BenchError(f"child exited {proc.returncode}: {args}\n{err}")
    return wall, out


def _cli(args, env, ok_codes=(0,)):
    return _run(["-m", "casimir_cylinders.cli"] + args, env, ok_codes)


def tail(samples):
    """(value, label): the highest percentile with ten samples beyond it.

    Falls back to the median when that percentile would not lie above it.
    """
    xs = sorted(samples)
    n = len(xs)
    k = n - 11
    if k < 0 or k < (n - 1) / 2:
        return statistics.median(xs), f"median of {n} samples (no percentile above it has ten samples beyond)"
    return xs[k], f"p{math.floor(100 * (n - 10) / n)} of {n} samples (ten beyond)"


def environment():
    import ctypes

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")):
        cdll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(cdll, sym, None)
            if fn is not None:
                threads = fn()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


# ---------------------------------------------------------------------------
# Setup: fresh processes, from interpreter start to the end of a first solve.

def _probe_code(evaluator, point):
    return (
        "from casimir_cylinders import engine\n"
        "import sys; sys.path.insert(0, %r)\n"
        "from workloads import geometry\n"
        "r = engine.%s(geometry(%r))\n"
        "print(repr(r.e_hat), repr(r.est_rel_error), r.converged)\n"
    ) % (HERE, EVALUATORS[evaluator], point)


def setup_probes(workload, refs):
    import workloads as wl

    env = _child_env()
    times = []
    for _ in range(SETUP_PROBES):
        if workload == "cli-sweep":
            wall, out = _cli(CLI_WARMUP, env)
            row = wl.parse_sweep_csv(out)[0]
            e_hat, est, converged = float(row["e_hat"]), float(row["est_rel_error"]), row["status"] == "ok"
            ref = refs[CLI_WARMUP_KEY]
        else:
            evaluator, point = WARMUP[workload]
            wall, out = _run(["-c", _probe_code(evaluator, point)], env)
            e_hat, est, flag = out.split()
            e_hat, est, converged = float(e_hat), float(est), flag == "True"
            ref = refs[wl.key(evaluator, point)]
        bad = wl.check_result(e_hat, est, converged) + wl.check_reference(e_hat, est, ref)
        if bad:
            raise BenchError(f"setup probe gave a wrong energy: {bad}")
        times.append(wall)
    return statistics.median(times), times


# ---------------------------------------------------------------------------
# In-process workloads.

def _solve_pass(solves):
    """One pass; engine functions are looked up per call so tracer wrappers apply."""
    from casimir_cylinders import engine

    import workloads as wl

    times, results, errors = {}, {}, {}
    start = time.perf_counter()
    for evaluator, point in solves:
        k = wl.key(evaluator, point)
        fn = getattr(engine, EVALUATORS[evaluator])
        t0 = time.perf_counter()
        try:
            r = fn(wl.geometry(point))
        except Exception as exc:  # a failed solve is counted, not fatal
            errors[k] = [f"{type(exc).__name__}: {exc}"]
        else:
            results[k] = (r.e_hat, r.est_rel_error, r.converged)
        times[k] = time.perf_counter() - t0
    return time.perf_counter() - start, times, results, errors


def _eccentric_checks(results, concentric):
    """Eccentric energies at or below concentric ones at the same alpha.

    ``concentric`` caches (e_hat, est) per alpha across passes.
    """
    from casimir_cylinders import engine
    from casimir_cylinders.geometry import Concentric

    import workloads as wl

    failures = {}
    for k, (e_hat, est, _) in results.items():
        if not k.startswith("exact:eccentric:"):
            continue
        alpha = float(k.split(":")[2])
        if alpha not in concentric:
            r = engine.energy_exact(Concentric(alpha))
            concentric[alpha] = (r.e_hat, r.est_rel_error)
        failures[k] = wl.check_below((e_hat, est), concentric[alpha], k)
    return failures


def _gate_pass(results, errors, refs, concentric):
    """Failure lists of one pass, for the solves that failed a check."""
    import workloads as wl

    failures = wl.gate_solves(results, refs)
    for k, bad in _eccentric_checks(results, concentric).items():
        failures[k] += bad
    failures.update(errors)
    return {k: v for k, v in failures.items() if v}


def run_inprocess(workload, seed, seconds, trace, refs):
    import workloads as wl

    solves = wl.concentric_solves(seed) if workload == "concentric-near-contact" else wl.matrix_solves(seed)
    info = {"solves_per_pass": len(solves)}
    if not trace:
        info["setup_s"], info["setup_samples"] = setup_probes(workload, refs)

    concentric = {}  # gate cache: concentric energies per eccentric alpha

    # warm the process: imports, node caches, first solve
    bad = _gate_pass(*_solve_pass([WARMUP[workload]])[2:], refs, concentric)
    if bad:
        raise BenchError(f"warm-up solve failed its check: {bad}")

    passes, times, failures = [], [], []
    start = time.perf_counter()
    while True:
        wall, ts, results, errors = _solve_pass(solves)
        passes.append(wall)
        times += ts.values()
        info.setdefault("solve_times", []).append(ts)
        failures.append(_gate_pass(results, errors, refs, concentric))
        if trace or (len(passes) >= MIN_PASSES and time.perf_counter() - start >= seconds):
            break
    if trace:
        from tracer import Tracer, summarize

        with Tracer() as tracer:
            traced_wall, _, t_results, t_errors = _solve_pass(solves)
        failures.append(_gate_pass(t_results, t_errors, refs, concentric))
    attempted = len(solves) * len(failures)
    failed = sum(len(f) for f in failures)
    info.update(passes=passes, failures=failures)
    if trace:
        metrics = summarize([tracer.spans])
        tracer.write(_trace_dir(workload, seed, f"spans-{os.getpid()}.json"))
        # no CLI here: the dispatching layer is this loop, with one worker
        metrics.update(_dispatch_layer(len(solves), sum(times), passes[0], 1))
        metrics["trace.overhead_frac"] = traced_wall / passes[0] - 1.0
        info["missing_lookup_points"] = tracer.missing
        return metrics, attempted, failed, info

    metrics = _end_to_end(info, passes, times, attempted - failed, resource.RUSAGE_SELF)
    return metrics, attempted, failed, info


def _end_to_end(info, walls, times, checked, rusage_who):
    """End-to-end metrics from pass walls, solve times and checked solves."""
    tail_value, info["tail"] = tail(times)
    return {
        "setup_s": info["setup_s"],
        "wall_s": statistics.median(walls),
        "solves_per_s": checked / sum(walls),
        "solve_p50_s": statistics.median(times),
        "solve_tail_s": tail_value,
        "peak_rss_mb": resource.getrusage(rusage_who).ru_maxrss / 1024.0,
    }


def _trace_dir(workload, seed, *name):
    """Fresh span directory of one traced run (or a path inside it)."""
    out = os.path.join(OUT, f"trace-{workload}-seed{seed}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    return os.path.join(out, *name)


# ---------------------------------------------------------------------------
# CLI workload.

def _sweep_iteration(seed, env):
    """Run one iteration's sweep processes; returns (wall, rows, failures)."""
    import workloads as wl

    alphas, hs = wl.sweep_grids(seed)
    grids = [("concentric", alphas, wl.SWEEP_EVALUATORS), ("cylplane", hs, ("exact",))]
    wall, rows, failures = 0.0, [], []
    for args, (family, grid, evaluators) in zip(wl.sweep_commands(seed), grids):
        # exit code 2 means some row did not converge; the gate counts it
        seconds, out = _cli(args, env, ok_codes=(0, 2))
        wall += seconds
        got = wl.parse_sweep_csv(out)
        rows += got
        failures += wl.gate_sweep(got, family, grid, evaluators)
    return wall, rows, failures


def _dispatch_layer(rows, busy, wall, workers):
    """The ``cli.*`` metrics of the layer that hands solves to workers."""
    return {
        "cli.rows": rows,
        "cli.row_busy_s": busy,
        "cli.worker_busy_frac": busy / (workers * wall),
        "cli.overhead_s": wall - busy / workers,
    }


def run_cli(seed, seconds, trace, refs):
    import workloads as wl
    from tracer import summarize

    info = {}
    if not trace:
        info["setup_s"], info["setup_samples"] = setup_probes("cli-sweep", refs)
    env = _child_env()
    walls, solve_times, attempted, failed = [], [], 0, 0
    start = time.perf_counter()
    while True:
        wall, rows, failures = _sweep_iteration(seed, env)
        walls.append(wall)
        attempted += len(failures)
        failed += sum(1 for f in failures if f)
        info.setdefault("failures", []).extend(f for f in failures if f)
        solve_times += [int(r["wall_ms"]) / 1000.0 for r in rows if r["evaluator"] in EVALUATORS]
        if trace or (len(walls) >= MIN_PASSES and time.perf_counter() - start >= seconds):
            break
    info["iterations"] = walls
    if trace:
        trace_dir = _trace_dir("cli-sweep", seed)
        traced_wall, t_rows, t_failures = _sweep_iteration(seed, _child_env(trace_dir))
        attempted += len(t_failures)
        failed += sum(1 for f in t_failures if f)
        span_lists = []
        for path in sorted(glob.glob(os.path.join(trace_dir, "spans-*.json"))):
            with open(path) as fh:
                span_lists.append([tuple(s) for s in json.load(fh)["spans"]])
        info["traced_processes"] = len(span_lists)
        metrics = summarize(span_lists)
        busy = sum(int(r["wall_ms"]) for r in rows) / 1000.0
        metrics.update(_dispatch_layer(len(rows), busy, walls[0], wl.SWEEP_WORKERS))
        metrics["trace.overhead_frac"] = traced_wall / walls[0] - 1.0
        return metrics, attempted, failed, info

    # the largest child process: a sweep or one of its pool workers
    metrics = _end_to_end(info, walls, solve_times, attempted - failed, resource.RUSAGE_CHILDREN)
    return metrics, attempted, failed, info


# ---------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(PACKAGE):
        print(f"error: package source not found at {PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads as wl

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    units = {m["name"]: m["unit"] for m in contract["per_layer" if args.trace else "end_to_end"]}
    refs = wl.load_references()
    os.makedirs(OUT, exist_ok=True)
    if args.workload == "cli-sweep":
        metrics, attempted, failed, info = run_cli(args.seed, args.seconds, args.trace, refs)
    else:
        metrics, attempted, failed, info = run_inprocess(
            args.workload, args.seed, args.seconds, args.trace, refs)

    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    for name, unit in units.items():
        label = " (computed)" if name in COMPUTED else ""
        print(f"{name}: {metrics[name]:.6g} {unit}{label}")
    print(f"failed_frac: {failed / attempted:.6g} ({failed} of {attempted})")
    if "tail" in info:
        print(f"solve_tail_s is the {info['tail']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  environment=env, info=info)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
