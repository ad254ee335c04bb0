"""Command-line interface.

Single-point evaluations, parameter sweeps and a checkpoint self-test.
Examples:

    casimir-cyl concentric --alpha 1.05 --evaluator accelerated
    casimir-cyl eccentric --alpha 2 --delta 0.5 --format json
    casimir-cyl cylplane --h-over-a 2 --rel-tol 1e-3
    casimir-cyl rackpinion --amplitude 1e-8 --wavelength 1e-6 \
        --displacement 0 --gap 1e-6 --radius 1e-4 --length 1e-2
    casimir-cyl sweep --family concentric --alpha 1.05:1.6:12 \
        --evaluators exact,accelerated,nntl --output sweep.csv
    casimir-cyl selftest

Exit codes: 0 success, 1 usage or invalid geometry (malformed config,
geometry and j-table files included), 2 non-convergence or another
numerical failure.
Flags override config-file values (--config, JSON with the same names),
which override the defaults (rel_tol 1e-4, 128 transformed-Gauss nodes).
Energies are reported in units of hbar c L / (4 pi a^2); SI values appear
only when both --a-meters and --L-meters are given.  CSV floats carry 9
significant digits and sweep output is byte-stable for a fixed request;
the wall_ms column stays 0 unless --timing is passed (real timings break
byte-stability).  CASIMIR_THREADS caps sweep workers, and the pool never
starts more workers than the sweep has rows or the process has cores.
The CLI process runs BLAS with one thread from the start, so forked
sweep workers inherit that cap instead of setting it themselves (which
would restart a spinning OpenBLAS helper thread in each worker).
"""

import argparse
import concurrent.futures
import contextlib
import functools
import itertools
import json
import math
import os
import sys
import time
import warnings
from dataclasses import asdict, fields

from . import baselines, engine, kernel, quadrature, rackpinion
from .geometry import (
    NODE_CAP,
    Concentric,
    CylinderPlane,
    Eccentric,
    Polarization,
    QuadratureRule,
    QuadratureSpec,
    TruncationSpec,
    gap,
    geometry_from_dict,
    geometry_to_dict,
    to_physical,
    validate,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_CONVERGENCE = 2

# Subcommand or sweep family -> geometry; the shape flags are its fields.
FAMILIES = {"concentric": Concentric, "eccentric": Eccentric, "cylplane": CylinderPlane}

# Concentric-only baselines: evaluator name -> e_hat as a function of alpha.
ANALYTIC_EVALUATORS = {
    "pfa": functools.partial(baselines.pfa_concentric, order=baselines.PfaOrder.LEADING),
    "ntl": functools.partial(baselines.pfa_concentric, order=baselines.PfaOrder.NTL),
    "nntl": functools.partial(baselines.pfa_concentric, order=baselines.PfaOrder.NNTL),
    "asymptote": baselines.large_alpha_asymptote,
}
ALL_EVALUATORS = ("exact", "accelerated", *ANALYTIC_EVALUATORS)

# First match wins: exception type, stderr prefix, exit code, sweep row status
# ({exc} is the message, {name} the exception type).
_FAILURES = (
    (engine.NoConvergenceError, "no-convergence", EXIT_NO_CONVERGENCE, "no-convergence"),
    (kernel.NonContractiveError, "non-contractive", EXIT_NO_CONVERGENCE, "non-contractive"),
    (kernel.TruncationError, "non-contractive", EXIT_NO_CONVERGENCE, "truncation-insufficient"),
    (ValueError, "error", EXIT_USAGE, "error:{exc}"),
    (OSError, "error", EXIT_USAGE, "error:{exc}"),
    (KeyError, "error", EXIT_USAGE, "error:{exc}"),
    (RuntimeError, "error", EXIT_NO_CONVERGENCE, "error:{name}"),
    (ArithmeticError, "error", EXIT_NO_CONVERGENCE, "error:{name}"),
)
_HANDLED = tuple(row[0] for row in _FAILURES)

CSV_COLUMNS = (
    "geometry_family",
    "alpha",
    "delta_or_h",
    "evaluator",
    "e_hat",
    "e_tm",
    "e_te",
    "est_rel_error",
    "n_max",
    "nodes",
    "wall_ms",
    "status",
)

DEFAULTS = {"rel_tol": TruncationSpec.rel_tol, "nodes": QuadratureSpec.node_count,
            "scale": QuadratureSpec.scale, "rule": QuadratureSpec.rule.value}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _failure(exc):
    return next(row for row in _FAILURES if isinstance(exc, row[0]))


def _flag(name):
    return "--" + name.replace("_", "-")


def _parse_grid(text):
    """Grid spec: 'start:stop:count' (inclusive) or a comma list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid spec must be start:stop:count, got {text!r}")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ValueError("grid count must be positive")
        if count == 1:
            return [start]
        step = (stop - start) / (count - 1)
        return [start + i * step for i in range(count)]
    return [float(v) for v in text.split(",") if v.strip()]


def _merged_settings(args):
    settings = dict(DEFAULTS)
    if args.config:
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
        for key in settings:
            if key in loaded:
                # bool is an int subclass, but true is no number of nodes or tolerance
                if isinstance(loaded[key], bool) or not isinstance(loaded[key], (int, float, str)):
                    raise ValueError(f"config {key} must be a number or a string, not {loaded[key]!r}")
                settings[key] = loaded[key]
    for key in settings:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    return settings


def _specs(settings):
    t = TruncationSpec(rel_tol=float(settings["rel_tol"]))
    nodes = settings["nodes"]
    if isinstance(nodes, float) and not nodes.is_integer():  # also inf and nan
        raise ValueError(f"nodes = {nodes} must be a whole number")
    q = QuadratureSpec(
        node_count=int(nodes),
        scale=float(settings["scale"]),
        rule=QuadratureRule(settings["rule"]),
    )
    return t, q


def _check_evaluator(evaluator, cls):
    """Every evaluator but exact serves concentric shells only."""
    if evaluator != "exact" and not issubclass(cls, Concentric):
        raise ValueError(f"evaluator {evaluator!r} applies to concentric shells only")


def _evaluate(geometry, evaluator, t, q):
    """Returns a plain dict shared by single-point and sweep output."""
    _check_evaluator(evaluator, type(geometry))
    if evaluator in ANALYTIC_EVALUATORS:
        e_hat = ANALYTIC_EVALUATORS[evaluator](geometry.alpha)
        return {
            "e_hat": e_hat,
            "e_tm": 0.5 * e_hat,  # analytic baselines do not resolve the split
            "e_te": 0.5 * e_hat,
            "est_rel_error": 0.0,
            "n_max": 0,
            "nodes": 0,
            "converged": True,
        }
    # looked up per call: tests and the benchmark tracer replace these
    solve = engine.energy_exact if evaluator == "exact" else engine.energy_concentric_accelerated
    result = solve(geometry, t, q)
    return {
        "e_hat": result.e_hat,
        "e_tm": result.e_tm,
        "e_te": result.e_te,
        "est_rel_error": result.est_rel_error,
        "n_max": result.report.n_max_final,
        "nodes": result.report.node_count_final,
        "converged": result.converged,
        "m_max": result.report.m_max_final,
    }


def _geometry_from_args(args):
    cls = FAMILIES[args.command]
    if args.geometry_json:
        with open(args.geometry_json) as fh:
            geometry = geometry_from_dict(json.load(fh))
        if not isinstance(geometry, cls):
            raise ValueError(
                f"geometry file holds a {type(geometry).__name__}, not a {args.command} configuration"
            )
        return validate(geometry)
    names = [f.name for f in fields(cls)]
    values = [getattr(args, name) for name in names]
    if None in values:
        raise ValueError(f"need {' and '.join(map(_flag, names))} (or --geometry-json)")
    return validate(cls(*values))


def _cmd_energy(args):
    geometry = _geometry_from_args(args)
    t, q = _specs(_merged_settings(args))
    record = {
        "geometry": geometry_to_dict(geometry),
        "evaluator": args.evaluator,
        **_evaluate(geometry, args.evaluator, t, q),
    }
    total = record["e_tm"] + record["e_te"]
    record["fraction_tm"] = record["e_tm"] / total
    record["fraction_te"] = record["e_te"] / total + 0.0  # an underflowed e_te gives 0, not -0
    if args.a_meters is not None and args.l_meters is not None:
        record["energy_joules"] = to_physical(record["e_hat"], args.a_meters, args.l_meters)

    if args.dump_matrix and not isinstance(geometry, Concentric):
        _dump_matrix(geometry, t, args.dump_matrix)
        record["matrix_dump"] = args.dump_matrix
    return _print_record(record, args.format)


def _print_record(record, fmt):
    """One record on stdout: indented JSON, or one 'key: value' line per entry."""
    if fmt == "json":
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        for key, value in record.items():
            print(f"{key}: {_format_cell(value)}")
    return EXIT_OK


def _dump_matrix(geometry, t, path):
    """Debug dump of one spectral matrix at a representative frequency."""
    beta = 1.0 / (2.0 * gap(geometry))
    build = (
        kernel.build_eccentric if isinstance(geometry, Eccentric) else kernel.build_cylinder_plane
    )
    sub = TruncationSpec(n_max=16, rel_tol=t.rel_tol)
    with open(path, "w") as fh:
        for pol in (Polarization.TM, Polarization.TE):
            fh.write(build(beta, geometry, pol, sub).to_text())


def _cmd_rackpinion(args):
    spec = rackpinion.CorrugationSpec(*(getattr(args, f.name) for f in fields(rackpinion.CorrugationSpec)))
    # without a table the estimates use their default, constant J = 1
    profile = rackpinion.ProfileJ.from_file(args.j_table) if args.j_table else None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", rackpinion.ValidityWarning)
        record = {
            "energy_pp_per_area": rackpinion.energy_pp(spec, profile),
            "energy_plane_rack": rackpinion.energy_plane_rack(spec, profile),
            "energy_cyl_rack": rackpinion.energy_cyl_rack(spec, profile),
            "force_ratio": rackpinion.force_ratio(spec, profile),
            "sqrt_a_over_d": math.sqrt(spec.radius / spec.gap),
        }
    for caution in caught:
        print(f"warning: {caution.message}", file=sys.stderr)
    return _print_record(record, args.format)


# ---------------------------------------------------------------------------
# Sweeps.

def _sweep_tasks(args):
    """(family, geometry, evaluator, (t, q)) per row, in grid-times-evaluator order."""
    cls = FAMILIES[args.family]
    names = [f.name for f in fields(cls)]
    # --alpha is parsed for every family, so a malformed --alpha is a
    # usage error even where the family has no alpha
    grids = {name: _parse_grid(getattr(args, name) or "") for name in dict.fromkeys(("alpha", *names))}
    if not all(grids[name] for name in names):
        raise ValueError(f"{args.family} sweep needs {' and '.join(map(_flag, names))}")
    evaluators = [e.strip() for e in args.evaluators.split(",") if e.strip()]
    if not evaluators:
        raise ValueError("no evaluators requested")
    for ev in evaluators:
        if ev not in ALL_EVALUATORS:
            raise ValueError(f"unknown evaluator {ev!r}")
        _check_evaluator(ev, cls)
    # validate every grid point up front: a sweep with an invalid point
    # is a usage error, not a partial failure
    geometries = [validate(cls(*point)) for point in itertools.product(*(grids[n] for n in names))]
    specs = _specs(_merged_settings(args))
    return [(args.family, g, ev, specs) for g in geometries for ev in evaluators]


def _sweep_row(task, timing):
    family, geometry, evaluator, (t, q) = task
    shape = asdict(geometry)
    row = dict.fromkeys(CSV_COLUMNS, "")  # the energy columns stay empty on failure
    row.update(geometry_family=family, alpha=shape.get("alpha", 0.0),
               delta_or_h=shape.get("delta", shape.get("h_over_a", 0.0)), evaluator=evaluator,
               n_max=0, nodes=0, wall_ms=0, status="ok")
    start = time.perf_counter()
    try:
        record = _evaluate(geometry, evaluator, t, q)
    except _HANDLED as exc:
        row["status"] = _failure(exc)[3].format(exc=exc, name=type(exc).__name__)
    else:
        row.update((c, record[c]) for c in CSV_COLUMNS if c in record)
    if timing:
        row["wall_ms"] = int(round(1000.0 * (time.perf_counter() - start)))
    return row


def _format_cell(value):
    if isinstance(value, float):
        return format(float(value), ".9g")
    return str(value)


def _one_blas_thread():
    """Give numpy's bundled OpenBLAS one thread, unless it already has one.

    Each sweep worker already keeps one core busy; BLAS threads on top of
    that oversubscribe the cores.  ``main`` calls this before any solve, so
    forked workers inherit the cap; the sweep pool's initializer calls it
    again for workers started without fork, which begin at the library
    default.  A forked worker reads one thread and sets nothing: a set
    call there would restart an OpenBLAS helper thread that spins against
    the other workers.  Does nothing when no OpenBLAS library with known
    thread-count symbols ships with numpy.
    """
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for lib in glob.glob(libs):
        cdll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get_threads = getattr(cdll, sym.format("get"), None)
            set_threads = getattr(cdll, sym.format("set"), None)
            if get_threads is not None and set_threads is not None:
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                if get_threads() > 1:
                    set_threads(1)
                return


def _usable_cores():
    """How many cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _build_node_tables(tasks):
    """Build the Gauss-Legendre tables of the solved rows once, for the workers to inherit.

    Every row of a sweep shares one QuadratureSpec; the refinement uses its
    node count and then the doubled one.
    """
    if all(evaluator in ANALYTIC_EVALUATORS for _, _, evaluator, _ in tasks):
        return
    _, q = tasks[0][3]
    if q.rule is QuadratureRule.TRANSFORMED_GAUSS and 2 * q.node_count <= NODE_CAP:
        quadrature.gauss_legendre_01(q.node_count)
        quadrature.gauss_legendre_01(2 * q.node_count)


def _cmd_sweep(args):
    tasks = _sweep_tasks(args)
    # the fork start method starts all max_workers at the first submit
    workers = min(args.workers, len(tasks), _usable_cores())
    env_cap = os.environ.get("CASIMIR_THREADS")
    if env_cap:
        try:
            workers = min(workers, max(1, int(env_cap)))
        except ValueError:
            raise ValueError(f"CASIMIR_THREADS must be an integer, got {env_cap!r}") from None
    # opened before any solve, so an unwritable path fails at once; nothing
    # is written until the rows are in, so no buffered text crosses a fork
    with open(args.output, "w", newline="") if args.output else contextlib.nullcontext(sys.stdout) as out:
        if workers > 1:
            _build_node_tables(tasks)
            with concurrent.futures.ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread) as pool:
                futures = [pool.submit(_sweep_row, task, args.timing) for task in tasks]
                rows = [f.result() for f in futures]  # submission order == grid order
        else:
            rows = [_sweep_row(task, args.timing) for task in tasks]
        if args.format == "json":
            payload = json.dumps(rows, indent=2, sort_keys=True)
            text = payload + "\n"
        else:
            lines = [",".join(CSV_COLUMNS)]
            for row in rows:
                lines.append(",".join(_format_cell(row[c]) for c in CSV_COLUMNS))
            text = "\n".join(lines) + "\n"
        out.write(text)

    if any(row["status"] != "ok" for row in rows):
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


# ---------------------------------------------------------------------------
# Self-test.

def _cmd_selftest(_args):
    checks = []

    def check(name, value, target, tol):
        passed = abs(value - target) <= tol
        checks.append((name, value, target, passed))

    check("slow_series(1000)", baselines.slow_series(1000), 5.5728, 5e-5)
    check("slow_series(100000)", baselines.slow_series(100_000), 7.4222, 5e-5)
    check("D_10", baselines.accelerated_series(10) - 10.0, 0.6234, 5e-5)
    check("D_1000", baselines.accelerated_series(1000) - 10.0, 0.5847, 5e-5)
    check("z_inf_target", baselines.accelerated_series(2_000_000) - 0.0, 10.5844, 5e-4)

    e_ecc = engine.energy_exact(Eccentric(2.0, 0.0)).e_hat
    e_con = engine.energy_exact(Concentric(2.0)).e_hat
    check("eccentric(delta=0)/concentric at alpha=2", e_ecc / e_con, 1.0, 1e-10)

    ratio = engine.energy_concentric_accelerated(Concentric(1.05)).e_hat / baselines.pfa_concentric(1.05)
    check("e/e_pfa at alpha=1.05", ratio, 1.0242, 0.0103)

    lhs, rhs = kernel.addition_theorem_check(40.0, 1.0, 0, 0, Polarization.TM)
    check("addition theorem TM x=40", lhs / rhs, 1.0, 0.01)
    lhs, rhs = kernel.addition_theorem_check(120.0, 1.0, 0, 0, Polarization.TE)
    check("addition theorem TE x=120", lhs / rhs, 1.0, 0.01)

    width = max(len(c[0]) for c in checks)
    all_ok = True
    for name, value, target, passed in checks:
        all_ok &= passed
        print(f"{name:<{width}}  value={value:.6f}  target={target:.6f}  {'PASS' if passed else 'FAIL'}")
    print("selftest:", "PASS" if all_ok else "FAIL")
    return EXIT_OK if all_ok else EXIT_NO_CONVERGENCE


# ---------------------------------------------------------------------------
# Argument wiring.

def _add_common(p):
    p.add_argument("--rel-tol", dest="rel_tol", type=float, default=None)
    p.add_argument("--nodes", type=int, default=None)
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--rule", choices=[r.value for r in QuadratureRule], default=None)
    p.add_argument("--config", default=None, help="JSON config file; flags win")


def build_parser():
    parser = _Parser(prog="casimir-cyl", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    for name, cls in FAMILIES.items():
        p = sub.add_parser(name, help=f"energy of the {name} configuration")
        p.set_defaults(run=_cmd_energy)
        for field in fields(cls):
            p.add_argument(_flag(field.name), dest=field.name, type=float, default=None)
        p.add_argument("--geometry-json", dest="geometry_json", default=None,
                       help="JSON geometry file with a 'type' discriminator; replaces the shape flags")
        p.add_argument("--evaluator", choices=ALL_EVALUATORS, default="exact")
        p.add_argument("--a-meters", dest="a_meters", type=float, default=None)
        p.add_argument("--L-meters", dest="l_meters", type=float, default=None)
        p.add_argument("--dump-matrix", dest="dump_matrix", default=None, help="debug matrix dump path")
        _add_common(p)
        p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("rackpinion", help="corrugated rack-and-pinion estimates")
    p.set_defaults(run=_cmd_rackpinion)
    for field in fields(rackpinion.CorrugationSpec):
        p.add_argument(_flag(field.name), type=float, required=True)
    p.add_argument("--j-table", dest="j_table", default=None, help="two-column d/lambda, J file")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("sweep", help="parameter sweep to CSV or JSON")
    p.set_defaults(run=_cmd_sweep)
    p.add_argument("--family", choices=list(FAMILIES), required=True)
    for name in dict.fromkeys(f.name for cls in FAMILIES.values() for f in fields(cls)):
        p.add_argument(_flag(name), dest=name, default=None, help="grid: start:stop:count or comma list")
    p.add_argument("--evaluators", default="exact")
    p.add_argument("--output", default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--timing", action="store_true", help="fill wall_ms (breaks byte-stability)")
    _add_common(p)
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    sub.add_parser("selftest", help="run the checkpoint suite").set_defaults(run=_cmd_selftest)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    _one_blas_thread()  # before any solve, so forked sweep workers inherit it
    try:
        return args.run(args)
    except _HANDLED as exc:
        _, prefix, code, _ = _failure(exc)
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
