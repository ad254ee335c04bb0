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

Exit codes: 0 success, 1 usage or invalid geometry, 2 non-convergence or
another numerical failure.
Flags override config-file values (--config, JSON with the same names),
which override the defaults (rel_tol 1e-4, 128 transformed-Gauss nodes).
Energies are reported in units of hbar c L / (4 pi a^2); SI values appear
only when both --a-meters and --L-meters are given.  CSV floats carry 9
significant digits and sweep output is byte-stable for a fixed request;
the wall_ms column stays 0 unless --timing is passed (real timings break
byte-stability).  CASIMIR_THREADS caps sweep workers.
"""

import argparse
import concurrent.futures
import json
import math
import os
import sys
import time

from . import baselines, engine, kernel, rackpinion
from .geometry import (
    Concentric,
    CylinderPlane,
    Eccentric,
    GeometryError,
    Polarization,
    QuadratureRule,
    QuadratureSpec,
    TruncationSpec,
    geometry_from_dict,
    geometry_to_dict,
    to_physical,
    validate,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_CONVERGENCE = 2

ANALYTIC_EVALUATORS = ("pfa", "ntl", "nntl", "asymptote")
ALL_EVALUATORS = ("exact", "accelerated") + ANALYTIC_EVALUATORS

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

DEFAULTS = {"rel_tol": 1e-4, "nodes": 128, "scale": 1.0, "rule": "transformed-gauss"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fmt(value):
    return format(float(value), ".9g")


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


def _merged_settings(args, config_path):
    settings = dict(DEFAULTS)
    if config_path:
        with open(config_path) as fh:
            loaded = json.load(fh)
        for key in settings:
            if key in loaded:
                settings[key] = loaded[key]
    for key in settings:
        value = getattr(args, key.replace("-", "_"), None)
        if value is not None:
            settings[key] = value
    return settings


def _specs(settings):
    t = TruncationSpec(rel_tol=float(settings["rel_tol"]))
    q = QuadratureSpec(
        node_count=int(settings["nodes"]),
        scale=float(settings["scale"]),
        rule=QuadratureRule(settings["rule"]),
    )
    return t, q


def _analytic_energy(evaluator, alpha):
    if evaluator == "pfa":
        return baselines.pfa_concentric(alpha, baselines.PfaOrder.LEADING)
    if evaluator == "ntl":
        return baselines.pfa_concentric(alpha, baselines.PfaOrder.NTL)
    if evaluator == "nntl":
        return baselines.pfa_concentric(alpha, baselines.PfaOrder.NNTL)
    if evaluator == "asymptote":
        return baselines.large_alpha_asymptote(alpha)
    raise ValueError(f"unknown evaluator {evaluator!r}")


def _evaluate(geometry, evaluator, t, q):
    """Returns a plain dict shared by single-point and sweep output."""
    if evaluator in ANALYTIC_EVALUATORS:
        if not isinstance(geometry, Concentric):
            raise ValueError(f"evaluator {evaluator!r} applies to concentric shells only")
        e_hat = _analytic_energy(evaluator, geometry.alpha)
        return {
            "e_hat": e_hat,
            "e_tm": 0.5 * e_hat,  # analytic baselines do not resolve the split
            "e_te": 0.5 * e_hat,
            "est_rel_error": 0.0,
            "n_max": 0,
            "nodes": 0,
            "converged": True,
        }
    if evaluator == "accelerated":
        if not isinstance(geometry, Concentric):
            raise ValueError("evaluator 'accelerated' applies to concentric shells only")
        result = engine.energy_concentric_accelerated(geometry, t, q)
    elif evaluator == "exact":
        result = engine.energy_exact(geometry, t, q)
    else:
        raise ValueError(f"unknown evaluator {evaluator!r}")
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


_GEOMETRY_CLASSES = {"concentric": Concentric, "eccentric": Eccentric, "cylplane": CylinderPlane}


def _geometry_from_args(command, args):
    if args.geometry_json:
        with open(args.geometry_json) as fh:
            geometry = geometry_from_dict(json.load(fh))
        if not isinstance(geometry, _GEOMETRY_CLASSES[command]):
            raise ValueError(
                f"geometry file holds a {type(geometry).__name__}, not a {command} configuration"
            )
        return validate(geometry)
    if command == "concentric":
        if args.alpha is None:
            raise ValueError("need --alpha (or --geometry-json)")
        return validate(Concentric(alpha=args.alpha))
    if command == "eccentric":
        if args.alpha is None or args.delta is None:
            raise ValueError("need --alpha and --delta (or --geometry-json)")
        return validate(Eccentric(alpha=args.alpha, delta=args.delta))
    if command == "cylplane":
        if args.h_over_a is None:
            raise ValueError("need --h-over-a (or --geometry-json)")
        return validate(CylinderPlane(h_over_a=args.h_over_a))
    raise ValueError(command)


def _cmd_energy(command, args):
    try:
        geometry = _geometry_from_args(command, args)
        settings = _merged_settings(args, args.config)
        t, q = _specs(settings)
        record = _evaluate(geometry, args.evaluator, t, q)
    except (GeometryError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except engine.NoConvergenceError as exc:
        print(f"no-convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (kernel.NonContractiveError, kernel.TruncationError) as exc:
        print(f"non-contractive: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE

    record = {"geometry": geometry_to_dict(geometry), "evaluator": args.evaluator, **record}
    total = record["e_tm"] + record["e_te"]
    record["fraction_tm"] = record["e_tm"] / total
    record["fraction_te"] = record["e_te"] / total
    if args.a_meters is not None and args.l_meters is not None:
        record["energy_joules"] = to_physical(record["e_hat"], args.a_meters, args.l_meters)

    if args.dump_matrix and not isinstance(geometry, Concentric):
        _dump_matrix(geometry, t, q, args.dump_matrix)
        record["matrix_dump"] = args.dump_matrix

    if args.format == "json":
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        for key, value in record.items():
            if isinstance(value, float):
                value = _fmt(value)
            print(f"{key}: {value}")
    return EXIT_OK


def _dump_matrix(geometry, t, q, path):
    """Debug dump of one spectral matrix at a representative frequency."""
    from .geometry import gap

    beta = 1.0 / (2.0 * gap(geometry))
    build = (
        kernel.build_eccentric if isinstance(geometry, Eccentric) else kernel.build_cylinder_plane
    )
    sub = TruncationSpec(n_max=16, rel_tol=t.rel_tol)
    with open(path, "w") as fh:
        for pol in (Polarization.TM, Polarization.TE):
            fh.write(build(beta, geometry, pol, sub).to_text())


def _cmd_rackpinion(args):
    try:
        spec = rackpinion.CorrugationSpec(
            amplitude=args.amplitude,
            wavelength=args.wavelength,
            displacement=args.displacement,
            gap=args.gap,
            radius=args.radius,
            length=args.length,
        )
        profile = (
            rackpinion.ProfileJ.from_file(args.j_table)
            if args.j_table
            else rackpinion.ProfileJ.constant(1.0)
        )
        record = {
            "energy_pp_per_area": rackpinion.energy_pp(spec, profile),
            "energy_plane_rack": rackpinion.energy_plane_rack(spec, profile),
            "energy_cyl_rack": rackpinion.energy_cyl_rack(spec, profile),
            "force_ratio": rackpinion.force_ratio(spec, profile),
            "sqrt_a_over_d": math.sqrt(spec.radius / spec.gap),
        }
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "json":
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        for key, value in record.items():
            print(f"{key}: {_fmt(value)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Sweeps.

def _sweep_tasks(args):
    family = args.family
    alphas = _parse_grid(args.alpha) if args.alpha else []
    if family == "concentric":
        if not alphas:
            raise ValueError("concentric sweep needs --alpha")
        points = [(a, 0.0) for a in alphas]
    elif family == "eccentric":
        deltas = _parse_grid(args.delta) if args.delta else None
        if not alphas or not deltas:
            raise ValueError("eccentric sweep needs --alpha and --delta")
        points = [(a, d) for a in alphas for d in deltas]
    elif family == "cylplane":
        hs = _parse_grid(args.h_over_a) if args.h_over_a else None
        if not hs:
            raise ValueError("cylplane sweep needs --h-over-a")
        points = [(h, h) for h in hs]
    else:
        raise ValueError(f"unknown family {family!r}")
    if not points:
        raise ValueError("empty sweep grid")
    evaluators = [e.strip() for e in args.evaluators.split(",") if e.strip()]
    if not evaluators:
        raise ValueError("no evaluators requested")
    for ev in evaluators:
        if ev not in ALL_EVALUATORS:
            raise ValueError(f"unknown evaluator {ev!r}")
    # validate every grid point up front: a sweep with an invalid point
    # is a usage error, not a partial failure
    for first, second in points:
        if family == "concentric":
            validate(Concentric(first))
        elif family == "eccentric":
            validate(Eccentric(first, second))
        else:
            validate(CylinderPlane(first))
    return [
        (family, first, second, ev)
        for first, second in points
        for ev in evaluators
    ]


def _sweep_row(task, rel_tol, nodes, scale, rule, timing):
    family, first, second, evaluator = task
    if family == "concentric":
        geometry = Concentric(first)
        alpha, delta_or_h = first, 0.0
    elif family == "eccentric":
        geometry = Eccentric(first, second)
        alpha, delta_or_h = first, second
    else:
        geometry = CylinderPlane(first)
        alpha, delta_or_h = 0.0, first
    t = TruncationSpec(rel_tol=rel_tol)
    q = QuadratureSpec(node_count=nodes, scale=scale, rule=QuadratureRule(rule))
    row = {
        "geometry_family": family,
        "alpha": alpha,
        "delta_or_h": delta_or_h,
        "evaluator": evaluator,
        "e_hat": "",
        "e_tm": "",
        "e_te": "",
        "est_rel_error": "",
        "n_max": 0,
        "nodes": 0,
        "wall_ms": 0,
        "status": "ok",
    }
    start = time.perf_counter()
    try:
        record = _evaluate(geometry, evaluator, t, q)
    except engine.NoConvergenceError:
        row["status"] = "no-convergence"
    except kernel.NonContractiveError:
        row["status"] = "non-contractive"
    except kernel.TruncationError:
        row["status"] = "truncation-insufficient"
    except ValueError as exc:
        row["status"] = f"error:{exc}"
    except (RuntimeError, ArithmeticError) as exc:
        row["status"] = f"error:{type(exc).__name__}"
    else:
        row.update(
            e_hat=record["e_hat"],
            e_tm=record["e_tm"],
            e_te=record["e_te"],
            est_rel_error=record["est_rel_error"],
            n_max=record["n_max"],
            nodes=record["nodes"],
        )
    if timing:
        row["wall_ms"] = int(round(1000.0 * (time.perf_counter() - start)))
    return row


def _format_cell(value):
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def _cmd_sweep(args):
    try:
        tasks = _sweep_tasks(args)
        settings = _merged_settings(args, args.config)
        _specs(settings)  # validate early
    except (GeometryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    workers = args.workers
    env_cap = os.environ.get("CASIMIR_THREADS")
    if env_cap:
        try:
            workers = min(workers, max(1, int(env_cap)))
        except ValueError:
            print(f"error: CASIMIR_THREADS must be an integer, got {env_cap!r}", file=sys.stderr)
            return EXIT_USAGE
    kwargs = dict(
        rel_tol=float(settings["rel_tol"]),
        nodes=int(settings["nodes"]),
        scale=float(settings["scale"]),
        rule=settings["rule"],
        timing=args.timing,
    )
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_sweep_row, task, **kwargs) for task in tasks]
            rows = [f.result() for f in futures]  # submission order == grid order
    else:
        rows = [_sweep_row(task, **kwargs) for task in tasks]

    if args.format == "json":
        payload = json.dumps(rows, indent=2, sort_keys=True)
        text = payload + "\n"
    else:
        lines = [",".join(CSV_COLUMNS)]
        for row in rows:
            lines.append(",".join(_format_cell(row[c]) for c in CSV_COLUMNS))
        text = "\n".join(lines) + "\n"

    if args.output:
        with open(args.output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)

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

    for name, extra in (
        ("concentric", ("alpha",)),
        ("eccentric", ("alpha", "delta")),
        ("cylplane", ("h_over_a",)),
    ):
        p = sub.add_parser(name, help=f"energy of the {name} configuration")
        for field in extra:
            p.add_argument(f"--{field.replace('_', '-')}", dest=field, type=float, default=None)
        p.add_argument("--geometry-json", dest="geometry_json", default=None,
                       help="JSON geometry file with a 'type' discriminator; replaces the shape flags")
        p.add_argument("--evaluator", choices=ALL_EVALUATORS, default="exact")
        p.add_argument("--a-meters", dest="a_meters", type=float, default=None)
        p.add_argument("--L-meters", dest="l_meters", type=float, default=None)
        p.add_argument("--dump-matrix", dest="dump_matrix", default=None, help="debug matrix dump path")
        _add_common(p)
        p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("rackpinion", help="corrugated rack-and-pinion estimates")
    for field in ("amplitude", "wavelength", "displacement", "gap", "radius", "length"):
        p.add_argument(f"--{field}", type=float, required=True)
    p.add_argument("--j-table", dest="j_table", default=None, help="two-column d/lambda, J file")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("sweep", help="parameter sweep to CSV or JSON")
    p.add_argument("--family", choices=["concentric", "eccentric", "cylplane"], required=True)
    p.add_argument("--alpha", default=None, help="grid: start:stop:count or comma list")
    p.add_argument("--delta", default=None)
    p.add_argument("--h-over-a", dest="h_over_a", default=None)
    p.add_argument("--evaluators", default="exact")
    p.add_argument("--output", default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--timing", action="store_true", help="fill wall_ms (breaks byte-stability)")
    _add_common(p)
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    sub.add_parser("selftest", help="run the checkpoint suite")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("concentric", "eccentric", "cylplane"):
        return _cmd_energy(args.command, args)
    if args.command == "rackpinion":
        return _cmd_rackpinion(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "selftest":
        return _cmd_selftest(args)
    parser.error(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
