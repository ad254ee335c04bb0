import concurrent.futures
import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import casimir_cylinders
from casimir_cylinders import cli, engine
from casimir_cylinders.cli import CSV_COLUMNS, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_concentric_pfa_single_point(capsys):
    code, out, _ = run(capsys, "concentric", "--alpha", "2", "--evaluator", "pfa", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["e_hat"] == pytest.approx(-1.08232, abs=1e-5)
    assert record["geometry"] == {"type": "concentric", "alpha": 2.0}


def test_invalid_geometry_exits_1_named(capsys):
    code, _, err = run(capsys, "eccentric", "--alpha", "1.5", "--delta", "0.6")
    assert code == 1
    assert "overlap" in err


def test_non_finite_geometry_exits_1_named(capsys):
    code, _, err = run(capsys, "concentric", "--alpha", "inf")
    assert code == 1
    assert "non-finite" in err


def test_unknown_flag_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "concentric", "--alpha", "2", "--no-such-flag")
    assert exc.value.code == 1


def test_exact_vs_accelerated_cross_evaluator(capsys):
    code, out, _ = run(capsys, "concentric", "--alpha", "1.05", "--evaluator", "exact", "--format", "json")
    assert code == 0
    exact = json.loads(out)["e_hat"]
    code, out, _ = run(capsys, "concentric", "--alpha", "1.05", "--evaluator", "accelerated", "--format", "json")
    assert code == 0
    accel = json.loads(out)["e_hat"]
    assert accel == pytest.approx(exact, rel=1e-3)


def test_non_convergence_exits_2(capsys):
    code, _, err = run(capsys, "concentric", "--alpha", "1.01", "--evaluator", "exact")
    assert code == 2
    assert "no-convergence" in err


def test_one_rung_ladder_exits_2(capsys):
    # the accelerated start 750 lies above the cap n_max = 512: nothing is measured
    code, out, err = run(capsys, "concentric", "--alpha", "1.002", "--evaluator", "accelerated")
    assert code == 2 and out == ""
    assert err.startswith("no-convergence:") and "starting order 750" in err


def test_hopeless_matrix_shape_exits_2_fast(capsys):
    # predicted order 9211 > 2 n_max: named at once instead of after the ladder
    start = time.perf_counter()
    code, out, err = run(capsys, "eccentric", "--alpha", "2.0", "--delta", "0.999")
    assert time.perf_counter() - start < 5.0
    assert code == 2 and out == ""
    assert err.startswith("no-convergence:") and "9211" in err


def test_underflowing_energy_exits_2_named(capsys):
    code, out, err = run(capsys, "concentric", "--alpha", "1e300")
    assert code == 2 and out == ""
    assert err.startswith("no-convergence:") and "underflow" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("concentric", "--alpha", "1e308"),
    ("cylplane", "--h-over-a", "1e308"),
    ("eccentric", "--alpha", "1e308", "--delta", "0.5"),
    ("concentric", "--alpha", "1.7e308", "--evaluator", "accelerated"),
    ("concentric", "--alpha", "1e308", "--rule", "adaptive-panel"),
])
def test_zero_frequency_nodes_are_not_evaluated(capsys, argv):
    # the mapped nodes underflow to beta = 0, where K_n diverges; they weigh
    # nothing, so these shapes fail as an underflowed energy, not in the ladders
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("no-convergence:") and "underflow" in err


@pytest.mark.parametrize("argv", [
    ("cylplane", "--h-over-a", "1e100"),
    ("eccentric", "--alpha", "1e100", "--delta", "0.5"),
    ("cylplane", "--h-over-a", "1e8"),
])
def test_underflowed_te_share_prints_unsigned_zero(capsys, argv):
    # e_te underflows to 0 and the total is negative: the share is 0, not -0
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "fraction_te: 0\n" in out
    code, out, _ = run(capsys, *argv, "--format", "json")
    record = json.loads(out)
    assert code == 0 and record["fraction_te"] == 0.0
    assert math.copysign(1.0, record["fraction_te"]) == 1.0


def _failing_solver(exc):
    def energy_exact(*_args, **_kwargs):
        raise exc

    return energy_exact


def test_unmapped_solver_error_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(
        engine, "energy_exact",
        _failing_solver(RuntimeError("solver stopped")),
    )
    code, out, err = run(capsys, "cylplane", "--h-over-a", "2")
    assert code == 2 and out == ""
    assert err == "error: solver stopped\n"
    monkeypatch.setattr(engine, "energy_exact", _failing_solver(OverflowError("too big")))
    code, _, err = run(capsys, "eccentric", "--alpha", "2", "--delta", "0.5")
    assert code == 2 and err == "error: too big\n"


def test_sweep_unmapped_solver_error_gives_status_row(capsys, monkeypatch):
    monkeypatch.setattr(engine, "energy_exact", _failing_solver(OverflowError("too big")))
    code, out, _ = run(capsys, "sweep", "--family", "concentric", "--alpha", "1.3,1.4",
                       "--evaluators", "exact,pfa", "--workers", "1")
    assert code == 2
    statuses = [line.split(",")[-1] for line in out.splitlines()[1:]]
    assert statuses == ["error:OverflowError", "ok", "error:OverflowError", "ok"]


def test_si_columns_only_with_both_lengths(capsys):
    code, out, _ = run(capsys, "concentric", "--alpha", "2", "--evaluator", "pfa",
                       "--format", "json", "--a-meters", "1e-6", "--L-meters", "1e-2")
    assert code == 0
    record = json.loads(out)
    assert record["energy_joules"] == pytest.approx(-1.08232 * 2.5158628e-17, rel=1e-4)
    code, out, _ = run(capsys, "concentric", "--alpha", "2", "--evaluator", "pfa",
                       "--format", "json", "--a-meters", "1e-6")
    assert "energy_joules" not in json.loads(out)


@pytest.mark.parametrize("a_meters", ["nan", "inf"])
def test_non_finite_length_is_a_usage_error(capsys, a_meters):
    code, out, err = run(capsys, "concentric", "--alpha", "2", "--evaluator", "pfa",
                         "--a-meters", a_meters, "--L-meters", "1e-2")
    assert (code, out) == (1, "")
    assert err == "error: lengths must be positive and finite\n"


def test_rel_tol_honored_in_record(capsys):
    code, out, _ = run(capsys, "concentric", "--alpha", "1.3", "--rel-tol", "1e-5", "--format", "json")
    assert code == 0
    assert json.loads(out)["est_rel_error"] <= 1e-5


def test_config_file_precedence(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"rel_tol": 1e-3, "nodes": 64}))
    code, out, _ = run(capsys, "concentric", "--alpha", "1.3", "--config", str(config), "--format", "json")
    assert code == 0
    loose = json.loads(out)
    assert loose["est_rel_error"] <= 1e-3
    # an explicit flag beats the config value
    code, out, _ = run(capsys, "concentric", "--alpha", "1.3", "--config", str(config),
                       "--rel-tol", "1e-5", "--format", "json")
    assert json.loads(out)["est_rel_error"] <= 1e-5


def test_rackpinion_record(capsys):
    code, out, _ = run(capsys, "rackpinion", "--amplitude", "1e-8", "--wavelength", "1e-6",
                       "--displacement", "0", "--gap", "1e-6", "--radius", "1e-4",
                       "--length", "1e-2", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["force_ratio"] == pytest.approx(51.7, rel=0.01)
    assert record["sqrt_a_over_d"] == pytest.approx(10.0, rel=1e-12)


def test_rackpinion_validity_warning_is_one_line(capsys):
    code, out, err = run(capsys, "rackpinion", "--amplitude", "1e-8", "--wavelength", "1e-6",
                         "--displacement", "0", "--gap", "1e-6", "--radius", "5e-6",
                         "--length", "1e-5")
    assert code == 0
    assert err == "warning: a/d = 5 < 10: outside the close-fitting regime\n"
    assert "sqrt_a_over_d: 2.23606798" in out.splitlines()


@pytest.mark.parametrize("rel_tol", ["1", "2"])
@pytest.mark.parametrize("shape", [
    ["concentric", "--alpha", "2"],
    ["eccentric", "--alpha", "2", "--delta", "0.5"],
    ["cylplane", "--h-over-a", "2"],
])
def test_loose_rel_tol_converges_for_every_family(capsys, shape, rel_tol):
    # a tolerance of 1 or more predicts order 1; the first rung still runs
    code, out, err = run(capsys, *shape, "--rel-tol", rel_tol)
    assert (code, err) == (0, "")
    assert "converged: True" in out.splitlines()
    if shape[0] == "concentric":  # the record printed before the shared policy
        for line in ("e_hat: -1.41285586", "est_rel_error: 1.32953947e-09", "n_max: 24", "nodes: 256"):
            assert line in out.splitlines()


def test_sweep_csv_schema_and_content(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--family", "concentric", "--alpha", "1.2,1.4",
                     "--evaluators", "pfa,nntl", "--output", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 4  # grid order x evaluator order
    first = lines[1].split(",")
    assert first[0] == "concentric" and first[3] == "pfa"
    assert float(first[4]) == pytest.approx(-1.0823232 / 0.2 ** 3, rel=1e-6)
    assert lines[1].split(",")[3] == "pfa" and lines[2].split(",")[3] == "nntl"
    assert all(line.endswith(",ok") for line in lines[1:])


def test_sweep_empty_grid_exits_1(capsys):
    code, _, err = run(capsys, "sweep", "--family", "concentric", "--alpha", "")
    assert code == 1


def test_sweep_invalid_point_exits_1(capsys):
    code, _, err = run(capsys, "sweep", "--family", "eccentric", "--alpha", "1.5",
                       "--delta", "0.2,0.9")
    assert code == 1
    assert "overlap" in err


def test_sweep_grid_of_one_point_is_its_start(capsys):
    code, out, _ = run(capsys, "sweep", "--family", "concentric", "--alpha", "1.3:9:1", "--evaluators", "pfa")
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 1 and rows[0].split(",")[1] == "1.3"


def test_sweep_unwritable_output_fails_before_any_solve(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(engine, "energy_exact", _failing_solver(AssertionError("solved before the output opened")))
    code, out, err = run(capsys, "sweep", "--family", "concentric", "--alpha", "1.3,1.4",
                         "--output", str(tmp_path / "no" / "dir" / "x.csv"))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "x.csv" in err


def test_sweep_timing_fills_only_wall_ms(capsys):
    argv = ["sweep", "--family", "concentric", "--alpha", "1.3,1.5", "--evaluators", "exact,pfa",
            "--rel-tol", "1e-3"]
    outputs = {}
    for fmt, timing in itertools.product(["csv", "json"], [(), ("--timing",)]):
        code, outputs[fmt, bool(timing)], _ = run(capsys, *argv, "--format", fmt, *timing)
        assert code == 0
    rows = json.loads(outputs["json", True])
    assert all(type(row["wall_ms"]) is int and row["wall_ms"] >= 0 for row in rows)
    untimed = [dict(row, wall_ms=0) for row in rows]
    assert json.dumps(untimed, indent=2, sort_keys=True) + "\n" == outputs["json", False]
    col = CSV_COLUMNS.index("wall_ms")
    cells = [line.split(",") for line in outputs["csv", True].splitlines()]
    assert all(int(row[col]) >= 0 for row in cells[1:])
    for row in cells[1:]:
        row[col] = "0"
    assert "".join(",".join(row) + "\n" for row in cells) == outputs["csv", False]


# The sweeps of each golden file in tests/data, one after another; CI compares
# the installed console script's output with --workers 2 against the same files.
GOLDEN_SWEEPS = {
    "sweep_golden.csv": (
        ("--family", "concentric", "--alpha", "1.05,1.3,2", "--evaluators", "exact,accelerated,nntl"),
        ("--family", "cylplane", "--h-over-a", "1.5,2.5"),
        ("--family", "eccentric", "--alpha", "2", "--delta", "0.25,0.5"),
    ),
    # the adaptive-panel rule integrates each truncation order panel by panel
    "sweep_golden_adaptive.csv": tuple(argv + ("--rule", "adaptive-panel") for argv in (
        ("--family", "concentric", "--alpha", "1.05,1.3,2", "--evaluators", "exact,accelerated"),
        ("--family", "eccentric", "--alpha", "2", "--delta", "0.25,0.5"),
        ("--family", "cylplane", "--h-over-a", "1.5,2.5"),
    )),
}


def test_sweep_output_matches_the_golden_file(capsys):
    # faster code must print the same bytes
    for golden, sweeps in GOLDEN_SWEEPS.items():
        outputs = []
        for argv in sweeps:
            code, out, err = run(capsys, "sweep", *argv)
            assert code == 0, err
            outputs.append(out)
        path = os.path.join(os.path.dirname(__file__), "data", golden)
        with open(path, newline="") as fh:
            assert "".join(outputs) == fh.read(), golden


def test_sweep_worker_determinism(tmp_path, capsys):
    sweeps = [
        ["concentric", "--alpha", "1.2:1.5:4", "--evaluators", "exact,accelerated,nntl"],
        ["cylplane", "--h-over-a", "1.5,2,3", "--evaluators", "exact", "--rel-tol", "1e-3"],
    ]
    for family, fmt in itertools.product(sweeps, ["csv", "json"]):
        args = ["sweep", "--family", *family, "--format", fmt]
        p1 = tmp_path / "w1.out"
        p2 = tmp_path / "w2.out"
        assert run(capsys, *args, "--output", str(p1), "--workers", "1")[0] == 0
        assert run(capsys, *args, "--output", str(p2), "--workers", "2")[0] == 0
        assert p1.read_bytes() == p2.read_bytes(), (family, fmt)


def _python(code, *argv, **env):
    """Run ``code`` (or the script file ``argv[0]``) in a fresh interpreter; return its stdout."""
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(casimir_cylinders.__file__))
    command = [sys.executable, *argv] if code is None else [sys.executable, "-c", code]
    proc = subprocess.run(command, env=env, capture_output=True, text=True, check=True, timeout=120)
    return proc.stdout.strip()


# Defines blas_threads(): the thread count of numpy's bundled OpenBLAS, or
# None where it ships none with a known symbol.
_BLAS_THREADS = """\
import ctypes, glob, os, numpy

def blas_threads():
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, 'numpy.libs', '*openblas*')
    for lib in glob.glob(libs):
        for sym in ('scipy_openblas_get_num_threads64_', 'openblas_get_num_threads64_',
                    'openblas_get_num_threads'):
            get = getattr(ctypes.CDLL(lib), sym, None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                return get()
    return None
"""


def test_cli_import_loads_no_scipy():
    out = _python("import sys, casimir_cylinders.cli; "
                  "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert out == "[]"


def test_sweep_worker_initializer_sets_one_blas_thread():
    # the environment asks for two threads, so the initializer has work to do
    out = _python(_BLAS_THREADS + "from casimir_cylinders import cli\n"
                  "cli._one_blas_thread()\n"
                  "print(blas_threads())\n", OPENBLAS_NUM_THREADS="2")
    if out == "None":
        pytest.skip("numpy ships no OpenBLAS with a known thread-count symbol")
    assert out == "1"


# A sweep through cli.main whose rows report, instead of energies, the
# worker's pid (e_hat), OS thread count (e_tm) and OpenBLAS thread count (e_te).
_THREAD_PROBE_SWEEP = _BLAS_THREADS + """\
import multiprocessing, sys, time
from casimir_cylinders import cli

def probe(geometry, evaluator, t, q):
    time.sleep(0.1)  # long enough for every worker to take a row
    return {"e_hat": os.getpid(), "e_tm": len(os.listdir("/proc/self/task")), "e_te": blas_threads(),
            "est_rel_error": 0.0, "n_max": 0, "nodes": 0}

cli._evaluate = probe

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    print(os.getpid(), blas_threads())
    cli.main(["sweep", "--family", "concentric", "--alpha", "1.5:1.8:4", "--workers", "2"])
"""


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_sweep_workers_run_one_blas_thread(tmp_path, method):
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc thread listing")
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("a sweep on one core runs no pool")
    script = tmp_path / "probe.py"
    script.write_text(_THREAD_PROBE_SWEEP)
    parent, *csv = _python(None, str(script), method, OPENBLAS_NUM_THREADS="2").splitlines()
    parent_pid, parent_blas = parent.split()
    if parent_blas == "None":
        pytest.skip("numpy ships no OpenBLAS with a known thread-count symbol")
    rows = [dict(zip(CSV_COLUMNS, line.split(","))) for line in csv[1:]]
    assert len(rows) == 4 and parent_pid not in {r["e_hat"] for r in rows}
    assert {r["e_te"] for r in rows} == {"1"}
    if method == "fork":
        # the cap came from the parent: no worker restarted an OpenBLAS helper thread
        assert {r["e_tm"] for r in rows} == {"1"}


def test_sweep_env_caps_workers(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CASIMIR_THREADS", "1")
    p = tmp_path / "env.csv"
    code, _, _ = run(capsys, "sweep", "--family", "concentric", "--alpha", "1.3",
                     "--evaluators", "pfa", "--output", str(p), "--workers", "8")
    assert code == 0 and p.exists()


def test_sweep_env_cap_must_be_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("CASIMIR_THREADS", "abc")
    code, out, err = run(capsys, "sweep", "--family", "concentric", "--alpha", "1.3",
                         "--evaluators", "pfa", "--workers", "2")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "CASIMIR_THREADS" in err


def test_sweep_json_format(capsys):
    code, out, _ = run(capsys, "sweep", "--family", "cylplane", "--h-over-a", "1.8",
                       "--evaluators", "exact", "--format", "json", "--rel-tol", "1e-3")
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["geometry_family"] == "cylplane"
    assert rows[0]["delta_or_h"] == 1.8
    assert rows[0]["e_hat"] < 0.0


def test_sweep_partial_failure_rows(tmp_path, capsys):
    # asymptote refuses alpha < 2: rows get a status and the exit is nonzero
    p = tmp_path / "fail.csv"
    code, _, _ = run(capsys, "sweep", "--family", "concentric", "--alpha", "1.5,4",
                     "--evaluators", "asymptote", "--output", str(p))
    assert code == 2
    lines = p.read_text().splitlines()
    statuses = [line.split(",")[-1] for line in lines[1:]]
    assert any(s != "ok" for s in statuses) and any(s == "ok" for s in statuses)


def test_matrix_dump_flag(tmp_path, capsys):
    dump = tmp_path / "matrix.txt"
    code, _, _ = run(capsys, "cylplane", "--h-over-a", "2", "--rel-tol", "1e-3",
                     "--dump-matrix", str(dump))
    assert code == 0
    text = dump.read_text()
    assert text.startswith("#") and "TM" in text and "TE" in text


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "selftest: PASS" in out
    assert "5.5728" in out  # slow-series checkpoint appears in the table


def test_geometry_json_input(tmp_path, capsys):
    path = tmp_path / "geom.json"
    path.write_text(json.dumps({"type": "eccentric", "alpha": 2.0, "delta": 0.5}))
    code, out, _ = run(capsys, "eccentric", "--geometry-json", str(path),
                       "--rel-tol", "1e-3", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["geometry"] == {"type": "eccentric", "alpha": 2.0, "delta": 0.5}
    # type mismatch between file and subcommand is a usage error
    code, _, err = run(capsys, "concentric", "--geometry-json", str(path))
    assert code == 1
    # missing shape flags without a geometry file is a usage error
    code, _, err = run(capsys, "concentric")
    assert code == 1 and "--alpha" in err


_RACKPINION = ["rackpinion", "--amplitude", "1e-8", "--wavelength", "1e-6", "--displacement", "0",
               "--gap", "1e-6", "--radius", "1e-4", "--length", "1e-2"]


@pytest.mark.parametrize("argv, files", [
    (["sweep", "--family", "concentric", "--alpha", "1.3", "--config", "{tmp}/missing.json"], {}),
    (["sweep", "--family", "concentric", "--alpha", "1.3", "--evaluators", "pfa",
      "--output", "{tmp}/no/dir/x.csv"], {}),
    (["eccentric", "--alpha", "2", "--delta", "0.5", "--rel-tol", "1e-3",
      "--dump-matrix", "{tmp}/no/dir/d.txt"], {}),
    (["concentric", "--geometry-json", "{tmp}/g.json"], {"g.json": "[1,2]"}),
    (["concentric", "--geometry-json", "{tmp}/g.json"], {"g.json": '{"type":"concentric","alpha":null}'}),
    (["concentric", "--alpha", "1.3", "--config", "{tmp}/c.json"], {"c.json": "null"}),
    (["concentric", "--alpha", "1.3", "--config", "{tmp}/c.json"], {"c.json": '{"nodes": null}'}),
    (["sweep", "--family", "concentric", "--alpha", "1.3", "--config", "{tmp}/c.json"],
     {"c.json": '{"nodes": null}'}),
    (_RACKPINION + ["--j-table", "{tmp}/j.txt"], {"j.txt": "0.5\n1.0\n2.0\n"}),
    (_RACKPINION + ["--j-table", "{tmp}/j.txt"], {"j.txt": "0.5 nan\n1.0 2.0\n2.0 inf\n"}),
    (_RACKPINION + ["--j-table", "{tmp}/j.txt"], {"j.txt": "nan 1.0\n1.0 2.0\n2.0 4.0\n"}),
    (["concentric", "--alpha", "2", "--config", "{tmp}/c.json"], {"c.json": '{"nodes": 1e400}'}),
    (["concentric", "--alpha", "2", "--config", "{tmp}/c.json"], {"c.json": '{"nodes": 64.9}'}),
    (["concentric", "--alpha", "2", "--rel-tol", "inf"], {}),
    (["concentric", "--alpha", "2", "--scale", "inf"], {}),
    (["sweep", "--family", "concentric", "--alpha", "1.3", "--scale", "inf"], {}),
    (["concentric", "--alpha", "2", "--config", "{tmp}/c.json"], {"c.json": '{"rel_tol": 1e400}'}),
    (["sweep", "--family", "concentric", "--alpha", "1.3:9:0"], {}),
    (["sweep", "--family", "concentric", "--alpha", "1.3", "--evaluators", ","], {}),
    (["sweep", "--family", "concentric", "--alpha", "1.3", "--evaluators", "foo"], {}),
    # a non-exact evaluator serves concentric shells only, checked before any row is solved
    (["sweep", "--family", "eccentric", "--alpha", "2", "--delta", "0.5", "--evaluators", "accelerated"], {}),
    (["sweep", "--family", "eccentric", "--alpha", "2", "--delta", "0.5", "--evaluators", "exact,pfa"], {}),
])
def test_malformed_input_is_a_named_usage_error(tmp_path, capsys, argv, files):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_empty_j_table_prints_only_the_named_error(tmp_path):
    # a fresh interpreter with the default warning filters, so a warning
    # from reading the file would reach stderr ahead of the error line
    path = tmp_path / "j.txt"
    path.write_text("")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(casimir_cylinders.__file__)))
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run([sys.executable, "-m", "casimir_cylinders.cli", *_RACKPINION, "--j-table", str(path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: need a two-column table of d/lambda and J, got shape (0, 1)\n"


@pytest.mark.parametrize("key", ["rel_tol", "nodes", "scale"])
@pytest.mark.parametrize("value", ["true", "false"])
def test_config_booleans_are_a_named_usage_error(tmp_path, capsys, key, value):
    path = tmp_path / "c.json"
    path.write_text(f'{{"{key}": {value}}}')
    code, out, err = run(capsys, "concentric", "--alpha", "2", "--config", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: config {key} must be a number or a string, not {value.title()}\n"


@pytest.mark.parametrize("nodes", ["64", "64.0", '"64"'])
def test_config_nodes_may_be_any_whole_number(tmp_path, capsys, nodes):
    path = tmp_path / "c.json"
    path.write_text(f'{{"nodes": {nodes}}}')
    from_config = run(capsys, "concentric", "--alpha", "2", "--config", str(path))
    assert from_config == run(capsys, "concentric", "--alpha", "2", "--nodes", "64")
    assert from_config[0] == 0


def test_missing_geometry_field_keeps_its_message(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text('{"type": "concentric"}')
    assert run(capsys, "concentric", "--geometry-json", str(path)) == (1, "", "error: 'alpha'\n")


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: runs each task at submit, starts no process."""

    sizes = []

    def __init__(self, max_workers, initializer):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


def _recorded_pool_sizes(capsys, monkeypatch, alphas, workers):
    """Pool sizes a pfa sweep over ``alphas`` asks for; checks its output row count."""
    monkeypatch.delenv("CASIMIR_THREADS", raising=False)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    code, out, _ = run(capsys, "sweep", "--family", "concentric", "--alpha", alphas,
                       "--evaluators", "pfa", "--workers", workers)
    assert code == 0 and len(out.splitlines()) == 1 + len(cli._parse_grid(alphas))
    return _RecordingPool.sizes


@pytest.mark.parametrize("alphas, workers, sizes", [
    ("1.5", "2", []),  # one row runs in the parent
    ("1.5,1.6", "8", [2]),
    ("1.5:1.8:4", "3", [3]),
    ("1.5,1.6", "1", []),
])
def test_sweep_pool_never_exceeds_the_rows(capsys, monkeypatch, alphas, workers, sizes):
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda _pid: set(range(64)), raising=False)
    assert _recorded_pool_sizes(capsys, monkeypatch, alphas, workers) == sizes


@pytest.mark.parametrize("affinity", [True, False], ids=["affinity", "cpu_count"])
def test_sweep_pool_never_exceeds_the_cores(capsys, monkeypatch, affinity):
    if affinity:
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda _pid: {0, 1, 2}, raising=False)
    else:  # platforms without affinity masks fall back to the core count
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    assert _recorded_pool_sizes(capsys, monkeypatch, "1.5:1.9:40", "5000") == [3]


def _no_nodes(*_args):
    raise AssertionError("quadrature nodes built for a node count that cannot converge")


@pytest.mark.parametrize("argv", [
    ["concentric", "--alpha", "2", "--nodes", "2049"],
    ["concentric", "--alpha", "1.05", "--evaluator", "accelerated", "--nodes", "100000"],
    ["eccentric", "--alpha", "2", "--delta", "0.5", "--nodes", "100000"],
])
def test_node_count_past_the_cap_fails_before_any_work(capsys, monkeypatch, argv):
    monkeypatch.setattr(engine, "semi_infinite_nodes", _no_nodes)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "no-convergence: node cap 4096 reached without quadrature convergence\n"


# ---------------------------------------------------------------------------
# Fuzzed arguments: every outcome is exit 0, 1 or 2, or argparse's SystemExit(1);
# no other exception escapes main.  Shapes, flags and files mix cheap valid
# values with junk.

_JUNK = ["abc", "", "inf", "nan", "-1", "0", "1e400"]
_SHAPES = {"alpha": ["1.6", "2", "5"], "delta": ["0", "0.2"], "h-over-a": ["1.5", "3"]}
_RACK = {"amplitude": ["1e-8"], "wavelength": ["1e-6"], "displacement": ["0", "2.5e-7"],
         "gap": ["1e-6"], "radius": ["1e-4", "5e-6"], "length": ["1e-2"]}
_FILES = {
    "config": ['{"rel_tol": 1e-3, "nodes": 64}', "null", "[1,2]", '{"nodes": null}',
               '{"nodes": "abc"}', '{"rule": 5}', '{"scale": [1]}', "{not json", None],
    "geometry": ['{"type": "concentric", "alpha": 2}', '{"type": "eccentric", "alpha": 2, "delta": 0.2}',
                 '{"type": "cylinder-plane", "h_over_a": 2}', '{"type": "concentric", "alpha": 1e300}',
                 "[1,2]", '{"type": "concentric", "alpha": null}', '{"type": "concentric"}',
                 '{"type": [1]}', '{"type": "eccentric", "alpha": "abc", "delta": 0}', "{not json", None],
    "jtable": ["0.5 1.0\n1.0 1.2\n2.0 1.5\n", "0.5\n1.0\n", "0.5 1 2\n1 2 3\n", "1 1\n0.5 2\n",
               "x y\n", "", None],
}


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """kind -> paths of the junk and valid input files; None names a missing file."""
    root = tmp_path_factory.mktemp("fuzz")
    paths = {}
    for kind, texts in _FILES.items():
        paths[kind] = []
        for i, text in enumerate(texts):
            path = root / f"{kind}{i}.txt"
            if text is not None:
                path.write_text(text)
            paths[kind].append(str(path))
    paths["output"] = [str(root / "out.txt"), str(root / "no" / "out.txt")]
    return paths


def _value(valid):
    return st.one_of(st.sampled_from(valid), st.sampled_from(_JUNK))


def _pair(flag, values):
    return values.map(lambda v: [flag, v])


def _option(flag, values):
    return st.one_of(st.just([]), _pair(flag, values))


def _grid(valid):
    return st.one_of(st.lists(_value(valid), min_size=1, max_size=3).map(",".join),
                     st.sampled_from(["1.6:2:3", "1:2", "1:2:0"]))


def _argv(files):
    common = [
        _option("--nodes", st.sampled_from(["4", "8", "64", "abc"])),
        _option("--rel-tol", st.sampled_from(["1e-3", "0", "-1", "abc"])),
        _option("--config", st.sampled_from(files["config"])),
    ]
    energy = [
        st.tuples(st.just([command]),
                  *(_option(f"--{flag}", _value(_SHAPES[flag])) for flag in flags),
                  _option("--geometry-json", st.sampled_from(files["geometry"])),
                  _option("--evaluator", st.sampled_from(list(cli.ALL_EVALUATORS) + ["bogus"])),
                  _option("--a-meters", st.sampled_from(["1e-6", "0", "nan"])),
                  _option("--L-meters", st.sampled_from(["1e-2"])),
                  _option("--dump-matrix", st.sampled_from(files["output"])),
                  _option("--format", st.sampled_from(["text", "json"])),
                  *common)
        for command, flags in (("concentric", ["alpha"]), ("eccentric", ["alpha", "delta"]),
                               ("cylplane", ["h-over-a"]))
    ]
    rack = st.tuples(st.just(["rackpinion"]),
                     *(_pair(f"--{flag}", _value(valid)) for flag, valid in _RACK.items()),
                     _option("--j-table", st.sampled_from(files["jtable"])),
                     _option("--format", st.sampled_from(["text", "json"])))
    sweep = st.tuples(st.just(["sweep"]),
                      _pair("--family", st.sampled_from(["concentric", "eccentric", "cylplane", "torus"])),
                      *(_option(f"--{flag}", _grid(valid)) for flag, valid in _SHAPES.items()),
                      _option("--evaluators", st.sampled_from(["exact", "pfa,nntl", "exact,accelerated",
                                                               "asymptote", "", "foo"])),
                      _option("--workers", st.sampled_from(["-1", "0", "1", "2", "x"])),
                      _option("--output", st.sampled_from(files["output"])),
                      _option("--format", st.sampled_from(["csv", "json"])),
                      *common)
    return st.one_of(*energy, rack, sweep, st.just((["selftest"],))).map(lambda parts: sum(parts, []))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fuzzed_arguments_exit_0_1_or_2(fuzz_files, data):
    argv = data.draw(_argv(fuzz_files), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
            assert code == 1
    assert code in (0, 1, 2)
