import json
import os

import pytest

from casimir_cylinders import engine
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


def test_underflowing_energy_exits_2_named(capsys):
    code, out, err = run(capsys, "concentric", "--alpha", "1e300")
    assert code == 2 and out == ""
    assert err.startswith("no-convergence:") and "underflow" in err
    assert "Traceback" not in err


def _failing_solver(exc):
    def energy_exact(*_args, **_kwargs):
        raise exc

    return energy_exact


def test_unmapped_solver_error_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(
        engine, "energy_exact",
        _failing_solver(RuntimeError("continued fraction for I_n/I_{n+1} did not converge")),
    )
    code, out, err = run(capsys, "cylplane", "--h-over-a", "2")
    assert code == 2 and out == ""
    assert err == "error: continued fraction for I_n/I_{n+1} did not converge\n"
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


def test_sweep_worker_determinism(tmp_path, capsys):
    args = ["sweep", "--family", "concentric", "--alpha", "1.2:1.5:4",
            "--evaluators", "exact,nntl"]
    p1 = tmp_path / "w1.csv"
    p2 = tmp_path / "w2.csv"
    assert run(capsys, *args, "--output", str(p1), "--workers", "1")[0] == 0
    assert run(capsys, *args, "--output", str(p2), "--workers", "4")[0] == 0
    assert p1.read_bytes() == p2.read_bytes()


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
