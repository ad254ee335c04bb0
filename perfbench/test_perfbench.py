"""Tests of the benchmark itself (not part of the package suite).

    python3 -m pytest perfbench
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402
from casimir_cylinders import engine, kernel  # noqa: E402
from casimir_cylinders.geometry import Concentric, CylinderPlane  # noqa: E402


def test_same_seed_same_points():
    for make in (wl.concentric_solves, wl.matrix_solves, wl.sweep_commands):
        assert make(7) == make(7)
        assert make(7) != make(8)


def test_points_stay_in_their_ranges():
    alphas = wl.concentric_alphas(3)
    assert alphas[: len(wl.CONCENTRIC_ANCHORS)] == list(wl.CONCENTRIC_ANCHORS)
    for a in alphas:
        assert wl.RATIO_BOUNDS[0] <= a - 1.0 <= wl.RATIO_BOUNDS[1] + 1e-12
    points = wl.matrix_points(3)
    assert points[: len(wl.MATRIX_ANCHORS)] == list(wl.MATRIX_ANCHORS)
    for point in points[len(wl.MATRIX_ANCHORS):]:
        if point[0] == "eccentric":
            alpha, delta = point[1:]
            assert wl.ECC_ALPHA[0] <= alpha <= wl.ECC_ALPHA[1]
            assert alpha - 1.0 - delta >= wl.ECC_MIN_GAP - 1e-12
        else:
            assert wl.PLANE_H[0] <= point[1] <= wl.PLANE_H[1]


def _originals():
    mods = {"engine": engine, "kernel": kernel}
    return {(m, a): getattr(mods[m], a) for m, a, _, _ in tracer.LOOKUP_POINTS}


def _traced_solves():
    with tracer.Tracer() as t:
        engine.energy_exact(Concentric(2.0))
        engine.energy_exact(CylinderPlane(3.0))
    return t


def test_wrappers_removed_after_traced_run():
    before = _originals()
    t = _traced_solves()
    assert _originals() == before
    assert not t.missing
    names = {s[0] for s in t.spans}
    assert {"energy_exact", "step", "semi_infinite_nodes", "concentric_log_ratios",
            "build_cylinder_plane", "log_det_one_minus", "log_k_ladder"} <= names
    with pytest.raises(ZeroDivisionError):
        with tracer.Tracer():
            1 / 0
    assert _originals() == before


def test_spans_nest_and_share_solve_ids():
    spans = _traced_solves().spans
    roots = [s for s in spans if s[3] == -1]
    assert [s[0] for s in roots] == ["energy_exact", "energy_exact"]
    assert {s[4] for s in spans} == {1, 2}
    for name, start, end, parent, solve, _ in spans:
        if parent >= 0:
            p = spans[parent]
            assert p[1] <= start <= end <= p[2] and p[4] == solve


def test_computed_counts_repeat_exactly():
    a = tracer.summarize([_traced_solves().spans])
    b = tracer.summarize([_traced_solves().spans])
    for name in run.COMPUTED:
        assert a[name] == b[name] and a[name] > 0
    assert a["engine.solves"] == 2
    assert 0.0 < a["engine.useful_frac"] < 1.0


def test_gate_rejects_perturbed_energy():
    refs = wl.load_references()
    k = "exact:eccentric:2.0:0.5"
    ref = refs[k]
    est = 1e-5
    good = ref["e_hat"] * (1.0 + 0.5 * est)
    bad = ref["e_hat"] * (1.0 + 3.0 * est + ref["est_rel_error"])
    assert wl.gate_solves({k: (good, est, True)}, refs)[k] == []
    assert wl.gate_solves({k: (bad, est, True)}, refs)[k]
    assert wl.gate_solves({k: (-good, est, True)}, refs)[k]  # positive energy
    assert wl.gate_solves({k: (good, 2e-4, True)}, refs)[k]  # est above rel_tol


def test_gate_checks_exact_against_accelerated():
    results = {
        "exact:concentric:1.3": (-100.0, 1e-5, True),
        "accelerated:concentric:1.3": (-100.0 * (1 + 3e-5), 1e-5, True),
    }
    assert wl.gate_solves(results, {})["exact:concentric:1.3"]
    results["accelerated:concentric:1.3"] = (-100.0 * (1 + 1e-5), 1e-5, True)
    assert not any(wl.gate_solves(results, {}).values())


def test_sweep_gate_wants_grid_order_and_ok_status():
    header = "geometry_family,alpha,delta_or_h,evaluator,e_hat,e_tm,e_te,est_rel_error,n_max,nodes,wall_ms,status"
    row = "concentric,{a},0,{ev},-10,-5,-5,{est},16,256,3,{st}"
    good = "\n".join([header, row.format(a=1.5, ev="exact", est=1e-6, st="ok"),
                      row.format(a=1.5, ev="nntl", est=0, st="ok")])
    rows = wl.parse_sweep_csv(good)
    assert not any(wl.gate_sweep(rows, "concentric", [1.5], ("exact", "nntl")))
    assert any(wl.gate_sweep(rows[::-1], "concentric", [1.5], ("exact", "nntl")))
    failed = wl.parse_sweep_csv(good.replace(",ok", ",no-convergence", 1))
    assert any(wl.gate_sweep(failed, "concentric", [1.5], ("exact", "nntl")))
    short = wl.gate_sweep(rows[:1], "concentric", [1.5, 2.0], ("exact", "nntl"))
    assert len(short) == 4 and [bool(f) for f in short] == [False, True, True, True]


def test_tail_has_ten_samples_beyond():
    value, label = run.tail(list(range(100)))
    assert value == 89 and label.startswith("p90")
    value, label = run.tail(list(range(15)))
    assert value == 7 and label.startswith("median")
