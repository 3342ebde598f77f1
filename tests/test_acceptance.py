"""Acceptance gate: eleven numbered criteria, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
are produced.  Every criterion states its tolerance inline; a failed
assertion marks the criterion FAIL and the pytest failure carries the
measured quantity.
"""

import json
import math
import shlex
import time

import numpy as np

from oracles import cofactor_det
from polyharm import (
    BorderedSystem,
    PointSet,
    RadialPower,
    ThinPlateSpline,
    Uniform,
    assemble,
    cardinal_values,
    default_query_points,
    det3_null_diag,
    diagnostics,
    evaluate,
    incremental_growth,
    lu_sign_logabs,
    make_rng,
    monomial_matrix,
    sample,
    scale_invariance_check,
    solve_augmented,
    solve_unaugmented,
    sphere_counterexample,
    unit_box,
)

MIXED_KERNELS = (
    ThinPlateSpline(1),
    ThinPlateSpline(2),
    RadialPower(0.5),
    RadialPower(1.0),
    RadialPower(1.5),
    RadialPower(3.0),
)


def report(num, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def run_verify(run_cli, command):
    start = time.perf_counter()
    code, out, err = run_cli(shlex.split(command))
    elapsed = time.perf_counter() - start
    assert code == 0, f"{command!r} exited {code}: {err}"
    body = out.split("\n", 1)[1] if out.startswith("EXPLORATORY:") else out
    return json.loads(body), elapsed


def test_criterion_01_tps_verification(run_cli):
    commands = [
        "verify --kernel tps:k=1 --dim 2 --n 5,20,50,100 --trials 200 --seed 42 --tau 1e-12",
        "verify --kernel tps:k=2 --dim 2 --n 5,20,50,100 --trials 200 --seed 42 --tau 1e-12",
        "verify --kernel tps:k=1 --dim 3 --n 5,20,50 --trials 100 --seed 42 --tau 1e-12",
        "verify --kernel tps:k=2 --dim 3 --n 5,20,50 --trials 100 --seed 42 --tau 1e-12",
    ]
    worst = 0.0
    for command in commands:
        doc, elapsed = run_verify(run_cli, command)
        worst = max(worst, elapsed)
        assert doc["total_failures"] == 0, command
        assert all(a["failure_rate"] == 0.0 for a in doc["aggregates"]), command
        assert elapsed < 60.0, f"{command!r} took {elapsed:.1f}s"
    report(1, True, f"4 thin-plate runs, 0 failures in 2200 trials, slowest {worst:.2f}s < 60s")


def test_criterion_02_radial_power_verification(run_cli):
    total = 0
    for nu in ("0.5", "1", "1.5", "3"):
        command = (
            f"verify --kernel rp:nu={nu} --dim 2 --n 5,20,50,100"
            " --trials 200 --seed 42 --tau 1e-12"
        )
        doc, elapsed = run_verify(run_cli, command)
        assert doc["total_failures"] == 0, command
        assert elapsed < 60.0, command
        total += len(doc["records"])
    report(2, True, f"4 radial-power runs, 0 failures in {total} trials")


def test_criterion_03_counterexample_exactness():
    checked = 0
    for n in (3, 5, 9):
        points = sphere_counterexample(2, n)
        for k in (1, 2):
            diag = diagnostics(assemble(points, ThinPlateSpline(k)).entries)
            assert diag.sigma_min == 0.0, (n, k)
            assert diag.det_sign == 0, (n, k)
            checked += 1
    report(3, True, f"{checked} sphere configurations exactly singular "
                    "(sigma_min == 0.0 and det_sign == 0)")


def test_criterion_04_base_case_closed_forms():
    rng = make_rng(404)
    worst_pair = 0.0
    worst_triple = 0.0
    for kernel in MIXED_KERNELS:
        for _ in range(100):
            pts = PointSet(rng.random((2, 2)) * 3.0)
            sign, log_abs = lu_sign_logabs(assemble(pts, kernel).entries)
            det = sign * math.exp(log_abs)
            phi = kernel.value(float(np.linalg.norm(pts.points[1] - pts.points[0])))
            rel = abs(det - (-phi * phi)) / abs(phi * phi)
            worst_pair = max(worst_pair, rel)
        for _ in range(100):
            pts = PointSet(rng.random((3, 2)) * 3.0)
            entries = assemble(pts, kernel).entries
            sign, log_abs = lu_sign_logabs(entries)
            det = sign * math.exp(log_abs)
            reference = det3_null_diag(entries)
            rel = abs(det - reference) / abs(reference)
            worst_triple = max(worst_triple, rel)
            if isinstance(kernel, RadialPower):
                assert (entries[np.triu_indices(3, 1)] > 0.0).all()
                assert reference > 0.0 and det > 0.0
    assert worst_pair <= 1e-12, worst_pair
    assert worst_triple <= 1e-12, worst_triple
    report(4, True, f"det V_2 = -phi^2 (rel {worst_pair:.2e}) and det V_3 = "
                    f"det3_null_diag (rel {worst_triple:.2e}), both <= 1e-12; "
                    "radial-power triples positive")


def growth_runs():
    for i in range(50):
        kernel = MIXED_KERNELS[i % len(MIXED_KERNELS)]
        yield i, kernel, 1000 + i


def test_criterion_05_induction_identity():
    checked = 0
    skipped = 0
    worst = 0.0
    for _, kernel, seed in growth_runs():
        run = incremental_growth(kernel, unit_box(2), Uniform(), 30, seed)
        for step in run.steps:
            if step.cond_base > 1e10:
                skipped += 1
                continue
            worst = max(worst, step.rel_disagreement)
            assert step.rel_disagreement <= 1e-8, (kernel, seed, step.n)
            checked += 1
    report(5, True, f"f_n(x_n+1) vs det(V_n+1) on {checked} well-conditioned growth "
                    f"steps ({skipped} skipped at cond > 1e10), worst rel {worst:.2e} <= 1e-8")


def test_criterion_06_repeated_row_degeneracy():
    checked = 0
    worst = 0.0
    for _, kernel, seed in growth_runs():
        points = sample(unit_box(2), Uniform(), 30, seed)
        system = BorderedSystem(assemble(points, kernel))
        if system.base_diagnostics.singular_verdict:
            continue
        base_det = abs(
            system.base_diagnostics.det_sign
            * math.exp(system.base_diagnostics.log_abs_det)
        )
        for j in range(points.n):
            border = system.border(points.points[j])
            scale = base_det * max(1.0, float(border @ border))
            ratio = abs(system.determinant(points.points[j])) / scale
            worst = max(worst, ratio)
            assert ratio <= 1e-8, (kernel, seed, j)
            checked += 1
    report(6, True, f"|f_n(x_j)| at {checked} existing nodes <= 1e-8 x matrix scale, "
                    f"worst {worst:.2e}")


def test_criterion_07_scale_invariance():
    pts = sample(unit_box(2), Uniform(), 12, 707)
    values = make_rng(708).standard_normal(12)
    queries = default_query_points(pts, 36)
    worst_surface = 0.0
    worst_cond = 0.0
    worst_cardinal = 0.0
    for nu in (0.5, 1.0, 1.5, 3.0):
        kernel = RadialPower(nu)
        rep = scale_invariance_check(pts, values, kernel, (0.25, 1.0, 4.0), queries=queries)
        assert rep.passed is True, nu
        worst_surface = max(worst_surface, rep.max_rel_deviation)
        worst_cond = max(worst_cond, rep.cond_rel_spread)
        stack = np.stack([
            cardinal_values(pts, kernel, eps, queries) for eps in (0.25, 1.0, 4.0)
        ])
        spread = float((stack.max(axis=0) - stack.min(axis=0)).max())
        deviation = spread / max(float(np.abs(stack).max()), 1e-300)
        worst_cardinal = max(worst_cardinal, deviation)
        assert deviation <= 1e-9, nu
    assert worst_surface <= 1e-9 and worst_cond <= 1e-12

    tps = scale_invariance_check(pts, values, ThinPlateSpline(1), (0.5, 2.0), degree=1,
                                 queries=queries)
    assert tps.passed is True
    assert tps.max_rel_deviation <= 1e-7
    report(7, True, f"radial powers: interpolants {worst_surface:.2e} <= 1e-9, cardinal "
                    f"matrices {worst_cardinal:.2e} <= 1e-9, conditions {worst_cond:.2e} "
                    f"<= 1e-12; augmented thin-plate {tps.max_rel_deviation:.2e} <= 1e-7")


def test_criterion_08_interpolation_property():
    worst_residual = 0.0
    worst_moment = 0.0
    systems = 0
    for seed in (801, 802, 803):
        pts = sample(unit_box(2), Uniform(), 20, seed)
        values = np.sin(4.0 * pts.points[:, 0]) * np.cosh(pts.points[:, 1])
        scale = float(np.abs(values).max())
        for kernel in MIXED_KERNELS:
            model = solve_unaugmented(pts, values, kernel)
            if model.diagnostics.condition > 1e10:
                continue
            residual = float(np.abs(evaluate(model, pts.points) - values).max())
            worst_residual = max(worst_residual, residual / scale)
            assert residual <= 1e-8 * scale, (kernel, seed)

            augmented = solve_augmented(pts, values, kernel)
            residual = float(np.abs(evaluate(augmented, pts.points) - values).max())
            assert residual <= 1e-8 * scale, (kernel, seed)
            poly = monomial_matrix(pts.points, augmented.tail.degree)
            moment = float(np.abs(poly.T @ augmented.coefficients).max())
            coeff_mass = float(np.abs(augmented.coefficients).sum())
            worst_moment = max(worst_moment, moment / max(coeff_mass, 1e-300))
            assert moment <= 1e-10 * coeff_mass, (kernel, seed)
            systems += 2

    # degree-q data must be reproduced with vanishing kernel coefficients
    pts = sample(unit_box(2), Uniform(), 25, 804)
    x, y = pts.points[:, 0], pts.points[:, 1]
    reproduction_cases = (
        (ThinPlateSpline(1), 1, 0.3 + 1.7 * x - 0.4 * y),
        (RadialPower(3.0), 1, -1.0 + 0.5 * x + 2.0 * y),
        (ThinPlateSpline(2), 2, 0.2 + x - y + 0.7 * x * x - 0.3 * x * y + 0.1 * y * y),
    )
    worst_coeff = 0.0
    for kernel, degree, data in reproduction_cases:
        model = solve_augmented(pts, data, kernel, degree=degree)
        coeff_max = float(np.abs(model.coefficients).max())
        worst_coeff = max(worst_coeff, coeff_max)
        assert coeff_max <= 1e-8, kernel
    report(8, True, f"{systems} well-conditioned systems: node residuals "
                    f"{worst_residual:.2e} <= 1e-8 x ||f||, moments {worst_moment:.2e} "
                    f"<= 1e-10 x ||c||_1, polynomial reproduction coefficients "
                    f"{worst_coeff:.2e} <= 1e-8")


def test_criterion_09_oracle_equivalence():
    rng = make_rng(12345)
    worst_det = 0.0
    for i in range(300):
        n = 2 + i % 5
        matrix = rng.standard_normal((n, n))
        sign, log_abs = lu_sign_logabs(matrix)
        det = sign * math.exp(log_abs)
        reference = cofactor_det(matrix)
        rel = abs(det - reference) / abs(reference)
        worst_det = max(worst_det, rel)
        assert rel <= 1e-10, i
    worst_route = 0.0
    fresh = np.array([0.37, 0.81])
    for n in (5, 12, 30):
        for kernel in (ThinPlateSpline(1), RadialPower(1.5)):
            system = BorderedSystem(assemble(sample(unit_box(2), Uniform(), n, 900 + n), kernel))
            schur = system.determinant(fresh, method="schur")
            direct = system.determinant(fresh, method="direct")
            rel = abs(schur - direct) / abs(direct)
            worst_route = max(worst_route, rel)
            assert rel <= 1e-8, (n, kernel)
    report(9, True, f"factorization vs cofactor on 300 matrices, rel {worst_det:.2e} "
                    f"<= 1e-10; Schur vs direct rel {worst_route:.2e} <= 1e-8")


def test_criterion_10_determinism(run_cli, tmp_path):
    out_json = tmp_path / "report.json"
    out_csv = tmp_path / "records.csv"
    outputs = []
    for threads in ("1", "4", "1"):
        code, out, _ = run_cli([
            "verify", "--kernel", "tps:k=1", "--dim", "2", "--n", "5,20",
            "--trials", "25", "--seed", "42", "--threads", threads,
            "--out", str(out_json), "--csv", str(out_csv),
        ])
        assert code == 0
        outputs.append((out, out_json.read_bytes(), out_csv.read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]

    field_csv = tmp_path / "field.csv"
    field_args = ["field", "--kernel", "tps:k=1", "--n", "5", "--seed", "7",
                  "--grid", "0,1,0,1,10,10", "--out", str(field_csv)]
    field_runs = []
    for _ in range(2):
        code, out, _ = run_cli(field_args)
        assert code == 0
        field_runs.append((out, field_csv.read_bytes()))
    assert field_runs[0] == field_runs[1]
    report(10, True, "verify byte-identical across reruns and --threads 1/4 "
                     "(stdout, JSON report, CSV); field byte-identical across reruns")


def test_criterion_11_exploratory_coverage(run_cli):
    rates = {}
    for label, command in (
        ("d=1", "verify --kernel tps:k=1 --dim 1 --n 5,10 --trials 50 --seed 42"),
        ("rp:nu=5", "verify --kernel rp:nu=5 --dim 2 --n 5,10 --trials 50 --seed 42"),
    ):
        code, out, err = run_cli(shlex.split(command))
        assert code == 0, err
        banner, body = out.split("\n", 1)
        assert banner.startswith("EXPLORATORY:"), label
        doc = json.loads(body)
        assert doc["exploratory"] is True, label
        rates[label] = {a["n"]: a["failure_rate"] for a in doc["aggregates"]}
    report(11, True, f"exploratory runs completed with banner; empirical failure rates {rates}")
