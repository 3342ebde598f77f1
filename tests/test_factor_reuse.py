"""One LU factorization and one assembly per matrix, with unchanged bits."""

import json
import sys

import numpy as np
import pytest

from oracles import fresh_growth, fresh_kernel_conditions
from polyharm import (
    BorderedSystem,
    RadialPower,
    ThinPlateSpline,
    Uniform,
    assemble,
    cardinal_values,
    diagnostics,
    incremental_growth,
    sample,
    scale_invariance_check,
    solve_augmented,
    solve_unaugmented,
    unit_box,
)
from polyharm import _linalg


def random_points(n, d, seed):
    return sample(unit_box(d), Uniform(), n, seed)


def counting(monkeypatch, original):
    """Replace original at every polyharm module attribute bound to it.

    Returns the list that receives one entry per call.
    """
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "polyharm" or name.startswith("polyharm."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    return calls


def test_each_solve_factorizes_its_matrix_once(monkeypatch):
    lu_calls = counting(monkeypatch, _linalg.lu_factorize)
    pts = random_points(15, 2, 31)
    values = np.sin(pts.points[:, 0])
    kernel = ThinPlateSpline(1)
    runs = [
        lambda: solve_unaugmented(pts, values, kernel),
        lambda: solve_augmented(pts, values, kernel),
        lambda: cardinal_values(pts, kernel, 1.0, random_points(7, 2, 32).points),
        lambda: BorderedSystem(assemble(pts, kernel)),
    ]
    for run in runs:
        lu_calls.clear()
        run()
        assert len(lu_calls) == 1


def test_incremental_growth_assembles_each_prefix_once(monkeypatch):
    assemble_calls = counting(monkeypatch, assemble)
    n_max = 12
    incremental_growth(RadialPower(1.5), unit_box(2), Uniform(), n_max, 5)
    assert len(assemble_calls) == n_max


@pytest.mark.parametrize("kernel, d, n_max, seed", [
    (ThinPlateSpline(1), 2, 200, 3),
    (RadialPower(1.5), 3, 120, 4),
])
def test_incremental_growth_matches_fresh_factorizations(kernel, d, n_max, seed):
    report = incremental_growth(kernel, unit_box(d), Uniform(), n_max, seed)
    reference = fresh_growth(kernel, unit_box(d), Uniform(), n_max, seed)
    # json.dumps writes every float exactly, -0.0 and infinities included
    assert json.dumps(report.to_dict()) == json.dumps(reference.to_dict())
    if isinstance(kernel, ThinPlateSpline):
        # the run reaches sizes whose determinant underflows to 0.0
        assert any(step.det_next == 0.0 for step in report.steps)


@pytest.mark.parametrize("kernel, degree", [
    (ThinPlateSpline(1), None),
    (ThinPlateSpline(1), 1),
    (RadialPower(1.5), None),
])
def test_scale_check_conditions_match_fresh_diagnostics(kernel, degree):
    pts = random_points(20, 2, 33)
    values = np.cos(pts.points[:, 1])
    scales = (0.25, 1.0, 4.0)
    report = scale_invariance_check(pts, values, kernel, scales, degree=degree)
    reference = fresh_kernel_conditions(pts, kernel, scales)
    assert [c.hex() for c in report.conditions] == [c.hex() for c in reference]


def test_diagnostics_keep_factors_out_of_equality_and_output():
    matrix = assemble(random_points(10, 2, 34), ThinPlateSpline(1)).entries
    diag = diagnostics(matrix)
    assert diag.lu_piv is not None
    assert diag == diagnostics(matrix.copy())
    assert hash(diag) == hash(diagnostics(matrix.copy()))
    assert "lu_piv" not in repr(diag)
    assert "lu_piv" not in diag.to_dict() and "lu_piv" not in diag.describe()
