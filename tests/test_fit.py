"""One solve body for plain and tailed fits, and its singular-system messages."""

import numpy as np
import pytest

from oracles import separate_solves
from polyharm import (
    PointSet,
    RadialPower,
    SingularSystemError,
    ThinPlateSpline,
    Uniform,
    cardinal_values,
    sample,
    solve_augmented,
    solve_unaugmented,
    sphere_counterexample,
    unit_box,
)

ZERO_ROWS = "; the matrix has exactly zero row(s) at node index "


def _singular_message(call) -> SingularSystemError:
    with pytest.raises(SingularSystemError) as info:
        call()
    return info.value


def test_plain_solve_names_the_center_row():
    sphere = sphere_counterexample(2, 5)
    error = _singular_message(lambda: solve_unaugmented(sphere, np.ones(5), ThinPlateSpline(1)))
    assert str(error).startswith("interpolation matrix is numerically singular: ")
    assert str(error).endswith(ZERO_ROWS + "[0]")
    assert error.diagnostics.det_sign == 0
    assert not hasattr(error, "matrix")


def test_tailed_solve_names_every_row_of_a_zero_kernel_block():
    # two nodes at unit distance: the thin-plate kernel block is all zeros
    pair = PointSet([[0.0, 0.0], [1.0, 0.0]])
    error = _singular_message(
        lambda: solve_augmented(pair, [1.0, 2.0], ThinPlateSpline(1), degree=0))
    assert str(error).startswith("augmented interpolation matrix is numerically singular: ")
    assert str(error).endswith(ZERO_ROWS + "[0, 1]")


def test_cardinal_values_name_the_center_row():
    sphere = sphere_counterexample(2, 5)
    queries = np.array([[0.5, 0.5]])
    error = _singular_message(
        lambda: cardinal_values(sphere, ThinPlateSpline(1), 1.0, queries))
    assert str(error).endswith(ZERO_ROWS + "[0]")


def test_nearly_singular_solve_names_no_rows():
    # node 1 at 1e-10 from node 0: sigma_min / sigma_max is 1.7e-16, below tau = 1e-12,
    # and no row is exactly zero, so the plain message stays
    pts = sample(unit_box(2), Uniform(), 8, 71).points.copy()
    pts[1] = pts[0] + [1e-10, 0.0]
    error = _singular_message(
        lambda: solve_unaugmented(PointSet(pts), np.ones(8), RadialPower(1.5)))
    diag = error.diagnostics
    assert diag.det_sign != 0 and diag.sigma_min > 0.0
    assert diag.sigma_min <= 1e-12 * diag.sigma_max
    assert ZERO_ROWS not in str(error)


def _same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kernel, degree", [
    (ThinPlateSpline(1), None), (ThinPlateSpline(1), 1), (ThinPlateSpline(2), 2),
    (RadialPower(1.5), None), (RadialPower(1.5), 0), (RadialPower(3.0), 1),
    (RadialPower(3.0), 3),
])
@pytest.mark.parametrize("n, d, eps", [(12, 2, 1.0), (30, 3, 0.4)])
def test_fits_match_the_separate_solve_bodies(kernel, degree, n, d, eps):
    pts = sample(unit_box(d), Uniform(), n, 70 + n)
    values = np.cos(3.0 * pts.points[:, 0]) + pts.points[:, -1] ** 2
    if degree is None:
        model = solve_unaugmented(pts, values, kernel, eps)
    else:
        model = solve_augmented(pts, values, kernel, eps, degree)
    want = separate_solves(pts, values, kernel, eps, degree)
    assert _same_bits(model.coefficients, want.coefficients)
    assert (model.tail is None) == (want.tail is None)
    if want.tail is not None:
        assert model.tail.degree == want.tail.degree
        assert _same_bits(model.tail.coefficients, want.tail.coefficients)
    assert model.diagnostics.to_dict() == want.diagnostics.to_dict()
    assert model.epsilon == want.epsilon

