"""Matrix assembly, solves, polynomial tails and scale invariance."""

import math

import numpy as np
import pytest

from oracles import brute_kernel_matrix, tps_scalar, whole_evaluate
from polyharm import (
    AugmentationRankError,
    InterpolationModel,
    PointSet,
    RadialPower,
    SingularSystemError,
    ThinPlateSpline,
    Uniform,
    assemble,
    cardinal_values,
    default_query_points,
    duplicate_pair,
    evaluate,
    monomial_exponents,
    monomial_matrix,
    sample,
    scale_invariance_check,
    solve_augmented,
    solve_unaugmented,
    sphere_counterexample,
    unit_box,
)
from polyharm.interpolation import _EVAL_ROWS


def random_points(n, d, seed):
    return sample(unit_box(d), Uniform(), n, seed)


def test_assemble_matches_brute_force():
    pts = random_points(6, 2, 51)
    kernel = ThinPlateSpline(1)
    matrix = assemble(pts, kernel).entries
    brute = brute_kernel_matrix(pts.points, lambda r: tps_scalar(1, r))
    np.testing.assert_allclose(matrix, brute, rtol=1e-13, atol=1e-15)


def test_assemble_structure():
    pts = random_points(8, 3, 52)
    matrix = assemble(pts, RadialPower(1.5), eps=0.7)
    assert matrix.n == 8
    assert np.array_equal(matrix.entries, matrix.entries.T)
    assert (np.diag(matrix.entries) == 0.0).all()
    assert matrix.epsilon == 0.7
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            assemble(pts, RadialPower(1.5), eps=bad)


def test_solve_unaugmented_interpolates():
    pts = random_points(15, 2, 53)
    values = np.sin(3.0 * pts.points[:, 0]) + pts.points[:, 1]
    for kernel in (ThinPlateSpline(1), RadialPower(1.5)):
        model = solve_unaugmented(pts, values, kernel)
        residual = np.abs(evaluate(model, pts.points) - values).max()
        assert residual <= 1e-10 * np.abs(values).max()
        assert model.tail is None
        assert not model.diagnostics.singular_verdict


def test_solve_unaugmented_rejects_singular():
    dup = duplicate_pair(2, 3)
    with pytest.raises(SingularSystemError) as info:
        solve_unaugmented(dup, [1.0, 2.0], ThinPlateSpline(1))
    assert info.value.diagnostics.sigma_max == 0.0

    sphere = sphere_counterexample(2, 5)
    with pytest.raises(SingularSystemError) as info:
        solve_unaugmented(sphere, np.ones(5), ThinPlateSpline(1))
    assert info.value.diagnostics.det_sign == 0
    assert info.value.diagnostics.sigma_min == 0.0


def test_solve_value_validation():
    pts = random_points(4, 2, 54)
    with pytest.raises(ValueError):
        solve_unaugmented(pts, [1.0, 2.0], ThinPlateSpline(1))
    with pytest.raises(ValueError):
        solve_unaugmented(pts, [1.0, 2.0, math.nan, 4.0], ThinPlateSpline(1))


def test_monomial_exponents_graded_lexicographic():
    assert monomial_exponents(2, 2) == [
        (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
    ]
    assert monomial_exponents(1, 3) == [(0,), (1,), (2,), (3,)]
    assert len(monomial_exponents(3, 2)) == 10
    assert monomial_exponents(3, 0) == [(0, 0, 0)]
    with pytest.raises(ValueError):
        monomial_exponents(0, 1)
    with pytest.raises(ValueError):
        monomial_exponents(2, -1)


def test_monomial_matrix_small_case():
    pts = np.array([[2.0, 3.0], [0.5, -1.0]])
    out = monomial_matrix(pts, 2)
    expected = np.array([
        [1.0, 2.0, 3.0, 4.0, 6.0, 9.0],
        [1.0, 0.5, -1.0, 0.25, -0.5, 1.0],
    ])
    assert np.array_equal(out, expected)


def test_solve_augmented_default_degree_and_moments():
    pts = random_points(18, 2, 55)
    values = np.cos(2.0 * pts.points).sum(axis=1)
    for kernel, expected_degree in (
        (ThinPlateSpline(1), 1),
        (ThinPlateSpline(2), 2),
        (RadialPower(3.0), 1),
        (RadialPower(0.5), 0),
    ):
        model = solve_augmented(pts, values, kernel)
        assert model.tail.degree == expected_degree
        residual = np.abs(evaluate(model, pts.points) - values).max()
        assert residual <= 1e-9 * np.abs(values).max()
        moments = monomial_matrix(pts.points, model.tail.degree).T @ model.coefficients
        assert np.abs(moments).max() <= 1e-10 * np.abs(model.coefficients).sum()


def test_solve_augmented_reproduces_polynomial_data():
    pts = random_points(20, 2, 56)
    # linear data must be absorbed entirely by the degree-1 tail
    values = 0.3 + 1.7 * pts.points[:, 0] - 0.4 * pts.points[:, 1]
    model = solve_augmented(pts, values, ThinPlateSpline(1), degree=1)
    assert np.abs(model.coefficients).max() <= 1e-8
    np.testing.assert_allclose(model.tail.coefficients, [0.3, 1.7, -0.4], atol=1e-8)
    queries = default_query_points(pts, 25)
    exact = 0.3 + 1.7 * queries[:, 0] - 0.4 * queries[:, 1]
    np.testing.assert_allclose(evaluate(model, queries), exact, atol=1e-7)


def test_solve_augmented_rank_errors():
    few = random_points(3, 2, 57)
    with pytest.raises(AugmentationRankError):
        solve_augmented(few, np.ones(3), ThinPlateSpline(1), degree=2)
    line = PointSet.from_array([[t, t] for t in (0.0, 1.0, 2.0, 3.0)])
    with pytest.raises(AugmentationRankError):
        solve_augmented(line, np.ones(4), ThinPlateSpline(1), degree=1)
    with pytest.raises(ValueError):
        solve_augmented(few, np.ones(3), ThinPlateSpline(1), degree=-1)


def test_evaluate_validation():
    pts = random_points(5, 2, 58)
    model = solve_unaugmented(pts, np.ones(5), RadialPower(1.5))
    with pytest.raises(ValueError):
        evaluate(model, np.zeros((3, 4)))


def test_model_round_trip_through_dict():
    pts = random_points(9, 2, 59)
    values = pts.points[:, 0] ** 2
    model = solve_augmented(pts, values, ThinPlateSpline(1))
    clone = InterpolationModel.from_dict(model.to_dict())
    queries = default_query_points(pts, 16)
    assert np.array_equal(evaluate(model, queries), evaluate(clone, queries))
    bare = solve_unaugmented(pts, values, RadialPower(1.5))
    clone = InterpolationModel.from_dict(bare.to_dict())
    assert clone.tail is None
    assert np.array_equal(evaluate(bare, queries), evaluate(clone, queries))


def test_cardinal_values_identity_at_nodes():
    pts = random_points(10, 2, 60)
    card = cardinal_values(pts, ThinPlateSpline(1), 1.0, pts.points)
    assert np.abs(card - np.eye(10)).max() <= 1e-8
    with pytest.raises(SingularSystemError):
        cardinal_values(duplicate_pair(2, 5), ThinPlateSpline(1), 1.0, pts.points[:1])


def test_default_query_points():
    pts = random_points(6, 2, 61)
    q = default_query_points(pts, 64)
    assert q.shape == (64, 2)
    lo, hi = pts.points.min(axis=0), pts.points.max(axis=0)
    assert (q.min(axis=0) <= lo + 1e-12).all()
    single = PointSet.from_array([[4.0, 7.0]])
    q = default_query_points(single, 9)
    assert q.shape == (9, 2) and np.isfinite(q).all()
    three_d = random_points(5, 3, 62)
    a = default_query_points(three_d, 10)
    b = default_query_points(three_d, 10)
    assert a.shape == (10, 3)
    assert np.array_equal(a, b)


def test_scale_invariance_radial_power():
    pts = random_points(12, 2, 63)
    values = np.exp(pts.points[:, 0]) - pts.points[:, 1]
    report = scale_invariance_check(pts, values, RadialPower(1.5), (0.25, 1.0, 4.0))
    assert report.passed is True
    assert report.max_rel_deviation <= 1e-9
    assert report.cond_rel_spread <= 1e-12
    assert report.asserted_bound == 1e-9
    doc = report.to_dict()
    assert doc["kernel"] == "rp:nu=1.5" and doc["eps_list"] == [0.25, 1.0, 4.0]


def test_scale_invariance_augmented_tps():
    pts = random_points(14, 2, 64)
    values = np.sin(pts.points).sum(axis=1)
    report = scale_invariance_check(pts, values, ThinPlateSpline(1), (0.5, 2.0), degree=1)
    assert report.passed is True
    assert report.max_rel_deviation <= 1e-7


def test_scale_invariance_unaugmented_tps_is_report_only():
    pts = random_points(10, 2, 65)
    values = pts.points[:, 0]
    report = scale_invariance_check(pts, values, ThinPlateSpline(1), (0.5, 2.0))
    assert report.asserted_bound is None and report.passed is None
    assert math.isfinite(report.max_rel_deviation)


def test_scale_invariance_needs_two_scales():
    pts = random_points(5, 2, 66)
    with pytest.raises(ValueError):
        scale_invariance_check(pts, np.ones(5), RadialPower(1.5), (1.0,))


# one query, exactly one block, several blocks plus a remainder, one-row remainders, and
# the sizes of the earlier 1024-row blocks, whose one-row remainder went through dot
@pytest.mark.parametrize("m", [1, _EVAL_ROWS, 3 * _EVAL_ROWS + 128, _EVAL_ROWS + 1,
                               2 * _EVAL_ROWS + 1, 1024, 1025, 3200])
@pytest.mark.parametrize("degree", [None, 1])
def test_blocked_evaluate_matches_the_whole_matrix_bitwise(degree, m):
    pts = random_points(200, 2, 61)
    values = np.sin(3.0 * pts.points[:, 0]) + pts.points[:, 1] ** 2
    if degree is None:
        model = solve_unaugmented(pts, values, RadialPower(1.5))
    else:
        model = solve_augmented(pts, values, ThinPlateSpline(1), degree=degree)
    queries = np.random.default_rng(62).random((m, 2))
    assert evaluate(model, queries).tobytes() == whole_evaluate(model, queries).tobytes()
