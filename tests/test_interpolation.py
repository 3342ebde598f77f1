"""Matrix assembly, solves, polynomial tails and scale invariance."""

import inspect
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import polyharm
from oracles import brute_kernel_matrix, term_magnitudes, tps_scalar, whole_evaluate
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
    evaluate,
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


@pytest.mark.parametrize("kernel, arrays", [(RadialPower(1.5), 1.2), (ThinPlateSpline(1), 2.1)],
                         ids=["rp:nu=1.5", "tps:k=1"])
def test_assemble_holds_one_array_per_kernel_matrix(kernel, arrays):
    # the kernel values overwrite the distances; a thin-plate kernel adds one log array.  At
    # n = 800 the distance chunk is a small share of the peak; copying bodies peak at 3 and 5
    n = 800
    pts = random_points(n, 3, 57)
    tracemalloc.start()
    try:
        matrix = assemble(pts, kernel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= arrays * n * n * 8
    assert matrix.entries.shape == (n, n)


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
    dup = PointSet(np.array([[0.3, 0.7], [0.3, 0.7]]))
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


def _graded_lex_exponents(d, degree):
    # exponent tuples of total degree <= degree: by total degree, then x1's exponent descending
    exps = [e for e in itertools.product(range(degree + 1), repeat=d) if sum(e) <= degree]
    return sorted(exps, key=lambda e: (sum(e), [-p for p in e]))


def test_monomial_matrix_columns_graded_lexicographic():
    # at x = (2, 3, 5) each column's value names its monomial
    assert monomial_matrix([[2.0, 3.0, 5.0]], 2).tolist() == [
        [1.0, 2.0, 3.0, 5.0, 4.0, 6.0, 10.0, 9.0, 15.0, 25.0]]
    assert monomial_matrix([[2.0]], 3).tolist() == [[1.0, 2.0, 4.0, 8.0]]
    assert monomial_matrix([[2.0, 3.0, 5.0]], 0).tolist() == [[1.0]]
    for d in range(1, 5):
        for degree in range(5):
            assert monomial_matrix(np.ones((2, d)), degree).shape == (2, math.comb(d + degree, d))
    with pytest.raises(ValueError):
        monomial_matrix(np.zeros((3, 0)), 1)
    with pytest.raises(ValueError):
        monomial_matrix(np.zeros((3, 2)), -1)


def test_monomial_matrix_small_case():
    pts = np.array([[2.0, 3.0], [0.5, -1.0]])
    out = monomial_matrix(pts, 2)
    expected = np.array([
        [1.0, 2.0, 3.0, 4.0, 6.0, 9.0],
        [1.0, 0.5, -1.0, 0.25, -0.5, 1.0],
    ])
    assert np.array_equal(out, expected)


def test_monomial_matrix_squares_one_dimensional_points_exactly():
    # a 1-d square is x * x; a vectorized pow of the points can give an x**2 that is not
    # correctly rounded, and then the bits of 1-d tailed fits and predictions move
    rng = np.random.default_rng(12)
    for m in (1, 5, 256, 1000, 5000):
        x = rng.standard_normal((m, 1)) * rng.choice([1e-3, 1.0, 1e3], size=(m, 1))
        x[::7] = 0.0
        out = monomial_matrix(x, 3)
        assert (out[:, 0] == 1.0).all()
        assert out[:, 1].tobytes() == x[:, 0].tobytes()
        assert out[:, 2].tobytes() == (x[:, 0] * x[:, 0]).tobytes()


@pytest.mark.parametrize("d, degree", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_monomial_matrix_is_the_left_to_right_product_of_its_factors(d, degree):
    # one Python float product per entry: 1.0 times coordinate 1's factors, then coordinate 2's
    pts = np.random.default_rng(13).uniform(-2.0, 2.0, (2000, d))
    want = [[math.prod([x for x, p in zip(row, exp) for _ in range(p)], start=1.0)
             for exp in _graded_lex_exponents(d, degree)] for row in pts.tolist()]
    assert monomial_matrix(pts, degree).tobytes() == np.array(want).tobytes()


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
    line = PointSet([[t, t] for t in (0.0, 1.0, 2.0, 3.0)])
    with pytest.raises(AugmentationRankError):
        solve_augmented(line, np.ones(4), ThinPlateSpline(1), degree=1)
    with pytest.raises(ValueError):
        solve_augmented(few, np.ones(3), ThinPlateSpline(1), degree=-1)


def test_evaluate_validation():
    pts = random_points(5, 2, 58)
    model = solve_unaugmented(pts, np.ones(5), RadialPower(1.5))
    with pytest.raises(ValueError):
        evaluate(model, np.zeros((3, 4)))
    with pytest.raises(ValueError, match=r"shape \(2, 2, 2\)"):
        evaluate(model, np.zeros((2, 2, 2)))


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


@pytest.mark.parametrize("literal", ["NaN", "Infinity"])
@pytest.mark.parametrize("key", ["coefficients", "tail.coeffs", "epsilon"])
def test_model_from_dict_rejects_non_finite_values(key, literal):
    pts = random_points(9, 2, 59)
    doc = solve_augmented(pts, pts.points[:, 0] ** 2, ThinPlateSpline(1)).to_dict()
    if key == "coefficients":
        doc["coefficients"][1] = "?"
    elif key == "tail.coeffs":
        doc["tail"]["coeffs"][0] = "?"
    else:
        doc["epsilon"] = "?"
    # the document as json.loads reads its NaN and Infinity tokens
    doc = json.loads(json.dumps(doc).replace('"?"', literal))
    match = "scale parameter" if key == "epsilon" else f"model key '{key}'.*not finite"
    with pytest.raises(ValueError, match=match):
        InterpolationModel.from_dict(doc)


def test_cardinal_values_identity_at_nodes():
    pts = random_points(10, 2, 60)
    card = cardinal_values(pts, ThinPlateSpline(1), 1.0, pts.points)
    assert np.abs(card - np.eye(10)).max() <= 1e-8
    with pytest.raises(SingularSystemError):
        cardinal_values(PointSet(np.array([[0.2, 0.9], [0.2, 0.9]])), ThinPlateSpline(1), 1.0,
                        pts.points[:1])


def test_cardinal_values_takes_queries_as_evaluate_does():
    pts = random_points(5, 2, 58)
    model = solve_unaugmented(pts, np.ones(5), RadialPower(1.5))
    calls = (lambda q: evaluate(model, q),
             lambda q: cardinal_values(pts, RadialPower(1.5), 1.0, q))
    for queries in (np.zeros((3, 4)), np.zeros((2, 2, 2)), [0.5, 0.5, 0.5]):
        messages = []
        for call in calls:
            with pytest.raises(ValueError) as raised:
                call(queries)
            messages.append(str(raised.value))
        assert messages[0] == messages[1]
    with pytest.raises(ValueError, match=r"^queries of shape \(2, 2, 2\) are not 2-d points$"):
        cardinal_values(pts, RadialPower(1.5), 1.0, np.zeros((2, 2, 2)))
    empty = np.empty((0, 2))
    assert evaluate(model, empty).shape == (0,)
    assert cardinal_values(pts, RadialPower(1.5), 1.0, empty).shape == (0, 5)


def test_cardinal_values_names_a_far_query_without_warning():
    # (1e300, 0) overflows its squared distances to the nodes; only the ValueError reports it
    pts = random_points(8, 2, 63)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"query 1 \[1e\+300, 0\.0\] is not finite"):
            cardinal_values(pts, ThinPlateSpline(1), 1.0, [[0.5, 0.5], [1e300, 0.0]])


def test_default_query_points():
    pts = random_points(6, 2, 61)
    q = default_query_points(pts, 64)
    assert q.shape == (64, 2)
    lo, hi = pts.points.min(axis=0), pts.points.max(axis=0)
    assert (q.min(axis=0) <= lo + 1e-12).all()
    single = PointSet([[4.0, 7.0]])
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


def _evaluate_model(degree):
    pts = random_points(200, 2, 61)
    values = np.sin(3.0 * pts.points[:, 0]) + pts.points[:, 1] ** 2
    if degree is None:
        return solve_unaugmented(pts, values, RadialPower(1.5))
    return solve_augmented(pts, values, ThinPlateSpline(1), degree=degree)


# one query, one block, whole blocks, several blocks plus a remainder, one-row remainders
@pytest.mark.parametrize("m", [1, _EVAL_ROWS, 3 * _EVAL_ROWS + 128, _EVAL_ROWS + 1,
                               2 * _EVAL_ROWS + 1, 1024, 1025, 3200])
@pytest.mark.parametrize("degree", [None, 1])
def test_blocked_evaluate_matches_the_whole_matrix_bitwise(degree, m):
    model = _evaluate_model(degree)
    queries = np.random.default_rng(62).random((m, 2))
    values = evaluate(model, queries)
    # each value is its query's alone, whatever the block and the other queries
    alone = np.concatenate([evaluate(model, queries[i:i + 1]) for i in range(m)])
    assert values.tobytes() == alone.tobytes()
    assert evaluate(model, queries[::-1]).tobytes() == values[::-1].tobytes()
    assert values.tobytes() == whole_evaluate(model, queries, fixed_order=True).tobytes()
    # and within the benchmark's bound of the whole BLAS product
    bound = 1e-13 * term_magnitudes(model, queries)
    assert (np.abs(values - whole_evaluate(model, queries)) <= bound).all()


def test_reloaded_model_evaluates_to_the_same_bytes_at_any_blas_thread_count(tmp_path):
    model = _evaluate_model(1)
    queries = np.random.default_rng(62).random((3200, 2))
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(model.to_dict()))
    np.save(tmp_path / "queries.npy", queries)
    # the whole call, then each query alone
    script = ("import json, sys\nimport numpy as np\n"
              "from polyharm import InterpolationModel, evaluate\n"
              "model = InterpolationModel.from_dict(json.loads(open(sys.argv[1]).read()))\n"
              "q = np.load(sys.argv[2])\n"
              "print(evaluate(model, q).tobytes().hex())\n"
              "print(b''.join(evaluate(model, row[None]).tobytes() for row in q).hex())\n")
    src = str(Path(polyharm.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", script, str(model_path),
                               str(tmp_path / "queries.npy")],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.extend(done.stdout.split())
    assert outputs == [evaluate(model, queries).tobytes().hex()] * 4


def test_evaluate_rejects_a_nan_query():
    # a NaN distance must not read as the thin-plate kernel's 0 at r = 0
    pts = random_points(8, 2, 63)
    for model in (solve_unaugmented(pts, np.cos(pts.points[:, 0]), ThinPlateSpline(1)),
                  solve_augmented(pts, np.cos(pts.points[:, 0]), ThinPlateSpline(1))):
        with pytest.raises(ValueError, match="NaN"):
            evaluate(model, [[math.nan, 0.5]])


def test_cardinal_values_rejects_a_nan_query():
    pts = random_points(8, 2, 63)
    with pytest.raises(ValueError, match="NaN"):
        cardinal_values(pts, ThinPlateSpline(1), 1.0, [[0.25, 0.25], [math.nan, 0.5]])


def test_a_query_whose_value_overflows_is_named():
    # the squared distance overflows, the kernel value is inf, and inf - inf is NaN
    pts = random_points(5, 2, 64)
    model = solve_augmented(pts, np.cos(pts.points[:, 0]), ThinPlateSpline(1))
    near = [[1e150, 0.5], [0.5, 0.5]]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=r"query 1 \[1e\+200, 0\.5\] is not finite"):
            evaluate(model, [near[0], [1e200, 0.5], near[1]])
        with pytest.raises(ValueError, match=r"query 0 \[inf, 0\.5\] is not finite"):
            evaluate(model, [[math.inf, 0.5]] + near)
        with pytest.raises(ValueError, match=r"query 2 \[inf, 0\.5\] is not finite"):
            cardinal_values(pts, ThinPlateSpline(1), 1.0, near + [[math.inf, 0.5]])
    values = evaluate(model, near)
    assert np.isfinite(values).all()
    assert values.tobytes() == whole_evaluate(model, near, fixed_order=True).tobytes()


def test_cardinal_values_and_scale_invariance_check_take_no_threshold():
    # both diagnose every fit at tau 1e-12, the default of diagnostics
    assert "tau" not in inspect.signature(cardinal_values).parameters
    assert "tau" not in inspect.signature(scale_invariance_check).parameters
