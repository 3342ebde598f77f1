"""The symmetric spectral pass: sigma = |eigenvalue|, checked against an SVD and the theory."""

import math

import numpy as np
import pytest

from oracles import svd_sigma_extremes
from polyharm import (
    RadialPower,
    ThinPlateSpline,
    Uniform,
    assemble,
    diagnostics,
    parse_kernel,
    sample,
    solve_augmented,
    unit_box,
)


def random_points(n, d, seed):
    return sample(unit_box(d), Uniform(), n, seed)


def assert_sigma_near_svd(diag, matrix):
    ref_min, ref_max = svd_sigma_extremes(matrix)
    # the bound the benchmark's output check allows
    bound = 1e-14 * matrix.shape[0] * ref_max
    assert abs(diag.sigma_min - ref_min) <= bound
    assert abs(diag.sigma_max - ref_max) <= bound
    assert diag.condition == diag.sigma_max / diag.sigma_min


@pytest.mark.parametrize("spec", ["tps:k=1", "tps:k=2", "rp:nu=1", "rp:nu=1.5", "rp:nu=3",
                                  "rp:nu=5"])
@pytest.mark.parametrize("n", [5, 20, 60])
def test_kernel_matrix_sigma_matches_svd(spec, n):
    matrix = assemble(random_points(n, 2, 70 + n), parse_kernel(spec)).entries
    assert_sigma_near_svd(diagnostics(matrix), matrix)


def test_saddle_matrix_sigma_matches_svd():
    pts = random_points(30, 2, 71)
    model = solve_augmented(pts, np.sin(pts.points[:, 0]), ThinPlateSpline(1), degree=1)
    poly = np.column_stack([np.ones(pts.n), pts.points])
    saddle = np.block([[assemble(pts, ThinPlateSpline(1)).entries, poly],
                       [poly.T, np.zeros((3, 3))]])
    assert_sigma_near_svd(model.diagnostics, saddle)


def test_non_symmetric_matrix_is_rejected():
    matrix = assemble(random_points(8, 2, 72), ThinPlateSpline(1)).entries
    matrix[0, 1] = np.nextafter(matrix[0, 1], np.inf)
    with pytest.raises(ValueError, match="symmetric"):
        diagnostics(matrix)


@pytest.mark.parametrize("matrix, tau, message", [
    (np.zeros((2, 3)), 1e-12, "expected a nonempty square matrix"),
    (np.array([[0.0, np.inf], [np.inf, 0.0]]), 1e-12, "matrix entries must be finite"),
    (np.array([[0.0, 1.0], [1.0, 0.0]]), 0.0,
     "relative threshold tau must be a positive finite real"),
], ids=["non_square", "infinite_entry", "tau_zero"])
def test_diagnostics_rejects_bad_input_with_its_message(matrix, tau, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        diagnostics(matrix, tau)


@pytest.mark.parametrize("spec", ["tps:k=1", "tps:k=2", "rp:nu=0.5", "rp:nu=1", "rp:nu=1.5",
                                  "rp:nu=3"])
@pytest.mark.parametrize("d", [2, 3])
def test_sign_and_inertia_follow_conditional_definiteness(spec, d):
    # a kernel conditionally definite of order m makes (-1)^m A positive definite on the
    # vectors orthogonal to the polynomials of degree < m, which span C(m - 1 + d, d)
    # dimensions, so at most that many eigenvalues have a sign other than (-1)^m; for
    # 0 < nu < 2 (m = 1) the zero trace leaves exactly one positive eigenvalue
    kernel = parse_kernel(spec)
    m = kernel.cpd_order
    free = math.comb(m - 1 + d, d)
    for n in (5, 20, 50, 100):
        for seed in range(10):
            matrix = assemble(random_points(n, d, 7000 + 100 * n + seed), kernel).entries
            eigenvalues = np.linalg.eigvalsh(matrix)
            scale = np.abs(eigenvalues).max()
            assert np.abs(eigenvalues).min() > 1e-13 * n * scale  # every sign is resolved
            negative = int((eigenvalues < 0.0).sum())
            assert diagnostics(matrix).det_sign == (-1) ** negative, (n, seed)
            wrong_sign = int((eigenvalues * (-1) ** m <= 0.0).sum())
            assert wrong_sign <= free, (n, seed, wrong_sign)
            if isinstance(kernel, RadialPower) and kernel.nu < 2.0:
                assert (n - negative, negative) == (1, n - 1), (n, seed)
