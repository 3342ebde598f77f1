"""Scattered-data interpolation with polyharmonic kernels.

The interpolation matrix has entries kernel(eps * ||x_i - x_j||); it is
exactly symmetric with an exactly zero diagonal, because the distance
matrix is (fl(a - b) = -fl(b - a) and x - x = 0) and the kernel vanishes
at r = 0.  Solvers are dense and direct: they reuse the pivoted LU
factorization of the matrix's diagnostics, with one step of iterative
refinement, and are gated by the diagnostics' singularity verdict.  The
SingularSystemError of a singular verdict names the node indices of the
kernel matrix's exactly zero rows, when there are any.

Interpolants may be augmented with a polynomial tail.  The tail basis is
the monomials of total degree <= q in graded lexicographic order, and the
augmented (saddle) system enforces the usual moment conditions on the
kernel coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._linalg import (MatrixDiagnostics, SingularSystemError, _sigma_extremes, diagnostics,
                      lu_solve_refined)
from ._serialize import to_dict
from .domains import PointSet, cross_distance_matrix, make_rng, pairwise_distance_matrix
from .kernels import Kernel, RadialPower, ThinPlateSpline, _check_scale, kernel_spec, parse_kernel

__all__ = [
    "InterpMatrix",
    "PolynomialTail",
    "InterpolationModel",
    "ScaleInvarianceReport",
    "AugmentationRankError",
    "assemble",
    "solve_unaugmented",
    "solve_augmented",
    "evaluate",
    "cardinal_values",
    "scale_invariance_check",
    "monomial_exponents",
    "monomial_matrix",
    "default_query_points",
]


class AugmentationRankError(ValueError):
    """Raised when the polynomial block cannot have full column rank."""


@dataclass(frozen=True, eq=False)
class InterpMatrix:
    """Assembled kernel matrix together with its ingredients."""

    entries: np.ndarray
    kernel: Kernel
    epsilon: float
    points: PointSet

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class PolynomialTail:
    """Polynomial tail coefficients in graded lexicographic monomial order."""

    degree: int
    coefficients: np.ndarray


@dataclass(frozen=True, eq=False)
class InterpolationModel:
    """A solved interpolant: kernel coefficients plus an optional tail."""

    points: PointSet
    kernel: Kernel
    epsilon: float
    coefficients: np.ndarray
    tail: Optional[PolynomialTail] = None
    diagnostics: Optional[MatrixDiagnostics] = None

    def to_dict(self) -> dict:
        return {
            "kernel": kernel_spec(self.kernel),
            "epsilon": self.epsilon,
            "points": self.points.points.tolist(),
            "coefficients": [float(v) for v in self.coefficients],
            "tail": None if self.tail is None else {
                "degree": self.tail.degree,
                "coeffs": [float(v) for v in self.tail.coefficients],
            },
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "InterpolationModel":
        tail = doc.get("tail")
        return cls(
            points=PointSet.from_array(np.asarray(doc["points"], dtype=float), label="model-json"),
            kernel=parse_kernel(doc["kernel"]),
            epsilon=float(doc["epsilon"]),
            coefficients=np.asarray(doc["coefficients"], dtype=float),
            tail=None if tail is None else PolynomialTail(
                degree=int(tail["degree"]), coefficients=np.asarray(tail["coeffs"], dtype=float)),
        )


def assemble(points: PointSet, kernel: Kernel, eps: float = 1.0) -> InterpMatrix:
    """Assemble the kernel matrix for a point set.

    Entry (i, j) is kernel(eps * ||x_i - x_j||).  The matrix is exactly
    symmetric, because fl(a - b) = -fl(b - a), and its diagonal is exactly
    zero, because x - x = 0 and the kernel is 0 at r = 0.
    """
    eps = _check_scale(eps)
    entries = kernel.value_scaled(eps, pairwise_distance_matrix(points.points))
    return InterpMatrix(entries=entries, kernel=kernel, epsilon=eps, points=points)


def _check_values(values, n: int) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != (n,):
        raise ValueError(f"expected {n} data values, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("data values must be finite")
    return arr


def _solve(matrix: np.ndarray, rhs: np.ndarray, tau: float, what: str, n: int):
    # n is the size of the leading kernel block; a singular verdict names its zero rows
    diag = diagnostics(matrix, tau)
    if diag.singular_verdict:
        message = f"{what} is numerically singular: {diag.describe()}"
        dead = np.flatnonzero(~np.any(matrix[:n, :n] != 0.0, axis=1)).tolist()
        if dead:
            message += f"; the matrix has exactly zero row(s) at node index {dead}"
        raise SingularSystemError(message, diag)
    return lu_solve_refined(diag.lu_piv, matrix, rhs), diag


def solve_unaugmented(points: PointSet, values, kernel: Kernel, eps: float = 1.0,
                      tau: float = 1e-12) -> InterpolationModel:
    """Solve the pure kernel system for interpolation coefficients.

    Raises SingularSystemError, carrying the matrix diagnostics, when the
    kernel matrix is numerically singular at relative threshold tau.
    """
    return _fit(points, values, kernel, eps, None, tau)[0]


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def monomial_exponents(dimension: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples of total degree <= degree in graded lexicographic order."""
    if dimension < 1:
        raise ValueError("dimension must be at least 1")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    exponents: list[tuple[int, ...]] = []
    for total in range(degree + 1):
        exponents.extend(_compositions(total, dimension))
    return exponents


def monomial_matrix(points: np.ndarray, degree: int) -> np.ndarray:
    """Matrix of monomials of total degree <= degree evaluated at points."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    exponents = monomial_exponents(pts.shape[1], degree)
    cols = [np.prod(pts**np.asarray(exp, dtype=float), axis=1) for exp in exponents]
    return np.column_stack(cols)


def solve_augmented(points: PointSet, values, kernel: Kernel, eps: float = 1.0,
                    degree: Optional[int] = None, tau: float = 1e-12) -> InterpolationModel:
    """Solve the polynomially augmented (saddle) interpolation system.

    degree defaults to one less than the kernel's conditional positive
    definiteness order.  Raises AugmentationRankError when there are fewer
    points than tail monomials or the monomial block is rank deficient
    (points on a low-degree algebraic variety), and SingularSystemError when
    the saddle matrix is numerically singular.
    """
    if degree is None:
        degree = kernel.info().cpd_order - 1
    return _fit(points, values, kernel, eps, degree, tau)[0]


def _fit(points: PointSet, values, kernel: Kernel, eps, degree, tau) -> tuple:
    # the plain (degree None) or tailed solve, also returning the kernel matrix it assembled
    if degree is not None:
        degree = int(degree)
        if degree < 0:
            raise ValueError("tail degree must be nonnegative")
    matrix = assemble(points, kernel, eps)
    rhs = _check_values(values, points.n)
    system, n, what = matrix.entries, points.n, "interpolation matrix"
    if degree is not None:
        poly = monomial_matrix(points.points, degree)
        p = poly.shape[1]
        if n < p:
            raise AugmentationRankError(f"degree {degree} tail needs at least {p} points in "
                                        f"dimension {points.dimension}, got {n}")
        if np.linalg.matrix_rank(poly) < p:
            raise AugmentationRankError(f"monomial block of degree {degree} is rank deficient; "
                                        "the points lie on a low-degree algebraic variety")
        system = np.block([[system, poly], [poly.T, np.zeros((p, p))]])
        rhs = np.concatenate([rhs, np.zeros(p)])
        what = "augmented interpolation matrix"
    solution, diag = _solve(system, rhs, tau, what, n)
    tail = None if degree is None else PolynomialTail(degree=degree, coefficients=solution[n:])
    return InterpolationModel(points=points, kernel=kernel, epsilon=matrix.epsilon,
                              coefficients=solution[:n], tail=tail, diagnostics=diag), matrix


# a multiple of 4 keeps BLAS's row grouping, and so the bits of the whole product; 256
# rows measured fastest at the benchmark's n = 200, whose block temporaries fit in L2
_EVAL_ROWS = 256


def evaluate(model: InterpolationModel, queries) -> np.ndarray:
    """Evaluate an interpolant at query points (m, d), 256 query rows at a time.

    Each block's kernel values and tail monomials are multiplied by the
    coefficients on their own, so memory beyond the result is a few
    256 x n arrays for n nodes, whatever m is.  Block starts are multiples
    of 4, the row group of OpenBLAS's matrix-vector product, and a final
    block of one row is folded into the block before it (a one-row product
    goes through dot), so with one BLAS thread every value has the bits of
    the whole (m, n) product plus the whole tail.
    """
    q = np.atleast_2d(np.asarray(queries, dtype=float))
    if q.shape[1] != model.points.dimension:
        raise ValueError(
            f"query dimension {q.shape[1]} does not match node dimension "
            f"{model.points.dimension}"
        )
    m = q.shape[0]
    out = np.empty(m)
    starts = list(range(0, m, _EVAL_ROWS))
    if len(starts) > 1 and m - starts[-1] == 1:
        starts.pop()
    for start, stop in zip(starts, starts[1:] + [m]):
        block = q[start:stop]
        dist = cross_distance_matrix(block, model.points.points)
        out[start:stop] = model.kernel.value_scaled(model.epsilon, dist) @ model.coefficients
        if model.tail is not None:
            out[start:stop] += monomial_matrix(block, model.tail.degree) @ model.tail.coefficients
    return out


def cardinal_values(points: PointSet, kernel: Kernel, eps: float, queries,
                    tau: float = 1e-12) -> np.ndarray:
    """Values of all cardinal interpolants at the query points.

    Entry (i, j) is the value at query i of the interpolant that is 1 at
    node j and 0 at every other node.  Rows sum to 1 only where constants
    are reproduced; no such claim is made here.
    """
    matrix = assemble(points, kernel, eps)
    q = np.atleast_2d(np.asarray(queries, dtype=float))
    if q.shape[1] != points.dimension:
        raise ValueError("query dimension does not match node dimension")
    cross = kernel.value_scaled(eps, cross_distance_matrix(q, points.points))
    return _solve(matrix.entries, cross.T, tau, "interpolation matrix", points.n)[0].T


_QUERY_SEED = 901159


def default_query_points(points: PointSet, count: int = 64) -> np.ndarray:
    """Deterministic query set spanning the bounding box of the nodes.

    In dimension 2 this is a regular lattice; otherwise it is a fixed-seed
    uniform draw over the bounding box.  Degenerate boxes are widened to
    unit extent so single-point sets still get a usable query set.
    """
    pts = points.points
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    if points.dimension == 2:
        side = max(int(math.ceil(math.sqrt(count))), 2)
        xs = np.linspace(lo[0], lo[0] + span[0], side)
        ys = np.linspace(lo[1], lo[1] + span[1], side)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        return np.column_stack([gx.ravel(), gy.ravel()])
    rng = make_rng(_QUERY_SEED)
    return lo + span * rng.random((count, points.dimension))


@dataclass(frozen=True, eq=False)
class ScaleInvarianceReport:
    """Outcome of re-solving one data set across several scale parameters.

    max_rel_deviation is the largest spread of interpolant values over the
    query set, relative to the largest interpolant magnitude seen.
    conditions holds the kernel-matrix condition number at each scale and
    cond_rel_spread their relative spread.  asserted_bound / cond_bound are
    the tolerances this kernel/tail combination is expected to meet (None
    when the deviation is reported without any claim), and passed records
    the comparison (None when nothing is asserted).
    """

    kernel: Kernel
    eps_list: tuple
    degree: Optional[int]
    max_rel_deviation: float
    conditions: tuple
    cond_rel_spread: float
    asserted_bound: Optional[float]
    cond_bound: Optional[float]
    passed: Optional[bool]

    to_dict = to_dict


def _invariance_bounds(kernel: Kernel, degree: Optional[int]) -> tuple:
    # radial powers are homogeneous, so the interpolant and the condition
    # number are scale-free; thin-plate splines become scale-free once the
    # tail degree reaches the spline order, because the log(eps) term then
    # collapses into the tail
    if isinstance(kernel, RadialPower):
        return 1e-9, 1e-12
    if isinstance(kernel, ThinPlateSpline) and degree is not None and degree >= kernel.k:
        return 1e-7, None
    return None, None


def scale_invariance_check(points: PointSet, values, kernel: Kernel,
                           eps_list: Sequence[float], degree: Optional[int] = None,
                           queries=None, tau: float = 1e-12) -> ScaleInvarianceReport:
    """Solve the same interpolation problem at several scales and compare.

    Requires at least two scales.  Singularity at any scale propagates as
    SingularSystemError.  The report asserts a deviation bound only for the
    combinations with a scale-invariance guarantee; everything else is
    measured and reported as-is.
    """
    scales = tuple(float(e) for e in eps_list)
    if len(scales) < 2:
        raise ValueError("scale invariance needs at least two scale parameters")
    if queries is None:
        queries = default_query_points(points)
    q = np.atleast_2d(np.asarray(queries, dtype=float))

    surfaces = []
    conditions = []
    for eps in scales:
        model, matrix = _fit(points, values, kernel, eps, degree, tau)
        # with a tail, model.diagnostics belongs to the saddle matrix, not the kernel matrix
        conditions.append(model.diagnostics.condition if degree is None
                          else _sigma_extremes(matrix.entries)[2])
        surfaces.append(evaluate(model, q))

    stack = np.vstack(surfaces)
    spread = float((stack.max(axis=0) - stack.min(axis=0)).max())
    magnitude = float(np.abs(stack).max())
    max_rel_deviation = spread / max(magnitude, 1e-300)

    cond_arr = np.asarray(conditions)
    cond_rel_spread = float((cond_arr.max() - cond_arr.min()) / cond_arr.min())

    asserted_bound, cond_bound = _invariance_bounds(kernel, degree)
    passed: Optional[bool] = None
    if asserted_bound is not None:
        passed = max_rel_deviation <= asserted_bound
        if cond_bound is not None:
            passed = passed and cond_rel_spread <= cond_bound
    return ScaleInvarianceReport(
        kernel=kernel,
        eps_list=scales,
        degree=degree,
        max_rel_deviation=max_rel_deviation,
        conditions=tuple(float(c) for c in conditions),
        cond_rel_spread=cond_rel_spread,
        asserted_bound=asserted_bound,
        cond_bound=cond_bound,
        passed=passed,
    )
