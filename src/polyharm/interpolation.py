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
from itertools import combinations_with_replacement
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
    "monomial_matrix",
    "default_query_points",
]


class AugmentationRankError(ValueError):
    """Raised when the polynomial block cannot have full column rank."""


@dataclass(frozen=True, eq=False)
class InterpMatrix:
    """Assembled kernel matrix together with its ingredients and its minimum distance."""

    entries: np.ndarray
    kernel: Kernel
    epsilon: float
    points: PointSet
    # bitwise the smallest off-diagonal entry of pairwise_distance_matrix(points.points):
    # 0.0 for coinciding points, math.inf for one point
    min_dist: float

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
        """The model of a to_dict() document (as json.loads reads it).

        ValueError names the key when coefficients or tail.coeffs holds a
        value that is not finite (json.loads reads NaN and Infinity), and
        when epsilon is not a positive finite real.
        """
        tail = doc.get("tail")
        return cls(
            points=PointSet(doc["points"]),
            kernel=parse_kernel(doc["kernel"]),
            epsilon=_check_scale(doc["epsilon"]),
            coefficients=_finite_array(doc["coefficients"], "coefficients"),
            tail=None if tail is None else PolynomialTail(
                degree=int(tail["degree"]),
                coefficients=_finite_array(tail["coeffs"], "tail.coeffs")),
        )


def _finite_array(values, key: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"model key {key!r} holds a value that is not finite")
    return arr


def assemble(points: PointSet, kernel: Kernel, eps: float = 1.0) -> InterpMatrix:
    """Assemble the kernel matrix for a point set.

    Entry (i, j) is kernel(eps * ||x_i - x_j||).  The matrix is exactly
    symmetric, because fl(a - b) = -fl(b - a), and its diagonal is exactly
    zero, because x - x = 0 and the kernel is 0 at r = 0.

    The kernel values are written over the distance matrix, so the matrix
    is the one n x n array held.  Before that, min_dist is read off the
    distances through a view whose row i runs from dist[i, i + 1] to
    dist[i + 1, i]: the off-diagonal entries, without a copy.
    """
    eps = _check_scale(eps)
    dist = pairwise_distance_matrix(points.points)
    n = len(dist)
    min_dist = float(dist.ravel()[1:].reshape(n - 1, n + 1)[:, :n].min()) if n > 1 else math.inf
    return InterpMatrix(kernel.value_scaled(eps, dist, out=dist), kernel, eps, points, min_dist)


def _check_values(values, n: int) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != (n,):
        raise ValueError(f"expected {n} data values, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("data values must be finite")
    return arr


def _solve(matrix: np.ndarray, rhs: np.ndarray, what: str, n: int):
    # n is the size of the leading kernel block; a singular verdict names its zero rows
    diag = diagnostics(matrix)
    if diag.singular_verdict:
        message = f"{what} is numerically singular: {diag.describe()}"
        dead = np.flatnonzero(~np.any(matrix[:n, :n] != 0.0, axis=1)).tolist()
        if dead:
            message += f"; the matrix has exactly zero row(s) at node index {dead}"
        raise SingularSystemError(message, diag)
    return lu_solve_refined(diag.lu_piv, matrix, rhs), diag


def solve_unaugmented(points: PointSet, values, kernel: Kernel,
                      eps: float = 1.0) -> InterpolationModel:
    """Solve the pure kernel system for interpolation coefficients.

    Raises SingularSystemError, carrying the matrix diagnostics, when the
    kernel matrix is numerically singular at the threshold of diagnostics, TAU.
    """
    return _fit(points, values, kernel, eps, None)[0]


def _monomial_factors(dimension: int, degree: int) -> list[tuple[int, ...]]:
    # each monomial of total degree <= degree as its factor axes, coordinate 1's first
    # ((0, 0, 1) is x1**2 * x2), in graded lexicographic order
    if dimension < 1:
        raise ValueError("dimension must be at least 1")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    return [axes for total in range(degree + 1)
            for axes in combinations_with_replacement(range(dimension), total)]


def monomial_matrix(points: np.ndarray, degree: int) -> np.ndarray:
    """Matrix of monomials of total degree <= degree evaluated at points.

    A monomial is its factors multiplied onto 1.0 left to right, coordinate 1's
    first (x1**2 * x2 is ((1.0 * x1) * x1) * x2): correctly rounded steps, the
    same bits on every CPU, where NumPy's SIMD pow may round x**2 otherwise.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    factors = _monomial_factors(pts.shape[1], degree)
    out = np.ones((pts.shape[0], len(factors)))
    for col, axes in zip(out.T, factors):
        for axis in axes:
            col *= pts[:, axis]
    return out


def solve_augmented(points: PointSet, values, kernel: Kernel, eps: float = 1.0,
                    degree: Optional[int] = None) -> InterpolationModel:
    """Solve the polynomially augmented (saddle) interpolation system.

    degree defaults to one less than the kernel's conditional positive
    definiteness order.  Raises AugmentationRankError when there are fewer
    points than tail monomials or the monomial block is rank deficient
    (points on a low-degree algebraic variety), and SingularSystemError when
    the saddle matrix is numerically singular at the threshold of diagnostics.
    """
    if degree is None:
        degree = kernel.cpd_order - 1
    return _fit(points, values, kernel, eps, degree)[0]


def _fit(points: PointSet, values, kernel: Kernel, eps, degree) -> tuple:
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
    solution, diag = _solve(system, rhs, what, n)
    tail = None if degree is None else PolynomialTail(degree=degree, coefficients=solution[n:])
    return InterpolationModel(points=points, kernel=kernel, epsilon=matrix.epsilon,
                              coefficients=solution[:n], tail=tail, diagnostics=diag), matrix


def _kernel_rows(system, rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Kernel values (r, n) between rows (r, d) and a system's n nodes.

    system is an InterpMatrix or an InterpolationModel.  The distances come
    from cross_distance_matrix(rows, nodes, out=out), which checks the shapes
    of rows and out, and value_scaled then writes the kernel values over
    them.  evaluate's blocks, BorderedSystem.border and grid, and
    cardinal_values all take their kernel rows from here.
    """
    dist = cross_distance_matrix(rows, system.points.points, out=out)
    return system.kernel.value_scaled(system.epsilon, dist, out=dist)


# rows per block of kernel rows: at the benchmark's n = 200, 128 to 1024 rows evaluate within
# noise of each other (cross_distance_matrix caps each distance chunk), 64 rows about 20% slower
_EVAL_ROWS = 256


def _check_finite_values(values: np.ndarray, q: np.ndarray) -> None:
    # values holds one row (or one entry) per query of q
    finite = np.isfinite(values)
    if not finite.all():
        first = int(np.flatnonzero(~finite.reshape(len(q), -1).all(axis=1))[0])
        raise ValueError(f"the value at query {first} {q[first].tolist()!r} is not finite "
                         "(queries far from the nodes overflow double precision)")


def _query_array(queries, dimension: int) -> np.ndarray:
    # the one intake of query points for evaluate, cardinal_values and scale_invariance_check
    q = np.atleast_2d(np.asarray(queries, dtype=float))
    if q.ndim != 2 or q.shape[1] != dimension:
        raise ValueError(f"queries of shape {q.shape} are not {dimension}-d points")
    return q


def evaluate(model: InterpolationModel, queries) -> np.ndarray:
    """Evaluate an interpolant at query points (m, d), 256 query rows at a time.

    Each block's kernel rows (_kernel_rows) go into one 256 x n buffer,
    reused for every block, and are summed against the coefficients apart
    from the block's tail monomials, so memory beyond the result is the
    buffer, the block's tail monomials and the distance temporaries of
    cross_distance_matrix (at most _CHUNK_ENTRIES coordinate differences, or
    one row's), whatever m is.  The sums are NumPy's own einsum loop (with
    optimize off, not BLAS), so each value is a fixed-order sum over its own
    row, whose bits depend only on the model and its query: not on the other
    queries or the BLAS thread count.  ValueError unless the queries form an
    (m, d) array for the nodes' dimension d, and naming the first query
    whose value is not finite; the overflow on the way there does not warn.
    """
    q = _query_array(queries, model.points.dimension)
    m = q.shape[0]
    out = np.empty(m)
    buffer = np.empty((min(m, _EVAL_ROWS), model.points.n))
    # a far query overflows to inf or nan, which the check below names: no warning first
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, m, _EVAL_ROWS):
            rows = slice(start, start + _EVAL_ROWS)
            block = buffer[:min(_EVAL_ROWS, m - start)]
            _kernel_rows(model, q[rows], out=block)
            out[rows] = np.einsum("ij,j->i", block, model.coefficients)
            if model.tail is not None:
                poly = monomial_matrix(q[rows], model.tail.degree)
                out[rows] += np.einsum("ij,j->i", poly, model.tail.coefficients)
    _check_finite_values(out, q)
    return out


def cardinal_values(points: PointSet, kernel: Kernel, eps: float, queries) -> np.ndarray:
    """Values of all cardinal interpolants at the query points.

    Entry (i, j) is the value at query i of the interpolant that is 1 at
    node j and 0 at every other node; the kernel matrix is diagnosed at
    the relative threshold of diagnostics (TAU), as every fit is.  Rows
    sum to 1 only where constants are reproduced; no such claim is made.
    Queries and far values are taken as evaluate takes them: ValueError for
    queries that are not an (m, d) array, and naming the first query whose
    value is not finite, with no warning on the way.
    """
    q = _query_array(queries, points.dimension)
    matrix = assemble(points, kernel, eps)
    with np.errstate(over="ignore", invalid="ignore"):
        rows = _kernel_rows(matrix, q)
        values = _solve(matrix.entries, rows.T, "interpolation matrix", points.n)[0].T
    _check_finite_values(values, q)
    return values


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

    kernel is the kernel_spec text of the kernel.  max_rel_deviation is
    the largest spread of interpolant values over the query set, relative
    to the largest interpolant magnitude seen.  conditions holds the
    kernel-matrix condition number at each scale and cond_rel_spread
    their relative spread.  asserted_bound / cond_bound are
    the tolerances this kernel/tail combination is expected to meet (None
    when the deviation is reported without any claim), and passed records
    the comparison (None when nothing is asserted).
    """

    kernel: str
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
                           queries=None) -> ScaleInvarianceReport:
    """Solve the same interpolation problem at several scales and compare.

    Requires at least two scales and at least one query, taken as evaluate
    takes them (default_query_points when None).  Each fit is diagnosed at
    the relative threshold of diagnostics (TAU), and singularity at any
    scale propagates as SingularSystemError.  The report asserts a
    deviation bound only for the combinations with a scale-invariance
    guarantee; everything else is measured and reported as-is.
    """
    scales = tuple(float(e) for e in eps_list)
    if len(scales) < 2:
        raise ValueError("scale invariance needs at least two scale parameters")
    q = _query_array(default_query_points(points) if queries is None else queries,
                     points.dimension)
    if not len(q):
        raise ValueError("scale invariance needs at least one query point")

    surfaces = []
    conditions = []
    for eps in scales:
        model, matrix = _fit(points, values, kernel, eps, degree)
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
        kernel=kernel_spec(kernel),
        eps_list=scales,
        degree=degree,
        max_rel_deviation=max_rel_deviation,
        conditions=tuple(float(c) for c in conditions),
        cond_rel_spread=cond_rel_spread,
        asserted_bound=asserted_bound,
        cond_bound=cond_bound,
        passed=passed,
    )
