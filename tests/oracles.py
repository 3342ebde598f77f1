"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive: pure-Python Laplace expansion for
determinants, explicit coordinate loops for distances, closed forms for
tiny matrices and for the distance matrix of points on a line, one row at
a time for CSV text.  The point is to share no code path with the
functions under test, so agreement is evidence rather than tautology.  fresh_growth and fresh_kernel_conditions are the
exception: they rebuild a loop of the library from its parts, assembling
and factorizing every matrix afresh, so that bitwise agreement shows the
library's reuse of matrices and factors changes nothing.  whole_evaluate is
the other: it evaluates all queries in one block, so that bitwise agreement
(in the fixed einsum order) shows the library's blocking of the queries
changes nothing.
separate_solves, csv_writer_records, row_loop_csv_lines,
cell_loop_field_svg, lu_solve_determinant, row_scan_points_csv and
summed_sign_logabs and copying_kernel_value keep earlier library bodies
(two solve bodies, the csv module, a per-row CSV writer, a per-cell SVG
loop, scipy.linalg.lu_solve, a csv.reader and float() points reader,
np.diag and np.sum reductions, kernel values on fresh arrays), so that
bitwise agreement shows the one solve body, the block-formatted CSV writer,
the whole-array SVG, the Schur route's bound getrs, the C-parsed points
reader, the method reductions of the LU determinant and the in-place
kernel values change nothing.
"""

import csv
import io
import math
from itertools import chain
from pathlib import Path
from xml.sax.saxutils import escape

import numpy as np
import scipy.linalg

from polyharm import (
    CSV_HEADER,
    BorderedSystem,
    GrowthReport,
    GrowthStep,
    InterpolationModel,
    PointSet,
    PolynomialTail,
    ThinPlateSpline,
    assemble,
    cross_distance_matrix,
    diagnostics,
    lu_sign_logabs,
    monomial_matrix,
    sample,
)
from polyharm._linalg import lu_solve_refined
from polyharm.cli import _SVG_PALETTE, _SVG_ZERO
from polyharm.unisolvence import _run_config


def cofactor_det(matrix):
    """Determinant by Laplace expansion along the first row.

    Exponential cost; intended for n <= 6 only.
    """
    rows = [[float(v) for v in row] for row in np.asarray(matrix, dtype=float)]
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0.0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        term = rows[0][j] * cofactor_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def brute_distance(a, b):
    """Euclidean distance via an explicit coordinate loop."""
    return math.sqrt(sum((float(x) - float(y)) ** 2 for x, y in zip(a, b)))


def loop_cross_distance(a, b):
    """Distances between the rows of a and b, one row of a at a time.

    The per-entry arithmetic (difference, sum of squares over coordinates,
    square root) is the library's, so the two must agree bitwise.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.empty((a.shape[0], b.shape[0]))
    for i in range(a.shape[0]):
        diff = b - a[i]
        out[i] = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    return out


def two_lane_distance(a, b):
    """Distances between the rows of a and b, one pair at a time in Python floats.

    The squared coordinate differences of a pair are summed in the library's
    documented order: the even-indexed coordinates in turn in one lane, the
    odd-indexed ones in turn in another, then the two lanes.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.empty((a.shape[0], b.shape[0]))
    for i, x in enumerate(a.tolist()):
        for j, y in enumerate(b.tolist()):
            lanes = [0.0, 0.0]
            for k, (p, q) in enumerate(zip(x, y)):
                lanes[k % 2] += (q - p) * (q - p)
            out[i, j] = math.sqrt(lanes[0] + lanes[1])
    return out


def brute_kernel_matrix(points, phi):
    """Kernel matrix built entry by entry with a scalar radial function."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                out[i, j] = phi(brute_distance(pts[i], pts[j]))
    return out


def tps_scalar(k, r):
    """Thin-plate value r**(2k) * log(r) with the r = 0 limit."""
    if r == 0.0:
        return 0.0
    return math.pow(r, 2 * k) * math.log(r)


def rp_scalar(nu, r):
    """Radial power value r**nu with the r = 0 limit."""
    if r == 0.0:
        return 0.0
    return math.pow(r, nu)


def copying_kernel_value(kernel, eps, r):
    """phi(eps * r) with every step on a fresh array: np.where, np.log and **."""
    arr = np.asarray(r, dtype=float) * eps
    if isinstance(kernel, ThinPlateSpline):
        safe = np.where(arr > 0.0, arr, 1.0)
        out = np.log(safe)
        out *= safe**(2 * kernel.k)
        return out
    return arr**kernel.nu


def svd_sigma_extremes(matrix):
    """(sigma_min, sigma_max) from a general SVD, which ignores symmetry."""
    svals = np.linalg.svd(np.asarray(matrix, dtype=float), compute_uv=False)
    return float(svals[-1]), float(svals[0])


def pair_determinant(phi_r):
    """det [[0, v], [v, 0]] = -v**2."""
    return -phi_r * phi_r


def triple_determinant(a, b, c):
    """det of the zero-diagonal symmetric 3x3 with off-diagonals a, b, c.

    Laplace expansion of [[0, a, b], [a, 0, c], [b, c, 0]] gives 2*a*b*c.
    """
    return 2.0 * a * b * c


def line_distance_sign_logabs(nodes):
    """(sign, log|det|) of the distance matrix |x_i - x_j| of n >= 2 distinct points on a line.

    For sorted x_1 < ... < x_n the determinant has the closed form
    (-1)^(n-1) * 2^(n-2) * (x_n - x_1) * prod(x_(i+1) - x_i), so its log is
    a sum of n logarithms of gaps and no factorization is involved.
    """
    x = np.sort(np.asarray(nodes, dtype=float))
    n = len(x)
    gaps = np.diff(x)
    return (-1) ** (n - 1), float((n - 2) * np.log(2.0) + np.log(x[-1] - x[0]) + np.log(gaps).sum())


def near_even_sigma_min(points, delta, k=1):
    """First-order sigma_min of the rp:nu=2k+delta kernel matrix, k = 1 or 2, from NumPy alone.

    r**(2k + delta) = r**2k + delta * r**2k log r + O(delta**2).  The r**2k
    matrix has its range in the span of the functions that expanding
    |x - y|**2k gives: {1, x_i, |x|**2} for k = 1 and {1, x_i, x_i x_j,
    |x|**2 x_i, |x|**4} for k = 2.  On that span's complement, with
    orthonormal basis Q from a complete QR of its basis, the matrix is
    delta * Q^T T Q to first order, T the tps:k=k matrix, and Q^T T Q is
    definite because the thin-plate kernel is CPD of order k + 1 and the
    complement is orthogonal to every polynomial of degree at most k.  So the
    prediction is |delta| * min |lambda(Q^T T Q)|, for more points than
    the span has functions: d + 2 for k = 1, 9 in 2-d and 14 in 3-d for k = 2.
    """
    x = np.asarray(points, dtype=float)
    r = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1))
    tps = r ** (2 * k) * np.log(np.where(r > 0.0, r, 1.0))
    square = (x**2).sum(axis=1)
    if k == 1:
        span = [np.ones(len(x)), *x.T, square]
    elif k == 2:
        d = x.shape[1]
        products = [x[:, i] * x[:, j] for i in range(d) for j in range(i, d)]
        span = [np.ones(len(x)), *x.T, *products, *(square[:, None] * x).T, square**2]
    else:
        raise ValueError("near_even_sigma_min covers k = 1 and k = 2")
    span = np.column_stack(span)
    q = np.linalg.qr(span, mode="complete")[0][:, span.shape[1]:]
    return abs(delta) * float(np.abs(np.linalg.eigvalsh(q.T @ tps @ q)).min())


def fresh_growth(kernel, domain, density, n_max, seed):
    """incremental_growth with a fresh base system and grown matrix per step.

    Every prefix is assembled twice, once as step n's grown matrix and once
    as step n + 1's base, and the grown matrix gets its own LU.
    """
    pts = sample(domain, density, int(n_max), seed).points

    steps, det_signs = [], []
    for n in range(1, int(n_max)):
        system = BorderedSystem(assemble(PointSet(pts[:n]), kernel))
        f_value = system.determinant(pts[n], method="auto")
        sign, log_abs = lu_sign_logabs(assemble(PointSet(pts[:n + 1]), kernel).entries)
        det_next = 0.0 if sign == 0 else sign * math.exp(log_abs)
        rel = abs(f_value - det_next) / max(abs(det_next), 1e-300)
        steps.append(GrowthStep(n=n, f_value=float(f_value), f_abs=abs(float(f_value)),
                                det_next=float(det_next), rel_disagreement=float(rel),
                                cond_base=system.base_diagnostics.condition,
                                flagged=bool(rel > 1e-6 or (det_next == 0.0 and sign != 0))))
        det_signs.append(sign)
    # every matrix is assembled at scale 1.0, and every bordered system is diagnosed at the
    # threshold of diagnostics, 1e-12
    config = _run_config(kernel, 1.0, domain, density, {"n_max": int(n_max)}, seed, 1e-12)
    return GrowthReport(config=config, steps=tuple(steps), det_signs=tuple(det_signs))


def fresh_kernel_conditions(points, kernel, eps_list):
    """Kernel-matrix condition numbers, assembled and diagnosed afresh per scale."""
    return tuple(diagnostics(assemble(points, kernel, eps).entries, 1e-12).condition
                 for eps in eps_list)


def _whole_terms(model, queries):
    # the whole (m, n) kernel matrix and (m, p) monomial matrix (None without a tail)
    q = np.atleast_2d(np.asarray(queries, dtype=float))
    dist = cross_distance_matrix(q, model.points.points)
    kernel = copying_kernel_value(model.kernel, model.epsilon, dist)
    return kernel, None if model.tail is None else monomial_matrix(q, model.tail.degree)


def whole_evaluate(model, queries, fixed_order=False):
    """An interpolant at the queries from the whole (m, n) kernel matrix at once.

    The matrix-vector products are BLAS's, or with fixed_order NumPy's own
    einsum loop.
    """
    product = (lambda a, x: np.einsum("ij,j->i", a, x)) if fixed_order else np.matmul
    kernel, poly = _whole_terms(model, queries)
    out = product(kernel, model.coefficients)
    if poly is not None:
        out = out + product(poly, model.tail.coefficients)
    return out


def term_magnitudes(model, queries):
    """Per query, the sum of |c_j phi_j| over the nodes plus |a_k p_k| over the tail."""
    kernel, poly = _whole_terms(model, queries)
    total = np.abs(kernel * model.coefficients).sum(axis=1)
    if poly is not None:
        total += np.abs(poly * model.tail.coefficients).sum(axis=1)
    return total


def separate_solves(points, values, kernel, eps=1.0, degree=None):
    """A fitted model from one of two solve bodies: plain, or tailed with degree.

    The tailed body fills a zeroed saddle matrix slice by slice.  Neither
    checks its inputs or raises on a singular verdict.
    """
    matrix = assemble(points, kernel, eps)
    rhs = np.asarray(values, dtype=float)
    if degree is None:
        diag = diagnostics(matrix.entries, 1e-12)
        coeffs = lu_solve_refined(diag.lu_piv, matrix.entries, rhs)
        return InterpolationModel(points=points, kernel=kernel, epsilon=matrix.epsilon,
                                  coefficients=coeffs, diagnostics=diag)
    poly = monomial_matrix(points.points, degree)
    n, p = poly.shape
    saddle = np.zeros((n + p, n + p))
    saddle[:n, :n] = matrix.entries
    saddle[:n, n:] = poly
    saddle[n:, :n] = poly.T
    full_rhs = np.concatenate([rhs, np.zeros(p)])
    diag = diagnostics(saddle, 1e-12)
    solution = lu_solve_refined(diag.lu_piv, saddle, full_rhs)
    return InterpolationModel(points=points, kernel=kernel, epsilon=matrix.epsilon,
                              coefficients=solution[:n],
                              tail=PolynomialTail(degree=degree, coefficients=solution[n:]),
                              diagnostics=diag)


def csv_writer_records(records):
    """Per-trial records CSV text written through csv.writer (LF line ends)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(r.to_dict().values() for r in records)
    return buffer.getvalue()


def row_loop_csv_lines(header, rows, newline):
    """CSV lines one row of Python numbers at a time: an earlier library writer."""
    yield ",".join(header) + newline
    for row in rows:
        yield ",".join(map(repr, row)) + newline


def row_loop_points_csv(path, points, values=None):
    """A points CSV written row by row through csv.writer (CRLF line ends)."""
    pts = np.asarray(points, dtype=float)
    header = [f"x{i + 1}" for i in range(pts.shape[1])]
    if values is not None:
        header.append("value")
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for i in range(pts.shape[0]):
            row = [repr(float(v)) for v in pts[i]]
            if values is not None:
                row.append(repr(float(values[i])))
            writer.writerow(row)


def row_loop_field_csv(path, xs, ys, field):
    """A field CSV written one lattice point at a time, x-major, LF line ends."""
    with open(path, "w", newline="") as handle:
        handle.write("x,y,value\n")
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                handle.write(f"{float(x)!r},{float(y)!r},{float(field[i, j])!r}\n")


def cell_loop_field_svg(xs, ys, values, desc):
    """A field SVG built one lattice cell at a time, NumPy reductions per cell."""
    size, margin = 640, 20
    plot = size - 2 * margin
    x0, x1 = float(xs[0]), float(xs[-1])
    y0, y1 = float(ys[0]), float(ys[-1])
    vmax = float(np.abs(values).max())
    floor = vmax * 1e-9 if vmax > 0.0 else 1.0

    def px(x):
        return margin + (x - x0) / (x1 - x0) * plot

    def py(y):
        return margin + (y1 - y) / (y1 - y0) * plot

    def color(cell):
        low, high = float(cell.min()), float(cell.max())
        if low < 0.0 < high or low == 0.0 or high == 0.0:
            return _SVG_ZERO
        if vmax == 0.0:
            return _SVG_PALETTE[4]
        mean = float(cell.mean())
        t = math.copysign(math.log1p(abs(mean) / floor) / math.log1p(vmax / floor), mean)
        t = max(-1.0, min(1.0, t))  # a mean that overflows to +-inf takes its sign's end band
        band = min(8, max(0, int((t + 1.0) / 2.0 * 9.0)))
        return _SVG_PALETTE[band]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {size} {size}">',
        f"<desc>{escape(desc)}</desc>",
        f'<rect x="0" y="0" width="{size}" height="{size}" fill="#ffffff"/>',
    ]
    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            cell = values[i : i + 2, j : j + 2]
            cx, cy = px(xs[i]), py(ys[j + 1])
            w, h = px(xs[i + 1]) - cx, py(ys[j]) - cy
            parts.append(
                f'<rect x="{cx:.2f}" y="{cy:.2f}" width="{w:.2f}" height="{h:.2f}" '
                f'fill="{color(cell)}"/>'
            )
    parts.append(
        f'<rect x="{margin}" y="{margin}" width="{plot}" height="{plot}" '
        'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def lu_solve_determinant(system, point):
    """The Schur route of BorderedSystem.determinant through scipy.linalg.lu_solve."""
    border = system.border(point)
    diag = system.base_diagnostics
    solved = scipy.linalg.lu_solve(diag.lu_piv, border, check_finite=False)
    return -diag.det_sign * math.exp(diag.log_abs_det) * float(border @ solved)


def summed_sign_logabs(lu, piv):
    """(sign, log|det|) read off a pivoted LU through np.diag and np.sum: an earlier library body."""
    diag = np.diag(lu)
    if np.any(diag == 0.0):
        return 0, -math.inf
    swaps = int(np.sum(piv != np.arange(lu.shape[0])))
    sign = -1 if swaps % 2 else 1
    if int(np.sum(diag < 0.0)) % 2:
        sign = -sign
    log_abs = float(np.sum(np.log(np.abs(diag))))
    return sign, log_abs


def row_scan_points_csv(path):
    """A points CSV read whole through csv.reader and float(): an earlier library reader.

    Ragged rows, non-numeric fields and non-finite values are rejected; a bad
    row is named by csv.reader's line_num, its line in the file.  Returns
    the point set and the value column or None when absent.
    """
    path = Path(path)
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        rows, lines = [], []  # each non-blank row, and its line in the file
        for row in reader:
            if row:
                rows.append(row)
                lines.append(reader.line_num)
    if not rows:
        raise ValueError(f"{path}: empty points file")
    header = [h.strip().lower() for h in rows[0]]
    has_values = header[-1] == "value"
    coord_names = header[:-1] if has_values else header
    d = len(coord_names)
    if d < 1 or coord_names != [f"x{i + 1}" for i in range(d)]:
        raise ValueError(f"{path}: header must be x1,...,xd with an optional trailing value column")
    width = d + 1 if has_values else d
    for i, row in zip(lines[1:], rows[1:]):
        if len(row) != width:
            raise ValueError(f"{path}: row {i} has {len(row)} fields, expected {width}")
    try:
        # float() parses each field, as NumPy's string conversion would
        data = np.fromiter(map(float, chain.from_iterable(rows[1:])), float,
                           (len(rows) - 1) * width).reshape(-1, width)
    except ValueError:
        # name the first offending row
        for i, row in zip(lines[1:], rows[1:]):
            try:
                [float(cell) for cell in row]
            except ValueError:
                raise ValueError(f"{path}: row {i} contains a non-numeric field") from None
        raise
    if data.shape[0] < 1:
        raise ValueError(f"{path}: no data rows")
    if not np.isfinite(data).all():
        raise ValueError(f"{path}: non-finite value in data rows")
    return PointSet(data[:, :d]), (data[:, d].copy() if has_values else None)
