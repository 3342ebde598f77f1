"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive: pure-Python Laplace expansion for
determinants, explicit coordinate loops for distances, closed forms for
tiny matrices, one row at a time for CSV text.  The point is to share no
code path with the functions under test, so agreement is evidence rather
than tautology.  fresh_growth and fresh_kernel_conditions are the
exception: they rebuild a loop of the library from its parts, assembling
and factorizing every matrix afresh, so that bitwise agreement shows the
library's reuse of matrices and factors changes nothing.  whole_evaluate is
the other: it evaluates all queries in one block, so that bitwise agreement
shows the library's blocking of the queries changes nothing.
separate_solves, csv_writer_records, row_loop_csv_lines,
cell_loop_field_svg, lu_solve_determinant and row_scan_points_csv keep
earlier library bodies (two solve bodies, the csv module, a per-row CSV
writer, a per-cell SVG loop, scipy.linalg.lu_solve, a csv.reader and
float() points reader), so that bitwise agreement shows the one solve body,
the block-formatted CSV writer, the whole-array SVG, the Schur route's bound
getrs and the C-parsed points reader change nothing.
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


def fresh_growth(kernel, domain, density, n_max, seed, tau=1e-12, eps=1.0):
    """incremental_growth with a fresh base system and grown matrix per step.

    Every prefix is assembled twice, once as step n's grown matrix and once
    as step n + 1's base, and the grown matrix gets its own LU.
    """
    pts = sample(domain, density, int(n_max), seed).points

    def prefix(n):
        return PointSet(points=pts[:n], provenance={
            "kind": "deterministic", "label": f"growth-prefix(seed={int(seed)}, n={n})"})

    steps, det_signs = [], []
    for n in range(1, int(n_max)):
        system = BorderedSystem(assemble(prefix(n), kernel, eps), tau)
        f_value = system.determinant(pts[n], method="auto")
        sign, log_abs = lu_sign_logabs(assemble(prefix(n + 1), kernel, eps).entries)
        det_next = 0.0 if sign == 0 else sign * math.exp(log_abs)
        rel = abs(f_value - det_next) / max(abs(det_next), 1e-300)
        steps.append(GrowthStep(n=n, f_value=float(f_value), f_abs=abs(float(f_value)),
                                det_next=float(det_next), rel_disagreement=float(rel),
                                cond_base=system.base_diagnostics.condition,
                                flagged=bool(rel > 1e-6)))
        det_signs.append(sign)
    config = _run_config(kernel, eps, domain, density, {"n_max": int(n_max)}, seed, tau)
    return GrowthReport(config=config, steps=tuple(steps), det_signs=tuple(det_signs))


def fresh_kernel_conditions(points, kernel, eps_list, tau=1e-12):
    """Kernel-matrix condition numbers, assembled and diagnosed afresh per scale."""
    return tuple(diagnostics(assemble(points, kernel, eps).entries, tau).condition
                 for eps in eps_list)


def whole_evaluate(model, queries):
    """An interpolant at the queries from the whole (m, n) kernel matrix at once."""
    q = np.atleast_2d(np.asarray(queries, dtype=float))
    dist = cross_distance_matrix(q, model.points.points)
    out = model.kernel.value_scaled(model.epsilon, dist) @ model.coefficients
    if model.tail is not None:
        out = out + monomial_matrix(q, model.tail.degree) @ model.tail.coefficients
    return out


def separate_solves(points, values, kernel, eps=1.0, degree=None, tau=1e-12):
    """A fitted model from one of two solve bodies: plain, or tailed with degree.

    The tailed body fills a zeroed saddle matrix slice by slice.  Neither
    checks its inputs or raises on a singular verdict.
    """
    matrix = assemble(points, kernel, eps)
    rhs = np.asarray(values, dtype=float)
    if degree is None:
        diag = diagnostics(matrix.entries, tau)
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
    diag = diagnostics(saddle, tau)
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


def row_scan_points_csv(path):
    """A points CSV read whole through csv.reader and float(): an earlier library reader.

    Ragged rows, non-numeric fields and non-finite values are rejected.
    Returns the point set (with file provenance) and the value column or
    None when absent.
    """
    path = Path(path)
    with open(path, newline="") as handle:
        rows = [row for row in csv.reader(handle) if row]
    if not rows:
        raise ValueError(f"{path}: empty points file")
    header = [h.strip().lower() for h in rows[0]]
    has_values = header[-1] == "value"
    coord_names = header[:-1] if has_values else header
    d = len(coord_names)
    if d < 1 or coord_names != [f"x{i + 1}" for i in range(d)]:
        raise ValueError(f"{path}: header must be x1,...,xd with an optional trailing value column")
    width = d + 1 if has_values else d
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise ValueError(f"{path}: row {i} has {len(row)} fields, expected {width}")
    try:
        # float() parses each field, as NumPy's string conversion would
        data = np.fromiter(map(float, chain.from_iterable(rows[1:])), float,
                           (len(rows) - 1) * width).reshape(-1, width)
    except ValueError:
        # name the first offending row
        for i, row in enumerate(rows[1:], start=2):
            try:
                [float(cell) for cell in row]
            except ValueError:
                raise ValueError(f"{path}: row {i} contains a non-numeric field") from None
        raise
    if data.shape[0] < 1:
        raise ValueError(f"{path}: no data rows")
    if not np.isfinite(data).all():
        raise ValueError(f"{path}: non-finite value in data rows")
    pts = PointSet(
        points=data[:, :d],
        provenance={"kind": "file", "path": str(path)},
    )
    return pts, (data[:, d].copy() if has_values else None)
