"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive: pure-Python Laplace expansion for
determinants, explicit coordinate loops for distances, closed forms for
tiny matrices.  The point is to share no code path with the functions
under test, so agreement is evidence rather than tautology.
"""

import math

import numpy as np


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


def pair_determinant(phi_r):
    """det [[0, v], [v, 0]] = -v**2."""
    return -phi_r * phi_r


def triple_determinant(a, b, c):
    """det of the zero-diagonal symmetric 3x3 with off-diagonals a, b, c.

    Laplace expansion of [[0, a, b], [a, 0, c], [b, c, 0]] gives 2*a*b*c.
    """
    return 2.0 * a * b * c
