"""The minimum node distance of assemble is the distance matrix's own minimum, bit for bit."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyharm import PointSet, RadialPower, assemble, domains, pairwise_distance_matrix

# a few lattice steps and mixed-scale reals
COORDINATES = st.one_of(
    st.integers(-3, 3).map(float),
    st.integers(-3, 3).map(lambda k: 0.1 * k),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def point_arrays(draw):
    n, d = draw(st.integers(1, 60)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        # coordinates drawn from a small pool: lattice ties on every axis, and duplicates
        pool = np.array(draw(st.lists(COORDINATES, min_size=1, max_size=6)))
        pts = pool[rng.integers(0, pool.size, (n, d))]
    else:
        pts = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-6, 7, (n, d))
    if draw(st.booleans()):
        # one wide axis on which all points but the first share one coordinate
        axis = draw(st.integers(0, d - 1))
        pts[:, axis] = draw(COORDINATES)
        pts[0, axis] += 1e7
    for source, target in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                                  st.integers(0, n - 1)), max_size=3)):
        pts[target] = pts[source]
    return pts


def _min_dist(pts):
    return assemble(PointSet(pts), RadialPower(1)).min_dist


@settings(max_examples=1000, deadline=None, database=None)
@given(point_arrays())
def test_sweep_equals_the_matrix_minimum_bitwise(pts):
    got = _min_dist(pts)
    n = pts.shape[0]
    if n == 1:
        assert got == math.inf
        return
    want = pairwise_distance_matrix(pts)[~np.eye(n, dtype=bool)].min()
    assert np.float64(got).tobytes() == want.tobytes()


def test_lattice_ties_and_duplicates():
    grid = np.array([[i, j, k] for i in range(4) for j in range(5) for k in range(3)], float)
    assert _min_dist(0.25 * grid) == 0.25
    assert _min_dist(np.vstack([grid, grid[7]])) == 0.0
    # every point on the widest axis shares one coordinate but the last
    column = np.zeros((50, 2))
    column[:, 1] = np.arange(50.0) * 0.5
    column[-1, 0] = 100.0
    assert _min_dist(column) == 0.5


@pytest.mark.parametrize("n", [2, 9, 10, 100, 800])
def test_memory_is_a_few_blocks_at_any_n(n):
    # beyond its one n x n matrix, assemble holds a few distance chunks: the minimum is
    # taken over a view of the off-diagonal entries, not over a copy of them
    pts = np.column_stack([np.zeros(n), np.arange(n, dtype=float)])
    pts[-1, 0] = 1e6
    dist = pairwise_distance_matrix(pts)
    want = dist[~np.eye(n, dtype=bool)].min()
    points = PointSet(pts)
    tracemalloc.start()
    try:
        got = assemble(points, RadialPower(1)).min_dist
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.float64(got).tobytes() == want.tobytes()
    assert peak <= n * n * 8 + 3 * domains._CHUNK_ENTRIES * 8
