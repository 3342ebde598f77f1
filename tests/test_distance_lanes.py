"""The distance kernel sums squared coordinates in its documented two-lane order.

Every distance of the package, kernel rows included, goes through
cross_distance_matrix, so its chunking must not change a bit anywhere.
"""

import numpy as np
import pytest

from oracles import two_lane_distance
from polyharm import (
    BorderedSystem,
    ThinPlateSpline,
    Uniform,
    assemble,
    cardinal_values,
    cross_distance_matrix,
    domains,
    evaluate,
    sample,
    solve_augmented,
    unit_box,
)
from polyharm.interpolation import _EVAL_ROWS


def mixed_scale_points(rng, m, d):
    # coordinates spread over many magnitudes, so the order of the sum shows in the bits
    return rng.standard_normal((m, d)) * 10.0 ** rng.integers(-6, 7, (m, d))


@pytest.mark.parametrize("d", range(1, 11))
def test_distances_follow_the_two_lane_order(d):
    rng = np.random.default_rng(100 + d)
    for m, n in ((1, 1), (1, 7), (6, 1), (9, 13)):
        a, b = mixed_scale_points(rng, m, d), mixed_scale_points(rng, n, d)
        got = cross_distance_matrix(a, b)
        assert got.shape == (m, n)
        assert np.array_equal(got, two_lane_distance(a, b))


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_empty_sides_give_empty_matrices(d):
    rng = np.random.default_rng(d)
    assert cross_distance_matrix(np.empty((0, d)), rng.random((5, d))).shape == (0, 5)
    assert cross_distance_matrix(rng.random((4, d)), np.empty((0, d))).shape == (4, 0)
    assert cross_distance_matrix(np.empty((0, d)), np.empty((0, d))).shape == (0, 0)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 9])
def test_chunk_boundaries_keep_the_bits(monkeypatch, d):
    rng = np.random.default_rng(200 + d)
    b = mixed_scale_points(rng, 7, d)
    monkeypatch.setattr(domains, "_CHUNK_ENTRIES", 64)
    step = max(1, 64 // b.size)
    # one row short of, exactly at and one row past a chunk boundary, then three chunks
    for m in (step - 1, step, step + 1, 2 * step + 1):
        a = mixed_scale_points(rng, m, d)
        assert np.array_equal(cross_distance_matrix(a, b), two_lane_distance(a, b))
    monkeypatch.setattr(domains, "_CHUNK_ENTRIES", 1)  # one row per chunk
    a = mixed_scale_points(rng, 3, d)
    assert np.array_equal(cross_distance_matrix(a, b), two_lane_distance(a, b))


def test_kernel_rows_split_into_distance_chunks_keep_their_bits(monkeypatch):
    # evaluate, cardinal_values, grid and border all take their kernel rows through
    # cross_distance_matrix; at _CHUNK_ENTRIES = 64 and n = 9 a chunk is 3 rows, so each
    # 256-row block of kernel rows is split into many chunks, the default run into none
    kernel, eps = ThinPlateSpline(1), 0.7
    nodes = sample(unit_box(2), Uniform(), 9, 71)
    model = solve_augmented(nodes, np.cos(3.0 * nodes.points.sum(axis=1)), kernel, eps)
    system = BorderedSystem(assemble(nodes, kernel, eps))
    queries = np.random.default_rng(72).uniform(-0.5, 1.5, (600, 2))
    ys = np.linspace(-0.5, 1.5, 300)  # a lattice column of two blocks, the last one short
    assert domains._CHUNK_ENTRIES // (2 * nodes.n) >= _EVAL_ROWS > 64 // (2 * nodes.n)

    def outputs():
        return (evaluate(model, queries), cardinal_values(nodes, kernel, eps, queries),
                system.grid([0.1, 0.55], ys), np.array([system.border(x) for x in queries[:40]]))

    whole = outputs()
    monkeypatch.setattr(domains, "_CHUNK_ENTRIES", 64)
    for name, got, want in zip(("evaluate", "cardinal_values", "grid", "border"), outputs(), whole):
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
