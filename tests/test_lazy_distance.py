"""A point set caches nothing; assemble reads the minimum distance off the matrix it builds."""

import dataclasses
import json
import math

import numpy as np
import pytest

from polyharm import (
    InterpolationModel,
    PointSet,
    ThinPlateSpline,
    Uniform,
    assemble,
    domains,
    interpolation,
    monte_carlo,
    read_points_csv,
    sample,
    unit_box,
    write_points_csv,
)


def test_distance_is_not_a_constructor_argument():
    with pytest.raises(TypeError):
        PointSet(points=[[0.0, 0.0], [1.0, 0.0]], min_pairwise_distance=7.0)
    assert [f.name for f in dataclasses.fields(PointSet)] == ["points"]


def test_point_set_has_no_distance_and_domains_no_second_minimum():
    ps = PointSet([[0.0, 0.0], [3.0, 4.0]])
    assert not hasattr(ps, "min_pairwise_distance")
    assert not hasattr(ps, "_note_min_distance")
    assert not hasattr(domains, "_min_distance")


def test_replaced_points_report_their_own_distance():
    ps = PointSet([[0.0, 0.0], [3.0, 4.0]])
    assert assemble(ps, ThinPlateSpline(1)).min_dist == 5.0
    moved = dataclasses.replace(ps, points=[[0.0, 0.0], [0.0, 1.0]])
    assert assemble(moved, ThinPlateSpline(1)).min_dist == 1.0
    single = dataclasses.replace(ps, points=[[2.0, 2.0]])
    assert assemble(single, ThinPlateSpline(1)).min_dist == math.inf


def test_library_paths_compute_no_distance(monkeypatch, tmp_path):
    calls = []
    original = domains.cross_distance_matrix

    def counted(a, b, out=None):
        calls.append(len(a))
        return original(a, b, out)

    monkeypatch.setattr(domains, "cross_distance_matrix", counted)
    path = tmp_path / "points.csv"
    write_points_csv(path, np.random.default_rng(1).random((30, 2)), np.arange(30.0))
    points, _ = read_points_csv(path)
    PointSet(np.random.default_rng(2).random((30, 3)))
    sample(unit_box(2), Uniform(), 30, 3)
    doc = {"kernel": "tps:k=1", "epsilon": 1.0, "points": [[0.0, 0.0], [1.0, 2.0]],
           "coefficients": [1.0, -1.0], "tail": None}
    InterpolationModel.from_dict(json.loads(json.dumps(doc)))
    assert calls == []
    # the counter sees the one distance matrix of an assembly
    assemble(points, ThinPlateSpline(1))
    assert calls == [30]


def test_assemble_reads_the_distance_off_its_matrix():
    pts = sample(unit_box(3), Uniform(), 40, 9)
    matrix = assemble(pts, ThinPlateSpline(1))
    dist = domains.pairwise_distance_matrix(pts.points)
    want = dist[~np.eye(pts.n, dtype=bool)].min()
    assert np.float64(matrix.min_dist).tobytes() == want.tobytes()
    # the distance is read before the scale and the kernel values are applied to the matrix
    assert assemble(pts, ThinPlateSpline(1), eps=3.0).min_dist == matrix.min_dist
    assert assemble(PointSet([[0.5, 0.5]]), ThinPlateSpline(1)).min_dist == math.inf


@pytest.mark.parametrize("threads", [1, 2])
def test_monte_carlo_computes_one_distance_per_trial(monkeypatch, threads):
    built = []
    original = interpolation.pairwise_distance_matrix

    def counted(points):
        built.append(len(points))
        return original(points)

    monkeypatch.setattr(interpolation, "pairwise_distance_matrix", counted)
    # d = 3 and d = 8 sum coordinates in an order where a plain-order sum can differ in the last bit
    for d in (2, 3, 8):
        built.clear()
        report = monte_carlo(ThinPlateSpline(1), unit_box(d), Uniform(), [5, 9], 6, 8,
                             threads=threads)
        # each trial's min_dist is read off the one distance matrix its assembly builds
        assert (sorted(built), len(report.records)) == ([5] * 6 + [9] * 6, 12)
        for record in report.records:
            pts = sample(unit_box(d), Uniform(), record.n,
                         domains.mix_seed(8, record.n, record.trial)).points
            dist = original(pts)
            assert record.min_pairwise_distance == dist[~np.eye(record.n, dtype=bool)].min()
