"""Point sets compute their minimum pairwise distance on first read only."""

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
    domains,
    incremental_growth,
    monte_carlo,
    read_points_csv,
    sample,
    unit_box,
    write_points_csv,
)


@pytest.fixture
def trees(monkeypatch):
    """The list that receives one entry per kd-tree built in domains."""
    built = []
    original = domains.cKDTree

    def counted(*args, **kwargs):
        built.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(domains, "cKDTree", counted)
    return built


def test_distance_is_computed_on_first_read_only(trees):
    ps = PointSet.from_array([[0.0, 0.0], [3.0, 4.0], [0.0, 1.0]])
    assert trees == []
    assert ps.min_pairwise_distance == 1.0
    assert len(trees) == 1
    assert ps.min_pairwise_distance == 1.0
    assert len(trees) == 1


def test_distance_is_not_a_constructor_argument():
    with pytest.raises(TypeError):
        PointSet(points=[[0.0, 0.0], [1.0, 0.0]], provenance={}, min_pairwise_distance=7.0)
    assert [f.name for f in dataclasses.fields(PointSet)] == ["points", "provenance"]


def test_replaced_points_report_their_own_distance():
    ps = PointSet.from_array([[0.0, 0.0], [3.0, 4.0]])
    assert ps.min_pairwise_distance == 5.0
    moved = dataclasses.replace(ps, points=[[0.0, 0.0], [0.0, 1.0]])
    assert moved.min_pairwise_distance == 1.0
    assert dataclasses.replace(ps, points=[[2.0, 2.0]]).min_pairwise_distance == math.inf


def test_library_paths_build_no_tree(trees, tmp_path):
    path = tmp_path / "points.csv"
    write_points_csv(path, np.random.default_rng(1).random((30, 2)), np.arange(30.0))
    read_points_csv(path)
    PointSet.from_array(np.random.default_rng(2).random((30, 3)))
    doc = {"kernel": "tps:k=1", "epsilon": 1.0, "points": [[0.0, 0.0], [1.0, 2.0]],
           "coefficients": [1.0, -1.0], "tail": None}
    InterpolationModel.from_dict(json.loads(json.dumps(doc)))
    incremental_growth(ThinPlateSpline(1), unit_box(2), Uniform(), 30, 3)
    assert trees == []


def test_interp_eval_and_field_build_no_tree(trees, run_cli, tmp_path):
    data, queries = tmp_path / "data.csv", tmp_path / "queries.csv"
    nodes = sample(unit_box(2), Uniform(), 12, 5)
    write_points_csv(data, nodes, np.sin(nodes.points[:, 0]))
    write_points_csv(queries, np.random.default_rng(6).random((40, 2)))
    trees.clear()
    code, _, err = run_cli(["interp", "--kernel", "tps:k=1", "--augment", "poly",
                            "--points", str(data), "--eval", str(queries),
                            "--pred", str(tmp_path / "pred.csv")])
    assert code == 0, err
    for source in (["--points", str(data)], ["--n", "6", "--seed", "7"]):
        code, _, err = run_cli(["field", "--kernel", "tps:k=1", *source,
                                "--grid=0,1,0,1,4,3", "--out", str(tmp_path / "f.csv")])
        assert code == 0, err
    assert trees == []


@pytest.mark.parametrize("threads", [1, 2])
def test_monte_carlo_builds_one_tree_per_trial(trees, threads):
    report = monte_carlo(ThinPlateSpline(1), unit_box(2), Uniform(), [5, 9], 6, 8,
                         threads=threads)
    assert len(trees) == len(report.records) == 12
    for record in report.records:
        pts = sample(unit_box(2), Uniform(), record.n,
                     domains.mix_seed(8, record.n, record.trial)).points
        dist = domains.pairwise_distance_matrix(pts)
        assert record.min_pairwise_distance == dist[~np.eye(record.n, dtype=bool)].min()
