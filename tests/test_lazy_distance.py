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
    assemble,
    domains,
    incremental_growth,
    monte_carlo,
    read_points_csv,
    sample,
    unit_box,
    write_points_csv,
)


@pytest.fixture
def sweeps(monkeypatch):
    """The list that receives one entry per minimum distance domains computes from the points."""
    run = []
    original = domains._min_distance

    def counted(points):
        run.append(points)
        return original(points)

    monkeypatch.setattr(domains, "_min_distance", counted)
    return run


def test_distance_is_computed_on_first_read_only(sweeps):
    ps = PointSet([[0.0, 0.0], [3.0, 4.0], [0.0, 1.0]])
    assert sweeps == []
    assert ps.min_pairwise_distance == 1.0
    assert len(sweeps) == 1
    assert ps.min_pairwise_distance == 1.0
    assert len(sweeps) == 1


def test_distance_is_not_a_constructor_argument():
    with pytest.raises(TypeError):
        PointSet(points=[[0.0, 0.0], [1.0, 0.0]], min_pairwise_distance=7.0)
    assert [f.name for f in dataclasses.fields(PointSet)] == ["points"]


def test_replaced_points_report_their_own_distance():
    ps = PointSet([[0.0, 0.0], [3.0, 4.0]])
    assert ps.min_pairwise_distance == 5.0
    moved = dataclasses.replace(ps, points=[[0.0, 0.0], [0.0, 1.0]])
    assert moved.min_pairwise_distance == 1.0
    assert dataclasses.replace(ps, points=[[2.0, 2.0]]).min_pairwise_distance == math.inf


def test_library_paths_compute_no_distance(sweeps, tmp_path):
    path = tmp_path / "points.csv"
    write_points_csv(path, np.random.default_rng(1).random((30, 2)), np.arange(30.0))
    read_points_csv(path)
    PointSet(np.random.default_rng(2).random((30, 3)))
    doc = {"kernel": "tps:k=1", "epsilon": 1.0, "points": [[0.0, 0.0], [1.0, 2.0]],
           "coefficients": [1.0, -1.0], "tail": None}
    InterpolationModel.from_dict(json.loads(json.dumps(doc)))
    incremental_growth(ThinPlateSpline(1), unit_box(2), Uniform(), 30, 3)
    assert sweeps == []


def test_interp_eval_and_field_compute_no_distance(sweeps, run_cli, tmp_path):
    data, queries = tmp_path / "data.csv", tmp_path / "queries.csv"
    nodes = sample(unit_box(2), Uniform(), 12, 5)
    write_points_csv(data, nodes, np.sin(nodes.points[:, 0]))
    write_points_csv(queries, np.random.default_rng(6).random((40, 2)))
    sweeps.clear()
    code, _, err = run_cli(["interp", "--kernel", "tps:k=1", "--augment", "poly",
                            "--points", str(data), "--eval", str(queries),
                            "--pred", str(tmp_path / "pred.csv")])
    assert code == 0, err
    for source in (["--points", str(data)], ["--n", "6", "--seed", "7"]):
        code, _, err = run_cli(["field", "--kernel", "tps:k=1", *source,
                                "--grid=0,1,0,1,4,3", "--out", str(tmp_path / "f.csv")])
        assert code == 0, err
    assert sweeps == []


def test_assemble_reads_the_distance_off_its_matrix(sweeps):
    pts = sample(unit_box(3), Uniform(), 40, 9)
    assemble(pts, ThinPlateSpline(1))
    assert sweeps == []
    dist = domains.pairwise_distance_matrix(pts.points)
    want = dist[~np.eye(pts.n, dtype=bool)].min()
    assert np.float64(pts.min_pairwise_distance).tobytes() == want.tobytes()
    # a distance read before assembly is kept, and one point has none to read
    first = PointSet(pts.points)
    assert first.min_pairwise_distance == pts.min_pairwise_distance
    assemble(first, ThinPlateSpline(1))
    assert len(sweeps) == 1
    single = PointSet([[0.5, 0.5]])
    assemble(single, ThinPlateSpline(1))
    assert single.min_pairwise_distance == math.inf


@pytest.mark.parametrize("threads", [1, 2])
def test_monte_carlo_computes_one_distance_per_trial(sweeps, threads):
    # d = 3 and d = 8 sum coordinates in an order where a plain-order sum can differ in the last bit
    for d in (2, 3, 8):
        sweeps.clear()
        report = monte_carlo(ThinPlateSpline(1), unit_box(d), Uniform(), [5, 9], 6, 8,
                             threads=threads)
        # assemble reads each trial's min_dist off its own distance matrix
        assert (len(sweeps), len(report.records)) == (0, 12)
        for record in report.records:
            pts = sample(unit_box(d), Uniform(), record.n,
                         domains.mix_seed(8, record.n, record.trial)).points
            dist = domains.pairwise_distance_matrix(pts)
            assert record.min_pairwise_distance == dist[~np.eye(record.n, dtype=bool)].min()
