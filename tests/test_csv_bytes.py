"""CSV writers produce the bytes of a row-by-row reference writer."""

import math

import numpy as np
import pytest

from oracles import csv_writer_records, row_loop_field_csv, row_loop_points_csv
from polyharm import (
    BorderedSystem,
    PointSet,
    ThinPlateSpline,
    TrialRecord,
    Uniform,
    UnisolvenceReport,
    assemble,
    monte_carlo,
    sample,
    unit_box,
    write_points_csv,
)

SPECIAL = (-0.0, 5e-324, 1e300, 7.0)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("with_values", [False, True])
def test_points_csv_matches_the_csv_writer_loop(tmp_path, d, with_values):
    rng = np.random.default_rng(d)
    pts = rng.standard_normal((9, d))
    pts.flat[: len(SPECIAL)] = SPECIAL
    values = rng.standard_normal(9) if with_values else None
    if with_values:
        values[-len(SPECIAL):] = SPECIAL
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    row_loop_points_csv(want, pts, values)
    for points in (pts, PointSet.from_array(pts)):
        write_points_csv(got, points, values)
        assert got.read_bytes() == want.read_bytes()
    assert want.read_bytes().endswith(b"\r\n")


def test_field_csv_matches_the_lattice_loop(run_cli, tmp_path):
    out = tmp_path / "field.csv"
    code, _, err = run_cli(["field", "--kernel", "tps:k=1", "--n", "5", "--seed", "4",
                            "--grid=-1,2,0,1,5,4", "--out", str(out)])
    assert code == 0, err
    nodes = sample(unit_box(2), Uniform(), 5, 4)
    xs, ys = np.linspace(-1.0, 2.0, 5), np.linspace(0.0, 1.0, 4)
    field = BorderedSystem(assemble(nodes, ThinPlateSpline(1))).grid(xs, ys)
    want = tmp_path / "want.csv"
    row_loop_field_csv(want, xs, ys, field)
    assert out.read_bytes() == want.read_bytes()


def test_records_csv_matches_the_csv_writer():
    odd = (-math.inf, math.inf, -0.0, 5e-324, 1e300)
    records = tuple(
        TrialRecord(n=5, trial=i, det_sign=(-1, 0, 1)[i % 3], log_abs_det=odd[i],
                    sigma_min=odd[(i + 1) % 5], sigma_max=odd[(i + 2) % 5],
                    condition=odd[(i + 3) % 5], min_pairwise_distance=odd[(i + 4) % 5])
        for i in range(len(odd)))
    report = UnisolvenceReport(config={}, aggregates=(), records=records)
    assert report.records_csv() == csv_writer_records(records)
    sampled = monte_carlo(ThinPlateSpline(1), unit_box(2), Uniform(), [2, 6], 4, 3)
    assert sampled.records_csv() == csv_writer_records(sampled.records)
