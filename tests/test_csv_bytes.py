"""CSV writers produce the bytes of row-by-row reference writers; the reader parses as float()."""

import json
import math

import numpy as np
import pytest

from oracles import (csv_writer_records, row_loop_csv_lines, row_loop_field_csv,
                     row_loop_points_csv)
from polyharm import (
    BorderedSystem,
    PointSet,
    ThinPlateSpline,
    TrialRecord,
    Uniform,
    UnisolvenceReport,
    assemble,
    monte_carlo,
    read_points_csv,
    sample,
    unit_box,
    write_points_csv,
)
from polyharm.domains import _CSV_ROWS, _csv_lines

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
    for points in (pts, PointSet(pts)):
        write_points_csv(got, points, values)
        assert got.read_bytes() == want.read_bytes()
    assert want.read_bytes().endswith(b"\r\n")


FIELD_LATTICES = [
    (5, 4, (-1.0, 2.0, 0.0, 1.0, 5, 4)),
    (6, 1, (-1.5, 1.5, -1.5, 1.5, 128, 128)),  # the benchmark's lattice
    (6, 2, (-1.5, 1.5, -1.5, 1.5, 128, 128)),
    (5, 4, (-1.0, -0.0, -1.0, -0.0, 5, 3)),  # linspace keeps the -0.0 stops
]


def test_field_csv_matches_the_lattice_loop(run_cli, tmp_path):
    out, want = tmp_path / "field.csv", tmp_path / "want.csv"
    for n, seed, grid in FIELD_LATTICES:
        code, _, err = run_cli(["field", "--kernel", "tps:k=1", "--n", str(n), "--seed", str(seed),
                                "--grid=" + ",".join(map(repr, grid)), "--out", str(out)])
        assert code == 0, err
        nodes = sample(unit_box(2), Uniform(), n, seed)
        xs, ys = np.linspace(*grid[0:2], grid[4]), np.linspace(*grid[2:4], grid[5])
        field = BorderedSystem(assemble(nodes, ThinPlateSpline(1))).grid(xs, ys)
        row_loop_field_csv(want, xs, ys, field)
        assert out.read_bytes() == want.read_bytes(), (n, seed, grid)


def test_records_csv_matches_the_csv_writer():
    odd = (-math.inf, math.inf, -0.0, 5e-324, 1e300)
    records = tuple(
        TrialRecord(n=5, trial=i, det_sign=(-1, 0, 1)[i % 3], log_abs_det=odd[i],
                    sigma_min=odd[(i + 1) % 5], sigma_max=odd[(i + 2) % 5],
                    condition=odd[(i + 3) % 5], min_pairwise_distance=odd[(i + 4) % 5])
        for i in range(len(odd)))
    report = UnisolvenceReport(config={}, aggregates=(), records=records)
    assert "".join(report.records_csv_lines()) == csv_writer_records(records)
    sampled = monte_carlo(ThinPlateSpline(1), unit_box(2), Uniform(), [2, 6], 4, 3)
    assert "".join(sampled.records_csv_lines()) == csv_writer_records(sampled.records)


EDGE_VALUES = (-0.0, 5e-324, 1e300, 1e16, 1e-5)
BLOCK_SIZES = (_CSV_ROWS - 1, _CSV_ROWS, _CSV_ROWS + 1)


def edge_table(rows, width, seed):
    table = np.random.default_rng(seed).standard_normal((rows, width))
    table.flat[: len(EDGE_VALUES)] = EDGE_VALUES
    table.flat[-len(EDGE_VALUES):] = EDGE_VALUES
    return table


@pytest.mark.parametrize("rows", (0, 1) + BLOCK_SIZES)
@pytest.mark.parametrize("newline", ["\r\n", "\n"])
def test_block_lines_match_the_row_loop(rows, newline):
    header = ("x1", "x2", "value")
    table = edge_table(rows, 3, rows)
    want = "".join(row_loop_csv_lines(header, table.tolist(), newline))
    assert "".join(_csv_lines(header, table, newline)) == want


@pytest.mark.parametrize("rows", BLOCK_SIZES)
def test_points_csv_across_block_boundaries(tmp_path, rows):
    table = edge_table(rows, 3, rows)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_points_csv(got, table[:, :2], table[:, 2])
    with open(want, "w", newline="") as handle:
        handle.writelines(row_loop_csv_lines(("x1", "x2", "value"), table.tolist(), "\r\n"))
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("count", BLOCK_SIZES)
def test_records_csv_keeps_int_columns_across_blocks(count):
    records = tuple(
        TrialRecord(n=7, trial=i, det_sign=(-1, 0, 1)[i % 3],
                    log_abs_det=EDGE_VALUES[i % 5], sigma_min=EDGE_VALUES[(i + 1) % 5],
                    sigma_max=float(i), condition=math.inf if i % 7 == 0 else 2.5,
                    min_pairwise_distance=EDGE_VALUES[(i + 3) % 5])
        for i in range(count))
    text = "".join(UnisolvenceReport(config={}, aggregates=(), records=records).records_csv_lines())
    assert text == csv_writer_records(records)
    assert text.splitlines()[-1].startswith(f"7,{count - 1},")


def test_reader_parses_fields_as_float_does(tmp_path):
    fields = ['"1.5"', " 2.5 ", "1_000", "-0", "+3e-2", "5e-324", " -1e300", '" 7 "']
    path = tmp_path / "quoted.csv"
    path.write_text("x1,x2\n" + "".join(f"{a},{b}\n" for a, b in zip(fields, fields[1:])))
    points, values = read_points_csv(path)
    want = [[float(a.strip('"')), float(b.strip('"'))] for a, b in zip(fields, fields[1:])]
    assert values is None
    assert points.points.tobytes() == np.array(want).tobytes()


def test_reader_skips_blank_lines(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("\nx1,x2,value\n\n0.5,1.5,2.5\r\n\r\n3.5,4.5,5.5\n\n")
    points, values = read_points_csv(path)
    assert points.points.tolist() == [[0.5, 1.5], [3.5, 4.5]]
    assert values.tolist() == [2.5, 5.5]


@pytest.mark.parametrize("body, message", [
    ("x1,x2\n0.0,1.0\n2.0\n", "row 3 has 1 fields, expected 2"),
    ("x1,x2,value\n0,1,2\n\n3,4,5,6\n", "row 4 has 4 fields, expected 3"),
    ("x1,x2\n\n\n1,2\n\n3,bar\n", "row 6 contains a non-numeric field"),
    ("x1,x2\n0.0,1.0\n2.0,bar\n3.0,4.0\n", "row 3 contains a non-numeric field"),
    ("x1,x2\n0.0,1.0\n2.0,1__0\n", "row 3 contains a non-numeric field"),
    ("x1,x2\n0.0,1.0\n2.0,infinity\n", "non-finite value in data rows"),
    ("x1,x2\n0.0,-inf\n", "non-finite value in data rows"),
    ("x1,x2\n0.0,nan\n", "non-finite value in data rows"),
])
def test_reader_error_messages(tmp_path, body, message):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(ValueError) as caught:
        read_points_csv(path)
    assert str(caught.value) == f"{path}: {message}"


def test_verify_files_are_the_report_bytes(run_cli, tmp_path):
    out, table = tmp_path / "report.json", tmp_path / "records.csv"
    code, _, err = run_cli(["verify", "--kernel", "tps:k=1", "--dim", "2", "--n", "5,9",
                            "--trials", "3", "--seed", "4", "--out", str(out),
                            "--csv", str(table)])
    assert code == 0, err
    report = monte_carlo(ThinPlateSpline(1), unit_box(2), Uniform(), [5, 9], 3, 4)
    assert out.read_bytes() == (json.dumps(report.to_dict(), indent=2) + "\n").encode()
    assert table.read_bytes() == "".join(report.records_csv_lines()).encode()
