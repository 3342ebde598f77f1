"""Working memory of the streamed writers and of the field grid, measured with tracemalloc.

Each bound is the peak measured on CPython 3.11 / NumPy 2.4 with a stated
margin, and sits well below the peak of the whole-output code it replaced
(also stated), so a writer that builds its whole output again fails.
"""

import contextlib
import json
import os
import tracemalloc

import numpy as np

from oracles import cell_loop_field_svg, row_loop_field_csv
from polyharm import (
    BorderedSystem,
    Box,
    ThinPlateSpline,
    Uniform,
    assemble,
    cli,
    read_points_csv,
    sample,
    unit_box,
    write_points_csv,
)
from polyharm.unisolvence import UnisolvenceReport, monte_carlo


def traced_peak(call):
    """(peak bytes allocated above the start while call() ran, its result)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        return tracemalloc.get_traced_memory()[1] - start, result
    finally:
        tracemalloc.stop()


def field_300_by_200():
    rng = np.random.default_rng(5)
    return np.linspace(-2.0, 3.0, 300), np.linspace(-1.0, 1.0, 200), rng.standard_normal((300, 200))


def test_field_csv_writer_holds_one_lattice_column(tmp_path):
    # measured 69 KB; bound 256 KiB (3.8x).  A whole-array values.tolist() peaks near 1.9 MB
    xs, ys, values = field_300_by_200()
    path = tmp_path / "field.csv"
    peak, _ = traced_peak(lambda: cli._write_text(path, cli._field_csv_lines(xs, ys, values), ""))
    assert peak < 256 * 1024
    row_loop_field_csv(tmp_path / "want.csv", xs, ys, values)
    assert path.read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_field_svg_writer_holds_one_column_of_cells(tmp_path):
    # measured 124 KB; bound 192 KiB (1.6x).  Taking vmax from np.abs(values) peaked at
    # 567 KB, and the whole-list SVG at 16.2 MB
    xs, ys, values = field_300_by_200()
    path = tmp_path / "field.svg"
    peak, _ = traced_peak(lambda: cli._write_text(path, cli._field_svg(xs, ys, values, "{}")))
    assert peak < 192 * 1024
    assert path.read_text() == cell_loop_field_svg(xs, ys, values, "{}")


def test_points_writer_stacks_the_value_column_one_block_at_a_time(tmp_path):
    # measured 0.78 MB for 100,000 2-d points and values; bound 1.25 MiB (1.7x).  Stacking
    # the whole (n, 3) table first peaked at 3.1 MB
    rng = np.random.default_rng(6)
    points, values = rng.random((100_000, 2)), rng.standard_normal(100_000)
    path = tmp_path / "points.csv"
    peak, _ = traced_peak(lambda: write_points_csv(path, points, values))
    assert peak < 1.25 * 1024 * 1024
    back, back_values = read_points_csv(path)
    assert np.array_equal(back.points, points) and np.array_equal(back_values, values)


def test_grid_holds_one_lattice_column_beyond_its_result():
    # measured 3.5 KB beyond the 32 KB result; bound 32 KiB (9x).  The (nx, ny, 2) meshgrid
    # lattice peaked at 97 KB beyond it
    system = BorderedSystem(assemble(sample(unit_box(2), Uniform(), 6, 1), ThinPlateSpline(1)))
    xs, ys = np.linspace(-1.5, 1.5, 1000), np.linspace(-1.5, 1.5, 4)
    peak, field = traced_peak(lambda: system.grid(xs, ys))
    assert peak - field.nbytes < 32 * 1024
    assert field[617, 3] == system.determinant([xs[617], ys[3]])


def test_grid_computes_the_borders_of_a_column_one_block_at_a_time():
    # n = 200 nodes and ny = 1000: measured 1.08 MB beyond the 24 KB result, the (256, 200)
    # border buffer and one block's (2, 256, 200) distance temporaries; bound 2 MiB.
    # One kernel-row call on the whole column peaked near 4.8 MB.  The nodes fill a 4 x 4
    # box, so the base's log|det| is -473 and the field's values lie in double range; in
    # the unit box it is -1032.5, every value reads 0.0 and a wrong border could not show
    box = Box((-2.0, -2.0), (2.0, 2.0))
    system = BorderedSystem(assemble(sample(box, Uniform(), 200, 1), ThinPlateSpline(1)))
    xs, ys = np.linspace(-3.0, 3.0, 3), np.linspace(-3.0, 3.0, 1000)
    peak, field = traced_peak(lambda: system.grid(xs, ys))
    assert peak - field.nbytes < 2 * 1024 * 1024
    assert field[2, 777] != 0.0
    assert field[2, 777] == system.determinant([xs[2], ys[777]])


def test_verify_report_and_stdout_are_written_in_blocks_of_encoder_chunks(tmp_path, monkeypatch):
    # 8,000 records (2.2 MB of report JSON) without re-running the trials.  Measured 7.0 MB,
    # most of it to_dict() and the stdout text; bound 9 MiB (1.35x).  json.dumps for either
    # the report file or stdout peaked at 15.9 MB
    small = monte_carlo(ThinPlateSpline(1), unit_box(2), Uniform(), [5], 200, 3)
    report = UnisolvenceReport(small.config, small.aggregates, small.records * 40)
    monkeypatch.setattr(cli, "monte_carlo", lambda *args, **kwargs: report)
    path = tmp_path / "report.json"
    argv = ["verify", "--kernel", "tps:k=1", "--dim", "2", "--n", "5", "--trials", "200",
            "--seed", "3", "--out", str(path)]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        peak, code = traced_peak(lambda: cli.main(argv))
    assert code == 0
    assert peak < 9 * 1024 * 1024
    assert path.read_text() == json.dumps(report.to_dict(), indent=2) + "\n"


def test_verify_csv_is_written_one_block_of_records_at_a_time(tmp_path, monkeypatch):
    # 40,000 records (4.2 MB of CSV).  The write measured 0.90 MB, one 4096-record block's
    # values and text (1.16 MB with an object table per block); bound 1.5 MiB.  One object
    # table of every record peaked at 3.4 MB, joining the whole text first at 8.4 MB, and
    # with the table built from a list of tuples at 11.2 MB
    small = monte_carlo(ThinPlateSpline(1), unit_box(2), Uniform(), [5], 200, 3)
    report = UnisolvenceReport(small.config, small.aggregates, small.records * 200)
    monkeypatch.setattr(cli, "monte_carlo", lambda *args, **kwargs: report)
    peaks = []
    write_outputs = cli._write_outputs

    def traced_outputs(*outputs):
        # the peak of each write alone, without the report document cmd_verify holds
        def traced(write):
            return lambda path: peaks.append(traced_peak(lambda: write(path))[0])
        write_outputs(*[(path, traced(write)) for path, write in outputs])

    monkeypatch.setattr(cli, "_write_outputs", traced_outputs)
    monkeypatch.setattr(cli, "_emit", lambda doc: None)  # the stdout JSON of 40,000 records
    path = tmp_path / "records.csv"
    argv = ["verify", "--kernel", "tps:k=1", "--dim", "2", "--n", "5", "--trials", "200",
            "--seed", "3", "--csv", str(path)]
    assert cli.main(argv) == 0
    assert len(peaks) == 1 and peaks[0] < 1.5 * 1024 * 1024
    assert path.read_text() == "".join(report.records_csv_lines())
