"""The points reader: C-parsed bodies, the float() fallback, bits and memory."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import polyharm
from oracles import row_scan_points_csv
from polyharm import (PointSet, ThinPlateSpline, evaluate, read_points_csv, solve_augmented,
                      write_points_csv)
from polyharm import domains

# lines are joined with "\n" here and written with LF or CRLF line ends
TRICKY_BODIES = {
    "quoted": ["x1,x2", '"1.5","2.5"', '" 7 ",3', '"1""5",2'],
    "quote_then_text": ["x1,x2", '"1"5,2'],
    "quoted_line_end": ["x1,x2", '"1', '",2'],
    "empty_quoted": ["x1,x2", '"",1'],
    "padded": ["x1,x2", "  1.5 , 2.5 ", "\t3\t,4 ", " -1e-5,+.5"],
    "padded_unicode": ["x1,x2", " 1　,2 "],
    "separator_padding": ["x1,x2", "1,2\x1e"],
    "separator_leading": ["x1,x2", "\x1c1,2"],
    "separator_unit": ["x1,x2", "0,1", "1,2\x1f"],
    "underscores": ["x1,x2", "1_000,2", "3,4"],
    "double_underscore": ["x1,x2", "1,2", "3,1__0"],
    "unicode_digits": ["x1,x2", "١٢,2"],
    "signed_zeros": ["x1,x2,value", "-0,0,-0.0", "+0,-0e5,0e-5"],
    "extremes": ["x1,x2,value", "5e-324,1e300,-1e300", "-5e-324,2.2250738585072014e-308,1"],
    "whitespace_line": ["x1,x2", "1,2", "   ", "3,4"],
    "whitespace_line_one_column": ["x1", "1", " \t", "2"],
    "whitespace_only_body": ["x1", "   "],
    "trailing_commas": ["x1,x2", "1,2,", "3,4,"],
    "trailing_comma_header": ["x1,x2,", "1,2,3"],
    "ragged_short": ["x1,x2", "1,2", "3"],
    "ragged_long_everywhere": ["x1,x2", "1,2,3", "4,5,6"],
    "ragged_after_text": ["x1,x2", "0,foo", "1"],
    "missing_field": ["x1,x2,value", "1,,3"],
    "non_numeric": ["x1,x2", "0.0,1.0", "2.0,bar", "3.0,4.0"],
    "hex": ["x1,x2", "0x10,2"],
    "infinity": ["x1,x2", "0,1", "2,infinity"],
    "nan": ["x1,x2", "0,nan"],
    "overflow": ["x1,x2", "0,1e400"],
    "blank_lines": ["", "x1,x2,value", "", "0.5,1.5,2.5", "", "", "3.5,4.5,5.5", "", ""],
    "header_only": ["x1,x2", ""],
    "header_then_blank_lines": ["x1,x2", "", "", ""],
    "empty": [""],
    "bad_header": ["x2,x1", "0,0"],
    "header_case_and_spaces": [" X1, x2 ,VALUE", "1,2,3"],
    "one_column": ["x1", "1", "2", "3"],
    "no_final_line_end": ["x1,x2", "1,2", "3,4"],
}


def outcome(read, path):
    """The arrays a reader returns, as bytes and shapes, or its error type and message."""
    try:
        points, values = read(path)
    except ValueError as exc:
        return "error", type(exc), str(exc)
    return ("ok", points.points.shape, points.points.tobytes(), points.provenance,
            None if values is None else values.tobytes())


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("name", sorted(TRICKY_BODIES))
def test_reader_matches_the_row_scan_reader(tmp_path, name, newline):
    body = newline.join(TRICKY_BODIES[name])
    if name not in ("empty", "no_final_line_end"):
        body += newline
    path = tmp_path / f"{name}.csv"
    path.write_bytes(body.encode())
    assert outcome(read_points_csv, path) == outcome(row_scan_points_csv, path)


def hard_decimal_strings():
    """Decimal spellings that only a correctly rounded parser reads exactly."""
    rng = np.random.default_rng(91)
    digits = rng.integers(0, 10, (3000, 21))
    exponents = rng.integers(-340, 300, 3000)
    strings = [f"{d[0]}.{''.join(map(str, d[1:]))}e{e}" for d, e in zip(digits, exponents)]
    magnitudes = 10.0 ** rng.uniform(-300, 300, 500)
    strings += [repr(float(v)) for v in rng.standard_normal(500) * magnitudes]
    strings += [
        "1.00000000000000011102230246251565404236316680908203125",  # halfway: even, 1.0
        "1.00000000000000011102230246251565404236316680908203126",
        "1.00000000000000011102230246251565404236316680908203124",
        "2.2250738585072011e-308", "2.2250738585072012e-308",
        "2.4703282292062327e-324", "2.4703282292062328e-324",  # half the least subnormal
        "4.9406564584124654e-324", "9007199254740993", "1.7976931348623158e308",
        "0.1", "-0.0", "123456789012345678901234567890",
    ]
    return strings


def test_loadtxt_parses_fields_as_float_does():
    # NumPy's tokenizer hands each field to PyOS_string_to_double, float()'s parser
    strings = hard_decimal_strings()
    parsed = np.loadtxt(iter(s + "\n" for s in strings), delimiter=",", comments=None,
                        quotechar='"', ndmin=2)
    assert parsed.shape == (len(strings), 1)
    assert parsed[:, 0].tobytes() == np.array([float(s) for s in strings]).tobytes()


def refuse_row_scan(path, width):
    raise AssertionError("the body was scanned again with csv.reader and float()")


def test_reader_parses_hard_decimals_in_c_with_float_bits(tmp_path, monkeypatch):
    strings = hard_decimal_strings()
    strings = [s for s in strings if np.isfinite(float(s))]
    strings += strings[:len(strings) % 2]
    path = tmp_path / "hard.csv"
    rows = (f"{a},{b}\r\n" for a, b in zip(strings[::2], strings[1::2]))
    path.write_text("x1,x2\r\n" + "".join(rows))
    monkeypatch.setattr(domains, "_scan_rows", refuse_row_scan)
    points, _ = read_points_csv(path)
    want = np.array([float(s) for s in strings]).reshape(-1, 2)
    assert points.points.tobytes() == want.tobytes()


def edge_table(rows, columns, seed):
    rng = np.random.default_rng(seed)
    magnitudes = 10.0 ** rng.uniform(-300.0, 300.0, (rows, columns))
    table = rng.standard_normal((rows, columns)) * magnitudes
    table.flat[:4] = [-0.0, 5e-324, 1e300, -1.7976931348623157e308]
    return table


# NumPy's loadtxt chunk (_loadtxt_chunksize in numpy.lib._npyio_impl) is 50,000 rows
@pytest.mark.parametrize("rows", [49_999, 50_000, 50_001])
@pytest.mark.parametrize("with_values", [False, True])
def test_write_then_read_is_bitwise_across_the_loadtxt_chunk(tmp_path, monkeypatch, rows,
                                                             with_values):
    table = edge_table(rows, 3 if with_values else 2, rows)
    path = tmp_path / "round.csv"
    write_points_csv(path, table[:, :2], table[:, 2] if with_values else None)
    monkeypatch.setattr(domains, "_scan_rows", refuse_row_scan)
    points, values = read_points_csv(path)
    assert points.points.tobytes() == np.ascontiguousarray(table[:, :2]).tobytes()
    if with_values:
        assert values.tobytes() == table[:, 2].tobytes()
    else:
        assert values is None


def test_header_only_file_raises_no_data_rows_without_a_warning(tmp_path):
    # a subprocess turns every warning into an error without touching this process's filters
    path = tmp_path / "header.csv"
    path.write_text("x1,x2,value\r\n\r\n")
    script = ("import sys\nfrom polyharm import read_points_csv\n"
              "try:\n    read_points_csv(sys.argv[1])\n"
              "except ValueError as exc:\n    print(exc)\n")
    src = str(Path(polyharm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-W", "error", "-c", script, str(path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, f"{path}: no data rows\n", "")


def traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reader_peak_memory_is_a_small_multiple_of_its_array(tmp_path):
    # the benchmark's query file shape; a whole-file row list peaked at 16x the array
    path = tmp_path / "queries.csv"
    write_points_csv(path, np.random.default_rng(92).random((100_200, 2)))
    (points, _), peak = traced_peak(lambda: read_points_csv(path))
    assert points.points.shape == (100_200, 2)
    assert peak < 2 * points.points.nbytes


def test_evaluate_peak_memory_is_a_small_multiple_of_its_result():
    # 10^5 queries; a whole-query tail and 1024-row blocks peaked at 11x the result
    rng = np.random.default_rng(93)
    nodes = PointSet.from_array(rng.random((200, 2)))
    model = solve_augmented(nodes, np.sin(3.0 * nodes.points[:, 0]), ThinPlateSpline(1), degree=1)
    queries = rng.random((100_000, 2))
    out, peak = traced_peak(lambda: evaluate(model, queries))
    assert out.shape == (100_000,)
    assert peak < 5 * out.nbytes
