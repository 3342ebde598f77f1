"""The field's fast paths keep every bit: borders, Schur determinants, SVG bytes, overflow."""

import json
import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from oracles import cell_loop_field_svg, lu_solve_determinant
from polyharm import (
    BorderedSystem,
    Box,
    RadialPower,
    ThinPlateSpline,
    Uniform,
    assemble,
    cross_distance_matrix,
    parse_kernel,
    sample,
    sphere_counterexample,
    unit_box,
)
from polyharm.cli import _SVG_PALETTE, _SVG_ZERO, _field_svg

KERNELS = ("tps:k=1", "tps:k=2", "rp:nu=1.5", "rp:nu=3")


def schur_system(spec, n=12, seed=61):
    system = BorderedSystem(assemble(sample(unit_box(2), Uniform(), n, seed), parse_kernel(spec)))
    assert not system.base_diagnostics.singular_verdict
    return system


def probe_points(system, seed=62):
    # random points in and around the unit box, then every node
    off = np.random.default_rng(seed).uniform(-0.5, 1.5, (40, 2))
    return np.vstack([off, system.base.points.points])


@pytest.mark.parametrize("spec, n, seed", [(spec, 12, 61) for spec in KERNELS] + [
    ("tps:k=1", 200, 7),  # log|det| of the base is -1024.2: the Schur factor underflows to +-0.0
], ids=[*KERNELS, "tps:k=1-n200"])
def test_schur_determinant_has_the_bits_of_lu_solve(spec, n, seed):
    system = schur_system(spec, n, seed)
    points = probe_points(system)
    expected = np.array([lu_solve_determinant(system, p) for p in points])
    for method in ("auto", "schur"):
        got = np.array([system.determinant(p, method=method) for p in points])
        assert got.tobytes() == expected.tobytes(), (spec, method)  # the signs of zeros too
    if n == 200:
        assert not np.any(expected)
        return
    # at the nodes the value is zero up to rounding, and still the oracle's bits
    assert max(abs(v) for v in expected[-system.base.n:]) < 1e-9 * max(abs(v) for v in expected)


@pytest.mark.parametrize("spec", KERNELS)
def test_schur_determinant_bits_from_threads_sharing_one_system(spec):
    # SciPy's getrs wrapper shifts the pivots it is given in place while LAPACK runs
    # without the GIL: threads passing one shared pivot array got garbage values.  At
    # n = 100 each solve runs long enough for two threads to overlap inside LAPACK
    system = schur_system(spec, n=100, seed=63)
    points = list(probe_points(system, seed=64)) * 10
    expected = np.array([lu_solve_determinant(system, p) for p in points])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in (1, 2, 4):
            with ThreadPoolExecutor(max_workers=threads) as pool:
                got = np.array(list(pool.map(system.determinant, points, timeout=60)))
            assert np.array_equal(got, expected), (spec, threads)
    finally:
        sys.setswitchinterval(interval)


def pointwise_grid(system, xs, ys):
    return np.array([[system.determinant(np.array([x, y])) for y in ys] for x in xs])


@pytest.mark.parametrize("spec, singular", [("tps:k=1", False), ("rp:nu=1.5", False),
                                            ("tps:k=1", True)], ids=["tps1", "rp1.5", "singular"])
def test_grid_in_blocks_has_the_bits_of_pointwise_calls(spec, singular):
    # ny = 600 takes three blocks of kernel rows, the last one short (600 = 2 * 256 + 88).
    # Lattice point (1, 301) is a node: a zero radius in the middle of the second block
    nodes = sphere_counterexample(2, 5) if singular else sample(unit_box(2), Uniform(), 9, 68)
    system = BorderedSystem(assemble(nodes, parse_kernel(spec)))
    assert system.base_diagnostics.singular_verdict == singular
    node = nodes.points[2]
    ys = np.linspace(-1.5, 1.5, 599)
    ys = np.concatenate([ys[:301], [node[1]], ys[301:]])
    xs = np.array([-0.7, node[0], 1.3])
    field = system.grid(xs, ys)
    assert field.shape == (3, 600)
    assert field.tobytes() == pointwise_grid(system, xs, ys).tobytes()  # the signs of zeros too
    if not singular:
        assert abs(field[1, 301]) < 1e-9 * np.abs(field).max()
    # a far column fails at its first point, with the pointwise call's message and no warning
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError) as pointwise:
        system.determinant(np.array([1e300, ys[0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as gridded:
            system.grid([0.5, 1e300], ys)
    assert str(gridded.value) == str(pointwise.value)


def test_determinant_checks_the_shape_of_a_given_border():
    system = schur_system("tps:k=1")
    point = np.array([0.3, 0.4])
    border = system.border(point)
    assert system.determinant(point, border=border) == system.determinant(point)
    assert system.determinant(point, "direct", border=border) == system.determinant(point, "direct")
    assert system.determinant(point, border=border.tolist()) == system.determinant(point)
    for bad in (border[:-1], border[None, :], np.append(border, 0.0)):
        with pytest.raises(ValueError, match="border of shape"):
            system.determinant(point, border=bad)


def test_grid_raises_for_a_far_lattice_point_without_warning():
    # (1e308, 0) overflows the squared distance; determinant names the failure, nothing warns
    system = schur_system("tps:k=1")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="exceeds double range"):
            system.grid([0.0, 1e308], [0.0, 1.0])


def test_grid_on_a_singular_base_rejects_a_far_point_without_warning():
    # the direct route: (1e300, 0) overflows the border to inf before the bordered LU
    system = BorderedSystem(assemble(sphere_counterexample(2, 5), ThinPlateSpline(1)))
    assert system.base_diagnostics.singular_verdict
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            system.grid([1e300], [0.0])


@pytest.mark.parametrize("spec", KERNELS)
@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_border_has_the_bits_of_the_cross_distance_row(d, spec):
    kernel = parse_kernel(spec)
    nodes = sample(unit_box(d), Uniform(), 9, 65 + d)
    probes = np.vstack([np.random.default_rng(66).uniform(-0.5, 1.5, (30, d)), nodes.points])
    for eps in (0.5, 1.0, 2.0):
        system = BorderedSystem(assemble(nodes, kernel, eps))
        for x in probes:
            want = kernel.value_scaled(eps, cross_distance_matrix(x[None, :], nodes.points))[0]
            assert system.border(x).tobytes() == want.tobytes(), (eps, x)


def test_border_of_any_point_layout_has_the_same_bits():
    system = schur_system("tps:k=1")
    lattice = np.random.default_rng(67).uniform(-0.5, 1.5, (6, 2))
    columns = np.ascontiguousarray(lattice.T)  # point k is the strided column view [:, k]
    assert not columns[:, 0].flags.c_contiguous
    for k, row in enumerate(lattice):
        want = system.border(np.array([row[0], row[1]])).tobytes()
        for point in (row.tolist(), tuple(row.tolist()), lattice[k], columns[:, k]):
            assert system.border(point).tobytes() == want


@pytest.mark.parametrize("point", [[0.5], [0.5, 0.5, 0.5], [[0.5, 0.5]], 0.5,
                                   [math.nan, 0.5], [0.5, math.nan]])
def test_border_rejects_a_wrong_shape_and_nan(point):
    system = schur_system("rp:nu=1.5")
    with pytest.raises(ValueError):
        system.border(point)
    with pytest.raises(ValueError):
        system.determinant(point)


def overflow_system():
    # the field repro below: log|det| of the base matrix is 1156.2, of the bordered one 1171-1174
    nodes = sample(Box(lower=(0.0, 0.0), upper=(1000.0, 1000.0)), Uniform(), 80, 1)
    return BorderedSystem(assemble(nodes, RadialPower(3.0)))


@pytest.mark.parametrize("method", ["schur", "direct"])
def test_determinant_beyond_double_range_is_a_value_error(method):
    system = overflow_system()
    log_abs_det = system.base_diagnostics.log_abs_det
    assert log_abs_det > 709.8
    messages = []
    for point in ([500.0, 500.0], [500.0, 500.0], [10.0, 990.0]):  # each call raises anew
        with pytest.raises(ValueError, match="exceeds double range: log\\|det\\|") as caught:
            system.determinant(point, method=method)
        messages.append(str(caught.value))
    if method == "schur":
        assert messages == [f"bordered determinant exceeds double range: log|det| of the "
                            f"base matrix is {log_abs_det!r}"] * 3


def test_field_beyond_double_range_exits_1_with_one_error_line(run_cli, tmp_path):
    code, out, err = run_cli([
        "field", "--kernel", "rp:nu=3", "--domain", "box:0,0,1000,1000", "--n", "80",
        "--seed", "1", "--grid=0,1000,0,1000,3,3", "--out", str(tmp_path / "f.csv"),
    ])
    assert code == 1
    assert out == ""
    assert err.startswith("error: bordered determinant exceeds double range: log|det| of the base")
    assert err.count("\n") == 1 and "Traceback" not in err


SCHUR_OVERFLOW_ARGV = ["field", "--kernel", "rp:nu=3", "--domain", "box:0,0,150,150", "--n", "80",
                       "--seed", "1", "--grid=0,150,0,150,4,4"]


def schur_overflow_system():
    # the repro below: log|det| of the base matrix is 700.9, finite alone, but not times b^T A^-1 b
    nodes = sample(Box(lower=(0.0, 0.0), upper=(150.0, 150.0)), Uniform(), 80, 1)
    return BorderedSystem(assemble(nodes, RadialPower(3.0)))


def test_non_finite_schur_product_is_a_value_error():
    system = schur_overflow_system()
    assert 700.0 < system.base_diagnostics.log_abs_det < 709.78
    with pytest.raises(ValueError, match="exceeds double range: log\\|det\\| of the base matrix "
                                         "is 700.89.*is not finite"):
        system.determinant([0.0, 0.0], method="schur")
    # the direct route's own log|det| is beyond double range there
    with pytest.raises(ValueError, match="log\\|det\\| of the bordered matrix"):
        system.determinant([0.0, 0.0], method="direct")
    # a finite product still returns its value
    assert math.isfinite(system.determinant(system.base.points.points[0] + 1e-9))


@pytest.mark.parametrize("svg", [False, True])
def test_field_with_a_non_finite_schur_product_exits_1(run_cli, tmp_path, svg):
    argv = SCHUR_OVERFLOW_ARGV + ["--out", str(tmp_path / "f.csv")]
    if svg:
        argv += ["--svg", str(tmp_path / "f.svg")]
    code, out, err = run_cli(argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: bordered determinant exceeds double range: log|det| of the base")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "f.svg").exists()


def assert_svg_bytes(xs, ys, values):
    desc = '{"command": "field", "note": "<&>"}'
    assert "".join(_field_svg(xs, ys, values, desc)) == cell_loop_field_svg(xs, ys, values, desc)


def test_svg_bytes_on_a_non_square_lattice():
    rng = np.random.default_rng(71)
    xs, ys = np.linspace(-0.3, 2.1, 9), np.linspace(0.0, 1.0, 5)
    assert_svg_bytes(xs, ys, rng.standard_normal((9, 5)))
    assert_svg_bytes(ys, xs, rng.standard_normal((5, 9)) + 3.0)


def test_svg_bytes_with_sign_changes_and_zero_corners():
    rng = np.random.default_rng(72)
    values = rng.standard_normal((17, 13))
    values[::4, ::3] = 0.0
    values[2::5, 1::4] = -0.0
    assert_svg_bytes(np.linspace(0.0, 1.0, 17), np.linspace(0.0, 1.0, 13), values)


def test_svg_bytes_on_an_all_zero_field():
    values = np.zeros((6, 7))
    values[1, 2] = -0.0
    assert_svg_bytes(np.linspace(0.0, 1.0, 6), np.linspace(-1.0, 1.0, 7), values)
    assert_svg_bytes(np.linspace(0.0, 1.0, 6), np.linspace(-1.0, 1.0, 7), np.full((6, 7), -0.0))


def test_svg_bytes_without_warnings_where_crossing_cells_overflow():
    # rows alternate in sign, so every cell crosses zero and its corner sum overflows
    values = np.where(np.arange(5)[:, None] % 2 == 0, 1.5e308, -1.5e308) * np.ones((5, 4))
    values[0, 0], values[1, 0] = math.inf, -math.inf  # inf + -inf is nan
    xs, ys = np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        svg = "".join(_field_svg(xs, ys, values, ""))
        assert svg == cell_loop_field_svg(xs, ys, values, "")


def test_svg_bytes_on_values_from_subnormal_to_1e300():
    rng = np.random.default_rng(73)
    exponents = rng.uniform(-323.3, 300.0, (33, 29))
    signs = np.where(rng.random((33, 29)) < 0.2, -1.0, 1.0)
    values = signs * 10.0 ** exponents
    values[0, 0], values[-1, -1] = 5e-324, 1e300
    assert_svg_bytes(np.linspace(0.0, 3.0, 33), np.linspace(0.0, 2.0, 29), values)
    assert_svg_bytes(np.linspace(0.0, 3.0, 33), np.linspace(0.0, 2.0, 29), np.abs(values))
    # vmax from the smallest value alone
    assert_svg_bytes(np.linspace(0.0, 3.0, 33), np.linspace(0.0, 2.0, 29), -np.abs(values))


@pytest.mark.parametrize("seed", [1, 2])
def test_svg_bytes_on_the_benchmark_shape(seed):
    system = BorderedSystem(assemble(sample(unit_box(2), Uniform(), 6, seed), ThinPlateSpline(1)))
    xs = ys = np.linspace(-1.5, 1.5, 128)
    assert_svg_bytes(xs, ys, system.grid(xs, ys))


def palette_band(mean, vmax):
    # the SVG's band of a cell mean, for a field whose largest |value| is vmax > 0
    floor = vmax * 1e-9
    t = math.copysign(math.log1p(abs(mean) / floor) / math.log1p(vmax / floor), mean)
    return min(8, max(0, int((t + 1.0) / 2.0 * 9.0)))


def band_edge(band, vmax):
    # the smallest positive double whose band is at least the given one
    lo, hi = np.float64(vmax * 1e-30).view(np.int64), np.float64(vmax).view(np.int64)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if palette_band(float(np.int64(mid).view(np.float64)), vmax) >= band:
            hi = mid
        else:
            lo = mid
    return float(np.int64(hi).view(np.float64))


ORDERS = (
    lambda a, b, c, d: ((a + c) + (b + d)) / 4.0,
    lambda a, b, c, d: ((a + b) + (c + d)) / 4.0,
    lambda a, b, c, d: (((a + c) + b) + d) / 4.0,
)


def test_svg_bytes_at_palette_band_edges():
    # corner blocks whose mean, summed in another order, rounds across a band edge:
    # only the bits of values[i:i + 2, j:j + 2].mean() give the per-cell loop's colour
    rng = np.random.default_rng(74)
    rows = []
    for band in (5, 6, 7, 8):
        edge = band_edge(band, 1.0)
        for other in ORDERS:
            found = 0
            while found < 2:
                a, b, c = (edge * (1.0 + 0.3 * rng.standard_normal(3))).tolist()
                d = 4.0 * edge - a - b - c + int(rng.integers(-4, 5)) * math.ulp(edge)
                mean = float(np.array([[a, b], [c, d]]).mean())
                if palette_band(mean, 1.0) != palette_band(other(a, b, c, d), 1.0):
                    for sign in (1.0, -1.0):
                        rows += [[sign * a, sign * b, sign * edge], [sign * c, sign * d, sign * edge]]
                    found += 1
    rows.append([1.0, 1.0, 1.0])
    values = np.array(rows)
    assert_svg_bytes(np.linspace(0.0, 1.0, len(rows)), np.linspace(0.0, 1.0, 3), values)


SVG_OVERFLOW_ARGV = ["field", "--kernel", "rp:nu=3", "--domain", "box:0,0,148,148", "--n", "80",
                     "--seed", "1", "--grid=0,148,0,148,9,9"]


def test_field_svg_where_a_same_sign_corner_sum_overflows(run_cli, tmp_path):
    # the field is finite, but some cells' four corners sum beyond double range
    out, svg = tmp_path / "f.csv", tmp_path / "f.svg"
    code, stdout, err = run_cli(SVG_OVERFLOW_ARGV + ["--out", str(out), "--svg", str(svg)])
    assert code == 0, err
    doc = json.loads(stdout)
    values = np.loadtxt(out, delimiter=",", skiprows=1)[:, 2].reshape(9, 9)
    assert np.isfinite(values).all()
    xs, ys = np.linspace(0.0, 148.0, 9), np.linspace(0.0, 148.0, 9)
    with np.errstate(over="ignore"):  # the oracle's cell means overflow
        sums = values[:-1, :-1] + values[:-1, 1:] + values[1:, :-1] + values[1:, 1:]
        assert np.isinf(sums).any()
        assert svg.read_text() == cell_loop_field_svg(xs, ys, values, json.dumps(doc["config"]))


@pytest.mark.parametrize("signs, bands", [
    ([[1, 1, 1], [1, 1, 1], [1, 1, 1]], [8] * 4),
    ([[-1, -1, -1], [-1, -1, -1], [-1, -1, -1]], [0] * 4),
    ([[1, 1, -1], [1, 1, -1], [-1, -1, -1]], [8, None, None, None]),
    ([[1, -1, -1], [-1, -1, -1], [-1, -1, -1]], [None, 0, 0, 0]),
])
def test_svg_cell_whose_corner_mean_overflows_takes_its_end_band(signs, bands):
    values = 1e308 * np.array(signs, dtype=float)
    xs = ys = np.linspace(0.0, 1.0, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        svg = "".join(_field_svg(xs, ys, values, ""))
    with np.errstate(over="ignore"):
        assert svg == cell_loop_field_svg(xs, ys, values, "")
    fills = [line.split('fill="')[1][:7] for line in svg.splitlines()[3:7]]
    assert fills == [_SVG_ZERO if b is None else _SVG_PALETTE[b] for b in bands]
