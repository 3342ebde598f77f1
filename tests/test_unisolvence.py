"""Bordered determinants, Monte Carlo harness and growth induction."""

import concurrent.futures
import inspect
import json
import math
import warnings

import numpy as np
import pytest

from oracles import cofactor_det, line_distance_sign_logabs, pair_determinant, triple_determinant
from polyharm import (
    CSV_HEADER,
    BorderedSystem,
    Box,
    PointSet,
    RadialPower,
    SingularSystemError,
    ThinPlateSpline,
    TruncatedGaussian,
    Uniform,
    assemble,
    det3_null_diag,
    diagnostics,
    incremental_growth,
    lu_sign_logabs,
    monte_carlo,
    parse_kernel,
    sample,
    solve_augmented,
    solve_unaugmented,
    sphere_counterexample,
    unisolvence,
    unit_box,
)


def random_points(n, d, seed):
    return sample(unit_box(d), Uniform(), n, seed)


def test_det3_null_diag_closed_form():
    a, b, c = 1.7, -0.4, 2.9
    matrix = np.array([[0.0, a, b], [a, 0.0, c], [b, c, 0.0]])
    value = det3_null_diag(matrix)
    assert value == pytest.approx(triple_determinant(a, b, c), rel=1e-15)
    assert value == pytest.approx(cofactor_det(matrix), rel=1e-13)
    positive = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
    assert det3_null_diag(positive) > 0.0


def test_det3_null_diag_validation():
    with pytest.raises(ValueError):
        det3_null_diag(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        det3_null_diag(np.eye(3))


def test_lu_determinant_matches_cofactor_oracle():
    rng = np.random.default_rng(71)
    for n in range(1, 7):
        for _ in range(20):
            matrix = rng.standard_normal((n, n))
            sign, log_abs = lu_sign_logabs(matrix)
            expected = cofactor_det(matrix)
            got = sign * math.exp(log_abs)
            assert got == pytest.approx(expected, rel=1e-10)


def test_lu_determinant_exact_zero_pivot():
    sign, log_abs = lu_sign_logabs(np.array([[1.0, 2.0], [2.0, 4.0]]))
    assert sign == 0 and log_abs == -math.inf


@pytest.mark.parametrize("n", [10, 100, 1000])
def test_line_distance_determinant_matches_its_closed_form(n):
    # rp:nu=1 on a line is the distance matrix |x_i - x_j|.  The relative error of log|det|
    # measured 1.5e-16, 0 and 4.6e-15 at n = 10, 100 and 1000 with one BLAS thread (2.7e-16
    # at n = 1000 with two); tolerance 2e-14, 4.4x the largest
    nodes = sample(unit_box(1), Uniform(), n, 5)
    entries = assemble(nodes, RadialPower(1.0)).entries
    sign, log_abs = line_distance_sign_logabs(nodes.points[:, 0])
    diag = diagnostics(entries)
    for got_sign, got_log in (lu_sign_logabs(entries), (diag.det_sign, diag.log_abs_det)):
        assert got_sign == sign
        assert got_log == pytest.approx(log_abs, rel=2e-14, abs=0.0)
    if n == 1000:
        assert math.exp(log_abs) == 0.0  # the float determinant underflows; its log does not


def test_border_is_matrix_row_at_nodes():
    pts = random_points(7, 2, 72)
    base = assemble(pts, ThinPlateSpline(1))
    system = BorderedSystem(base)
    for j in range(pts.n):
        assert np.array_equal(system.border(pts.points[j]), base.entries[j])
    with pytest.raises(ValueError):
        system.border(np.zeros(3))


def test_bordered_system_keeps_its_threshold_only_in_its_diagnostics():
    system = BorderedSystem(assemble(random_points(5, 2, 71), ThinPlateSpline(1)))
    assert "tau" not in vars(system)
    assert system.base_diagnostics.rel_threshold == 1e-12


def test_bordered_systems_and_fits_take_no_threshold():
    # every one of them diagnoses at the default of diagnostics, tau = 1e-12
    for call in (BorderedSystem, solve_unaugmented, solve_augmented):
        assert "tau" not in inspect.signature(call).parameters


def test_bordered_determinant_routes_agree():
    pts = random_points(9, 2, 73)
    system = BorderedSystem(assemble(pts, RadialPower(1.5)))
    fresh = np.array([0.21, 0.83])
    schur = system.determinant(fresh, method="schur")
    direct = system.determinant(fresh, method="direct")
    auto = system.determinant(fresh, method="auto")
    assert schur == pytest.approx(direct, rel=1e-8)
    assert auto == schur
    with pytest.raises(ValueError):
        system.determinant(fresh, method="qr")


def test_bordered_determinant_equals_grown_matrix_determinant():
    pts = random_points(8, 2, 74)
    fresh = np.array([0.4, 0.9])
    system = BorderedSystem(assemble(pts, ThinPlateSpline(1)))
    f_value = system.determinant(fresh)
    grown = np.vstack([pts.points, fresh[None, :]])
    sign, log_abs = lu_sign_logabs(
        assemble(PointSet(grown), ThinPlateSpline(1)).entries
    )
    assert f_value == pytest.approx(sign * math.exp(log_abs), rel=1e-8)


def test_bordered_determinant_vanishes_at_nodes():
    pts = random_points(10, 2, 75)
    system = BorderedSystem(assemble(pts, ThinPlateSpline(1)))
    base_det = abs(
        system.base_diagnostics.det_sign * math.exp(system.base_diagnostics.log_abs_det)
    )
    for j in range(pts.n):
        border = system.border(pts.points[j])
        scale = base_det * max(1.0, float(border @ border))
        assert abs(system.determinant(pts.points[j])) <= 1e-8 * scale


def test_schur_route_requires_nonsingular_base():
    single = random_points(1, 2, 76)
    system = BorderedSystem(assemble(single, ThinPlateSpline(1)))
    assert system.base_diagnostics.singular_verdict
    with pytest.raises(SingularSystemError):
        system.determinant(np.array([0.5, 0.5]), method="schur")
    # auto falls back to the direct route: det [[0, v], [v, 0]] = -v**2
    fresh = np.array([0.5, 0.5])
    value = system.determinant(fresh, method="auto")
    phi_r = ThinPlateSpline(1).value(float(np.linalg.norm(fresh - single.points[0])))
    assert value == pytest.approx(pair_determinant(phi_r), rel=1e-12)


@pytest.mark.parametrize("method", ["schur", "direct"])
def test_bordered_determinant_rejects_a_nan_point(method):
    # a NaN point must not read as a zero of the field on either route
    system = BorderedSystem(assemble(sample(unit_box(2), Uniform(), 8, 3), ThinPlateSpline(1)))
    with pytest.raises(ValueError, match="NaN"):
        system.determinant((math.nan, 0.5), method)


def test_grid_matches_pointwise_calls():
    pts = random_points(5, 2, 77)
    system = BorderedSystem(assemble(pts, ThinPlateSpline(1)))
    xs = np.linspace(-0.2, 1.2, 4)
    ys = np.linspace(-0.1, 1.1, 3)
    field = system.grid(xs, ys)
    assert field.shape == (4, 3)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            assert field[i, j] == system.determinant(np.array([x, y]))
    three_d = BorderedSystem(assemble(random_points(4, 3, 78), ThinPlateSpline(1)))
    with pytest.raises(ValueError):
        three_d.grid(xs, ys)
    # a non-square lattice on a singular base (the direct route), and a radial power
    singular = BorderedSystem(assemble(sphere_counterexample(2, 5), ThinPlateSpline(1)))
    radial = BorderedSystem(assemble(random_points(7, 2, 79), RadialPower(3.0)))
    assert singular.base_diagnostics.singular_verdict
    assert not radial.base_diagnostics.singular_verdict
    xs, ys = np.linspace(-2.0, 2.0, 5), np.linspace(-1.5, 1.0, 3)
    for system in (singular, radial):
        calls = []
        pointwise = system.determinant
        system.determinant = lambda point, **kw: calls.append(1) or pointwise(point, **kw)
        field = system.grid(xs, ys)
        del system.determinant
        assert field.shape == (5, 3) and len(calls) == 15  # one call per lattice point
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                assert field[i, j] == system.determinant(np.array([x, y]))


@pytest.mark.parametrize("spec, seed", [("tps:k=1", 7), ("rp:nu=1.5", 3)], ids=["tps1", "rp15"])
def test_grid_refuses_a_base_whose_determinant_underflows(run_cli, tmp_path, spec, seed):
    # the base is nonsingular, but its Schur factor reads 0.0, which would zero every value:
    # grid raises field's message before its first lattice point
    system = BorderedSystem(assemble(random_points(200, 2, seed), parse_kernel(spec)))
    assert not system.base_diagnostics.singular_verdict
    calls = []
    pointwise = system.determinant
    system.determinant = lambda point, **kw: calls.append(1) or pointwise(point, **kw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as refused:
            system.grid(np.linspace(0.0, 1.0, 8), np.linspace(0.0, 1.0, 8))
    del system.determinant
    assert calls == []
    code, _, err = run_cli(["field", "--kernel", spec, "--n", "200", "--seed", str(seed),
                            "--grid=0,1,0,1,8,8", "--out", str(tmp_path / "field.csv")])
    assert (code, err) == (1, f"error: {refused.value}\n")
    assert str(refused.value) == (
        "bordered determinant below double range: log|det| of the base matrix is "
        f"{system.base_diagnostics.log_abs_det!r}, so its determinant reads 0.0")
    assert system.determinant(np.array([0.5, 0.5])) == 0.0  # a pointwise call still reads +-0.0


def test_monte_carlo_full_report():
    report = monte_carlo(
        ThinPlateSpline(1), unit_box(2), Uniform(), [4, 9], trials=6, seed=5
    )
    assert len(report.records) == 12
    assert [a.n for a in report.aggregates] == [4, 9]
    assert report.total_failures == 0
    for agg in report.aggregates:
        assert agg.failures == 0 and agg.failure_rate == 0.0
        assert 0.0 < agg.min_sigma_ratio < 1.0
        assert agg.max_condition > 1.0
    doc = report.to_dict()
    assert doc["config"]["kernel"] == "tps:k=1"
    assert doc["config"]["seed"] == 5
    assert len(doc["records"]) == 12


def test_monte_carlo_counts_singular_trials():
    # size 1 gives the 1x1 zero matrix, which is exactly singular
    report = monte_carlo(
        ThinPlateSpline(1), unit_box(2), Uniform(), [1], trials=4, seed=5
    )
    assert report.total_failures == 4
    assert report.aggregates[0].failure_rate == 1.0
    assert report.aggregates[0].min_sigma_ratio == 0.0
    for record in report.records:
        assert record.det_sign == 0
        assert record.sigma_max == 0.0


def test_monte_carlo_aggregates_each_size_from_its_own_trials():
    # a trial's substream depends on its size and index alone, so each size's aggregate is
    # that of a run of the size by itself; size 1 fails every trial, size 5 none
    sizes = [5, 1, 9, 20]
    report = monte_carlo(ThinPlateSpline(1), unit_box(2), Uniform(), sizes, trials=5, seed=7)
    assert [a.failures for a in report.aggregates] == [0, 5, 0, 0]
    for n, aggregate in zip(sizes, report.aggregates):
        alone = monte_carlo(ThinPlateSpline(1), unit_box(2), Uniform(), [n], trials=5, seed=7)
        assert aggregate == alone.aggregates[0]
        assert [r for r in report.records if r.n == n] == list(alone.records)


def test_monte_carlo_thread_count_does_not_change_output():
    kwargs = dict(n_list=[3, 7], trials=5, seed=9)
    serial = monte_carlo(RadialPower(1.5), unit_box(2), Uniform(), **kwargs)
    threaded = monte_carlo(RadialPower(1.5), unit_box(2), Uniform(), threads=4, **kwargs)
    assert json.dumps(serial.to_dict(), indent=2) == json.dumps(threaded.to_dict(), indent=2)
    assert "".join(serial.records_csv_lines()) == "".join(threaded.records_csv_lines())


@pytest.mark.parametrize("threads, trials, cores, workers", [
    (5000, 3, 8, 6),     # capped by the task count
    (5000, 50, 4, 4),    # capped by the cores
    (3, 3, 8, 3),        # as asked
    (5000, 3, None, 0),  # unknown core count: serial, no pool
    (5000, 1, 8, 0),     # one task: serial
    (5000, 3, 1, 0),     # one core: serial
])
def test_monte_carlo_pool_is_bounded(monkeypatch, threads, trials, cores, workers):
    made = _record_pools(monkeypatch)
    n_list = [3, 5] if trials > 1 else [4]
    serial = monte_carlo(ThinPlateSpline(1), unit_box(2), Uniform(), n_list, trials, 2)
    for mask in [None] if cores is None else [None, set(range(cores))]:
        if mask is None:  # an OS without affinity masks: os.cpu_count() gives the cores
            monkeypatch.delattr(unisolvence.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(unisolvence.os, "cpu_count", lambda: cores)
        else:  # the mask gives them, and os.cpu_count() is not read
            monkeypatch.setattr(unisolvence.os, "sched_getaffinity", lambda pid: mask,
                                raising=False)
            monkeypatch.delattr(unisolvence.os, "cpu_count")
        made.clear()
        report = monte_carlo(ThinPlateSpline(1), unit_box(2), Uniform(), n_list, trials, 2,
                             threads=threads)
        assert made == ([workers] if workers else [])
        assert json.dumps(report.to_dict(), indent=2) == json.dumps(serial.to_dict(), indent=2)


def _record_pools(monkeypatch):
    """The list of max_workers of each pool monte_carlo builds, through a stand-in executor.

    The stand-in maps serially, so no OS thread is started.  monte_carlo imports the
    executor from concurrent.futures only when it starts a pool.
    """
    made = []

    class Recorder:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorder)
    return made


def test_monte_carlo_pool_is_capped_by_the_affinity_mask(monkeypatch):
    # four cores on the machine, one that this process may run on: no pool
    made = _record_pools(monkeypatch)
    monkeypatch.setattr(unisolvence.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(unisolvence.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    report = monte_carlo(ThinPlateSpline(1), unit_box(2), Uniform(), [5, 9], 4, 3, threads=4)
    assert made == []
    serial = monte_carlo(ThinPlateSpline(1), unit_box(2), Uniform(), [5, 9], 4, 3)
    assert json.dumps(report.to_dict(), indent=2) == json.dumps(serial.to_dict(), indent=2)


def test_threaded_monte_carlo_leaves_the_warning_filters_alone():
    # filters saved and restored by overlapping threads would leak an "ignore" filter
    before = list(warnings.filters)
    for seed in range(10):
        monte_carlo(ThinPlateSpline(1), unit_box(2), Uniform(), [5, 20], 100, seed, threads=2)
        assert warnings.filters == before


def test_monte_carlo_density_and_domain_in_config():
    density = TruncatedGaussian(mean=(0.5, 0.5), sd=(0.2, 0.2))
    report = monte_carlo(ThinPlateSpline(1), unit_box(2), density, [5], 3, 1)
    assert report.config["density"]["kind"] == "truncated-gaussian"
    assert report.config["domain"]["shape"] == "box"
    assert "threads" not in report.config


def test_monte_carlo_validation():
    with pytest.raises(ValueError):
        monte_carlo(ThinPlateSpline(1), unit_box(2), Uniform(), [], 5, 1)
    with pytest.raises(ValueError):
        monte_carlo(ThinPlateSpline(1), unit_box(2), Uniform(), [3], 0, 1)
    with pytest.raises(ValueError):
        monte_carlo(ThinPlateSpline(1), unit_box(2), Uniform(), [3], 5, 1, threads=0)
    with pytest.raises(ValueError):
        monte_carlo(ThinPlateSpline(1), unit_box(2), Uniform(), [1, 1], 3, 1)


def test_records_csv_header_and_shape():
    report = monte_carlo(ThinPlateSpline(1), unit_box(2), Uniform(), [4], 3, 2)
    lines = "".join(report.records_csv_lines()).splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert lines[0] == "n,trial,det_sign,log_abs_det,sigma_min,sigma_max,condition,min_dist"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "4" and first[1] == "0"
    # full-precision floats round-trip through the text form
    assert float(first[3]) == report.records[0].log_abs_det


def test_incremental_growth_steps_and_signs():
    report = incremental_growth(ThinPlateSpline(1), unit_box(2), Uniform(), 12, 31)
    assert len(report.steps) == 11
    assert len(report.det_signs) == 11
    assert report.steps[0].n == 1 and report.steps[-1].n == 11
    for step in report.steps:
        if step.cond_base <= 1e10:
            assert step.rel_disagreement <= 1e-8
            assert not step.flagged
    assert report.det_signs[0] == -1
    doc = report.to_dict()
    assert doc["config"]["n_max"] == 12
    assert len(doc["steps"]) == 11


@pytest.mark.parametrize("kernel, n_max, hidden_steps", [
    (ThinPlateSpline(1), 200, 47),
    (RadialPower(1.5), 169, 1),  # the smallest n_max at seed 3 that reaches such a step
])
def test_incremental_growth_flags_every_determinant_that_underflows_to_zero(kernel, n_max,
                                                                            hidden_steps):
    # exp(log|det|) of the grown matrix underflows to 0.0 while its LU sign is nonzero, so the
    # two routes were not compared: the step is flagged
    report = incremental_growth(kernel, unit_box(2), Uniform(), n_max, 3)
    hidden = [step for step, sign in zip(report.steps, report.det_signs)
              if step.det_next == 0.0 and sign != 0]
    assert len(hidden) == hidden_steps
    assert all(step.flagged for step in hidden)


def test_incremental_growth_first_step_uses_direct_route():
    # the 1x1 base [0] is singular, so step one must fall back to the
    # direct factorization and produce -phi(r)**2
    report = incremental_growth(ThinPlateSpline(1), unit_box(2), Uniform(), 3, 3)
    pts = sample(unit_box(2), Uniform(), 3, 3).points
    r = float(np.linalg.norm(pts[1] - pts[0]))
    expected = pair_determinant(ThinPlateSpline(1).value(r))
    assert report.steps[0].f_value == pytest.approx(expected, rel=1e-12)


def test_incremental_growth_takes_no_scale_or_threshold():
    # every prefix is built at scale 1 and tau 1e-12; the echo reads the scale off the last
    # system and the threshold from the one constant
    params = list(inspect.signature(incremental_growth).parameters)
    assert params == ["kernel", "domain", "density", "n_max", "seed"]
    config = incremental_growth(ThinPlateSpline(1), unit_box(2), Uniform(), 3, 3).config
    assert (config["epsilon"], config["tau"]) == (1.0, 1e-12)


def test_monte_carlo_takes_no_scale():
    # every trial is assembled at scale 1, which the echo holds; tau stays a setting
    assert "eps" not in inspect.signature(monte_carlo).parameters
    assert list(inspect.signature(unisolvence._run_trial).parameters) == [
        "kernel", "domain", "density", "n", "trial", "master_seed", "tau"]
    config = monte_carlo(ThinPlateSpline(1), unit_box(2), Uniform(), [4], 1, 3, tau=0.5).config
    assert (config["epsilon"], config["tau"]) == (1.0, 0.5)


def test_incremental_growth_validation():
    with pytest.raises(ValueError):
        incremental_growth(ThinPlateSpline(1), unit_box(2), Uniform(), 1, 3)


@pytest.mark.parametrize("width", [150.0, 1000.0])
def test_incremental_growth_beyond_double_range_is_a_value_error(width):
    # the grown matrix crosses log|det| = 709.78 at the step whose Schur product overflows
    domain = Box(lower=(0.0, 0.0), upper=(width, width))
    with pytest.raises(ValueError, match="exceeds double range: log\\|det\\| of the base matrix"):
        incremental_growth(RadialPower(3.0), domain, Uniform(), 90, 1)


def test_incremental_growth_guards_the_grown_determinant(monkeypatch):
    # with every bordered determinant finite, exp(log|det|) of the grown matrix is what overflows
    monkeypatch.setattr(BorderedSystem, "determinant", lambda self, point, method="auto": 1.0)
    domain = Box(lower=(0.0, 0.0), upper=(150.0, 150.0))
    with pytest.raises(ValueError, match="exceeds double range: log\\|det\\| of the grown matrix"):
        incremental_growth(RadialPower(3.0), domain, Uniform(), 90, 1)
