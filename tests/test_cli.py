"""End-to-end command-line behavior: artifacts, exit codes, determinism."""

import csv
import dataclasses
import json
import math
import os
import shlex
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ElementTree
from pathlib import Path

import numpy as np
import pytest

import polyharm
from oracles import whole_evaluate
from polyharm import (
    InterpolationModel,
    ThinPlateSpline,
    Uniform,
    cli,
    make_rng,
    read_points_csv,
    sample,
    unit_box,
    write_points_csv,
)


def make_data_csv(path, n=12, seed=81, d=2):
    pts = sample(unit_box(d), Uniform(), n, seed)
    values = make_rng(seed + 1).standard_normal(n)
    write_points_csv(path, pts, values)
    return pts, values


def test_interp_fits_and_echoes_config(run_cli, tmp_path):
    data = tmp_path / "data.csv"
    pts, values = make_data_csv(data)
    code, out, err = run_cli(["interp", "--kernel", "tps:k=1", "--points", str(data)])
    assert code == 0, err
    doc = json.loads(out)
    assert doc["command"] == "interp"
    assert doc["config"]["kernel"] == "tps:k=1"
    assert doc["config"]["epsilon"] == 1.0
    assert doc["diagnostics"]["singular_verdict"] is False
    assert len(doc["model"]["coefficients"]) == pts.n
    assert doc["model"]["tail"] is None


def test_interp_evaluates_at_nodes(run_cli, tmp_path):
    data = tmp_path / "data.csv"
    pts, values = make_data_csv(data)
    model_path = tmp_path / "model.json"
    pred_path = tmp_path / "pred.csv"
    code, out, _ = run_cli([
        "interp", "--kernel", "rp:nu=1.5", "--points", str(data),
        "--out", str(model_path), "--eval", str(data), "--pred", str(pred_path),
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["model"] == str(model_path)
    saved = json.loads(model_path.read_text())
    assert saved["kernel"] == "rp:nu=1.5"
    assert saved["config"]["command"] == "interp"
    _, predictions = read_points_csv(pred_path)
    assert np.abs(predictions - values).max() <= 1e-8 * np.abs(values).max()


def test_interp_eval_of_a_subset_writes_the_same_rows(run_cli, tmp_path):
    # every 7th query from the 4th on: its rows sit elsewhere in evaluate's blocks
    data = tmp_path / "data.csv"
    make_data_csv(data, n=200)
    queries = np.random.default_rng(83).random((1000, 2))
    write_points_csv(tmp_path / "all.csv", queries)
    write_points_csv(tmp_path / "some.csv", queries[3::7])
    rows = {}
    for name in ("all", "some"):
        code, _, err = run_cli([
            "interp", "--kernel", "tps:k=1", "--augment", "poly", "--points", str(data),
            "--eval", str(tmp_path / f"{name}.csv"), "--pred", str(tmp_path / f"{name}.pred"),
        ])
        assert code == 0, err
        rows[name] = (tmp_path / f"{name}.pred").read_text().splitlines()
    header, *body = rows["all"]
    assert rows["some"] == [header] + body[3::7]


def test_interp_eval_of_a_query_whose_value_overflows_exits_1(run_cli, tmp_path):
    data, far, near = tmp_path / "data.csv", tmp_path / "far.csv", tmp_path / "near.csv"
    make_data_csv(data, n=5)
    far.write_text("x1,x2\n1e200,0.5\n1e150,0.5\n0.5,0.5\n")
    near.write_text("x1,x2\n1e150,0.5\n0.5,0.5\n")
    fit = ["interp", "--kernel", "tps:k=1", "--augment", "poly", "--points", str(data)]
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, err = run_cli(fit + ["--eval", str(far), "--pred", str(tmp_path / "far.pred")])
    assert (code, out) == (1, "")
    assert err.splitlines()[-1].startswith("error: the value at query 0 [1e+200, 0.5] is not finite")
    assert not (tmp_path / "far.pred").exists()
    code, _, err = run_cli(fit + ["--out", str(tmp_path / "model.json"), "--eval", str(near),
                                  "--pred", str(tmp_path / "near.pred")])
    assert code == 0, err
    model = InterpolationModel.from_dict(json.loads((tmp_path / "model.json").read_text()))
    queries, predictions = read_points_csv(tmp_path / "near.pred")
    want = whole_evaluate(model, queries.points, fixed_order=True)
    assert np.isfinite(want).all() and predictions.tobytes() == want.tobytes()


def test_interp_eval_without_pred_puts_the_predictions_in_stdout(run_cli, tmp_path):
    data, queries, pred = tmp_path / "data.csv", tmp_path / "queries.csv", tmp_path / "pred.csv"
    make_data_csv(data)
    write_points_csv(queries, np.random.default_rng(84).random((7, 2)))
    fit = ["interp", "--kernel", "tps:k=1", "--augment", "poly", "--points", str(data),
           "--eval", str(queries)]
    code, out, err = run_cli(fit)
    assert (code, err) == (0, "")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "queries.csv"]
    inline = json.loads(out)
    code, out, err = run_cli(fit + ["--pred", str(pred)])
    assert (code, err) == (0, "")
    written = json.loads(out)
    _, predictions = read_points_csv(pred)
    assert inline["predictions"] == predictions.tolist() and len(predictions) == 7
    assert (inline["config"]["pred"], written["predictions"]) == (None, str(pred))
    del inline["predictions"], inline["config"]["pred"], inline["model"]["config"]["pred"]
    del written["predictions"], written["config"]["pred"], written["model"]["config"]["pred"]
    assert inline == written


def test_interp_eval_failure_writes_no_file_and_one_error_line(tmp_path):
    # a subprocess shows what the user sees: warnings reach stderr as they would
    data, far = tmp_path / "data.csv", tmp_path / "far.csv"
    make_data_csv(data, n=5)
    far.write_text("x1,x2\n1e200,0.5\n")
    model, pred = tmp_path / "model.json", tmp_path / "pred.csv"
    src = str(Path(polyharm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-m", "polyharm.cli", "interp", "--kernel", "tps:k=1", "--augment",
         "poly", "--points", str(data), "--eval", str(far), "--pred", str(pred),
         "--out", str(model)],
        capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("error: the value at query 0 [1e+200, 0.5] is not finite")
    assert done.stderr.count("\n") == 1
    assert not model.exists() and not pred.exists()


@pytest.mark.parametrize("argv", [
    ["verify", "--kernel", "tps:k=1", "--dim", "2", "--n", "5", "--trials", "2", "--seed", "1",
     "--out", "report.json", "--csv", "missing/records.csv"],
    ["field", "--kernel", "tps:k=1", "--n", "5", "--seed", "1", "--grid=0,1,0,1,4,4",
     "--out", "field.csv", "--svg", "missing/field.svg"],
    ["interp", "--kernel", "tps:k=1", "--points", "data.csv", "--eval", "data.csv",
     "--out", "model.json", "--pred", "missing/pred.csv"],
], ids=["verify", "field", "interp"])
def test_unwritable_second_output_leaves_no_output_behind(run_cli, tmp_path, monkeypatch, argv):
    # the first output is written before the second one fails, and is deleted again
    monkeypatch.chdir(tmp_path)
    make_data_csv(tmp_path / "data.csv")
    code, out, err = run_cli(argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: [Errno 2] No such file or directory: 'missing/")
    assert err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["data.csv"]


def _record_removals(monkeypatch) -> list:
    # os.remove records its paths and deletes nothing, so no test can unlink a device
    removed = []
    monkeypatch.setattr(os, "remove", removed.append)
    return removed


def test_output_cleanup_never_removes_a_device(run_cli, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    make_data_csv(tmp_path / "data.csv")
    removed = _record_removals(monkeypatch)
    code, out, err = run_cli(["interp", "--kernel", "tps:k=1", "--points", "data.csv",
                              "--eval", "data.csv", "--out", os.devnull,
                              "--pred", "missing/pred.csv"])
    assert (code, out) == (1, "")
    assert err.startswith("error: [Errno 2] No such file or directory: 'missing/")
    assert removed == []


def test_output_cleanup_removes_a_failing_output_it_created(run_cli, tmp_path, monkeypatch):
    def write_then_fail(path, points, values):
        with open(path, "w") as handle:
            handle.write("x1,x2,value\n")
        raise OSError("disk full")

    monkeypatch.chdir(tmp_path)
    make_data_csv(tmp_path / "data.csv")
    monkeypatch.setattr(cli, "write_points_csv", write_then_fail)
    removed = _record_removals(monkeypatch)
    argv = ["interp", "--kernel", "tps:k=1", "--points", "data.csv", "--eval", "data.csv",
            "--out", "model.json", "--pred", "pred.csv"]
    assert run_cli(argv) == (1, "", "error: disk full\n")
    assert removed == ["model.json", "pred.csv"]
    # a failing output that was there before the run is not this run's to delete
    removed.clear()
    assert run_cli(argv) == (1, "", "error: disk full\n")
    assert removed == ["model.json"]


@pytest.mark.parametrize("argv", [
    ["verify", "--kernel", "tps:k=1", "--dim", "2", "--n", "1e15", "--trials", "1"],
    ["field", "--kernel", "tps:k=1", "--n", "5", "--grid=0,1,0,1,1e15,2", "--out", "f.csv"],
    # counterexample allocates its points before it places any of them
    ["counterexample", "--dim", "2", "--n", "1000000000000000"],
])
def test_impossible_size_exits_1_with_one_error_line(tmp_path, argv):
    src = str(Path(polyharm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-m", "polyharm.cli", *argv], cwd=tmp_path,
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr
    assert list(tmp_path.iterdir()) == []


def test_interp_augmented_tail(run_cli, tmp_path):
    data = tmp_path / "data.csv"
    make_data_csv(data)
    code, out, _ = run_cli([
        "interp", "--kernel", "tps:k=1", "--points", str(data), "--augment", "poly",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["augment"] == "poly:1"
    assert doc["model"]["tail"]["degree"] == 1
    assert len(doc["model"]["tail"]["coeffs"]) == 3


def test_interp_requires_value_column(run_cli, tmp_path):
    bare = tmp_path / "bare.csv"
    write_points_csv(bare, sample(unit_box(2), Uniform(), 5, 2))
    code, _, err = run_cli(["interp", "--kernel", "tps:k=1", "--points", str(bare)])
    assert code == 1
    assert "value column" in err


def test_interp_singular_input_exits_2_and_names_zero_rows(run_cli, tmp_path):
    from polyharm import sphere_counterexample

    data = tmp_path / "sphere.csv"
    pts = sphere_counterexample(2, 5)
    write_points_csv(data, pts, np.ones(5))
    code, _, err = run_cli(["interp", "--kernel", "tps:k=1", "--points", str(data)])
    assert code == 2
    assert "numerically singular" in err
    assert "zero row(s) at node index [0]" in err


def test_verify_report_and_artifacts(run_cli, tmp_path):
    report_path = tmp_path / "report.json"
    csv_path = tmp_path / "records.csv"
    code, out, _ = run_cli([
        "verify", "--kernel", "tps:k=1", "--dim", "2", "--n", "4,6",
        "--trials", "5", "--seed", "3",
        "--out", str(report_path), "--csv", str(csv_path),
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["exploratory"] is False
    assert doc["total_failures"] == 0
    assert [a["n"] for a in doc["aggregates"]] == [4, 6]
    assert len(doc["records"]) == 10
    assert doc["config"]["domain_spec"] == "box:0.0,0.0,1.0,1.0"
    assert doc["config"]["density_spec"] == "uniform"
    saved = json.loads(report_path.read_text())
    assert saved["config"]["seed"] == 3
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "n,trial,det_sign,log_abs_det,sigma_min,sigma_max,condition,min_dist"
    assert len(lines) == 11


def test_verify_exit_2_on_singular_trials(run_cli):
    # n = 1 yields the 1x1 zero matrix in every trial
    code, out, _ = run_cli([
        "verify", "--kernel", "tps:k=1", "--dim", "2", "--n", "1", "--trials", "3",
    ])
    assert code == 2
    doc = json.loads(out)
    assert doc["total_failures"] == 3


def test_verify_determinism_across_threads(run_cli):
    argv = ["verify", "--kernel", "rp:nu=1.5", "--dim", "2", "--n", "3,5",
            "--trials", "4", "--seed", "11"]
    runs = [run_cli(argv + ["--threads", t])[1] for t in ("1", "4")]
    assert runs[0] == runs[1]


def test_the_seed_comes_from_argv_alone(run_cli, monkeypatch, tmp_path):
    # the seed comes from --seed alone: no RBF_SEED in the environment changes a byte
    monkeypatch.chdir(tmp_path)
    verify = ["verify", "--kernel", "tps:k=1", "--dim", "2", "--n", "4", "--trials", "2"]
    commands = (verify,
                ["scale-check", "--kernel", "tps:k=1", "--eps", "0.5,2", "--dim", "2", "--n", "10"],
                ["field", "--kernel", "tps:k=1", "--n", "5", "--grid=0,1,0,1,4,3",
                 "--out", "field.csv"])

    def run(argv):  # exit code, stdout, stderr and the bytes of field's CSV
        return (*run_cli(argv), Path("field.csv").read_bytes() if argv[0] == "field" else b"")

    for env_seed in ("123", "not-a-number"):
        monkeypatch.setenv("RBF_SEED", env_seed)
        for argv in commands:
            implicit = run(argv)
            assert implicit[0] == 0 and implicit[2] == "", (env_seed, argv)
            assert run(argv + ["--seed", "0"]) == implicit, (env_seed, argv)
    default, explicit = (json.loads(run_cli(verify + seed)[1]) for seed in ([], ["--seed", "123"]))
    assert (default["config"]["seed"], explicit["config"]["seed"]) == (0, 123)
    assert explicit["records"] != default["records"]  # the seed draws the nodes


def test_verify_exploratory_banner_univariate(run_cli):
    code, out, _ = run_cli([
        "verify", "--kernel", "tps:k=1", "--dim", "1", "--n", "2,5",
        "--trials", "10", "--seed", "7",
    ])
    assert code == 0
    banner, body = out.split("\n", 1)
    assert banner.startswith("EXPLORATORY:")
    doc = json.loads(body)
    assert doc["exploratory"] is True


def test_verify_exploratory_banner_high_odd_power(run_cli):
    code, out, _ = run_cli([
        "verify", "--kernel", "rp:nu=5", "--dim", "2", "--n", "4",
        "--trials", "5", "--seed", "7",
    ])
    assert code == 0
    assert out.startswith("EXPLORATORY:")
    code, out, _ = run_cli([
        "verify", "--kernel", "rp:nu=3", "--dim", "2", "--n", "4",
        "--trials", "5", "--seed", "7",
    ])
    assert code == 0
    assert json.loads(out)["exploratory"] is False


@pytest.mark.parametrize("spec, exploratory_in_2d", [
    ("rp:nu=1", False), ("rp:nu=3", False), ("rp:nu=5", True), ("rp:nu=5.5", False),
    ("rp:nu=7", True), ("tps:k=1", False), ("tps:k=2", False),
])
def test_exploratory_configurations(spec, exploratory_in_2d):
    # univariate nodes, or a radial power of odd integer exponent >= 5
    kernel = polyharm.parse_kernel(spec)
    assert cli._is_exploratory(kernel, 1) is True
    assert cli._is_exploratory(kernel, 2) is exploratory_in_2d


def test_verify_gauss_density_and_ball_domain(run_cli):
    code, out, _ = run_cli([
        "verify", "--kernel", "tps:k=1", "--domain", "ball:0,0,2",
        "--density", "gauss:mu=0.1,sd=0.5", "--n", "5", "--trials", "4", "--seed", "2",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["domain"] == {"shape": "ball", "center": [0.0, 0.0], "radius": 2.0}
    assert doc["config"]["density"]["mean"] == [0.1, 0.1]
    assert doc["config"]["density"]["sd"] == [0.5, 0.5]


def test_counterexample_exact_singularity(run_cli):
    code, out, _ = run_cli(["counterexample", "--dim", "2", "--n", "5", "--kernel", "tps:k=2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["exact_singular"] is True
    assert doc["diagnostics"]["det_sign"] == 0
    assert doc["diagnostics"]["sigma_min"] == 0.0
    assert doc["config"]["kernel"] == "tps:k=2"
    assert len(doc["points"]) == 5


def test_counterexample_radial_power_comparison(run_cli):
    code, out, _ = run_cli([
        "counterexample", "--dim", "2", "--n", "5", "--kernel", "rp:nu=1",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["exact_singular"] is False
    assert doc["diagnostics"]["det_sign"] != 0


def test_counterexample_off_origin_center_is_exactly_singular(run_cli):
    # renormalization alone misses unit distance for some of these satellites
    code, out, err = run_cli(["counterexample", "--dim", "2", "--n", "9", "--center", "0.1,0.7"])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["exact_singular"] is True and doc["config"]["center"] == [0.1, 0.7]
    assert doc["points"][0] == [0.1, 0.7] and len(doc["points"]) == 9


def test_counterexample_where_single_ulp_steps_miss_is_exactly_singular(run_cli):
    # the sixth satellite needs the exact search's wide round
    center = [-0.09105638295397789, 3.543161285788292]
    code, out, err = run_cli(["counterexample", "--dim", "2", "--n", "7",
                              "--center=" + ",".join(map(repr, center))])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["exact_singular"] is True and doc["config"]["center"] == center
    assert len(doc["points"]) == 7


def test_counterexample_validation_exits_1(run_cli):
    code, _, err = run_cli(["counterexample", "--dim", "2", "--n", "1"])
    assert code == 1 and "at least 2" in err
    code, _, err = run_cli([
        "counterexample", "--dim", "2", "--n", "3", "--center", "1.0",
    ])
    assert code == 1 and "center" in err


def test_scale_check_radial_power_passes(run_cli):
    code, out, _ = run_cli([
        "scale-check", "--kernel", "rp:nu=1.5", "--eps", "0.25,1,4",
        "--dim", "2", "--n", "10", "--seed", "4",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["passed"] is True
    assert doc["report"]["max_rel_deviation"] <= 1e-9


def test_scale_check_augmented_tps_passes(run_cli):
    code, out, _ = run_cli([
        "scale-check", "--kernel", "tps:k=1", "--eps", "0.5,2",
        "--dim", "2", "--n", "12", "--seed", "4", "--augment", "poly:1",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["passed"] is True
    assert doc["report"]["degree"] == 1


def test_scale_check_unaugmented_tps_report_only(run_cli):
    code, out, _ = run_cli([
        "scale-check", "--kernel", "tps:k=1", "--eps", "0.5,2",
        "--dim", "2", "--n", "10", "--seed", "4",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["passed"] is None
    assert doc["report"]["asserted_bound"] is None


def test_scale_check_from_csv(run_cli, tmp_path):
    data = tmp_path / "data.csv"
    make_data_csv(data, n=9, seed=91)
    code, out, _ = run_cli([
        "scale-check", "--kernel", "rp:nu=1", "--eps", "0.5,2", "--points", str(data),
    ])
    assert code == 0
    assert json.loads(out)["config"]["source"] == {"points": str(data)}
    code, _, err = run_cli([
        "scale-check", "--kernel", "rp:nu=1", "--eps", "1", "--points", str(data),
    ])
    assert code == 1 and "two scales" in err


def test_scale_check_exits_2_when_its_report_fails(run_cli, monkeypatch):
    real = polyharm.cli.scale_invariance_check
    monkeypatch.setattr(polyharm.cli, "scale_invariance_check",
                        lambda *args, **kw: dataclasses.replace(real(*args, **kw), passed=False))
    code, out, err = run_cli(["scale-check", "--kernel", "rp:nu=1.5", "--eps", "0.5,2",
                              "--dim", "2", "--n", "10", "--seed", "4"])
    assert (code, err) == (2, "")
    doc = json.loads(out)
    assert doc["command"] == "scale-check" and doc["report"]["passed"] is False


def test_field_single_node_closed_form(run_cli, tmp_path):
    node = tmp_path / "node.csv"
    write_points_csv(node, np.array([[0.0, 0.0]]))
    out_csv = tmp_path / "field.csv"
    out_svg = tmp_path / "field.svg"
    code, out, _ = run_cli([
        "field", "--kernel", "tps:k=1", "--points", str(node),
        "--grid=-1.5,1.5,-1.5,1.5,12,12", "--out", str(out_csv), "--svg", str(out_svg),
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["n_nodes"] == 1
    assert doc["summary"]["base_diagnostics"]["det_sign"] == 0

    with open(out_csv, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["x", "y", "value"]
    assert len(rows) == 1 + 12 * 12
    kernel = ThinPlateSpline(1)
    for x_text, y_text, v_text in rows[1:]:
        r = math.hypot(float(x_text), float(y_text))
        expected = -kernel.value(r) ** 2
        assert float(v_text) == pytest.approx(expected, abs=1e-12)

    svg = ElementTree.parse(out_svg).getroot()
    assert svg.tag.endswith("svg")
    desc = svg.find("{http://www.w3.org/2000/svg}desc")
    assert json.loads(desc.text)["command"] == "field"


def test_field_random_nodes_default_grid(run_cli, tmp_path):
    out_csv = tmp_path / "field.csv"
    argv = ["field", "--kernel", "rp:nu=1.5", "--n", "4", "--seed", "6",
            "--grid", "0,1,0,1,8,9", "--out", str(out_csv)]
    code, out, _ = run_cli(argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["grid"] == [0.0, 1.0, 0.0, 1.0, 8, 9]
    assert len(out_csv.read_text().splitlines()) == 1 + 8 * 9
    # reruns of a seeded command are byte-identical
    first = out_csv.read_text()
    code, out2, _ = run_cli(argv)
    assert code == 0 and out2 == out
    assert out_csv.read_text() == first


def test_field_rejects_bad_grid_and_dimension(run_cli, tmp_path):
    out_csv = tmp_path / "field.csv"
    code, _, err = run_cli([
        "field", "--kernel", "tps:k=1", "--n", "4", "--seed", "1",
        "--grid", "1,0,0,1,8,8", "--out", str(out_csv),
    ])
    assert code == 1 and "--grid" in err
    line = tmp_path / "line.csv"
    write_points_csv(line, np.array([[0.0], [1.0]]))
    code, _, err = run_cli([
        "field", "--kernel", "tps:k=1", "--points", str(line), "--out", str(out_csv),
    ])
    assert code == 1 and "planar" in err
    for sizes in ("inf,3", "3.9,2.5", "3,nan"):
        code, _, err = run_cli([
            "field", "--kernel", "tps:k=1", "--n", "4", "--seed", "1",
            f"--grid=0,1,0,1,{sizes}", "--out", str(out_csv),
        ])
        assert code == 1 and "--grid" in err
    for bounds in ("0,inf,0,1", "-1e308,1e308,0,1", "0,1,-inf,1"):
        code, _, err = run_cli([
            "field", "--kernel", "tps:k=1", "--n", "5", "--seed", "1",
            f"--grid={bounds},4,4", "--out", str(out_csv),
        ])
        assert code == 1
        assert err == "error: bad --grid: the spans x1 - x0 and y1 - y0 must be finite\n"
    code, _, err = run_cli([
        "field", "--kernel", "tps:k=1", "--n", "4", "--seed", "1",
        "--grid=0,1,0,1,4", "--out", str(out_csv),
    ])
    assert (code, err) == (1, "error: bad --grid: expected x0,x1,y0,y1,nx,ny\n")
    assert not out_csv.exists()


@pytest.mark.parametrize("grid, message", [
    ("0,inf,0,1,4,4", "error: bad --grid: the spans x1 - x0 and y1 - y0 must be finite"),
    ("-1e308,1e308,0,1,4,4", "error: bad --grid: the spans x1 - x0 and y1 - y0 must be finite"),
    # the lattice point (1e308, 0) overflows the distance to inf on its way to the Schur check
    ("0,1e308,0,1,4,4", "error: bordered determinant exceeds double range"),
], ids=["infinite_x1", "span_overflows", "far_point"])
def test_field_far_or_infinite_grid_exits_1_with_one_error_line(tmp_path, grid, message):
    # a subprocess shows what the user sees: warnings reach stderr as they would
    src = str(Path(polyharm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-m", "polyharm.cli", "field", "--kernel", "tps:k=1",
                           "--n", "5", "--seed", "1", f"--grid={grid}", "--out", "f.csv"],
                          cwd=tmp_path, capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith(message) and done.stderr.count("\n") == 1, done.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("domain", [None, "box:0,0,10,10"])
def test_field_without_grid_pads_the_nodes_on_a_64_by_64_lattice(run_cli, tmp_path, domain):
    out_csv = tmp_path / "field.csv"
    argv = ["field", "--kernel", "tps:k=1", "--n", "5", "--seed", "3", "--out", str(out_csv)]
    code, out, err = run_cli(argv + (["--domain", domain] if domain else []))
    assert (code, err) == (0, "")
    box = unit_box(2) if domain is None else polyharm.Box(lower=(0.0, 0.0), upper=(10.0, 10.0))
    nodes = sample(box, Uniform(), 5, 3).points
    lo, hi = nodes.min(axis=0), nodes.max(axis=0)
    pad = np.maximum(0.25 * (hi - lo), 1.25)  # 1.25 on the unit box, a quarter span on the wide one
    assert (pad == 1.25).all() == (domain is None)
    grid = [float(lo[0] - pad[0]), float(hi[0] + pad[0]),
            float(lo[1] - pad[1]), float(hi[1] + pad[1]), 64, 64]
    config = json.loads(out)["config"]
    assert config["grid"] == grid
    assert config["source"] == {"dim": 2, "n": 5, "seed": 3,
                                "domain_spec": "box:" + ",".join(map(repr, box.lower + box.upper))}
    rows = [line.split(",") for line in out_csv.read_text().splitlines()[1:]]
    assert len(rows) == 64 * 64
    corners = [[float(v) for v in rows[k][:2]] for k in (0, 63, -64, -1)]
    assert corners == [grid[0:3:2], [grid[0], grid[3]], [grid[1], grid[2]], grid[1:4:2]]


@pytest.mark.parametrize("argv, message", [
    (["field", "--kernel", "tps:k=1", "--out", "f.csv"], "field needs --points or --n"),
    (["field", "--kernel", "tps:k=1", "--n", "5", "--domain", "box:0,0,0,1,1,1", "--out", "f.csv"],
     "field rendering requires planar (d = 2) points"),
    (["field", "--kernel", "tps:k=1", "--points", "space.csv", "--out", "f.csv"],
     "field rendering requires planar (d = 2) points"),
    (["field", "--kernel", "tps:k=1", "--points", "missing.csv", "--out", "f.csv"],
     "[Errno 2] No such file or directory: 'missing.csv'"),
    (["scale-check", "--kernel", "tps:k=1", "--eps", "1,2"],
     "scale-check needs --points or --n with --dim or --domain"),
    (["scale-check", "--kernel", "tps:k=1", "--eps", "1,2", "--n", "5"],
     "scale-check needs --points or --n with --dim or --domain"),
    (["scale-check", "--kernel", "tps:k=1", "--eps", "1,2", "--dim", "2"],
     "scale-check needs --points or --n with --dim or --domain"),
    (["scale-check", "--kernel", "tps:k=1", "--eps", "1,2", "--points", "nodes.csv"],
     "nodes.csv: scale-check requires a value column"),
    (["scale-check", "--kernel", "tps:k=1", "--eps", "1,2", "--dim", "3", "--n", "5",
      "--domain", "box:0,0,1,1"], "domain dimension 2 does not match --dim 3"),
    (["scale-check", "--kernel", "tps:k=1", "--eps", "1,2", "--domain", "box:0,0,1,1"],
     "scale-check needs --points or --n with --dim or --domain"),
])
def test_node_source_errors_exit_1_with_one_error_line(run_cli, tmp_path, monkeypatch,
                                                       argv, message):
    monkeypatch.chdir(tmp_path)
    write_points_csv("nodes.csv", np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    write_points_csv("space.csv", np.eye(3))
    assert run_cli(argv) == (1, "", f"error: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["nodes.csv", "space.csv"]


def test_scale_check_takes_the_dimension_of_its_domain(run_cli):
    argv = ["scale-check", "--kernel", "rp:nu=1.5", "--eps", "1,2", "--n", "10", "--seed", "1"]
    by_dim = run_cli(argv + ["--dim", "2"])
    by_domain = run_cli(argv + ["--domain", "box:0,0,1,1"])
    assert by_dim[0] == 0 and by_domain == by_dim
    assert json.loads(by_dim[1])["config"]["source"]["domain_spec"] == "box:0.0,0.0,1.0,1.0"


@pytest.mark.parametrize("argv, option", [
    (["counterexample", "--dim", "2", "--n", "5", "--k", "2"], "--k 2"),
    (["field", "--kernel", "tps:k=1", "--n", "5", "--dim", "2", "--out", "f.csv"], "--dim 2"),
    (["counterexample", "--dim", "2", "--n", "5", "--eps", "0.5"], "--eps 0.5"),
    (["counterexample", "--dim", "2", "--n", "5", "--tau", "1e-3"], "--tau 1e-3"),
    (["interp", "--kernel", "tps:k=1", "--points", "data.csv", "--tau", "1e-9"], "--tau 1e-9"),
    (["scale-check", "--kernel", "tps:k=1", "--eps", "1,2", "--dim", "2", "--n", "5",
      "--tau", "1e-9"], "--tau 1e-9"),
    (["field", "--kernel", "tps:k=1", "--n", "5", "--out", "f.csv", "--tau", "1e-9"],
     "--tau 1e-9"),
    (["verify", "--kernel", "tps:k=1", "--dim", "2", "--n", "5", "--trials", "1",
      "--eps", "0.5"], "--eps 0.5"),
])
def test_removed_options_are_usage_errors(run_cli, tmp_path, monkeypatch, argv, option):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(argv)
    assert (code, out) == (1, "")
    assert err.endswith(f"error: unrecognized arguments: {option}\n")
    assert err.count("error:") == 1 and err.startswith("usage: polyharm ")
    assert list(tmp_path.iterdir()) == []


def test_fixed_scale_and_threshold_are_echoed(run_cli, tmp_path, monkeypatch):
    # every command diagnoses at tau 1e-12 and verify assembles at scale 1; verify keeps --tau
    monkeypatch.chdir(tmp_path)
    make_data_csv("data.csv")
    runs = {
        "interp": ["interp", "--kernel", "tps:k=1", "--points", "data.csv"],
        "scale-check": ["scale-check", "--kernel", "rp:nu=1.5", "--eps", "1,2", "--points",
                        "data.csv"],
        "field": ["field", "--kernel", "tps:k=1", "--points", "data.csv", "--grid=0,1,0,1,3,3",
                  "--out", "f.csv"],
        "verify": ["verify", "--kernel", "tps:k=1", "--dim", "2", "--n", "5", "--trials", "1"],
    }
    for command, argv in runs.items():
        code, out, err = run_cli(argv)
        assert (code, err) == (0, ""), command
        assert json.loads(out)["config"]["tau"] == 1e-12
    assert json.loads(out)["config"]["epsilon"] == 1.0
    code, out, _ = run_cli(runs["verify"] + ["--tau", "0.5"])
    assert (code, json.loads(out)["config"]["tau"]) == (2, 0.5)


@pytest.mark.parametrize("argv, log_abs_det", [
    (["field", "--kernel", "tps:k=1", "--n", "200", "--seed", "7", "--grid=0,1,0,1,8,8"],
     "-1024.2"),
    (["field", "--kernel", "rp:nu=1.5", "--n", "200", "--seed", "3", "--grid=0,1,0,1,16,16",
      "--svg", "field.svg"], "-915.4"),
], ids=["tps1", "rp15"])
def test_field_refuses_a_base_whose_determinant_underflows(run_cli, tmp_path, monkeypatch,
                                                           argv, log_abs_det):
    # the base is nonsingular, but exp(log|det|) reads 0.0, which would zero every value
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(argv + ["--out", "field.csv"])
    assert (code, out) == (1, "")
    assert err.startswith("error: bordered determinant below double range: log|det| of the "
                          f"base matrix is {log_abs_det}")
    assert err.endswith(", so its determinant reads 0.0\n") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_field_reads_the_nodes_of_a_points_file_without_values(run_cli, tmp_path):
    # a points file wins over --n, and its value column is optional
    nodes, out_csv = tmp_path / "nodes.csv", tmp_path / "field.csv"
    write_points_csv(nodes, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    code, out, err = run_cli(["field", "--kernel", "tps:k=1", "--points", str(nodes), "--n", "9",
                              "--grid=0,1,0,1,3,3", "--out", str(out_csv)])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["config"]["source"] == {"points": str(nodes)}
    assert doc["summary"]["n_nodes"] == 3


VERIFY = ["verify", "--kernel", "tps:k=1", "--n", "4", "--trials", "1"]


@pytest.mark.parametrize("argv, message", [
    (VERIFY, "either --domain or --dim is required"),
    (VERIFY + ["--domain", "box:0,a,1,1"],
     "bad domain description '0,a,1,1': expected comma-separated numbers"),
    (VERIFY + ["--domain", "box:0,0,1"], "bad box 'box:0,0,1': expected box:lo1,..,lod,hi1,..,hid"),
    (VERIFY + ["--domain", "box:"], "bad box 'box:': expected box:lo1,..,lod,hi1,..,hid"),
    (VERIFY + ["--domain", "ball:1"], "bad ball 'ball:1': expected ball:c1,..,cd,radius"),
    (VERIFY + ["--domain", "cube:0,1"], "unknown domain 'cube:0,1': expected box:... or ball:..."),
    (VERIFY + ["--domain", "box:0,0,1,1", "--dim", "3"],
     "domain dimension 2 does not match --dim 3"),
    (VERIFY + ["--domain", "box:1,0,0,1"], "box must have positive extent on every axis"),
    (VERIFY + ["--domain", "ball:0,0,-1"], "ball radius must be a positive finite real"),
    (VERIFY + ["--dim", "2", "--density", "gauss:sd=1,mu=0"],
     "bad density 'gauss:sd=1,mu=0': expected gauss:mu=...,sd=..."),
    (VERIFY + ["--dim", "2", "--density", "gauss:mu=0"],
     "bad density 'gauss:mu=0': expected gauss:mu=...,sd=..."),
    (VERIFY + ["--dim", "2", "--density", "gauss:mu=x,sd=1"],
     "bad gaussian mean 'x': expected comma-separated numbers"),
    (VERIFY + ["--dim", "2", "--density", "gauss:mu=0,sd=y"],
     "bad gaussian sd 'y': expected comma-separated numbers"),
    (VERIFY + ["--dim", "2", "--density", "gauss:mu=0,0,0,sd=1"],
     "density dimension does not match the run dimension 2"),
    (VERIFY + ["--dim", "2", "--density", "gauss:mu=0,sd=1,1,1"],
     "density dimension does not match the run dimension 2"),
    (VERIFY + ["--dim", "2", "--density", "gauss:mu=,sd=1"],
     "density dimension does not match the run dimension 2"),
    (VERIFY + ["--dim", "2", "--density", "gauss:mu=0,sd=-1"],
     "mean must be finite and sd positive on every axis"),
    (VERIFY + ["--dim", "2", "--density", "cauchy"],
     "unknown density 'cauchy': expected 'uniform' or 'gauss:mu=...,sd=...'"),
    (["interp", "--kernel", "tps:k=1", "--points", "data.csv", "--augment", "spline"],
     "bad augmentation 'spline': expected poly or poly:<degree>"),
    (["interp", "--kernel", "tps:k=1", "--points", "data.csv", "--augment", "poly:x"],
     "bad augmentation degree in 'poly:x'"),
    (["interp", "--kernel", "tps:k=1", "--points", "data.csv", "--augment", "poly:1.5"],
     "bad augmentation degree in 'poly:1.5'"),
    (["scale-check", "--kernel", "tps:k=1", "--eps", "1,2", "--dim", "2", "--n", "5",
      "--augment", "polynomial"], "bad augmentation 'polynomial': expected poly or poly:<degree>"),
    # an empty field is an error, not a field to skip
    (["field", "--kernel", "tps:k=1", "--n", "5", "--grid=0,1,,0,1,8,8", "--out", "f.csv"],
     "bad grid description '0,1,,0,1,8,8': expected comma-separated numbers"),
    (["verify", "--kernel", "tps:k=1", "--dim", "2", "--n", "5,,20", "--trials", "1"],
     "bad size list '5,,20': expected comma-separated numbers"),
    (["counterexample", "--dim", "2", "--n", "5", "--center=0.5,0.5,"],
     "bad center '0.5,0.5,': expected comma-separated numbers"),
    (VERIFY + ["--dim", "2", "--density", "gauss:mu=0.5,,sd=1"],
     "bad gaussian mean '0.5,': expected comma-separated numbers"),
])
def test_spec_errors_exit_1_with_one_error_line(run_cli, tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    make_data_csv("data.csv")
    assert run_cli(argv) == (1, "", f"error: {message}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["data.csv"]


@pytest.mark.parametrize("dim, density, mean, sd", [
    ("1", "gauss:mu=0.5,sd=0.2", [0.5], [0.2]),
    ("2", "gauss:mu=0.5,sd=0.2,0.3", [0.5, 0.5], [0.2, 0.3]),
    ("3", "gauss:mu=0.1,0.2,0.3,sd=0.4", [0.1, 0.2, 0.3], [0.4, 0.4, 0.4]),
])
def test_gauss_density_broadcasts_a_one_element_mean_or_sd(run_cli, dim, density, mean, sd):
    code, out, err = run_cli(VERIFY + ["--dim", dim, "--density", density])
    assert (code, err) == (0, "")
    config = json.loads(out[out.index("{"):])["config"]  # d = 1 prints a banner line first
    assert (config["density"]["mean"], config["density"]["sd"]) == (mean, sd)


def test_integer_fields_accept_integral_floats(run_cli, tmp_path):
    code, out, _ = run_cli([
        "verify", "--kernel", "tps:k=1", "--dim", "2", "--n", "3.0,1e1", "--trials", "1",
    ])
    assert code == 0 and json.loads(out)["config"]["n_list"] == [3, 10]
    code, out, _ = run_cli([
        "field", "--kernel", "tps:k=1", "--n", "4", "--grid=0,1,0,1,3e0,2.0",
        "--out", str(tmp_path / "field.csv"),
    ])
    assert code == 0 and json.loads(out)["config"]["grid"][4:] == [3, 2]


def test_usage_errors_exit_1(run_cli, tmp_path):
    assert run_cli(["unknown-command"])[0] == 1
    assert run_cli(["interp", "--kernel", "tps:k=1"])[0] == 1
    assert run_cli(["verify", "--kernel", "nope:x=1", "--dim", "2", "--n", "4"])[0] == 1
    assert run_cli(["verify", "--kernel", "tps:k=1", "--dim", "2", "--n", "5,5"])[0] == 1
    assert run_cli(["verify", "--kernel", "tps:k=1", "--dim", "2", "--n", "5.7,20"])[0] == 1
    assert run_cli(["verify", "--kernel", "tps:k=1", "--dim", "2", "--n", "inf"])[0] == 1
    assert run_cli(["interp", "--kernel", "tps:k=1", "--points", "missing.csv"])[0] == 1
    data, pred = tmp_path / "data.csv", tmp_path / "pred.csv"
    make_data_csv(data)
    code, _, err = run_cli(["interp", "--kernel", "tps:k=1", "--points", str(data),
                            "--pred", str(pred)])
    assert code == 1 and "--eval" in err and not pred.exists()
    assert run_cli([])[0] == 1


def readme_commands():
    """The argv of each polyharm command in README's "Command line" block, continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text[text.index("## Command line"):].split("```")[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("polyharm ")]


def test_readme_command_examples_parse():
    commands = readme_commands()
    assert [argv[0] for argv in commands] == [
        "interp", "verify", "counterexample", "scale-check", "field"]
    for argv in commands:
        try:
            polyharm.cli.build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: polyharm {shlex.join(argv)}")


def test_console_script_entry_point():
    exe = shutil.which("polyharm")
    assert exe is not None, "editable install must expose the polyharm script"
    proc = subprocess.run(
        [exe, "counterexample", "--dim", "2", "--n", "3"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["exact_singular"] is True
