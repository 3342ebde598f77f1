"""Hash the output bytes of a fixed set of polyharm runs.

Run it against a checkout with

    PYTHONPATH=<checkout>/src python tools/output_digests.py

It prints one ``name exit sha256`` line per run, followed by one
``name file sha256`` line for each of its outputs.  Each run executes in
process, in its own fresh temporary directory, and names its files by
relative paths, so the configuration that the CLI echoes is the same from
any checkout.  The run's hash covers stdout, stderr and every file left in
the directory (the inputs too), so two checkouts whose lines agree wrote
the same bytes; the per-output lines (stdout and stderr appear as
``<stdout>`` and ``<stderr>``) show which outputs differ when a run's hash
does.  Input files are written here with NumPy and plain ``repr``
text, not with polyharm's own writer.

The runs are CLI argv lists (the four benchmark workloads at seed 1, with
interp_eval cut to 20,000 queries to keep memory small; interp_eval cut to
1,025 queries, one more than a multiple of evaluate's blocks; a points file
that only float() reads; and the other subcommand paths) and library calls
whose results are written as JSON or raw array bytes.  ``repr`` of library
objects is not an output contract and is left out.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from polyharm import (
    Ball,
    CustomDensity,
    InterpolationModel,
    PointSet,
    RadialPower,
    SingularSystemError,
    ThinPlateSpline,
    TruncatedGaussian,
    Uniform,
    cardinal_values,
    cli,
    evaluate,
    incremental_growth,
    monte_carlo,
    read_points_csv,
    sample,
    scale_invariance_check,
    solve_augmented,
    solve_unaugmented,
    sphere_counterexample,
    unit_box,
    write_points_csv,
)


def _write_csv(path: str, header: str, table) -> None:
    text = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in np.asarray(table))
    Path(path).write_text(header + "\n" + text)


def _data_csv(path: str = "data.csv", n: int = 20, d: int = 2, seed: int = 11) -> None:
    rng = np.random.default_rng(seed)
    nodes = rng.random((n, d))
    _write_csv(path, ",".join(f"x{i + 1}" for i in range(d)) + ",value",
               np.column_stack([nodes, np.sin(3.0 * nodes[:, 0]) + nodes[:, -1] ** 2]))


def _sphere_csv(path: str = "sphere.csv") -> None:
    # sphere_counterexample(2, 5): the center and its four unit neighbours on the axes
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    _write_csv(path, "x1,x2,value", np.column_stack([pts, np.ones(5)]))


def _unit_pair_csv(path: str = "pair.csv") -> None:
    # two nodes at distance 1: the thin-plate kernel matrix is all zeros
    _write_csv(path, "x1,x2,value", [[0.0, 0.0, 1.0], [1.0, 0.0, 2.0]])


def _interp_eval_inputs(queries: int = 20_000) -> None:
    # the interp_eval benchmark inputs at seed 1, with fewer queries
    rng = np.random.default_rng([1, 2])
    nodes = rng.random((200, 2))
    values = np.sin(2.0 * np.pi * nodes[:, 0]) * np.cos(np.pi * nodes[:, 1]) + nodes[:, 0] ** 2
    _write_csv("nodes.csv", "x1,x2,value", np.column_stack([nodes, values]))
    _write_csv("queries.csv", "x1,x2", np.vstack([rng.random((queries, 2)), nodes]))


def _underscored_csv(path: str = "spelled.csv") -> None:
    # every field spelled like 0.123_456, which float() reads and NumPy's loadtxt does not
    rng = np.random.default_rng(12)
    nodes = rng.random((20, 2))
    table = np.column_stack([nodes, np.sin(3.0 * nodes[:, 0]) + nodes[:, 1] ** 2])
    fields = [f"{v:.6f}" for v in table.ravel()]
    spelled = [f"{f[:-3]}_{f[-3:]}" for f in fields]
    rows = (",".join(spelled[i:i + 3]) + "\n" for i in range(0, len(spelled), 3))
    Path(path).write_text("x1,x2,value\n" + "".join(rows))


def _dump(path: str, doc) -> None:
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


# ---------------------------------------------------------------------------
# library runs: each writes its results into the working directory

def _cardinal_values() -> int:
    pts = sample(unit_box(2), Uniform(), 15, 21)
    queries = np.random.default_rng(22).random((30, 2))
    Path("cardinal.bin").write_bytes(cardinal_values(pts, ThinPlateSpline(1), 1.0, queries).tobytes())
    return 0


def _custom_density() -> int:
    density = CustomDensity(fn=lambda p: np.exp(-np.sum((p - 0.5) ** 2, axis=1)), bound=1.0)
    report = monte_carlo(ThinPlateSpline(1), unit_box(2), density, [6, 12], 8, 23)
    Path("report.json").write_text(report.to_json() + "\n")
    Path("records.csv").write_text(report.records_csv())
    return 0


def _growth(kernel, domain, density, n_max: int, seed: int):
    def run() -> int:
        _dump("growth.json", incremental_growth(kernel, domain, density, n_max, seed).to_dict())
        return 0
    return run


def _scale_api(degree):
    def run() -> int:
        pts = sample(unit_box(2), Uniform(), 20, 33)
        values = np.cos(pts.points[:, 1])
        report = scale_invariance_check(pts, values, ThinPlateSpline(1), (0.25, 1.0, 4.0),
                                        degree=degree)
        _dump("scale.json", report.to_dict())
        return 0
    return run


def _solve_singular_messages() -> int:
    sphere = sphere_counterexample(2, 5)
    pair = PointSet.from_array([[0.0, 0.0], [1.0, 0.0]])
    calls = (
        lambda: solve_unaugmented(sphere, np.ones(5), ThinPlateSpline(1)),
        lambda: solve_augmented(pair, [1.0, 2.0], ThinPlateSpline(1), degree=0),
        lambda: cardinal_values(sphere, ThinPlateSpline(1), 1.0, np.array([[0.5, 0.5]])),
    )
    messages = []
    for call in calls:
        try:
            call()
        except SingularSystemError as exc:
            messages.append(str(exc))
    _dump("messages.json", messages)
    return 0


def _points_csv_round_trip() -> int:
    rng = np.random.default_rng(41)
    pts = rng.standard_normal((6, 3))
    pts[0, 0] = -0.0
    pts[1, 1] = 5e-324
    pts[2, 2] = 1e300
    pts[3, 0] = 7.0
    values = rng.standard_normal(6)
    values[4] = -0.0
    write_points_csv("first.csv", pts, values)
    read_back, read_values = read_points_csv("first.csv")
    write_points_csv("second.csv", read_back, read_values)
    write_points_csv("points_only.csv", read_back)
    return 0


def _model_reload() -> int:
    _data_csv()
    code = cli.main(["interp", "--kernel", "tps:k=1", "--augment", "poly",
                     "--points", "data.csv", "--out", "model.json"])
    model = InterpolationModel.from_dict(json.loads(Path("model.json").read_text()))
    queries = np.random.default_rng(42).random((50, 2))
    Path("reloaded.bin").write_bytes(evaluate(model, queries).tobytes())
    _dump("reloaded.json", model.to_dict())
    return code


# ---------------------------------------------------------------------------
# run table: name -> (input writer or None, argv list or library callable)

FIELD_GRID = "--grid=-1.5,1.5,-1.5,1.5,128,128"

RUNS = {
    "cardinal_values": (None, _cardinal_values),
    "ce_rp": (None, ["counterexample", "--dim", "3", "--n", "7", "--kernel", "rp:nu=1"]),
    "ce_tps": (None, ["counterexample", "--dim", "2", "--n", "9"]),
    "custom_density": (None, _custom_density),
    "field": (None, ["field", "--kernel", "tps:k=1", "--n", "6", "--seed", "1", FIELD_GRID,
                     "--out", "field.csv", "--svg", "field.svg"]),
    "field_default_grid": (None, ["field", "--kernel", "tps:k=1", "--n", "8", "--seed", "2",
                                  "--out", "field.csv"]),
    "field_singular_base": (_sphere_csv, ["field", "--kernel", "tps:k=1", "--points",
                                          "sphere.csv", "--grid=-2,2,-2,2,9,7",
                                          "--out", "field.csv"]),
    "field_overflow": (None, ["field", "--kernel", "rp:nu=3", "--domain", "box:0,0,1000,1000",
                              "--n", "80", "--seed", "1", "--grid=0,1000,0,1000,3,3",
                              "--out", "f.csv"]),
    "field_schur_overflow": (None, ["field", "--kernel", "rp:nu=3", "--domain", "box:0,0,150,150",
                                    "--n", "80", "--seed", "1", "--grid=0,150,0,150,4,4",
                                    "--out", "f.csv"]),
    "field_singular_base_svg": (_sphere_csv, ["field", "--kernel", "tps:k=1", "--points",
                                              "sphere.csv", "--grid=-2,2,-2,2,9,7",
                                              "--out", "field.csv", "--svg", "field.svg"]),
    "field_svg": (None, ["field", "--kernel", "rp:nu=1.5", "--n", "10", "--seed", "3",
                         "--grid=0,1,0,1,17,13", "--out", "field.csv", "--svg", "field.svg"]),
    "growth_rp15_120": (None, _growth(RadialPower(1.5), unit_box(3), Uniform(), 120, 4)),
    "growth_tps1_200": (None, _growth(ThinPlateSpline(1), unit_box(2), Uniform(), 200, 3)),
    "growth_tps2_gauss_40": (None, _growth(
        ThinPlateSpline(2), Ball(center=(0.0, 0.0), radius=1.0),
        TruncatedGaussian(mean=(0.0, 0.0), sd=(0.5, 0.5)), 40, 5)),
    "interp_aug": (_data_csv, ["interp", "--kernel", "tps:k=1", "--augment", "poly",
                               "--points", "data.csv", "--out", "model.json"]),
    "interp_eval": (_interp_eval_inputs, [
        "interp", "--kernel", "tps:k=1", "--augment", "poly", "--points", "nodes.csv",
        "--eval", "queries.csv", "--pred", "pred.csv", "--out", "model.json"]),
    "interp_eval_1025": (lambda: _interp_eval_inputs(825), [
        "interp", "--kernel", "tps:k=1", "--augment", "poly", "--points", "nodes.csv",
        "--eval", "queries.csv", "--pred", "pred.csv", "--out", "model.json"]),
    "interp_float_only_spellings": (_underscored_csv, [
        "interp", "--kernel", "rp:nu=1.5", "--points", "spelled.csv", "--eval", "spelled.csv",
        "--pred", "pred.csv"]),
    "interp_plain": (_data_csv, ["interp", "--kernel", "rp:nu=1.5", "--points", "data.csv"]),
    "interp_plain_pred": (_data_csv, ["interp", "--kernel", "rp:nu=1.5", "--points", "data.csv",
                                      "--eval", "data.csv", "--pred", "pred.csv"]),
    "interp_singular": (_sphere_csv, ["interp", "--kernel", "tps:k=1", "--points", "sphere.csv"]),
    "interp_singular_aug": (_sphere_csv, ["interp", "--kernel", "tps:k=1", "--augment", "poly",
                                          "--points", "sphere.csv"]),
    "interp_singular_saddle": (_unit_pair_csv, ["interp", "--kernel", "tps:k=1", "--augment",
                                                "poly:0", "--points", "pair.csv"]),
    "model_reload": (None, _model_reload),
    "points_csv_round_trip": (None, _points_csv_round_trip),
    "scale_api_deg1": (None, _scale_api(1)),
    "scale_api_degNone": (None, _scale_api(None)),
    "scale_rp": (None, ["scale-check", "--kernel", "rp:nu=1.5", "--eps", "0.5,1,2",
                        "--dim", "2", "--n", "20", "--seed", "4"]),
    "scale_singular": (_sphere_csv, ["scale-check", "--kernel", "tps:k=1", "--eps", "1,2",
                                     "--points", "sphere.csv"]),
    "scale_tps_aug": (_data_csv, ["scale-check", "--kernel", "tps:k=1", "--augment", "poly:1",
                                  "--eps", "0.25,1,4", "--points", "data.csv"]),
    "scale_tps_plain": (_data_csv, ["scale-check", "--kernel", "tps:k=1", "--eps", "0.25,1,4",
                                    "--points", "data.csv"]),
    "scale_tps_plain_sampled": (None, ["scale-check", "--kernel", "tps:k=1", "--eps", "0.5,2",
                                       "--dim", "2", "--n", "15", "--seed", "5"]),
    "solve_singular_messages": (None, _solve_singular_messages),
    "verify_ball": (None, ["verify", "--kernel", "tps:k=1", "--domain", "ball:0,0,1",
                           "--n", "5,10", "--trials", "10", "--seed", "6",
                           "--out", "report.json", "--csv", "records.csv"]),
    "verify_dim8": (None, ["verify", "--kernel", "tps:k=1", "--dim", "8", "--n", "6,14",
                           "--trials", "5", "--seed", "9", "--out", "report.json",
                           "--csv", "records.csv"]),
    "verify_exit2": (None, ["verify", "--kernel", "tps:k=1", "--dim", "2", "--n", "4",
                            "--trials", "3", "--seed", "7", "--tau", "0.5"]),
    "verify_gauss_t2": (None, ["verify", "--kernel", "rp:nu=1", "--dim", "2",
                               "--density", "gauss:mu=0.5,sd=0.2", "--n", "8,16",
                               "--trials", "12", "--seed", "8", "--threads", "2",
                               "--csv", "records.csv"]),
    "verify_large": (None, ["verify", "--kernel", "rp:nu=1.5", "--dim", "3",
                            "--density", "gauss:mu=0.5,sd=0.25", "--n", "400,800",
                            "--trials", "4", "--threads", "2", "--seed", "1",
                            "--out", "report.json", "--csv", "records.csv"]),
    "verify_small": (None, ["verify", "--kernel", "tps:k=1", "--dim", "2", "--n", "5,20,50,100",
                            "--trials", "200", "--threads", "1", "--seed", "1",
                            "--out", "report.json", "--csv", "records.csv"]),
}


def _digests(stdout: str, stderr: str, directory: Path) -> tuple[str, list]:
    # the run's combined digest and a (name, digest) pair per output
    sha = hashlib.sha256()
    parts = [("<stdout>", stdout.encode()), ("<stderr>", stderr.encode())]
    parts += [(p.name, p.read_bytes()) for p in sorted(directory.iterdir())]
    for name, data in parts:
        sha.update(f"{name}\0{len(data)}\0".encode())
        sha.update(data)
    return sha.hexdigest(), [(name, hashlib.sha256(data).hexdigest()) for name, data in parts]


def run(name: str) -> tuple[int | str, str, list]:
    """Exit code, combined digest and per-output digests of one run.

    The run executes in a fresh temporary directory.  A run that raises
    reports the exception's class name in place of the exit code, and its
    message joins stderr.
    """
    inputs, action = RUNS[name]
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            if inputs is not None:
                inputs()
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(action) if isinstance(action, list) else action()
                except Exception as exc:  # a crash is an outcome too: name it, hash its message
                    code = type(exc).__name__
                    print(f"{code}: {exc}", file=sys.stderr)
            return (code, *_digests(out.getvalue(), err.getvalue(), Path(workdir)))
        finally:
            os.chdir(home)


def main(names=None) -> int:
    os.environ.pop("RBF_SEED", None)  # every seeded run passes --seed
    for name in names or sorted(RUNS):
        code, digest, parts = run(name)
        print(f"{name} {code} {digest}", flush=True)
        for part, part_digest in parts:
            print(f"{name} {part} {part_digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
