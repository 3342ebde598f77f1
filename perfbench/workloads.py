"""The four benchmark workloads: generated inputs, CLI argv and output oracles.

Each builder takes the benchmark seed and a scratch directory, writes the
inputs there and returns a Workload.  The oracles recompute from scratch
with NumPy (their own distances, kernel values, slogdet, SVD, det and
direct sums) and never call polyharm's distance, kernel, assembly or
linear-algebra code.  Node coordinates the CLI draws itself are regenerated
through polyharm's public sampler (``sample`` with ``mix_seed``
substreams): they are the program's inputs, not the quantity under test.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from polyharm import TruncatedGaussian, Uniform, mix_seed, sample, unit_box


@dataclass
class Workload:
    """One CLI invocation repeated in a closed loop."""

    name: str
    unit: str                    # what throughput counts
    units: int                   # work units per invocation
    argv: list
    outputs: list                # files the invocation writes; hashed with stdout
    check: Callable[[str], list]  # stdout of one invocation -> list of problems
    expected_calls: dict         # span name -> calls per invocation when traced
    same_output_argv: tuple = ()  # argv lists that must give identical bytes


def _tps1(r):
    safe = np.where(r > 0.0, r, 1.0)
    return np.where(r > 0.0, safe * safe * np.log(safe), 0.0)


def _rp15(r):
    return r ** 1.5


def _distances(a, b):
    return np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1))


def _write_csv(path: Path, header: str, rows: np.ndarray) -> None:
    with open(path, "w") as handle:
        handle.write(header + "\n")
        handle.write("".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows))


def _read_csv(path: Path) -> tuple[list, np.ndarray]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], np.array(rows[1:], dtype=float)


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol


# ---------------------------------------------------------------------------
# verify: Monte Carlo nonsingularity runs

def _check_verify(stdout, report, records_csv, kernel_fn, domain, density,
                  n_list, trials, seed, rng) -> list:
    problems = []
    doc = json.loads(stdout)
    if doc["total_failures"] != 0:
        problems.append(f"total_failures = {doc['total_failures']}")
    records = {(r["n"], r["trial"]): r for r in doc["records"]}
    if sorted(records) != [(n, t) for n in n_list for t in range(trials)]:
        problems.append("records do not cover every (n, trial) once")
        return problems
    with open(report) as handle:
        if json.load(handle)["records"] != doc["records"]:
            problems.append("--out report records differ from stdout")
    header, rows = _read_csv(records_csv)
    if header != ["n", "trial", "det_sign", "log_abs_det", "sigma_min", "sigma_max",
                  "condition", "min_dist"] or rows.shape[0] != len(records):
        problems.append("--csv header or row count is wrong")

    # one sampled trial per size, rebuilt and diagnosed by the oracle
    for n in n_list:
        t = int(rng.integers(trials))
        rec = records[(n, t)]
        pts = sample(domain, density, n, mix_seed(seed, n, t)).points
        dist = _distances(pts, pts)
        matrix = kernel_fn(dist)
        sign, log_abs = np.linalg.slogdet(matrix)
        svals = np.linalg.svd(matrix, compute_uv=False)
        # Weyl: rounding in assembly moves any singular value by O(n eps |A|)
        sigma_tol = 1e-14 * n * svals[0]
        condition = svals[0] / svals[-1]
        where = f"trial (n={n}, t={t})"
        if rec["det_sign"] != int(sign):
            problems.append(f"{where}: det_sign {rec['det_sign']} != slogdet sign {sign}")
        if not _close(rec["log_abs_det"], log_abs, 1e-16 * n * condition + 1e-12 * abs(log_abs)):
            problems.append(f"{where}: log_abs_det {rec['log_abs_det']!r} != slogdet {log_abs!r}")
        if not _close(rec["sigma_min"], svals[-1], sigma_tol):
            problems.append(f"{where}: sigma_min {rec['sigma_min']!r} != svd {svals[-1]!r}")
        if not _close(rec["sigma_max"], svals[0], sigma_tol):
            problems.append(f"{where}: sigma_max {rec['sigma_max']!r} != svd {svals[0]!r}")
        min_dist = dist[~np.eye(n, dtype=bool)].min()
        if not _close(rec["min_pairwise_distance"], min_dist, 1e-12 * min_dist):
            problems.append(f"{where}: min distance {rec['min_pairwise_distance']!r} != {min_dist!r}")
    return problems


def _verify(name, seed, workdir, kernel, kernel_fn, dim, density, density_arg,
            n_list, trials, threads) -> Workload:
    report, records_csv = workdir / "report.json", workdir / "records.csv"

    def argv(thread_count):
        out = ["verify", "--kernel", kernel, "--dim", str(dim), "--n", ",".join(map(str, n_list)),
               "--trials", str(trials), "--threads", str(thread_count), "--seed", str(seed),
               "--out", str(report), "--csv", str(records_csv)]
        if density_arg:
            out[5:5] = ["--density", density_arg]
        return out

    rng = np.random.default_rng([seed, 1])
    total = len(n_list) * trials
    return Workload(
        name=name,
        unit="trials",
        units=total,
        argv=argv(threads),
        outputs=[report, records_csv],
        check=lambda stdout: _check_verify(stdout, report, records_csv, kernel_fn,
                                           unit_box(dim), density, n_list, trials, seed, rng),
        expected_calls={"domains.sample": total, "domains.mix_seed": total,
                        "interpolation.assemble": total, "linalg.diagnostics": total,
                        "linalg.lu": total, "unisolvence.monte_carlo": 1},
        same_output_argv=(argv(1),) if threads != 1 else (),
    )


def verify_small(seed: int, workdir: Path) -> Workload:
    """Criterion-1 configuration: many small matrices, fixed costs per trial dominate."""
    return _verify("verify_small", seed, workdir, "tps:k=1", _tps1, 2, Uniform(), None,
                   [5, 20, 50, 100], 200, 1)


def verify_large(seed: int, workdir: Path) -> Workload:
    """Few large matrices in d=3 from rejection sampling: O(n^3) LAPACK dominates."""
    threads = min(2, len(os.sched_getaffinity(0)))
    density = TruncatedGaussian(mean=(0.5,) * 3, sd=(0.25,) * 3)
    return _verify("verify_large", seed, workdir, "rp:nu=1.5", _rp15, 3, density,
                   "gauss:mu=0.5,sd=0.25", [400, 800], 4, threads)


# ---------------------------------------------------------------------------
# interp: fit 200 nodes, evaluate 10^5 queries plus the nodes

INTERP_NODES = 200
INTERP_QUERIES = 100_000


def interp_eval(seed: int, workdir: Path) -> Workload:
    """One small solve, then distance, kernel and CSV work on 10^5 queries."""
    rng = np.random.default_rng([seed, 2])
    nodes = rng.random((INTERP_NODES, 2))
    values = np.sin(2.0 * np.pi * nodes[:, 0]) * np.cos(np.pi * nodes[:, 1]) + nodes[:, 0] ** 2
    queries = np.vstack([rng.random((INTERP_QUERIES, 2)), nodes])
    points_csv, queries_csv = workdir / "nodes.csv", workdir / "queries.csv"
    pred_csv, model_json = workdir / "pred.csv", workdir / "model.json"
    _write_csv(points_csv, "x1,x2,value", np.column_stack([nodes, values]))
    _write_csv(queries_csv, "x1,x2", queries)
    picks = rng.choice(INTERP_QUERIES, size=64, replace=False)

    def check(stdout: str) -> list:
        problems = []
        if json.loads(stdout)["diagnostics"]["singular_verdict"]:
            problems.append("saddle matrix reported singular")
        header, pred = _read_csv(pred_csv)
        if header != ["x1", "x2", "value"] or pred.shape != (queries.shape[0], 3):
            return problems + [f"predictions CSV has header {header} and shape {pred.shape}"]
        if not np.array_equal(pred[:, :2], queries):
            problems.append("prediction coordinates differ from the query file")
        scale = np.abs(values).max()
        err = np.abs(pred[INTERP_QUERIES:, 2] - values).max()
        if err > 1e-11 * scale:
            problems.append(f"predictions at the nodes miss the data by {err!r}")

        with open(model_json) as handle:
            model = json.load(handle)
        coeffs = np.asarray(model["coefficients"])
        tail = np.asarray(model["tail"]["coeffs"])
        if model["tail"]["degree"] != 1 or not np.array_equal(np.asarray(model["points"]), nodes):
            problems.append("model JSON does not hold the degree-1 tail over the input nodes")
            return problems
        q = queries[picks]
        terms = _tps1(_distances(q, nodes)) * coeffs
        monomials = np.column_stack([np.ones(len(q)), q]) * tail  # graded lex: 1, x1, x2
        direct = terms.sum(axis=1) + monomials.sum(axis=1)
        bound = 1e-13 * (np.abs(terms).sum(axis=1) + np.abs(monomials).sum(axis=1))
        bad = np.flatnonzero(np.abs(pred[picks, 2] - direct) > bound)
        if bad.size:
            problems.append(f"{bad.size} sampled queries differ from the direct coefficient sum")
        return problems

    return Workload(
        name="interp_eval",
        unit="queries",
        units=queries.shape[0],
        argv=["interp", "--kernel", "tps:k=1", "--augment", "poly", "--points", str(points_csv),
              "--eval", str(queries_csv), "--pred", str(pred_csv), "--out", str(model_json)],
        outputs=[model_json, pred_csv],
        check=check,
        expected_calls={"domains.read_points_csv": 2, "domains.write_points_csv": 1,
                        "interpolation.solve": 1, "interpolation.evaluate": 1,
                        "interpolation.assemble": 1, "linalg.diagnostics": 1},
    )


# ---------------------------------------------------------------------------
# field: bordered determinant over a planar lattice

FIELD_NODES = 6
FIELD_SIDE = 128
FIELD_BOX = (-1.5, 1.5, -1.5, 1.5)


def field(seed: int, workdir: Path) -> Workload:
    """One Python-level bordered solve per lattice point, plus CSV and SVG output."""
    field_csv, field_svg = workdir / "field.csv", workdir / "field.svg"
    x0, x1, y0, y1 = FIELD_BOX
    xs = np.linspace(x0, x1, FIELD_SIDE)
    ys = np.linspace(y0, y1, FIELD_SIDE)
    picks = np.random.default_rng([seed, 3]).choice(FIELD_SIDE * FIELD_SIDE, 64, replace=False)

    def check(stdout: str) -> list:
        problems = []
        header, rows = _read_csv(field_csv)
        if header != ["x", "y", "value"] or rows.shape != (FIELD_SIDE * FIELD_SIDE, 3):
            return [f"field CSV has header {header} and shape {rows.shape}"]
        gx, gy = np.meshgrid(xs, ys, indexing="ij")  # x-major rows
        if not (np.array_equal(rows[:, 0], gx.ravel()) and np.array_equal(rows[:, 1], gy.ravel())):
            problems.append("field CSV lattice coordinates are wrong")
        summary = json.loads(stdout)["summary"]
        if summary["min_value"] != rows[:, 2].min() or summary["max_value"] != rows[:, 2].max():
            problems.append("stdout min/max disagree with the CSV")

        nodes = sample(unit_box(2), Uniform(), FIELD_NODES, seed).points
        base = _tps1(_distances(nodes, nodes))
        scale = np.abs(rows[:, 2]).max()
        for k in picks:
            border = _tps1(_distances(rows[k, None, :2], nodes))[0]
            bordered = np.block([[base, border[:, None]], [border[None, :], np.zeros((1, 1))]])
            want = np.linalg.det(bordered)
            if not _close(rows[k, 2], want, 1e-12 * scale):
                problems.append(f"lattice point {k}: {rows[k, 2]!r} != det {want!r}")
        return problems

    grid = ",".join(repr(float(v)) for v in FIELD_BOX) + f",{FIELD_SIDE},{FIELD_SIDE}"
    return Workload(
        name="field",
        unit="lattice points",
        units=FIELD_SIDE * FIELD_SIDE,
        argv=["field", "--kernel", "tps:k=1", "--n", str(FIELD_NODES), "--seed", str(seed),
              f"--grid={grid}", "--out", str(field_csv), "--svg", str(field_svg)],
        outputs=[field_csv, field_svg],
        check=check,
        expected_calls={"unisolvence.BorderedSystem.determinant": FIELD_SIDE * FIELD_SIDE,
                        "unisolvence.BorderedSystem.grid": 1, "domains.sample": 1,
                        "interpolation.assemble": 1},
    )


BUILDERS = {
    "verify_small": verify_small,
    "verify_large": verify_large,
    "interp_eval": interp_eval,
    "field": field,
}
