"""Checks of the benchmark itself: span coverage, span counts and oracles.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.bootstrap()

import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced invocation of every workload: (workloads, calls, per-layer rows)."""
    tracer = tracing.Tracer()
    built, calls = {}, {}
    tracer.install()
    try:
        for i, name in enumerate(run.WORKLOADS):
            built[name] = workloads.BUILDERS[name](1, tmp_path_factory.mktemp(name))
            tracer.iteration = i
            calls[name] = run.invoke(built[name].argv, built[name].outputs, tracer)
            tracer.iteration = None
    finally:
        tracer.uninstall()
    rows = tracing.layers_by_iteration(tracer)
    return built, calls, {name: rows[i] for i, name in enumerate(run.WORKLOADS)}


def test_every_import_site_is_wrapped_then_restored():
    tracer = tracing.Tracer()
    sites = tracer.install()
    try:
        assert tracing.unwrapped_sites(tracer.originals) == []
    finally:
        tracer.uninstall()
    # cli, interpolation, unisolvence and the package bind the functions by name
    restored = tracing.unwrapped_sites(tracer.originals)
    assert len(restored) == sites
    for site in ("polyharm.cli.sample", "polyharm.unisolvence.assemble",
                 "polyharm.interpolation.cross_distance_matrix", "polyharm.diagnostics",
                 "polyharm.kernels.ThinPlateSpline.value_scaled"):
        assert site in restored


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_invocation_succeeds_with_shape_implied_span_counts(traced, name):
    built, calls, rows = traced
    assert calls[name].error == ""
    for span, want in built[name].expected_calls.items():
        assert rows[name].get(f"{span}.calls", 0) == want, span


def test_span_counts_named_by_the_workload_shapes(traced):
    _, _, rows = traced
    for span in ("domains.sample", "interpolation.assemble", "linalg.diagnostics"):
        assert rows["verify_small"][f"{span}.calls"] == 4 * 200
    side = workloads.FIELD_SIDE
    assert rows["field"]["unisolvence.BorderedSystem.determinant.calls"] == side * side


def test_every_declared_layer_metric_is_produced(traced):
    _, _, rows = traced
    produced = set().union(*(row.keys() for row in rows.values()))
    declared = set(run.declared_metrics()["per_layer"]) - {"trace.overhead_s"}
    assert declared <= produced


def test_output_checks_pass_on_the_program_output(traced):
    built, calls, _ = traced
    for name in run.WORKLOADS:
        assert built[name].check(calls[name].stdout) == [], name


def test_verify_oracle_rejects_a_perturbed_determinant(traced):
    built, calls, _ = traced
    doc = json.loads(calls["verify_small"].stdout)
    for record in doc["records"]:
        record["log_abs_det"] += 1e-6
    problems = built["verify_small"].check(json.dumps(doc))
    assert any("log_abs_det" in p for p in problems)


def test_field_oracle_rejects_perturbed_values(traced):
    built, calls, _ = traced
    path = built["field"].outputs[0]
    header, rows = workloads._read_csv(path)
    rows[:, 2] *= 1.0 + 1e-6
    workloads._write_csv(path, ",".join(header), rows)
    problems = built["field"].check(calls["field"].stdout)
    assert any("lattice point" in p for p in problems)
