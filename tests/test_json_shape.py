"""The exact JSON shape of the result classes and the exported names.

Output bytes depend on key order, which dict equality ignores, so the key
order of every to_dict() is pinned here.
"""

import json
import re
from pathlib import Path

import numpy as np

import polyharm
from polyharm import (
    Ball,
    CustomDensity,
    RadialPower,
    ThinPlateSpline,
    TruncatedGaussian,
    Uniform,
    diagnostics,
    incremental_growth,
    monte_carlo,
    sample,
    scale_invariance_check,
    unit_box,
)

RECORD_KEYS = ["n", "trial", "det_sign", "log_abs_det", "sigma_min", "sigma_max",
               "condition", "min_pairwise_distance"]
AGGREGATE_KEYS = ["n", "failures", "failure_rate", "min_sigma_ratio", "max_condition"]
STEP_KEYS = ["n", "f_value", "f_abs", "det_next", "rel_disagreement", "cond_base", "flagged"]

EXPORTED = {
    "MatrixDiagnostics", "SingularSystemError", "diagnostics", "lu_sign_logabs",
    "Ball", "Box", "ConstructionError", "CustomDensity", "Density", "Domain", "PointSet",
    "SamplingError", "TruncatedGaussian", "Uniform", "cross_distance_matrix",
    "make_rng", "mix_seed", "pairwise_distance_matrix",
    "read_points_csv", "sample", "sphere_counterexample", "unit_box", "write_points_csv",
    "AugmentationRankError", "InterpMatrix", "InterpolationModel", "PolynomialTail",
    "ScaleInvarianceReport", "assemble", "cardinal_values", "default_query_points",
    "evaluate", "monomial_matrix", "scale_invariance_check",
    "solve_augmented", "solve_unaugmented",
    "Kernel", "RadialPower", "ThinPlateSpline", "kernel_spec", "parse_kernel",
    "BorderedSystem", "CSV_HEADER", "GrowthReport", "GrowthStep", "SizeAggregate",
    "TrialRecord", "UnisolvenceReport", "det3_null_diag", "incremental_growth",
    "monte_carlo",
    "__version__",
}


def test_domain_and_density_key_order():
    assert unit_box(2).to_dict() == {"shape": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]}
    assert list(unit_box(2).to_dict()) == ["shape", "lower", "upper"]
    ball = Ball(center=(0.5, 0.5), radius=2.0).to_dict()
    assert list(ball.items()) == [("shape", "ball"), ("center", [0.5, 0.5]), ("radius", 2.0)]
    assert Uniform().to_dict() == {"kind": "uniform"}
    gauss = TruncatedGaussian(mean=(0.5,), sd=(0.25,)).to_dict()
    assert list(gauss.items()) == [("kind", "truncated-gaussian"), ("mean", [0.5]),
                                   ("sd", [0.25])]
    custom = CustomDensity(fn=lambda x: np.ones(len(x)), bound=2.0).to_dict()
    assert list(custom.items()) == [("kind", "custom"), ("bound", 2.0)]


def test_diagnostics_key_order():
    doc = diagnostics(np.array([[0.0, 1.0], [1.0, 0.0]])).to_dict()
    assert list(doc) == ["det_sign", "log_abs_det", "sigma_min", "sigma_max", "condition",
                         "singular_verdict", "rel_threshold"]


def test_scale_invariance_report_key_order():
    points = sample(unit_box(2), Uniform(), 8, 3)
    values = np.arange(8.0)
    doc = scale_invariance_check(points, values, ThinPlateSpline(1), [0.5, 2.0],
                                 degree=1).to_dict()
    assert list(doc) == ["kernel", "eps_list", "degree", "max_rel_deviation", "conditions",
                         "cond_rel_spread", "asserted_bound", "cond_bound", "passed"]
    assert doc["kernel"] == "tps:k=1"
    assert doc["eps_list"] == [0.5, 2.0] and isinstance(doc["conditions"], list)


def test_scale_invariance_report_holds_the_kernel_spec_text():
    # the report names its kernel as the CLI echoes it; a kernel object would serialize as a dict
    report = scale_invariance_check(sample(unit_box(2), Uniform(), 6, 4), np.arange(6.0),
                                    RadialPower(1.5), [1.0, 2.0])
    assert report.kernel == "rp:nu=1.5" and report.to_dict()["kernel"] == "rp:nu=1.5"


def test_unisolvence_report_key_order():
    report = monte_carlo(ThinPlateSpline(1), unit_box(2), Uniform(), [3, 5], 2, 1)
    doc = report.to_dict()
    assert list(doc) == ["config", "aggregates", "records"]
    assert list(doc["config"]) == ["kernel", "epsilon", "dimension", "domain", "density",
                                   "n_list", "trials", "seed", "tau"]
    assert list(report.aggregates[0].to_dict()) == AGGREGATE_KEYS
    assert list(report.records[0].to_dict()) == RECORD_KEYS
    assert [list(a) for a in doc["aggregates"]] == [AGGREGATE_KEYS] * 2
    assert [list(r) for r in doc["records"]] == [RECORD_KEYS] * 4
    assert json.loads(json.dumps(report.to_dict(), indent=2)) == doc


def test_growth_report_key_order():
    report = incremental_growth(ThinPlateSpline(1), unit_box(2), Uniform(), 4, 3)
    doc = report.to_dict()
    assert list(doc) == ["config", "steps", "det_signs"]
    assert list(doc["config"]) == ["kernel", "epsilon", "dimension", "domain", "density",
                                   "n_max", "seed", "tau"]
    assert list(report.steps[0].to_dict()) == STEP_KEYS
    assert [list(s) for s in doc["steps"]] == [STEP_KEYS] * 3
    assert doc["det_signs"] == list(report.det_signs)


def test_exported_names():
    assert len(polyharm.__all__) == len(set(polyharm.__all__))
    assert set(polyharm.__all__) == EXPORTED
    for name in polyharm.__all__:
        assert getattr(polyharm, name) is not None


def readme_entry_point_names():
    """Each backticked Python name in README's "Key entry points" bullets, up to any "(".

    A backticked span that is not a dotted Python name there (a command line) is left out.
    """
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = text.index("Key entry points:")
    section = text[start:text.index("\n## ", start)]
    spans = (span.split("(")[0].strip() for span in re.findall(r"`([^`]+)`", section))
    return [span for span in spans if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", span)]


def test_readme_entry_points_name_attributes_of_the_package():
    names = readme_entry_point_names()
    assert {"ThinPlateSpline.cpd_order", "monomial_matrix", "polyharm._linalg.TAU"} <= set(names)
    for name in names:
        target = polyharm
        for step in name.removeprefix("polyharm.").split("."):
            assert hasattr(target, step), f"README names {name!r}, which polyharm lacks"
            target = getattr(target, step)
