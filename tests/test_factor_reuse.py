"""One LU factorization and one assembly per matrix, with unchanged bits."""

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from oracles import fresh_growth, fresh_kernel_conditions, summed_sign_logabs
from polyharm import (
    BorderedSystem,
    RadialPower,
    ThinPlateSpline,
    Uniform,
    assemble,
    cardinal_values,
    diagnostics,
    incremental_growth,
    sample,
    scale_invariance_check,
    solve_augmented,
    solve_unaugmented,
    sphere_counterexample,
    unit_box,
    write_points_csv,
)
import polyharm
from polyharm import _linalg


def random_points(n, d, seed):
    return sample(unit_box(d), Uniform(), n, seed)


def counting(monkeypatch, original):
    """Replace original at every polyharm module attribute bound to it.

    Returns the list that receives one entry per call.
    """
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "polyharm" or name.startswith("polyharm."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    return calls


def test_each_solve_factorizes_its_matrix_once(monkeypatch):
    lu_calls = counting(monkeypatch, _linalg.lu_factorize)
    pts = random_points(15, 2, 31)
    values = np.sin(pts.points[:, 0])
    kernel = ThinPlateSpline(1)
    runs = [
        lambda: solve_unaugmented(pts, values, kernel),
        lambda: solve_augmented(pts, values, kernel),
        lambda: cardinal_values(pts, kernel, 1.0, random_points(7, 2, 32).points),
        lambda: BorderedSystem(assemble(pts, kernel)),
    ]
    for run in runs:
        lu_calls.clear()
        run()
        assert len(lu_calls) == 1


def test_incremental_growth_assembles_each_prefix_once(monkeypatch):
    assemble_calls = counting(monkeypatch, assemble)
    n_max = 12
    incremental_growth(RadialPower(1.5), unit_box(2), Uniform(), n_max, 5)
    assert len(assemble_calls) == n_max


@pytest.mark.parametrize("kernel, d, n_max, seed", [
    (ThinPlateSpline(1), 2, 200, 3),
    (RadialPower(1.5), 3, 120, 4),
])
def test_incremental_growth_matches_fresh_factorizations(kernel, d, n_max, seed):
    report = incremental_growth(kernel, unit_box(d), Uniform(), n_max, seed)
    reference = fresh_growth(kernel, unit_box(d), Uniform(), n_max, seed)
    # json.dumps writes every float exactly, -0.0 and infinities included
    assert json.dumps(report.to_dict()) == json.dumps(reference.to_dict())
    if isinstance(kernel, ThinPlateSpline):
        # the run reaches sizes whose determinant underflows to 0.0
        assert any(step.det_next == 0.0 for step in report.steps)


@pytest.mark.parametrize("kernel, degree", [
    (ThinPlateSpline(1), None),
    (ThinPlateSpline(1), 1),
    (RadialPower(1.5), None),
])
def test_scale_check_conditions_match_fresh_diagnostics(kernel, degree):
    pts = random_points(20, 2, 33)
    values = np.cos(pts.points[:, 1])
    scales = (0.25, 1.0, 4.0)
    report = scale_invariance_check(pts, values, kernel, scales, degree=degree)
    reference = fresh_kernel_conditions(pts, kernel, scales)
    assert [c.hex() for c in report.conditions] == [c.hex() for c in reference]


@pytest.mark.parametrize("degree", [None, 1])
def test_scale_check_assembles_once_per_scale(monkeypatch, degree):
    assemble_calls = counting(monkeypatch, assemble)
    pts = random_points(20, 2, 35)
    scale_invariance_check(pts, np.sin(pts.points[:, 0]), ThinPlateSpline(1),
                           (0.25, 1.0, 4.0), degree=degree)
    assert len(assemble_calls) == 3


@pytest.mark.parametrize("queries, message", [
    (np.zeros((3, 3)), r"^queries of shape \(3, 3\) are not 2-d points$"),
    (np.zeros((0, 2)), r"^scale invariance needs at least one query point$"),
], ids=["wrong_dimension", "empty"])
def test_scale_check_rejects_queries_before_assembling(monkeypatch, queries, message):
    assemble_calls = counting(monkeypatch, assemble)
    pts = random_points(20, 2, 37)
    with pytest.raises(ValueError, match=message):
        scale_invariance_check(pts, np.sin(pts.points[:, 0]), ThinPlateSpline(1),
                               (0.25, 1.0, 4.0), queries=queries)
    assert assemble_calls == []


@pytest.mark.parametrize("degree", [None, 1])
def test_scale_check_factorizes_once_per_scale(monkeypatch, degree):
    lu_calls = counting(monkeypatch, _linalg.lu_factorize)
    pts = random_points(20, 2, 36)
    scale_invariance_check(pts, np.sin(pts.points[:, 0]), ThinPlateSpline(1),
                           (0.25, 1.0, 4.0), degree=degree)
    # the augmented check reads the kernel matrix's condition from its spectrum alone
    assert len(lu_calls) == 3


@pytest.mark.parametrize("nodes, augment, dead", [
    (sphere_counterexample(2, 5).points, [], "[0]"),
    # two nodes at distance 1: the kernel block of the saddle matrix is all zeros
    (np.array([[0.0, 0.0], [1.0, 0.0]]), ["--augment", "poly:0"], "[0, 1]"),
])
def test_interp_singular_exit_assembles_once(monkeypatch, run_cli, tmp_path, nodes, augment,
                                             dead):
    data = tmp_path / "nodes.csv"
    write_points_csv(data, nodes, np.ones(len(nodes)))
    assemble_calls = counting(monkeypatch, assemble)
    code, _, err = run_cli(["interp", "--kernel", "tps:k=1", *augment, "--points", str(data)])
    assert code == 2
    assert len(assemble_calls) == 1
    assert err.endswith(f"zero row(s) at node index {dead}\n")


def test_diagnostics_keep_factors_out_of_equality_and_output():
    matrix = assemble(random_points(10, 2, 34), ThinPlateSpline(1)).entries
    diag = diagnostics(matrix)
    assert diag.lu_piv is not None
    assert diag == diagnostics(matrix.copy())
    assert hash(diag) == hash(diagnostics(matrix.copy()))
    assert "lu_piv" not in repr(diag)
    assert "lu_piv" not in diag.to_dict() and "lu_piv" not in diag.describe()


def crafted_lus():
    """(lu, piv) pairs with a zero pivot, odd and even swap counts and negative pivots."""
    rng = np.random.default_rng(41)
    upper = np.triu(rng.standard_normal((6, 6)) * 10.0 ** rng.integers(-200, 200, (6, 6)))
    yield upper, np.arange(6, dtype=np.int32)  # no swaps
    for pivots in ([1, 1, 2, 3, 4, 5], [1, 0, 3, 2, 4, 5], [5, 4, 3, 3, 4, 5],
                   [2, 2, 2, 5, 5, 5]):  # 1, 4, 3 and 4 row swaps
        piv = np.array(pivots, dtype=np.int32)
        for negatives in ([], [0], [0, 3], [1, 2, 5], list(range(6))):
            lu = upper.copy()
            np.fill_diagonal(lu, np.abs(np.diag(lu)))
            lu[negatives, negatives] *= -1.0
            yield lu, piv
            for zero in (0, 5):
                dead = lu.copy()
                dead[zero, zero] = 0.0 if negatives else -0.0
                yield dead, piv
    for _ in range(20):
        yield _linalg.lu_factorize(rng.standard_normal((7, 7)))


def test_sign_logabs_keeps_the_summed_bits():
    seen = set()
    for lu, piv in crafted_lus():
        got = _linalg._sign_logabs(lu, piv)
        want = summed_sign_logabs(lu, piv)
        assert got[0] == want[0] and type(got[0]) is int
        assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()
        seen.add(got[0])
    assert seen == {-1, 0, 1}


def stored_lu(n=40, seed=42):
    matrix = assemble(random_points(n, 3, seed), RadialPower(1.5)).entries
    return matrix, diagnostics(matrix).lu_piv


def test_stored_lu_solve_has_the_bits_of_scipy_lu_solve():
    matrix, lu_piv = stored_lu()
    rng = np.random.default_rng(43)
    # a 1-d right-hand side, and the F-ordered transpose that cardinal_values passes
    for rhs in (rng.standard_normal(40), rng.standard_normal((25, 40)).T):
        want = scipy.linalg.lu_solve(lu_piv, rhs, check_finite=False)
        got = _linalg.lu_solve(lu_piv, rhs)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert rhs.flags.f_contiguous and not rhs.flags.c_contiguous


def run_fresh(script, *path):
    """Run script in a fresh interpreter whose import path starts with path, then polyharm's."""
    src = str(Path(polyharm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [*map(str, path), src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)


@pytest.mark.parametrize("first", ["polyharm", "scipy.linalg"])
def test_lapack_routines_are_the_ones_scipy_linalg_hands_out(first):
    # a fresh interpreter, with scipy.linalg imported after polyharm or before it: one
    # scipy.linalg._flapack module serves both
    script = f"""import importlib, sys
importlib.import_module({first!r})
import numpy as np
import scipy.linalg
from polyharm import _linalg
getrf, getrs = scipy.linalg.get_lapack_funcs(("getrf", "getrs"), dtype=np.float64)
print(getrf is _linalg._getrf, getrs is _linalg._getrs,
      sys.modules["scipy.linalg._flapack"] is _linalg._flapack)
"""
    done = run_fresh(script)
    assert (done.returncode, done.stdout) == (0, "True True True\n"), done.stderr


def test_lapack_extension_load_falls_back_to_the_scipy_package():
    # the bare load of the extension raises ImportError once, as on a Windows wheel whose DLL
    # directory only scipy/__init__.py adds: _linalg imports scipy and loads it again
    script = """import sys
from importlib.machinery import ExtensionFileLoader

create = ExtensionFileLoader.create_module
failed = []


def create_or_fail_once(self, spec):
    if spec.name == "scipy.linalg._flapack" and not failed:
        failed.append("scipy" in sys.modules)
        raise ImportError("DLL load failed while importing _flapack")
    return create(self, spec)


ExtensionFileLoader.create_module = create_or_fail_once
from polyharm import _linalg

print(failed, "scipy" in sys.modules, sys.modules["scipy.linalg._flapack"] is _linalg._flapack,
      _linalg.lu_sign_logabs([[0.0, 2.0], [3.0, 0.0]]))
"""
    done = run_fresh(script)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[False] True True (-1, 1.791759469228055)\n"


@pytest.mark.parametrize("scipy_dir", [False, True])
def test_lapack_extension_missing_is_one_import_error(tmp_path, scipy_dir):
    # no scipy at all, or a scipy whose linalg directory has no _flapack: importing polyharm
    # fails with one ImportError, and the stand-in package's __init__ never runs
    if scipy_dir:
        (tmp_path / "scipy" / "linalg").mkdir(parents=True)
        (tmp_path / "scipy" / "__init__.py").write_text("raise AssertionError('ran')\n")
        (tmp_path / "scipy" / "linalg" / "__init__.py").write_text("")
        script, want = "import polyharm", "has no LAPACK extension scipy.linalg._flapack"
    else:
        script = "import sys\nsys.modules['scipy'] = None\nimport polyharm"
        want = "no scipy package is installed"
    done = run_fresh(script, tmp_path)
    assert done.returncode == 1
    errors = [line for line in done.stderr.splitlines() if not line.startswith(" ")]
    assert errors[0] == "Traceback (most recent call last):" and len(errors) == 2
    assert errors[1].startswith("ImportError: ") and errors[1].endswith(want)


def test_stored_lu_solve_leaves_the_pivots_unchanged():
    matrix, lu_piv = stored_lu()
    piv = lu_piv[1]
    before = piv.copy()
    _linalg.lu_solve(lu_piv, np.ones(40))
    _linalg.lu_solve_refined(lu_piv, matrix, np.ones((40, 3)))
    assert piv.dtype == before.dtype and piv.tobytes() == before.tobytes()


def test_refined_solve_bits_from_threads_sharing_one_lu_piv():
    # SciPy's getrs wrapper shifts the pivots it is given in place while LAPACK runs
    # without the GIL: every solve passes its own copy
    matrix, lu_piv = stored_lu(seed=44)
    rhs = list(np.random.default_rng(45).standard_normal((100, 40))) * 20
    expected = np.array([_linalg.lu_solve_refined(lu_piv, matrix, b) for b in rhs])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in (1, 2, 4):
            with ThreadPoolExecutor(max_workers=threads) as pool:
                got = np.array(list(pool.map(
                    lambda b: _linalg.lu_solve_refined(lu_piv, matrix, b), rhs, timeout=60)))
            assert got.tobytes() == expected.tobytes(), threads
    finally:
        sys.setswitchinterval(interval)
