"""The row-blocked minimum distance is the distance matrix's own minimum, bit for bit."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyharm
from polyharm import PointSet, domains, pairwise_distance_matrix

# a few lattice steps and mixed-scale reals
COORDINATES = st.one_of(
    st.integers(-3, 3).map(float),
    st.integers(-3, 3).map(lambda k: 0.1 * k),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def point_arrays(draw):
    n, d = draw(st.integers(1, 60)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        # coordinates drawn from a small pool: lattice ties on every axis, and duplicates
        pool = np.array(draw(st.lists(COORDINATES, min_size=1, max_size=6)))
        pts = pool[rng.integers(0, pool.size, (n, d))]
    else:
        pts = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-6, 7, (n, d))
    if draw(st.booleans()):
        # one wide axis on which all points but the first share one coordinate
        axis = draw(st.integers(0, d - 1))
        pts[:, axis] = draw(COORDINATES)
        pts[0, axis] += 1e7
    for source, target in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                                  st.integers(0, n - 1)), max_size=3)):
        pts[target] = pts[source]
    return pts


@settings(max_examples=1000, deadline=None, database=None)
@given(point_arrays())
def test_sweep_equals_the_matrix_minimum_bitwise(pts):
    got = PointSet(pts).min_pairwise_distance
    n = pts.shape[0]
    if n == 1:
        assert got == math.inf
        return
    want = pairwise_distance_matrix(pts)[~np.eye(n, dtype=bool)].min()
    assert np.float64(got).tobytes() == want.tobytes()


def test_lattice_ties_and_duplicates():
    grid = np.array([[i, j, k] for i in range(4) for j in range(5) for k in range(3)], float)
    assert PointSet(0.25 * grid).min_pairwise_distance == 0.25
    assert PointSet(np.vstack([grid, grid[7]])).min_pairwise_distance == 0.0
    # every point on the widest axis shares one coordinate but the last
    column = np.zeros((50, 2))
    column[:, 1] = np.arange(50.0) * 0.5
    column[-1, 0] = 100.0
    assert PointSet(column).min_pairwise_distance == 0.5


def _matrix_minimum(pts):
    return pairwise_distance_matrix(pts)[~np.eye(len(pts), dtype=bool)].min()


def test_blocked_minimum_across_block_boundaries(monkeypatch):
    blocks = []
    original = domains.cross_distance_matrix

    def counted(a, b, out=None):
        blocks.append(len(a))
        return original(a, b, out)

    monkeypatch.setattr(domains, "cross_distance_matrix", counted)
    rng = np.random.default_rng(91)
    # n - 1 points on the line x = 0 and one far away: every gap on the widest axis is 0
    line = np.column_stack([np.zeros(800), rng.random(800)])
    line[-1] = (100.0, 0.5)
    spread = [rng.standard_normal((n, d)) for n, d in ((800, 3), (200, 2), (37, 8), (50, 1))]
    for pts in [line] + spread:
        want = _matrix_minimum(pts)
        blocks.clear()
        got = PointSet(pts).min_pairwise_distance
        assert np.float64(got).tobytes() == want.tobytes()
        # every row but the last is compared once with the rows after it
        assert sum(blocks) == len(pts) - 1
    # n - 1 points on the plane x = 0 in 3-d, and blocks of a single row
    plane = np.column_stack([np.zeros(120), rng.random((120, 2))])
    plane[0, 0] = 50.0
    monkeypatch.setattr(domains, "_CHUNK_ENTRIES", 100)
    for pts in (plane, np.vstack([line[:149], line[-1]])):
        want = _matrix_minimum(pts)
        blocks.clear()
        got = PointSet(pts).min_pairwise_distance
        assert np.float64(got).tobytes() == want.tobytes()
        assert len(blocks) > 1 and sum(blocks) == len(pts) - 1


@pytest.mark.parametrize("n", [2, 9, 10, 100, 800])
def test_memory_is_a_few_blocks_at_any_n(n):
    # n - 1 points on the line x = 0 and one far away; the corner mask holds at most (n - 1)**2
    pts = np.column_stack([np.zeros(n), np.arange(n, dtype=float)])
    pts[-1, 0] = 1e6
    want = _matrix_minimum(pts)
    tracemalloc.start()
    try:
        got = PointSet(pts).min_pairwise_distance
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.float64(got).tobytes() == want.tobytes()
    assert peak <= 3 * domains._CHUNK_ENTRIES * 8


def test_no_scipy_spatial_linalg_or_xml_stack_module_is_loaded(tmp_path):
    # a fresh interpreter: this process may have imported these modules elsewhere.
    # _linalg loads SciPy's LAPACK extension alone, without even the scipy package's __init__;
    # the SVG is escaped without xml.sax, which brings urllib.request, http.client and ssl
    # along, and without html; concurrent.futures is loaded only to start a verify pool
    rng = np.random.default_rng(5)
    np.savetxt(tmp_path / "nodes.csv", np.column_stack([rng.random((9, 2)), rng.random(9)]),
               delimiter=",", header="x1,x2,value", comments="")
    np.savetxt(tmp_path / "queries.csv", rng.random((4, 2)), delimiter=",", header="x1,x2",
               comments="")
    script = """import json
import os
import sys
import polyharm.cli

BANNED = ("scipy", "xml.sax", "urllib.request", "http.client", "ssl", "html",
          "concurrent.futures")


def loaded():
    return sorted(m for m in sys.modules if m != "scipy.linalg._flapack"
                  and any(m == b or m.startswith(b + ".") for b in BANNED))


os.cpu_count = lambda: 2  # so that --threads 2 starts a pool on any machine
print(json.dumps(loaded()))
for argv in (
        ["field", "--kernel", "tps:k=1", "--n", "5", "--seed", "1", "--grid=0,1,0,1,5,4",
         "--out", "field.csv", "--svg", "field.svg"],
        ["interp", "--kernel", "tps:k=1", "--augment", "poly", "--points", "nodes.csv",
         "--eval", "queries.csv", "--pred", "pred.csv"],
        ["verify", "--kernel", "tps:k=1", "--dim", "3", "--n", "5,9", "--trials", "3",
         "--seed", "1", "--threads", "2", "--out", "report.json"]):
    print(json.dumps([polyharm.cli.main(argv), loaded()]), file=sys.stderr)
"""
    src = str(Path(polyharm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[0]) == []
    field, interp, verify = map(json.loads, done.stderr.splitlines())
    assert field == interp == [0, []]
    assert verify[0] == 0 and "concurrent.futures" in verify[1]
    assert all(m.startswith("concurrent.futures") for m in verify[1])
    assert all((tmp_path / name).stat().st_size > 0
               for name in ("report.json", "field.csv", "field.svg", "pred.csv"))
