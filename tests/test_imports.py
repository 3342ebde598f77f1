"""Every name a polyharm module imports is used in it or listed in its __all__, no module
reads the environment, a CLI run loads no module it does not need, and the test extra
declares every package the tests import."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polyharm

MODULES = sorted(Path(polyharm.__file__).parent.glob("*.py"))
TESTS = Path(__file__).resolve().parent


def imported_names(tree):
    """(name, line) of each name the module binds by import, apart from star imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def used_names(tree):
    """Names the module's code reads, plus the entries of its __all__."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return used


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = [(name, line) for name, line in imported_names(tree) if name not in used]
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_reads_no_environment_variable(path):
    # README "Determinism": the BLAS thread count and the CPU SIMD level are the only settings
    # outside argv, and polyharm reads neither itself
    banned = {"environ", "environb", "getenv"}
    tree = ast.parse(path.read_text(), filename=str(path))
    os_names = {alias.asname or "os" for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names if alias.name == "os"}
    reads = [node.lineno for node in ast.walk(tree)
             if (isinstance(node, ast.Attribute) and node.attr in banned
                 and isinstance(node.value, ast.Name) and node.value.id in os_names)
             or (isinstance(node, ast.ImportFrom) and node.module == "os"
                 and any(alias.name in banned for alias in node.names))]
    assert reads == [], f"{path.name} reads the environment at lines {reads}"


def test_the_test_extra_declares_every_package_the_tests_import():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((TESTS.parent / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
                for req in project["dependencies"] + project["optional-dependencies"]["test"]}
    local = {path.stem for path in TESTS.glob("*.py")}
    undeclared = set()
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            undeclared |= {(path.name, top) for top in (name.split(".")[0] for name in names)
                           if top not in sys.stdlib_module_names | local | declared
                           and top != "polyharm"}
    assert undeclared == set()


def test_serializer_imports_nothing_from_the_package():
    # _serialize is imported by the other modules, so it depends on none of them
    tree = ast.parse((Path(polyharm.__file__).parent / "_serialize.py").read_text())
    assert [node.module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0] == []


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


# so that --threads 2 starts a pool on any machine
os.cpu_count = lambda: 2
os.sched_getaffinity = lambda pid: {0, 1}
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
