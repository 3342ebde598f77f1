"""Every name a polyharm module imports is used in it or listed in its __all__."""

import ast
from pathlib import Path

import pytest

import polyharm

MODULES = sorted(Path(polyharm.__file__).parent.glob("*.py"))


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


def test_serializer_imports_nothing_from_the_package():
    # _serialize is imported by the other modules, so it depends on none of them
    tree = ast.parse((Path(polyharm.__file__).parent / "_serialize.py").read_text())
    assert [node.module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0] == []
