"""Every module reads what it imports, and the package exports each name once."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import ncgeo

MODULES = sorted(p for p in Path(ncgeo.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names a module binds by import and never reads, in source order."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_the_check_sees_an_unused_import():
    source = "from .scalars import ONE, lambda_pow\nimport json\n\ndef f(x: Scalar):\n    return ONE\n"
    assert unused_imports(source) == ["lambda_pow", "json"]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_all_names_resolve_once():
    names = ncgeo.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(ncgeo, name)] == []
