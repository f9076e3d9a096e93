"""Every name a library module imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pierikit"
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by an import statement and never read as a name."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_checker_sees_an_unused_name():
    source = ("from __future__ import annotations\n"
              "from os import path, sep\nimport json\nimport email.utils as eu\n"
              "def f(x: eu.Foo) -> None:\n    print(sep)\n")
    assert sorted(unused_imports(source)) == ["json", "path"]


def test_modules_found():
    assert {p.stem for p in MODULES} >= {"__init__", "cli", "deform", "exactla", "tableaux"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []
