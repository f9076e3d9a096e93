"""Two rules every library module keeps.

No assert statement: python -O strips asserts, so a check written as one
would vanish there (checks raise VerificationError instead).  No absolute
import outside the standard library: the library has no dependencies.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pierikit"
MODULES = sorted(SRC.glob("*.py"))


def assert_lines(source: str) -> list:
    """The line of every assert statement, in order."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Assert))


def foreign_imports(source: str) -> list:
    """The absolutely imported modules whose top-level package is not in
    the standard library."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return sorted(name for name in names
                  if name.split(".")[0] not in sys.stdlib_module_names)


def test_checker_sees_an_assert():
    source = ("def f(x):\n    assert x > 0, 'positive'\n    return x\n"
              "assert_ok = True\nassert f(1)\n")
    assert assert_lines(source) == [2, 5]


def test_checker_sees_a_foreign_import():
    source = ("from __future__ import annotations\n"
              "import os, numpy.linalg as la\nfrom json import dumps\n"
              "from sympy import Matrix\nfrom . import exactla\n"
              "from .seqcomb import DecSeq\ndef f():\n    import requests\n")
    assert foreign_imports(source) == ["numpy.linalg", "requests", "sympy"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statement(path):
    assert assert_lines(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    assert foreign_imports(path.read_text()) == []
