"""Eight rules the library modules keep.

No assert statement: python -O strips asserts, so a check written as one
would vanish there (checks raise VerificationError instead).  No absolute
import outside the standard library: the library has no dependencies.  No
write to an instance __dict__: a record holds what its constructor stored
and what it derives from that on first read (cached properties, and the
values Subspace and Flag store with _set_field), never a value slipped in
beside them.  Outside the CLI, int() converts only a comparison: int(1.9) is 1, so
an integer input goes through operator.index, which refuses a float, and an
integral Fraction is read by its numerator.  No record class writes a method
that exactla._record_methods writes from its fields: no __eq__, no __hash__,
and no __init__ that only stores its arguments with _set_field.  A record is
built unchecked only through the _trusted that _record_methods writes, and
only in the functions TRUSTED_CALLERS lists, whose values are valid by
construction: no call of __new__, and a new caller needs an entry there.
A subspace is built from vectors by span, one integer elimination: the
Fraction routes canonicalize (through rref) and kernel_basis are used only
where FRACTION_ROUTES lists, in the two spans the benchmark's tracer reads,
and the Fraction unit_vector only in coordinate_subspace.  The two code
paths of schubgeom.schubert_member stay disjoint: Flag.meet_dims calls
neither rank nor _rank, and quotient_dim calls no meet_dims (PATH_RULES).
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


def _is_dict(node) -> bool:
    """Whether node reads an instance dictionary: x.__dict__ or vars(x)."""
    return ((isinstance(node, ast.Attribute) and node.attr == "__dict__")
            or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "vars"))


def dict_write_lines(source: str) -> list:
    """The line of every item assignment or deletion on x.__dict__ or
    vars(x), and of every call of a method of one other than a read."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load)
                and _is_dict(node.value)):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and _is_dict(node.func.value)
              and node.func.attr not in ("get", "keys", "values", "items", "copy")):
            lines.append(node.lineno)
    return sorted(lines)


def int_call_lines(source: str) -> list:
    """The line of every call of int() on anything but one comparison."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "int"
                  and not (len(node.args) == 1 and not node.keywords
                           and isinstance(node.args[0], ast.Compare)))


def _base_names(cls) -> set:
    return {base.id for base in cls.bases if isinstance(base, ast.Name)}


def record_classes(sources) -> set:
    """The names of Record and of every class in the sources that derives
    from it, directly or through another such class."""
    classes = [node for source in sources for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.ClassDef)]
    names, grown = set(), {"Record"}
    while grown > names:
        names = grown
        grown = names | {cls.name for cls in classes if _base_names(cls) & names}
    return names


def _only_stores(fn) -> bool:
    """Whether fn's body, past its docstring, is only _set_field(self, ...)
    calls."""
    body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
    return bool(body) and all(
        isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
        and isinstance(stmt.value.func, ast.Name) and stmt.value.func.id == "_set_field"
        and stmt.value.args and isinstance(stmt.value.args[0], ast.Name)
        and stmt.value.args[0].id == "self"
        for stmt in body)


def record_method_lines(source: str, records) -> list:
    """The line of every __eq__ and __hash__ that a record class defines, and
    of every __init__ of one that only stores its arguments."""
    return sorted(fn.lineno for cls in ast.walk(ast.parse(source))
                  if isinstance(cls, ast.ClassDef) and _base_names(cls) & records
                  for fn in cls.body if isinstance(fn, ast.FunctionDef)
                  and (fn.name in ("__eq__", "__hash__")
                       or fn.name == "__init__" and _only_stores(fn)))


def scoped_nodes(source: str):
    """(node, scope) for every node of the source, the scope being the
    dotted names of the enclosing classes and functions ("" at module
    level)."""
    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        yield node, scope
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)

    return visit(ast.parse(source), "")


def trusted_calls(source: str) -> list:
    """(name, scope, line) of every reference to an attribute named
    _trusted, called or passed on, and of every call of one named __new__,
    with its scope as scoped_nodes gives it."""
    calls = []
    for node, scope in scoped_nodes(source):
        if isinstance(node, ast.Attribute) and node.attr == "_trusted":
            calls.append(("_trusted", scope, node.lineno))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "__new__"):
            calls.append(("__new__", scope, node.lineno))
    return sorted(calls, key=lambda call: call[2])


def name_uses(source: str, names) -> set:
    """(name, scope) of every reference to one of the names, as a plain
    name or an attribute, called or passed on, with its scope as
    scoped_nodes gives it."""
    uses = set()
    for node, scope in scoped_nodes(source):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None)
        if name in names:
            uses.add((name, scope))
    return uses


# the functions that may build a record unchecked, by module: each builds
# values that are valid by construction, which tests/test_exactla.py,
# test_deform.py, test_enumerative.py, test_seqcomb.py and test_tableaux.py
# rebuild through the public constructors
TRUSTED_CALLERS = {
    "deform.py": {"flag_within", "_pencil_columns"},
    "enumerative.py": {"valid_instances"},
    "exactla.py": {"Subspace.restrict", "canonicalize", "span", "zero_subspace",
                   "intersect", "PolyFamily.tail", "constant_family", "_tail_flag"},
    "seqcomb.py": {"pieri_set.rec", "dual", "branch_parent"},
    "tableaux.py": {"ssyt_enumerate.fill", "row_insert"},
}


def test_checker_sees_trusted_calls_and_allocations():
    source = ("class Rec(Record):\n    def copy(self):\n"
              "        return Rec._trusted(self.a)\n"
              "    def raw(self):\n        return object.__new__(Rec)\n"
              "def build(xs):\n    def one(x):\n        return Rec._trusted(x)\n"
              "    return [one(x) for x in xs], cls.__new__(cls)\n"
              "top = Rec._trusted(1)\nmade = map(Rec._trusted, [1])\nnew = object.__new__\n")
    assert trusted_calls(source) == [("_trusted", "Rec.copy", 3), ("__new__", "Rec.raw", 5),
                                     ("_trusted", "build.one", 8), ("__new__", "build", 9),
                                     ("_trusted", "", 10), ("_trusted", "", 11)]


def test_rule_refuses_a_planted_trusted_call():
    # DecSeq.bump takes any i and amount, so its result needs the checks
    source = (SRC / "seqcomb.py").read_text()
    planted = source.replace("return DecSeq(self.n, tuple(e))",
                             "return DecSeq._trusted(self.n, tuple(e))")
    assert planted != source
    scopes = {scope for _, scope, _ in trusted_calls(planted)}
    assert scopes - TRUSTED_CALLERS["seqcomb.py"] == {"DecSeq.bump"}


# the only functions that may use each Fraction route: intersect and
# limit_at_zero keep canonicalize and kernel_basis because the benchmark's
# tracer counts rref and kernel_basis calls and its self-test looks for rref
# spans under those two; coordinate_subspace takes 1-indexed input and
# checks its range through unit_vector
FRACTION_ROUTES = {
    "canonicalize": {"intersect", "limit_at_zero"},
    "kernel_basis": {"limit_at_zero"},
    "unit_vector": {"coordinate_subspace"},
}


def fraction_route_uses(sources) -> set:
    return set().union(*(name_uses(source, FRACTION_ROUTES) for source in sources))


def test_checker_sees_name_uses():
    source = ("def f(xs):\n    return canonicalize(xs, 2)\n"
              "class C:\n    def g(self):\n        return map(exactla.unit_vector, [1])\n"
              "top = kernel_basis\nspan(2)\n")
    assert name_uses(source, FRACTION_ROUTES) == {
        ("canonicalize", "f"), ("unit_vector", "C.g"), ("kernel_basis", "")}


def test_rule_refuses_planted_fraction_routes():
    exactla = (SRC / "exactla.py").read_text()
    schubgeom = (SRC / "schubgeom.py").read_text()
    planted = [exactla.replace("return span(a.ambient, *a.rows, *b.rows)",
                               "return canonicalize(a.rows + b.rows, a.ambient)"),
               schubgeom.replace("[_unit_row(n, p) for p in range(n)]",
                                 "[unit_vector(n, p + 1) for p in range(n)]")]
    assert planted != [exactla, schubgeom]
    assert fraction_route_uses(planted) - fraction_route_uses([exactla]) == {
        ("canonicalize", "sum_span"), ("unit_vector", "standard_flag")}


def test_fraction_routes_are_used_only_where_listed():
    allowed = {(name, scope) for name, scopes in FRACTION_ROUTES.items() for scope in scopes}
    assert fraction_route_uses(path.read_text() for path in MODULES) == allowed


# schubgeom.schubert_member proves membership twice, through the flag
# position (Flag.meet_dims, which reads leading columns itself) and through
# quotients (quotient_dim, which counts ranks with _rank); neither may call
# the other's routine, so a fault in one cannot hide in both
PATH_RULES = {
    "Flag.meet_dims": {"rank", "_rank"},
    "quotient_dim": {"meet_dims", "generic_meet_dims"},
}


def shared_path_uses(source: str) -> set:
    """(name, scope) of every use of a name that PATH_RULES forbids in its
    scope."""
    names = set().union(*PATH_RULES.values())
    return {(name, scope) for name, scope in name_uses(source, names)
            if name in PATH_RULES.get(scope, ())}


def test_membership_paths_share_no_routine():
    assert shared_path_uses((SRC / "exactla.py").read_text()) == set()


def test_rule_refuses_planted_shared_routines():
    source = (SRC / "exactla.py").read_text()
    planted = (source.replace("pivots = _echelon(rows)[1]", "pivots = range(_rank(rows))")
               .replace("free = k._free_columns", "free = k.flag.meet_dims(k)"))
    assert planted.count("_rank(rows))") == 1 and "k.flag.meet_dims" in planted
    assert shared_path_uses(planted) == {("_rank", "Flag.meet_dims"),
                                         ("meet_dims", "quotient_dim")}


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


def test_checker_sees_a_dict_write():
    source = ("def f(o, k):\n    o.__dict__['x'] = 1\n    vars(o)[k] += 1\n"
              "    del o.__dict__['x']\n    o.__dict__.update(y=2)\n"
              "    vars(o).setdefault('z', 3)\n"
              "    return o.__dict__.get('x'), vars(o)['y'], o.__dict__\n")
    assert dict_write_lines(source) == [2, 3, 4, 5, 6]


def test_checker_sees_an_int_conversion():
    source = ("def f(x, i, j):\n    a = int(x)\n    b = int(i == j) + int(i < j <= x)\n"
              "    c = [int(y) for y in x]\n    d = int('ff', base=16)\n"
              "    return int(), rng.int(x), isinstance(x, int), int(not x)\n")
    assert int_call_lines(source) == [2, 4, 5, 6, 6]


def test_checker_sees_a_written_out_record_method():
    source = ("class Base(Record):\n    _fields = ('a',)\n"
              "class Rec(Base):\n    def __init__(self, a):\n        'doc'\n"
              "        _set_field(self, 'a', a)\n"
              "    def __eq__(self, other):\n        return True\n"
              "    def __hash__(self):\n        return 0\n"
              "class Checked(Record):\n    def __init__(self, a):\n"
              "        if a < 0:\n            raise ValueError\n"
              "        _set_field(self, 'a', a)\n"
              "class Plain:\n    def __init__(self, a):\n        _set_field(self, 'a', a)\n"
              "    def __eq__(self, other):\n        return True\n")
    records = record_classes([source])
    assert records == {"Record", "Base", "Rec", "Checked"}
    assert record_method_lines(source, records) == [4, 7, 9]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statement(path):
    assert assert_lines(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    assert foreign_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_instance_dict_write(path):
    assert dict_write_lines(path.read_text()) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "cli.py"],
                         ids=lambda p: p.name)
def test_int_converts_only_a_comparison(path):
    assert int_call_lines(path.read_text()) == []


RECORDS = record_classes(path.read_text() for path in MODULES)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_records_write_no_generated_method(path):
    assert record_method_lines(path.read_text(), RECORDS) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_records_are_built_unchecked_only_where_listed(path):
    calls = trusted_calls(path.read_text())
    assert [call for call in calls if call[0] == "__new__"] == []
    assert {scope for _, scope, _ in calls} == TRUSTED_CALLERS.get(path.name, set())
