"""The frozen records against the dataclasses they were written as.

Each record class of the library once was a @dataclass(frozen=True).
records_reference rebuilds that dataclass from the old field spec, and the
tests here require the same repr, hash, == (both ways, and across
classes), the same constructor TypeError on a missing, surplus or unknown
argument, and the same AttributeError on assignment and deletion, on
sample instances of all 17 classes.  Committed mutants of the methods that
exactla._record_methods writes must be caught.
"""

import pytest

from fraction_reference import source_mutant
from pierikit.deform import (
    ComponentRecord,
    build_pencil,
    chain_deformation,
    flag_within,
    golden_run_741,
)
from pierikit.enumerative import QuintupleProblem, reversed_flag, valid_instances
from pierikit.exactla import (
    PolyFamily,
    Record,
    StageCheck,
    Subspace,
    _record_methods,
    family_from_vectors,
    span,
    unit_vector,
    zero_subspace,
)
from pierikit.schubgeom import (
    cell_point,
    cell_profile_check,
    classify_pieri,
    random_flag,
    standard_flag,
)
from pierikit.seqcomb import DecSeq, tree_chains
from pierikit.tableaux import pieri_bijection_check, ssyt_enumerate
from records_reference import (
    FIELD_SPECS,
    NO_DEFAULT,
    NOT_STORED,
    init_fields,
    replace,
    stored_names,
    twin_of,
)


def e(i, n=9):
    return unit_vector(n, i)


def samples() -> list:
    """Instances of every record class, with equal-valued pairs built
    apart, records that agree in all but one field, and defaults both
    taken and overridden."""
    flag = standard_flag(9)
    a = DecSeq(9, (7, 4, 1))
    M = span(9, e(2), e(3), e(5), e(6), e(8), e(9))
    L_marked = span(9, e(2), e(3), e(5), e(6), e(9))
    L = cell_point(a, 2, flag, seed=0)
    classes = [classify_pieri(a, flag, cell_point(a, s, flag, seed=0), s) for s in (2, 3)]
    profile = cell_profile_check(L, a, 2, flag)
    reports = chain_deformation(a, 2, flag, span(9, *[e(i) for i in range(1, 6)]), seeds=0)
    problems = list(valid_instances(4))[:3]
    return [
        StageCheck("clause", True), StageCheck("clause", True, ""),
        StageCheck("clause", True, "why"), StageCheck("clause", False),
        # same pivots, different rows: only == on rows tells them apart
        span(2, (1, 1)), span(2, (1, 2)), span(2, (2, 1)), zero_subspace(2),
        zero_subspace(3), span(3, e(1, 3), e(2, 3), e(3, 3)),
        standard_flag(3), reversed_flag(3), random_flag(3, 0), random_flag(3, 0),
        family_from_vectors(2, [[(1, 1), (0,)]]), family_from_vectors(2, [[(1,), (0,)]]),
        a, DecSeq(9, (7, 4, 2)), DecSeq(10, (7, 4, 1)), DecSeq(9, [7, 4, 1]), DecSeq(3, ()),
        tree_chains(DecSeq(5, (3, 1)), 2)[0], tree_chains(DecSeq(5, (3, 1)), 1)[0],
        *classes, *[entry for c in classes for entry in c.entries],
        profile, *profile.entries,
        build_pencil(flag_within(M, flag), M.dim - flag.subspace(9).dim + 1, L_marked),
        ComponentRecord(a, 1, ()), ComponentRecord(a, 1, (), None),
        ComponentRecord(a, 1, (), limit_dim=3),
        *reports, *[rec for rep in reports for rec in rep.records],
        replace(reports[0], records=()), golden_run_741(),
        *problems, replace(problems[0]),
        *ssyt_enumerate((2, 1), 3)[:3],
        pieri_bijection_check((2, 1), 1, 3), pieri_bijection_check((1,), 1, 2),
    ]


SAMPLES = samples()


def test_samples_cover_every_record_class():
    assert {type(r) for r in SAMPLES} == set(FIELD_SPECS)
    assert len(FIELD_SPECS) == 17
    assert all(issubclass(cls, Record) for cls in FIELD_SPECS)


def defaulted(cls) -> list:
    """The init fields that have a default."""
    return [f for f, default, init, _, _ in FIELD_SPECS[cls]
            if init and default is not NO_DEFAULT]


def outcome(call):
    """("value", call()), or the type and message of what it raised; a
    dataclass's FrozenInstanceError counts as the AttributeError it is."""
    try:
        return ("value", call())
    except AttributeError as exc:
        return ("AttributeError", str(exc))
    except Exception as exc:  # what was raised is the outcome
        return (type(exc).__name__, str(exc))


def record_mismatches(records) -> list:
    """Every way the records differ from their dataclass twins."""
    bad = []
    twins = [twin_of(r) for r in records]
    for r, t in zip(records, twins):
        cls, twin_cls = type(r), type(t)
        name = f"{cls.__name__} {r!r:.60}"
        if repr(r) != repr(t):
            bad.append(f"{name}: repr {r!r} != {t!r}")
        if hash(r) != hash(t):
            bad.append(f"{name}: hash")
        if r.__eq__(t) is not NotImplemented or r.__eq__(repr(r)) is not NotImplemented:
            bad.append(f"{name}: == on another class is not NotImplemented")
        if any(f not in vars(r) for f in cls._fields):
            bad.append(f"{name}: fields not in the instance __dict__")
        values = [getattr(r, f) for f in init_fields(cls)]
        # the constructor: keywords, positions, defaults and refusals
        for args, kwargs in [(values, {}), ((), dict(zip(init_fields(cls), values))),
                             ((), {}), (values[:-1], {}), ([*values, None], {}),
                             (values, {"bogus": 1}), (values, {"pivots": ()})]:
            got = outcome(lambda: cls(*args, **kwargs))
            want = outcome(lambda: twin_cls(*args, **kwargs))
            if got[0] == want[0] == "value":
                got, want = ("value", twin_of(got[1])), want
            if got != want:
                bad.append(f"{name}: {cls.__name__}(*{args!r:.40}, **{kwargs!r:.40}) "
                           f"gave {got!r:.120}, the dataclass {want!r:.120}")
        given = values[:len(values) - len(defaulted(cls))]
        if twin_of(cls(*given)) != twin_cls(*given):
            bad.append(f"{name}: defaults")
        # frozen: on a copy, so a mutant that lets an assignment through
        # alters no shared record
        copy = cls(*values)
        for attr in [*cls._fields, "pivots", "not_a_field"]:
            for act in (lambda o: setattr(o, attr, 0), lambda o: delattr(o, attr)):
                got, want = outcome(lambda: act(copy)), outcome(lambda: act(t))
                if got != want:
                    bad.append(f"{name}: {attr}: {got!r} where the dataclass gave {want!r}")
    for r1, t1 in zip(records, twins):
        for r2, t2 in zip(records, twins):
            if (r1.__eq__(r2), r1 == r2, r1 != r2) != (t1.__eq__(t2), t1 == t2, t1 != t2):
                bad.append(f"== on {r1!r:.60} and {r2!r:.60}")
    return bad


def test_records_behave_as_their_dataclasses():
    assert record_mismatches(SAMPLES) == []


def trusted_mismatches(records) -> list:
    """The records that _trusted, given their stored attributes, does not
    copy: another class, another value, or other stored attributes."""
    bad = []
    for r in records:
        cls, names = type(r), stored_names(type(r))
        copy = cls._trusted(*[getattr(r, f) for f in names])
        stored = [getattr(copy, f, NOT_STORED) for f in names]
        # == reads the fields, which a copy that lacks one cannot give
        if (type(copy) is not cls or stored != [getattr(r, f) for f in names]
                or copy != r):
            bad.append(f"{cls.__name__} {r!r:.60}")
    return bad


def test_trusted_copies_every_record():
    assert trusted_mismatches(SAMPLES) == []
    assert stored_names(Subspace) == ("ambient", "rows", "pivots")
    assert stored_names(PolyFamily) == ("ambient", "_forms")
    assert {cls for cls in FIELD_SPECS if stored_names(cls) != cls._fields} == {
        Subspace, PolyFamily}


def test_trusted_that_drops_the_last_attribute_is_caught(monkeypatch):
    mutant = source_mutant(_record_methods, "for f in stored)", "for f in stored[:-1])")
    for cls in FIELD_SPECS:
        monkeypatch.setattr(cls, "_trusted", mutant(cls)["_trusted"])
    assert {m.split()[0] for m in trusted_mismatches(SAMPLES)} == {
        cls.__name__ for cls in FIELD_SPECS}


def test_subspace_pivots_stay_derived():
    s = span(3, (0, 1, 1), (1, 0, 2))
    assert s.pivots == (0, 1) and "pivots" not in repr(s)
    t = Subspace(3, s.rows)
    object.__setattr__(t, "pivots", (1, 2))
    assert t == s and hash(t) == hash(s)


# ----------------------------------------------------------------------
# Mutants: each breaks one method that _record_methods writes, or the
# frozen __setattr__, and must be caught.

HASH_MUTANTS = [(cls, "fields = cls._fields", "fields = cls._fields[::-1]")
                for cls in (DecSeq, Subspace, QuintupleProblem)]


@pytest.mark.parametrize("cls, old, new", HASH_MUTANTS, ids=lambda x: getattr(x, "__name__", "-"))
def test_hash_over_reordered_fields_is_caught(monkeypatch, cls, old, new):
    mutant = source_mutant(_record_methods, old, new)
    monkeypatch.setattr(cls, "__hash__", mutant(cls)["__hash__"])
    assert any(m.startswith(f"{cls.__name__} ") and m.endswith(": hash")
               for m in record_mismatches(SAMPLES))


def test_setattr_that_does_not_raise_is_caught(monkeypatch):
    mutant = source_mutant(Record.__setattr__,
                           'raise AttributeError(f"cannot assign to field {name!r}")',
                           "object.__setattr__(self, name, value)")
    monkeypatch.setattr(Record, "__setattr__", mutant)
    found = record_mismatches(SAMPLES)
    assert {m.split()[0] for m in found if "where the dataclass gave" in m} == {
        cls.__name__ for cls in FIELD_SPECS}


def test_subspace_eq_on_pivots_is_caught(monkeypatch):
    mutant = source_mutant(
        _record_methods, "return ({own}) == ({other})",
        "return ({own.replace('rows', 'pivots')}) == ({other.replace('rows', 'pivots')})")
    monkeypatch.setattr(Subspace, "__eq__", mutant(Subspace)["__eq__"])
    assert any(m.startswith("== on Subspace(ambient=2, rows=((1, 1),))")
               for m in record_mismatches(SAMPLES))


# the records whose __init__ _record_methods writes (exec names its code
# "<string>"); the other six validate or derive a value in their own
PLAIN = [cls for cls in FIELD_SPECS if cls.__init__.__code__.co_filename == "<string>"]

INIT_MUTANTS = {
    # each declared default lands one field early, and None on the last
    "default on the wrong field": ('methods["__init__"].__defaults__ = cls._defaults',
                                   'methods["__init__"].__defaults__ = (*cls._defaults, None)'),
    # pass keeps the body of a one-field record's __init__ from being empty
    "last field not stored": ("for f in fields))",
                              'for f in fields[:-1]) + "    pass\\n")'),
}


@pytest.mark.parametrize("old, new", INIT_MUTANTS.values(), ids=list(INIT_MUTANTS))
def test_generated_init_mutants_are_caught(monkeypatch, old, new):
    assert len(PLAIN) == 11
    mutant = source_mutant(_record_methods, old, new)
    for cls in PLAIN:
        monkeypatch.delattr(cls, "__init__")
        monkeypatch.setattr(cls, "__init__", mutant(cls)["__init__"])
    found = record_mismatches(SAMPLES)
    assert {cls.__name__ for cls in PLAIN} <= {m.split()[0] for m in found}
