"""The library's frozen records as the dataclasses they were written as.

FIELD_SPECS holds each record class's old dataclass field spec: names,
defaults and the init/repr/compare flags.  dataclass_twin builds the
reference class from it with dataclasses.make_dataclass(frozen=True), so
the tests can compare a record with the dataclass it replaced; replace is
dataclasses.replace for the records.  trusted_refusals rebuilds every
record that the library builds unchecked through its public constructor.
"""

import dataclasses
from functools import lru_cache

from pierikit.deform import ComponentRecord, GoldenReport, Pencil, StepReport
from pierikit.enumerative import QuintupleProblem
from pierikit.exactla import Flag, PolyFamily, StageCheck, Subspace
from pierikit.schubgeom import Classification, DimEntry, ProfileEntry, ProfileReport
from pierikit.seqcomb import DecSeq, PieriTree
from pierikit.tableaux import BijectionReport, Tableau

NO_DEFAULT = dataclasses.MISSING


class _NotStored:
    def __repr__(self):
        return "<not stored>"


# what a twin holds for a field its record lacks, so that a constructor
# which stores too few fields shows as a mismatch rather than raising
NOT_STORED = _NotStored()

# (name, default, init, repr, compare) per field, in declaration order
FIELD_SPECS = {
    StageCheck: (("name", NO_DEFAULT, True, True, True),
                 ("passed", NO_DEFAULT, True, True, True),
                 ("detail", "", True, True, True)),
    Subspace: (("ambient", NO_DEFAULT, True, True, True),
               ("rows", NO_DEFAULT, True, True, True),
               ("pivots", NO_DEFAULT, False, False, False)),
    Flag: (("ambient", NO_DEFAULT, True, True, True),
           ("spaces", NO_DEFAULT, True, True, True)),
    PolyFamily: (("ambient", NO_DEFAULT, True, True, True),
                 ("cols", NO_DEFAULT, True, True, True)),
    DecSeq: (("n", NO_DEFAULT, True, True, True),
             ("entries", NO_DEFAULT, True, True, True)),
    PieriTree: (("root", NO_DEFAULT, True, True, True),
                ("depth", NO_DEFAULT, True, True, True),
                ("levels", NO_DEFAULT, True, True, True),
                ("edges", NO_DEFAULT, True, True, True)),
    DimEntry: (("j", NO_DEFAULT, True, True, True),
               ("flag_index", NO_DEFAULT, True, True, True),
               ("meet_dim", NO_DEFAULT, True, True, True),
               ("critical", NO_DEFAULT, True, True, True)),
    Classification: (("verdict", NO_DEFAULT, True, True, True),
                     ("entries", NO_DEFAULT, True, True, True),
                     ("equality_set", NO_DEFAULT, True, True, True),
                     ("s", NO_DEFAULT, True, True, True)),
    ProfileEntry: (("i", NO_DEFAULT, True, True, True),
                   ("expected", NO_DEFAULT, True, True, True),
                   ("actual", NO_DEFAULT, True, True, True)),
    ProfileReport: (("entries", NO_DEFAULT, True, True, True),),
    Pencil: (("M", NO_DEFAULT, True, True, True),
             ("mflag", NO_DEFAULT, True, True, True),
             ("l", NO_DEFAULT, True, True, True),
             ("family", NO_DEFAULT, True, True, True),
             ("marked", NO_DEFAULT, True, True, True)),
    ComponentRecord: (("index", NO_DEFAULT, True, True, True),
                      ("j", NO_DEFAULT, True, True, True),
                      ("children", NO_DEFAULT, True, True, True),
                      ("limit_dim", None, True, True, True)),
    StepReport: (("stage", NO_DEFAULT, True, True, True),
                 ("alpha", NO_DEFAULT, True, True, True),
                 ("s", NO_DEFAULT, True, True, True),
                 ("r", NO_DEFAULT, True, True, True),
                 ("checks", NO_DEFAULT, True, True, True),
                 ("records", (), True, True, True)),
    GoldenReport: (("sections", NO_DEFAULT, True, True, True),
                   ("final_indices", NO_DEFAULT, True, True, True)),
    QuintupleProblem: (("n", NO_DEFAULT, True, True, True),
                       ("m", NO_DEFAULT, True, True, True),
                       ("alpha", NO_DEFAULT, True, True, True),
                       ("beta", NO_DEFAULT, True, True, True),
                       ("a", NO_DEFAULT, True, True, True),
                       ("b", NO_DEFAULT, True, True, True),
                       ("c", NO_DEFAULT, True, True, True)),
    Tableau: (("rows", NO_DEFAULT, True, True, True),
              ("entry_bound", NO_DEFAULT, True, True, True)),
    BijectionReport: tuple((name, NO_DEFAULT, True, True, True) for name in (
        "lam", "b", "m", "pairs_total", "image_counts", "expected_counts",
        "injective", "content_ok", "shapes_ok", "counts_ok", "chains_ok",
        "chains_complete")),
}


@lru_cache(maxsize=None)
def dataclass_twin(cls):
    """A frozen dataclass with cls's name and its old field spec, without
    the validation (the twin is built from a valid record's values)."""
    fields = [(name, object, dataclasses.field(default=default, init=init,
                                                repr=rep, compare=compare))
              for name, default, init, rep, compare in FIELD_SPECS[cls]]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


def init_fields(cls) -> list:
    return [name for name, _, init, _, _ in FIELD_SPECS[cls] if init]


def twin_of(record):
    """The dataclass twin holding record's field values."""
    cls = type(record)
    return dataclass_twin(cls)(**{f: getattr(record, f, NOT_STORED) for f in init_fields(cls)})


def replace(record, **changes):
    """record rebuilt through its constructor with some fields changed, as
    dataclasses.replace does for a dataclass."""
    return type(record)(**{**{f: getattr(record, f) for f in record._fields}, **changes})


def stored_names(cls) -> tuple:
    """The attributes cls._trusted takes: _stored if cls declares it, else
    its _fields."""
    return vars(cls).get("_stored", cls._fields)


def trusted_refusals(monkeypatch, cls, run) -> tuple:
    """(built, refused): how many cls records run() builds through
    cls._trusted, and how many of them the public constructor, given the
    record's fields, refuses or builds with other stored attributes."""
    real, names, built, refused = cls._trusted, stored_names(cls), [0], [0]

    def checked(klass, *stored):
        record = real(*stored)
        built[0] += 1
        try:
            public = cls(*[getattr(record, f) for f in cls._fields])
        except ValueError:
            refused[0] += 1
        else:
            refused[0] += tuple(getattr(public, f) for f in names) != stored
        return record

    with monkeypatch.context() as m:
        m.setattr(cls, "_trusted", classmethod(checked))
        run()
    return built[0], refused[0]
