"""Exact rational linear algebra for subspaces of k^n.

Everything is over the rationals and nothing is ever rounded.  Elimination
is fraction-free: one integer Gauss-Jordan routine does every rank, kernel,
solve, inverse, span and intersection; it scales each input row to a
primitive integer vector and keeps it primitive.  Its inputs must be int or
Fraction; anything else raises TypeError.  Every inverse is one echelon of
[A | I] (_inverse_rows), a pencil's dual basis included.

A Subspace is its canonical integer rows: the reduced echelon basis with
each row scaled to a primitive integer vector whose pivot entry is positive.
That form is unique.  Membership, intersections and quotients work on those
rows (quotient_dim reads a quotient's dimension as the rank of
back-substituted rows); the canonical Fraction basis (pivot entries 1) is a
view built on first read.  Coordinates on a subspace S are the entries at
S's pivot columns, and S.restrict carries a subspace of S to k^dim S with no
elimination, because canonical rows read at S's pivots are canonical.  The
null vector of canonical rows with 1 at a free column c and 0 at the other
free columns has, at each row's pivot, minus the row's entry at c over its
pivot entry, so S's annihilator is read straight off S's rows.
A one-parameter family is its integer column forms: it evaluates them at
t, its flat limit at t=0 comes out of exact column operations over Z[t],
and a degree bound on its minors lets finitely many fibres decide its
generic rank and flag position.  A complete flag caches its integer adapted
covectors; Flag.frame maps a vector through them, so a subspace's flag
position (dim F_j cap L for every j) is one elimination of its framed rows.
The coordinate case is recognised from the values themselves, with no
option: a coordinate subspace has canonical rows that are unit rows, and a
flag has a coordinate order when its adapted covectors are unit covectors
(the identity on the coordinate flag, the reversal on the opposite one).
Back substitution against a coordinate subspace zeroes its pivot columns,
two coordinate subspaces meet in the coordinate subspace on their common
pivots, and a flag position on a flag with a coordinate order is one
elimination of the rows with their columns permuted, or, for the identity
order, the canonical pivots with none.  Rows that are canonical by
construction (elimination output, tails of canonical rows, unit rows)
build their Subspace through the generated Subspace._trusted, which skips
the public constructor's checks.
Fractions appear only at the boundary: Subspace.basis, PolyFamily.cols,
JSON, and the public Fraction views (rref, kernel_basis, solve_columns,
invert_matrix, annihilator_basis, Flag.adapted_basis).  Inside, span, one
integer elimination, builds every subspace from vectors, except in two
routes that the benchmark's tracer reads: intersect spans through
canonicalize (rref), and limit_at_zero finds its vanishing combinations
through kernel_basis and spans through canonicalize.

The value types (StageCheck, Subspace, Flag, PolyFamily here, and the
records of the other layers) are frozen Records, not dataclasses: importing
dataclasses (and with it inspect) would cost every CLI process about 25 ms
at start-up.  Record writes each class's __eq__, __hash__, plain __init__ and
unchecked _trusted constructor with one exec, about 2 ms for all the classes.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from itertools import islice, repeat
from math import gcd, lcm
from operator import mul

Vec = tuple[Fraction, ...]
Poly = tuple[Fraction, ...]  # coefficients, lowest degree first, trimmed

_ZERO = Fraction(0)
_ONE = Fraction(1)


class VerificationError(Exception):
    """An exact check of a constructed object failed.

    Raised instead of assert, so python -O cannot strip the check.
    Deliberately neither a ValueError (bad input) nor a GenericityError,
    on which witness_table draws again: a wrong result must not be retried
    away.
    """


class GenericityError(RuntimeError):
    """A random draw was not in general position, or a seeded sampler used
    up its retry budget without drawing a point that is.  Nothing was shown
    wrong: another draw or seed may work."""


# stores a field of a frozen Record, as a frozen dataclass's __init__ does;
# writing into self.__dict__ instead would be faster to build but slower to
# read, since it turns off CPython's inline attribute values
_set_field = object.__setattr__


def _record_methods(cls) -> dict:
    """cls's __eq__ and __hash__ over its _fields, its __init__ unless it
    writes its own, and its classmethod _trusted, as straight-line code from
    one exec.  The __init__ stores the fields in order with _set_field, the
    last len(cls._defaults) of them defaulting to those; _trusted allocates
    the record and stores its _stored attributes in order, unchecked."""
    fields = cls._fields
    stored = vars(cls).get("_stored", fields)
    own, other = ("".join(f"{obj}.{f}, " for f in fields) for obj in ("self", "other"))
    source = ("def __eq__(self, other):\n"
              "    if other.__class__ is self.__class__:\n"
              f"        return ({own}) == ({other})\n"
              "    return NotImplemented\n"
              f"def __hash__(self):\n    return hash(({own}))\n")
    if "__init__" not in vars(cls):
        source += (f"def __init__(self, {', '.join(fields)}):\n"
                   + "".join(f"    _set_field(self, {f!r}, {f})\n" for f in fields))
    source += (f"def _trusted(cls, {', '.join(stored)}):\n    self = _new(cls)\n"
               + "".join(f"    _set_field(self, {f!r}, {f})\n" for f in stored)
               + "    return self\n")
    methods = {}
    exec(source, {"_set_field": _set_field, "_new": object.__new__}, methods)
    for name, method in methods.items():
        method.__qualname__ = f"{cls.__qualname__}.{name}"
    if "__init__" in methods:
        methods["__init__"].__defaults__ = cls._defaults
    methods["_trusted"] = classmethod(methods["_trusted"])
    return methods


class Record:
    """Base of the library's frozen value records.

    A record lists its fields in _fields.  Two records are equal when they
    are instances of the same class with equal field tuples, a record
    hashes as its field tuple, and its repr reads Cls(field=value, ...), as
    for a frozen dataclass; assigning or deleting any attribute raises
    AttributeError.  Each class that declares _fields gets its __eq__,
    __hash__ and __init__ from _record_methods, the last len(_defaults)
    fields defaulting to _defaults; a class that validates or derives a
    value writes its own __init__, which stores each field with _set_field,
    past the frozen __setattr__.  _trusted(*_stored) is the one way to build
    a record unchecked, for values valid by construction; _stored is _fields
    unless the class declares the attributes its __init__ stores.  Instances
    keep a __dict__, where cached_property caches.
    """

    _fields: tuple[str, ...] = ()
    _defaults: tuple = ()

    def __init_subclass__(cls):
        if "_fields" in vars(cls):
            for name, method in _record_methods(cls).items():
                setattr(cls, name, method)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        return (f"{self.__class__.__qualname__}("
                + ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields) + ")")


class StageCheck(Record):
    """One named clause of a verification and its verdict: every report
    and every CLI verb states its clauses as StageChecks: strings name and
    detail, and the bool passed."""

    _fields = ("name", "passed", "detail")
    _defaults = ("",)

    def to_json(self):
        out = {"name": self.name, "passed": self.passed}
        if self.detail:
            out["detail"] = self.detail
        return out


def check_lines(checks) -> list:
    """One `  [ok] name  (detail)` line per check (`[XX]` when it failed)."""
    return [f"  [{'ok' if c.passed else 'XX'}] {c.name}"
            + (f"  ({c.detail})" if c.detail else "")
            for c in checks]


def failed_names(checks) -> tuple:
    """The names of the failed clauses, in order."""
    return tuple(c.name for c in checks if not c.passed)


def verdict_line(label: str, checks) -> str:
    """`label: PASS` when every clause passed, else `label: FAIL`."""
    return f"{label}: " + ("FAIL" if failed_names(checks) else "PASS")


class Verdict(Record):
    """A report record whose `passed` and `failures()` read its `checks`."""

    @property
    def passed(self) -> bool:
        return not failed_names(self.checks)

    def failures(self) -> tuple:
        return failed_names(self.checks)


def frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def vec(entries, n=None) -> Vec:
    v = tuple(frac(x) for x in entries)
    if n is not None and len(v) != n:
        raise ValueError(f"expected vector of length {n}, got {len(v)}")
    return v


def unit_vector(n: int, i: int) -> Vec:
    """Standard basis vector e_i, 1-indexed."""
    if not 1 <= i <= n:
        raise ValueError(f"unit vector index {i} out of range 1..{n}")
    return tuple(_ONE if k == i - 1 else _ZERO for k in range(n))


# ----------------------------------------------------------------------
# Matrix routines.  Matrices are lists of rows with int or Fraction
# entries; _echelon is the one elimination loop.

_EXACT = (int, Fraction)
_EXACT_TYPES = frozenset(_EXACT)


def _scaled_row(row) -> tuple[list[int], int]:
    """(ints, d) with row == ints / d, d > 0 the lcm of the denominators."""
    types = set(map(type, row))
    if types == {int}:
        return list(row), 1
    if not types.issubset(_EXACT):
        for x in row:
            if not isinstance(x, _EXACT):
                raise TypeError("exact elimination takes int or Fraction "
                                f"entries, not {type(x).__name__}")
    ratios = [x.as_integer_ratio() for x in row]
    den = lcm(*[d for _, d in ratios])
    return [n * (den // d) for n, d in ratios], den


def _int_row(row) -> list[int]:
    """The row scaled to a primitive integer vector (zero stays zero)."""
    ints, _ = _scaled_row(row)
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def _int_vector(v, n: int) -> tuple[list[int], int]:
    """(ints, d) with v == ints / d for a vector of length n; v may be
    anything vec takes."""
    if not isinstance(v, (tuple, list)):
        v = tuple(v)
    if not set(map(type, v)).issubset(_EXACT):
        v = vec(v)
    if len(v) != n:
        raise ValueError(f"expected vector of length {n}, got {len(v)}")
    return _scaled_row(v)


def _echelon(rows):
    """Integer Gauss-Jordan elimination, fraction-free.

    Returns (rows, pivot column indices): primitive integer rows whose
    pivot entries are positive, pivots strictly increasing and pivot
    columns zero in every other row.  Dividing each row by its pivot entry
    gives the canonical reduced echelon form.  Each update is a
    cross-multiplication followed by division by the row's content, so
    every row stays primitive.
    """
    work = [r for r in map(_int_row, rows) if any(r)]
    pivots = []
    if not work:
        return work, pivots
    nrows = len(work)
    prow = 0
    for c in range(len(work[0])):
        pr = next((r for r in range(prow, nrows) if work[r][c]), None)
        if pr is None:
            continue
        piv = work[pr]
        work[pr] = work[prow]
        p = piv[c]
        if p < 0:
            piv = [-x for x in piv]
            p = -p
        work[prow] = piv
        for r, row in enumerate(work):
            f = row[c]
            if f and r != prow:
                g = gcd(p, f)
                a, b = p // g, f // g
                new = [a * x - b * y for x, y in zip(row, piv)]
                g = gcd(*new)
                work[r] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        prow += 1
        if prow == nrows:
            break
    return work[:prow], pivots


def _over(row, d: int) -> Vec:
    """The integer row divided by d, as Fractions."""
    return tuple(Fraction(x, d) if x else _ZERO for x in row)


def _scaled_lift(rows) -> tuple[int, list[list[int]]]:
    """(P, lifted): P the lcm of the integer rows' leading (first nonzero)
    entries, and each row times P over its leading entry.  An integer
    combination of the lifted rows is P times the same combination of the
    rows over their leading entries: for canonical rows, of the canonical
    basis."""
    leads = [next(filter(None, row)) for row in rows]
    P = lcm(*leads)
    return P, [[x * (P // lead) for x in row] for row, lead in zip(rows, leads)]


def _null_vector(rows, pivots, fc: int, ncols: int) -> tuple[int, list[int]]:
    """The null vector at free column fc of rows already in canonical form
    (reduced, primitive, positive pivots), read off without elimination, as
    a pair (d, v): v's entry at fc is d > 0, and v / d is the null vector
    that has 1 at fc and 0 at the other free columns."""
    d = lcm(*[row[pc] for row, pc in zip(rows, pivots) if row[fc]])
    v = [0] * ncols
    v[fc] = d
    for row, pc in zip(rows, pivots):
        if row[fc]:
            v[pc] = -row[fc] * (d // row[pc])
    return d, v


def _read_null_vectors(rows, pivots, ncols: int) -> list[tuple[int, list[int]]]:
    """Integer basis of the null space of canonical rows, one _null_vector
    per free column, in increasing column order."""
    return [_null_vector(rows, pivots, fc, ncols)
            for fc in sorted(set(range(ncols)).difference(pivots))]


def _null_vectors(rows, ncols: int) -> list[tuple[int, list[int]]]:
    """Integer basis of the null space {x : rows . x = 0}: one elimination,
    then the read-off (see _null_vector)."""
    return _read_null_vectors(*_echelon(rows), ncols)


def rref(rows):
    """Reduced row echelon form.

    Returns (reduced nonzero rows, pivot column indices).  The output is the
    unique canonical basis of the row space: pivot entries are 1, pivot
    columns are clear elsewhere, pivots strictly increase.
    """
    reduced, pivots = _echelon(rows)
    return [_over(row, row[c]) for row, c in zip(reduced, pivots)], pivots


def rank(rows) -> int:
    """Rank of the rows (any iterable of them).

    Nonzero rows whose leading columns are pairwise distinct are
    independent (a column permutation makes them triangular), so they are
    counted without elimination; otherwise _echelon decides.  A non-exact
    entry raises TypeError either way.
    """
    rows = list(rows)
    leads = set()
    for row in rows:
        if not _EXACT_TYPES.issuperset(map(type, row)):
            _scaled_row(row)  # raises TypeError on a non-exact entry
        lead = next(filter(None, row), None)
        if lead is not None:
            c = row.index(lead)
            if c in leads:
                return len(_echelon(rows)[1])
            leads.add(c)
    return len(leads)


def kernel_basis(rows, ncols: int):
    """Basis of the null space {x : rows . x = 0}, deterministic order."""
    return [_over(v, d) for d, v in _null_vectors(rows, ncols)]


def solve_columns(cols, target):
    """Coefficients x with sum x_q * cols[q] = target, or None.

    Free variables are set to zero, so the answer is deterministic even when
    the columns are dependent.
    """
    if not cols:
        return None if any(target) else ()
    ncols = len(cols)
    aug = [[col[i] for col in cols] + [target[i]] for i in range(len(cols[0]))]
    reduced, pivots = _echelon(aug)
    if ncols in pivots:
        return None
    x = [_ZERO] * ncols
    for row, pc in zip(reduced, pivots):
        if row[-1]:
            x[pc] = Fraction(row[-1], row[pc])
    return tuple(x)


def _inverse_rows(rows):
    """The rows of the inverse of the square matrix as integer pairs
    (d_k, w_k), row k being w_k / d_k with d_k > 0, read off one echelon of
    [A | I]; None when A is singular."""
    n = len(rows)
    reduced, pivots = _echelon([list(r) + [int(j == i) for j in range(n)]
                                for i, r in enumerate(rows)])
    if pivots[:n] != list(range(n)):
        return None
    return [(row[k], row[n:]) for k, row in enumerate(reduced)]


def invert_matrix(rows):
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("matrix is not square")
    inverse = _inverse_rows(rows)
    if inverse is None:
        raise ValueError("matrix is singular")
    return [_over(w, d) for d, w in inverse]


# ----------------------------------------------------------------------
# Subspaces.

class Subspace(Record):
    """A subspace of k^ambient, stored as its canonical integer rows.

    rows is the reduced echelon basis with each row scaled to a primitive
    integer tuple whose pivot entry is positive: pivots strictly increase
    top-down and pivot columns are zero in every other row.  That form is
    unique, so two Subspace values are equal iff they are the same
    subspace.  pivots holds each row's pivot column, found while the rows
    are validated; basis is the Fraction view with pivot entries 1, built
    on first read.  The zero space has no rows.  pivots is derived, so it
    is not a field: it takes no part in ==, hash or repr (but is _stored).
    """

    _fields = ("ambient", "rows")
    _stored = ("ambient", "rows", "pivots")

    def __init__(self, ambient: int, rows: tuple[tuple[int, ...], ...]):
        pivots = []
        for row in rows:
            if len(row) != ambient:
                raise ValueError("basis vector length does not match ambient")
            lead = next(filter(None, row), 0)
            p = row.index(lead) if lead else -1
            if lead <= 0 or (pivots and p <= pivots[-1]) or gcd(*row) != 1:
                raise ValueError("basis is not in reduced echelon form")
            # later rows are zero at p because their pivots come after it
            if pivots and any(other[p] for other in rows[:len(pivots)]):
                raise ValueError("basis is not fully reduced")
            pivots.append(p)
        _set_field(self, "ambient", ambient)
        _set_field(self, "rows", rows)
        _set_field(self, "pivots", tuple(pivots))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def is_zero(self) -> bool:
        return not self.rows

    @property
    def _is_coordinate(self) -> bool:
        """Whether every canonical row has one nonzero entry (a 1, the row
        being primitive with a positive pivot): no row has more than
        ambient - 1 zeros, so that is a count of zeros.  Not cached: the
        count costs less than a cached value's memory on every Subspace."""
        rows = self.rows
        return sum(map(tuple.count, rows, repeat(0))) == len(rows) * (self.ambient - 1)

    @cached_property
    def basis(self) -> tuple[Vec, ...]:
        """The canonical Fraction basis: each row over its pivot entry."""
        return tuple(_over(row, row[p]) for p, row in zip(self.pivots, self.rows))

    def _back_substitute(self, w) -> tuple[list[int], int]:
        """(r, s) with r / s = w minus its projection to the span.

        Against a coordinate subspace that is w with the pivot columns
        zeroed, and s = 1.  Otherwise fraction-free: each row with a
        nonzero entry of w at its pivot clears it by cross-multiplying
        with pivot/gcd, and s collects the factors.  w itself is not
        modified.
        """
        if self._is_coordinate:
            w = list(w)
            for p in self.pivots:
                w[p] = 0
            return w, 1
        s = 1
        for p, row in zip(self.pivots, self.rows):
            c = w[p]
            if c:
                a = row[p]
                g = gcd(a, c)
                if g > 1:
                    a, c = a // g, c // g
                w = [a * x - c * y for x, y in zip(w, row)]
                s *= a
        return w, s

    def contains_vector(self, v) -> bool:
        w, _ = _int_vector(v, self.ambient)
        return not any(self._back_substitute(w)[0])

    def contains(self, other: "Subspace") -> bool:
        """Whether other is a subspace of this one: every row of other
        back-substitutes to zero, except a row that is literally one of
        this space's canonical rows, which lies in it with no work.  On
        the coordinate flag every space of the flag in M is a tail of M's
        canonical rows (see deform.flag_within), so the checks among them
        are tuple lookups."""
        if other.ambient != self.ambient:
            raise ValueError("ambient mismatch")
        own = self.rows
        return other.dim <= self.dim and not any(
            any(self._back_substitute(row)[0]) for row in other.rows if row not in own)

    def restrict(self, a: "Subspace") -> "Subspace":
        """Rewrite a subspace a contained in this one in its coordinates.

        No elimination: a vector of this space leads at one of its pivots,
        so a's pivots are among them, and a's canonical rows read at these
        pivots are already in reduced echelon form with positive pivots;
        each only needs dividing by its content, and its local pivot is its
        first nonzero coordinate.  Containment is checked row by row as in
        contains: a row that is one of this space's canonical rows skips
        the back substitution (its coordinates are still read), any other
        row outside raises ValueError.
        """
        if a.ambient != self.ambient:
            raise ValueError("ambient mismatch")
        own, rows, pivots = self.rows, [], []
        for row in a.rows:
            if row not in own and any(self._back_substitute(row)[0]):
                raise ValueError("subspace is not contained in the chart space")
            coords = [row[p] for p in self.pivots]
            g = gcd(*coords)
            rows.append(tuple(x // g for x in coords) if g > 1 else tuple(coords))
            pivots.append(next((i for i, x in enumerate(coords) if x), -1))
        return Subspace._trusted(self.dim, tuple(rows), tuple(pivots))

    def __str__(self):
        if self.is_zero:
            return f"0 in k^{self.ambient}"
        rows = "; ".join(
            "(" + ", ".join(str(x) for x in row) + ")" for row in self.basis
        )
        return f"span{{{rows}}}"


def _of_length(vectors, ambient: int) -> list[tuple]:
    """The vectors as tuples, each checked to have length ambient."""
    vs = [tuple(v) for v in vectors]
    for v in vs:
        if len(v) != ambient:
            raise ValueError(f"expected vector of length {ambient}, got {len(v)}")
    return vs


def canonicalize(vectors, ambient: int) -> Subspace:
    """Span of the vectors, in canonical form, through rref.  Only intersect
    and limit_at_zero call it: the benchmark's tracer counts rref calls and
    its self-test looks for the rref span under those two.  Once the
    tracer counts eliminations instead, span replaces it there too."""
    reduced, pivots = rref(_of_length(vectors, ambient))
    # a row with pivot entry 1 is primitive once its denominators are cleared
    return Subspace._trusted(
        ambient, tuple([tuple(_scaled_row(row)[0]) for row in reduced]), tuple(pivots))


def span(ambient: int, *vectors) -> Subspace:
    """Span of the vectors, in canonical form, straight from _echelon: its
    rows are already the canonical rows (primitive, positive pivots,
    reduced), so no Fraction is built.  Equal to canonicalize, and the
    library's one way to build a subspace from vectors."""
    reduced, pivots = _echelon(_of_length(vectors, ambient))
    return Subspace._trusted(ambient, tuple(map(tuple, reduced)), tuple(pivots))


def zero_subspace(ambient: int) -> Subspace:
    return Subspace._trusted(ambient, (), ())


def full_space(ambient: int) -> Subspace:
    return coordinate_subspace(ambient, range(1, ambient + 1))


def coordinate_subspace(ambient: int, indices) -> Subspace:
    """Span of the standard basis vectors e_i for i in indices (1-indexed)."""
    return span(ambient, *[unit_vector(ambient, i) for i in indices])


def _unit_row(n: int, p: int) -> tuple[int, ...]:
    """The canonical row of e_{p+1} in k^n: 1 at column p, 0 elsewhere."""
    return (0,) * p + (1,) + (0,) * (n - 1 - p)


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """a cap b.  Two coordinate subspaces meet in the coordinate subspace
    on their common pivots, with no elimination; otherwise the null
    vectors of [a | b] give the intersection, spanned by canonicalize."""
    if a.ambient != b.ambient:
        raise ValueError("ambient mismatch")
    if a.is_zero or b.is_zero:
        return zero_subspace(a.ambient)
    if a._is_coordinate and b._is_coordinate:
        n, common = a.ambient, sorted(set(a.pivots) & set(b.pivots))
        return Subspace._trusted(n, tuple([_unit_row(n, p) for p in common]),
                                 tuple(common))
    cols = a.rows + b.rows
    # null vectors (u, v) of the matrix with those columns give points
    # sum u_q a_q = -sum v_q b_q in the intersection
    gens = []
    for _, kv in _null_vectors(list(zip(*cols)), len(cols)):
        w = [0] * a.ambient
        for coeff, row in zip(kv, a.rows):
            if coeff:
                w = [x + coeff * y for x, y in zip(w, row)]
        gens.append(w)
    return canonicalize(gens, a.ambient)


def sum_span(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient != b.ambient:
        raise ValueError("ambient mismatch")
    return span(a.ambient, *a.rows, *b.rows)


def quotient_subspace(a: Subspace, k: Subspace) -> Subspace:
    """Image of a in V/k, written in the coordinate chart on the non-pivot
    positions of k.  For k = 0 this is a itself."""
    if a.ambient != k.ambient:
        raise ValueError("ambient mismatch")
    if k.is_zero:
        return a
    kp = set(k.pivots)
    keep = [i for i in range(a.ambient) if i not in kp]
    gens = []
    for row in a.rows:
        r, _ = k._back_substitute(row)
        gens.append([r[i] for i in keep])
    return span(len(keep), *gens)


def quotient_dim(a: Subspace, k: Subspace) -> int:
    """dim of the image of a in V/k, without building it: the rank of a's
    rows back-substituted modulo k.  Those remainders vanish at k's pivot
    columns, so this is quotient_subspace(a, k).dim."""
    if a.ambient != k.ambient:
        raise ValueError("ambient mismatch")
    if k.is_zero:
        return a.dim
    return rank([k._back_substitute(row)[0] for row in a.rows])


def annihilator_basis(s: Subspace):
    """Covectors (as plain tuples) vanishing on s, deterministic order:
    kernel_basis of s's rows, read off them directly, since they are
    already canonical (for the zero space, the unit covectors)."""
    return [_over(v, d) for d, v in _read_null_vectors(s.rows, s.pivots, s.ambient)]


# ----------------------------------------------------------------------
# Complete flags.

class Flag(Record):
    """A complete flag F_1 > F_2 > ... > F_{n+1} = 0 with dim F_j = n+1-j.

    spaces[j-1] is F_j.  Indices beyond n+1 are clamped to the zero space by
    subspace(), which keeps index arithmetic like F_{a+s} total.
    """

    _fields = ("ambient", "spaces")

    def __init__(self, ambient: int, spaces: tuple[Subspace, ...]):
        n = ambient
        if len(spaces) != n + 1:
            raise ValueError(f"flag needs {n + 1} subspaces F_1..F_{n + 1}")
        for j, s in enumerate(spaces, start=1):
            if s.ambient != n:
                raise ValueError("flag subspace has wrong ambient")
            if s.dim != n + 1 - j:
                raise ValueError(f"dim F_{j} must be {n + 1 - j}")
            if j > 1 and not spaces[j - 2].contains(s):
                raise ValueError(f"F_{j} is not contained in F_{j - 1}")
        _set_field(self, "ambient", ambient)
        _set_field(self, "spaces", spaces)

    def subspace(self, j: int) -> Subspace:
        if j < 1:
            raise ValueError("flag indices start at 1")
        if j > self.ambient + 1:
            return zero_subspace(self.ambient)
        return self.spaces[j - 1]

    @cached_property
    def _adapted_rows(self) -> tuple[tuple[int, ...], ...]:
        """Integer vectors w_1, ..., w_n with F_j spanned by w_j, ..., w_n:
        w_j is the first canonical integer row of F_j outside F_{j+1} (a
        hyperplane of F_j by __init__), so the choice is deterministic."""
        return tuple(next(row for row in self.spaces[j].rows
                          if not self.spaces[j + 1].contains_vector(row))
                     for j in range(self.ambient))

    @cached_property
    def adapted_basis(self) -> tuple[Vec, ...]:
        """The adapted rows as Fractions, each over its (leading) pivot
        entry: the canonical basis rows u_1, ..., u_n of the flag spaces."""
        return tuple(_over(row, next(filter(None, row))) for row in self._adapted_rows)

    @cached_property
    def _adapted_coords(self) -> tuple[tuple[int, ...], ...]:
        """Integer covectors phi_1..phi_n, phi_k a multiple of the k-th
        adapted coordinate, so F_j is cut out by phi_1..phi_{j-1}: the rows
        of the inverse of the matrix W with columns w_1..w_n (_inverse_rows),
        each scaled to a primitive integer vector.  Each w_k is a positive
        multiple of u_k, so each row of W^-1 is a positive multiple of the
        same row of the inverse of the matrix with columns u_1..u_n."""
        inverse = _inverse_rows(list(zip(*self._adapted_rows)))
        return tuple(tuple(_int_row(w)) for _, w in inverse)

    @cached_property
    def _coordinate_order(self) -> tuple[int, ...] | None:
        """(c_1, ..., c_n) when each adapted covector phi_k is the unit
        covector e_{c_k}, as on a flag of coordinate subspaces: the
        identity on standard_flag, the reversal on reversed_flag.  Then
        phi_k(v) = v[c_k], so framing v permutes its entries.  None when
        some covector is not a unit covector, as on a random flag."""
        zeros, order = self.ambient - 1, []
        for phi in self._adapted_coords:
            c = next(i for i, x in enumerate(phi) if x)
            if phi[c] != 1 or phi.count(0) != zeros:
                return None
            order.append(c)
        return tuple(order)

    @cached_property
    def _is_coordinate(self) -> bool:
        """Whether the coordinate order is the identity, as on the
        coordinate flag (F_j spanned by e_j, ..., e_n): then F_j is where
        the first j-1 coordinates vanish, and a subspace's canonical rows
        are already in adapted coordinates."""
        return self._coordinate_order == tuple(range(self.ambient))

    def frame(self, v) -> list[int]:
        """v in adapted coordinates, (phi_1(v), ..., phi_n(v)) with the
        integer adapted covectors: a linear map that carries each F_j onto
        the coordinate flag's F_j, spanned by e_j, ..., e_n."""
        return [sum(map(mul, v, phi)) for phi in self._adapted_coords]

    def meet_dims(self, L: Subspace) -> tuple[int, ...]:
        """(dim F_1 cap L, ..., dim F_{n+1} cap L): in adapted coordinates
        F_j is where the first j-1 coordinates vanish, so dim F_j cap L
        counts the pivots of L there at or after column j (the Schubert
        position of L; Fulton, Young Tableaux, 9.4).  On the coordinate
        flag those pivots are L.pivots, read with no product and no
        elimination; on a flag with another coordinate order (the
        reversed flag) they come from one elimination of L's rows with
        their columns in that order, and on any other flag from one
        elimination of L's framed rows.  The pivots strictly increase, so
        each count is dim L minus the bisect_left position of the
        column."""
        if L.ambient != self.ambient:
            raise ValueError("ambient mismatch")
        if self._is_coordinate:
            pivots = L.pivots
        elif self._coordinate_order is not None:
            order = self._coordinate_order
            pivots = _echelon([[row[c] for c in order] for row in L.rows])[1]
        else:
            pivots = _echelon([self.frame(row) for row in L.rows])[1]
        d = len(pivots)
        return tuple([d - bisect_left(pivots, c) for c in range(self.ambient + 1)])

    def generic_meet_dims(self, fam: "PolyFamily") -> tuple[int, ...]:
        """meet_dims of fam's fibre L_t for all but finitely many t: the
        componentwise least meet_dims over D+1 of fam's full-rank points, D
        the sum of its column degrees.  Where dim L_t = d, dim F_j cap L_t
        = dim F_j + d - rank[F_j; L_t]; that rank never exceeds its generic
        value and reaches it off the zeros of a minor of degree at most D,
        so at one of any D+1 points.  Generic rank below d: ValueError."""
        D = sum(deg for _, deg, _ in fam._forms)
        dims = [self.meet_dims(span(fam.ambient, *cols))
                for _, cols in islice(fam.full_rank_points(), D + 1)]
        if not dims:
            raise ValueError(f"family does not have generic rank {fam.ncols}")
        return tuple(map(min, zip(*dims)))


def flag_from_basis(vectors) -> Flag:
    """Flag with F_j spanned by vectors[j-1:]; vectors must be a basis.
    Each vector is read as an integer multiple of itself, so the rank
    check and every F_j are integer eliminations (span)."""
    n = len(vectors)
    rows = [_int_vector(v, n)[0] for v in vectors]
    if rank(rows) != n:
        raise ValueError("vectors do not form a basis")
    spaces = [span(n, *rows[j:]) for j in range(n)]
    spaces.append(zero_subspace(n))
    return Flag(n, tuple(spaces))


# ----------------------------------------------------------------------
# Polynomials in one parameter t, as coefficient tuples (lowest degree
# first).

def ptrim(c) -> Poly:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _column_form(den: int, polys) -> tuple:
    """(den, deg, polys) for the column of integer polys over den, trimmed
    and reduced to den > 0 coprime to the coefficients: den is then the lcm
    of the column's Fraction denominators, so equal columns have one form."""
    polys = [ptrim(p) for p in polys]
    g = gcd(den, *[x for p in polys for x in p])
    if den < 0:
        g = -g
    if g != 1:
        den //= g
        polys = [tuple([x // g for x in p]) for p in polys]
    return den, max([len(p) - 1 for p in polys] + [0]), tuple(polys)


class PolyFamily(Record):
    """A family of subspaces spanned by columns with polynomial entries.

    Stored as one integer form (den, deg, polys) per column (_column_form):
    entry i is the Poly polys[i] / den in t.  The constructor converts Poly
    columns once; integer forms go to _trusted as _forms, which _stored names.
    cols, the Fraction view that ==, hash and repr read, is built on first
    read.  A maximal minor has degree at most D, the sum of the column
    degrees, so a nonzero one vanishes at D points at most: the rank at any
    D+1 points decides the generic rank.
    """

    _fields = ("ambient", "cols")
    _stored = ("ambient", "_forms")

    def __init__(self, ambient: int, cols: tuple[tuple[Poly, ...], ...]):
        forms = []
        for col in cols:
            if len(col) != ambient:
                raise ValueError("column length does not match ambient")
            ints, den = _scaled_row([c for p in col for c in p])
            flat = iter(ints)
            forms.append(_column_form(den, [list(islice(flat, len(p))) for p in col]))
        _set_field(self, "ambient", ambient)
        _set_field(self, "_forms", tuple(forms))

    @cached_property
    def cols(self) -> tuple[tuple[Poly, ...], ...]:
        return tuple(tuple(tuple(Fraction(c, den) for c in p) for p in polys)
                     for den, _, polys in self._forms)

    @property
    def ncols(self) -> int:
        return len(self._forms)

    def tail(self, q: int) -> "PolyFamily":
        """The family on the columns from index q on (cols[q:]), sharing
        this family's forms: a column's form depends on that column alone."""
        return PolyFamily._trusted(self.ambient, self._forms[q:])

    def _int_columns(self, t) -> list[list[int]]:
        """The columns at t = p/q as integer vectors, each a nonzero
        multiple of its value, so their span is the fibre at t.  A column
        of degree D evaluates its integer coefficients c_k homogenised,
        as sum_k c_k p^k q^(D-k)."""
        t = frac(t)
        p, q = t.numerator, t.denominator
        powers = {}
        out = []
        for _, deg, col in self._forms:
            pw = powers.get(deg)
            if pw is None:
                pw = powers[deg] = [p ** k * q ** (deg - k) for k in range(deg + 1)]
            out.append([sum(map(mul, poly, pw)) for poly in col])
        return out

    def at(self, t) -> Subspace:
        return span(self.ambient, *self._int_columns(t))

    def full_rank_points(self):
        """(t, integer columns at t) for t = 1, ..., 2D+1 wherever the
        columns are independent: none at all when the generic rank is below
        ncols, and at least D+1 otherwise."""
        D = sum(deg for _, deg, _ in self._forms)
        for t in range(1, 2 * D + 2):
            cols = self._int_columns(t)
            if rank(cols) == self.ncols:
                yield t, cols

    def max_degree(self) -> int:
        return max((deg for _, deg, _ in self._forms), default=0)


def family_from_vectors(ambient: int, columns) -> PolyFamily:
    """Build a PolyFamily from columns whose entries are Poly-like iterables."""
    return PolyFamily(ambient, tuple(
        tuple(tuple(frac(c) for c in entry) for entry in col) for col in columns))


def constant_family(s: Subspace) -> PolyFamily:
    return PolyFamily._trusted(s.ambient, tuple([
        _column_form(row[p], [(x,) for x in row]) for p, row in zip(s.pivots, s.rows)]))


def limit_at_zero(fam: PolyFamily) -> Subspace:
    """Flat limit at t=0 of the span of the family's columns.

    Column operations over Z[t], on the family's integer columns: whenever
    the columns become dependent at t=0, an integer combination of them
    vanishes there, so the combination is divisible by t; divide out t and
    the content and continue.  Rescaling a column by a nonzero constant
    changes neither its span nor which columns a vanishing combination
    involves.  The loop must stop because each division strictly drops the
    t-order of a nonzero maximal minor.  A family of generic rank below its
    column count, which no full-rank point shows, raises ValueError; a rank
    of d at t = 1 already proves generic rank d.
    """
    d = fam.ncols
    if d == 0:
        return zero_subspace(fam.ambient)
    if next(fam.full_rank_points(), None) is None:
        raise ValueError(f"family does not have generic rank {d}")
    cols = [list(col) for _, _, col in fam._forms]
    budget = d * (fam.max_degree() + 2) + 8
    while True:
        ev = [[p[0] if p else 0 for p in col] for col in cols]
        null = kernel_basis(list(zip(*ev)), d)
        if not null:
            return canonicalize(ev, fam.ambient)
        c = _int_row(null[0])
        used = [q for q in range(d) if c[q]]
        combo = []
        for i in range(fam.ambient):
            acc = [0] * max(len(cols[q][i]) for q in used)
            for q in used:
                for k, x in enumerate(cols[q][i]):
                    acc[k] += c[q] * x
            combo.append(ptrim(acc))
        vals = [next(k for k, x in enumerate(p) if x) for p in combo if p]
        if not vals:
            raise ValueError("columns are dependent as polynomials")
        v = min(vals)
        if v < 1:
            raise VerificationError("combination vanishing at 0 must be divisible by t")
        g = gcd(*[x for p in combo for x in p])
        cols[used[-1]] = [tuple(x // g for x in p[v:]) for p in combo]
        budget -= 1
        if budget < 0:
            raise RuntimeError("limit computation failed to terminate")


# ----------------------------------------------------------------------
# Serialization helpers shared by the CLI.

def subspace_to_json(s: Subspace) -> dict:
    return {
        "ambient": s.ambient,
        "basis": [[str(x) for x in row] for row in s.basis],
    }


def subspace_from_json(d) -> Subspace:
    """The subspace that subspace_to_json wrote.  A document that is not an
    object with an integer "ambient" and a list of rows in "basis", or an
    entry that is not a number, raises ValueError."""
    if not isinstance(d, dict):
        d = {}
    ambient, basis = d.get("ambient"), d.get("basis")
    if (type(ambient) is not int or not isinstance(basis, list)
            or not all(isinstance(row, list) for row in basis)):
        raise ValueError('subspace JSON must be an object with an integer '
                         '"ambient" and a list of rows in "basis"')
    try:
        rows = [[Fraction(x) for x in row] for row in basis]
    except (TypeError, OverflowError):
        raise ValueError("subspace JSON basis entries must be rational numbers") from None
    return span(ambient, *rows)


def family_to_json(fam: PolyFamily) -> dict:
    return {
        "ambient": fam.ambient,
        "cols": [
            [[str(c) for c in p] for p in col] for col in fam.cols
        ],
    }
