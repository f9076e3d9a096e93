"""Semistandard tableaux, row insertion, and Schur polynomial algebra.

The combinatorial shadow of the geometry: single-row insertion realizes the
same branching tree as the sequence module, and products of Schur polynomials
with complete homogeneous ones expand by exactly the Pieri shapes.  Schur
polynomials live in a fixed number of variables as sparse exponent maps.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from functools import lru_cache, wraps

from .exactla import Record, StageCheck, Verdict, _set_field
from .seqcomb import (
    _integer,
    _integers,
    _tableau_count,
    alpha_of,
    lambda_of,
    pieri_set,
    tree_chains,
    trim_partition,
)

Partition = tuple[int, ...]


class Tableau(Record):
    """Semistandard tableau: rows weakly increase, columns strictly increase,
    entries in 1..entry_bound.  Shapes are stored without empty rows.  Entries
    and entry_bound go through operator.index and are stored as int; a
    negative entry_bound raises ValueError."""

    _fields = ("rows", "entry_bound")

    def __init__(self, rows: tuple[tuple[int, ...], ...], entry_bound: int):
        rows = tuple(_integers(r, "tableau entries") for r in rows)
        entry_bound = _integer(entry_bound, "entry_bound")
        if entry_bound < 0:
            raise ValueError(f"entry_bound must be nonnegative, got {entry_bound}")
        prev_len = None
        for ri, row in enumerate(rows):
            if not row:
                raise ValueError("empty rows are not stored")
            if prev_len is not None and len(row) > prev_len:
                raise ValueError("row lengths must weakly decrease")
            prev_len = len(row)
            for ci, x in enumerate(row):
                if not 1 <= x <= entry_bound:
                    raise ValueError(f"entry {x} outside 1..{entry_bound}")
                if ci > 0 and row[ci - 1] > x:
                    raise ValueError("rows must weakly increase")
                if ri > 0 and rows[ri - 1][ci] >= x:
                    raise ValueError("columns must strictly increase")
        _set_field(self, "rows", rows)
        _set_field(self, "entry_bound", entry_bound)

    @property
    def shape(self) -> Partition:
        return tuple(len(r) for r in self.rows)

    def content(self) -> tuple[int, ...]:
        counts = [0] * self.entry_bound
        for row in self.rows:
            for x in row:
                counts[x - 1] += 1
        return tuple(counts)

    def __str__(self):
        if not self.rows:
            return "(empty)"
        return " / ".join("".join(str(x) for x in r) for r in self.rows)

    def to_json(self) -> dict:
        return {"rows": [list(r) for r in self.rows], "entry_bound": self.entry_bound}


def _shape_cached(fn):
    """fn memoised on its shape after trim_partition and its m through
    operator.index: both are validated before the cache lookup, so (2, 1.0),
    equal to (2, 1) as a cache key, is refused whether or not (2, 1) was
    cached, and so is m = 3.0.  cache_info and cache_clear are the cache's."""
    cached = lru_cache(maxsize=None)(fn)

    @wraps(fn)
    def wrapper(shape: Partition, m: int):
        return cached(trim_partition(shape), _integer(m, "number of variables"))

    wrapper.cache_info, wrapper.cache_clear = cached.cache_info, cached.cache_clear
    return wrapper


def ssyt_enumerate(shape: Partition, m: int) -> tuple[Tableau, ...]:
    """All semistandard tableaux of the given shape with entries <= m.

    Straight backtracking cell by cell, row-major, each entry at least the
    one to its left and greater than the one above it, so every tableau is
    semistandard and built unchecked.  A shape with more than m rows admits
    none.  The shape goes through trim_partition and m through
    operator.index; raises ValueError for m < 0.  Not cached: no caller
    enumerates a shape only to count its tableaux.
    """
    shape, m = trim_partition(shape), _integer(m, "number of variables")
    if m < 0:
        raise ValueError(f"number of variables must be nonnegative, got {m}")
    if len(shape) > m:
        return ()
    rows = [[0] * ln for ln in shape]
    cells = [(r, c) for r, ln in enumerate(shape) for c in range(ln)]
    out = []

    def fill(k):
        if k == len(cells):
            out.append(Tableau._trusted(tuple(map(tuple, rows)), m))
            return
        r, c = cells[k]
        lo = 1
        if c > 0:
            lo = max(lo, rows[r][c - 1])
        if r > 0:
            lo = max(lo, rows[r - 1][c] + 1)
        for x in range(lo, m + 1):
            rows[r][c] = x
            fill(k + 1)
        rows[r][c] = 0

    fill(0)
    return tuple(out)


def row_insert(t: Tableau, word) -> tuple[Tableau, tuple[Partition, ...]]:
    """Insert a weakly increasing word letter by letter, bumping rows.

    Each letter replaces the leftmost strictly larger entry of the first row
    (the displaced entry recurses into the next row) or lands at the end.
    Returns the final tableau and the chain of shapes, starting with the
    shape of t and recording one shape per letter.
    """
    word = _integers(word, "letters")
    for i, x in enumerate(word):
        if not 1 <= x <= t.entry_bound:
            raise ValueError(f"letter {x} outside 1..{t.entry_bound}")
        if i > 0 and word[i - 1] > x:
            raise ValueError("word must weakly increase")
    rows = [list(r) for r in t.rows]
    chain = [t.shape]
    for x in word:
        cur = x
        r = 0
        while True:
            if r == len(rows):
                rows.append([cur])
                break
            idx = bisect_right(rows[r], cur)
            if idx == len(rows[r]):
                rows[r].append(cur)
                break
            rows[r][idx], cur = cur, rows[r][idx]
            r += 1
        chain.append(tuple(len(r_) for r_ in rows))
    result = Tableau(tuple(tuple(r) for r in rows), t.entry_bound)
    return result, tuple(chain)


def pieri_shapes(lam: Partition, b: int, m: int) -> tuple[Partition, ...]:
    """Shapes mu = lam plus a horizontal b-strip with at most m rows.

    Transported from the sequence module through the partition dictionary,
    with the ambient chosen large enough that nothing is cut off.
    """
    lam = trim_partition(lam)
    top = (lam[0] if lam else 0) + b + m
    a = alpha_of(lam, top, m)
    return tuple(lambda_of(g) for g in pieri_set(a, b))


def shape_tree_chains(lam: Partition, b: int, m: int) -> tuple[tuple[Partition, ...], ...]:
    """Root-to-leaf chains of the depth-b branching tree, at shape level."""
    lam = trim_partition(lam)
    top = (lam[0] if lam else 0) + b + m
    _, chains = tree_chains(alpha_of(lam, top, m), b)
    return tuple(tuple(lambda_of(x) for x in chain) for chain in chains)


class BijectionReport(Verdict):
    """Row insertion of each (SSYT of shape lam, b-strip) pair in m letters:
    the counts are (shape, int) pairs, and each of the CLAUSES is a bool."""

    _fields = ("lam", "b", "m", "pairs_total", "image_counts", "expected_counts",
               "injective", "content_ok", "shapes_ok", "counts_ok", "chains_ok",
               "chains_complete")

    CLAUSES = ("injective", "content_ok", "shapes_ok", "counts_ok",
               "chains_ok", "chains_complete")

    @property
    def checks(self) -> tuple:
        return tuple(StageCheck(name, getattr(self, name)) for name in self.CLAUSES)

    def to_json(self) -> dict:
        return {
            "lam": list(self.lam),
            "b": self.b,
            "m": self.m,
            "pairs_total": self.pairs_total,
            "image_counts": [[list(s), c] for s, c in self.image_counts],
            "expected_counts": [[list(s), c] for s, c in self.expected_counts],
            "injective": self.injective,
            "content_ok": self.content_ok,
            "shapes_ok": self.shapes_ok,
            "counts_ok": self.counts_ok,
            "chains_ok": self.chains_ok,
            "chains_complete": self.chains_complete,
            "passed": self.passed,
        }


def pieri_bijection_check(lam: Partition, b: int, m: int) -> BijectionReport:
    """Insert every single-row tableau of size b into every tableau of shape
    lam (entries <= m) and certify the correspondence is a bijection.

    Checks: the map is injective; content is preserved; every image shape is
    a Pieri shape, with as many images as the hook-content count; the
    recorded shape chains are exactly the root-to-leaf chains of the
    branching tree.  Raises ValueError for b < 0 and for m < 1.
    """
    if b < 0:
        raise ValueError(f"row length must be nonnegative, got {b}")
    if m < 1:
        raise ValueError(f"number of letters m must be positive, got {m}")
    lam = trim_partition(lam)
    starts = ssyt_enumerate(lam, m)
    strips = ssyt_enumerate((b,) if b else (), m)
    results = []
    contents_ok = True
    for s in starts:
        for t in strips:
            word = t.rows[0] if t.rows else ()
            res, chain = row_insert(s, word)
            results.append((res, chain))
            want = tuple(a + c for a, c in zip(s.content(), t.content()))
            if res.content() != want:
                contents_ok = False
    pairs_total = len(results)
    injective = len({r.rows for r, _ in results}) == pairs_total
    allowed = pieri_shapes(lam, b, m)
    # a tableau's shape, and so each shape of a chain, has no empty row
    img = Counter(r.shape for r, _ in results)
    shapes_ok = set(img) <= set(allowed)
    expected = {mu: _tableau_count(mu, m) for mu in allowed}
    counts_ok = img == expected
    tree_set = set(shape_tree_chains(lam, b, m))
    chain_set = {chain for _, chain in results}
    chains_ok = chain_set <= tree_set
    chains_complete = chain_set == tree_set
    order = sorted(img, reverse=True)
    return BijectionReport(
        lam,
        b,
        m,
        pairs_total,
        tuple((mu, img[mu]) for mu in order),
        tuple((mu, expected[mu]) for mu in sorted(expected, reverse=True)),
        injective,
        contents_ok,
        shapes_ok,
        counts_ok,
        chains_ok,
        chains_complete,
    )


class SparsePoly:
    """Polynomial in a fixed number of variables as {exponent tuple: Fraction}.

    Zero coefficients are never stored.  Supports the handful of exact ring
    operations the Schur computations need.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for e, c in (terms.items() if isinstance(terms, dict) else terms):
                e = _integers(e, "exponents")
                if len(e) != nvars:
                    raise ValueError("exponent length does not match nvars")
                c = c if isinstance(c, Fraction) else Fraction(c)
                if c:
                    clean[e] = clean.get(e, Fraction(0)) + c
                    if not clean[e]:
                        del clean[e]
        self.terms = {e: c for e, c in clean.items() if c}

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def one(cls, nvars):
        return cls(nvars, {(0,) * nvars: 1})

    def coeff(self, e) -> Fraction:
        return self.terms.get(tuple(e), Fraction(0))

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, SparsePoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return SparsePoly(self.nvars, out)

    def __sub__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) - c
        return SparsePoly(self.nvars, out)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return SparsePoly(
                self.nvars, {e: c * other for e, c in self.terms.items()}
            )
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return SparsePoly(self.nvars, out)

    __rmul__ = __mul__

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def leading_exponent(self):
        return max(self.terms)

    def is_symmetric(self) -> bool:
        """Invariance under permuting the variables.

        Terms are grouped by sorted exponent; each group must carry a single
        coefficient and be a full permutation orbit.
        """
        groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for e in self.terms:
            groups.setdefault(tuple(sorted(e, reverse=True)), []).append(e)
        for rep, members in groups.items():
            cs = {self.terms[e] for e in members}
            if len(cs) != 1:
                return False
            if len(members) != _orbit_size(rep):
                return False
        return True

    def to_json(self) -> dict:
        """{exponents comma-joined: coefficient}; the monomial of no
        variables, whose join is empty, is keyed "()"."""
        return {
            ",".join(str(x) for x in e) or "()": str(c)
            for e, c in sorted(self.terms.items())
        }

    def __repr__(self):
        return f"SparsePoly({self.nvars}, {self.terms!r})"


def _orbit_size(exponent) -> int:
    from math import factorial

    mult: dict[int, int] = {}
    for x in exponent:
        mult[x] = mult.get(x, 0) + 1
    size = factorial(len(exponent))
    for v in mult.values():
        size //= factorial(v)
    return size


@_shape_cached
def schur_expand(lam: Partition, m: int) -> SparsePoly:
    """Schur polynomial of shape lam in m variables: sum of x^T over SSYT.

    Zero when lam has more than m parts; one for the empty shape; m < 0 is a ValueError.
    """
    out: dict[tuple[int, ...], Fraction] = {}
    for t in ssyt_enumerate(lam, m):
        e = t.content()
        out[e] = out.get(e, Fraction(0)) + 1
    return SparsePoly(m, out)


def complete_homogeneous(b: int, m: int) -> SparsePoly:
    """h_b in m variables (the single-row Schur polynomial); h_0 = 1."""
    if b < 0:
        raise ValueError("degree must be nonnegative")
    return schur_expand((b,) if b else (), m)


def schur_decompose(p: SparsePoly, m: int) -> dict[Partition, int]:
    """Write a symmetric polynomial as an integer Schur combination.

    Greedy: subtract coeff * schur at the lexicographically largest exponent
    until nothing is left.  Raises for non-symmetric input, for coefficients
    that fail to be integers, and (guarded by a step counter) for input that
    is not a polynomial in the Schur basis at all.
    """
    if p.nvars != m:
        raise ValueError("variable count mismatch")
    if not p.is_symmetric():
        raise ValueError("polynomial is not symmetric")
    work = p
    out: dict[Partition, int] = {}
    guard = (p.total_degree() + 1) ** m + len(p.terms) + 16
    while work:
        e = work.leading_exponent()
        lam = trim_partition(e)
        c = work.coeff(e)
        work = work - schur_expand(lam, m) * c
        if c.denominator != 1:
            raise ValueError(f"non-integer Schur coefficient {c} at {lam}")
        out[lam] = out.get(lam, 0) + c.numerator
        guard -= 1
        if guard < 0:
            raise RuntimeError("Schur decomposition did not terminate")
    return {lam: c for lam, c in out.items() if c}


def chow_project(expansion: dict[Partition, int], n: int, m: int) -> dict[Partition, int]:
    """Drop Schur terms whose first part exceeds n-m (classes that die in the
    m-plane Grassmannian of k^n)."""
    out = {}
    for lam, c in expansion.items():
        lam = trim_partition(lam)
        if not lam or lam[0] <= n - m:
            out[lam] = c
    return out
