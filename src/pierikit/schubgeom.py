"""Schubert conditions on m-planes, their incidence cells, and first-order data.

Everything is exact: membership predicates read the flag position of a
subspace (Flag.meet_dims, dim F_j cap L for every j from at most one
elimination), witness subspaces are built vector by vector and
post-verified, and tangent codimensions come from literal rank
computations on the space of maps H -> V/H.  Vectors are integer rows
throughout; vector_avoiding returns its vector as Fractions.
"""

from __future__ import annotations

import random
from functools import lru_cache

from .exactla import (
    Flag,
    GenericityError,
    Record,
    StageCheck,
    Subspace,
    Verdict,
    VerificationError,
    _over,
    _read_null_vectors,
    _scaled_lift,
    _tail_flag,
    _unit_row,
    intersect,
    quotient_dim,
    quotient_subspace,
    rank,
    span,
    sum_span,
)
from .seqcomb import DecSeq, first_diff_index, pieri_set

IMPROPER = "Improper"
TRANSVERSE_IRREDUCIBLE = "TransverseIrreducible"
TRANSVERSE_REDUCIBLE = "TransverseReducible"
TRANSVERSE_OTHER = "TransverseOther"


# ---------------------------------------------------------------------------
# flags


@lru_cache(maxsize=None)
def standard_flag(n: int) -> Flag:
    """The descending coordinate flag: space j is spanned by e_j, ..., e_n.

    Built once per n and shared: Flag and Subspace are frozen.  A negative
    n raises ValueError.
    """
    return _tail_flag(n, [_unit_row(n, p) for p in range(n)])


def random_flag(n: int, seed: int = 0) -> Flag:
    """Flag on a seeded random integer basis: n rows with entries in -9..9,
    drawn again until they form a basis.  Each draw is built in one pass,
    tails from the bottom (exactla._tail_flag), which refuses a dependent
    draw with no separate rank check.  A negative n raises ValueError."""
    rng = random.Random(seed)
    while True:
        rows = [tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n)]
        flag = _tail_flag(n, rows)
        if flag is not None:
            return flag


def adapted_basis(flag: Flag) -> tuple:
    """The flag's cached Flag.adapted_basis."""
    return flag.adapted_basis


def meets_properly(L: Subspace, flag: Flag) -> bool:
    """Generic intersection dimensions with every flag space:
    dim F_j cap L = max(0, dim L + 1 - j)."""
    return all(d == max(0, L.dim - c) for c, d in enumerate(flag.meet_dims(L)))


# ---------------------------------------------------------------------------
# membership predicates


def _check_same_ambient(a: DecSeq, flag: Flag) -> None:
    """ValueError unless the sequence and the flag live in the same k^n: a
    sequence of another ambient space indexes no Schubert condition on the
    flag, so the predicates refuse it rather than answer False."""
    if a.n != flag.ambient:
        raise ValueError("ambient dimensions disagree")


def schubert_member(H: Subspace, a: DecSeq, flag: Flag) -> bool:
    """Does the m-plane H satisfy dim H meet F_{a_j} >= j for all j?

    Computed twice, on disjoint code paths in the linear algebra, and
    VerificationError when they disagree.  The first reads the flag
    position of H (Flag.meet_dims: on the coordinate flag, H's pivots; on
    another flag, the leading columns of H's rows in adapted coordinates
    when they are distinct, else an elimination).  The second goes
    through quotients: the image of H in V/F_{a_j} has dimension at most
    m-j, a rank modulo F_{a_j} by quotient_dim, which back-substitutes
    H's rows against F_{a_j} (on a coordinate F_{a_j}, reads them at its
    stored free columns) and finds the leading columns of the remainders
    itself; it never reads H's pivots or its flag position.  A sequence
    and a flag of different ambient dimensions raise ValueError.
    """
    _check_same_ambient(a, flag)
    m = a.m
    if H.dim != m:
        raise ValueError(f"expected a {m}-plane, got dim {H.dim}")
    meets = flag.meet_dims(H)
    primary = all(meets[aj - 1] >= j for j, aj in enumerate(a.entries, 1))
    dual = all(quotient_dim(H, flag.subspace(aj)) <= m - j
               for j, aj in enumerate(a.entries, 1))
    if primary != dual:
        raise VerificationError("intersection and quotient tests disagree")
    return primary


def x_member(H: Subspace, b: DecSeq, j: int, flag: Flag, L: Subspace) -> bool:
    """Membership in the incidence subvariety: in the Schubert set of b and
    meeting L inside flag space b_j.  A sequence and a flag of different
    ambient dimensions raise ValueError (in schubert_member)."""
    if not 1 <= j <= b.m:
        raise ValueError(f"position {j} out of range")
    if not schubert_member(H, b, flag):
        return False
    fj = flag.subspace(b.entries[j - 1])
    return intersect(intersect(H, fj), L).dim >= 1


# ---------------------------------------------------------------------------
# the trichotomy classifier


class DimEntry(Record):
    """Row j of a classification: a_j, dim F_{a_j} cap L, its critical value."""

    _fields = ("j", "flag_index", "meet_dim", "critical")


class Classification(Record):
    """A verdict string, its DimEntries and the rows where a meet is critical."""

    _fields = ("verdict", "entries", "equality_set", "s")

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "s": self.s,
            "table": [
                {
                    "j": e.j,
                    "flag_index": e.flag_index,
                    "dim": e.meet_dim,
                    "critical": e.critical,
                }
                for e in self.entries
            ],
            "equality_set": list(self.equality_set),
        }


def classify_pieri(a: DecSeq, flag: Flag, L: Subspace, s: int) -> Classification:
    """Sort the pair (flag, L) into the trichotomy governing the intersection
    of the Schubert set of a with the special condition on L.

    Verdicts, tested in this order:
      Improper: some nonzero meet exceeds its critical dimension.
      TransverseIrreducible: strictly sub-critical or zero meets below the
        last row, and the last flag space meets L properly.
      TransverseReducible: nonzero critical equality at every row; the
        intersection then breaks into one piece per equality row.
      TransverseOther: transverse but neither of the two named shapes.

    A sequence and a flag of different ambient dimensions raise ValueError.
    """
    _check_same_ambient(a, flag)
    return classify_position(a, flag.meet_dims(L), s)


def classify_position(a: DecSeq, meets, s: int) -> Classification:
    """classify_pieri of any L whose flag position is meets, whose first
    entry dim F_1 cap L = dim L must be n+1-m-s."""
    n, m = a.n, a.m
    if meets[0] != n + 1 - m - s:
        raise ValueError(f"special subspace must have dim {n + 1 - m - s}, "
                         f"got {meets[0]}")
    entries = tuple(DimEntry(j, aj, meets[aj - 1], n + 2 - aj - j - s)
                    for j, aj in enumerate(a.entries, 1))
    equality = tuple(e.j for e in entries if e.meet_dim and e.meet_dim == e.critical)

    if any(e.meet_dim and e.meet_dim > e.critical for e in entries):
        verdict = IMPROPER
    elif all(
        e.meet_dim == 0 or e.meet_dim < e.critical for e in entries[:-1]
    ) and entries[-1].meet_dim == max(0, entries[-1].critical):
        verdict = TRANSVERSE_IRREDUCIBLE
    elif len(equality) == m:
        verdict = TRANSVERSE_REDUCIBLE
    else:
        verdict = TRANSVERSE_OTHER
    return Classification(verdict, entries, equality, s)


# ---------------------------------------------------------------------------
# incidence cells


def _check_cell_parameter(a: DecSeq, s: int) -> None:
    """The incidence cell of a is nonempty exactly when 1 <= s <= n+1-m and
    either s <= n+1-a_1, or s = n+2-a_1 with m = 1 or a_2 < a_1-1; any
    other s raises ValueError."""
    n, m = a.n, a.m
    if s < 1:
        raise ValueError("cell parameter must be at least 1")
    a1 = a.entries[0]
    fits = s <= n + 1 - a1 or (
        s == n + 2 - a1 and (m == 1 or a.entries[1] < a1 - 1))
    if s > n + 1 - m or not fits:
        raise ValueError(f"the incidence cell of {a} is empty for s = {s}")


def cell_index(a: DecSeq, s: int) -> DecSeq:
    """Index of the Schubert cell whose dense part the incidence cell fills.

    Take [n] minus the entries of a minus the strip of s-1 integers above
    a_1; when the strip would end at n+1 (s = n+2-a_1), take the smallest
    n+1-m-s integers not in a instead.  An s for which the cell is empty
    raises ValueError (see _check_cell_parameter).
    """
    _check_cell_parameter(a, s)
    n, m = a.n, a.m
    a1 = a.entries[0]
    avail = [i for i in range(1, n + 1) if i not in a.entries]
    if s <= n + 1 - a1:
        strip = set(range(a1 + 1, a1 + s))
        chosen = [i for i in avail if i not in strip]
    else:
        chosen = avail[: n + 1 - m - s]
    return DecSeq(n, tuple(sorted(chosen, reverse=True)))


def cell_member(L: Subspace, a: DecSeq, s: int, flag: Flag) -> bool:
    """Membership in the incidence cell: L's flag position passes
    profile_in_cell, whose first entry dim F_1 cap L = dim L is the cell's
    dimension.  An s outside cell_index's range raises ValueError, as
    cell_index does: the cell is empty there; so do a sequence and a flag
    of different ambient dimensions."""
    _check_same_ambient(a, flag)
    return profile_in_cell(flag.meet_dims(L), a, s)


def profile_in_cell(meets, a: DecSeq, s: int) -> bool:
    """Is meets = (dim F_1 cap L, ..., dim F_{n+1} cap L) the flag position
    of a member L of the incidence cell?  dim L = meets[0] is the cell's
    dimension, the meet with the top flag space is the flag space s deeper,
    and below each further row the meet stabilizes one step down at its
    critical dimension.  The meets are nested, so these are equalities of
    dimensions.  An s outside cell_index's range raises ValueError."""
    _check_cell_parameter(a, s)
    n, m = a.n, a.m
    a1 = a.entries[0]
    meets = tuple(meets) + (0,) * s  # F_j is zero beyond n+1
    if not meets[0] == n + 1 - m - s:
        return False
    if not meets[a1 - 1] == meets[a1 + s - 1] == max(0, n + 1 - a1 - s):
        return False
    return all(meets[aj - 1] == meets[aj] == n + 2 - aj - j - s
               for j, aj in enumerate(a.entries[1:], 2))


class ProfileEntry(Record):
    """The expected and actual dim F_i cap L."""

    _fields = ("i", "expected", "actual")


class ProfileReport(Verdict):
    """A cell member's dimension profile, as ProfileEntries."""

    _fields = ("entries",)

    @property
    def checks(self) -> tuple:
        return (StageCheck("dimension profile",
                           all(e.expected == e.actual for e in self.entries)),)

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "profile": [
                {"i": e.i, "expected": e.expected, "actual": e.actual}
                for e in self.entries
            ],
        }


def cell_profile_check(L: Subspace, a: DecSeq, s: int, flag: Flag) -> ProfileReport:
    """Full dimension profile of a cell member against every flag space.

    The expected profile is the Schubert position of beta = cell_index(a, s):
    dim F_i cap L = #{k : beta_k >= i}, the position of the open cell that
    the incidence cell fills.  At s = n+2-a_1 the incidence cell holds more
    than that open cell, so a member can read FAIL here: for n = 3, a = (3),
    s = 2 and L = <e_2>, cell_member is True but the profile differs at i = 2.
    A sequence and a flag of different ambient dimensions raise ValueError.
    """
    _check_same_ambient(a, flag)
    meets = flag.meet_dims(L)
    if not profile_in_cell(meets, a, s):
        raise ValueError("subspace is not in the incidence cell")
    beta = cell_index(a, s).entries
    return ProfileReport(tuple(
        ProfileEntry(i, sum(bk >= i for bk in beta), meets[i - 1])
        for i in range(1, a.n + 1)))


def _pivot_span(pivots, flag: Flag, rng) -> Subspace:
    """Span with one generator per pivot row of the adapted basis, plus
    random entries in the free rows below each pivot.  The generator at p is
    in F_p, not F_{p+1}, so for any values of the free entries the result
    lies in the open cell of its pivot set.  Each generator u_p + sum c_i u_i
    is summed in integers over the adapted rows lifted to one leading
    multiple P (_scaled_lift), which gives P times the generator: the same
    line, so the same span."""
    w = _scaled_lift(flag._adapted_rows)[1]
    n = flag.ambient
    pivset = set(pivots)
    rows = []
    for p in pivots:
        v = w[p - 1]
        for i in range(p + 1, n + 1):
            if i not in pivset:
                c = rng.randint(-9, 9)
                if c:
                    v = [x + c * y for x, y in zip(v, w[i - 1])]
        rows.append(v)
    return span(n, *rows)


def cell_point(a: DecSeq, s: int, flag: Flag, seed: int = 0) -> Subspace:
    """A sample member of the incidence cell, seeded and post-verified: one
    _pivot_span draw, always in the open cell of cell_index(a, s)."""
    L = _pivot_span(cell_index(a, s).entries, flag, random.Random(seed))
    if not cell_member(L, a, s, flag):
        raise VerificationError("pivot span missed the incidence cell")
    return L


def schubert_cell_point(b: DecSeq, flag: Flag, seed: int = 0) -> Subspace:
    """A sample m-plane in the open Schubert cell of b, whose meets with the
    flag spaces at the rows of b are exact: one _pivot_span draw."""
    H = _pivot_span(b.entries, flag, random.Random(seed))
    meets = flag.meet_dims(H)
    if not (schubert_member(H, b, flag) and all(
            meets[bj - 1] == j for j, bj in enumerate(b.entries, 1))):
        raise VerificationError("pivot span missed the open Schubert cell")
    return H


# ---------------------------------------------------------------------------
# witnesses


def vector_avoiding(inside: Subspace, avoid, rng=None) -> tuple:
    """A vector of `inside` outside every subspace in `avoid`, as Fractions.

    Tries the canonical basis first, then pairwise sums, then seeded random
    combinations.  Raises ValueError when no such vector exists at all.
    The candidates are summed in integers over inside's canonical rows
    lifted to one pivot multiple P (_scaled_lift), so each is P times the
    same combination of the canonical basis; membership and nonzero-ness
    do not see the factor, and the vector found is returned over P.
    """
    avoid = [A for A in avoid if not A.is_zero]
    for A in avoid:
        if A.contains(inside):
            raise ValueError("every vector of the source lies in an excluded space")
    if inside.is_zero:
        raise ValueError("source space is zero")
    P, cand = _scaled_lift(inside.rows)

    def ok(v):
        return any(v) and all(not A.contains_vector(v) for A in avoid)

    for v in cand:
        if ok(v):
            return _over(v, P)
    for i in range(len(cand)):
        for k in range(i + 1, len(cand)):
            v = [x + y for x, y in zip(cand[i], cand[k])]
            if ok(v):
                return _over(v, P)
    rng = rng or random.Random(0)
    for trial in range(64):
        bound = 3 + trial
        v = [0] * inside.ambient
        for row in cand:
            c = rng.randint(-bound, bound)
            if c:
                v = [x + c * y for x, y in zip(v, row)]
        if ok(v):
            return _over(v, P)
    raise GenericityError("random search for an avoiding vector failed")


def witness_point(a: DecSeq, flag: Flag, L: Subspace, mode: int, seed: int = 0) -> Subspace:
    """An m-plane H meeting every flag space of a in exact dimension, meeting
    L in a line, with the line sitting in flag row `mode` and no higher.

    Built once, inductively: the mode-th vector comes from the meet of its
    flag space with L; every other vector avoids both L-with-prior-choices
    and the previous flag space, so by triangularity H meets each F_{a_i}
    in its first i vectors and L in the mode-th one's line: a failed
    post-check is a VerificationError.  L enters as its canonical integer
    rows; span scales each Fraction vector chosen to a primitive row.
    """
    n, m = a.n, a.m
    if not 1 <= mode <= m:
        raise ValueError(f"mode {mode} out of range 1..{m}")
    s = n + 1 - m - L.dim
    if s < 1:
        raise ValueError("special subspace is too large")
    meets = flag.meet_dims(L)
    for i, ai in enumerate(a.entries, 1):
        if meets[ai - 1] > n + 2 - ai - i - s:
            raise ValueError(f"meet at row {i} exceeds the critical dimension")

    def upper(i):
        # flag space of the previous row; above the first row it is zero
        return flag.subspace(a.entries[i - 2]) if i > 1 else flag.subspace(n + 1)

    carrier = intersect(flag.subspace(a.entries[mode - 1]), L)
    if upper(mode).contains(carrier):
        raise ValueError("the carrier meet sits inside the previous flag space")

    rng = random.Random(seed)
    fs = []
    for i in range(1, m + 1):
        if i == mode:
            v = vector_avoiding(carrier, [upper(i)], rng)
        else:
            taken = span(n, *L.rows, *fs)
            v = vector_avoiding(flag.subspace(a.entries[i - 1]), [taken, upper(i)], rng)
        fs.append(v)
    H = span(n, *fs)
    meets = flag.meet_dims(H)
    line = intersect(H, L)
    if (H.dim != m or any(meets[ai - 1] != i for i, ai in enumerate(a.entries, 1))
            or line.dim != 1 or not flag.subspace(a.entries[mode - 1]).contains(line)
            or upper(mode).contains(line)):
        raise VerificationError("witness plane fails its defining conditions")
    return H


# ---------------------------------------------------------------------------
# tangent computation


def tangent_codim(H: Subspace, a: DecSeq, flag: Flag, L: Subspace) -> int:
    """Codimension of the joint tangent space inside the Schubert tangent
    space at H, as maps H -> V/H subject to linear image conditions.

    V/H is realized once as the non-pivot coordinates of H; each condition
    "phi(u) lands in (W+H)/H" contributes one equation per annihilating
    covector of the image of W.  The answer is a difference of two ranks.

    The equations are integer rows: a vector u of H has coordinates its
    entries at H.pivots, since the canonical basis is 1 at its own pivot
    and 0 at the others; u runs over the meet's canonical rows, and the
    covectors nu are read off the image's canonical rows
    (_read_null_vectors).  Scaling u or nu by a nonzero factor scales an
    equation without changing either rank.
    """
    n, m = H.ambient, H.dim
    if a.m != m or a.n != n:
        raise ValueError("sequence does not match the plane")
    meets = flag.meet_dims(H)
    if any(meets[aj - 1] != j for j, aj in enumerate(a.entries, 1)):
        raise ValueError("plane is not a smooth point of the Schubert set")
    line = intersect(H, L)
    if line.dim != 1:
        raise ValueError("plane must meet the special subspace in a line")

    ncols = n - m  # dim of V/H in the chart

    def equations(us, W):
        img = quotient_subspace(sum_span(W, H), H)
        return [[u[p] * x for p in H.pivots for x in nu]
                for _, nu in _read_null_vectors(img.rows, img.pivots, ncols)
                for u in us]

    schubert_rows = []
    for j in range(1, m + 1):
        fj = flag.subspace(a.entries[j - 1])
        schubert_rows.extend(equations(intersect(H, fj).rows, fj))
    special_rows = equations(line.rows, L)
    return rank(schubert_rows + special_rows) - rank(schubert_rows)


# ---------------------------------------------------------------------------
# restriction to a flag member


def restrict_sequence(b: DecSeq, j: int) -> DecSeq:
    """First j rows of b renormalized to live inside flag space b_j."""
    if not 1 <= j <= b.m:
        raise ValueError(f"position {j} out of range")
    bj = b.entries[j - 1]
    entries = tuple(b.entries[i] - bj + 1 for i in range(j))
    return DecSeq(b.n + 1 - bj, entries)


def restrict_flag(flag: Flag, q: int) -> Flag:
    """The flag induced on its own member F_q, in F_q's coordinates.

    Space i of the result is F_{q+i-1} written as flag.subspace(q).restrict(...),
    the map that carries any L inside F_q into k^{dim F_q}; it keeps the
    flag position, so the result's meet_dims of that image is
    flag.meet_dims(L)[q - 1:].
    """
    fq = flag.subspace(q)
    spaces = tuple(fq.restrict(flag.subspace(q + i - 1)) for i in range(1, fq.dim + 2))
    return Flag(fq.dim, spaces)


# ---------------------------------------------------------------------------
# degeneration cycles


def _cycle_labels(a: DecSeq, members, s: int) -> frozenset:
    """One cycle label per member b of a branch set of a: a member that
    first grows in row 1 (or a itself) gives the Schubert variety
    ("schubert", entries) with b's first entry pushed s-1 further, dropped
    when pushed past n; a member that first grows in row j > 1 gives the
    incidence component ("incidence", b.entries, j)."""
    labels = set()
    for b in members:
        j = first_diff_index(a, b) if b != a else 1
        if j > 1:
            labels.add(("incidence", b.entries, j))
        elif b.entries[0] + s - 1 <= b.n:
            labels.add(("schubert", (b.entries[0] + s - 1,) + b.entries[1:]))
    return frozenset(labels)


def y_cycle(a: DecSeq, r: int, s: int, flag: Flag, L: Subspace) -> frozenset:
    """Signature of the degeneration cycle after r branchings, for a special
    subspace sitting in the incidence cell with parameter s: cell_member,
    then cycle_signature.
    """
    if not cell_member(L, a, s, flag):
        raise ValueError("special subspace is not in the stated incidence cell")
    return cycle_signature(a, r, s)


@lru_cache(maxsize=None)
def cycle_signature(a: DecSeq, r: int, s: int) -> frozenset:
    """y_cycle for a subspace already known to lie in the incidence cell with
    parameter s: the _cycle_labels of the r-step branch set, or of a alone
    when r = 0.  Two labels with the same entries raise ValueError.  It is
    pure combinatorics of (a, r, s) and its value is a frozenset, so it is
    cached by value, as pieri_set is; a raised ValueError is not cached,
    so a second call raises it again.
    """
    labels = _cycle_labels(a, pieri_set(a, r) if r else (a,), s)
    if len({label[1] for label in labels}) != len(labels):
        raise ValueError("duplicate component index")
    return labels
