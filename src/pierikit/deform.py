"""Explicit rational-equivalence machinery.

The degeneration engine moves a special subspace one step deeper into its
incidence cell along a pencil of hyperplanes, and verifies with exact
arithmetic that the intersection cycle breaks up exactly as the branching
combinatorics predicts.  A full chain of such steps connects a general
position to the fully special one where every component is a plain
Schubert variety.
"""

from functools import lru_cache
from math import gcd, lcm
from operator import mul
import random

from .exactla import (
    Flag,
    GenericityError,
    PolyFamily,
    Record,
    StageCheck,
    Subspace,
    Verdict,
    VerificationError,
    _column_form,
    _echelon,
    _int_row,
    _inverse_rows,
    _null_vector,
    _null_vectors,
    _read_null_vectors,
    _scaled_lift,
    _unit_row,
    check_lines,
    family_from_vectors,
    frac,
    intersect,
    limit_at_zero,
    rank,
    span,
    sum_span,
    verdict_line,
    zero_subspace,
)
from .seqcomb import DecSeq, branch_parent, first_diff_index, pieri_set
from .schubgeom import (
    IMPROPER,
    TRANSVERSE_IRREDUCIBLE,
    TRANSVERSE_REDUCIBLE,
    _cycle_labels,
    cell_member,
    cell_point,
    classify_pieri,
    classify_position,
    cycle_signature,
    meets_properly,
    profile_in_cell,
    restrict_flag,
    restrict_sequence,
    schubert_member,
    standard_flag,
    x_member,
)


# ----------------------------------------------------------------------
# The flag induced on a distinguished subspace.

def flag_within(M: Subspace, flag: Flag) -> tuple:
    """Complete flag (M_1, ..., M_N) on M cut out by the ambient flag.

    M_1 = M and dim M_i = N+1-i.  In adapted coordinates, with phi the
    flag's integer adapted covectors, F_q is cut out by phi_1..phi_{q-1}.
    Take rows of M in echelon form in those coordinates: their pivots are
    M's flag position, as in Flag.meet_dims, and F_q cap M is spanned by
    the rows whose pivot lies at column q-1 or later.  So M_i is spanned by
    the last N+1-i rows, and it is F_q cap M from the first q where the
    meet reads N+1-i; each M_i is checked to have that dimension and to
    lie in that F_q.

    On the coordinate flag M's canonical rows are such rows and their tails
    are canonical, so M_i is read off with no elimination; on any other flag
    the rows are the right halves of one echelon of [flag.frame(v) | v] over
    M's rows, and M_i is the span of their tail.
    """
    n = flag.ambient
    if M.ambient != n:
        raise ValueError("ambient mismatch")
    if flag._is_coordinate:
        pivots = M.pivots
        cuts = (Subspace._trusted(n, M.rows[i:], pivots[i:]) for i in range(1, M.dim))
    else:
        rows, pivots = _echelon([flag.frame(v) + list(v) for v in M.rows])
        cuts = (span(n, *[row[n:] for row in rows[i:]]) for i in range(1, M.dim))
    spaces = [M] if M.dim else []
    for i, cut in enumerate(cuts, start=2):
        d, q = M.dim + 1 - i, pivots[i - 2] + 2
        if cut.dim != d or not flag.subspace(q).contains(cut):
            raise VerificationError(f"F_{q} cap M is not the {d}-dimensional "
                                    "space the flag position predicts")
        spaces.append(cut)
    return tuple(spaces)


def _mflag_space(mflag: tuple, i: int, ambient: int) -> Subspace:
    """M_i of the flag (M_1, ..., M_N) in M, i >= 1; every position past N
    is the zero space, as for Flag.subspace."""
    return mflag[i - 1] if i <= len(mflag) else zero_subspace(ambient)


# ----------------------------------------------------------------------
# Pencils of hyperplanes.

def _pencil_columns(ambient: int, dual: list, l: int) -> PolyFamily:
    """Columns t e_j + e_{j+1} for 1 <= j <= l-2, then e_l, ..., e_N (M_l),
    as integer forms, the dual basis given as pairs (d_k, w_k), e_k = w_k / d_k."""
    forms = []
    for (d, w), (d_next, w_next) in zip(dual[:l - 2], dual[1:l - 1]):
        den = lcm(d, d_next)
        a, b = den // d_next, den // d
        forms.append(_column_form(den, [(x * a, y * b) for x, y in zip(w_next, w)]))
    forms += [_column_form(d, [(x,) for x in w]) for d, w in dual[l - 1:]]
    return PolyFamily._trusted(ambient, tuple(forms))


class Pencil(Record):
    """A one-parameter family L_t of hyperplanes of M adapted to a flag in M.

    Over a basis e_1, ..., e_N of M with M_i = <e_i, ..., e_N>, the family's
    columns are the moving vectors t e_j + e_{j+1} for 1 <= j <= l-2 and then
    e_l, ..., e_N, which span M_l.  It interpolates between the marked
    hyperplane (the fibre at infinity) and M_2 (the fibre at zero).  Positions
    past N in the flag in M are the zero space, as for Flag.subspace.  mflag
    is the tuple of Subspaces M_1, ..., M_N, and family is the PolyFamily.
    """

    _fields = ("M", "mflag", "l", "family", "marked")

    def space(self, i: int) -> Subspace:
        return _mflag_space(self.mflag, i, self.M.ambient)

    def at(self, t) -> Subspace:
        return self.family.at(t)

    def restricted_family(self, i: int) -> PolyFamily:
        """The family M_i cap L_t, for 1 <= i <= l-1: the tail of the
        pencil's columns from t e_i + e_{i+1} on (from e_l when i = l-1),
        which lies in M_i and in every L_t by construction; it shares the
        pencil family's column forms (PolyFamily.tail)."""
        if not 1 <= i <= self.l - 1:
            raise ValueError("restricted family needs 1 <= i <= l-1")
        return self.family.tail(i - 1)


def _in_pencil_form(M: Subspace, covectors, family: PolyFamily, l: int) -> bool:
    """Read in the coordinates x_1..x_N on M given by the covectors, is
    every column of the family, coefficient by coefficient, in the form
    (nonzero) t e_j + (nonzero) e_{j+1} for j <= l-2 and (nonzero) e_k for
    k >= l, with every coefficient in M?

    Both halves are read by one list of covectors on k^n: each x_i lifted
    to M's pivot columns (x_i at v's entries there, which are v's
    coordinates on M), then M's integer annihilator, read off its
    canonical rows.  A coefficient lies in M and reads (nonzero) e_want
    in the x coordinates iff want is the one covector of the list that
    does not vanish on it."""
    n, pivots = M.ambient, M.pivots
    phis = []
    for x in covectors:
        phi = [0] * n
        for p, c in zip(pivots, _int_row(x)):
            phi[p] = c
        phis.append(phi)
    phis += [v for _, v in _read_null_vectors(M.rows, pivots, n)]
    shapes = ([(j + 1, j) for j in range(1, l - 1)]
              + [(k,) for k in range(l, M.dim + 1)])
    if family.ncols != len(shapes):
        return False
    for (_, deg, col), shape in zip(family._forms, shapes):
        if deg + 1 != len(shape):
            return False
        for k, want in enumerate(shape):
            v = [p[k] if len(p) > k else 0 for p in col]
            support = [i for i, phi in enumerate(phis, 1) if sum(map(mul, phi, v))]
            if support != [want]:
                return False
    return True


def build_pencil(mflag, l: int, L_inf: Subspace) -> Pencil:
    """Pencil of hyperplanes of M_1 closing up at L_inf.

    mflag is the complete flag (M_1, ..., M_N) inside M = M_1; L_inf must be
    a hyperplane of M containing M_l but not M_{l-1}.  Coordinates x_1..x_N
    on M cut out M_i by x_1, ..., x_{i-1} and L_inf by x_{l-1}; the family
    is spanned by M_l and t e_j + e_{j+1} over the dual basis e (for l = 2,
    the constant M_2 = L_inf).

    M's coordinates are the chart restrict gives: v in M goes to its
    entries at M's pivots, a linear map that is one to one on M.  So L_inf,
    restricted, is checked there to be a hyperplane (restrict refuses an
    L_inf outside M), and x_{l-1} is the null vector v of its rows.  With
    x_k = v_k / d_k, the dual vector e_k is d_k times column k of V^-1 (V
    the matrix of rows v_k), lifted through M's rows scaled to one pivot
    multiple P (_scaled_lift).  No covector needs an elimination.

    On the chain's flag each M_i is spanned by M's canonical rows from i on
    (flag_within on the coordinate flag), the coordinate flag of M's chart
    (Fulton, Young Tableaux, 9.4).  There x_k = e_k for k != l-1; L_inf
    contains M_l iff v vanishes from entry l on, and then misses M_{l-1}
    iff v_{l-1} != 0, which is det V.  V^-1 is the identity but for row
    l-1, so its column k is e_k - (v_k / v_{l-1}) e_{l-1}, and e_{l-1} /
    v_{l-1} for k = l-1: each e_k is two lifted rows, over the lowest terms
    that one echelon of [V^T | I] gives.

    On any other flag L_inf is checked against each M_i in the chart.  For
    i != l-1, x_i is the null vector of M_{i+1} (of 0 for i = N) at p_i, the
    one pivot of M_i that M_{i+1} lacks: M_i is M_{i+1} plus M_i's canonical
    row at p_i, which leads at p_i and is zero at M_{i+1}'s pivots, so the
    null vector at a free column c vanishes on M_i for every c < p_i and not
    for c = p_i.  V^-1 is read off one echelon of [V^T | I] (_inverse_rows);
    a singular V means the covectors are dependent: ValueError.

    The fibres are proved, not sampled.  The dual vectors are independent,
    so e_i in M_i for each i, checked on the integer vectors in k^n, and
    the N-1 vectors other than e_{l-1} in L_inf, checked in the chart
    (each lies in M by the first check), prove that the tails span the
    flag and those vectors L_inf.  Then every t-coefficient of every column
    of the integer forms the Pencil holds is checked to lie in M and to
    read, in the x coordinates, (nonzero) t e_j + (nonzero) e_{j+1} for a
    moving column j and (nonzero) e_k for a fixed column k.  On x_2..x_N the
    columns are then triangular with nonzero constant diagonal, so dim L_t =
    N-1 for every t; the fixed columns span M_l; and L_t is the kernel of a
    covector psi with psi_k a nonzero multiple of t^(k-1) for k <= l-1, so
    for t != 0 (every t when l = 2) no L_t contains M_{l-1}.
    """
    mflag = tuple(mflag)
    if not mflag:
        raise ValueError("flag in M is empty: M must have positive dimension")
    M = mflag[0]
    N = M.dim
    if len(mflag) != N:
        raise ValueError("flag in M must have one space per dimension")
    for i in range(1, N + 1):
        if mflag[i - 1].dim != N + 1 - i:
            raise ValueError(f"M_{i} of the flag in M must have dimension {N + 1 - i}")
        if i < N and not mflag[i - 1].contains(mflag[i]):
            raise ValueError(f"M_{i + 1} of the flag in M is not contained in M_{i}")
    if not 2 <= l <= N + 1:
        raise ValueError("marked position l must satisfy 2 <= l <= dim M + 1")
    if L_inf.ambient != M.ambient:
        raise ValueError("ambient mismatch")

    # restrict refuses an L_inf outside M
    try:
        marked = M.restrict(L_inf)
    except ValueError:
        marked = None
    if marked is None or marked.dim != N - 1:
        raise ValueError("marked subspace must be a hyperplane of M")
    P, lift = _scaled_lift(M.rows)
    if all(s.rows == M.rows[i:] for i, s in enumerate(mflag)):
        _, v = _read_null_vectors(marked.rows, marked.pivots, N)[0]
        if any(v[l - 1:]):
            raise ValueError("marked hyperplane must contain M_l")
        if not v[l - 2]:
            raise ValueError("marked hyperplane must not contain M_(l-1)")
        covectors = [_unit_row(N, k) for k in range(N)]
        covectors[l - 2] = v
        # e_k = (a lift_k - b lift_(l-1)) / (P a), a / b = v_(l-1) / v_k in
        # lowest terms; e_(l-1) = v_(l-1) lift_(l-1) / (P v_(l-1))
        c, last = covectors[l - 2][l - 2], lift[l - 2]
        pairs = []
        for k, (y, row) in enumerate(zip(covectors[l - 2], lift)):
            g = gcd(c, y)
            a, b = c // g, y // g
            pairs.append((P * c, [c * z for z in last]) if k == l - 2 else
                         (P * a, [a * z - b * w for z, w in zip(row, last)]))
    else:
        # M_1, ..., M_N and then M_(N+1) = 0, in M's coordinates
        inner = [M.restrict(s) for s in mflag] + [zero_subspace(N)]
        if not marked.contains(inner[l - 1]):
            raise ValueError("marked hyperplane must contain M_l")
        if marked.contains(inner[l - 2]):
            raise ValueError("marked hyperplane must not contain M_(l-1)")
        x = [_null_vector(below.rows, below.pivots,
                          next(c for c in above.pivots if c not in below.pivots), N)
             for above, below in zip(inner, inner[1:])]
        x[l - 2] = _read_null_vectors(marked.rows, marked.pivots, N)[0]
        covectors = [v for _, v in x]
        inverse = _inverse_rows(list(zip(*covectors)))
        if inverse is None:
            raise ValueError("covectors are not independent")
        cols = list(zip(*lift))
        # e_k = d_k (column k of V^-1) = dual[k] / (P s_k)
        pairs = [(P * s, [d * sum(map(mul, w, col)) for col in cols])
                 for (d, _), (s, w) in zip(x, inverse)]
    dual = [w for _, w in pairs]

    # construction sanity: the dual basis tails trace out the given flag;
    # the flag is nested and the dual vectors independent, so e_i in M_i
    # for every i proves that the tail from e_i spans M_i
    for i in range(1, N + 1):
        if not mflag[i - 1].contains_vector(dual[i - 1]):
            raise VerificationError(f"dual basis tail {i} does not span M_{i}")
    if not all(marked.contains_vector([v[p] for p in M.pivots])
               for q, v in enumerate(dual) if q != l - 2):
        raise VerificationError(f"dual basis without vector {l - 1} does not span L_inf")

    family = _pencil_columns(M.ambient, pairs, l)
    if not _in_pencil_form(M, covectors, family, l):
        raise VerificationError("pencil columns are not t e_j + e_(j+1) and e_k "
                                "in the dual basis")
    return Pencil(M, mflag, l, family, L_inf)


# ----------------------------------------------------------------------
# Stage reports.

class ComponentRecord(Record):
    """One cycle component at a stage: its index, branching row, and the
    indices it breaks into at the next stage.  Row 1 carries a Schubert
    variety, any other row an incidence component.  children holds DecSeqs;
    limit_dim is an int or None."""

    _fields = ("index", "j", "children", "limit_dim")
    _defaults = (None,)

    @property
    def kind(self) -> str:
        return "schubert" if self.j == 1 else "incidence"

    def to_json(self):
        out = {
            "index": self.index.to_json(),
            "j": self.j,
            "kind": self.kind,
            "children": [c.to_json() for c in self.children],
        }
        if self.limit_dim is not None:
            out["limit_dim"] = self.limit_dim
        return out


class StepReport(Verdict):
    """One stage ("start", "step" or "collapse") of the chain from the DecSeq
    alpha, at the ints s and r: its StageChecks and ComponentRecords."""

    _fields = ("stage", "alpha", "s", "r", "checks", "records")
    _defaults = ((),)

    def to_json(self):
        return {
            "stage": self.stage,
            "alpha": self.alpha.to_json(),
            "s": self.s,
            "r": self.r,
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
            "components": [rec.to_json() for rec in self.records],
        }


# ----------------------------------------------------------------------
# One degeneration step.

def _kills_family(covectors, fam: PolyFamily) -> bool:
    """Does every covector vanish on every t-coefficient of every column of
    fam, that is on every fibre of fam at once?  Each coefficient vector is
    built once and every covector is tried on it."""
    for _, deg, col in fam._forms:
        for k in range(deg + 1):
            v = [p[k] if len(p) > k else 0 for p in col]
            if any(sum(map(mul, phi, v)) for phi in covectors):
                return False
    return True


@lru_cache(maxsize=None)
def _step_plan(a: DecSeq, s: int, r: int) -> tuple:
    """The half of step_verify's report that reads neither the flag nor M
    nor L_inf, cached by value on (a, s, r): the five sample-clause names;
    per level-r index b, its record (children: the next-level indices
    branch_parent files under b), b_j, restrict_sequence(b, j) and its four
    geometric clause names (None for j = 1), and its finished children
    clause; the partition and assembled-cycle clauses.  All of it is the
    branching tree's combinatorics, the same for every flag and position,
    and StageChecks and records are frozen, so reports share them.  A raise
    is never cached; a test that patches a helper read here calls
    cache_clear.  The partition clause's duplicate half cannot fail on its
    own: each index is filed under one branch_parent.
    """
    nxt = pieri_set(a, r + 1)
    # the next level grouped by parent, each group in the order of nxt
    children = {}
    for g in nxt:
        children.setdefault(branch_parent(a, g), []).append(g)
    claimed, plan = [], []
    for b in pieri_set(a, r):
        j = first_diff_index(a, b)
        kids = tuple(children.get(b, ()))
        claimed.extend(kids)
        rec, name = ComponentRecord(b, j, kids), f"component {b}"
        detail = " ".join(map(str, kids))
        if j == 1:
            # the carried Schubert variety is relabeled, not deformed: the
            # level-r label pushed by s-1 equals the child pushed by s-2
            want = (b.bump(1),) if b.entries[0] < a.n else ()
            plan.append((rec, None, None, None, StageCheck(
                f"{name}: branches in row 1 only", kids == want, detail=detail)))
            continue
        bj, b_r = b.entries[j - 1], restrict_sequence(b, j)
        lifted = tuple(b.bump(first_diff_index(b_r, g_r)) for g_r in pieri_set(b_r, 1))
        names = (f"{name}: moving plane is F_{bj} cap L_t",
                 f"{name}: limit is F_{bj + 1} cap M",
                 f"{name}: limit has the generic fibre dimension",
                 f"{name}: limit lies in the restricted level-{s - 1} cell")
        plan.append((rec, bj, b_r, names, StageCheck(
            f"{name}: children match the restricted branch set",
            frozenset(lifted) == frozenset(kids) and len(set(lifted)) == len(lifted),
            detail=detail)))
    part_ok = len(claimed) == len(set(claimed)) and frozenset(claimed) == frozenset(nxt)
    cycle_ok = _cycle_labels(a, set(claimed), s - 1) == cycle_signature(a, r + 1, s - 1)
    tail = (StageCheck("children partition the next branch level", part_ok),
            StageCheck("assembled components match the level-(r+1) cycle", cycle_ok))
    samples = tuple(f"sample t={t} lies in the level-{s} cell"
                    for t in ("1", "1/2", "2", "3", "-1"))
    return samples, tuple(plan), tail


def step_verify(a: DecSeq, s: int, r: int, flag: Flag, M: Subspace,
                L_inf: Subspace) -> StepReport:
    """Verify one pencil step of the degeneration chain.

    M sits in the level-(s-1) cell and the pencil of hyperplanes of M marked
    at L_inf carries the level-r cycle to the level-(r+1) cycle of M.  The
    report records, per component, the moving-plane family, its limit, the
    limit's restricted cell and the branching; bad input raises, and each
    failed clause is named.

    Every clause is exact.  The five "sample t=... lies in the level-s cell"
    clauses share one verdict, true for every t != 0.  M contains upper =
    F_{a1+s-1}, nonzero as s <= n+1-a_1, and the flag in M is checked to
    have M_l = top = F_{a1+s} and M_{l-1} = upper; only build_pencil checks
    L_inf against them.  build_pencil proves every L_t with t != 0 a
    hyperplane of M through M_l and not through M_{l-1}, so it cuts F_q cap
    M in one dimension less for q <= a1+s-1 (that space contains upper) and
    contains F_q for q >= a1+s: the verdict is profile_in_cell of
    dim(F_q cap M) - [q <= a1+s-1].
    The moving-plane clause holds for every t != 0.  For slice position q
    the moving family is M_q cap L_t: (a) its integer column forms are the
    pencil's from q on, so it lies in every L_t; (b) every integer covector
    of F_b's annihilator kills every t-coefficient, so it lies in F_b (on
    the coordinate flag those covectors are e_1, ..., e_{b-1}, so the first
    b-1 entries of every column are read); (c) build_pencil proves the
    columns triangular with nonzero constant diagonal, so its dimension is
    ncols at every t, and ncols is dim(F_b cap L_t), read off the flag
    position above.  (c) cannot fail on its own: it follows from (a) and
    the definition of q, since the pencil has N-1 columns; it is kept as a
    check of that count.
    The limit is computed over Z[t], and the expected F_{b_j+1} cap M is the
    member of the flag in M of its dimension; it lies in the restricted cell
    iff it lies in F_b and its flag position from F_b on passes
    profile_in_cell.  The clauses that read neither the flag nor M nor
    L_inf, the children's and the assembled cycle's, depend on the
    branching tree alone and come finished from _step_plan(a, s, r) (a
    test that patches a helper it reads calls its cache_clear), read after
    the input checks so that every refusal keeps its order.
    """
    if s < 2:
        raise ValueError("step parameter s must be at least 2")
    if r < 1:
        raise ValueError("branch level r must be at least 1")
    if a.n != flag.ambient or M.ambient != flag.ambient:
        raise ValueError("ambient dimensions disagree")
    meets = flag.meet_dims(M)
    # cell_member(M, a, s - 1, flag), on the one flag position of M
    if not profile_in_cell(meets, a, s - 1):
        raise ValueError("M does not lie in the level s-1 cell")
    a1 = a.entries[0]
    if s > a.n + 1 - a1:
        raise ValueError(f"step parameter s must be at most n+1-a_1 = {a.n + 1 - a1}")
    top = flag.subspace(a1 + s)
    upper = flag.subspace(a1 + s - 1)

    mflag = flag_within(M, flag)
    N = M.dim
    l = N - top.dim + 1
    if _mflag_space(mflag, l, a.n) != top:
        raise VerificationError(f"induced flag step {l} is not F_{a1 + s}")
    if mflag[l - 2] != upper:
        raise VerificationError(f"induced flag step {l - 1} is not F_{a1 + s - 1}")
    pencil = build_pencil(mflag, l, L_inf)

    # the flag position of every L_t with t != 0
    meets_t = [d - (q <= a1 + s - 1) for q, d in enumerate(meets, 1)]
    in_cell = profile_in_cell(meets_t, a, s)
    samples, plan, tail = _step_plan(a, s, r)
    checks = [StageCheck(name, in_cell) for name in samples]
    records = []
    # components with the same slice position q share M_q cap L_t: its
    # limit and the limit's flag position are computed once per q
    moving_by_q = {}
    for rec, bj, b_r, names, kids_check in plan:
        if names is None:
            checks.append(kids_check)
            records.append(rec)
            continue
        q = N - meets[bj - 1] + 1
        if q not in moving_by_q:
            moving = pencil.restricted_family(q)
            lim = limit_at_zero(moving)
            moving_by_q[q] = (moving, lim, flag.meet_dims(lim))
        moving, lim, lim_meets = moving_by_q[q]
        # clauses (a), (b), (c) of the docstring; F_b's annihilator is
        # spanned by the flag's first b_j - 1 integer adapted covectors, on
        # the coordinate flag e_1, ..., e_(b_j - 1): the first b_j - 1
        # entries of each column, trimmed Polys, are zero
        if flag._is_coordinate:
            in_f_b = not any(any(col[:bj - 1]) for _, _, col in moving._forms)
        else:
            in_f_b = _kills_family(flag._adapted_coords[:bj - 1], moving)
        fam_ok = (moving._forms == pencil.family._forms[q - 1:] and in_f_b
                  and moving.ncols == meets_t[bj - 1])
        expected = _mflag_space(mflag, N + 1 - meets[bj], a.n)
        # the limit lies in F_b, and its flag position from F_b on is its
        # position under the flag induced on F_b (see restrict_flag)
        try:
            cell_ok = (lim_meets[bj - 1] == lim.dim
                       and profile_in_cell(lim_meets[bj - 1:], b_r, s - 1))
        except ValueError:
            cell_ok = False
        checks.extend(map(StageCheck, names, (fam_ok, lim == expected,
                                              lim.dim == N - q, cell_ok)))
        checks.append(kids_check)
        records.append(ComponentRecord(rec.index, rec.j, rec.children, lim.dim))
    checks.extend(tail)

    return StepReport("step", a, s, r, tuple(checks), tuple(records))


# ----------------------------------------------------------------------
# The full chain.

def _descend_hyperplane(a: DecSeq, s: int, flag: Flag, M: Subspace, rng) -> Subspace:
    """A hyperplane of M through F_{a_1+s}, otherwise generic, landing in
    the level-s cell.  The wanted conditions are open, so a few random
    covectors suffice.  A draw is kept on cell_member alone: for s <=
    n+1-a_1 a member is a hyperplane of M missing F_{a_1+s-1}.

    All in integers.  top's annihilator basis is read off its canonical
    rows as pairs (d, v), each v scaled to the common denominator D, so a
    draw's covector is D times the same combination of the Fraction
    annihilator and cuts the same hyperplane of k^N.  With c its last
    nonzero entry, at column p, the vectors c e_j - c_j e_p for j != p are
    its kernel in reduced echelon form, up to scale (a zero covector keeps
    all of k^N).  Each is lifted through M's rows scaled to one pivot
    multiple P (_scaled_lift), as the same combination of two lifted rows,
    to P times the vector with those coordinates on M's canonical basis: a
    vector of M leads at M's pivot for its first nonzero coordinate and
    reads its coordinates at M's pivots, so the lifts are L's canonical
    rows up to scale, and span gives the L of the Fraction draw with no
    row operation.
    """
    N = M.dim
    top = M.restrict(flag.subspace(a.entries[0] + s))
    null = _read_null_vectors(top.rows, top.pivots, N)
    D = lcm(*[d for d, _ in null])
    ann = [[x * (D // d) for x in v] for d, v in null]
    lift = _scaled_lift(M.rows)[1]
    for _ in range(64):
        coeffs = [rng.randint(-9, 9) for _ in ann]
        covector = [sum(map(mul, coeffs, col)) for col in zip(*ann)]
        p = max((j for j, x in enumerate(covector) if x), default=None)
        if p is None:
            inside = lift
        else:
            c, last = covector[p], lift[p]
            inside = [[c * x - covector[j] * y for x, y in zip(lift[j], last)]
                      for j in range(N) if j != p]
        L = span(M.ambient, *inside)
        if cell_member(L, a, s, flag):
            return L
    raise GenericityError("no generic descent hyperplane found")


@lru_cache(maxsize=None)
def _chain_plan(a: DecSeq, b: int) -> tuple:
    """The half of chain_deformation's report that reads no flag and no
    position, cached by value on (a, b) as _step_plan is on (a, s, r), and
    for the same reasons: the start stage's branch-set clause and records,
    and the collapse stage's head clause, records and, per index g with
    j > 1, (j, g_j) and its two clause names.  Neither clause can fail on
    its own: the start clause compares cycle_signature(a, 1, b) with the
    _cycle_labels it is built from, and at s = 1 _cycle_labels drops no
    member, so the collapse clause reads pieri_set(a, b) against itself."""
    level1, last = pieri_set(a, 1), pieri_set(a, b)
    start = (StageCheck("level-1 components match the branch set",
                        cycle_signature(a, 1, b) == _cycle_labels(a, level1, b)),
             tuple(ComponentRecord(g, first_diff_index(a, g), ()) for g in level1))
    head = StageCheck("final components indexed by the full branch set",
                      {c[1] for c in cycle_signature(a, b, 1)} == {g.entries for g in last})
    records, comps = [], []
    for g in last:
        j = first_diff_index(a, g)
        records.append(ComponentRecord(g, j, ()))
        if j > 1:
            gj = g.entries[j - 1]
            comps.append((j, gj, f"component {g}: special position meets F_{gj} in excess",
                          f"component {g}: incidence condition holds on sampled points"))
    return start, (head, tuple(records), tuple(comps))


def chain_deformation(a: DecSeq, b: int, flag: Flag, K: Subspace,
                      seeds: int = 0) -> list:
    """Run the full degeneration chain and verify every stage.

    Starting from a general position K, a special position M_b deep in the
    level-1 cell is chosen, hyperplanes are descended to M_1, and each
    pencil step is verified; b+1 stage reports come back.  The first report
    classifies the general-position intersection, the last one checks that
    the fully special cycle is a sum of plain Schubert varieties.  The
    collapse stage's incidence clause is a dimension count, so it holds for
    every plane of each Schubert set, not just for sampled ones.  The
    clauses and records that read no flag and no position depend on the
    branching tree alone and come from _chain_plan(a, b) and, per step,
    _step_plan (a test that patches a helper they read calls cache_clear).
    A chain longer than n+1-a_1 raises ValueError: the descent into the
    level-b cell needs a hyperplane avoiding F_{a_1+b-1}, and for
    b = n+2-a_1 that space is zero, which every hyperplane contains.

    The chain runs in the flag's own frame.  Every clause reads flag
    positions and incidences, which any g in GL_n keeps (g(F_j cap L) =
    gF_j cap gL), and a report carries only indices, dimensions and named
    clauses.  Flag.frame, v -> (phi_1(v), ..., phi_n(v)) over the flag's
    integer adapted covectors, is such a g and carries each F_j onto the
    standard F_j.  So K is mapped once (span of its framed rows; on the
    coordinate flag the covectors are e_1, ..., e_n and K is its own frame)
    and the rest runs on standard_flag(n), whose coordinates do not grow
    with n and whose flag positions are read off canonical rows; the
    mapped K is checked there to meet the flag properly, as dim(F_j cap K)
    = dim(F_j cap gK).
    cell_point draws in the adapted basis, which g sends to positive
    multiples of unit vectors, so its point is the direct run's up to a
    diagonal scaling that fixes every standard flag space.
    _descend_hyperplane draws covectors in M's canonical coordinates, which
    g changes, so it picks other hyperplanes than a direct run; the
    conditions are open, so either draw lands in the same generic flag
    position, and the reports come out equal.
    Every position after K is the chain's own draw, so a step that refuses
    one (a ValueError from step_verify) raises VerificationError: a failed
    check, not bad input.
    """
    if b < 1:
        raise ValueError("chain length must be at least 1")
    n = flag.ambient
    if K.ambient != n or a.n != n:
        raise ValueError("ambient dimensions disagree")
    if b > n + 1 - a.entries[0]:
        raise ValueError(f"chain length must be at most n+1-a_1 = {n + 1 - a.entries[0]}")
    if K.dim != n + 1 - a.m - b:
        raise ValueError("general position has the wrong dimension")

    # the flag's adapted covectors carry F_j onto the standard F_j; on the
    # coordinate flag they are e_1, ..., e_n, and K is its own frame
    if not flag._is_coordinate:
        K = span(n, *[flag.frame(v) for v in K.rows])
    flag = standard_flag(n)
    if not meets_properly(K, flag):
        raise ValueError("general position must meet the flag properly")

    rng = random.Random(seeds)
    positions = {b: cell_point(a, 1, flag, seed=seeds)}
    for i in range(b, 1, -1):
        positions[i - 1] = _descend_hyperplane(a, b + 2 - i, flag,
                                               positions[i], rng)

    (level1_check, start_records), (head, last_records, comps) = _chain_plan(a, b)
    general_ok = classify_pieri(a, flag, K, b).verdict == TRANSVERSE_IRREDUCIBLE
    start_checks = (
        StageCheck("general position meets transversally and irreducibly", general_ok),
        StageCheck(f"first special position lies in the level-{b} cell",
                   cell_member(positions[1], a, b, flag)),
        level1_check)
    reports = [StepReport("start", a, b, 0, start_checks, start_records)]

    for i in range(2, b + 1):
        # the positions are the chain's own draws, so a refused one is a
        # failed check, not bad input
        try:
            reports.append(step_verify(a, b + 2 - i, i - 1, flag,
                                       positions[i], positions[i - 1]))
        except ValueError as exc:
            raise VerificationError(str(exc)) from exc

    # positions[b] is a verified level-1 cell point
    collapse_checks = [head]
    meets = flag.meet_dims(positions[b])
    for j, gj, excess, incidence in comps:
        collapse_checks.append(StageCheck(excess, meets[gj - 1] == n + 2 - gj - j))
        # every H in the Schubert set of g meets F_{gj} in dimension >= j;
        # two subspaces of F_{gj} whose dimensions add up to more than
        # dim F_{gj} = n+1-gj meet, so every such H meets the special
        # position inside F_{gj}: the incidence condition holds on all of it
        collapse_checks.append(StageCheck(incidence, j + meets[gj - 1] > n + 1 - gj))
    reports.append(StepReport("collapse", a, 1, b, tuple(collapse_checks), last_records))
    return reports


def chain_histories(reports) -> tuple:
    """Root-to-leaf index chains reconstructed from a chain of stage reports.

    They are ordered by the branch taken at each level in turn: the start
    stage's level-1 components in report order, each followed by its
    children in step-report order.  As a multiset they are the branching
    tree's chains, but seqcomb.PieriTree.chains orders by leaf, and from
    n = 7 on the two orders can differ (631 at n = 7 with b = 2).
    """
    start = reports[0]
    a = start.alpha
    edges = {}
    for rep in reports[1:-1]:
        for rec in rep.records:
            edges[rec.index] = rec.children
    chains = [(a, rec.index) for rec in start.records]
    for _ in range(len(reports) - 2):
        chains = [ch + (g,) for ch in chains for g in edges[ch[-1]]]
    return tuple(chains)


# ----------------------------------------------------------------------
# The worked two-step degeneration in ambient dimension 9.
#
# A hand-checkable instance of the whole machine: a two-parameter family of
# 5-planes degenerates the intersection with the 741 Schubert variety first
# into three components and then into the full six-term sum.  Every claim is
# verified by the general-purpose predicates above.

def _covector(*pairs):
    w = [frac(0)] * 9
    for i, c in pairs:
        w[i - 1] += frac(c)
    return tuple(w)


def worked_forms(s, t):
    """The four cutting forms of the two-parameter family of 5-planes."""
    s, t = frac(s), frac(t)
    return (
        _covector((1, 1), (8, s)),
        _covector((2, 1), (3, t), (4, s * t ** 2), (5, t ** 2 + s * t ** 3),
                  (6, t ** 3 + s * t ** 4), (8, t ** 4)),
        _covector((4, 1), (9, s)),
        _covector((7, 1)),
    )


def worked_recombination(sigma, tau):
    """An equivalent set of cutting forms, regular at infinite parameters."""
    sigma, tau = frac(sigma), frac(tau)
    return (
        _covector((1, -sigma ** 2), (2, sigma * tau ** 4),
                  (3, sigma * tau ** 3), (4, tau ** 2),
                  (5, sigma * tau ** 2 + tau), (6, sigma * tau + 1)),
        _covector((7, 1)),
        _covector((1, sigma), (8, 1)),
        _covector((4, sigma), (9, 1)),
    )


def _kernel_of(forms) -> Subspace:
    return span(9, *[v for _, v in _null_vectors(forms, 9)])


def worked_kernel(s, t) -> Subspace:
    return _kernel_of(worked_forms(s, t))


def worked_family() -> PolyFamily:
    """The family of 5-planes after the first parameter is sent to zero:
    spanned by t e2 - e3, t e3 - e5, t e5 - e6, t e6 - e8, and e9."""
    e = [_unit_row(9, p) for p in range(9)]

    def moving(lead, trail):
        return tuple((-trail[i], lead[i]) for i in range(9))

    cols = [
        moving(e[1], e[2]),
        moving(e[2], e[4]),
        moving(e[4], e[5]),
        moving(e[5], e[7]),
        tuple((e[8][i],) for i in range(9)),
    ]
    return family_from_vectors(9, cols)


class GoldenReport(Verdict):
    """Outcome of the worked run: named sections of checks plus the final
    component index set: (name, StageChecks) pairs and DecSeqs."""

    _fields = ("sections", "final_indices")

    @property
    def checks(self) -> tuple:
        """Every section's clauses, each named `<section>: <clause>`."""
        return tuple(StageCheck(f"{name}: {c.name}", c.passed, c.detail)
                     for name, checks in self.sections for c in checks)

    def to_json(self):
        return {
            "sections": [
                {"name": name, "checks": [c.to_json() for c in checks]}
                for name, checks in self.sections
            ],
            "final_indices": [g.to_json() for g in self.final_indices],
            "passed": self.passed,
        }

    def table(self) -> str:
        lines = ["worked two-step degeneration (ambient dimension 9, base index 741)"]
        lines.append("=" * len(lines[0]))
        for name, checks in self.sections:
            lines.append("")
            lines.append(name)
            lines.extend(check_lines(checks))
        lines.append("")
        lines.append("final components: "
                      + " ".join(str(g) for g in self.final_indices))
        lines.append(verdict_line("overall", self.checks))
        return "\n".join(lines) + "\n"


def golden_run_741() -> GoldenReport:
    """Run the worked example end to end and verify every narrative claim."""
    flag = standard_flag(9)

    def ev(*idx):
        """The integer row e_i + e_j + ... for the 1-indexed i, j, ..."""
        return tuple([int(k in idx) for k in range(1, 10)])

    a741 = DecSeq(9, (7, 4, 1))
    base = span(9, *[ev(i) for i in range(1, 6)])
    F = flag.subspace

    sec_a = []
    for sv, tv in ((1, 1), (2, 3)):
        L = worked_kernel(sv, tv)
        rec = _kernel_of(worked_recombination(frac(1) / sv, frac(1) / tv))
        dims = flag.meet_dims(L)
        sec_a.append(StageCheck(
            f"(s,t)=({sv},{tv}): four independent forms cut a 5-plane",
            L.dim == 5))
        sec_a.append(StageCheck(
            f"(s,t)=({sv},{tv}): recombined forms cut the same 5-plane",
            L == rec))
        sec_a.append(StageCheck(
            f"(s,t)=({sv},{tv}): proper meeting with F_1, F_4, F_7",
            all(dims[q - 1] == max(0, 5 + F(q).dim - 9)
                for q in (1, 4, 7))))
        sec_a.append(StageCheck(
            f"(s,t)=({sv},{tv}): transverse irreducible intersection",
            classify_position(a741, dims, 2).verdict == TRANSVERSE_IRREDUCIBLE))
    sec_a.append(StageCheck(
        "closing position recovers the base 5-plane",
        _kernel_of(worked_recombination(0, 0)) == base))

    fam = worked_family()
    # the moving 5-plane's flag position for all but finitely many t, and
    # its moving 3-plane, the column tail as in step_verify
    P = flag.generic_meet_dims(fam)
    inner = fam.tail(2)
    cls = classify_position(a741, P, 2)
    # form . column has degree at most 4 + deg(column) in t: an identity
    # once it vanishes at one point more, here in integers
    deg = 4 + fam.max_degree()
    sec_b = [
        StageCheck(
            "stated basis spans the kernel of the specialized forms",
            all(sum(map(mul, phi, col)) == 0 for t in range(deg + 1)
                for cols in [fam._int_columns(t)]
                for phi in map(_int_row, worked_forms(0, t)) for col in cols)
            and rank(worked_forms(0, 1)) == 4),
        StageCheck(
            "moving 5-plane lies in the level-2 cell",
            profile_in_cell(P, a741, 2)),
        StageCheck("moving 5-plane lies inside F_2", P[1] == P[0]),
        StageCheck(
            "meets F_4 and F_5 in the same moving 3-plane",
            P[3] == P[4] == 3),
        StageCheck("meets F_7 in the line F_9", P[6] == P[8] == 1),
        # dim(L + F_q) = dim L + dim F_q - dim(L cap F_q), inside F_2 or F_5
        StageCheck(
            "spans F_2 together with F_4",
            P[1] == P[0] and P[0] + F(4).dim - P[3] == F(2).dim),
        StageCheck(
            "its F_4 slice spans F_5 together with F_7",
            P[3] == P[4] and P[3] + F(7).dim - P[6] == F(5).dim),
        StageCheck("its F_7 slice sits inside F_8", P[6] == P[7]),
        StageCheck(
            "transverse reducible with every row critical",
            cls.verdict == TRANSVERSE_REDUCIBLE and cls.equality_set == (1, 2, 3)),
        StageCheck(
            "cycle components: one pushed Schubert plus two incidence pieces",
            profile_in_cell(P, a741, 2) and cycle_signature(a741, 1, 2)
            == frozenset({("schubert", (9, 4, 1)),
                          ("incidence", (7, 5, 1), 2),
                          ("incidence", (7, 4, 2), 3)})),
    ]

    limit = limit_at_zero(fam)
    l00 = span(9, ev(3), ev(5), ev(6), ev(8), ev(9))
    sec_c = [
        StageCheck("flat limit equals the evaluation at zero",
                   limit == fam.at(0)),
        StageCheck("limit position is the span of e3, e5, e6, e8, e9",
                   limit == l00),
        StageCheck("F_8 sits inside the limit position",
                   l00.contains(F(8))),
        StageCheck("limit intersection is improper",
                   classify_pieri(a741, flag, l00, 2).verdict == IMPROPER),
    ]

    d941 = DecSeq(9, (9, 4, 1))
    d841 = DecSeq(9, (8, 4, 1))
    d751 = DecSeq(9, (7, 5, 1))
    d742 = DecSeq(9, (7, 4, 2))
    sec_c.append(StageCheck(
        "row-1 branch: moving plane meets F_8 in the line F_9",
        P[7] == P[8] == 1))
    h941 = span(9, ev(9), ev(4, 5), ev(1, 2))
    h841 = span(9, ev(8), ev(4, 5), ev(1, 2))
    sec_c.append(StageCheck(
        "row-1 branch: collapses onto the 941 Schubert variety on witnesses",
        schubert_member(h941, d941, flag)
        and P[8] == 1 and x_member(h941, d841, 1, flag, F(9))
        and schubert_member(h841, d841, flag)
        and not x_member(h841, d841, 1, flag, fam.at(1))
        and not schubert_member(h841, d941, flag)))

    m6 = span(9, ev(2), ev(3), ev(5), ev(6), ev(8), ev(9))
    lim2 = limit_at_zero(inner)
    sub5 = restrict_flag(flag, 5)
    b31 = restrict_sequence(d751, 2)
    sec_c.append(StageCheck(
        "row-2 branch: companion 6-plane lies in the level-1 cell",
        cell_member(m6, a741, 1, flag)))
    sec_c.append(StageCheck(
        "row-2 branch: moving 3-plane is the F_5 slice",
        _kills_family(flag._adapted_coords[:4], inner) and inner.ncols == P[4]))
    sec_c.append(StageCheck(
        "row-2 branch: limit is the F_6 slice of the companion",
        lim2 == intersect(F(6), m6)))
    # in F_5, lim2's position under sub5 is Q[4:] (see restrict_flag)
    Q = flag.meet_dims(lim2)
    sec_c.append(StageCheck(
        "row-2 branch: limit lies in the restricted level-1 cell",
        Q[4] == Q[0] and profile_in_cell(Q[4:], b31, 1)))
    cls2 = classify_position(b31, Q[4:], 1) if Q[4] == Q[0] else None
    sec_c.append(StageCheck(
        "row-2 branch: restricted intersection transverse reducible",
        cls2 is not None and cls2.verdict == TRANSVERSE_REDUCIBLE
        and cls2.equality_set == (1, 2)))
    sec_c.append(StageCheck(
        "row-2 branch: limit meets F_7 in F_8",
        intersect(lim2, F(7)) == F(8)))
    sec_c.append(StageCheck(
        "row-2 branch: limit spans F_6 together with F_7",
        sum_span(F(7), lim2) == F(6)))
    d851 = DecSeq(9, (8, 5, 1))
    d761 = DecSeq(9, (7, 6, 1))
    lifted2 = {d751.bump(first_diff_index(b31, g)) for g in pieri_set(b31, 1)}
    sec_c.append(StageCheck(
        "row-2 branch: splits into 851 and 761",
        lifted2 == {d851, d761}))
    k851 = span(9, ev(8), ev(5, 6))
    h851 = span(9, ev(8), ev(5, 6), ev(1))
    w851 = intersect(k851, lim2)
    sec_c.append(StageCheck(
        "row-2 branch: witness in the 851 stratum",
        schubert_member(F(5).restrict(k851), DecSeq(5, (4, 1)), sub5)
        and w851.dim >= 1 and F(7).contains(w851)
        and schubert_member(h851, d851, flag)
        and x_member(h851, d751, 2, flag, l00)))
    k761 = span(9, ev(6), ev(7))
    h761 = span(9, ev(6), ev(7), ev(1))
    w761 = intersect(k761, lim2)
    sec_c.append(StageCheck(
        "row-2 branch: witness in the 761 stratum",
        schubert_member(F(5).restrict(k761), DecSeq(5, (3, 2)), sub5)
        and w761.dim >= 1 and not F(7).contains(w761)
        and F(6).contains(k761)
        and schubert_member(h761, d761, flag)
        and x_member(h761, d751, 2, flag, l00)))

    sub2 = restrict_flag(flag, 2)
    b631 = restrict_sequence(d742, 3)
    sec_c.append(StageCheck(
        "row-3 branch: restricted intersection transverse irreducible at samples",
        P[1] == P[0]
        and classify_position(b631, P[1:], 1).verdict == TRANSVERSE_IRREDUCIBLE))
    sec_c.append(StageCheck(
        "row-3 branch: restricted intersection transverse reducible at the limit",
        classify_pieri(b631, sub2, F(2).restrict(l00), 1).verdict
        == TRANSVERSE_REDUCIBLE))
    sec_c.append(StageCheck(
        "row-3 branch: limit meets F_7 in F_8",
        intersect(F(7), l00) == F(8)))
    sec_c.append(StageCheck(
        "row-3 branch: its F_4 slice spans F_5 together with F_7",
        sum_span(F(7), intersect(F(4), l00)) == F(5)))
    sec_c.append(StageCheck(
        "row-3 branch: its F_2 slice spans F_3 together with F_4",
        sum_span(F(4), intersect(F(2), l00)) == F(3)))
    d842 = DecSeq(9, (8, 4, 2))
    d752 = DecSeq(9, (7, 5, 2))
    d743 = DecSeq(9, (7, 4, 3))
    lifted3 = {d742.bump(first_diff_index(b631, g)) for g in pieri_set(b631, 1)}
    sec_c.append(StageCheck(
        "row-3 branch: splits into 842, 752, and 743",
        lifted3 == {d842, d752, d743}))
    h842 = span(9, ev(8), ev(4, 5), ev(2, 3))
    w842 = intersect(h842, l00)
    sec_c.append(StageCheck(
        "row-3 branch: witness in the 842 stratum",
        schubert_member(h842, d842, flag)
        and w842.dim >= 1 and F(7).contains(w842)
        and x_member(h842, d742, 3, flag, l00)))
    h752 = span(9, ev(7), ev(5, 6), ev(2))
    w752 = intersect(h752, l00)
    sec_c.append(StageCheck(
        "row-3 branch: witness in the 752 stratum",
        schubert_member(h752, d752, flag)
        and w752.dim >= 1 and not F(7).contains(w752)
        and intersect(intersect(h752, F(4)), l00).dim >= 1
        and x_member(h752, d742, 3, flag, l00)))
    h743 = span(9, ev(3), ev(4), ev(7))
    w743 = intersect(h743, l00)
    sec_c.append(StageCheck(
        "row-3 branch: witness in the 743 stratum",
        schubert_member(h743, d743, flag)
        and not F(4).contains(w743)
        and F(3).contains(h743)
        and x_member(h743, d742, 3, flag, l00)))

    final = (d941, d851, d761, d842, d752, d743)
    sec_final = [StageCheck(
        "final components match the full branch set",
        frozenset(final) == frozenset(pieri_set(a741, 2)))]

    return GoldenReport(
        sections=(
            ("(A) both parameters generic", tuple(sec_a)),
            ("(B) first parameter sent to zero", tuple(sec_b)),
            ("(C) both parameters sent to zero", tuple(sec_c)),
            ("final assembly", tuple(sec_final)),
        ),
        final_indices=final,
    )
