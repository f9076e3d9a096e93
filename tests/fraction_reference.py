"""The Fraction vector code that the library's integer paths replaced.

The library keeps vectors as integer rows and makes Fractions only where a
result leaves it.  The code here does the same work the textbook way, on
the canonical Fraction basis, and stays as the reference that the
differential tests compare the integer paths against, value for value:
the vector helpers, coordinates on a subspace and their inverse, a flag
built from a basis, the witness, tangent and sampling routines of
schubgeom and the pencil columns of deform as they read in Fractions.  It
also makes source mutants of library functions.
"""

import __future__
import inspect
import random
import textwrap
from fractions import Fraction

from pierikit.exactla import (
    Flag,
    GenericityError,
    annihilator_basis,
    canonicalize,
    family_from_vectors,
    flag_from_basis,
    frac,
    intersect,
    quotient_subspace,
    rank,
    span,
    sum_span,
    vec,
    zero_subspace,
)
from pierikit.schubgeom import cell_index, cell_member


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_scale(c, v):
    c = frac(c)
    return tuple(c * a for a in v)


def is_zero_vec(v):
    return all(a == 0 for a in v)


def coords(S, v):
    """Coordinates of v in S's canonical basis: its entries at S's pivots,
    since that basis is 1 at its own pivot and 0 at the others."""
    v = vec(v, S.ambient)
    if not S.contains_vector(v):
        raise ValueError("vector not in subspace")
    return tuple(v[p] for p in S.pivots)


def from_coords(S, x):
    """The vector with coordinates x in S's canonical basis."""
    w = (Fraction(0),) * S.ambient
    for c, row in zip(vec(x, S.dim), S.basis):
        if c:
            w = vec_add(w, vec_scale(c, row))
    return w


def extend(S, a):
    """Inverse of S.restrict: a subspace of k^dim S back in k^ambient."""
    if a.ambient != S.dim:
        raise ValueError("ambient mismatch")
    return canonicalize([from_coords(S, r) for r in a.rows], S.ambient)


def fraction_flag_from_basis(vectors):
    """exactla.flag_from_basis on Fractions: every entry read with vec, the
    rank taken on Fraction rows and each F_j canonicalized through rref."""
    n = len(vectors)
    vs = [vec(v, n) for v in vectors]
    if rank(vs) != n:
        raise ValueError("vectors do not form a basis")
    spaces = [canonicalize(vs[j - 1:], n) for j in range(1, n + 1)]
    spaces.append(zero_subspace(n))
    return Flag(n, tuple(spaces))


def random_flag(n, seed=0):
    rng = random.Random(seed)
    while True:
        rows = [tuple(frac(rng.randint(-9, 9)) for _ in range(n)) for _ in range(n)]
        if rank(rows) == n:
            return flag_from_basis(rows)


def pivot_span(pivots, flag, rng):
    """schubgeom._pivot_span summed in Fractions over the adapted basis."""
    u = flag.adapted_basis
    n = flag.ambient
    rows = []
    for p in pivots:
        v = u[p - 1]
        for i in range(p + 1, n + 1):
            if i not in pivots:
                c = rng.randint(-9, 9)
                if c:
                    v = vec_add(v, vec_scale(Fraction(c), u[i - 1]))
        rows.append(v)
    return span(n, *rows)


def cell_point(a, s, flag, seed=0):
    rng = random.Random(seed)
    beta = cell_index(a, s)
    for _ in range(8):
        L = pivot_span(beta.entries, flag, rng)
        if cell_member(L, a, s, flag):
            return L
    raise GenericityError("failed to sample the incidence cell")


def vector_avoiding(inside, avoid, rng=None):
    avoid = [A for A in avoid if not A.is_zero]
    for A in avoid:
        if A.contains(inside):
            raise ValueError("every vector of the source lies in an excluded space")
    cand = list(inside.basis)
    if not cand:
        raise ValueError("source space is zero")

    def ok(v):
        return not is_zero_vec(v) and all(not A.contains_vector(v) for A in avoid)

    for v in cand:
        if ok(v):
            return v
    for i in range(len(cand)):
        for k in range(i + 1, len(cand)):
            v = vec_add(cand[i], cand[k])
            if ok(v):
                return v
    rng = rng or random.Random(0)
    for trial in range(64):
        bound = 3 + trial
        v = None
        for row in cand:
            c = rng.randint(-bound, bound)
            if c:
                w = vec_scale(frac(c), row)
                v = w if v is None else vec_add(v, w)
        if v is not None and ok(v):
            return v
    raise GenericityError("random search for an avoiding vector failed")


def witness_point(a, flag, L, mode, seed=0):
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
        return flag.subspace(a.entries[i - 2]) if i > 1 else flag.subspace(n + 1)

    carrier = intersect(flag.subspace(a.entries[mode - 1]), L)
    if upper(mode).contains(carrier):
        raise ValueError("the carrier meet sits inside the previous flag space")

    rng = random.Random(seed)
    for _ in range(8):
        fs = []
        picked = list(L.basis)
        for i in range(1, m + 1):
            if i == mode:
                v = vector_avoiding(carrier, [upper(i)], rng)
            else:
                taken = span(n, *picked)
                v = vector_avoiding(flag.subspace(a.entries[i - 1]), [taken, upper(i)], rng)
            fs.append(v)
            picked.append(v)
        H = span(n, *fs)
        if H.dim != m:
            continue
        meets = flag.meet_dims(H)
        if any(meets[ai - 1] != i for i, ai in enumerate(a.entries, 1)):
            continue
        line = intersect(H, L)
        if line.dim != 1:
            continue
        if not flag.subspace(a.entries[mode - 1]).contains(line):
            continue
        if upper(mode).contains(line):
            continue
        return H
    raise GenericityError("witness construction failed after retries")


def tangent_codim(H, a, flag, L):
    n, m = H.ambient, H.dim
    if a.m != m or a.n != n:
        raise ValueError("sequence does not match the plane")
    meets = flag.meet_dims(H)
    if any(meets[aj - 1] != j for j, aj in enumerate(a.entries, 1)):
        raise ValueError("plane is not a smooth point of the Schubert set")
    line = intersect(H, L)
    if line.dim != 1:
        raise ValueError("plane must meet the special subspace in a line")

    ncols = n - m

    def equations(u_basis, W):
        img = quotient_subspace(sum_span(W, H), H)
        rows = []
        for nu in annihilator_basis(img):
            for u in u_basis:
                cs = coords(H, u)
                row = [frac(0)] * (m * ncols)
                for k in range(m):
                    if cs[k]:
                        for r in range(ncols):
                            row[k * ncols + r] = cs[k] * nu[r]
                rows.append(tuple(row))
        return rows

    schubert_rows = []
    for j in range(1, m + 1):
        fj = flag.subspace(a.entries[j - 1])
        schubert_rows.extend(equations(intersect(H, fj).basis, fj))
    special_rows = equations(line.basis, L)
    return rank(schubert_rows + special_rows) - rank(schubert_rows)


def pencil_columns(ambient, dual_basis, l):
    """deform._pencil_columns over the Fraction dual basis e_1..e_N: the
    moving columns t e_j + e_{j+1} for 1 <= j <= l-2, then e_l, ..., e_N,
    built through family_from_vectors."""
    moving = [tuple((e_next[i], e_j[i]) for i in range(ambient))
              for e_j, e_next in zip(dual_basis[:l - 2], dual_basis[1:l - 1])]
    fixed = [tuple((e[i],) for i in range(ambient)) for e in dual_basis[l - 1:]]
    return family_from_vectors(ambient, moving + fixed)


def source_mutant(fn, old, new):
    """fn recompiled from its source with the one occurrence of old
    replaced by new, in fn's own module namespace."""
    source = textwrap.dedent(inspect.getsource(fn))
    if source.count(old) != 1:
        raise LookupError(f"{old!r} is not in {fn.__name__} exactly once")
    namespace = {}
    code = compile(source.replace(old, new), inspect.getsourcefile(fn), "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    exec(code, fn.__globals__, namespace)
    return namespace[fn.__name__]
