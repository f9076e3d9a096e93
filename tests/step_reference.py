"""The chain verifier's routines as they read before their per-step cost was
cut, kept as the references that the differential tests compare the
library against, verdict for verdict and value for value:

* kills_family: one Python generator per (covector, column, coefficient);
* pencil_form: every t-coefficient back-substituted against M, then read
  in the x coordinates at M's pivots;
* limit_at_zero: the full-rank point search before any fibre at 0;
* int_row and int_vector: every row through the type set and the
  Fraction scaling, whatever its entry types;
* build_pencil: every flag in M read through per-space restricts, its
  covectors off null vectors and its dual basis off one echelon of
  [V^T | I], as on any flag today.
"""

from math import gcd, lcm
from operator import mul

from pierikit import deform
from pierikit.exactla import (
    VerificationError,
    _EXACT,
    _int_row,
    _inverse_rows,
    _null_vector,
    _read_null_vectors,
    _scaled_lift,
    canonicalize,
    kernel_basis,
    ptrim,
    vec,
    zero_subspace,
)


def kills_family(covectors, fam) -> bool:
    """deform._kills_family: does every covector vanish on every
    t-coefficient of every column of fam?"""
    return all(
        not any(sum(c * p[k] for c, p in zip(phi, col) if len(p) > k)
                for k in range(deg + 1))
        for _, deg, col in fam._forms for phi in covectors)


def pencil_form(M, covectors, family, l) -> bool:
    """deform._in_pencil_form: every coefficient checked to lie in M by
    contains_vector, then its support read in the x coordinates."""
    xs = [_int_row(x) for x in covectors]
    shapes = ([(j + 1, j) for j in range(1, l - 1)]
              + [(k,) for k in range(l, M.dim + 1)])
    if family.ncols != len(shapes):
        return False
    for (_, deg, col), shape in zip(family._forms, shapes):
        if deg + 1 != len(shape):
            return False
        for k, want in enumerate(shape):
            v = [p[k] if len(p) > k else 0 for p in col]
            if not M.contains_vector(v):
                return False
            coords = [v[p] for p in M.pivots]
            support = [i for i, x in enumerate(xs, 1) if sum(map(mul, x, coords))]
            if support != [want]:
                return False
    return True


def limit_at_zero(fam):
    """exactla.limit_at_zero with the full-rank point search first: a
    family with none raises ValueError before any fibre at 0 is read."""
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


def scaled_row(row):
    """exactla._scaled_row as it read, the Fraction scaling inline."""
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


def int_row(row):
    """exactla._int_row: every row through scaled_row."""
    ints, _ = scaled_row(row)
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def int_vector(v, n):
    """exactla._int_vector: the types read, then read again by scaled_row."""
    if not isinstance(v, (tuple, list)):
        v = tuple(v)
    if not set(map(type, v)).issubset(_EXACT):
        v = vec(v)
    if len(v) != n:
        raise ValueError(f"expected vector of length {n}, got {len(v)}")
    return scaled_row(v)


def build_pencil(mflag, l, L_inf):
    """deform.build_pencil with no chart shortcut: every flag in M checked
    and read through restrict, x_i the null vector of M_(i+1) at the pivot
    M_i adds, and V^-1 off _inverse_rows.  It calls _pencil_columns and
    _in_pencil_form through deform, so a test that records their inputs
    sees this function's too."""
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

    inner = [M.restrict(s) for s in mflag] + [zero_subspace(N)]
    try:
        marked = M.restrict(L_inf)
    except ValueError:
        marked = None
    if marked is None or marked.dim != N - 1:
        raise ValueError("marked subspace must be a hyperplane of M")
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
    P, lift = _scaled_lift(M.rows)
    cols = list(zip(*lift))
    dual = [[d * sum(map(mul, w, col)) for col in cols]
            for (d, _), (_, w) in zip(x, inverse)]

    for i in range(1, N + 1):
        if not mflag[i - 1].contains_vector(dual[i - 1]):
            raise VerificationError(f"dual basis tail {i} does not span M_{i}")
    if not all(marked.contains_vector([v[p] for p in M.pivots])
               for q, v in enumerate(dual) if q != l - 2):
        raise VerificationError(f"dual basis without vector {l - 1} does not span L_inf")

    family = deform._pencil_columns(M.ambient,
                                    [(P * s, w) for w, (s, _) in zip(dual, inverse)], l)
    if not deform._in_pencil_form(M, covectors, family, l):
        raise VerificationError("pencil columns are not t e_j + e_(j+1) and e_k "
                                "in the dual basis")
    return deform.Pencil(M, mflag, l, family, L_inf)
