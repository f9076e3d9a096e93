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
  [V^T | I], as on any flag today;
* step_verify and chain_deformation: the branching tree's combinatorics
  (children, restricted branch sets, cycle labels, clause names) built
  inline on every call, where the library reads them off its cached
  skeletons _step_plan and _chain_plan.  They call the library's
  build_pencil and limit_at_zero, not this module's.
"""

from math import gcd, lcm
from operator import mul
import random

from pierikit import deform
from pierikit.deform import (
    ComponentRecord,
    StepReport,
    _descend_hyperplane,
    _kills_family,
    _mflag_space,
    flag_within,
)
from pierikit.exactla import (
    StageCheck,
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
    span,
    vec,
    zero_subspace,
)
from pierikit.schubgeom import (
    TRANSVERSE_IRREDUCIBLE,
    _cycle_labels,
    cell_member,
    cell_point,
    classify_pieri,
    cycle_signature,
    meets_properly,
    profile_in_cell,
    restrict_sequence,
    standard_flag,
)
from pierikit.seqcomb import branch_parent, first_diff_index, pieri_set


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


def step_verify(a, s, r, flag, M, L_inf):
    """deform.step_verify as it read with its combinatorics inline: the
    children grouping, the restricted branch sets, the cycle labels and
    every clause name built again on each call."""
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
    pencil = deform.build_pencil(mflag, l, L_inf)

    # the flag position of every L_t with t != 0
    meets_t = [d - (q <= a1 + s - 1) for q, d in enumerate(meets, 1)]
    in_cell = profile_in_cell(meets_t, a, s)
    checks = [StageCheck(f"sample t={t} lies in the level-{s} cell", in_cell)
              for t in ("1", "1/2", "2", "3", "-1")]
    records = []

    level = pieri_set(a, r)
    nxt = pieri_set(a, r + 1)
    # the next level grouped by parent, each group in the order of nxt
    children = {}
    for g in nxt:
        children.setdefault(branch_parent(a, g), []).append(g)
    claimed = []
    # components with the same slice position q share M_q cap L_t: its
    # limit and the limit's flag position are computed once per q
    moving_by_q = {}
    for b in level:
        j = first_diff_index(a, b)
        kids = tuple(children.get(b, ()))
        name = f"component {b}"
        claimed.extend(kids)
        if j == 1:
            # the carried Schubert variety is relabeled, not deformed: the
            # level-r label pushed by s-1 equals the child pushed by s-2
            want = (b.bump(1),) if b.entries[0] < a.n else ()
            ok = kids == want
            checks.append(StageCheck(
                f"{name}: branches in row 1 only", ok,
                detail=" ".join(str(g) for g in kids)))
            records.append(ComponentRecord(b, j, kids))
            continue
        bj = b.entries[j - 1]
        q = N - meets[bj - 1] + 1
        if q not in moving_by_q:
            moving = pencil.restricted_family(q)
            lim = deform.limit_at_zero(moving)
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
        checks.append(StageCheck(
            f"{name}: moving plane is F_{bj} cap L_t", fam_ok))
        expected = _mflag_space(mflag, N + 1 - meets[bj], a.n)
        checks.append(StageCheck(
            f"{name}: limit is F_{bj + 1} cap M", lim == expected))
        checks.append(StageCheck(
            f"{name}: limit has the generic fibre dimension",
            lim.dim == N - q))
        # the limit lies in F_b, and its flag position from F_b on is its
        # position under the flag induced on F_b (see restrict_flag)
        b_r = restrict_sequence(b, j)
        try:
            cell_ok = (lim_meets[bj - 1] == lim.dim
                       and profile_in_cell(lim_meets[bj - 1:], b_r, s - 1))
        except ValueError:
            cell_ok = False
        checks.append(StageCheck(
            f"{name}: limit lies in the restricted level-{s - 1} cell",
            cell_ok))
        lifted = tuple(
            b.bump(first_diff_index(b_r, g_r)) for g_r in pieri_set(b_r, 1)
        )
        checks.append(StageCheck(
            f"{name}: children match the restricted branch set",
            frozenset(lifted) == frozenset(kids) and len(set(lifted)) == len(lifted),
            detail=" ".join(str(g) for g in kids)))
        records.append(ComponentRecord(b, j, kids, limit_dim=lim.dim))

    part_ok = (
        len(claimed) == len(set(claimed)) and frozenset(claimed) == frozenset(nxt)
    )
    checks.append(StageCheck("children partition the next branch level", part_ok))

    checks.append(StageCheck(
        "assembled components match the level-(r+1) cycle",
        _cycle_labels(a, set(claimed), s - 1) == cycle_signature(a, r + 1, s - 1)))

    return StepReport("step", a, s, r, tuple(checks), tuple(records))


def chain_deformation(a, b, flag, K, seeds=0):
    """deform.chain_deformation as it read with its start and collapse
    clauses and records built on each call; its steps are this module's
    step_verify."""
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

    level1 = pieri_set(a, 1)
    start_checks = (
        StageCheck(
            "general position meets transversally and irreducibly",
            classify_pieri(a, flag, K, b).verdict == TRANSVERSE_IRREDUCIBLE),
        StageCheck(
            "first special position lies in the level-" + str(b) + " cell",
            cell_member(positions[1], a, b, flag)),
        StageCheck(
            "level-1 components match the branch set",
            cycle_signature(a, 1, b) == _cycle_labels(a, level1, b)),
    )
    start_records = tuple(ComponentRecord(g, first_diff_index(a, g), ())
                          for g in level1)
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
    final = cycle_signature(a, b, 1)
    last = pieri_set(a, b)
    collapse_checks = [StageCheck(
        "final components indexed by the full branch set",
        {c[1] for c in final} == {g.entries for g in last})]
    collapse_records = []
    meets = flag.meet_dims(positions[b])
    for g in last:
        j = first_diff_index(a, g)
        collapse_records.append(ComponentRecord(g, j, ()))
        if j == 1:
            continue
        gj = g.entries[j - 1]
        collapse_checks.append(StageCheck(
            f"component {g}: special position meets F_{gj} in excess",
            meets[gj - 1] == n + 2 - gj - j))
        # every H in the Schubert set of g meets F_{gj} in dimension >= j;
        # two subspaces of F_{gj} whose dimensions add up to more than
        # dim F_{gj} = n+1-gj meet, so every such H meets the special
        # position inside F_{gj}: the incidence condition holds on all of it
        collapse_checks.append(StageCheck(
            f"component {g}: incidence condition holds on sampled points",
            j + meets[gj - 1] > n + 1 - gj))
    reports.append(StepReport("collapse", a, 1, b, tuple(collapse_checks),
                              tuple(collapse_records)))
    return reports
