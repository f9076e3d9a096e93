"""Quintuple intersection problems: the pair count d, two independent
oracles for it, and explicit rational witnesses.

A problem fixes two flag conditions (indexed by decreasing sequences) and
three special conditions (codimensions a, b, c) whose degrees fill the
Grassmannian exactly.  The count d enumerates branch pairs directly.  Two
oracles recompute it: one through iterated branching plus duality, the other
without branch sets at all, as a rectangle Schur coefficient read off an
integer bialternant product: the alternant a_{mu+delta} = s_mu * a_delta
(Macdonald I.3) of the largest factor, m! signed monomials, times the Schur
polynomials of the others, built from semistandard tableaux.  The witness
constructor then exhibits each of the d solution planes with exact rational
coordinates.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations, permutations
from operator import itemgetter, mul
from typing import Iterator

from .exactla import (
    Flag,
    GenericityError,
    Record,
    Subspace,
    VerificationError,
    _null_vectors,
    _read_null_vectors,
    _set_field,
    _unit_row,
    flag_from_basis,
    intersect,
    rank,
    span,
)
from .schubgeom import schubert_member, standard_flag
from .seqcomb import (
    DecSeq,
    _conjugate,
    _integers,
    _tableau_count,
    codim,
    dual,
    lambda_of,
    pieri_set,
)

# largest m*(n-m) the bialternant oracle will expand, which keeps it in at
# most five variables.  Over 20 random problems for each admitted (n, m) the
# costliest, at 30 (n = 11, m = 5), took at most 0.1 s; at 36 (n = 12, m = 6,
# six variables) ten random problems took 0.03-0.65 s (Python 3.11, 2-core
# Xeon)
_EXPANSION_CAP = 30

# draws of C that witness_table makes before it gives up
_WITNESS_DRAWS = 32


class QuintupleProblem(Record):
    """Data for a five-condition intersection of m-planes in k^n.

    alpha and beta index the two flag conditions; a, b, c are the
    codimensions of the three special conditions.  The degrees must fill
    the ambient dimension: a + b + c + codim(alpha) + codim(beta) equals
    m(n-m).  Zero values of a, b, c are allowed (an empty condition).
    n, m, a, b and c go through operator.index and are stored as int;
    alpha and beta must be DecSeqs.
    """

    _fields = ("n", "m", "alpha", "beta", "a", "b", "c")

    def __init__(self, n: int, m: int, alpha: DecSeq, beta: DecSeq,
                 a: int, b: int, c: int):
        n, m, a, b, c = _integers((n, m, a, b, c), "n, m, a, b and c")
        if not 1 <= m < n:
            raise ValueError("need 1 <= m < n")
        for name, s in (("alpha", alpha), ("beta", beta)):
            if not isinstance(s, DecSeq):
                raise ValueError(f"{name} must be a DecSeq, got {s!r}")
            if s.n != n or s.m != m:
                raise ValueError(f"{s} does not index m-planes in k^{n}")
        if min(a, b, c) < 0:
            raise ValueError("special codimensions must be nonnegative")
        need = m * (n - m)
        got = a + b + c + codim(alpha) + codim(beta)
        if got != need:
            raise ValueError(f"degrees sum to {got}, the ambient dimension is {need}")
        _set_field(self, "n", n)
        _set_field(self, "m", m)
        _set_field(self, "alpha", alpha)
        _set_field(self, "beta", beta)
        _set_field(self, "a", a)
        _set_field(self, "b", b)
        _set_field(self, "c", c)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "alpha": self.alpha.to_json(),
            "beta": self.beta.to_json(),
            "a": self.a,
            "b": self.b,
            "c": self.c,
        }


def count_pairs_d(p: QuintupleProblem) -> int:
    """Number of pairs (g, d) in (alpha*a) x (beta*b) with dual(d) in g*c.

    The duals of beta*b are formed once: pieri_set lists distinct
    sequences and dual is injective, so each g adds the number of those
    duals that lie in g*c.
    """
    duals = {dual(dlt) for dlt in pieri_set(p.beta, p.b)}
    return sum(len(duals.intersection(pieri_set(g, p.c))) for g in pieri_set(p.alpha, p.a))


# ---------------------------------------------------------------------------
# the cohomology oracle: one coefficient of an integer bialternant product
#
# An exponent vector in m variables is packed into one int, first variable in
# the highest field.  A field is one bit wider than the largest target entry
# needs, and that top bit is its guard bit.  Only exponents componentwise at
# most the target are ever stored, so the sum of two still fits field by
# field (no carries), and in (target | guards) - s the guard bit of a field
# survives exactly when that entry of s is at most the target's.


def _field_width(n: int) -> int:
    """Bits per exponent field when every target entry is at most n-1."""
    return (n - 1).bit_length() + 1


def _pack(exponent, width: int) -> int:
    out = 0
    for x in exponent:
        out = (out << width) | x
    return out


@lru_cache(maxsize=None)
def _schur_weights(shape: tuple[int, ...], m: int, n: int) -> dict[int, int]:
    """s_shape(x_1, ..., x_m) as {packed exponent: multiplicity}, one count
    per semistandard tableau content, keeping the exponents at most the
    target (n-1, n-2, ..., n-m).  Shared by every caller: never mutated."""
    from .tableaux import ssyt_enumerate
    width = _field_width(n)
    target = range(n - 1, n - 1 - m, -1)
    out: dict[int, int] = {}
    for t in ssyt_enumerate(shape, m):
        e = t.content()
        if all(x <= y for x, y in zip(e, target)):
            key = _pack(e, width)
            out[key] = out.get(key, 0) + 1
    return out


@lru_cache(maxsize=None)
def _alternant(shape: tuple[int, ...], m: int, n: int) -> dict[int, int]:
    """a_{shape+delta} = det(x_i^(shape_j + m - j)) in m variables as
    {packed exponent: sign}, keeping the exponents at most the target
    (n-1, n-2, ..., n-m).  The empty shape gives the Vandermonde a_delta,
    and a shape of more than m parts gives 0."""
    if len(shape) > m:
        return {}
    width = _field_width(n)
    target = range(n - 1, n - 1 - m, -1)
    parts = [x + m - 1 - j for j, x in enumerate(shape + (0,) * (m - len(shape)))]
    out = {}
    for perm in permutations(range(m)):
        e = [parts[q] for q in perm]
        if all(x <= y for x, y in zip(e, target)):
            inversions = sum(perm[i] > perm[j] for i, j in combinations(range(m), 2))
            out[_pack(e, width)] = -1 if inversions % 2 else 1
    return out


@lru_cache(maxsize=None)
def _frame(n: int, m: int) -> tuple[int, int, int, int]:
    """(k, guards, target, top) for the problems on m-planes in k^n: the
    oracle counts in k = min(m, n-m) variables, target packs (n-1, n-2,
    ..., n-k), guards has the guard bit of each field set and top is
    target | guards."""
    k = min(m, n - m)
    width = _field_width(n)
    guards = _pack([1 << (width - 1)] * k, width)
    target = _pack(range(n - 1, n - 1 - k, -1), width)
    return k, guards, target, target | guards


def _factor(shape: tuple[int, ...], n: int, m: int) -> tuple[int, tuple[int, ...]]:
    """(size, shape) of s_shape in the oracle's variables: the shape is
    conjugated when m > n/2, and size is its number of tableaux there,
    which orders the factors without enumerating any."""
    if 2 * m > n:
        shape = _conjugate(shape)
    return _tableau_count(shape, min(m, n - m)), shape


@lru_cache(maxsize=None)
def _flag_factor(a: DecSeq) -> tuple[int, tuple[int, ...]]:
    """The factor of the flag condition a: s_lambda(a)."""
    return _factor(lambda_of(a), a.n, a.m)


@lru_cache(maxsize=None)
def _row_factor(d: int, n: int, m: int) -> tuple[int, tuple[int, ...]]:
    """The factor of a special condition of codimension d: h_d."""
    return _factor((d,) if d else (), n, m)


def cohomology_oracle(p: QuintupleProblem) -> int:
    """The count as a rectangle coefficient in a symmetric-function product.

    The count is the coefficient of s_R, R = ((n-m)^m), in the product of
    the Schur polynomials of the two flag conditions with h_a, h_b, h_c in
    m variables.  By the bialternant identity s_mu * a_delta = a_{mu+delta}
    (Macdonald, Symmetric Functions and Hall Polynomials, I.3) that is the
    coefficient of x^(R+delta) in the product times a_delta.  The factor
    with the most tableaux enters together with a_delta, as its alternant
    a_{mu+delta}: m! signed monomials, its tableaux never enumerated.
    Every other factor is built from the contents of its semistandard
    tableaux (ssyt_enumerate), and no factor comes from branch sets, so
    this oracle is independent of the pair count.  The product stays in
    int coefficients and drops, after every factor, each exponent that is
    not componentwise at most R+delta; the factor with the next most
    tableaux is a lookup of (R+delta) - e.  The frame of each (n, m) and
    the shape and size of each flag condition's and each codimension's
    factor are computed once and cached.

    The cost grows with the number of variables, so for m > n/2 the oracle
    counts in n-m variables instead: the involution omega carries s_mu to
    s_mu' (h_a to e_a) and R to R' = (m^(n-m)), the rectangle of
    Gr(n-m, n), and it keeps the coefficient.  The one size cap is then
    m(n-m) <= 30, the Grassmannian's dimension; a larger problem raises
    ValueError.
    """
    n, m = p.n, p.m
    if m * (n - m) > _EXPANSION_CAP:
        raise ValueError("instance too large for polynomial expansion")
    k, guards, target, top = _frame(n, m)
    factors = sorted((_flag_factor(p.alpha), _flag_factor(p.beta), _row_factor(p.a, n, m),
                      _row_factor(p.b, n, m), _row_factor(p.c, n, m)), key=itemgetter(0))
    poly = _alternant(factors[-1][1], k, n)
    for _, shape in factors[:-2]:
        weights = _schur_weights(shape, k, n)
        step: dict[int, int] = {}
        for e, c in poly.items():
            for w, x in weights.items():
                s = e + w
                if (top - s) & guards == guards:
                    step[s] = step.get(s, 0) + c * x
        poly = step
    last = _schur_weights(factors[-2][1], k, n)
    return sum(c * last.get(target - e, 0) for e, c in poly.items())


def pieri_pairing_oracle(p: QuintupleProblem) -> int:
    """The count by iterated branching and duality.

    Multiplies the alpha class by h_a, h_b, h_c at the sequence level (the
    first-entry cap inside pieri_set discards classes that die in this
    Grassmannian) and returns the multiplicity of dual(beta).
    """
    counts = {p.alpha: 1}
    for deg in (p.a, p.b, p.c):
        step: dict[DecSeq, int] = {}
        for g, mult in counts.items():
            for h in pieri_set(g, deg):
                step[h] = step.get(h, 0) + mult
        counts = step
    return counts.get(dual(p.beta), 0)


def valid_instances(n_max: int) -> Iterator[QuintupleProblem]:
    """Every problem with 2 <= n <= n_max and positive a, b, c.

    Sequences run in lexicographic decreasing order, then a, then b, so the
    stream is deterministic.
    """
    for n in range(2, n_max + 1):
        for m in range(1, n):
            seqs = [DecSeq(n, e) for e in combinations(range(n, 0, -1), m)]
            space = m * (n - m)
            for alpha in seqs:
                ca = codim(alpha)
                for beta in seqs:
                    left = space - ca - codim(beta)
                    if left < 3:
                        continue
                    for a in range(1, left - 1):
                        for b in range(1, left - a):
                            yield QuintupleProblem(n, m, alpha, beta, a, b, left - a - b)


# ---------------------------------------------------------------------------
# explicit witnesses


@lru_cache(maxsize=None)
def reversed_flag(n: int) -> Flag:
    """The ascending coordinate flag: space j is spanned by e_1, ..., e_{n+1-j}.

    Opposite to the standard flag, so their slices are coordinate blocks.
    Built once per n and shared: Flag and Subspace are frozen.
    """
    return flag_from_basis([_unit_row(n, p) for p in range(n - 1, -1, -1)])


@lru_cache(maxsize=1024)
def _slice_frame(alpha: DecSeq, beta: DecSeq, flag: Flag, flag2: Flag):
    """The slices K_j = F_{alpha_j} cap F'_{beta_{m+1-j}} for j = 1..m, whose
    sum is checked to be direct: all their canonical rows are independent.

    Independent of the special subspace, so triple_witnesses computes it
    once per pair and flag pair.  Memoised by value (DecSeq, Flag and
    Subspace are frozen and compare by their canonical rows), so an equal
    flag built anew hits the cache; a frame that raises is not cached.
    Raises ValueError when a slice vanishes or the sum is not direct.
    """
    m = alpha.m
    slices = []
    for j in range(1, m + 1):
        K = intersect(flag.subspace(alpha.entries[j - 1]),
                      flag2.subspace(beta.entries[m - j]))
        if K.dim == 0:
            raise ValueError(f"slice {j} is zero")
        slices.append(K)
    rows = [row for K in slices for row in K.rows]
    if rank(rows) != len(rows):
        raise ValueError("slice sum is not direct")
    return tuple(slices)


def _falls_deeper(flag: Flag, j: int, f) -> bool:
    """Whether f, a vector of F_j, lies in F_{j+1}: F_j is cut out by the
    adapted covectors phi_1..phi_{j-1}, so that is phi_j . f == 0."""
    return sum(map(mul, flag._adapted_coords[j - 1], f)) == 0


def triple_witnesses(
    alpha: DecSeq, beta: DecSeq, C: Subspace, flag: Flag, flag2: Flag
) -> list[Subspace]:
    """The unique m-plane satisfying both flag conditions and meeting C.

    Builds it from the slices K_j = F_{alpha_j} cap F'_{beta_{m+1-j}}: the
    line C cap (K_1 + ... + K_m) is spanned by a vector w, the summands
    f_j of w across the slices give a basis, and their span is the
    witness.  The slices do not depend on C and come from a frame cached
    per (alpha, beta, flag, flag2).

    One small fraction-free elimination finds the line's slice
    coordinates.  C's annihilator covectors phi_1..phi_{n-dim C} are read
    off its canonical rows with no elimination, and sum_k v_k s_k, the s_k
    the slices' canonical rows, lies in C exactly when every phi_i
    vanishes on it: so the slice coordinates v are the null vectors of
    the (n - dim C) x (sum dim K_j) integer matrix [phi_i . s_k].  The s_k
    are independent (the frame checks that the slice sum is direct), so
    the null space has dimension dim(C cap (K_1 + ... + K_m)), and a line
    means exactly one null vector.  Then f_j = sum_k v_k (row k of K_j) in
    integers and w = f_1 + ... + f_m.  The witness H = span(f_j) is
    canonical, so rescaling the null vector changes nothing.

    f_j lies in F_{alpha_j}, so it falls too deep in the first flag when
    the one adapted covector that cuts F_{alpha_j + 1} out of F_{alpha_j}
    vanishes on it; likewise in the second flag.  Meeting C is proved by
    the witness point itself: w is nonzero, lies in C and lies in H, so
    H cap C != 0; no rank is computed.

    Returns [H] with membership in all three varieties verified, or []
    when dual(beta) falls outside alpha*c, c read off from dim C (the
    intersection is empty then).  Raises GenericityError when C is not in
    general position: C meets the slice sum off a line, or a basis vector
    falls too deep in either flag; another C may work.  Raises ValueError
    on bad input and when the flags are not: a slice vanishes or the slice
    sum is not direct, which no C changes.  Raises VerificationError when
    the plane it built fails one of the three memberships.
    """
    n, m = alpha.n, alpha.m
    if beta.n != n or beta.m != m:
        raise ValueError("sequences must share n and m")
    if C.ambient != n or flag.ambient != n or flag2.ambient != n:
        raise ValueError("ambient dimensions disagree")
    c = n + 1 - m - C.dim
    if codim(alpha) + codim(beta) + c != m * (n - m):
        raise ValueError("codimensions do not fill the ambient dimension")
    if dual(beta) not in pieri_set(alpha, c):
        return []

    slices = _slice_frame(alpha, beta, flag, flag2)
    rows = [row for K in slices for row in K.rows]
    phis = [phi for _, phi in _read_null_vectors(C.rows, C.pivots, n)]
    null = _null_vectors([[sum(map(mul, phi, row)) for row in rows] for phi in phis],
                         len(rows))
    if len(null) != 1:
        raise GenericityError(f"C meets the slice sum in dimension {len(null)}, not a line")

    v = null[0][1]
    basis = []
    at = 0
    for K in slices:
        f = [0] * n
        for x, row in zip(v[at:at + K.dim], K.rows):
            if x:
                f = [y + x * z for y, z in zip(f, row)]
        at += K.dim
        basis.append(f)
    for j, f in enumerate(basis, start=1):
        if _falls_deeper(flag, alpha.entries[j - 1], f):
            raise GenericityError(f"vector {j} falls too deep in the first flag")
        if _falls_deeper(flag2, beta.entries[m - j], f):
            raise GenericityError(f"vector {j} falls too deep in the second flag")

    H = span(n, *basis)
    if H.dim != m:
        raise VerificationError(f"witness spans dimension {H.dim}, not {m}")
    if not schubert_member(H, alpha, flag):
        raise VerificationError("witness is off the first Schubert variety")
    if not schubert_member(H, beta, flag2):
        raise VerificationError("witness is off the second Schubert variety")
    w = [sum(col) for col in zip(*basis)]
    if not any(w) or not C.contains_vector(w) or not H.contains_vector(w):
        raise VerificationError("witness misses the special subspace")
    return [H]


def witness_table(p: QuintupleProblem, seed: int = 0):
    """(C, rows) with one (gamma, delta, H) row per counted branch pair.

    Iterates triple_witnesses over every branch pair of the problem with
    the standard and the reversed coordinate flags; C, spanned by rows of
    seeded random ints, is resampled until the general-position checks
    pass for all pairs at once.  A draw of rank below dim C, a
    GenericityError from triple_witnesses and two pairs with the same
    plane depend on C and draw again; the last of these reasons ends the
    GenericityError raised when _WITNESS_DRAWS draws are used up.  A
    ValueError or VerificationError escapes at once.  A resample redoes
    only the work that depends on C: each pair's slice frame stays
    cached.  The rows carry exactly count_pairs_d(p) pairwise distinct
    planes, every coordinate an exact rational.
    """
    flag = standard_flag(p.n)
    flag2 = reversed_flag(p.n)
    dim_c = p.n + 1 - p.m - p.c
    if dim_c < 1:
        # c exceeds every branch capacity, so no pair can match
        return None, ()
    rng = random.Random(seed)
    for _ in range(_WITNESS_DRAWS):
        rows = [tuple(rng.randint(-99, 99) for _ in range(p.n))
                for _ in range(dim_c)]
        C = span(p.n, *rows)
        if C.dim != dim_c:
            reason = f"C drawn has dimension {C.dim}, not {dim_c}"
            continue
        try:
            out = []
            for g in pieri_set(p.alpha, p.a):
                for dlt in pieri_set(p.beta, p.b):
                    for H in triple_witnesses(g, dlt, C, flag, flag2):
                        out.append((g, dlt, H))
        except GenericityError as exc:
            reason = str(exc)
            continue
        if len({H for _, _, H in out}) != len(out):
            reason = "two branch pairs give the same plane"
            continue
        return C, tuple(out)
    raise GenericityError(f"no suitable C after {_WITNESS_DRAWS} draws: {reason}")


def real_witness_set(p: QuintupleProblem, seed: int = 0) -> list[Subspace]:
    """Just the witness planes of witness_table, in its order."""
    _, rows = witness_table(p, seed)
    return [H for _, _, H in rows]
