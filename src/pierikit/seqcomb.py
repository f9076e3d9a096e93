"""Strictly decreasing index sequences and their Pieri-type combinatorics.

A DecSeq indexes a Schubert variety of m-planes relative to a complete flag
in k^n (entries are flag levels, largest first).  This module knows nothing
about linear algebra: it provides the codimension, the Bruhat order, the
Pieri sets alpha*r, duality, the partition dictionary, and the branching
tree whose root-to-leaf chains drive everything downstream.
"""

from __future__ import annotations

from functools import lru_cache
from operator import index

from .exactla import Record, VerificationError, _set_field


def _integers(values, what: str) -> tuple[int, ...]:
    """The values as ints, through operator.index: a float, a string or any
    other non-integer raises a ValueError that names it, rather than being
    truncated or parsed."""
    values = tuple(values)
    try:
        return tuple(map(index, values))
    except TypeError:
        bad = next(x for x in values if not hasattr(type(x), "__index__"))
        raise ValueError(f"{what} must be integers, got {bad!r}") from None


def _integer(x, what: str) -> int:
    """x as an int, through operator.index, as _integers takes each value."""
    try:
        return index(x)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {x!r}") from None


class DecSeq(Record):
    """Strictly decreasing sequence n >= a_1 > ... > a_m >= 1.

    n and every entry must be integers (anything operator.index takes,
    stored as int); a float or a string raises ValueError rather than
    being truncated or parsed."""

    _fields = ("n", "entries")

    def __init__(self, n: int, entries: tuple[int, ...]):
        n = _integer(n, "ambient parameter n")
        entries = _integers(entries, "entries")
        if n < 1:
            raise ValueError("ambient parameter n must be positive")
        prev = n + 1
        for x in entries:
            if not 1 <= x < prev:
                raise ValueError(
                    f"entries must satisfy n >= a_1 > ... > a_m >= 1, got {entries}"
                )
            prev = x
        _set_field(self, "n", n)
        _set_field(self, "entries", entries)

    @property
    def m(self) -> int:
        return len(self.entries)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __str__(self):
        if self.n <= 9:
            return "".join(str(x) for x in self.entries)
        return ",".join(str(x) for x in self.entries)

    def bump(self, i: int, amount: int = 1) -> "DecSeq":
        """New sequence with entry i (1-indexed) increased; validates."""
        e = list(self.entries)
        e[i - 1] += amount
        return DecSeq(self.n, tuple(e))

    def to_json(self) -> dict:
        return {"n": self.n, "m": self.m, "entries": list(self.entries)}


def codim(a: DecSeq) -> int:
    """Codimension of the indexed variety: sum of a_i - i."""
    return sum(x - i for i, x in enumerate(a.entries, start=1))


def bruhat_leq(a: DecSeq, b: DecSeq) -> bool:
    """Componentwise order; a <= b means the b-variety sits inside the a-one."""
    if a.n != b.n or a.m != b.m:
        raise ValueError("sequences must share n and m")
    return all(x <= y for x, y in zip(a.entries, b.entries))


def pieri_increment(a: DecSeq, b: DecSeq):
    """r >= 0 with b in a*r, or None.

    Membership means the interlacing b_1 >= a_1 > b_2 >= a_2 > ... > b_m >= a_m
    (entries beyond n never arise because DecSeq caps at n).
    """
    if a.n != b.n or a.m != b.m:
        return None
    for i in range(a.m):
        if b.entries[i] < a.entries[i]:
            return None
        if i > 0 and b.entries[i] >= a.entries[i - 1]:
            return None
    return codim(b) - codim(a)


def in_pieri_set(a: DecSeq, b: DecSeq, r: int) -> bool:
    return pieri_increment(a, b) == r


@lru_cache(maxsize=None)
def pieri_set(a: DecSeq, r: int) -> tuple[DecSeq, ...]:
    """All b with b in a*r, lexicographically decreasing.

    a*0 is {a}; with no entries a*r is empty for r >= 1.  Each entry rises
    at most to just below the one before it, the first to n (past n the
    variety is empty), so every member interlaces with a and is built
    unchecked; trying the largest rise first gives the order.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    n, entries = a.n, a.entries
    caps = [prev - 1 - x for prev, x in zip((n + 1,) + entries, entries)]
    out = []

    def rec(i, left, acc):
        if i == len(entries):
            if left == 0:
                out.append(DecSeq._trusted(n, tuple(acc)))
            return
        for d in range(min(left, caps[i]), -1, -1):
            acc.append(entries[i] + d)
            rec(i + 1, left - d, acc)
            acc.pop()

    rec(0, r, [])
    return tuple(out)


@lru_cache(maxsize=None)
def first_diff_index(a: DecSeq, b: DecSeq) -> int:
    """Least i (1-indexed) with b_i > a_i, for b in a*r, r >= 1.

    Memoized like pieri_set: a chain step asks for the same pairs again and
    again (branch_parent, step_verify, the cycle labels), and the answer is
    validated once per pair.  A pair outside every a*r with r >= 1 raises
    ValueError on every call; a raised error is never cached.  A pair that
    pieri_increment places in some a*r with r >= 1 but that has no rising
    entry contradicts it, and raises VerificationError."""
    r = pieri_increment(a, b)
    if r is None or r == 0:
        raise ValueError(f"{b} does not lie in any a*r with r >= 1 for a = {a}")
    for i, (x, y) in enumerate(zip(a.entries, b.entries), start=1):
        if y > x:
            return i
    raise VerificationError(f"{b} has no entry above {a}, yet lies in a*{r}")


def dual(a: DecSeq) -> DecSeq:
    """The sequence (n+1-a_m, ..., n+1-a_1), valid as a is: built unchecked."""
    return DecSeq._trusted(a.n, tuple([a.n + 1 - x for x in reversed(a.entries)]))


def lambda_of(a: DecSeq) -> tuple[int, ...]:
    """Partition (a_1-m, a_2-m+1, ..., a_m-1), trailing zeros stripped."""
    m = a.m
    parts = [x - m + i for i, x in enumerate(a.entries)]
    return trim_partition(parts)


def alpha_of(lam, n: int, m: int) -> DecSeq:
    """Inverse of lambda_of: a_i = lam_i + m - i + 1, padding lam with zeros."""
    lam = trim_partition(lam)
    if len(lam) > m:
        raise ValueError(f"partition {lam} has more than {m} parts")
    if lam and lam[0] > n - m:
        raise ValueError(f"partition {lam} does not fit: first part exceeds {n - m}")
    padded = list(lam) + [0] * (m - len(lam))
    return DecSeq(n, tuple(p + m - i for i, p in enumerate(padded)))


def trim_partition(parts) -> tuple[int, ...]:
    parts = list(_integers(parts, "partition parts"))
    if any(p < 0 for p in parts):
        raise ValueError("partition parts must be nonnegative")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError("partition parts must weakly decrease")
    while parts and parts[-1] == 0:
        parts.pop()
    return tuple(parts)


def _conjugate(shape: tuple[int, ...]) -> tuple[int, ...]:
    """The conjugate partition: column lengths of the shape's diagram."""
    return tuple(sum(1 for x in shape if x > j) for j in range(shape[0] if shape else 0))


def _tableau_count(shape: tuple[int, ...], m: int) -> int:
    """The number of semistandard tableaux of the shape with entries at
    most m, by the hook-content formula (EC2 Cor. 7.21.4): the product of
    (m + j - i) / h over the boxes (i, j), h the box's hook length."""
    columns = _conjugate(shape)
    num = den = 1
    for i, row in enumerate(shape):
        for j in range(row):
            num *= m + j - i
            den *= row - j + columns[j] - i - 1
    return num // den


def covers_under(a: DecSeq, b: DecSeq, g: DecSeq) -> bool:
    """Whether g covers b in the branching order rooted at a.

    Requires b in a*r and g in a*(r+1) for the same r; the cover holds when
    g in b*1 and the first-difference index of g is the same against a and b.
    """
    rb = pieri_increment(a, b)
    rg = pieri_increment(a, g)
    if rb is None or rg is None or rg != rb + 1:
        raise ValueError("expected b in a*r and g in a*(r+1)")
    if pieri_increment(b, g) != 1:
        return False
    return first_diff_index(a, g) == first_diff_index(b, g)


def branch_parent(a: DecSeq, g: DecSeq) -> DecSeq:
    """The one b that g covers in the branching order rooted at a, for g in
    a*r, r >= 1: g - e_j with j = first_diff_index(a, g).

    If g covers b, then g lies in b*1, so g = b + e_i for the index i =
    first_diff_index(b, g), and covers_under makes i equal to j.  Conversely
    g - e_j is a valid sequence in a*(r-1) that g covers: a_j <= g_j - 1
    and g_(j+1) < a_j, so it still interlaces with a and with g: built unchecked.
    """
    j, e = first_diff_index(a, g), g.entries
    return DecSeq._trusted(g.n, e[:j - 1] + (e[j - 1] - 1,) + e[j:])


class PieriTree(Record):
    """Levels a*0, a*1, ..., a*b with the unique-parent covering edges:
    root is a, depth is b, levels[r] is the tuple of DecSeqs a*r, and edges
    holds the (parent, child) pairs."""

    _fields = ("root", "depth", "levels", "edges")

    def chains(self) -> tuple[tuple[DecSeq, ...], ...]:
        """All root-to-leaf chains, ordered by leaf (lex decreasing).

        deform.chain_histories lists the same chains ordered by the branch
        taken at each level in turn.  The two orders agree up to n = 6 and
        can differ from n = 7 on: for 631 at n = 7 and depth 2 the leaves
        run 741, 732, 651, 642 here and 741, 651, 732, 642 there.
        """
        parents = {c: p for p, c in self.edges}
        out = []
        for leaf in self.levels[-1]:
            chain = [leaf]
            while chain[-1] != self.root:
                chain.append(parents[chain[-1]])
            out.append(tuple(reversed(chain)))
        return tuple(out)


def tree_chains(a: DecSeq, b: int):
    """Build the depth-b branching tree and return (tree, chains).

    Each node at level i+1 is joined to its branch_parent, the one node it
    covers; construction checks that this parent lies at level i, so the
    levels are partitioned by parent.
    """
    if b < 0:
        raise ValueError("depth must be nonnegative")
    levels = [pieri_set(a, i) for i in range(b + 1)]
    edges = []
    for i in range(b):
        below = set(levels[i])
        for g in levels[i + 1]:
            p = branch_parent(a, g)
            if p not in below:
                raise VerificationError(
                    f"node {g} at level {i + 1} has its parent {p} off level {i}"
                )
            edges.append((p, g))
    tree = PieriTree(a, b, tuple(levels), tuple(edges))
    return tree, tree.chains()
