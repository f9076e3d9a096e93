"""Property tests of invariants the exact linear algebra and the branching
tree state.

Optional: skipped when hypothesis is not installed.  Example generation is
derandomized, so the suite stays deterministic.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

import fraction_reference as ref  # noqa: E402
from pierikit.exactla import (  # noqa: E402
    constant_family,
    intersect,
    limit_at_zero,
    span,
    sum_span,
)
from pierikit.seqcomb import DecSeq, covers_under, pieri_set, tree_chains  # noqa: E402

SETTINGS = hypothesis.settings(max_examples=60, derandomize=True, database=None,
                               deadline=None)

entries = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


def subspaces(n):
    """Spans of 0..n+1 random vectors of k^n, so often dependent."""
    return st.lists(st.lists(entries, min_size=n, max_size=n), max_size=n + 1).map(
        lambda rows: span(n, *rows))


@st.composite
def two_subspaces(draw):
    n = draw(st.integers(1, 5))
    return draw(subspaces(n)), draw(subspaces(n))


@SETTINGS
@hypothesis.given(two_subspaces())
def test_intersection_and_sum_dimension_formula(pair):
    a, b = pair
    meet, total = intersect(a, b), sum_span(a, b)
    assert meet.dim + total.dim == a.dim + b.dim
    assert a.contains(meet) and b.contains(meet)
    assert total.contains(a) and total.contains(b)


@SETTINGS
@hypothesis.given(two_subspaces())
def test_chart_restrict_extend_round_trip(pair):
    s, b = pair
    inner = intersect(s, b)  # some subspace of s
    restricted = s.restrict(inner)
    assert restricted.ambient == s.dim and restricted.dim == inner.dim
    assert ref.extend(s, restricted) == inner
    # and the other way round, from a subspace of k^(dim s)
    coords = span(s.dim, *[ref.coords(s, row) for row in b.basis if s.contains_vector(row)])
    assert s.restrict(ref.extend(s, coords)) == coords


@SETTINGS
@hypothesis.given(st.integers(1, 5).flatmap(subspaces))
def test_limit_of_constant_family(s):
    assert limit_at_zero(constant_family(s)) == s


@SETTINGS
@hypothesis.given(two_subspaces())
def test_contains_iff_sum_is_unchanged(pair):
    s, t = pair
    assert s.contains(t) is (sum_span(s, t) == s)
    assert s.contains(intersect(s, t))


@st.composite
def branching_roots(draw):
    """(a, b) with n = 8..12, any m and depth b <= 5: beyond the exhaustive
    unique-parent test in test_seqcomb.py (n < 8, b <= 3).  The entries
    fall by gaps of 1 to 4, so most rows have room to branch."""
    n = draw(st.integers(8, 12))
    entries = []
    for gap in draw(st.lists(st.integers(0, 3), min_size=1, max_size=n)):
        nxt = (entries[-1] if entries else n + 1) - 1 - gap
        if nxt < 1:
            break
        entries.append(nxt)
    return DecSeq(n, tuple(entries)), draw(st.integers(1, 5))


@hypothesis.settings(SETTINGS, max_examples=200)
@hypothesis.given(branching_roots())
def test_tree_chains_unique_parent(root):
    a, b = root
    tree, chains = tree_chains(a, b)
    for upper, lower in zip(tree.levels, tree.levels[1:]):
        for g in lower:
            assert sum(covers_under(a, p, g) for p in upper) == 1, (a, g)
    leaves = [chain[-1] for chain in chains]
    assert len(set(leaves)) == len(leaves)
    assert set(leaves) == set(pieri_set(a, b))
    assert all(chain[0] == a and len(chain) == b + 1 for chain in chains)
