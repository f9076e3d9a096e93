"""Tests for strictly decreasing index sequences and their branching tree.

The brute-force oracle below enumerates candidate sequences directly from the
interlacing definition, independent of the recursive production used by the
library, and the small frozen cases were computed from it.
"""

import itertools

import pytest

import pierikit.seqcomb as seqcomb
from fraction_reference import source_mutant
from pierikit.exactla import VerificationError
from pierikit.seqcomb import (
    DecSeq,
    PieriTree,
    alpha_of,
    bruhat_leq,
    codim,
    covers_under,
    dual,
    first_diff_index,
    lambda_of,
    pieri_increment,
    pieri_set,
    tree_chains,
    trim_partition,
)
from records_reference import trusted_refusals


def oracle_pieri(a: DecSeq, r: int) -> set[DecSeq]:
    """Direct enumeration: all b interlacing a with codim gain r."""
    n, m = a.n, a.m
    out = set()
    for entries in itertools.combinations(range(1, n + 1), m):
        b = DecSeq(n, tuple(sorted(entries, reverse=True)))
        ok = sum(b.entries) == sum(a.entries) + r
        for i in range(m):
            lower = a.entries[i]
            upper = a.entries[i - 1] - 1 if i else n
            if not lower <= b.entries[i] <= upper:
                ok = False
        if ok:
            out.add(b)
    return out


def all_seqs(n, m):
    for entries in itertools.combinations(range(1, n + 1), m):
        yield DecSeq(n, tuple(sorted(entries, reverse=True)))


def scanned_edges(a, b):
    """tree_chains' edges as it built them before: each node at level i+1
    joined to the one node at level i that covers_under finds in a scan of
    the whole level."""
    levels = [pieri_set(a, i) for i in range(b + 1)]
    edges = []
    for i in range(b):
        for g in levels[i + 1]:
            parents = [p for p in levels[i] if covers_under(a, p, g)]
            assert len(parents) == 1, (a, g)
            edges.append((parents[0], g))
    return tuple(edges)


class TestDecSeq:
    def test_validation(self):
        with pytest.raises(ValueError):
            DecSeq(4, (1, 2))
        with pytest.raises(ValueError):
            DecSeq(4, (5, 1))
        with pytest.raises(ValueError):
            DecSeq(4, (2, 2))
        with pytest.raises(ValueError):
            DecSeq(4, (1, 0))

    @pytest.mark.parametrize("n, entries, bad", [
        (9, (7.9, 4, 1), "7.9"),
        (9, ("7", 4, 1), "'7'"),
        (9, (7, 4, 1.0), "1.0"),
        (9.5, (7, 4, 1), "9.5"),
        ("9", (7, 4, 1), "'9'"),
    ])
    def test_non_integers_are_refused(self, n, entries, bad):
        """No entry or n is truncated (7.9 used to print as 741) or parsed
        ("7" used to be accepted); the message names the bad value."""
        with pytest.raises(ValueError, match=f"got {bad}$"):
            DecSeq(n, entries)

    def test_integer_likes_are_stored_as_int(self):
        a = DecSeq(True + 8, (7, 4, True))
        assert a == DecSeq(9, (7, 4, 1)) and str(a) == "741"
        assert type(a.n) is int and all(type(x) is int for x in a.entries)
        assert DecSeq(9, iter([7, 4, 1])) == a and DecSeq(9, [7, 4, 1]).entries == (7, 4, 1)

    def test_str_compact(self):
        assert str(DecSeq(9, (7, 4, 1))) == "741"
        assert str(DecSeq(12, (11, 3))) == "11,3"

    def test_codim(self):
        assert codim(DecSeq(9, (7, 4, 1))) == 6
        assert codim(DecSeq(4, (1,))) == 0
        assert codim(DecSeq(4, (2, 1))) == 0

    def test_bump(self):
        a = DecSeq(9, (7, 4, 1))
        assert a.bump(1).entries == (8, 4, 1)
        assert a.bump(3, 2).entries == (7, 4, 3)


class TestPieriSet:
    def test_zero_steps(self):
        a = DecSeq(9, (7, 4, 1))
        assert pieri_set(a, 0) == (a,)

    def test_single_step_741(self):
        got = pieri_set(DecSeq(9, (7, 4, 1)), 1)
        assert [g.entries for g in got] == [(8, 4, 1), (7, 5, 1), (7, 4, 2)]

    def test_two_step_741(self):
        got = pieri_set(DecSeq(9, (7, 4, 1)), 2)
        assert [g.entries for g in got] == [
            (9, 4, 1),
            (8, 5, 1),
            (8, 4, 2),
            (7, 6, 1),
            (7, 5, 2),
            (7, 4, 3),
        ]

    def test_top_cutoff(self):
        # increments past n disappear rather than clamp
        got = pieri_set(DecSeq(4, (4, 2)), 1)
        assert [g.entries for g in got] == [(4, 3)]

    def test_matches_oracle_exhaustive(self):
        for n in range(1, 7):
            for m in range(1, n + 1):
                for a in all_seqs(n, m):
                    for r in range(0, 4):
                        assert set(pieri_set(a, r)) == oracle_pieri(a, r), (a, r)

    def test_lex_decreasing_order(self):
        for a in all_seqs(6, 3):
            for r in (1, 2):
                got = [g.entries for g in pieri_set(a, r)]
                assert got == sorted(got, reverse=True)

    def test_no_entries(self):
        # the empty sequence is the only one with m = 0: a*0 = {a}, and
        # a*r is empty for r >= 1
        for n in range(1, 5):
            a = DecSeq(n, ())
            assert pieri_set(a, 0) == (a,)
            assert all(pieri_set(a, r) == () == tuple(oracle_pieri(a, r)) for r in (1, 2, 3))
            assert tree_chains(a, 2)[1] == ()

    def test_increment_membership(self):
        a = DecSeq(9, (7, 4, 1))
        assert pieri_increment(a, DecSeq(9, (8, 5, 1))) == 2
        assert pieri_increment(a, DecSeq(9, (7, 4, 1))) == 0
        # not interlacing: second entry jumped past first original entry
        assert pieri_increment(a, DecSeq(9, (8, 8, 1) if False else (9, 8, 1))) is None
        assert pieri_increment(DecSeq(4, (3, 1)), DecSeq(4, (2, 1))) is None


def depth(a):
    """The last r with a*r nonempty: the sum of the interlacing gaps."""
    e = (a.n + 1,) + a.entries
    return sum(x - 1 - y for x, y in zip(e, e[1:]))


# every sequence with n <= 7, m = 0 included
SEQS_TO_SEVEN = [a for n in range(1, 8) for m in range(n + 1) for a in all_seqs(n, m)]


def every_pieri_set():
    """seqcomb.pieri_set, read through the module so that a patched one
    runs, on every sequence with n <= 7 and every r up to one past its
    depth, from an empty cache."""
    seqcomb.pieri_set.cache_clear()
    for a in SEQS_TO_SEVEN:
        for r in range(depth(a) + 2):
            seqcomb.pieri_set(a, r)


class TestTrustedSequences:
    """pieri_set, dual and branch_parent build their sequences through
    DecSeq._trusted; the public constructor must accept every one."""

    def test_pieri_set_members(self, monkeypatch):
        assert len(SEQS_TO_SEVEN) == 254
        built, refused = trusted_refusals(monkeypatch, DecSeq, every_pieri_set)
        members = sum(len(pieri_set(a, r)) for a in SEQS_TO_SEVEN for r in range(depth(a) + 1))
        assert (built, refused) == (members, 0) and members == 986

    def test_duals(self, monkeypatch):
        built, refused = trusted_refusals(
            monkeypatch, DecSeq, lambda: [dual(a) for a in SEQS_TO_SEVEN])
        assert (built, refused) == (254, 0)

    def test_branch_parents_on_every_tree_edge(self, monkeypatch):
        every_pieri_set()
        trees = []
        built, refused = trusted_refusals(monkeypatch, DecSeq, lambda: trees.extend(
            tree_chains(a, depth(a))[0] for a in SEQS_TO_SEVEN))
        assert (built, refused) == (sum(len(tree.edges) for tree in trees), 0)
        assert built == 986 - 254  # a parent for every member but the roots

    def test_member_past_its_cap_is_caught(self, monkeypatch):
        # each entry may rise one step too far: onto the entry before it,
        # or past n for the first, which breaks the interlacing
        mutant = source_mutant(seqcomb.pieri_set.__wrapped__, "prev - 1 - x", "prev - x")
        monkeypatch.setattr(seqcomb, "pieri_set", mutant)
        assert trusted_refusals(monkeypatch, DecSeq, every_pieri_set)[1] >= 1000


class TestFirstDiff:
    def test_values(self):
        a = DecSeq(9, (7, 4, 1))
        assert first_diff_index(a, DecSeq(9, (8, 5, 1))) == 1
        assert first_diff_index(a, DecSeq(9, (7, 5, 2))) == 2
        assert first_diff_index(a, DecSeq(9, (7, 4, 3))) == 3

    def test_requires_membership(self):
        a = DecSeq(9, (7, 4, 1))
        with pytest.raises(ValueError):
            first_diff_index(a, a)
        with pytest.raises(ValueError):
            first_diff_index(a, DecSeq(9, (9, 8, 1)))

    def test_memoized_equals_the_uncached_scan(self):
        """On every a with n <= 8 and every g in a*r, r = 1..3, the memoized
        first_diff_index, from a cold cache and from a warm one (asked with
        an equal, not identical, g), is the least i with g_i > a_i, as the
        uncached function also finds."""
        uncached = first_diff_index.__wrapped__
        first_diff_index.cache_clear()
        pairs = 0
        for n in range(1, 9):
            for m in range(1, n + 1):
                for a in all_seqs(n, m):
                    for r in (1, 2, 3):
                        for g in pieri_set(a, r):
                            want = next(i for i, (x, y) in enumerate(zip(a, g), start=1)
                                        if y > x)
                            assert uncached(a, g) == first_diff_index(a, g) == want
                            assert first_diff_index(a, DecSeq(n, g.entries)) == want
                            pairs += 1
        info = first_diff_index.cache_info()
        assert (info.currsize, info.hits) == (pairs, pairs)
        assert pairs == 1841

    def test_errors_are_raised_every_time_and_never_cached(self):
        a = DecSeq(9, (7, 4, 1))
        first_diff_index.cache_clear()
        outside = (a, DecSeq(9, (9, 8, 1)), DecSeq(9, (6, 4, 1)), DecSeq(8, (7, 4, 1)),
                   DecSeq(9, (7, 4)))
        for _ in range(3):
            for g in outside:
                with pytest.raises(ValueError, match=r"does not lie in any a\*r"):
                    first_diff_index(a, g)
        assert first_diff_index.cache_info().currsize == 0
        assert first_diff_index(a, DecSeq(9, (7, 5, 1))) == 2
        with pytest.raises(ValueError, match=r"does not lie in any a\*r"):
            first_diff_index(a, a)
        assert first_diff_index.cache_info().currsize == 1

    def test_membership_without_a_rise_is_a_verification_error(self, monkeypatch):
        # a pieri_increment that places a in a*1 leaves no entry of a to
        # rise: a fault of the library, which the CLI reports with exit 1,
        # not an AssertionError traceback
        a = DecSeq(9, (7, 4, 1))
        first_diff_index.cache_clear()
        monkeypatch.setattr(seqcomb, "pieri_increment", lambda x, y: 1)
        for _ in range(2):
            with pytest.raises(VerificationError,
                               match=r"^741 has no entry above 741, yet lies in a\*1$"):
                first_diff_index(a, DecSeq(9, (7, 4, 1)))
        assert first_diff_index.cache_info().currsize == 0


class TestDualAndShape:
    def test_dual_741(self):
        assert dual(DecSeq(9, (7, 4, 1))).entries == (9, 6, 3)

    def test_dual_involution(self):
        for a in all_seqs(6, 3):
            assert dual(dual(a)) == a

    def test_dual_codim_complement(self):
        n, m = 6, 3
        top = m * (n - m)
        for a in all_seqs(n, m):
            assert codim(a) + codim(dual(a)) == top

    def test_lambda_roundtrip(self):
        a = DecSeq(9, (7, 4, 1))
        assert lambda_of(a) == (4, 2)
        assert alpha_of((4, 2), 9, 3) == a
        for b in all_seqs(7, 3):
            assert alpha_of(lambda_of(b), 7, 3) == b

    @pytest.mark.parametrize("parts, bad", [((2.5, 1), "2.5"), ((2, 1.0), "1.0"),
                                            (("2", 1), "'2'")])
    def test_partition_parts_are_not_truncated(self, parts, bad):
        # (2.5, 1) used to read as (2, 1)
        with pytest.raises(ValueError, match=f"partition parts must be integers, got {bad}$"):
            trim_partition(parts)
        with pytest.raises(ValueError, match=f"got {bad}$"):
            alpha_of(parts, 9, 3)

    def test_partition_parts_are_stored_as_int(self):
        assert trim_partition(iter([True + 1, True, 0])) == (2, 1)
        assert all(type(p) is int for p in trim_partition((True, False)))

    def test_alpha_of_rejects_wide(self):
        with pytest.raises(ValueError):
            alpha_of((5,), 6, 2)
        with pytest.raises(ValueError):
            alpha_of((1, 1, 1), 6, 2)


class TestBruhat:
    def test_basic(self):
        assert bruhat_leq(DecSeq(4, (3, 1)), DecSeq(4, (4, 2)))
        assert not bruhat_leq(DecSeq(4, (4, 1)), DecSeq(4, (3, 2)))

    def test_pieri_members_dominate(self):
        for a in all_seqs(6, 2):
            for r in (1, 2):
                for b in pieri_set(a, r):
                    assert bruhat_leq(a, b)


class TestTree:
    def test_levels_741_depth2(self):
        tree, chains = tree_chains(DecSeq(9, (7, 4, 1)), 2)
        assert [len(lv) for lv in tree.levels] == [1, 3, 6]
        assert len(chains) == 6

    def test_edges_match_branching_rule(self):
        tree, _ = tree_chains(DecSeq(9, (7, 4, 1)), 2)
        s = lambda e: DecSeq(9, e)
        want = {
            (s((7, 4, 1)), s((8, 4, 1))),
            (s((7, 4, 1)), s((7, 5, 1))),
            (s((7, 4, 1)), s((7, 4, 2))),
            (s((8, 4, 1)), s((9, 4, 1))),
            (s((7, 5, 1)), s((8, 5, 1))),
            (s((7, 5, 1)), s((7, 6, 1))),
            (s((7, 4, 2)), s((8, 4, 2))),
            (s((7, 4, 2)), s((7, 5, 2))),
            (s((7, 4, 2)), s((7, 4, 3))),
        }
        assert set(tree.edges) == want

    def test_chains_end_at_leaves(self):
        tree, chains = tree_chains(DecSeq(9, (7, 4, 1)), 2)
        assert {c[-1] for c in chains} == set(tree.levels[-1])
        for c in chains:
            assert len(c) == 3
            for x, y in zip(c, c[1:]):
                assert (x, y) in set(tree.edges)

    def test_unique_parent_exhaustive(self):
        # each level-(r+1) node has exactly one parent at level r
        for n in range(2, 8):
            for m in range(1, min(n, 4) + 1):
                for a in all_seqs(n, m):
                    for b in range(1, 4):
                        tree, _ = tree_chains(a, b)
                        for lv, nodes in enumerate(tree.levels[1:], start=1):
                            for g in nodes:
                                parents = [
                                    p for p in tree.levels[lv - 1]
                                    if covers_under(a, p, g)
                                ]
                                assert len(parents) == 1, (a, g)

    def test_edges_match_the_covers_under_scan(self, monkeypatch):
        """On every root at n = 3..8 and every depth up to its last nonempty
        level, the closed-form parents give the edges of the all-pairs
        covers_under scan, in the same order; tree_chains scans no more."""
        def forbid(*args):
            raise AssertionError("tree_chains called covers_under")

        monkeypatch.setattr(seqcomb, "covers_under", forbid)
        trees = edges = 0
        for n in range(3, 9):
            for m in range(1, n + 1):
                for a in all_seqs(n, m):
                    # a*r is empty past the sum of the interlacing gaps
                    e = a.entries
                    depth = n - e[0] + sum(x - 1 - y for x, y in zip(e, e[1:]))
                    assert pieri_set(a, depth) and not pieri_set(a, depth + 1)
                    want = scanned_edges(a, depth)
                    for b in range(depth + 1):
                        tree, _ = tree_chains(a, b)
                        assert tree.edges == want[:len(tree.edges)], (a, b)
                        assert len(tree.edges) == sum(map(len, tree.levels[1:]))
                        trees += 1
                    edges += len(want)
        assert (trees, edges) == (1788, 2072)

    def test_parent_off_by_one_row_raises_verification_error(self, monkeypatch):
        # g - e_(j+1) for j = first_diff_index(a, g): the parent of 841
        # under 741 would be 831, which is not at level 0
        def off_by_one_row(a, g):
            j = first_diff_index(a, g)
            try:
                return g.bump(j + 1 if j < g.m else j - 1, -1)
            except ValueError:
                return None

        monkeypatch.setattr(seqcomb, "branch_parent", off_by_one_row)
        with pytest.raises(VerificationError,
                           match="node 841 at level 1 has its parent 831 off level 0"):
            tree_chains(DecSeq(9, (7, 4, 1)), 2)

    def test_branch_parent_is_the_covered_node(self):
        a = DecSeq(9, (7, 4, 1))
        parents = {str(g): str(seqcomb.branch_parent(a, g)) for g in pieri_set(a, 2)}
        assert parents == {"941": "841", "851": "751", "842": "742",
                           "761": "751", "752": "742", "743": "742"}
        with pytest.raises(ValueError, match="does not lie in any a\\*r"):
            seqcomb.branch_parent(a, a)

    def test_covers_under(self):
        a = DecSeq(9, (7, 4, 1))
        b = DecSeq(9, (7, 4, 2))
        assert covers_under(a, b, DecSeq(9, (7, 5, 2)))
        # (8,4,2) differs from a first at 1 but from b's chain at 1 too
        assert covers_under(a, b, DecSeq(9, (8, 4, 2)))
        # (7,4,3): step at position 3, equals j(a,.) = 3
        assert covers_under(a, b, DecSeq(9, (7, 4, 3)))
        b2 = DecSeq(9, (8, 4, 1))
        # from (8,4,1) only the first entry may grow
        assert covers_under(a, b2, DecSeq(9, (9, 4, 1)))
        assert not covers_under(a, b2, DecSeq(9, (8, 5, 1)))
        assert not covers_under(a, b2, DecSeq(9, (8, 4, 2)))
