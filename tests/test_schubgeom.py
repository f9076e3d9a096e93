"""Tests for Schubert membership, the trichotomy classifier, incidence cells,
witnesses, tangent codimension, and degeneration cycles.

The nine-dimensional running example with rows (7,4,1) appears throughout;
its special subspaces are the one-parameter family below and its limits.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import pytest

import fraction_reference as ref
from pierikit import deform, exactla, schubgeom
from pierikit.exactla import (
    GenericityError,
    Subspace,
    VerificationError,
    canonicalize,
    intersect,
    rank,
    span,
    sum_span,
    unit_vector,
    vec,
)
from pierikit.seqcomb import DecSeq, first_diff_index, pieri_set
from pierikit.schubgeom import (
    IMPROPER,
    TRANSVERSE_IRREDUCIBLE,
    TRANSVERSE_OTHER,
    TRANSVERSE_REDUCIBLE,
    adapted_basis,
    cell_index,
    cell_member,
    cell_point,
    cell_profile_check,
    classify_pieri,
    cycle_signature,
    meets_properly,
    random_flag,
    restrict_flag,
    restrict_sequence,
    schubert_cell_point,
    schubert_member,
    standard_flag,
    tangent_codim,
    vector_avoiding,
    witness_point,
    x_member,
    y_cycle,
)

N = 9
FLAG = standard_flag(N)
A741 = DecSeq(9, (7, 4, 1))


def e(i, n=N):
    return unit_vector(n, i)


def L_family(t):
    t = Fraction(t)
    return span(
        N,
        vec([0, t, -1, 0, 0, 0, 0, 0, 0]),
        vec([0, 0, t, 0, -1, 0, 0, 0, 0]),
        vec([0, 0, 0, 0, t, -1, 0, 0, 0]),
        vec([0, 0, 0, 0, 0, t, 0, -1, 0]),
        e(9),
    )


L_GENERIC = span(N, e(1), e(2), e(3), e(4), e(5))
L_DEGENERATE = span(N, e(3), e(5), e(6), e(8), e(9))


class TestFlags:
    def test_standard_spaces(self):
        assert FLAG.subspace(7) == span(N, e(7), e(8), e(9))
        assert FLAG.subspace(1).dim == 9
        assert FLAG.subspace(10).is_zero
        assert FLAG.subspace(13).is_zero

    def test_adapted_basis_standard(self):
        assert adapted_basis(FLAG) == tuple(e(i) for i in range(1, 10))

    def test_random_flags_nest(self):
        for seed in range(10):
            f = random_flag(5, seed)
            for j in range(1, 6):
                assert f.subspace(j).dim == 6 - j
                assert f.subspace(j).contains(f.subspace(j + 1))

    def test_adapted_basis_random(self):
        f = random_flag(6, 3)
        u = adapted_basis(f)
        for j in range(1, 7):
            assert f.subspace(j) == span(6, *u[j - 1 :])


class TestMeetsProperly:
    def test_generic_true(self):
        assert meets_properly(L_GENERIC, FLAG)

    def test_degenerate_false(self):
        # the eighth flag space sits inside this subspace
        assert FLAG.subspace(8).dim == 2
        assert L_DEGENERATE.contains(FLAG.subspace(8))
        assert not meets_properly(L_DEGENERATE, FLAG)

    def test_whole_space(self):
        assert meets_properly(span(N, *[e(i) for i in range(1, 10)]), FLAG)


class TestSchubertMember:
    def test_coordinate_plane(self):
        H = span(N, e(7), e(4), e(1))
        assert schubert_member(H, A741, FLAG)

    def test_generic_plane_fails_positive_codim(self):
        for seed in range(5):
            rng = random.Random(seed)
            H = span(
                N, *[vec([rng.randint(-9, 9) for _ in range(N)]) for _ in range(3)]
            )
            assert H.dim == 3
            assert not schubert_member(H, A741, FLAG)

    def test_monotone(self):
        # membership for a larger index implies membership for a smaller one
        for seed in range(4):
            H = schubert_cell_point(DecSeq(9, (8, 5, 2)), FLAG, seed)
            for b in pieri_set(A741, 0) + pieri_set(A741, 1) + pieri_set(A741, 2):
                if all(
                    x <= y for x, y in zip(b.entries, (8, 5, 2))
                ):
                    assert schubert_member(H, b, FLAG)

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            schubert_member(span(N, e(1)), A741, FLAG)

    def test_disagreeing_paths_raise(self, monkeypatch):
        # a quotient path that never shrinks H contradicts the intersection
        # path on a member; the disagreement must surface, also under -O
        monkeypatch.setattr(schubgeom, "quotient_dim", lambda H, F: H.dim)
        with pytest.raises(VerificationError, match="disagree"):
            schubert_member(span(N, e(7), e(4), e(1)), A741, FLAG)


class TestXMember:
    def test_vacuous_when_flag_space_inside_L(self):
        b = DecSeq(9, (8, 4, 1))
        L = span(N, e(8), e(9), e(1), e(2), e(3))  # contains flag space 8
        for seed in range(3):
            H = schubert_cell_point(b, FLAG, seed)
            assert x_member(H, b, 1, FLAG, L) == schubert_member(H, b, FLAG)

    def test_golden_extensional_identity(self):
        # with the family at any t != 0, the incidence condition at row 1 of
        # (8,4,1) cuts out exactly the Schubert set of (9,4,1)
        b = DecSeq(9, (8, 4, 1))
        L = L_family(1)
        for seed in range(4):
            h_in = schubert_cell_point(DecSeq(9, (9, 4, 1)), FLAG, seed)
            h_out = schubert_cell_point(b, FLAG, seed)
            assert x_member(h_in, b, 1, FLAG, L)
            assert not x_member(h_out, b, 1, FLAG, L)

    def test_zero_overlap(self):
        b = DecSeq(9, (8, 4, 1))
        H = schubert_cell_point(b, FLAG, 0)
        L = intersect(span(N, e(1), e(2)), span(N, e(3)))  # zero space
        assert not x_member(H, b, 1, FLAG, L)


class TestClassifier:
    def test_generic_irreducible(self):
        c = classify_pieri(A741, FLAG, L_GENERIC, 2)
        assert c.verdict == TRANSVERSE_IRREDUCIBLE
        assert [(x.meet_dim, x.critical) for x in c.entries] == [(0, 1), (2, 3), (5, 5)]

    def test_family_reducible(self):
        for t in (1, 2, Fraction(1, 2)):
            c = classify_pieri(A741, FLAG, L_family(t), 2)
            assert c.verdict == TRANSVERSE_REDUCIBLE
            assert c.equality_set == (1, 2, 3)

    def test_limit_improper(self):
        c = classify_pieri(A741, FLAG, L_DEGENERATE, 2)
        assert c.verdict == IMPROPER
        assert [(x.meet_dim, x.critical) for x in c.entries] == [(2, 1), (4, 3), (5, 5)]

    def test_other_verdict(self):
        # equality in rows 1 and 3 but strict inequality in row 2
        L = span(N, e(9), e(4), e(1), e(2), e(3))
        c = classify_pieri(A741, FLAG, L, 2)
        assert c.verdict == TRANSVERSE_OTHER
        assert c.equality_set == (1, 3)

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            classify_pieri(A741, FLAG, span(N, e(1)), 2)

    def test_monotone_under_degeneration(self):
        # comparable pairs: if the smaller-meet member were improper while
        # the larger-meet member is transverse, monotonicity would fail
        pairs = [
            (L_GENERIC, L_family(1)),
            (L_family(1), L_DEGENERATE),
            (L_GENERIC, L_DEGENERATE),
        ]
        for small, large in pairs:
            cs = classify_pieri(A741, FLAG, small, 2)
            cl = classify_pieri(A741, FLAG, large, 2)
            dims_small = [x.meet_dim for x in cs.entries]
            dims_large = [x.meet_dim for x in cl.entries]
            assert all(x <= y for x, y in zip(dims_small, dims_large))
            if cl.verdict != IMPROPER:
                assert cs.verdict != IMPROPER

    def test_json(self):
        c = classify_pieri(A741, FLAG, L_family(1), 2)
        j = c.to_json()
        assert j["verdict"] == TRANSVERSE_REDUCIBLE
        assert j["equality_set"] == [1, 2, 3]
        assert j["table"][0] == {"j": 1, "flag_index": 7, "dim": 1, "critical": 1}


def textbook_cell_profile(a, s):
    """The expected profile of cell_profile_check as a table of cases, as
    it read before it became the Schubert position of cell_index(a, s):
    dim F_i cap L for i = 1..n."""
    n, m = a.n, a.m
    expected = {}
    for j in range(2, m + 1):
        lo, hi = a.entries[j - 1], a.entries[j - 2]
        for i in range(lo + 1, hi):
            expected[i] = (n + 1 - i) + 1 - j - (s - 1)
        expected[lo] = n + 2 - lo - j - s
    a1 = a.entries[0]
    expected[a1] = max(0, n + 1 - a1 - s)
    for i in range(a1 + 1, n + 1):
        expected[i] = max(0, n + 1 - max(i, a1 + s))
    for i in range(1, a.entries[m - 1]):
        expected[i] = n + 2 - i - m - s
    return [expected[i] for i in sorted(expected)]


class TestCells:
    def test_index_main(self):
        assert cell_index(A741, 2).entries == (9, 6, 5, 3, 2)

    def test_index_s1(self):
        assert cell_index(A741, 1).entries == (9, 8, 6, 5, 3, 2)

    def test_index_fallback(self):
        # first row too near the top for the strip: take the smallest leftovers
        a = DecSeq(5, (5, 2))
        got = cell_index(a, 2)
        assert got.entries == (3, 1)

    def test_membership_family(self):
        for t in (1, 2, 3):
            assert cell_member(L_family(t), A741, 2, FLAG)

    def test_membership_m(self):
        M = span(N, e(2), e(3), e(5), e(6), e(8), e(9))
        assert cell_member(M, A741, 1, FLAG)

    def test_nonmembers(self):
        assert not cell_member(L_DEGENERATE, A741, 2, FLAG)
        assert not cell_member(L_GENERIC, A741, 2, FLAG)
        assert not cell_member(span(N, e(1)), A741, 2, FLAG)

    def test_profile_family(self):
        rep = cell_profile_check(L_family(1), A741, 2, FLAG)
        assert rep.passed
        assert [(x.i, x.actual) for x in rep.entries] == [
            (1, 5), (2, 5), (3, 4), (4, 3), (5, 3), (6, 2), (7, 1), (8, 1), (9, 1),
        ]

    def test_profile_requires_membership(self):
        with pytest.raises(ValueError):
            cell_profile_check(L_GENERIC, A741, 2, FLAG)

    def test_sampled_points(self):
        for seed in range(3):
            L = cell_point(A741, 2, FLAG, seed)
            assert cell_member(L, A741, 2, FLAG)
            assert cell_profile_check(L, A741, 2, FLAG).passed

    def test_sampled_points_random_flag(self):
        f = random_flag(7, 2)
        a = DecSeq(7, (5, 2))
        L = cell_point(a, 2, f, 0)
        assert cell_member(L, a, 2, f)

    def test_cell_points_classify_reducible(self):
        L = cell_point(A741, 2, FLAG, 1)
        assert classify_pieri(A741, FLAG, L, 2).verdict == TRANSVERSE_REDUCIBLE

    def test_index_rejects_empty_cells(self):
        for s in (0, 5, 6, 7, 10):
            with pytest.raises(ValueError):
                cell_index(A741, s)
        assert cell_index(A741, 4).entries == (5, 3, 2)

    def test_valid_s_rule_matches_the_cells(self, monkeypatch):
        """For every n <= 6, every a and s = 1..n+2: a valid s yields a
        sampled point with a passing profile.  For any other s cell_index,
        cell_member and cell_profile_check raise, and with that range check
        switched off a sampled point of every Schubert cell of the right
        dimension either fails the dimension test or differs from the table
        of textbook_cell_profile, so no subspace has the profile that table
        gives the incidence cell."""
        rng = random.Random(6)
        seen = {"valid": 0, "invalid": 0, "member without profile": 0}
        for n in range(1, 7):
            flag = standard_flag(n)
            for m in range(1, n + 1):
                for entries in combinations(range(n, 0, -1), m):
                    a = DecSeq(n, entries)
                    a1 = entries[0]
                    for s in range(1, n + 3):
                        valid = 1 <= s <= n + 1 - m and (
                            s <= n + 1 - a1
                            or (s == n + 2 - a1 and (m == 1 or entries[1] < a1 - 1)))
                        if valid:
                            seen["valid"] += 1
                            L = cell_point(a, s, flag, seed=0)
                            assert cell_profile_check(L, a, s, flag).passed
                            continue
                        seen["invalid"] += 1
                        with pytest.raises(ValueError):
                            cell_index(a, s)
                        for piv in combinations(range(n, 0, -1), max(0, n + 1 - m - s)):
                            L = schubgeom._pivot_span(piv, flag, rng)
                            for check in (cell_member, cell_profile_check):
                                with pytest.raises(ValueError, match="empty"):
                                    check(L, a, s, flag)
                            with monkeypatch.context() as mp:
                                mp.setattr(schubgeom, "_check_cell_parameter",
                                           lambda a, s: None)
                                if cell_member(L, a, s, flag):
                                    seen["member without profile"] += 1
                                    assert (list(flag.meet_dims(L)[:n])
                                            != textbook_cell_profile(a, s))
        assert seen["valid"] >= 250 and seen["invalid"] >= 500, seen
        assert seen["member without profile"] >= 50, seen

    def test_profile_is_the_position_of_cell_index(self, monkeypatch):
        """For every valid (a, s) at n <= 9 the expected profile, the
        Schubert position #{k : beta_k >= i} of beta = cell_index(a, s),
        equals the table of cases it replaced."""
        monkeypatch.setattr(schubgeom, "profile_in_cell", lambda meets, a, s: True)
        compared = 0
        for n in range(1, 10):
            flag, zero = standard_flag(n), span(n)
            for m in range(1, n + 1):
                for entries in combinations(range(n, 0, -1), m):
                    a = DecSeq(n, entries)
                    for s in range(1, n + 3):
                        if not cell_parameter_valid(a, s):
                            continue
                        rep = cell_profile_check(zero, a, s, flag)
                        assert [x.i for x in rep.entries] == list(range(1, n + 1))
                        assert ([x.expected for x in rep.entries]
                                == textbook_cell_profile(a, s)), (a, s)
                        compared += 1
        assert compared == 2483, compared

    def test_boundary_member_outside_the_open_cell_fails_the_profile(self):
        """At s = n+2-a_1 the incidence cell holds more than the open cell
        of cell_index(a, s): <e_2> is in the level-2 cell of a = (3) in k^3,
        but the open cell of (1) has dim F_2 cap L = 0."""
        a, flag, L = DecSeq(3, (3,)), standard_flag(3), span(3, e(2, 3))
        assert cell_index(a, 2).entries == (1,)
        assert cell_member(L, a, 2, flag)
        rep = cell_profile_check(L, a, 2, flag)
        assert not rep.passed
        assert [(x.i, x.expected, x.actual) for x in rep.entries
                if x.expected != x.actual] == [(2, 0, 1)]


class TestWitness:
    def test_modes_and_predicates(self):
        L = L_family(1)
        for mode in (1, 2, 3):
            H = witness_point(A741, FLAG, L, mode, seed=mode)
            assert H.dim == 3
            assert schubert_member(H, A741, FLAG)
            for i in (1, 2, 3):
                assert intersect(H, FLAG.subspace(A741.entries[i - 1])).dim == i
            line = intersect(H, L)
            assert line.dim == 1
            assert FLAG.subspace(A741.entries[mode - 1]).contains(line)
            if mode > 1:
                assert not FLAG.subspace(A741.entries[mode - 2]).contains(line)

    def test_witness_lands_in_bumped_incidence_set(self):
        L = L_family(2)
        for mode in (1, 2, 3):
            H = witness_point(A741, FLAG, L, mode, seed=7)
            assert x_member(H, A741.bump(mode), mode, FLAG, L)

    def test_single_row(self):
        f4 = standard_flag(4)
        a = DecSeq(4, (2,))
        L = span(4, e(1, 4), e(2, 4), e(3, 4))
        H = witness_point(a, f4, L, 1)
        assert H.dim == 1
        assert f4.subspace(2).contains(H)
        assert intersect(H, L).dim == 1

    def test_hypotheses_fail(self):
        # row-2 carrier sits inside the row-1 flag space: no witness there
        L_bad = span(N, e(8), e(9), e(1), e(2), e(3))
        with pytest.raises(ValueError):
            witness_point(A741, FLAG, L_bad, 2, seed=0)

    def test_improper_rejected(self):
        with pytest.raises(ValueError):
            witness_point(A741, FLAG, L_DEGENERATE, 3, seed=0)


class TestVectorAvoiding:
    def test_basic(self):
        inside = span(3, vec([1, 0, 0]), vec([0, 1, 0]))
        v = vector_avoiding(inside, [span(3, vec([1, 0, 0]))])
        assert inside.contains_vector(v)
        assert not span(3, vec([1, 0, 0])).contains_vector(v)

    def test_impossible(self):
        inside = span(3, vec([1, 0, 0]))
        with pytest.raises(ValueError):
            vector_avoiding(inside, [span(3, vec([1, 0, 0]), vec([0, 1, 0]))])

    def test_exhausted_search_is_a_genericity_error(self, monkeypatch):
        # every candidate rejected: the seeded search runs out of draws
        monkeypatch.setattr(Subspace, "contains_vector", lambda self, v: True)
        inside = span(3, vec([1, 0, 0]), vec([0, 1, 0]))
        with pytest.raises(GenericityError, match="avoiding vector"):
            vector_avoiding(inside, [span(3, vec([0, 0, 1]))])

    def test_exhausted_cell_samplers(self, monkeypatch):
        monkeypatch.setattr(schubgeom, "schubert_member", lambda *a: False)
        with pytest.raises(GenericityError, match="open Schubert cell"):
            schubert_cell_point(DecSeq(9, (8, 4, 1)), FLAG, seed=0)
        monkeypatch.setattr(schubgeom, "cell_member", lambda *a: False)
        with pytest.raises(GenericityError, match="incidence cell"):
            cell_point(A741, 2, FLAG, seed=0)


class TestTangent:
    def test_codim_equals_cell_parameter(self):
        L = L_family(1)
        for mode in (1, 2, 3):
            H = witness_point(A741, FLAG, L, mode, seed=mode)
            assert tangent_codim(H, A741, FLAG, L) == 2

    def test_codim_on_sampled_cells(self):
        for n, entries, s in [(7, (5, 3, 1), 1), (8, (6, 3, 1), 2), (9, (7, 4, 1), 3)]:
            f = standard_flag(n)
            a = DecSeq(n, entries)
            L = cell_point(a, s, f, seed=n + s)
            H = witness_point(a, f, L, a.m, seed=1)
            assert tangent_codim(H, a, f, L) == s

    def test_no_conditions(self):
        # the special subspace together with H spans everything: codim zero
        f4 = standard_flag(4)
        a = DecSeq(4, (3, 1))
        H = span(4, e(3, 4), e(1, 4))
        L = span(4, e(1, 4), e(2, 4), e(4, 4))
        assert sum_span(L, H).dim == 4
        assert tangent_codim(H, a, f4, L) == 0

    def test_chart_independence(self):
        # the same configuration pushed through a global coordinate change
        g = [
            vec([1, 2, 0, 0, 0, 1, 0, 0, 0]),
            vec([0, 1, 0, 0, 3, 0, 0, 0, 0]),
            vec([0, 0, 1, 0, 0, 0, 0, 2, 0]),
            vec([1, 0, 0, 1, 0, 0, 0, 0, 0]),
            vec([0, 0, 0, 0, 1, 0, 1, 0, 0]),
            vec([0, 0, 0, 0, 0, 1, 0, 0, 4]),
            vec([0, 0, 0, 0, 0, 0, 1, 0, 0]),
            vec([0, 0, 0, 0, 0, 0, 0, 1, 1]),
            vec([0, 0, 0, 0, 0, 0, 0, 0, 1]),
        ]
        assert rank(g) == 9
        L = L_family(1)
        H = witness_point(A741, FLAG, L, 2, seed=2)
        base = tangent_codim(H, A741, FLAG, L)

        def mat_vec(rows, v):
            return tuple(sum(a * b for a, b in zip(row, v)) for row in rows)

        def push_space(S):
            return span(N, *[mat_vec(g, b) for b in S.basis])

        from pierikit.exactla import flag_from_basis

        u = adapted_basis(FLAG)
        flag2 = flag_from_basis([mat_vec(g, x) for x in u])
        assert tangent_codim(push_space(H), A741, flag2, push_space(L)) == base

    def test_smoothness_guard(self):
        L = L_family(1)
        H = span(N, e(9), e(8), e(1))  # meets flag space 7 in two dimensions
        with pytest.raises(ValueError):
            tangent_codim(H, A741, FLAG, L)


class TestRestriction:
    def test_sequence(self):
        assert restrict_sequence(DecSeq(9, (7, 5, 1)), 2).entries == (3, 1)
        assert restrict_sequence(DecSeq(9, (7, 5, 1)), 2).n == 5
        assert restrict_sequence(DecSeq(9, (7, 4, 2)), 3).entries == (6, 3, 1)
        assert restrict_sequence(DecSeq(9, (7, 4, 2)), 3).n == 8
        assert restrict_sequence(DecSeq(9, (7, 4, 1)), 1).entries == (1,)

    def test_flag(self):
        rf = restrict_flag(FLAG, 5)
        assert rf.ambient == 5
        for i in range(1, 6):
            assert rf.subspace(i).dim == 6 - i
        assert rf.subspace(6).is_zero
        # F_5's coordinates pull the restricted spaces back to the originals
        assert ref.extend(FLAG.subspace(5), rf.subspace(3)) == FLAG.subspace(7)

    def test_fibration_consistency(self):
        # incidence membership factors through the meet with flag space b_j
        b = DecSeq(9, (7, 5, 1))
        L = L_family(1)
        rf5 = restrict_flag(FLAG, 5)
        b_r = restrict_sequence(b, 2)
        fl5 = intersect(FLAG.subspace(5), L)
        for seed in range(4):
            H = witness_point(A741, FLAG, L, 2, seed=seed)
            K = intersect(H, FLAG.subspace(5))
            assert K.dim == 2
            lhs = x_member(H, b, 2, FLAG, L)
            rhs = schubert_member(FLAG.subspace(5).restrict(K), b_r, rf5) and (
                intersect(K, fl5).dim >= 1
            )
            assert lhs == rhs

    def test_restriction_commutes_with_flag_position(self):
        # step_verify reads a limit's restricted cell through F_q's
        # coordinates: restricting to F_q keeps dim F_j cap L for every j >= q
        rng = random.Random(8)
        checked = 0
        for n in range(1, 10):
            flag = random_flag(n, n)
            for _ in range(12):
                q = rng.randint(1, n + 1)
                Fq = flag.subspace(q)
                vectors = []
                for _ in range(rng.randint(0, Fq.dim)):
                    Fj = flag.subspace(rng.randint(q, n))
                    coeffs = [rng.randint(-3, 3) for _ in Fj.rows]
                    vectors.append([sum(c * row[i] for c, row in zip(coeffs, Fj.rows))
                                    for i in range(n)])
                L = canonicalize(vectors, n)
                inner = Fq.restrict(L)
                assert inner.ambient == Fq.dim and inner.dim == L.dim
                assert (restrict_flag(flag, q).meet_dims(inner)
                        == flag.meet_dims(L)[q - 1:])
                assert ref.extend(Fq, inner) == L
                checked += L.dim > 0 and q > 1
        assert checked >= 40, checked


class TestYCycle:
    def test_level_one(self):
        yc = y_cycle(A741, 1, 2, FLAG, L_family(1))
        assert yc == frozenset(
            {
                ("schubert", (9, 4, 1)),
                ("incidence", (7, 5, 1), 2),
                ("incidence", (7, 4, 2), 3),
            }
        )

    def test_base_convention(self):
        yc = y_cycle(A741, 0, 2, FLAG, L_family(1))
        assert yc == frozenset({("schubert", (8, 4, 1))})

    def test_level_two_deep_cell(self):
        # members that first grow in row 1 (941, 851, 842) are plain Schubert
        # components; the rest keep their incidence condition
        M = span(N, e(2), e(3), e(5), e(6), e(8), e(9))
        yc = y_cycle(A741, 2, 1, FLAG, M)
        assert yc == frozenset(
            {
                ("schubert", (9, 4, 1)),
                ("schubert", (8, 5, 1)),
                ("schubert", (8, 4, 2)),
                ("incidence", (7, 6, 1), 2),
                ("incidence", (7, 5, 2), 2),
                ("incidence", (7, 4, 3), 3),
            }
        )

    def test_requires_cell(self):
        with pytest.raises(ValueError):
            y_cycle(A741, 1, 2, FLAG, L_GENERIC)

    def test_top_drop(self):
        # first-row components pushed past the ambient bound disappear
        a = DecSeq(4, (4, 1))
        f = standard_flag(4)
        L = cell_point(a, 2, f, 0)
        yc = y_cycle(a, 1, 2, f, L)
        kinds = {k[0] for k in yc}
        assert ("schubert", (5, 1)) not in yc
        assert yc == frozenset({("incidence", (4, 2), 2)})

    def test_collapse_at_parameter_one(self):
        # at s=1 every incidence component is extensionally Schubert
        M = span(N, e(2), e(3), e(5), e(6), e(8), e(9))
        yc = y_cycle(A741, 2, 1, FLAG, M)
        for comp in yc:
            if comp[0] == "schubert":
                continue
            b, j = DecSeq(N, comp[1]), comp[2]
            meet = intersect(FLAG.subspace(b.entries[j - 1]), M)
            # the meet is a hyperplane-like slice big enough to catch any
            # j-dimensional subspace of the flag space
            assert meet.dim == FLAG.subspace(b.entries[j - 1]).dim - j + 1
            for seed in range(3):
                H = schubert_cell_point(b, FLAG, seed)
                assert x_member(H, b, j, FLAG, M) == schubert_member(H, b, FLAG)


# ---------------------------------------------------------------------------
# y_cycle against the descriptor-building version it replaced: one
# component object per branch-set member, duplicates refused on
# construction, the signature read off the components.

@dataclass(frozen=True)
class TextbookSchubert:
    index: DecSeq


@dataclass(frozen=True)
class TextbookIncidence:
    index: DecSeq
    j: int


@dataclass(frozen=True)
class TextbookCycle:
    components: tuple

    def __post_init__(self):
        seen = set()
        for c in self.components:
            if c.index in seen:
                raise ValueError("duplicate component index")
            seen.add(c.index)

    @property
    def signature(self) -> frozenset:
        return frozenset(
            ("schubert", c.index.entries) if isinstance(c, TextbookSchubert)
            else ("incidence", c.index.entries, c.j)
            for c in self.components)


def textbook_y_cycle(a, r, s, flag, L):
    if not cell_member(L, a, s, flag):
        raise ValueError("special subspace is not in the stated incidence cell")

    def push_first(b):
        top = b.entries[0] + s - 1
        if top > b.n:
            return None
        return TextbookSchubert(DecSeq(b.n, (top,) + b.entries[1:]))

    if r == 0:
        c = push_first(a)
        return TextbookCycle((c,) if c else ())
    comps = []
    for b in pieri_set(a, r):
        j = first_diff_index(a, b)
        if j == 1:
            c = push_first(b)
            if c:
                comps.append(c)
        else:
            comps.append(TextbookIncidence(b, j))
    return TextbookCycle(tuple(comps))


class TestYCycleDifferential:
    def test_every_sequence_up_to_six(self):
        compared = 0
        for n in range(1, 7):
            for flag in (standard_flag(n), random_flag(n, n + 1)):
                for m in range(1, n + 1):
                    for entries in combinations(range(n, 0, -1), m):
                        a = DecSeq(n, entries)
                        for s in range(1, n + 3):
                            try:
                                cell_index(a, s)
                            except ValueError:
                                continue
                            L = cell_point(a, s, flag, seed=s)
                            r = 0
                            while True:
                                assert (y_cycle(a, r, s, flag, L)
                                        == cycle_signature(a, r, s)
                                        == textbook_y_cycle(a, r, s, flag, L).signature)
                                compared += 1
                                if not pieri_set(a, r):
                                    break
                                r += 1
                            # L sits in the level-s cell, not the level-(s+1) one
                            for cycle in (y_cycle, textbook_y_cycle):
                                with pytest.raises(ValueError):
                                    cycle(a, 1, s + 1, flag, L)
        assert compared >= 2200, compared


# ---------------------------------------------------------------------------
# The flag-position predicates against the per-space textbook versions:
# one intersect per flag space, as the predicates read before
# Flag.meet_dims replaced those loops.

def textbook_meets_properly(L, flag):
    n = flag.ambient
    return all(intersect(flag.subspace(j), L).dim
               == max(0, flag.subspace(j).dim + L.dim - n) for j in range(1, n + 1))


def textbook_schubert_member(H, a, flag):
    return all(intersect(H, flag.subspace(aj)).dim >= j
               for j, aj in enumerate(a.entries, 1))


def textbook_cell_member(L, a, s, flag):
    n, m = a.n, a.m
    if L.dim != n + 1 - m - s:
        return False
    if intersect(flag.subspace(a.entries[0]), L) != flag.subspace(a.entries[0] + s):
        return False
    for j in range(2, m + 1):
        aj = a.entries[j - 1]
        meet = intersect(flag.subspace(aj), L)
        if meet != intersect(flag.subspace(aj + 1), L):
            return False
        if meet.dim != n + 2 - aj - j - s:
            return False
    return True


def cell_parameter_valid(a, s):
    try:
        cell_index(a, s)
    except ValueError:
        return False
    return True


def random_sequence(rng, n, m):
    return DecSeq(n, tuple(sorted(rng.sample(range(1, n + 1), m), reverse=True)))


class TestFlagPositionDifferential:
    def test_predicates_against_per_space_intersect(self):
        from pierikit.enumerative import reversed_flag
        rng = random.Random(19960111)
        seen = dict.fromkeys(("proper", "not proper", "schubert", "not schubert",
                              "cell", "not cell", "s out of range"), 0)
        for n in range(1, 8):
            for flag in (standard_flag(n), reversed_flag(n), random_flag(n, n + 1)):
                for _ in range(12):
                    m = rng.randint(1, n)
                    a = random_sequence(rng, n, m)
                    s = rng.randint(-1, n + 2)
                    try:
                        L = cell_point(a, s, flag, seed=rng.randrange(99))
                    except ValueError:
                        d = max(0, min(n, n + 1 - m - s))
                        L = schubgeom._pivot_span(
                            sorted(rng.sample(range(1, n + 1), d), reverse=True), flag, rng)
                    s = n + 1 - m - L.dim  # may lie outside cell_index's range
                    proper = meets_properly(L, flag)
                    assert proper is textbook_meets_properly(L, flag)
                    seen["proper" if proper else "not proper"] += 1
                    got = classify_pieri(a, flag, L, s).entries
                    assert [e.meet_dim for e in got] == [
                        intersect(flag.subspace(aj), L).dim for aj in a.entries]

                    if cell_parameter_valid(a, s):
                        # the sampled point and a point of a random Schubert
                        # cell of the same dimension
                        rival = schubgeom._pivot_span(
                            sorted(rng.sample(range(1, n + 1), L.dim), reverse=True),
                            flag, rng)
                        planes = (L, rival)
                    else:
                        with pytest.raises(ValueError):
                            cell_member(L, a, s, flag)
                        with pytest.raises(ValueError):
                            cell_profile_check(L, a, s, flag)
                        seen["s out of range"] += 1
                        planes = ()
                    for P in planes:
                        member = cell_member(P, a, s, flag)
                        assert member is textbook_cell_member(P, a, s, flag)
                        seen["cell" if member else "not cell"] += 1
                        if cell_parameter_valid(a, s + 1):
                            assert not cell_member(P, a, s + 1, flag)
                        if member:
                            report = cell_profile_check(P, a, s, flag)
                            assert [e.actual for e in report.entries] == [
                                intersect(flag.subspace(e.i), P).dim
                                for e in report.entries]
                        else:
                            with pytest.raises(ValueError):
                                cell_profile_check(P, a, s, flag)

                    b = random_sequence(rng, n, m)
                    H = schubgeom._pivot_span(b.entries, flag, rng)
                    member = schubert_member(H, a, flag)
                    assert member is textbook_schubert_member(H, a, flag)
                    seen["schubert" if member else "not schubert"] += 1
        assert all(count >= 20 for count in seen.values()), seen

    def test_out_of_range_s_raises(self):
        """The zero space of k^3 passes the dimension test for a = (3),
        s = 3, where cell_index finds the cell empty; cell_member raises
        there as cell_index does instead of calling it a member."""
        a, flag, L = DecSeq(3, (3,)), standard_flag(3), span(3)
        assert textbook_cell_member(L, a, 3, flag)
        for check in (cell_index, lambda a, s: cell_member(L, a, s, flag)):
            with pytest.raises(ValueError, match="empty for s = 3"):
                check(a, 3)


class TestPivotSpanDifferential:
    def test_against_the_fraction_sum(self):
        from pierikit.enumerative import reversed_flag
        rng = random.Random(19960106)
        checked = 0
        for n in range(1, 11):
            for flag in (standard_flag(n), reversed_flag(n), random_flag(n, n),
                         restrict_flag(random_flag(n + 2, n), 3)):
                for _ in range(4):
                    pivots = rng.sample(range(1, n + 1), rng.randint(1, n))
                    seed = rng.randrange(10**6)
                    ours, theirs = random.Random(seed), random.Random(seed)
                    got = schubgeom._pivot_span(pivots, flag, ours)
                    assert got == ref.pivot_span(pivots, flag, theirs), (n, pivots)
                    # the same random stream was drawn
                    assert ours.getstate() == theirs.getstate()
                    checked += 1
        assert checked == 160


# ----------------------------------------------------------------------
# Integer witness planes and tangent spaces.  vector_avoiding,
# witness_point, tangent_codim, cell_point and random_flag work on integer
# rows; the Fraction code they replaced stays in fraction_reference as the
# reference, value for value.

@dataclass(frozen=True)
class Raised:
    kind: str
    message: str


def outcome(fn, *args):
    """fn's value, or the ValueError or GenericityError it raised."""
    try:
        return fn(*args)
    except (ValueError, GenericityError) as exc:
        return Raised(type(exc).__name__, str(exc))


def witness_cases():
    """(a, flag, L, seed) at n = 4..9, on the standard flag and two seeded
    random flags: for two random a, the cell point of every nonempty cell
    parameter and one random subspace of a random admissible dimension."""
    rng = random.Random(19960122)
    cases = []
    for n in range(4, 10):
        for flag in (standard_flag(n), random_flag(n, n), random_flag(n, 10 * n)) * 2:
            m = rng.randint(1, min(3, n - 1))
            a = DecSeq(n, tuple(sorted(rng.sample(range(1, n + 1), m), reverse=True)))
            for s in range(1, n + 2 - m):
                seed = rng.randrange(1000)
                L = outcome(cell_point, a, s, flag, seed)
                assert L == outcome(ref.cell_point, a, s, flag, seed), (a, s)
                if isinstance(L, Subspace):
                    cases.append((a, flag, L, seed))
            d = rng.randint(0, n - m)
            L = span(n, *[[rng.randint(-4, 4) for _ in range(n)] for _ in range(d)])
            cases.append((a, flag, L, rng.randrange(1000)))
    return cases


def avoiding_cases():
    """(inside, avoid, seed) at n = 4..9: random rows for inside, and to
    avoid random subspaces (its rows pass), the lines through its rows
    (a pairwise sum passes) or those and the lines through every pairwise
    sum (a random combination passes)."""
    rng = random.Random(20261019)
    cases = []
    for i in range(240):
        n = rng.randint(4, 9)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(rng.randint(2, n - 1))]
        inside = span(n, *rows)
        regime = i % 3
        if regime == 0:
            avoid = [span(n, *[[rng.randint(-3, 3) for _ in range(n)]
                               for _ in range(rng.randint(0, n - 1))])]
        else:
            lines = list(inside.basis)
            if regime == 2:
                lines += [ref.vec_add(u, v) for k, u in enumerate(inside.basis)
                          for v in inside.basis[k + 1:]]
            avoid = [span(n, v) for v in lines]
        cases.append((inside, avoid, rng.randrange(10**6)))
    return cases


def avoiding_disagreements():
    """How many avoiding_cases() vector_avoiding gets wrong against the
    Fraction reference: a different vector, not a Fraction vector, or a
    different rng stream."""
    wrong = 0
    for inside, avoid, seed in avoiding_cases():
        ours, theirs = random.Random(seed), random.Random(seed)
        got = outcome(schubgeom.vector_avoiding, inside, avoid, ours)
        want = outcome(ref.vector_avoiding, inside, avoid, theirs)
        wrong += (got != want or ours.getstate() != theirs.getstate()
                  or not (isinstance(got, Raised)
                          or all(type(x) is Fraction for x in got)))
    return wrong


def witness_disagreements(cases):
    """How many witness planes and tangent codimensions differ from the
    Fraction reference over the cases, and the planes built."""
    planes = wrong = 0
    for a, flag, L, seed in cases:
        for mode in range(1, a.m + 1):
            H = outcome(schubgeom.witness_point, a, flag, L, mode, seed)
            wrong += H != outcome(ref.witness_point, a, flag, L, mode, seed)
            if isinstance(H, Subspace):
                planes += 1
                wrong += (outcome(schubgeom.tangent_codim, H, a, flag, L)
                          != outcome(ref.tangent_codim, H, a, flag, L))
    return planes, wrong


class TestIntegerWitnesses:
    def test_vector_avoiding_is_the_fraction_vector(self):
        """The same vector, as Fractions, from the same rng draws, whether
        a row, a pairwise sum or a random combination passes."""
        cases = avoiding_cases()
        assert avoiding_disagreements() == 0
        # every regime reaches the stage it is built for
        stages = {"row": 0, "sum": 0, "random": 0}
        for inside, avoid, seed in cases:
            v = outcome(vector_avoiding, inside, avoid, random.Random(seed))
            if isinstance(v, Raised):
                continue
            if v in inside.basis:
                stages["row"] += 1
            elif v in [ref.vec_add(u, w) for k, u in enumerate(inside.basis)
                       for w in inside.basis[k + 1:]]:
                stages["sum"] += 1
            else:
                stages["random"] += 1
        assert all(count >= 50 for count in stages.values()), stages

    def test_witness_planes_and_codimensions_are_the_fraction_ones(self):
        """witness_point and tangent_codim on the cases give the reference
        plane and codimension, or raise what it raises; cell_point is
        checked while the cases are drawn."""
        cases = witness_cases()
        planes, wrong = witness_disagreements(cases)
        assert wrong == 0
        assert planes >= 100 and len(cases) >= 150, (planes, len(cases))
        assert sum(not flag._is_coordinate for _, flag, _, _ in cases) >= 100

    def test_random_flag_draws_the_fraction_basis(self):
        for n in range(1, 10):
            for seed in range(6):
                got, want = random_flag(n, seed), ref.random_flag(n, seed)
                assert got == want and got.adapted_basis == want.adapted_basis

    def test_no_fraction_basis_is_read(self, monkeypatch):
        """witness_point, tangent_codim and _pivot_span never read a
        subspace's Fraction basis."""
        cases, want = witness_cases()[::3], []
        for a, flag, L, seed in cases:
            H = outcome(ref.witness_point, a, flag, L, 1, seed)
            H = H if isinstance(H, Subspace) else None
            want.append((ref.pivot_span(a.entries, flag, random.Random(seed)), H,
                         None if H is None else ref.tangent_codim(H, a, flag, L)))

        def forbid(self):
            raise AssertionError("read a Subspace's Fraction basis")

        monkeypatch.setattr(Subspace, "basis", property(forbid))
        for (a, flag, L, seed), (pivot_span, H, codim) in zip(cases, want):
            assert schubgeom._pivot_span(a.entries, flag, random.Random(seed)) == pivot_span
            if H is not None:
                assert witness_point(a, flag, L, 1, seed) == H
                assert tangent_codim(H, a, flag, L) == codim
        assert sum(H is not None for _, H, _ in want) >= 10


class TestIntegerWitnessMutants:
    """Wrong integer variants, each caught by the differentials above."""

    def test_avoiding_sum_without_the_lift_fails(self, monkeypatch):
        # the canonical rows summed as they are: each is its canonical basis
        # vector times its own pivot entry, not one common multiple
        monkeypatch.setattr(schubgeom, "vector_avoiding", ref.source_mutant(
            schubgeom.vector_avoiding, "P, cand = _scaled_lift(inside.rows)",
            "P, cand = 1, [list(row) for row in inside.rows]"))
        assert avoiding_disagreements() >= 200

    def test_tangent_coordinates_one_column_off_fail(self, monkeypatch):
        monkeypatch.setattr(schubgeom, "tangent_codim", ref.source_mutant(
            schubgeom.tangent_codim, "u[p] * x", "u[p - 1] * x"))
        planes, wrong = witness_disagreements(witness_cases())
        assert wrong >= 30, (planes, wrong)

    def test_lift_by_the_first_leading_entry_fails(self, monkeypatch):
        # P = the first row's leading entry, not the lcm of them all: the
        # other rows are scaled by P // lead, rounded down
        mutant = ref.source_mutant(exactla._scaled_lift, "P = lcm(*leads)",
                                   "P = leads[0] if leads else 1")
        for module in (exactla, schubgeom, deform):
            monkeypatch.setattr(module, "_scaled_lift", mutant)
        assert avoiding_disagreements() >= 40
        rng = random.Random(4)
        wrong = 0
        for n in range(4, 10):
            flag = random_flag(n, n)
            for _ in range(5):
                pivots = sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
                seed = rng.randrange(1000)
                wrong += (schubgeom._pivot_span(pivots, flag, random.Random(seed))
                          != ref.pivot_span(pivots, flag, random.Random(seed)))
        assert wrong >= 15, wrong
