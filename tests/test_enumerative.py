"""Quintuple problems: the pair count, both oracles, and the witnesses."""

import os
import random
import re
import subprocess
import sys
from itertools import combinations, combinations_with_replacement, permutations
from operator import mul
from pathlib import Path

import pytest

import fraction_reference as ref
import pierikit
from pierikit import enumerative, seqcomb, tableaux
from pierikit.enumerative import (
    QuintupleProblem,
    _slice_frame,
    cohomology_oracle,
    count_pairs_d,
    pieri_pairing_oracle,
    real_witness_set,
    reversed_flag,
    triple_witnesses,
    valid_instances,
)
from pierikit.exactla import (
    GenericityError,
    VerificationError,
    flag_from_basis,
    frac,
    full_space,
    intersect,
    quotient_dim,
    quotient_subspace,
    solve_columns,
    span,
    sum_span,
    unit_vector,
    zero_subspace,
)
from pierikit.schubgeom import random_flag, schubert_member, standard_flag
from pierikit.seqcomb import DecSeq, codim, dual, lambda_of, pieri_set
from pierikit.tableaux import (
    chow_project,
    complete_homogeneous,
    schur_decompose,
    schur_expand,
    ssyt_enumerate,
)


def seq(n, *entries):
    return DecSeq(n, entries)


FOUR_LINES = QuintupleProblem(4, 2, seq(4, 3, 1), seq(4, 2, 1), 1, 1, 1)


class TestProblem:
    def test_dimension_equation_enforced(self):
        with pytest.raises(ValueError, match="ambient dimension"):
            QuintupleProblem(4, 2, seq(4, 3, 1), seq(4, 2, 1), 2, 1, 1)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            QuintupleProblem(4, 2, seq(4, 3, 1), seq(4, 3, 1), -1, 1, 2)

    def test_mismatched_sequence_rejected(self):
        with pytest.raises(ValueError):
            QuintupleProblem(4, 2, seq(5, 3, 1), seq(4, 2, 1), 1, 1, 1)

    @pytest.mark.parametrize("alpha, beta, bad", [
        ((3, 1), seq(4, 2, 1), "alpha"), (seq(4, 3, 1), (2, 1), "beta"),
        ([3, 1], [2, 1], "alpha"), (seq(4, 3, 1), None, "beta"),
    ], ids=["alpha tuple", "beta tuple", "both lists", "beta None"])
    def test_sequences_must_be_decseqs(self, alpha, beta, bad):
        # a tuple used to fail on reading its .n, as an AttributeError
        with pytest.raises(ValueError, match=f"^{bad} must be a DecSeq, got "):
            QuintupleProblem(4, 2, alpha, beta, 1, 1, 1)

    @pytest.mark.parametrize("args, bad", [
        ((4.0, 2, 1, 1, 1), "4.0"), ((4, 2.0, 1, 1, 1), "2.0"), ((4, 2, 1.0, 1, 1), "1.0"),
        ((4, 2, 1, 1, 0.5), "0.5"), ((4, 2, 1, "1", 1), "'1'"),
    ], ids=["n", "m", "a", "c", "b str"])
    def test_non_integers_are_refused(self, args, bad):
        n, m, a, b, c = args
        with pytest.raises(ValueError, match=f"must be integers, got {bad}$"):
            QuintupleProblem(n, m, seq(4, 3, 1), seq(4, 2, 1), a, b, c)

    def test_integer_likes_are_stored_as_int(self):
        p = QuintupleProblem(4, 2, seq(4, 3, 1), seq(4, 2, 1), True, 1, True)
        assert p == FOUR_LINES and p.to_json() == FOUR_LINES.to_json()
        assert all(type(getattr(p, f)) is int for f in "nmabc")

    def test_json_round(self):
        blob = FOUR_LINES.to_json()
        assert blob["alpha"]["entries"] == [3, 1] and blob["c"] == 1


class TestCountPairs:
    def test_four_lines(self):
        # alpha*1 = {41, 32}, beta*1 = {31}; (31)-dual = (42) is reachable
        # from both, so both pairs count
        assert count_pairs_d(FOUR_LINES) == 2

    def test_lines_through_points(self):
        p = QuintupleProblem(4, 1, seq(4, 1), seq(4, 1), 1, 1, 1)
        assert count_pairs_d(p) == 1

    def test_empty_branch_set_gives_zero(self):
        p = QuintupleProblem(6, 2, seq(6, 3, 2), seq(6, 2, 1), 4, 1, 1)
        assert pieri_set(p.alpha, p.a) == ()
        assert count_pairs_d(p) == 0

    def test_swap_invariance_via_oracles(self):
        for p in (FOUR_LINES,
                  QuintupleProblem(5, 2, seq(5, 3, 1), seq(5, 3, 2), 1, 1, 1),
                  QuintupleProblem(6, 3, seq(6, 5, 3, 1), seq(6, 4, 2, 1), 1, 1, 3)):
            # the same problem with the two flag conditions exchanged
            q = QuintupleProblem(p.n, p.m, p.beta, p.alpha, p.b, p.a, p.c)
            assert count_pairs_d(p) == cohomology_oracle(p)
            assert count_pairs_d(q) == cohomology_oracle(q)
            assert cohomology_oracle(p) == cohomology_oracle(q)


class TestCohomologyOracle:
    def test_four_lines(self):
        assert cohomology_oracle(FOUR_LINES) == 2

    def test_lines_through_points(self):
        p = QuintupleProblem(4, 1, seq(4, 1), seq(4, 1), 1, 1, 1)
        assert cohomology_oracle(p) == 1

    def test_duality_pairing(self):
        # with a = b = 0 the equation forces c = 0 exactly on
        # codimension-complementary pairs, and the product pairs to 1
        # precisely on dual partners
        a = seq(6, 4, 1)
        need = 2 * 4 - codim(a)
        partners = [b for b in (seq(6, 6, 3), seq(6, 5, 4)) if codim(b) == need]
        assert len(partners) == 2
        for b in partners:
            p = QuintupleProblem(6, 2, a, b, 0, 0, 0)
            want = 1 if b == dual(a) else 0
            assert cohomology_oracle(p) == want
            assert count_pairs_d(p) == want

    def test_size_guard(self):
        # m(n-m) = 36 is past the one cap of 30
        p = QuintupleProblem(12, 6, seq(12, 9, 8, 7, 6, 5, 4), seq(12, 6, 5, 4, 3, 2, 1),
                             6, 6, 6)
        with pytest.raises(ValueError, match="too large"):
            cohomology_oracle(p)

    def test_counts_past_half_in_n_minus_m_variables(self, monkeypatch):
        """For m > n/2 the bialternant is built in n-m variables, whose
        cost stays that of Gr(n-m, n): 14 variables at n = 16 would walk
        14! permutations."""
        variables = []
        real = enumerative._alternant
        monkeypatch.setattr(enumerative, "_alternant",
                            lambda shape, m, n: variables.append((n, m)) or real(shape, m, n))
        rng = random.Random(30)
        for n, m in [(16, 14), (31, 30), (13, 10), (11, 6)]:
            p = reachable_problem(rng, n, m)
            assert cohomology_oracle(p) == pieri_pairing_oracle(p) == count_pairs_d(p) >= 1
            assert variables[-1] == (n, n - m)


def expansion_oracle(p):
    """The rectangle coefficient by full expansion: multiply the Schur
    polynomials out with Fraction coefficients, decompose greedily in the
    Schur basis, project to the Grassmannian and read off ((n-m)^m)."""
    m = p.m
    poly = schur_expand(lambda_of(p.alpha), m) * schur_expand(lambda_of(p.beta), m)
    for deg in (p.a, p.b, p.c):
        poly = poly * complete_homogeneous(deg, m)
    return chow_project(schur_decompose(poly, m), p.n, m).get((p.n - m,) * m, 0)


def random_problem(rng, n, m):
    """A problem with random flag conditions leaving at least a random
    degree, split uniformly at random into a, b, c (zeros allowed)."""
    seqs = [DecSeq(n, e) for e in combinations(range(n, 0, -1), m)]
    need = rng.randint(0, m * (n - m) // 2)
    while True:
        alpha, beta = rng.choice(seqs), rng.choice(seqs)
        left = m * (n - m) - codim(alpha) - codim(beta)
        if left >= need:
            break
    x, y = sorted(rng.randint(0, left) for _ in range(2))
    return QuintupleProblem(n, m, alpha, beta, x, y - x, left - y)


class TestOracleAgainstExpansion:
    def test_seeded_differential(self):
        rng = random.Random(20240)
        n7 = [p for p in valid_instances(7) if p.n == 7]
        problems = rng.sample(list(valid_instances(6)), 70)
        for m in (2, 3, 4, 5):
            problems += rng.sample([p for p in n7 if p.m == m], 2)
        shapes = [(n, m) for n in range(2, 7) for m in range(1, n)]
        problems += [random_problem(rng, *rng.choice(shapes)) for _ in range(53)]
        problems += [random_problem(rng, 7, m) for m in range(1, 7) for _ in range(2)]
        # zero special conditions, one, two and all three at once
        problems += [
            QuintupleProblem(5, 2, seq(5, 4, 2), seq(5, 3, 1), 0, 1, 1),
            QuintupleProblem(5, 2, seq(5, 4, 2), seq(5, 3, 1), 1, 0, 1),
            QuintupleProblem(5, 2, seq(5, 4, 2), seq(5, 3, 1), 1, 1, 0),
            QuintupleProblem(6, 3, seq(6, 5, 3, 1), seq(6, 4, 2, 1), 0, 0, 5),
            QuintupleProblem(6, 3, seq(6, 6, 4, 2), seq(6, 5, 3, 1), 0, 0, 0),
            QuintupleProblem(7, 4, seq(7, 6, 4, 3, 1), seq(7, 5, 4, 2, 1), 0, 4, 2),
        ]
        # n = 8, m = 4: m(n-m) = 16
        problems.append(QuintupleProblem(8, 4, seq(8, 7, 5, 3, 2),
                                         seq(8, 6, 5, 3, 1), 1, 1, 2))
        assert len(problems) == 150
        assert sum(min(p.a, p.b, p.c) == 0 for p in problems) >= 40
        nonzero = 0
        for p in problems:
            got = cohomology_oracle(p)
            assert type(got) is int
            assert got == expansion_oracle(p), p
            nonzero += got > 0
        assert nonzero >= 40
        assert cohomology_oracle(problems[-1]) == count_pairs_d(problems[-1]) == 5


@pytest.mark.skipif(os.environ.get("PIERIKIT_SLOW") != "1",
                    reason="full n <= 7 sweep; set PIERIKIT_SLOW=1 to run it")
def test_three_way_agreement_full_n7():
    count = 0
    for p in valid_instances(7):
        d = count_pairs_d(p)
        assert d == cohomology_oracle(p) == pieri_pairing_oracle(p), p
        count += 1
    assert count == 7463


def reachable_problem(rng, n, m):
    """A problem with a, b, c <= n-m whose count is at least one: beta is
    the dual of an endpoint of a random walk alpha -> h_a -> h_b -> h_c
    through the branch sets."""
    seqs = [DecSeq(n, e) for e in combinations(range(n, 0, -1), m)]
    while True:
        a, b, c = (rng.randint(0, n - m) for _ in range(3))
        g = alpha = rng.choice(seqs)
        for r in (a, b, c):
            branch = pieri_set(g, r)
            if not branch:
                break
            g = rng.choice(branch)
        else:
            return QuintupleProblem(n, m, alpha, dual(g), a, b, c)


@pytest.mark.skipif(os.environ.get("PIERIKIT_SLOW") != "1",
                    reason="n = 9..11 oracle counts; set PIERIKIT_SLOW=1 to run them")
def test_three_way_agreement_n9_to_11():
    """Twenty seeded problems at n = 9..11 up to the cap m(n-m) = 30 (n = 11,
    m = 5 and m = 6), each counted three ways and counted at least once."""
    rng = random.Random(9601006)
    shapes = [(9, 3), (9, 4), (10, 4), (10, 5), (11, 4), (11, 5),
              (9, 6), (10, 6), (11, 6), (11, 7)]
    problems = [reachable_problem(rng, n, m) for n, m in shapes for _ in range(2)]
    assert max(p.m * (p.n - p.m) for p in problems) == 30
    for p in problems:
        d = count_pairs_d(p)
        assert d >= 1 and d == cohomology_oracle(p) == pieri_pairing_oracle(p), p


# ---------------------------------------------------------------------------
# the bialternant oracle against the body it replaced


def _reference_vandermonde(m, n):
    """a_delta as {packed exponent: sign}, at most the target."""
    width = enumerative._field_width(n)
    target = range(n - 1, n - 1 - m, -1)
    out = {}
    for perm in permutations(range(m)):
        e = [m - 1 - q for q in perm]
        if all(x <= y for x, y in zip(e, target)):
            inversions = sum(perm[i] > perm[j] for i, j in combinations(range(m), 2))
            out[enumerative._pack(e, width)] = -1 if inversions % 2 else 1
    return out


def reference_oracle(p):
    """cohomology_oracle as it read before its largest factor entered as an
    alternant: a_delta times every factor but the largest, built per
    problem, and a lookup of the largest."""
    if p.m * (p.n - p.m) > enumerative._EXPANSION_CAP:
        raise ValueError("instance too large for polynomial expansion")
    n, m = p.n, p.m
    shapes = (lambda_of(p.alpha), lambda_of(p.beta),
              *((d,) if d else () for d in (p.a, p.b, p.c)))
    if 2 * m > n:
        m = n - m
        shapes = tuple(enumerative._conjugate(s) for s in shapes)
    width = enumerative._field_width(n)
    guards = enumerative._pack([1 << (width - 1)] * m, width)
    target = enumerative._pack(range(n - 1, n - 1 - m, -1), width)
    top = target | guards
    factors = sorted((enumerative._schur_weights(s, m, n) for s in shapes), key=len)
    poly = _reference_vandermonde(m, n)
    for weights in factors[:-1]:
        step = {}
        for e, c in poly.items():
            for w, k in weights.items():
                s = e + w
                if (top - s) & guards == guards:
                    step[s] = step.get(s, 0) + c * k
        poly = step
    last = factors[-1]
    return sum(c * last.get(target - e, 0) for e, c in poly.items())


def reference_mismatches(problems):
    """The problems on which cohomology_oracle and the reference differ."""
    return [p for p in problems if enumerative.cohomology_oracle(p) != reference_oracle(p)]


def seeded_problems_8_to_11():
    """Seeded problems at n = 8..11 on both sides of n/2, up to the cap:
    two with random counts and one counted at least once per shape."""
    rng = random.Random(1996)
    shapes = [(8, 3), (8, 5), (9, 4), (9, 5), (10, 4), (10, 6), (11, 5), (11, 6)]
    return [f(rng, n, m) for n, m in shapes
            for f in (random_problem, random_problem, reachable_problem)]


class TestOracleAgainstReference:
    def test_every_problem_up_to_n7(self):
        problems = list(valid_instances(7))
        assert len(problems) == 7463
        assert reference_mismatches(problems) == []

    def test_seeded_n8_to_11(self):
        problems = seeded_problems_8_to_11()
        assert {2 * p.m > p.n for p in problems} == {False, True}
        assert max(p.m * (p.n - p.m) for p in problems) == 30
        assert sum(reference_oracle(p) > 0 for p in problems) >= 8
        assert reference_mismatches(problems) == []

    def test_alternant_of_the_empty_shape_is_the_vandermonde(self):
        # up to the oracle's five variables
        for n in range(2, 12):
            for m in range(1, min(n, 6)):
                assert enumerative._alternant((), m, n) == _reference_vandermonde(m, n)

    def test_tableau_count_is_the_enumeration_size(self):
        # the hook-content count that orders the factors, on every shape
        # of at most four rows and three columns
        shapes = {tuple(x for x in sorted(c, reverse=True) if x)
                  for c in combinations_with_replacement(range(4), 4)}
        assert len(shapes) == 35
        for shape in shapes:
            for m in range(6):
                want = len(ssyt_enumerate(shape, m))
                assert enumerative._tableau_count(shape, m) == want, (shape, m)

    def test_shape_past_the_variables_has_a_zero_alternant(self):
        assert enumerative._alternant((1, 1, 1), 2, 5) == {}


class TestOracleMutants:
    """Wrong variants of the alternant factor, each caught against the
    reference on the problems up to n = 6 (643 of them count at least
    once)."""

    @pytest.mark.parametrize("old, new", [
        ("-1 if inversions % 2 else 1", "1 if inversions % 2 else -1"),
        ("x + m - 1 - j for j, x", "x for j, x"),
        ("x <= y", "x < y"),
    ], ids=["signs flipped", "no delta shift", "strict truncation"])
    def test_alternant_mutants_fail(self, monkeypatch, old, new):
        monkeypatch.setattr(enumerative, "_alternant", ref.source_mutant(
            enumerative._alternant.__wrapped__, old, new))
        assert len(reference_mismatches(valid_instances(6))) >= 300

    def test_alternant_factor_multiplied_in_again_fails(self, monkeypatch):
        monkeypatch.setattr(enumerative, "cohomology_oracle", ref.source_mutant(
            enumerative.cohomology_oracle, "factors[:-2]", "factors[:-2] + factors[-1:]"))
        assert len(reference_mismatches(valid_instances(6))) >= 300


class TestOracleIndependence:
    def test_counts_without_branch_sets(self, monkeypatch):
        """With its caches emptied, the oracle counts every problem up to
        n = 6 while any call of pieri_set raises."""
        problems = list(valid_instances(6))
        want = [count_pairs_d(p) for p in problems]

        def no_branch_sets(*args):
            raise AssertionError("the cohomology oracle called pieri_set")

        for module in (enumerative, tableaux):
            for fn in vars(module).values():
                if hasattr(fn, "cache_clear"):
                    fn.cache_clear()
        for module in (seqcomb, enumerative, tableaux):
            monkeypatch.setattr(module, "pieri_set", no_branch_sets)
        assert [cohomology_oracle(p) for p in problems] == want


class TestPieriPairingOracle:
    def test_four_lines(self):
        assert pieri_pairing_oracle(FOUR_LINES) == 2

    def test_forced_single_chain(self):
        # beta dual to the unique endpoint of the iterated branching
        p = QuintupleProblem(4, 1, seq(4, 1), seq(4, 1), 1, 1, 1)
        assert pieri_pairing_oracle(p) == 1

    def test_sequence_cutoff_mirrors_partition_projection(self):
        # one branching step seen through lambda_of coincides with the
        # projected single-row product on partitions
        for a, r in ((seq(6, 3, 2), 2), (seq(5, 4, 2, 1), 2), (seq(7, 6, 3), 3)):
            n, m = a.n, a.m
            got = sorted(lambda_of(g) for g in pieri_set(a, r))
            poly = schur_expand(lambda_of(a), m) * complete_homogeneous(r, m)
            proj = chow_project(schur_decompose(poly, m), n, m)
            assert all(c == 1 for c in proj.values())
            assert got == sorted(proj)


class TestAgreementSweep:
    def test_three_way_agreement_small(self):
        count = 0
        for p in valid_instances(5):
            d = count_pairs_d(p)
            assert d == cohomology_oracle(p) == pieri_pairing_oracle(p)
            count += 1
        assert count == 107

    def test_instance_stream_is_deterministic(self):
        first = [(p.alpha.entries, p.beta.entries, p.a, p.b, p.c)
                 for p in valid_instances(4)]
        again = [(p.alpha.entries, p.beta.entries, p.a, p.b, p.c)
                 for p in valid_instances(4)]
        assert first == again
        assert len(first) == 7


class TestTripleWitnesses:
    def test_four_lines_pairs(self):
        flag, flag2 = standard_flag(4), reversed_flag(4)
        C = span(4, (1, 2, 0, 5), (0, 1, 3, 7))
        seen = []
        for g in pieri_set(seq(4, 3, 1), 1):
            for d in pieri_set(seq(4, 2, 1), 1):
                got = triple_witnesses(g, d, C, flag, flag2)
                assert len(got) == 1
                H = got[0]
                assert H.dim == 2
                assert schubert_member(H, g, flag)
                assert schubert_member(H, d, flag2)
                assert intersect(H, C).dim == 1
                seen.append(H)
        assert len(seen) == 2 and seen[0] != seen[1]

    def test_line_case_is_plain_intersection(self):
        # m = 1: the witness is just the line cut out by the three conditions
        flag, flag2 = standard_flag(4), reversed_flag(4)
        C = span(4, (1, 1, 0, 2), (0, 1, 1, 3), (0, 0, 1, 5))
        got = triple_witnesses(seq(4, 2), seq(4, 2), C, flag, flag2)
        assert got == [intersect(intersect(flag.subspace(2), flag2.subspace(2)), C)]

    def test_unreachable_dual_is_empty(self):
        flag, flag2 = standard_flag(5), reversed_flag(5)
        C = span(5, (1, 2, 3, 4, 5), (0, 1, 1, 2, 3), (0, 0, 1, 1, 2),
                 (0, 0, 0, 1, 1))
        a, b = seq(5, 4, 2), seq(5, 5, 1)
        assert dual(b) not in pieri_set(a, 0)
        assert triple_witnesses(a, b, C, flag, flag2) == []

    def test_degenerate_special_space_rejected(self):
        # C inside the slice sum meets it in a plane, not a line
        flag, flag2 = standard_flag(4), reversed_flag(4)
        C = span(4, unit_vector(4, 1), unit_vector(4, 2))
        with pytest.raises(GenericityError, match="not a line"):
            triple_witnesses(seq(4, 4, 1), seq(4, 3, 1), C, flag, flag2)

    def test_aligned_flags_rejected(self):
        # both conditions on one flag collapse the slice sum
        flag = standard_flag(4)
        C = span(4, (1, 2, 0, 5), (0, 1, 3, 7))
        with pytest.raises(ValueError, match="not direct"):
            triple_witnesses(seq(4, 4, 1), seq(4, 3, 1), C, flag, flag)

    def test_special_space_missing_a_slice_rejected(self):
        # the cut line has no component along the first slice
        flag, flag2 = standard_flag(4), reversed_flag(4)
        C = span(4, unit_vector(4, 1), unit_vector(4, 3))
        with pytest.raises(GenericityError, match="too deep"):
            triple_witnesses(seq(4, 4, 1), seq(4, 3, 1), C, flag, flag2)


def fraction_witnesses(alpha, beta, C, flag, flag2):
    """Reference for triple_witnesses: slices and their sum recomputed on
    every call, and the plane summed in Fraction arithmetic over the
    slices' canonical Fraction bases."""
    n, m = alpha.n, alpha.m
    c = n + 1 - m - C.dim
    if codim(alpha) + codim(beta) + c != m * (n - m):
        raise ValueError("codimensions do not fill the ambient dimension")
    if dual(beta) not in pieri_set(alpha, c):
        return []
    slices = []
    for j in range(1, m + 1):
        K = intersect(flag.subspace(alpha.entries[j - 1]),
                      flag2.subspace(beta.entries[m - j]))
        if K.dim == 0:
            raise ValueError(f"slice {j} is zero")
        slices.append(K)
    total = slices[0]
    for K in slices[1:]:
        total = sum_span(total, K)
    if total.dim != sum(K.dim for K in slices):
        raise ValueError("slice sum is not direct")
    line = intersect(C, total)
    if line.dim != 1:
        raise GenericityError(f"C meets the slice sum in dimension {line.dim}, not a line")
    coeffs = solve_columns([v for K in slices for v in K.basis], line.basis[0])
    basis = []
    at = 0
    for K in slices:
        f = (frac(0),) * n
        for q in range(K.dim):
            f = ref.vec_add(f, ref.vec_scale(coeffs[at + q], K.basis[q]))
        at += K.dim
        basis.append(f)
    for j, f in enumerate(basis, start=1):
        if flag.subspace(alpha.entries[j - 1] + 1).contains_vector(f):
            raise GenericityError(f"vector {j} falls too deep in the first flag")
        if flag2.subspace(beta.entries[m - j] + 1).contains_vector(f):
            raise GenericityError(f"vector {j} falls too deep in the second flag")
    H = span(n, *basis)
    if H.dim != m or intersect(H, C).dim < 1:
        raise VerificationError("reference witness failed")
    if not (schubert_member(H, alpha, flag) and schubert_member(H, beta, flag2)):
        raise VerificationError("reference witness failed")
    return [H]


def witness_outcome(fn, *args):
    """The witness list, or the error's type and message."""
    try:
        return fn(*args)
    except (ValueError, GenericityError) as exc:
        return f"{type(exc).__name__}: {exc}"


def witness_inputs(n_max=6):
    """(g, delta, dim C) for every branch pair of the n <= n_max problems
    with d > 0, each once, in a deterministic order."""
    seen = {}
    for p in valid_instances(n_max):
        dim_c = p.n + 1 - p.m - p.c
        if dim_c < 1 or count_pairs_d(p) == 0:
            continue
        for g in pieri_set(p.alpha, p.a):
            for d in pieri_set(p.beta, p.b):
                seen.setdefault((g, d, dim_c), None)
    return list(seen)


def random_special(rng, n, dim_c):
    """A special subspace of dimension dim_c spanned by small random rows."""
    while True:
        C = span(n, *[[rng.randint(-9, 9) for _ in range(n)] for _ in range(dim_c)])
        if C.dim == dim_c:
            return C


class TestWitnessFrames:
    def test_seeded_differential_against_fraction_assembly(self):
        rng = random.Random(9601006)
        inputs = witness_inputs()
        assert len(inputs) == 281
        pairs = {n: [(standard_flag(n), reversed_flag(n)),
                     (random_flag(n, 10 + n), random_flag(n, 20 + n)),
                     (standard_flag(n), standard_flag(n))]
                 for n in range(2, 7)}
        planes, messages = 0, set()
        for g, d, dim_c in inputs:
            n = g.n
            C = random_special(rng, n, dim_c)
            # a coordinate subspace is special for both coordinate flags
            C_coord = span(n, *[unit_vector(n, i)
                                for i in rng.sample(range(1, n + 1), dim_c)])
            for (flag, flag2), special in [(pair, C) for pair in pairs[n]] + [
                    (pairs[n][0], C_coord)]:
                want = witness_outcome(fraction_witnesses, g, d, special, flag, flag2)
                got = witness_outcome(triple_witnesses, g, d, special, flag, flag2)
                assert got == want, (g, d, special)
                if isinstance(want, str):
                    messages.add(re.sub(r"\d+", "#", want))
                else:
                    planes += len(want)
        assert planes >= 300
        # every general-position failure that a pair with dual(delta) in
        # gamma*c can meet occurs (for those pairs no slice is zero); only
        # those that depend on C are genericity failures
        assert messages == {
            "ValueError: slice sum is not direct",
            "GenericityError: C meets the slice sum in dimension #, not a line",
            "GenericityError: vector # falls too deep in the first flag",
            "GenericityError: vector # falls too deep in the second flag",
        }

    def test_rebuilt_flag_hits_the_frame_cache(self):
        n = 5
        flag = standard_flag(n)
        rebuilt = flag_from_basis([unit_vector(n, i) for i in range(1, n + 1)])
        assert rebuilt == flag and rebuilt is not flag
        a, b = seq(n, 5, 2), seq(n, 4, 1)
        frame = _slice_frame(a, b, flag, reversed_flag(n))
        hits = _slice_frame.cache_info().hits
        assert _slice_frame(a, b, rebuilt, reversed_flag(n)) == frame
        assert _slice_frame.cache_info().hits == hits + 1
        # the frame is the slices alone, and their sum is direct
        assert span(n, *(row for K in frame for row in K.rows)).dim == sum(K.dim for K in frame)

    def test_failing_frame_is_not_cached(self):
        _slice_frame.cache_clear()
        flag = standard_flag(5)
        for _ in range(2):
            with pytest.raises(ValueError, match="not direct"):
                _slice_frame(seq(5, 4, 1), seq(5, 3, 1), flag, flag)
            with pytest.raises(ValueError, match="slice 1 is zero"):
                _slice_frame(seq(5, 5, 2), seq(5, 3, 2), flag, reversed_flag(5))
        info = _slice_frame.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 4, 0)

    def test_quotient_dim_matches_quotient_subspace(self):
        rng = random.Random(7)
        for n in range(1, 7):
            flag = random_flag(n, n)
            spaces = [zero_subspace(n), full_space(n), *flag.spaces]
            spaces += [span(n, *[[rng.randint(-3, 3) for _ in range(n)]
                                 for _ in range(rng.randint(1, n))])
                       for _ in range(6)]
            for a in spaces:
                for k in spaces:
                    assert quotient_dim(a, k) == quotient_subspace(a, k).dim
        assert quotient_dim(full_space(4), zero_subspace(4)) == 4
        assert quotient_dim(full_space(4), full_space(4)) == 0
        with pytest.raises(ValueError, match="ambient"):
            quotient_dim(full_space(3), full_space(4))


class TestOneEliminationPerWitness:
    """triple_witnesses reads the line's slice coordinates off the one null
    vector of [phi_i . s_k], C's annihilator covectors against the slices'
    rows, and proves that the plane meets C with the witness point
    w = f_1 + ... + f_m itself."""

    FLAGS = (standard_flag(4), reversed_flag(4))
    C = span(4, (1, 2, 0, 5), (0, 1, 3, 7))

    def test_warm_frame_makes_one_null_space_elimination(self, monkeypatch):
        pairs = [(g, d) for g in pieri_set(seq(4, 3, 1), 1)
                 for d in pieri_set(seq(4, 2, 1), 1)]
        want = [triple_witnesses(g, d, self.C, *self.FLAGS) for g, d in pairs]

        def forbid(*args, **kwargs):
            raise AssertionError("a second elimination for the witness line")

        for name in ("intersect", "solve_columns", "rank"):
            monkeypatch.setattr(enumerative, name, forbid, raising=False)
        calls = []
        real = enumerative._null_vectors
        monkeypatch.setattr(enumerative, "_null_vectors",
                            lambda rows, ncols: calls.append((len(rows), ncols))
                            or real(rows, ncols))
        for (g, d), planes in zip(pairs, want):
            calls.clear()
            assert triple_witnesses(g, d, self.C, *self.FLAGS) == planes
            # one row per covector of C's annihilator, one column per row
            # of the slices
            assert calls == [(4 - self.C.dim,
                              sum(K.dim for K in _slice_frame(g, d, *self.FLAGS)))]

    def test_plane_missing_c_raises(self, monkeypatch):
        # push the null vector's last slice coordinate off the line: each
        # f_j still lies in its slice, so both flag conditions hold, but w
        # leaves C and the plane misses C
        real = enumerative._null_vectors

        def mutant(rows, ncols):
            (d, v), = real(rows, ncols)
            return [(d, v[:-1] + [v[-1] + d])]

        planes = []
        real_member = enumerative.schubert_member
        monkeypatch.setattr(enumerative, "_null_vectors", mutant)
        monkeypatch.setattr(enumerative, "schubert_member",
                            lambda H, *rest: planes.append(H) or real_member(H, *rest))
        with pytest.raises(VerificationError, match="witness misses the special subspace"):
            triple_witnesses(seq(4, 4, 1), seq(4, 3, 1), self.C, *self.FLAGS)
        assert len(planes) == 2 and planes[0] == planes[1]
        assert intersect(planes[0], self.C).dim == 0
        assert real_member(planes[0], seq(4, 4, 1), self.FLAGS[0])
        assert real_member(planes[0], seq(4, 3, 1), self.FLAGS[1])


def disagreements_with_reference(n_max=5):
    """(planes, wrong): how many seeded witness inputs with n <= n_max, on
    the coordinate and a random flag pair, the Fraction reference gives a
    plane for, and on how many triple_witnesses does not give the
    reference's plane or error."""
    rng = random.Random(1996)
    planes = wrong = 0
    for g, d, dim_c in witness_inputs(n_max):
        n = g.n
        C = random_special(rng, n, dim_c)
        for flag, flag2 in ((standard_flag(n), reversed_flag(n)),
                            (random_flag(n, 10 + n), random_flag(n, 20 + n))):
            want = witness_outcome(fraction_witnesses, g, d, C, flag, flag2)
            try:
                got = witness_outcome(triple_witnesses, g, d, C, flag, flag2)
            except (IndexError, VerificationError) as exc:
                got = f"{type(exc).__name__}: {exc}"
            planes += not isinstance(want, str) and len(want)
            wrong += got != want
    return planes, wrong


class TestWitnessMutants:
    """Wrong variants of the line and depth steps of triple_witnesses,
    each caught against the Fraction reference (which the real steps match:
    TestWitnessFrames)."""

    def test_depth_one_covector_further_fails(self, monkeypatch):
        # phi_{j+1} instead of phi_j: a one-dimensional slice <e_{alpha_j}>
        # of the coordinate flags is killed by it, so good planes are
        # refused, and at alpha_j = n there is no such covector
        monkeypatch.setattr(
            enumerative, "_falls_deeper",
            lambda flag, j, f: sum(map(mul, flag._adapted_coords[j], f)) == 0)
        planes, wrong = disagreements_with_reference()
        assert wrong >= planes // 2, (planes, wrong)

    def test_annihilator_missing_a_covector_fails(self, monkeypatch):
        # one equation of C fewer cuts the slice sum in a plane, not a line
        real = enumerative._read_null_vectors
        monkeypatch.setattr(enumerative, "_read_null_vectors",
                            lambda *args: real(*args)[1:])
        planes, wrong = disagreements_with_reference()
        assert wrong >= planes, (planes, wrong)

    def test_corrupted_pivots_make_the_paths_disagree(self):
        # schubert_member's quotient path never reads H's pivots, which the
        # standard flag's position is read off: corrupting them must
        # surface as a disagreement, not as a silent verdict
        flag = standard_flag(4)
        _, rows = enumerative.witness_table(FOUR_LINES, seed=0)
        for g, _, H in rows:
            assert schubert_member(H, g, flag)
            assert H.pivots != (0, 1)
            object.__setattr__(H, "pivots", (0, 1))
            with pytest.raises(VerificationError, match="disagree"):
                schubert_member(H, g, flag)


@pytest.mark.skipif(os.environ.get("PIERIKIT_SLOW") != "1",
                    reason="n = 7 witness sweep; set PIERIKIT_SLOW=1 to run it")
def test_witnesses_match_fraction_assembly_n7():
    """Every branch pair of the n = 7 problems with d > 0, on the
    standard/reversed flag pair and one seeded random pair: planes and
    error messages equal those of the Fraction reference."""
    rng = random.Random(7)
    inputs = [x for x in witness_inputs(7) if x[0].n == 7]
    assert len(inputs) == 904
    pairs = [(standard_flag(7), reversed_flag(7)), (random_flag(7, 17), random_flag(7, 27))]
    planes = messages = 0
    for g, d, dim_c in inputs:
        C = random_special(rng, 7, dim_c)
        for flag, flag2 in pairs:
            want = witness_outcome(fraction_witnesses, g, d, C, flag, flag2)
            assert witness_outcome(triple_witnesses, g, d, C, flag, flag2) == want, (g, d)
            if isinstance(want, str):
                messages += 1
            else:
                planes += len(want)
    assert planes >= 800 and messages >= 20, (planes, messages)


# Under python -O the witness checks must still run, and a failing one must
# escape witness_table's resampling loop instead of being retried away.
OPTIMISED_WITNESS_RUN = """
import pierikit.enumerative as en
if __debug__:
    raise SystemExit("not running under -O")
p = en.QuintupleProblem(4, 2, en.DecSeq(4, (3, 1)), en.DecSeq(4, (2, 1)), 1, 1, 1)
_, rows = en.witness_table(p, seed=0)
print(len(rows), en.count_pairs_d(p))
en.schubert_member = lambda *args: False
try:
    en.witness_table(p, seed=0)
except en.VerificationError as exc:
    print("VerificationError:", exc)
"""


class TestVerificationUnderO:
    def test_witness_table_checks_survive_optimisation(self):
        src = str(Path(pierikit.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-O", "-c", OPTIMISED_WITNESS_RUN],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "2 2",
            "VerificationError: witness is off the first Schubert variety",
        ]


class TestRealWitnessSet:
    def test_four_lines_count_and_distinctness(self):
        got = real_witness_set(FOUR_LINES, seed=0)
        assert len(got) == count_pairs_d(FOUR_LINES) == 2
        assert len(set(got)) == 2

    def test_counts_match_on_assorted_problems(self):
        problems = [
            QuintupleProblem(5, 2, seq(5, 3, 1), seq(5, 2, 1), 2, 2, 1),
            QuintupleProblem(5, 2, seq(5, 4, 2), seq(5, 2, 1), 1, 1, 1),
            QuintupleProblem(6, 3, seq(6, 5, 3, 1), seq(6, 3, 2, 1), 2, 2, 2),
            QuintupleProblem(6, 2, seq(6, 4, 3), seq(6, 2, 1), 2, 1, 1),
        ]
        for i, p in enumerate(problems):
            got = real_witness_set(p, seed=i)
            assert len(got) == count_pairs_d(p)
            assert len(set(got)) == len(got)

    def test_all_coordinates_rational(self):
        from fractions import Fraction
        for H in real_witness_set(FOUR_LINES, seed=1):
            assert all(isinstance(x, Fraction) for row in H.basis for x in row)

    def test_only_genericity_draws_again(self, monkeypatch):
        # a triple_witnesses that raises ValueError on every call (a bad
        # frame, which no C changes) escapes at the first draw; one that
        # raises GenericityError uses up all 32 draws
        for error, calls_wanted in ((ValueError, 1), (GenericityError, 32)):
            calls = []

            def failing(*args):
                calls.append(args)
                raise error("stub failure")

            monkeypatch.setattr(enumerative, "triple_witnesses", failing)
            with pytest.raises(error, match="stub failure" if error is ValueError
                               else "no suitable C after 32 draws: stub failure"):
                enumerative.witness_table(FOUR_LINES, seed=0)
            assert len(calls) == calls_wanted, error

    def test_exhausted_budget_names_its_reason(self, monkeypatch):
        # every kind of redraw records why it drew again: a collision of
        # two pairs' planes and a C of short rank as well as a
        # GenericityError
        plane = span(4, (1, 0, 0, 0), (0, 1, 0, 0))
        with monkeypatch.context() as m:
            m.setattr(enumerative, "triple_witnesses", lambda *args: [plane])
            with pytest.raises(GenericityError) as info:
                enumerative.witness_table(FOUR_LINES, seed=0)
        assert str(info.value) == (
            "no suitable C after 32 draws: two branch pairs give the same plane")
        real = enumerative.span
        with monkeypatch.context() as m:
            m.setattr(enumerative, "span", lambda n, *rows: real(n, *rows[:1]))
            with pytest.raises(GenericityError) as info:
                enumerative.witness_table(FOUR_LINES, seed=0)
        assert str(info.value) == "no suitable C after 32 draws: C drawn has dimension 1, not 2"

    def test_oversized_c_has_no_witnesses(self):
        p = QuintupleProblem(6, 3, seq(6, 3, 2, 1), seq(6, 3, 2, 1), 1, 1, 7)
        assert count_pairs_d(p) == 0
        assert real_witness_set(p, seed=0) == []
