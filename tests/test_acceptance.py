"""Ten top-level acceptance checks, one per criterion.

Each test prints a single PASS line with its measured runtime, asserts the
stated time bound, and compares results exactly: integer counts, Fraction
coordinates, frozen index sets.  No tolerances anywhere.
"""

import gc
import time
from fractions import Fraction
from itertools import combinations

from pierikit.deform import chain_deformation, flag_within, build_pencil, golden_run_741, worked_family, worked_kernel
from pierikit.enumerative import (
    QuintupleProblem,
    cohomology_oracle,
    count_pairs_d,
    pieri_pairing_oracle,
    reversed_flag,
    valid_instances,
    witness_table,
)
from pierikit.exactla import (
    intersect,
    limit_at_zero,
    span,
    unit_vector,
    zero_subspace,
)
from pierikit.schubgeom import (
    IMPROPER,
    TRANSVERSE_IRREDUCIBLE,
    TRANSVERSE_REDUCIBLE,
    cell_point,
    classify_pieri,
    random_flag,
    schubert_member,
    standard_flag,
    tangent_codim,
    witness_point,
)
from pierikit.seqcomb import DecSeq, pieri_set, tree_chains
from pierikit.tableaux import (
    complete_homogeneous,
    pieri_bijection_check,
    schur_expand,
    trim_partition,
)

# the five fixed points at which families used to be sampled
SAMPLE_POINTS = (Fraction(1), Fraction(1, 2), Fraction(2), Fraction(3), Fraction(-1))


def _report(k: int, label: str, elapsed: float, bound: float) -> None:
    print(f"criterion {k:>2} ({label}): PASS in {elapsed:.3f}s (bound {bound}s)")


A741 = DecSeq(9, (7, 4, 1))
LEVEL2 = frozenset(
    {(9, 4, 1), (8, 5, 1), (7, 6, 1), (8, 4, 2), (7, 5, 2), (7, 4, 3)}
)


def test_criterion_01_branch_set_golden():
    pieri_set.cache_clear()
    # a cyclic-collector pass landing in the timed call, late in a long
    # session, once took it past the bound; time the call alone
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        got = pieri_set(A741, 2)
        elapsed = time.perf_counter() - t0
    finally:
        gc.enable()
    assert {g.entries for g in got} == LEVEL2
    assert len(got) == 6
    assert elapsed < 0.001
    _report(1, "branch set golden", elapsed, 0.001)


def test_criterion_02_tree_golden():
    t0 = time.perf_counter()
    tree, chains = tree_chains(A741, 2)
    assert [len(level) for level in tree.levels] == [1, 3, 6]
    want_edges = {
        ((7, 4, 1), (8, 4, 1)), ((7, 4, 1), (7, 5, 1)), ((7, 4, 1), (7, 4, 2)),
        ((8, 4, 1), (9, 4, 1)), ((7, 5, 1), (8, 5, 1)), ((7, 5, 1), (7, 6, 1)),
        ((7, 4, 2), (8, 4, 2)), ((7, 4, 2), (7, 5, 2)), ((7, 4, 2), (7, 4, 3)),
    }
    assert {(p.entries, c.entries) for p, c in tree.edges} == want_edges
    assert len(chains) == 6
    edge_set = set(tree.edges)
    for chain in chains:
        assert all(pair in edge_set for pair in zip(chain, chain[1:]))

    # partition property, exhaustively on small ambient dimensions
    for n in range(2, 8):
        for m in range(1, n):
            for entries in combinations(range(n, 0, -1), m):
                a = DecSeq(n, entries)
                for b in range(1, 4):
                    t, cs = tree_chains(a, b)  # unique parents asserted inside
                    leaves = [chain[-1] for chain in cs]
                    assert len(leaves) == len(set(leaves)) == len(t.levels[-1])
                    assert set(leaves) == set(t.levels[-1])
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(2, "tree golden and partition property", elapsed, 1.0)


def test_criterion_03_schur_pieri_identity():
    t0 = time.perf_counter()

    def strips(lam, b):
        # horizontal-strip extensions by b boxes, at most three rows
        lam = list(lam) + [0] * (3 - len(lam))
        upper = [lam[0] + b] + lam[:2]
        for m1 in range(lam[0], upper[0] + 1):
            for m2 in range(lam[1], upper[1] + 1):
                for m3 in range(lam[2], upper[2] + 1):
                    if m1 + m2 + m3 == sum(lam) + b:
                        yield trim_partition((m1, m2, m3))

    shapes = [
        (l1, l2, l3)
        for l1 in range(5)
        for l2 in range(l1 + 1)
        for l3 in range(l2 + 1)
    ]
    checked = 0
    for shape in shapes:
        lam = trim_partition(shape)
        base = schur_expand(lam, 3)
        for b in range(4):
            lhs = base * complete_homogeneous(b, 3)
            rhs = None
            for mu in strips(lam, b):
                term = schur_expand(mu, 3)
                rhs = term if rhs is None else rhs + term
            assert lhs == rhs
            checked += 1
    assert checked == 140
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(3, "single-row product identity", elapsed, 10.0)


def test_criterion_04_insertion_bijection():
    t0 = time.perf_counter()
    report = pieri_bijection_check((4, 2), 2, 3)
    assert report.injective
    assert report.content_ok
    assert report.shapes_ok
    assert report.counts_ok
    assert report.chains_ok
    assert report.chains_complete
    assert dict(report.image_counts) == dict(report.expected_counts)
    assert report.pairs_total == sum(c for _, c in report.image_counts)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(4, "insertion bijection at shape 42", elapsed, 10.0)


def test_criterion_05_classifier_golden():
    t0 = time.perf_counter()
    flag = standard_flag(9)
    for s, t in ((1, 1), (2, 3), (1, 2)):
        got = classify_pieri(A741, flag, worked_kernel(s, t), 2)
        assert got.verdict == TRANSVERSE_IRREDUCIBLE
    for t in (1, 2, 3):
        got = classify_pieri(A741, flag, worked_kernel(0, t), 2)
        assert got.verdict == TRANSVERSE_REDUCIBLE
        assert got.equality_set == (1, 2, 3)
    closed = limit_at_zero(worked_family())
    assert classify_pieri(A741, flag, closed, 2).verdict == IMPROPER
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(5, "three golden classifications", elapsed, 1.0)


def test_criterion_06_tangent_transversality():
    t0 = time.perf_counter()
    cases = [
        (9, (7, 4, 1), 2, (2, 3), None),
        (9, (6, 4, 2), 3, (2, 3), None),
        (9, (8, 5, 2), 1, (1, 3), 4),
        (8, (6, 3, 1), 2, (2, 3), None),
        (8, (5, 2), 3, (1, 2), 7),
        (7, (5, 3), 2, (1, 2), None),
        (7, (6, 4, 2), 1, (2, 3), 11),
        (6, (4, 2), 2, (1, 2), None),
        (6, (2,), 3, (1, 1), None),
        (9, (6, 2), 3, (1, 2), 2),
    ]
    checked = 0
    for i, (n, entries, s, modes, flag_seed) in enumerate(cases):
        a = DecSeq(n, entries)
        flag = standard_flag(n) if flag_seed is None else random_flag(n, flag_seed)
        L = cell_point(a, s, flag, seed=i)
        for k, mode in enumerate(modes):
            H = witness_point(a, flag, L, mode, seed=10 * i + k)
            assert tangent_codim(H, a, flag, L) == s
            checked += 1
    assert checked == 20
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(6, "tangent codimension equals s", elapsed, 30.0)


def test_criterion_07_pencil_fibres():
    t0 = time.perf_counter()

    def adapted(mflag, ambient):
        vs = []
        for i, space in enumerate(mflag):
            below = mflag[i + 1] if i + 1 < len(mflag) else zero_subspace(ambient)
            vs.append(next(r for r in space.basis if not below.contains_vector(r)))
        return vs

    def verify(M, flag):
        mflag = flag_within(M, flag)
        deep = mflag + (zero_subspace(M.ambient),)
        us = adapted(mflag, M.ambient)
        for l in range(2, M.dim + 2):
            keep = [u for q, u in enumerate(us, start=1) if q != l - 1]
            pencil = build_pencil(mflag, l, span(M.ambient, *keep))
            for i in range(1, l):
                fam = pencil.restricted_family(i)
                for t in SAMPLE_POINTS:
                    fibre = fam.at(t)
                    assert fibre.dim == M.dim - i
                    assert fibre == intersect(pencil.space(i), pencil.at(t))
                assert limit_at_zero(fam) == deep[i]

    for n in range(2, 10):
        flag = standard_flag(n)
        verify(random_flag(n, 7).subspace(2), flag)  # a generic hyperplane
    worked = span(9, *(unit_vector(9, i) for i in (2, 3, 5, 6, 8, 9)))
    verify(worked, standard_flag(9))
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(7, "pencil slice dimensions and limits", elapsed, 5.0)


def test_criterion_08_step_and_chain():
    t0 = time.perf_counter()
    flag = standard_flag(9)
    K = span(9, *(unit_vector(9, i) for i in range(1, 6)))
    reports = chain_deformation(A741, 2, flag, K, seeds=0)
    assert [rep.stage for rep in reports] == ["start", "step", "collapse"]
    for rep in reports:
        assert rep.passed, rep.failures()
    assert {rec.index.entries for rec in reports[-1].records} == LEVEL2

    golden = golden_run_741()
    assert golden.passed, golden.failures()
    assert {g.entries for g in golden.final_indices} == LEVEL2
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(8, "one-step verifier and full chain", elapsed, 30.0)


def test_criterion_09_three_way_agreement():
    t0 = time.perf_counter()
    four_lines = QuintupleProblem(
        4, 2, DecSeq(4, (3, 1)), DecSeq(4, (2, 1)), 1, 1, 1
    )
    assert count_pairs_d(four_lines) == 2
    total = 0
    for p in valid_instances(6):
        d = count_pairs_d(p)
        assert d == cohomology_oracle(p) == pieri_pairing_oracle(p)
        total += 1
    assert total == 1001
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(9, "three-way oracle agreement", elapsed, 60.0)


def test_criterion_10_witness_reality():
    t0 = time.perf_counter()
    cases = [
        (4, 2, (3, 1), (2, 1), 1, 1, 1),
        (4, 1, (1,), (1,), 1, 1, 1),
        (5, 2, (3, 1), (2, 1), 2, 2, 1),
        (5, 2, (4, 2), (2, 1), 1, 1, 1),
        (5, 1, (1,), (1,), 1, 1, 2),
        (6, 3, (5, 3, 1), (3, 2, 1), 2, 2, 2),
        (6, 2, (4, 3), (2, 1), 2, 1, 1),
        (6, 2, (3, 2), (3, 2), 1, 1, 2),
        (6, 3, (4, 2, 1), (3, 2, 1), 3, 2, 3),
        (6, 1, (2,), (2,), 1, 1, 1),
    ]
    for i, (n, m, ae, be, a, b, c) in enumerate(cases):
        p = QuintupleProblem(n, m, DecSeq(n, ae), DecSeq(n, be), a, b, c)
        flag, flag2 = standard_flag(n), reversed_flag(n)
        C, rows = witness_table(p, seed=i)
        assert len(rows) == count_pairs_d(p)
        planes = [H for _, _, H in rows]
        assert len(set(planes)) == len(planes)
        for g, dlt, H in rows:
            assert all(isinstance(x, Fraction) for row in H.basis for x in row)
            assert schubert_member(H, g, flag)
            assert schubert_member(H, dlt, flag2)
            assert intersect(H, C).dim >= 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(10, "exact rational distinct witnesses", elapsed, 30.0)
