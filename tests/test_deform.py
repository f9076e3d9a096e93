"""Pencils, one-step degeneration, the full chain, and the worked run."""

import itertools
import os
import random
import sys
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest

import fraction_reference as ref
import step_reference as step_ref
from pierikit import cli, deform, schubgeom
from pierikit.deform import (
    GoldenReport,
    Pencil,
    StepReport,
    build_pencil,
    chain_deformation,
    chain_histories,
    flag_within,
    golden_run_741,
    step_verify,
    worked_family,
    worked_kernel,
)
from pierikit import exactla
from pierikit.exactla import (
    Flag,
    GenericityError,
    PolyFamily,
    Subspace,
    VerificationError,
    _int_row,
    canonicalize,
    constant_family,
    family_from_vectors,
    family_to_json,
    intersect,
    invert_matrix,
    kernel_basis,
    limit_at_zero,
    span,
    sum_span,
    unit_vector,
    zero_subspace,
)
from pierikit.enumerative import reversed_flag
from pierikit.seqcomb import (
    DecSeq,
    covers_under,
    first_diff_index,
    lambda_of,
    pieri_set,
    tree_chains,
)
from pierikit.tableaux import pieri_bijection_check, shape_tree_chains
from pierikit.schubgeom import (
    TRANSVERSE_REDUCIBLE,
    _pivot_span,
    cell_member,
    cell_point,
    cell_profile_check,
    meets_properly,
    random_flag,
    schubert_cell_point,
    classify_pieri,
    standard_flag,
    x_member,
    y_cycle,
)
from records_reference import trusted_refusals

FLAG = standard_flag(9)
A741 = DecSeq(9, (7, 4, 1))
# the five fixed points at which families used to be sampled
SAMPLE_POINTS = (F(1), F(1, 2), F(2), F(3), F(-1))


def e(i, n=9):
    return unit_vector(n, i)


# companion position and marked hyperplane of the worked example
M_COMPANION = span(9, e(2), e(3), e(5), e(6), e(8), e(9))
L_MARKED = span(9, e(2), e(3), e(5), e(6), e(9))


def companion_pencil():
    mf = flag_within(M_COMPANION, FLAG)
    l = M_COMPANION.dim - FLAG.subspace(9).dim + 1
    return build_pencil(mf, l, L_MARKED)


class TestFlagWithin:
    def test_dimension_run(self):
        mf = flag_within(M_COMPANION, FLAG)
        assert [s.dim for s in mf] == [6, 5, 4, 3, 2, 1]
        assert mf[0] == M_COMPANION
        for upper, lower in zip(mf, mf[1:]):
            assert upper.contains(lower)

    def test_positions_are_flag_slices(self):
        mf = flag_within(M_COMPANION, FLAG)
        assert mf[1] == intersect(FLAG.subspace(3), M_COMPANION)
        assert mf[2] == intersect(FLAG.subspace(4), M_COMPANION)
        assert mf[5] == FLAG.subspace(9)

    def test_generic_subspace(self):
        M = cell_point(A741, 1, FLAG, seed=3)
        mf = flag_within(M, FLAG)
        assert [s.dim for s in mf] == [6, 5, 4, 3, 2, 1]

    # off the coordinate flag, flag_within spans each F_q cap M with span;
    # these faults make that span come out as the wrong space

    RANDOM = random_flag(9, 4)
    M_RANDOM = cell_point(A741, 1, RANDOM, seed=3)

    def test_mutants_run_the_echelon_path(self):
        assert not self.RANDOM._is_coordinate and FLAG._is_coordinate

    def test_meet_that_never_cuts_raises(self, monkeypatch):
        monkeypatch.setattr(deform, "span", lambda n, *rows: self.M_RANDOM)
        with pytest.raises(VerificationError, match="flag position predicts"):
            flag_within(self.M_RANDOM, self.RANDOM)

    def test_meet_that_cuts_too_much_raises(self, monkeypatch):
        monkeypatch.setattr(deform, "span", lambda n, *rows: zero_subspace(n))
        with pytest.raises(VerificationError, match="flag position predicts"):
            flag_within(self.M_RANDOM, self.RANDOM)

    def test_meet_outside_the_flag_space_raises(self, monkeypatch):
        # the right dimension, but the leading rows of M, which leave F_q
        M, flag = self.M_RANDOM, self.RANDOM
        q = flag.meet_dims(M).index(M.dim - 1) + 1
        assert not flag.subspace(q).contains(span(9, *M.rows[:M.dim - 1]))
        monkeypatch.setattr(deform, "span",
                            lambda n, *rows: span(n, *M.rows[:len(rows)]))
        with pytest.raises(VerificationError, match=f"F_{q} cap M is not"):
            flag_within(M, flag)

    def test_coordinate_read_off_dropping_a_row_raises(self, monkeypatch):
        # on the coordinate flag M_i is read off M's rows from i on; a
        # read-off that drops the first of them has one dimension too few
        monkeypatch.setattr(exactla, "canonicalize", forbid)
        monkeypatch.setattr(Subspace, "_trusted", classmethod(
            lambda cls, n, rows, pivots: Subspace(n, rows[1:])))
        with pytest.raises(VerificationError, match="F_3 cap M is not the 5-dimensional"):
            flag_within(M_COMPANION, FLAG)


# ----------------------------------------------------------------------
# flag_within against one intersect per flag space, as it read before the
# flag position located the drops, and the pencil's slices on its flag.

def textbook_flag_within(M, flag):
    spaces = []
    prev = None
    for q in range(1, flag.ambient + 2):
        cur = intersect(flag.subspace(q), M)
        if prev is None or cur.dim == prev.dim - 1:
            spaces.append(cur)
        elif cur.dim != prev.dim:
            raise VerificationError("flag step cut more than one dimension")
        prev = cur
    if spaces[0] != M or spaces[-1].dim != 0:
        raise VerificationError("induced flag does not run from M down to 0")
    return tuple(spaces[:-1])


def generic_marked(mflag, rng):
    """A hyperplane of M = mflag[0] through none of M_1, ..., M_N: the
    marked position is l = N+1, where M_{N+1} is the zero space."""
    M = mflag[0]
    while True:
        coeffs = [[rng.randint(-4, 4) for _ in M.rows] for _ in range(M.dim - 1)]
        rows = [[sum(c * row[i] for c, row in zip(cs, M.rows)) for i in range(M.ambient)]
                for cs in coeffs]
        L = span(M.ambient, *rows)
        if L.dim == M.dim - 1 and not L.contains(mflag[-1]):
            return L


class TestFlagWithinDifferential:
    def test_against_per_space_intersect(self, monkeypatch):
        monkeypatch.setattr(deform, "intersect", forbid)
        rng = random.Random(9601006)
        seen = dict.fromkeys(("cell point", "pivot span"), 0)
        for n in range(1, 11):
            for flag in (standard_flag(n), reversed_flag(n), random_flag(n, n)):
                spaces = []
                for _ in range(3):
                    m = rng.randint(1, n)
                    a = DecSeq(n, tuple(sorted(rng.sample(range(1, n + 1), m),
                                               reverse=True)))
                    s = rng.randint(1, min(n + 1 - m, n + 1 - a.entries[0]))
                    spaces.append(("cell point", cell_point(a, s, flag, seed=n)))
                    pivots = rng.sample(range(1, n + 1), rng.randint(1, n))
                    spaces.append(("pivot span", _pivot_span(pivots, flag, rng)))
                for kind, M in spaces:
                    got = flag_within(M, flag)
                    assert got == textbook_flag_within(M, flag), (n, kind, str(M))
                    seen[kind] += M.dim >= 2
        assert all(count >= 40 for count in seen.values()), seen

    def test_slices_are_column_tails_of_a_generic_pencil(self):
        rng = random.Random(1996)
        checked = 0
        for n in range(2, 8):
            for flag in (standard_flag(n), reversed_flag(n), random_flag(n, n)):
                M = _pivot_span(rng.sample(range(1, n + 1), rng.randint(1, n)),
                                flag, rng)
                mf = flag_within(M, flag)
                p = build_pencil(mf, M.dim + 1, generic_marked(mf, rng))
                assert p.space(M.dim + 1) == zero_subspace(n)
                for i in range(1, p.l):
                    fam = p.restricted_family(i)
                    assert fam.cols == p.family.cols[i - 1:]
                    for t in SAMPLE_POINTS:
                        assert fam.at(t) == intersect(p.space(i), p.at(t))
                    assert limit_at_zero(fam) == p.space(i + 1)
                checked += M.dim >= 2
        assert checked >= 12, checked


def generic_pencils(seed):
    """A pencil at the last marked position for a random M on the
    standard, the reversed and a random flag, for each n = 2..7."""
    rng = random.Random(seed)
    pencils = []
    for n in range(2, 8):
        for flag in (standard_flag(n), reversed_flag(n), random_flag(n, n)):
            M = _pivot_span(rng.sample(range(1, n + 1), rng.randint(1, n)), flag, rng)
            mf = flag_within(M, flag)
            pencils.append(build_pencil(mf, M.dim + 1, generic_marked(mf, rng)))
    return pencils


class TestTrustedFamilies:
    """deform._pencil_columns, PolyFamily.tail and constant_family pass
    integer column forms to PolyFamily._trusted; the public constructor,
    given the family's Fraction columns, must build the same forms."""

    def test_pencil_columns(self, monkeypatch):
        built, refused = trusted_refusals(monkeypatch, PolyFamily,
                                          lambda: generic_pencils(1996))
        assert refused == 0 and built >= 18, (built, refused)

    def test_tails(self, monkeypatch):
        pencils = generic_pencils(1996)

        def run():
            for p in pencils:
                for q in range(p.family.ncols + 1):
                    p.family.tail(q)
        built, refused = trusted_refusals(monkeypatch, PolyFamily, run)
        assert refused == 0 and built >= 50, (built, refused)

    def test_constant_families(self, monkeypatch):
        pencils = generic_pencils(1996)

        def run():
            for p in pencils:
                for space in (p.M, *p.mflag, p.at(2)):
                    constant_family(space)
        built, refused = trusted_refusals(monkeypatch, PolyFamily, run)
        assert refused == 0 and built >= 80, (built, refused)


class TestBuildPencil:
    def test_marked_position(self):
        p = companion_pencil()
        assert p.l == 6
        assert p.marked == L_MARKED

    def test_restricted_dimensions(self):
        # each slice of the moving hyperplane drops exactly its level
        p = companion_pencil()
        for i in range(1, p.l):
            fam = p.restricted_family(i)
            for t in SAMPLE_POINTS:
                assert fam.at(t).dim == p.M.dim - i
                assert fam.at(t) == intersect(p.space(i), p.at(t))

    def test_restricted_limits_step_down(self):
        p = companion_pencil()
        for i in range(1, p.l):
            assert limit_at_zero(p.restricted_family(i)) == p.space(i + 1)

    def test_family_endpoints(self):
        p = companion_pencil()
        assert limit_at_zero(p.family) == p.space(2)
        for t in SAMPLE_POINTS:
            fibre = p.at(t)
            assert fibre.dim == p.M.dim - 1
            assert fibre.contains(p.space(p.l))
            assert not fibre.contains(p.space(p.l - 1))

    def test_degenerate_marked_at_two_is_constant(self):
        flag = standard_flag(4)
        a = DecSeq(4, (1,))
        M = cell_point(a, 1, flag, seed=0)
        mf = flag_within(M, flag)
        L_inf = intersect(flag.subspace(3), M)
        p = build_pencil(mf, 2, L_inf)
        assert p.family.max_degree() == 0
        assert all(p.at(t) == L_inf for t in SAMPLE_POINTS)

    def test_rejects_non_hyperplane(self):
        mf = flag_within(M_COMPANION, FLAG)
        with pytest.raises(ValueError):
            build_pencil(mf, 6, M_COMPANION)

    def test_rejects_marked_missing_bottom(self):
        mf = flag_within(M_COMPANION, FLAG)
        bad = span(9, e(2), e(3), e(5), e(6), e(8))  # misses F_9
        with pytest.raises(ValueError):
            build_pencil(mf, 6, bad)

    def test_rejects_marked_containing_upper(self):
        mf = flag_within(M_COMPANION, FLAG)
        bad = span(9, e(2), e(3), e(5), e(8), e(9))  # contains M_5 = <e8,e9>
        with pytest.raises(ValueError):
            build_pencil(mf, 6, bad)

    def test_rejects_dependent_covectors(self, monkeypatch):
        # off the chain's flag: offering x_1, the first null vector read,
        # first for x_(l-1) makes covectors 1 and l-1 equal
        mf = flag_within(TestFlagWithin.M_RANDOM, TestFlagWithin.RANDOM)
        assert not on_chart(mf)
        L_inf = marked_at(mf, 4, random.Random(4))
        read, real_null, real = [], deform._null_vector, deform._read_null_vectors
        monkeypatch.setattr(deform, "_null_vector",
                            lambda *args: read.append(real_null(*args)) or read[-1])
        monkeypatch.setattr(deform, "_read_null_vectors",
                            lambda rows, pivots, ncols: read[:1] + real(rows, pivots, ncols))
        with pytest.raises(ValueError, match="covectors are not independent"):
            build_pencil(mf, 4, L_inf)

    def test_dependent_covectors_in_the_chart_are_the_upper_space_refusal(self, monkeypatch):
        # on the chain's flag det V = v_(l-1): offering x_1 = e_1 first for
        # x_(l-1) is refused where the chart reads v_(l-1)
        real = deform._read_null_vectors
        monkeypatch.setattr(deform, "_read_null_vectors",
                            lambda rows, pivots, ncols: [(1, [1] + [0] * (ncols - 1))]
                            + real(rows, pivots, ncols))
        mf = flag_within(M_COMPANION, FLAG)
        assert on_chart(mf)
        with pytest.raises(ValueError, match=r"must not contain M_\(l-1\)"):
            build_pencil(mf, 6, L_MARKED)
        with pytest.raises(ZeroDivisionError):
            ref.source_mutant(build_pencil, "if not v[l - 2]:", "if False:")(mf, 6, L_MARKED)


# cell points of the level-3 and the level-4 cell of A741, with a hyperplane
M_LEVEL3, M_LEVEL4 = cell_point(A741, 3, FLAG), cell_point(A741, 4, FLAG)
L_LEVEL3, L_LEVEL4 = span(9, *M_LEVEL3.rows[1:]), span(9, *M_LEVEL4.rows[1:])

# step_verify's preconditions on bad input, each raised at one site: its own
# arguments in step_verify, the marked hyperplane in build_pencil alone.  At
# s = 4 = n+2-a_1 the level-s cell is not empty, but F_{a_1+s-1} = F_10 = 0,
# which every hyperplane contains.
STEP_PRECONDITIONS = {
    "L_inf outside M": (2, M_COMPANION, span(9, e(1), e(3), e(5), e(6), e(9)),
                        "marked subspace must be a hyperplane of M"),
    "L_inf not a hyperplane": (2, M_COMPANION, span(9, e(3), e(5), e(6), e(9)),
                               "marked subspace must be a hyperplane of M"),
    "L_inf misses F_9": (2, M_COMPANION, span(9, e(2), e(3), e(5), e(6), e(8)),
                         "marked hyperplane must contain M_l"),
    "L_inf contains F_8": (2, M_COMPANION, span(9, e(2), e(3), e(5), e(8), e(9)),
                           "marked hyperplane must not contain M_(l-1)"),
    "empty level-5 cell": (5, M_LEVEL4, L_LEVEL4, "step parameter s must be at most n+1-a_1 = 3"),
    "F_10 = 0 at s = 4": (4, M_LEVEL3, L_LEVEL3, "step parameter s must be at most n+1-a_1 = 3"),
}


def step_precondition_outcomes(flag=FLAG):
    """Row -> (exception type, message) that step_verify raises on it, its
    spaces carried onto flag."""
    got = {}
    for row, (s, M, L_inf, _) in STEP_PRECONDITIONS.items():
        try:
            step_verify(A741, s, 1, flag, carried(M, flag), carried(L_inf, flag))
            got[row] = None
        except (ValueError, VerificationError) as exc:
            got[row] = (type(exc), str(exc))
    return got


class TestStepVerify:
    def test_precondition_table(self):
        assert step_precondition_outcomes() == {
            row: (ValueError, message) for row, (*_, message) in STEP_PRECONDITIONS.items()}

    def lower_space_check_dropped(self, monkeypatch, flag, check):
        """The precondition rows whose outcome changes with the check
        dropped from build_pencil; each row raises its message without."""
        want = {row: (ValueError, message) for row, (*_, message) in STEP_PRECONDITIONS.items()}
        assert step_precondition_outcomes(flag) == want
        monkeypatch.setattr(deform, "build_pencil", ref.source_mutant(
            deform.build_pencil, check, "if False:"))
        got = step_precondition_outcomes(flag)
        return [row for row in STEP_PRECONDITIONS if got[row] != want[row]]

    def test_pencil_without_its_lower_space_check_fails(self, monkeypatch):
        # step_verify no longer checks L_inf itself: dropping build_pencil's
        # check lets the L_inf that misses F_9 through to a later raise; on
        # a random flag that is the check in the chart against M_l
        assert self.lower_space_check_dropped(
            monkeypatch, random_flag(9, 4), "if not marked.contains(inner[l - 1]):"
        ) == ["L_inf misses F_9"]

    def test_pencil_without_its_lower_space_check_in_the_chart_fails(self, monkeypatch):
        # on the chain's flag it is the check on v
        assert self.lower_space_check_dropped(
            monkeypatch, FLAG, "if any(v[l - 1:]):") == ["L_inf misses F_9"]

    def test_worked_step_passes(self):
        rep = step_verify(A741, 2, 1, FLAG, M_COMPANION, L_MARKED)
        assert rep.passed
        assert rep.failures() == ()

    def test_worked_step_children(self):
        rep = step_verify(A741, 2, 1, FLAG, M_COMPANION, L_MARKED)
        kids = {str(rec.index): {str(c) for c in rec.children}
                for rec in rep.records}
        assert kids == {
            "841": {"941"},
            "751": {"851", "761"},
            "742": {"842", "752", "743"},
        }

    def test_record_kinds(self):
        rep = step_verify(A741, 2, 1, FLAG, M_COMPANION, L_MARKED)
        kinds = {str(rec.index): rec.kind for rec in rep.records}
        assert kinds == {"841": "schubert", "751": "incidence",
                         "742": "incidence"}
        dims = {str(rec.index): rec.limit_dim for rec in rep.records}
        assert dims["751"] == 3 and dims["742"] == 5

    def test_json_shape(self):
        rep = step_verify(A741, 2, 1, FLAG, M_COMPANION, L_MARKED)
        blob = rep.to_json()
        assert blob["stage"] == "step" and blob["passed"] is True
        assert len(blob["components"]) == 3
        assert all("name" in c and "passed" in c for c in blob["checks"])

    def test_vacuous_branch_level(self):
        # (3,2) in ambient 4 admits no two-step growth at all
        flag = standard_flag(4)
        a = DecSeq(4, (3, 2))
        assert pieri_set(a, 2) == ()
        M = cell_point(a, 1, flag, seed=0)
        F4 = flag.subspace(4)
        line = next(
            span(4, v)
            for v in (ref.vec_add(M.basis[0], M.basis[1]), M.basis[0], M.basis[1])
            if not span(4, v).contains(F4)
        )
        rep = step_verify(a, 2, 2, flag, M, line)
        assert rep.passed
        assert rep.records == ()

    def test_marked_must_contain_bottom(self):
        bad = span(9, e(2), e(3), e(5), e(6), e(8))
        with pytest.raises(ValueError, match="must contain"):
            step_verify(A741, 2, 1, FLAG, M_COMPANION, bad)

    def test_marked_must_avoid_upper(self):
        bad = span(9, e(2), e(3), e(5), e(8), e(9))
        with pytest.raises(ValueError, match="must not contain"):
            step_verify(A741, 2, 1, FLAG, M_COMPANION, bad)

    def test_requires_cell_membership(self):
        M = span(9, *[e(i) for i in range(1, 7)])
        L = span(9, *[e(i) for i in range(1, 6)])
        with pytest.raises(ValueError, match="cell"):
            step_verify(A741, 2, 1, FLAG, M, L)

    def test_requires_s_at_least_two(self):
        with pytest.raises(ValueError):
            step_verify(A741, 1, 1, FLAG, M_COMPANION, L_MARKED)

    def test_flag_position_of_m_is_read_once_per_step(self, monkeypatch):
        # step_verify reads M's flag position once, for its precondition and
        # its clauses; its cycle clause reads no second copy
        K = span(9, *[e(i) for i in range(1, 5)])
        steps = recorded_steps(monkeypatch)
        assert all(rep.passed for rep in chain_deformation(A741, 3, FLAG, K, seeds=0))
        assert len(steps) == 2
        real = Flag.meet_dims
        for args in [recorded for recorded, _ in steps] + [
                (A741, 2, 1, FLAG, M_COMPANION, L_MARKED)]:
            M, callers = args[4], []

            def counting(self, L):
                if L == M:
                    callers.append(sys._getframe(1).f_code.co_name)
                return real(self, L)

            monkeypatch.setattr(Flag, "meet_dims", counting)
            assert step_verify(*args).passed
            assert callers == ["step_verify"], args[1]


class TestChainDeformation:
    def test_worked_chain(self):
        K = span(9, *[e(i) for i in range(1, 6)])
        reports = chain_deformation(A741, 2, FLAG, K, seeds=0)
        assert [rep.stage for rep in reports] == ["start", "step", "collapse"]
        assert all(rep.passed for rep in reports)
        final = {rec.index for rec in reports[-1].records}
        assert final == set(pieri_set(A741, 2))

    def test_single_step_chain_has_two_stages(self):
        K = span(9, *[e(i) for i in range(1, 7)])
        reports = chain_deformation(A741, 1, FLAG, K, seeds=0)
        assert [rep.stage for rep in reports] == ["start", "collapse"]
        assert all(rep.passed for rep in reports)

    def test_histories_match_tree_chains(self):
        K = span(9, *[e(i) for i in range(1, 6)])
        reports = chain_deformation(A741, 2, FLAG, K, seeds=0)
        _, chains = tree_chains(A741, 2)
        assert set(chain_histories(reports)) == set(chains)

    def test_flag_sweep_reindexes_identically(self):
        K = span(9, *[e(i) for i in range(1, 6)])
        shapes = set()
        for seed in range(5):
            flag = random_flag(9, seed)
            assert meets_properly(K, flag)
            reports = chain_deformation(A741, 2, flag, K, seeds=seed)
            assert all(rep.passed for rep in reports)
            shapes.add(tuple(
                (rep.stage,
                 tuple((rec.index.entries, rec.j, rec.kind,
                        tuple(c.entries for c in rec.children))
                       for rec in rep.records))
                for rep in reports))
        assert len(shapes) == 1

    def test_improper_start_rejected(self):
        K = span(9, *[e(i) for i in range(5, 10)])  # contained in F_5
        with pytest.raises(ValueError, match="properly"):
            chain_deformation(A741, 2, FLAG, K, seeds=0)

    def test_wrong_dimension_rejected(self):
        K = span(9, *[e(i) for i in range(1, 5)])
        with pytest.raises(ValueError, match="dimension"):
            chain_deformation(A741, 2, FLAG, K, seeds=0)

    def test_chain_longer_than_n_plus_one_minus_a1_rejected(self):
        # at b = n+2-a_1 the descent would have to avoid F_{n+1} = 0; the
        # longest chain, b = n+1-a_1, still runs
        K = span(9, *[e(i) for i in range(1, 4)])
        for flag in (FLAG, random_flag(9, 4)):
            with pytest.raises(ValueError, match=r"at most n\+1-a_1 = 3"):
                chain_deformation(A741, 4, flag, K, seeds=0)
        K = span(9, *[e(i) for i in range(1, 5)])
        assert all(rep.passed for rep in chain_deformation(A741, 3, FLAG, K, seeds=0))


class TestGoldenRun:
    def test_everything_passes(self):
        report = golden_run_741()
        assert report.passed
        assert report.failures() == ()

    def test_final_components(self):
        report = golden_run_741()
        assert [str(g) for g in report.final_indices] == [
            "941", "851", "761", "842", "752", "743"]
        assert frozenset(report.final_indices) == frozenset(pieri_set(A741, 2))

    def test_moving_plane_slices(self):
        fam = worked_family()
        assert intersect(fam.at(1), FLAG.subspace(4)).dim == 3
        assert intersect(fam.at(1), FLAG.subspace(7)) == span(9, e(9))

    def test_kernel_agrees_with_family(self):
        for t in (1, 2):
            assert worked_kernel(0, t) == worked_family().at(t)

    def test_base_position_at_closing_parameters(self):
        assert worked_kernel(1, 1).dim == 5
        assert cell_member(worked_family().at(1), A741, 2, FLAG)

    def test_table_matches_golden_file(self):
        golden = Path(__file__).parent / "golden" / "worked_run.txt"
        assert golden_run_741().table() == golden.read_text()

    def test_json_sections(self):
        blob = golden_run_741().to_json()
        names = [sec["name"] for sec in blob["sections"]]
        assert names == [
            "(A) both parameters generic",
            "(B) first parameter sent to zero",
            "(C) both parameters sent to zero",
            "final assembly",
        ]
        assert blob["passed"] is True


# ----------------------------------------------------------------------
# The worked run's family claims read the generic flag position of
# worked_family() and coefficient identities.  Section (B) as it read
# before, sampled at the five points, stays here as a differential
# reference.

SECTION_B = "(B) first parameter sent to zero: "


def sampled_section_b(fam):
    """Section (B) of golden_run_741 sampled at the five points, as it read
    before: clause name -> verdict.  The moving 3-plane is the real
    family's column tail, whatever fam is."""
    Fq = FLAG.subspace
    inner = PolyFamily(9, worked_family().cols[2:])
    moving = {t: fam.at(t) for t in SAMPLE_POINTS}
    slices = {t: inner.at(t) for t in SAMPLE_POINTS}
    cycle = frozenset({("schubert", (9, 4, 1)), ("incidence", (7, 5, 1), 2),
                       ("incidence", (7, 4, 2), 3)})

    def reducible_every_row(t, L):
        c = classify_pieri(A741, FLAG, L, 2)
        return c.verdict == TRANSVERSE_REDUCIBLE and c.equality_set == (1, 2, 3)

    clauses = {
        "stated basis spans the kernel of the specialized forms":
            lambda t, L: L == worked_kernel(0, t),
        "moving 5-plane lies in the level-2 cell":
            lambda t, L: cell_member(L, A741, 2, FLAG),
        "moving 5-plane lies inside F_2": lambda t, L: Fq(2).contains(L),
        "meets F_4 and F_5 in the same moving 3-plane":
            lambda t, L: (intersect(L, Fq(4)) == slices[t] == intersect(L, Fq(5))
                          and slices[t].dim == 3),
        "meets F_7 in the line F_9": lambda t, L: intersect(L, Fq(7)) == Fq(9),
        "spans F_2 together with F_4": lambda t, L: sum_span(L, Fq(4)) == Fq(2),
        "its F_4 slice spans F_5 together with F_7":
            lambda t, L: sum_span(intersect(L, Fq(4)), Fq(7)) == Fq(5),
        "its F_7 slice sits inside F_8":
            lambda t, L: Fq(8).contains(intersect(L, Fq(7))),
        "transverse reducible with every row critical": reducible_every_row,
        "cycle components: one pushed Schubert plus two incidence pieces":
            lambda t, L: y_cycle(A741, 1, 2, FLAG, L) == cycle,
    }
    return {SECTION_B + name: all(holds(t, L) for t, L in moving.items())
            for name, holds in clauses.items()}


def sample_product(with_t):
    """Coefficients of prod_p (t - p), times t if with_t, p over the five
    points: zero at each of them, and at 0 too if with_t."""
    return vanishing_at_samples() if with_t else vanishing_at_samples()[1:]


def worked_mutant(column, coordinate, bump):
    """worked_family() with the polynomial bump added to the coordinate
    entry of one column."""
    cols = [list(col) for col in worked_family().cols]
    entry = cols[column - 1][coordinate - 1]
    cols[column - 1][coordinate - 1] = [x + (entry[k] if k < len(entry) else 0)
                                        for k, x in enumerate(bump)]
    return family_from_vectors(9, cols)


MUTANT_ENTRIES = [(1, 1), (5, 1), (3, 7), (2, 4)]


class TestWorkedFamilyProofs:
    def test_generic_position_is_the_position_at_one(self):
        # L_t = D_t L_1 for t != 0, D_t = diag(1, t^4, t^3, 1, t^2, t, 1, 1, 1);
        # D_t fixes every coordinate flag space, so every L_t with t != 0
        # has the flag position of L_1
        fam = worked_family()
        P = FLAG.generic_meet_dims(fam)
        assert P == FLAG.meet_dims(fam.at(1)) == (5, 5, 4, 3, 3, 2, 1, 1, 1, 0)
        for t in (F(2), F(5), F(-3), F(1, 7), F(11, 4)):
            diag = (1, t ** 4, t ** 3, 1, t ** 2, t, 1, 1, 1)
            moved = [[d * x for d, x in zip(diag, row)] for row in fam.at(1).basis]
            assert fam.at(t) == canonicalize(moved, 9)
            assert FLAG.meet_dims(fam.at(t)) == P

    def test_section_b_agrees_with_its_sampled_form(self):
        report = golden_run_741()
        want = sampled_section_b(worked_family())
        assert all(want.values())
        assert {c.name: c.passed for c in report.checks
                if c.name.startswith(SECTION_B)} == want

    @pytest.mark.parametrize("with_t", [True, False], ids=["t-prod", "prod"])
    @pytest.mark.parametrize("column, coordinate", MUTANT_ENTRIES)
    def test_mutant_fails_section_b(self, monkeypatch, column, coordinate, with_t):
        # t prod_p (t - p) agrees with the real family at every sample point
        # and at 0, so the sampled section (B) passes it; prod_p (t - p)
        # changes the fibre at 0 as well.  The kernel identity sees both.
        mutant = worked_mutant(column, coordinate, sample_product(with_t))
        assert mutant.at(5) != worked_family().at(5)
        if with_t:
            assert all(sampled_section_b(mutant).values())
        monkeypatch.setattr(deform, "worked_family", lambda: mutant)
        failed = golden_run_741().failures()
        assert SECTION_B + "stated basis spans the kernel of the specialized forms" in failed
        if coordinate == 1:
            # e_1 leaves F_2, so the generic flag position moves too
            assert FLAG.generic_meet_dims(mutant) != FLAG.meet_dims(worked_family().at(1))

    def test_generic_position_needs_full_rank(self):
        # a fifth column equal to the fourth: rank 4 at every t
        fam = worked_family()
        twin = PolyFamily(9, fam.cols[:4] + fam.cols[3:4])
        with pytest.raises(ValueError, match="does not have generic rank 5"):
            FLAG.generic_meet_dims(twin)


# ----------------------------------------------------------------------
# The moving-plane and collapse clauses are proved exactly.  Their sampled
# forms, as the clauses read before, stay here as differential references.

def step_pencil(a, s, flag, M, L_inf):
    """The pencil of the step at M, marked at L_inf, that step_verify builds."""
    top = flag.subspace(a.entries[0] + s)
    return build_pencil(flag_within(M, flag), M.dim - top.dim + 1, L_inf)


def sampled_cell_verdicts(a, s, r, flag, M, L_inf):
    """step_verify's sample clauses by sampling: cell_member on the pencil's
    fibre at each sample point.  Each fibre must have the flag position
    dim(F_q cap M) - [q <= a_1+s-1] that step_verify reads its verdict from."""
    pencil = step_pencil(a, s, flag, M, L_inf)
    drop = a.entries[0] + s - 1
    profile = tuple(d - (q <= drop) for q, d in enumerate(flag.meet_dims(M), 1))
    out = {}
    for t in SAMPLE_POINTS:
        L_t = pencil.at(t)
        assert flag.meet_dims(L_t) == profile, (a, s, t)
        out[f"sample t={t} lies in the level-{s} cell"] = cell_member(L_t, a, s, flag)
    return out


def sampled_moving_verdicts(a, s, r, flag, M, L_inf):
    """step_verify's moving-plane clauses by sampling: moving_t equals
    F_b cap L_t at the five sample points."""
    N = M.dim
    pencil = step_pencil(a, s, flag, M, L_inf)
    meets = flag.meet_dims(M)
    out = {}
    for b in pieri_set(a, r):
        j = first_diff_index(a, b)
        if j == 1:
            continue
        bj = b.entries[j - 1]
        moving = pencil.restricted_family(N - meets[bj - 1] + 1)
        out[f"component {b}: moving plane is F_{bj} cap L_t"] = all(
            moving.at(t) == intersect(flag.subspace(bj), pencil.at(t))
            for t in SAMPLE_POINTS)
    return out


def sampled_collapse_verdicts(a, b, flag, L):
    """The collapse clauses by sampling: x_member on two seeded points of
    each open Schubert cell."""
    out = {}
    for g in pieri_set(a, b):
        j = first_diff_index(a, g)
        if j > 1:
            out[f"component {g}: incidence condition holds on sampled points"] = all(
                x_member(schubert_cell_point(g, flag, seed), g, j, flag, L)
                for seed in (0, 1))
    return out


def verdicts(report, names):
    got = {c.name: c.passed for c in report.checks}
    return {name: got[name] for name in names}


def recorded_steps(monkeypatch):
    """Record the arguments and report of every step_verify call."""
    steps = []
    real = deform.step_verify

    def recording(*args):
        rep = real(*args)
        steps.append((args, rep))
        return rep

    monkeypatch.setattr(deform, "step_verify", recording)
    return steps


def off_by_one_row_parent(a, g):
    """The branch parent taken one row off: g - e_k with k = j+1 (k = j-1
    in the last row), j = first_diff_index(a, g); None where entry k
    cannot drop."""
    j = first_diff_index(a, g)
    try:
        return g.bump(j + 1 if j < g.m else j - 1, -1)
    except ValueError:
        return None


def coordinate_k(n, a, b):
    return span(n, *[e(i, n) for i in range(1, n + 2 - a.m - b)])


def sweep_chains():
    """(a, b, flag, K, seeds) on standard and seeded random flags, n = 9..12."""
    rng = random.Random(9601006)
    out = []
    for n, entries, b, nrandom in ((9, (7, 4, 1), 2, 3), (10, (8, 5, 2), 2, 1),
                                   (10, (7, 4, 1), 3, 1), (11, (9, 6, 3), 2, 1),
                                   (11, (8, 5, 2), 3, 1), (12, (9, 6, 3), 3, 1),
                                   (12, (9, 6, 3), 4, 0), (12, (10, 7, 4), 2, 1)):
        a = DecSeq(n, entries)
        K = coordinate_k(n, a, b)
        out.append((a, b, standard_flag(n), K, rng.randrange(1000)))
        while nrandom:
            flag = random_flag(n, rng.randrange(10**6))
            if meets_properly(K, flag):
                out.append((a, b, flag, K, rng.randrange(1000)))
                nrandom -= 1
    return out


def vanishing_at_samples():
    """Coefficients of t prod_p (t - p), p over SAMPLE_POINTS: zero at every
    sample point and at 0, nonzero at every other t."""
    bump = [0, 1]  # t
    for p in SAMPLE_POINTS:
        bump = [(bump[k - 1] if k else 0) - p * (bump[k] if k < len(bump) else 0)
                for k in range(len(bump) + 1)]
    return bump


def mutate_restricted_family(monkeypatch, coordinate=1):
    """Add t prod_p (t - p) e_i, p over SAMPLE_POINTS and i = coordinate, to
    the first coordinate-i entry of every restricted family's first column:
    it vanishes at every sample point and at 0, so sampling cannot see it,
    but the family differs for generic t."""
    bump = vanishing_at_samples()
    real = Pencil.restricted_family

    def mutated(self, i):
        fam = real(self, i)
        first = list(fam.cols[0])
        entry = first[coordinate - 1]
        first[coordinate - 1] = [x + (entry[k] if k < len(entry) else 0)
                                 for k, x in enumerate(bump)]
        return family_from_vectors(fam.ambient, (first,) + fam.cols[1:])

    monkeypatch.setattr(Pencil, "restricted_family", mutated)


MOVING_751 = "component 751: moving plane is F_5 cap L_t"
MOVING_742 = "component 742: moving plane is F_2 cap L_t"


class TestExactClauses:
    def test_sweep_agrees_with_sampled_verdicts(self, monkeypatch):
        steps = recorded_steps(monkeypatch)
        compared = {"moving": 0, "cell": 0, "collapse": 0}
        for a, b, flag, K, seeds in sweep_chains():
            steps.clear()
            reports = chain_deformation(a, b, flag, K, seeds=seeds)
            assert all(rep.passed for rep in reports), [r.failures() for r in reports]
            assert len(steps) == b - 1
            for args, rep in steps:
                for reference, kind in ((sampled_moving_verdicts, "moving"),
                                        (sampled_cell_verdicts, "cell")):
                    want = reference(*args)
                    assert verdicts(rep, want) == want
                    compared[kind] += len(want)
            want = sampled_collapse_verdicts(
                a, b, flag, cell_point(a, 1, flag, seed=seeds))
            assert verdicts(reports[-1], want) == want
            compared["collapse"] += len(want)
        assert compared["moving"] >= 50 and compared["collapse"] >= 40, compared
        assert compared["cell"] >= 100, compared

    @pytest.mark.parametrize("coordinate", [1, 2])
    def test_mutant_fools_sampling_but_not_the_proof(self, monkeypatch, coordinate):
        # e_1 leaves F_5 and F_2, so (a) and (b) both see it; e_2 lies in
        # F_2 but not in L_t for generic t, so for 742 only (a) sees it
        args = (A741, 2, 1, FLAG, M_COMPANION, L_MARKED)
        mutate_restricted_family(monkeypatch, coordinate)
        # the sampled clauses, as step_verify read before, pass the mutant
        assert all(sampled_moving_verdicts(*args).values())
        rep = step_verify(*args)
        assert set(rep.failures()) == {MOVING_751, MOVING_742}

    def test_profile_dropping_at_the_top_space_fails(self, monkeypatch):
        # a profile that drops at every q <= a_1+s, one row too far, as if
        # L_t missed F_{a_1+s}, fails all five sample clauses of every step;
        # only the step's level-s verdict is mutated, not the level-(s-1)
        # precondition on M
        real, real_step = deform.profile_in_cell, deform.step_verify
        levels = []

        def step(a, s, *rest):
            levels.append(s)
            return real_step(a, s, *rest)

        def mutated(profile, a, s):
            if s == levels[-1]:
                profile = [d - (q == a.entries[0] + s) for q, d in enumerate(profile, 1)]
            return real(profile, a, s)

        monkeypatch.setattr(deform, "step_verify", step)
        monkeypatch.setattr(deform, "profile_in_cell", mutated)
        steps = 0
        for a, b, flag, K, seeds in sweep_chains()[:8]:
            for rep in chain_deformation(a, b, flag, K, seeds=seeds)[1:-1]:
                assert set(rep.failures()) == {
                    f"sample t={t} lies in the level-{rep.s} cell" for t in SAMPLE_POINTS}
                steps += 1
        assert steps >= 10, steps

    def test_flag_in_m_off_the_upper_space_raises(self, monkeypatch):
        # M_5 = <e_6 + e_8, e_9> in place of F_8 = <e_8, e_9>: the flag in M
        # stays nested and L_MARKED avoids M_5, so build_pencil takes it, but
        # the sample clauses' flag position needs M_{l-1} = F_{a_1+s-1}
        real = deform.flag_within

        def mutated(M, flag):
            mflag = list(real(M, flag))
            mflag[4] = span(9, ref.vec_add(e(6), e(8)), e(9))
            return tuple(mflag)

        build_pencil(mutated(M_COMPANION, FLAG), 6, L_MARKED)
        monkeypatch.setattr(deform, "flag_within", mutated)
        with pytest.raises(VerificationError, match="induced flag step 5 is not F_8"):
            step_verify(A741, 2, 1, FLAG, M_COMPANION, L_MARKED)

    def test_containment_in_f_b_is_coefficientwise(self):
        # F_j is cut out by the first j-1 adapted covectors of the flag
        p = companion_pencil()
        for b, q in ((5, 3), (2, 1)):
            fam = p.restricted_family(q)
            assert deform._kills_family(FLAG._adapted_coords[:b - 1], fam)
            assert not deform._kills_family(FLAG._adapted_coords[:b], fam)
        rng = random.Random(5)
        for n in range(3, 8):
            flag = random_flag(n, n)
            M = cell_point(DecSeq(n, (n - 1,)), 1, flag, seed=n)
            mf = flag_within(M, flag)
            fam = build_pencil(mf, M.dim + 1, generic_marked(mf, rng)).family
            for j in range(1, n + 2):
                inside = all(flag.subspace(j).contains(fam.at(t)) for t in SAMPLE_POINTS)
                assert deform._kills_family(flag._adapted_coords[:j - 1], fam) is inside

    def test_slice_dimension_mismatch_fails(self, monkeypatch):
        # a moving family whose column count reads one more than
        # dim(F_b cap L_t), the proved flag position of every L_t with
        # t != 0, fails (c); its columns, and so (a), (b) and the limit,
        # are the real ones
        class Wider(PolyFamily):
            @property
            def ncols(self):
                return len(self.cols) + 1

        real_family, real_limit = Pencil.restricted_family, deform.limit_at_zero

        def wider(self, i):
            fam = real_family(self, i)
            return Wider(fam.ambient, fam.cols)

        monkeypatch.setattr(Pencil, "restricted_family", wider)
        monkeypatch.setattr(deform, "limit_at_zero",
                            lambda fam: real_limit(PolyFamily(fam.ambient, fam.cols)))
        rep = step_verify(A741, 2, 1, FLAG, M_COMPANION, L_MARKED)
        assert set(rep.failures()) == {MOVING_751, MOVING_742}

    def test_limit_off_f_b_fails_the_restricted_cell(self, monkeypatch):
        # a limit whose flag position reads one dimension short in F_b (F_5
        # for the 3-dimensional limit of 751, F_2 for the 5-dimensional one
        # of 742) no longer lies in F_b, so it fails the restricted cell
        b_of_dim = {3: 5, 5: 2}
        real = Flag.meet_dims

        def shifted(self, L):
            meets = real(self, L)
            if L != M_COMPANION and sys._getframe(1).f_code is step_verify.__code__:
                bj = b_of_dim[L.dim]
                meets = meets[:bj - 1] + (meets[bj - 1] - 1,) + meets[bj:]
            return meets

        monkeypatch.setattr(Flag, "meet_dims", shifted)
        rep = step_verify(A741, 2, 1, FLAG, M_COMPANION, L_MARKED)
        assert set(rep.failures()) == {
            "component 751: limit lies in the restricted level-1 cell",
            "component 742: limit lies in the restricted level-1 cell"}

    @pytest.mark.parametrize("fault", ["moved", "dropped"])
    def test_children_faults_fail_their_clauses(self, monkeypatch, fault):
        # a parent rule that hands 851 to 742 instead of 751 fails both
        # components' restricted branch sets; one that gives 743 a parent
        # off the level leaves it claimed by nobody, so the partition and
        # the assembled cycle fail too
        real = deform.branch_parent

        def parent(a, g):
            if str(g) == ("851" if fault == "moved" else "743"):
                return DecSeq(9, (7, 4, 2)) if fault == "moved" else a
            return real(a, g)

        monkeypatch.setattr(deform, "branch_parent", parent)
        rep = step_verify(A741, 2, 1, FLAG, M_COMPANION, L_MARKED)
        want = {"component 742: children match the restricted branch set"}
        if fault == "moved":
            want.add("component 751: children match the restricted branch set")
        else:
            want |= {"children partition the next branch level",
                     "assembled components match the level-(r+1) cycle"}
        assert set(rep.failures()) == want

    def test_parent_off_by_one_row_fails(self, monkeypatch):
        # g - e_k for the row k next to j = first_diff_index(a, g) (no
        # parent where that row cannot drop): every step of the sweep
        # chains fails a clause on it
        monkeypatch.setattr(deform, "branch_parent", off_by_one_row_parent)
        steps = recorded_steps(monkeypatch)
        for a, b, flag, K, seeds in sweep_chains():
            if flag == standard_flag(a.n):
                steps.clear()
                chain_deformation(a, b, flag, K, seeds=seeds)
                assert steps and not any(rep.passed for _, rep in steps), (a, b)

    def test_chain_makes_no_sampled_collapse_call(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("sampled collapse call")

        assert not hasattr(deform, "schubert_cell_point")
        monkeypatch.setattr(schubgeom, "schubert_cell_point", forbidden)
        for module in (deform, schubgeom):
            monkeypatch.setattr(module, "x_member", forbidden)
        K = span(9, *[e(i) for i in range(1, 6)])
        assert all(rep.passed for rep in chain_deformation(A741, 2, FLAG, K, seeds=0))

    def test_step_reads_flag_positions_only(self, monkeypatch):
        # every step evaluates no fibre, builds no restricted flag and
        # intersects nothing: it reads M's flag position once, and one
        # position per limit
        steps = recorded_steps(monkeypatch)
        for a, b, flag, K, seeds in sweep_chains()[:6]:
            chain_deformation(a, b, flag, K, seeds=seeds)
        assert len(steps) >= 6
        met = []
        real_meet = Flag.meet_dims
        monkeypatch.setattr(Flag, "meet_dims",
                            lambda self, L: met.append(L) or real_meet(self, L))
        for cls in (Pencil, PolyFamily):
            monkeypatch.setattr(cls, "at", forbid)
        for module in (deform, schubgeom):
            monkeypatch.setattr(module, "restrict_flag", forbid)
        monkeypatch.setattr(deform, "intersect", forbid)
        for args, want in steps:
            met.clear()
            rep = step_verify(*args)
            assert rep.passed and rep.to_json() == want.to_json()
            M = args[4]
            limits = {rec.limit_dim for rec in rep.records if rec.limit_dim is not None}
            assert met.count(M) == 1
            assert sorted(L.dim for L in met if L != M) == sorted(limits), args[:3]

    @pytest.mark.parametrize("shift", [-1, 0, 1])
    def test_collapse_verdict_follows_its_inequality(self, monkeypatch, shift):
        real = Flag.meet_dims

        def shifted(self, L):
            meets = real(self, L)
            if sys._getframe(1).f_code is deform.chain_deformation.__code__:
                meets = tuple(x + shift for x in meets)
            return meets

        monkeypatch.setattr(Flag, "meet_dims", shifted)
        K = span(9, *[e(i) for i in range(1, 6)])
        collapse = chain_deformation(A741, 2, FLAG, K, seeds=0)[-1]
        got = {c.name: c.passed for c in collapse.checks}
        meets = real(FLAG, cell_point(A741, 1, FLAG, seed=0))
        checked = 0
        for g in pieri_set(A741, 2):
            j = first_diff_index(A741, g)
            if j == 1:
                continue
            gj = g.entries[j - 1]
            short = meets[gj - 1] + shift
            assert got[f"component {g}: incidence condition holds on sampled points"] \
                is (j + short > 9 + 1 - gj)
            assert got[f"component {g}: special position meets F_{gj} in excess"] \
                is (short == 9 + 2 - gj - j)
            checked += 1
        assert checked == 3
        assert collapse.passed is (shift == 0)


# ----------------------------------------------------------------------
# step_verify as it read before every clause came from flag positions: the
# moving-plane clause read the fibre at SAMPLE_POINTS[0], each limit was
# tested on a restricted flag, and the cycle labels had their own copy.

def textbook_expected_cycle(a, level, s):
    labels = set()
    for g in level:
        j = first_diff_index(a, g)
        if j > 1:
            labels.add(("incidence", g.entries, j))
        elif g.entries[0] + s - 1 <= a.n:
            labels.add(("schubert", (g.entries[0] + s - 1,) + g.entries[1:]))
    return frozenset(labels)


def textbook_step_verify(a, s, r, flag, M, L_inf):
    meets = flag.meet_dims(M)
    if not (deform.profile_in_cell(meets, a, s - 1) and M.dim == a.n + 2 - a.m - s):
        raise ValueError("M does not lie in the level s-1 cell")
    a1 = a.entries[0]
    top, upper = flag.subspace(a1 + s), flag.subspace(a1 + s - 1)
    mflag = flag_within(M, flag)
    N = M.dim
    l = N - top.dim + 1
    assert deform._mflag_space(mflag, l, a.n) == top and mflag[l - 2] == upper
    pencil = build_pencil(mflag, l, L_inf)
    in_cell = deform.profile_in_cell(
        [d - (q <= a1 + s - 1) for q, d in enumerate(meets, 1)], a, s)
    checks = [deform.StageCheck(f"sample t={t} lies in the level-{s} cell", in_cell)
              for t in SAMPLE_POINTS]
    t0 = SAMPLE_POINTS[0]
    meets_t0 = flag.meet_dims(pencil.at(t0))
    records, claimed, moving_by_q = [], [], {}
    level, nxt = pieri_set(a, r), pieri_set(a, r + 1)
    for b in level:
        j = first_diff_index(a, b)
        kids = tuple(g for g in nxt if covers_under(a, b, g))
        claimed.extend(kids)
        if j == 1:
            want = (b.bump(1),) if b.entries[0] < a.n else ()
            checks.append(deform.StageCheck(
                f"component {b}: branches in row 1 only", kids == want,
                detail=" ".join(str(g) for g in kids)))
            records.append(deform.ComponentRecord(b, j, kids))
            continue
        bj = b.entries[j - 1]
        Fb = flag.subspace(bj)
        q = N - meets[bj - 1] + 1
        if q not in moving_by_q:
            moving = pencil.restricted_family(q)
            moving_by_q[q] = (moving, moving.at(t0).dim, limit_at_zero(moving))
        moving, dim_at_t0, lim = moving_by_q[q]
        fam_ok = (moving.cols == pencil.family.cols[q - 1:]
                  and deform._kills_family(flag._adapted_coords[:bj - 1], moving)
                  and dim_at_t0 == moving.ncols == meets_t0[bj - 1])
        checks.append(deform.StageCheck(
            f"component {b}: moving plane is F_{bj} cap L_t", fam_ok))
        expected = deform._mflag_space(mflag, N + 1 - meets[bj], a.n)
        checks.append(deform.StageCheck(
            f"component {b}: limit is F_{bj + 1} cap M", lim == expected))
        checks.append(deform.StageCheck(
            f"component {b}: limit has the generic fibre dimension", lim.dim == N - q))
        b_r = schubgeom.restrict_sequence(b, j)
        try:
            cell_ok = cell_member(Fb.restrict(lim), b_r, s - 1,
                                  schubgeom.restrict_flag(flag, bj))
        except ValueError:
            cell_ok = False
        checks.append(deform.StageCheck(
            f"component {b}: limit lies in the restricted level-{s - 1} cell", cell_ok))
        lifted = tuple(b.bump(first_diff_index(b_r, g_r)) for g_r in pieri_set(b_r, 1))
        checks.append(deform.StageCheck(
            f"component {b}: children match the restricted branch set",
            frozenset(lifted) == frozenset(kids) and len(set(lifted)) == len(lifted),
            detail=" ".join(str(g) for g in kids)))
        records.append(deform.ComponentRecord(b, j, kids, limit_dim=lim.dim))
    checks.append(deform.StageCheck(
        "children partition the next branch level",
        len(claimed) == len(set(claimed)) and frozenset(claimed) == frozenset(nxt)))
    checks.append(deform.StageCheck(
        "assembled components match the level-(r+1) cycle",
        textbook_expected_cycle(a, nxt, s - 1) == y_cycle(a, r + 1, s - 1, flag, M)))
    return StepReport("step", a, s, r, tuple(checks), tuple(records))


# ----------------------------------------------------------------------
# chain_deformation as it ran before it moved into the flag's own frame:
# every stage on the given flag, K as given.  It stays here as the
# differential reference for the frame.

def direct_chain_deformation(a, b, flag, K, seeds=0):
    n = flag.ambient
    assert K.ambient == a.n == n and 1 <= b <= n + 1 - a.entries[0]
    assert K.dim == n + 1 - a.m - b and meets_properly(K, flag)
    rng = random.Random(seeds)
    positions = {b: cell_point(a, 1, flag, seed=seeds)}
    for i in range(b, 1, -1):
        positions[i - 1] = deform._descend_hyperplane(a, b + 2 - i, flag,
                                                      positions[i], rng)
    level1 = pieri_set(a, 1)
    start_checks = (
        deform.StageCheck(
            "general position meets transversally and irreducibly",
            deform.classify_pieri(a, flag, K, b).verdict
            == deform.TRANSVERSE_IRREDUCIBLE),
        deform.StageCheck(
            "first special position lies in the level-" + str(b) + " cell",
            cell_member(positions[1], a, b, flag)),
        deform.StageCheck(
            "level-1 components match the branch set",
            y_cycle(a, 1, b, flag, positions[1]) == deform._cycle_labels(a, level1, b)),
    )
    start_records = tuple(deform.ComponentRecord(g, first_diff_index(a, g), ())
                          for g in level1)
    reports = [StepReport("start", a, b, 0, start_checks, start_records)]
    for i in range(2, b + 1):
        reports.append(deform.step_verify(a, b + 2 - i, i - 1, flag,
                                          positions[i], positions[i - 1]))
    final = y_cycle(a, b, 1, flag, positions[b])
    last = pieri_set(a, b)
    checks = [deform.StageCheck(
        "final components indexed by the full branch set",
        {c[1] for c in final} == {g.entries for g in last})]
    records = []
    meets = flag.meet_dims(positions[b])
    for g in last:
        j = first_diff_index(a, g)
        records.append(deform.ComponentRecord(g, j, ()))
        if j == 1:
            continue
        gj = g.entries[j - 1]
        checks.append(deform.StageCheck(
            f"component {g}: special position meets F_{gj} in excess",
            meets[gj - 1] == n + 2 - gj - j))
        checks.append(deform.StageCheck(
            f"component {g}: incidence condition holds on sampled points",
            j + meets[gj - 1] > n + 1 - gj))
    reports.append(StepReport("collapse", a, 1, b, tuple(checks), tuple(records)))
    return reports


def test_step_verify_matches_the_sampled_reference(monkeypatch):
    """Every step of the sweep chains at n = 9..12, run in the flag's frame
    and, on the seeded random flags, also directly on the flag, reports
    exactly as the fibre-evaluating reference does."""
    steps = recorded_steps(monkeypatch)
    for a, b, flag, K, seeds in sweep_chains():
        chain_deformation(a, b, flag, K, seeds=seeds)
        if flag != standard_flag(a.n):
            direct_chain_deformation(a, b, flag, K, seeds)
    flags = {args[3] == standard_flag(args[0].n) for args, _ in steps}
    assert flags == {True, False} and len(steps) >= 35, len(steps)
    for args, rep in steps:
        assert rep.to_json() == textbook_step_verify(*args).to_json(), args[:3]


@pytest.mark.skipif(os.environ.get("PIERIKIT_SLOW") != "1",
                    reason="n = 13, 14 chains; set PIERIKIT_SLOW=1 to run them")
def test_fibre_profiles_n13_14(monkeypatch):
    """Every step of 18 chains on seeded random flags at n = 13, 14, run
    directly on the flag: the sample clauses agree with cell_member on each
    fibre, and each fibre has the flag position step_verify predicts.  The
    chain run in the flag's frame reports the same."""
    steps = recorded_steps(monkeypatch)
    rng = random.Random(13)
    compared = 0
    for n, seqs in ((13, ((10, 7, 4), (11, 7, 3), (9, 5), (12, 9, 6, 3))),
                    (14, ((11, 8, 5), (12, 8, 4), (10, 6), (13, 10, 7, 4)))):
        for entries in seqs:
            a = DecSeq(n, entries)
            for b in range(2, min(4, n + 1 - entries[0]) + 1):
                K = coordinate_k(n, a, b)
                flag = random_flag(n, rng.randrange(10**6))
                while not meets_properly(K, flag):
                    flag = random_flag(n, rng.randrange(10**6))
                seeds = rng.randrange(1000)
                framed = chain_deformation(a, b, flag, K, seeds=seeds)
                steps.clear()
                reports = direct_chain_deformation(a, b, flag, K, seeds)
                assert all(rep.passed for rep in reports), (a, b)
                assert ([rep.to_json() for rep in reports]
                        == [rep.to_json() for rep in framed])
                for args, rep in steps:
                    want = sampled_cell_verdicts(*args)
                    assert verdicts(rep, want) == want
                    compared += len(want)
    assert compared == 160, compared


def reversed_k(n, a, b):
    """The last n+1-m-b coordinates: the reversed flag's coordinate K.  It
    lies in a member of the standard flag, so a chain that reads it on the
    standard flag without mapping it fails its start stage."""
    return span(n, *[e(i, n) for i in range(a.m + b, n + 1)])


def frame_cases():
    """(a, b, flag, K, seeds) at n = 9..12 with b = 2, 3, 4: on seeded random
    flags with the coordinate K and the reversed K, where the flag meets
    them properly, and on the reversed flag with the reversed K."""
    rng = random.Random(1996)
    out = []
    for n, entries, b, nrandom in ((9, (7, 4, 1), 2, 2), (10, (7, 4, 1), 3, 1),
                                   (11, (8, 5, 2), 3, 1), (12, (9, 6, 3), 4, 1),
                                   (12, (10, 7, 4), 2, 0)):
        a = DecSeq(n, entries)
        Ks = (coordinate_k(n, a, b), reversed_k(n, a, b))
        while nrandom:
            flag = random_flag(n, rng.randrange(10**6))
            if all(meets_properly(K, flag) for K in Ks):
                out.extend((a, b, flag, K, rng.randrange(1000)) for K in Ks)
                nrandom -= 1
        out.append((a, b, reversed_flag(n), Ks[1], rng.randrange(1000)))
    return out


def test_frame_matches_the_direct_run():
    """A chain run in its flag's frame reports exactly as the same chain
    run on the flag itself."""
    cases = frame_cases()
    assert {(a.n, b) for a, b, *_ in cases} >= {(9, 2), (10, 3), (12, 4)}
    for a, b, flag, K, seeds in cases:
        assert flag != standard_flag(a.n)
        got = [rep.to_json() for rep in chain_deformation(a, b, flag, K, seeds=seeds)]
        want = [rep.to_json() for rep in direct_chain_deformation(a, b, flag, K, seeds)]
        assert got == want, (a, b, seeds)
        assert all(rep["passed"] for rep in got)


def every_chain(n):
    """(a, b) for every index a of an m-plane in k^n, m < n, and every chain
    length 1 <= b <= n+1-a_1."""
    return [(DecSeq(n, entries), b)
            for m in range(1, n)
            for entries in itertools.combinations(range(n, 0, -1), m)
            for b in range(1, n + 2 - entries[0])]


def sweep_flag(n, kind):
    """The flag and the general position K(a, b) of one sweep: the standard
    flag with the coordinate K; the reversed flag with the reversed K; or
    the first seeded random flag that every reversed K of the sweep meets
    properly, with the reversed K."""
    if kind == "standard":
        return standard_flag(n), coordinate_k
    if kind == "reversed":
        return reversed_flag(n), reversed_k
    rng = random.Random(n)
    while True:
        flag = random_flag(n, rng.randrange(10**6))
        if all(meets_properly(reversed_k(n, a, b), flag) for a, b in every_chain(n)):
            return flag, reversed_k


def check_every_chain(n, kind):
    """Every chain at n on one sweep flag: each stage passes, the collapse
    reads the branch set pieri_set(a, b), and the histories are the
    branching tree's chains, in the tree's order up to n = 6.  On the
    standard flag the Schensted side closes the triangle: the tableau
    bijection passes, so its row-insertion recording chains are the shape
    tree's chains, and those whose leaf fits the m x (n-m) box are the
    tree's chains read as partitions.  Any exception, GenericityError
    included, fails the test."""
    flag, general_k = sweep_flag(n, kind)
    chains = every_chain(n)
    assert len(chains) == {3: 10, 4: 25, 5: 56, 6: 119, 7: 246, 8: 501, 9: 1012}[n]
    for k, (a, b) in enumerate(chains):
        reports = chain_deformation(a, b, flag, general_k(n, a, b), seeds=k)
        assert [rep.failures() for rep in reports] == [()] * (b + 1), (a, b)
        assert {rec.index for rec in reports[-1].records} == set(pieri_set(a, b)), (a, b)
        histories, chains_by_leaf = chain_histories(reports), tree_chains(a, b)[1]
        assert Counter(histories) == Counter(chains_by_leaf), (a, b)
        # the orders agree up to n = 6; from n = 7 on they can differ
        # (631 at n = 7, b = 2): the tree lists its chains by leaf, and
        # chain_histories by the branch taken at each level in turn
        assert n > 6 or histories == chains_by_leaf, (a, b)
        if kind == "standard":
            assert pieri_bijection_check(lambda_of(a), b, a.m).passed, (a, b)
            tree = {tuple(map(lambda_of, chain)) for chain in tree_chains(a, b)[1]}
            boxed = {chain for chain in shape_tree_chains(lambda_of(a), b, a.m)
                     if chain[-1][0] <= a.n - a.m}
            assert boxed == tree, (a, b)


@pytest.mark.parametrize("kind", ["standard", "random", "reversed"])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_every_chain_up_to_six(n, kind):
    """All 210 chains at n <= 6 on three flags (see check_every_chain)."""
    check_every_chain(n, kind)


@pytest.mark.skipif(os.environ.get("PIERIKIT_SLOW") != "1",
                    reason="n = 7..9 chains; set PIERIKIT_SLOW=1 to run them")
@pytest.mark.parametrize("n, kind", [(7, "standard"), (8, "standard"), (9, "standard"),
                                     (7, "random"), (8, "random")])
def test_every_chain_seven_to_nine(n, kind):
    """The 1759 chains at n = 7..9 on the standard flag, the Schensted
    triangle included, and those at n = 7, 8 on one seeded random flag per
    n: with the tier-1 sweep, all 1969 chains at n <= 9 on the standard
    flag (see check_every_chain)."""
    check_every_chain(n, kind)


@pytest.mark.skipif(os.environ.get("PIERIKIT_SLOW") != "1",
                    reason="n = 20, 24 chains; set PIERIKIT_SLOW=1 to run them")
@pytest.mark.parametrize("n, entries, b", [(20, (15, 10, 5), 5), (24, (18, 12, 6), 5)])
def test_random_flag_chain_n20_24(n, entries, b):
    a = DecSeq(n, entries)
    K = coordinate_k(n, a, b)
    rng = random.Random(n)
    flag = random_flag(n, rng.randrange(10**6))
    while not meets_properly(K, flag):
        flag = random_flag(n, rng.randrange(10**6))
    reports = chain_deformation(a, b, flag, K, seeds=rng.randrange(1000))
    assert [rep.stage for rep in reports] == ["start"] + ["step"] * (b - 1) + ["collapse"]
    assert all(rep.passed for rep in reports)


class TestOutOfRangeCellParameter:
    """An s outside cell_index's range never makes a caller of cell_member
    report a member: each gives a failed clause, a ValueError or exit 2.
    The zero space of k^3 passes the dimension test for a = (3), s = 3,
    where the cell is empty; for A741 the range is 1 <= s <= 4."""

    A3, FLAG3, ZERO3 = DecSeq(3, (3,)), standard_flag(3), zero_subspace(3)

    def test_library_callers_raise(self):
        for call in (lambda: cell_member(self.ZERO3, self.A3, 3, self.FLAG3),
                     lambda: cell_profile_check(self.ZERO3, self.A3, 3, self.FLAG3),
                     lambda: y_cycle(self.A3, 1, 3, self.FLAG3, self.ZERO3),
                     lambda: cell_point(self.A3, 3, self.FLAG3)):
            with pytest.raises(ValueError, match="empty for s = 3"):
                call()

    def test_step_verify_raises(self):
        M = cell_point(self.A3, 2, self.FLAG3, seed=0)
        with pytest.raises(ValueError):
            step_verify(self.A3, 3, 1, self.FLAG3, M, self.ZERO3)
        with pytest.raises(ValueError, match="empty for s = 6"):
            step_verify(A741, 7, 1, FLAG, M_COMPANION, L_MARKED)

    def test_sample_cell_clause_raises(self, monkeypatch):
        # the sample clauses ask profile_in_cell for the level-2 cell; ask
        # for the empty level-5 cell instead
        real = deform.profile_in_cell
        monkeypatch.setattr(deform, "profile_in_cell",
                            lambda meets, a, s: real(meets, a, 5 if s == 2 else s))
        with pytest.raises(ValueError, match="empty for s = 5"):
            step_verify(A741, 2, 1, FLAG, M_COMPANION, L_MARKED)

    def test_limit_clause_fails(self, monkeypatch):
        # the limit clauses ask restricted sequences for the level-1 cell;
        # ask for an empty one instead
        real = deform.profile_in_cell
        monkeypatch.setattr(deform, "profile_in_cell",
                            lambda meets, a, s: real(meets, a, s if a.n == 9 else 99))
        rep = step_verify(A741, 2, 1, FLAG, M_COMPANION, L_MARKED)
        assert set(rep.failures()) == {
            "component 751: limit lies in the restricted level-1 cell",
            "component 742: limit lies in the restricted level-1 cell"}

    def test_cell_verb_is_usage_error(self, capsys):
        assert cli.main(["cell", "--n", "3", "--alpha", "3", "--s", "3"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "empty for s = 3" in err


# ----------------------------------------------------------------------
# build_pencil proves its fibres from the pencil form of its columns.  Its
# construction as it read before (Fraction covector selection, one span per
# dual tail, five sampled fibres) stays here as the differential reference.

def sampled_fibres_hold(family, mflag, l):
    """The sampled fibre checks: at every sample point the fibre is a
    hyperplane of M containing M_l but not M_(l-1)."""
    N = mflag[0].dim
    lower = mflag[l - 1] if l <= N else zero_subspace(mflag[0].ambient)
    return all(fibre.dim == N - 1 and fibre.contains(lower)
               and not fibre.contains(mflag[l - 2])
               for fibre in map(family.at, SAMPLE_POINTS))


def search_covectors(mflag, l, L_inf):
    """build_pencil's covectors by search, in the chart of M's pivot
    coordinates: x_(l-1) is the first covector of L_inf's annihilator, any
    other x_i the first covector of M_(i+1)'s annihilator (of 0 for i = N)
    that does not vanish on M_i.  Each annihilator is kernel_basis of the
    space's rows, which eliminates them first."""
    M = mflag[0]
    N = M.dim

    def chart(S):
        return canonicalize([[row[p] for p in M.pivots] for row in S.rows], N)

    def annihilator(S):
        return kernel_basis(list(S.rows), N)

    inner = [chart(S) for S in mflag] + [zero_subspace(N)]
    covectors = []
    for i in range(1, N + 1):
        if i == l - 1:
            x = annihilator(chart(L_inf))[0]
        else:
            x = next(c for c in annihilator(inner[i])
                     if any(sum(ci * vi for ci, vi in zip(c, row)) != 0
                            for row in inner[i - 1].rows))
        covectors.append(list(x))
    return covectors


def textbook_pencil_family(mflag, l, L_inf):
    M = mflag[0]
    N = M.dim
    covectors = search_covectors(mflag, l, L_inf)
    dual = tuple(ref.from_coords(M, col) for col in zip(*invert_matrix(covectors)))
    for i in range(1, N + 1):
        assert span(M.ambient, *dual[i - 1:]) == mflag[i - 1]
    assert span(M.ambient, *(dual[q] for q in range(N) if q != l - 2)) == L_inf
    family = ref.pencil_columns(M.ambient, dual, l)
    assert sampled_fibres_hold(family, mflag, l)
    return family


def marked_at(mflag, l, rng):
    """A hyperplane of M = mflag[0] through M_l but not M_(l-1): M_l plus
    l-2 random vectors of M, drawn until they fit."""
    M = mflag[0]
    lower = list(mflag[l - 1].rows) if l <= M.dim else []
    while True:
        coeffs = [[rng.randint(-4, 4) for _ in M.rows] for _ in range(l - 2)]
        extra = [[sum(c * row[i] for c, row in zip(cs, M.rows)) for i in range(M.ambient)]
                 for cs in coeffs]
        L = span(M.ambient, *lower, *extra)
        if L.dim == M.dim - 1 and not L.contains(mflag[l - 2]):
            return L


def pencil_cases():
    """(mflag, l, L_inf) for n = 3..10 on standard, reversed and random
    flags, one M of dimension >= 2 per flag, every valid l."""
    rng = random.Random(9601006)
    out = []
    for n in range(3, 11):
        for flag in (standard_flag(n), reversed_flag(n), random_flag(n, n)):
            d = rng.randint(2, n)
            M = _pivot_span(sorted(rng.sample(range(1, n + 1), d)), flag, rng)
            mf = flag_within(M, flag)
            out.extend((mf, l, marked_at(mf, l, rng)) for l in range(2, M.dim + 2))
    return out


def forbid(*args, **kwargs):
    raise AssertionError("build_pencil sampled a fibre or eliminated a span")


def remainder(M, v):
    """A nonzero multiple of v minus its projection to M (v itself scaled
    to a primitive integer vector), by M's fraction-free back
    substitution."""
    r, s = M._back_substitute(_int_row(v))
    return tuple(F(x, s) for x in r)


def as_fractions(dual):
    """The dual basis given to _pencil_columns as pairs (d, w), each vector
    w / d read in Fractions."""
    return tuple(tuple(F(x, d) for x in w) for d, w in dual)


def pencil_column_mutant(monkeypatch, kind):
    """Replace _pencil_columns by a wrong construction; returns the list of
    families it makes.  "sample-blind" adds t prod_p (t - p) e_1 to the
    first fixed column, which no sample point and not t = 0 can see;
    "t on e_(j+1)" puts t on the wrong vector of every moving column;
    "shifted index" builds every column one dual vector further on;
    "leaves M" adds to the first fixed column a vector outside M that is
    zero at M's pivots, so the column's coordinates on M do not change."""
    real = deform._pencil_columns
    made = []

    def mutated(ambient, dual, l):
        vecs = as_fractions(dual)
        if kind == "shifted index":
            fam = real(ambient, dual[1:] + dual[:1], l)
        elif kind == "leaves M":
            fam = real(ambient, dual, l)
            M = span(ambient, *vecs)
            w = next(r for r in (remainder(M, e(i, ambient)) for i in
                                 range(1, ambient + 1)) if any(r))
            cols = list(fam.cols)
            cols[l - 2] = [((p[0] if p else 0) + x,) for p, x in zip(cols[l - 2], w)]
            fam = family_from_vectors(ambient, cols)
        elif kind == "t on e_(j+1)":
            fixed = real(ambient, dual, l).cols[l - 2:]
            moving = [tuple(zip(e_j, e_next))  # e_j + t e_(j+1)
                      for e_j, e_next in zip(vecs[:l - 2], vecs[1:l - 1])]
            fam = family_from_vectors(ambient, moving + list(fixed))
        else:
            fam = real(ambient, dual, l)
            bump = vanishing_at_samples()
            cols = list(fam.cols)
            cols[l - 2] = [[(p[k] if k < len(p) else 0) + b * vecs[0][i]
                            for k, b in enumerate(bump)]
                           for i, p in enumerate(cols[l - 2])]
            fam = family_from_vectors(ambient, cols)
        made.append(fam)
        return fam

    monkeypatch.setattr(deform, "_pencil_columns", mutated)
    return made


def textbook_mismatches(monkeypatch):
    """The pencil_cases() (l, M) on which build_pencil's family, built in
    integers with no span and no fibre, differs from the textbook Fraction
    construction by ==, by its Fraction columns, by family_to_json or by
    its integer column forms."""
    bad = []
    for mf, l, L_inf in pencil_cases():
        want = textbook_pencil_family(mf, l, L_inf)
        with monkeypatch.context() as m:
            m.setattr(deform, "span", forbid)
            m.setattr(PolyFamily, "at", forbid)
            got = deform.build_pencil(mf, l, L_inf).family
        if (got != want or got.cols != want.cols or got._forms != want._forms
                or family_to_json(got) != family_to_json(want)):
            bad.append((l, str(mf[0])))
    return bad


class TestExactPencil:
    def test_family_equals_the_textbook_construction(self, monkeypatch):
        assert textbook_mismatches(monkeypatch) == []
        seen = {"l = 2": 0, "l = N+1": 0, "between": 0}
        for mf, l, _ in pencil_cases():
            N = mf[0].dim
            seen["l = 2" if l == 2 else "l = N+1" if l == N + 1 else "between"] += 1
        assert sum(seen.values()) == 98
        assert all(count >= 20 for count in seen.values()), seen

    def test_one_denominator_columns_fail_the_comparison(self, monkeypatch):
        # moving columns over e_j's denominator alone, t e_j + (d_(j+1)/d_j)
        # e_(j+1): still t e_j + e_(j+1) up to nonzero factors, so every
        # check of build_pencil passes them; where d_j = d_(j+1), as on
        # every coordinate flag, the mutant builds the real family
        monkeypatch.setattr(deform, "_pencil_columns", ref.source_mutant(
            deform._pencil_columns, "den // d_next, den // d", "den // d, den // d"))
        assert len(textbook_mismatches(monkeypatch)) >= 20

    @pytest.mark.parametrize("kind", ["sample-blind", "t on e_(j+1)", "shifted index",
                                      "leaves M"])
    def test_column_mutants_raise(self, monkeypatch, kind):
        rng = random.Random(515)
        flag = random_flag(8, 3)
        M = _pivot_span([1, 3, 4, 6, 7, 8], flag, rng)
        mf = flag_within(M, flag)
        cases = [(flag_within(M_COMPANION, FLAG), 6, L_MARKED)]
        cases += [(mf, l, marked_at(mf, l, rng)) for l in (3, 5)]
        for mflag, l, L_inf in cases:
            made = pencil_column_mutant(monkeypatch, kind)
            with pytest.raises(VerificationError, match="pencil columns"):
                build_pencil(mflag, l, L_inf)
            if kind == "sample-blind":
                # the sampled fibre checks, as build_pencil read before, pass it
                assert sampled_fibres_hold(made[-1], mflag, l)
                monkeypatch.undo()
                good = build_pencil(mflag, l, L_inf).family
                assert made[-1].at(F(7)) != good.at(F(7))
            monkeypatch.undo()

    @pytest.mark.parametrize("order", [(0, 2, 1, 3, 4), (0, 1, 3, 2, 4)],
                             ids=["wrong dimensions", "wrong dimensions low"])
    def test_flag_out_of_order_is_bad_input(self, order):
        # once raised a bare StopIteration from the covector selection
        M = standard_flag(6).subspace(2)
        mf = flag_within(M, random_flag(6, 3))
        with pytest.raises(ValueError, match="must have dimension"):
            build_pencil(tuple(mf[k] for k in order), 2, mf[1])

    def test_flag_not_nested_is_bad_input(self):
        M = standard_flag(6).subspace(2)
        mf = list(flag_within(M, random_flag(6, 3)))
        other = flag_within(M, standard_flag(6))
        assert not mf[1].contains(other[2])
        mf[2] = other[2]
        with pytest.raises(ValueError, match="M_3 of the flag in M is not contained in M_2"):
            build_pencil(tuple(mf), 2, mf[1])


# ----------------------------------------------------------------------
# Integer pencil steps.  build_pencil reads each covector off canonical
# rows, and _descend_hyperplane draws its hyperplanes in integers.  The
# annihilator search and the Fraction descent they replace stay here as
# differential references (see also search_covectors above).

def recorded_covectors(monkeypatch):
    """Record the covectors x_1..x_N of every pencil that build_pencil
    checks, each scaled to a primitive integer row."""
    recorded = []
    real = deform._in_pencil_form

    def recording(M, covectors, family, l):
        recorded.append([_int_row(x) for x in covectors])
        return real(M, covectors, family, l)

    monkeypatch.setattr(deform, "_in_pencil_form", recording)
    return recorded


def search_pencil(mflag, l, L_inf):
    """(covectors, Pencil) as build_pencil built them by search."""
    M = mflag[0]
    covectors = search_covectors(mflag, l, L_inf)
    dual = tuple(ref.from_coords(M, col) for col in zip(*invert_matrix(covectors)))
    family = ref.pencil_columns(M.ambient, dual, l)
    return covectors, Pencil(M, tuple(mflag), l, family, L_inf)


def fraction_draws(a, s, flag, M, rng):
    """_descend_hyperplane's draws as they read in Fractions: for each draw,
    the span of the Fraction kernel of the covector, read as coordinates on
    M's canonical basis, or None when the covector is zero."""
    N = M.dim
    top = M.restrict(flag.subspace(a.entries[0] + s))
    ann = kernel_basis(list(top.rows), N)
    while True:
        coeffs = [F(rng.randint(-9, 9)) for _ in ann]
        covector = [sum(c * row[i] for c, row in zip(coeffs, ann)) for i in range(N)]
        if all(x == 0 for x in covector):
            yield None
            continue
        inside = kernel_basis([covector], N)
        yield canonicalize([ref.from_coords(M, v) for v in inside], M.ambient)


def descent_cases():
    """(a, s, flag, M) of every descent in the chains of sweep_chains(), run
    in the flag's frame and, on the seeded random flags, directly on the
    flag, where top's annihilator has denominators other than 1."""
    cases = []
    real = deform._descend_hyperplane

    def recording(a, s, flag, M, rng):
        cases.append((a, s, flag, M))
        return real(a, s, flag, M, rng)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(deform, "_descend_hyperplane", recording)
        for a, b, flag, K, seeds in sweep_chains():
            chain_deformation(a, b, flag, K, seeds=seeds)
            if flag != standard_flag(a.n):
                direct_chain_deformation(a, b, flag, K, seeds)
    return cases


class TestIntegerSteps:
    def test_pencil_is_the_search_pencil_on_any_flag(self, monkeypatch):
        """A chain runs on the standard flag, where every flag in M is the
        coordinate flag of M's chart and every covector read off is a unit
        covector.  On flags in M cut out by standard, reversed and random
        flags, build_pencil still checks the search covectors and returns
        the search Pencil, and it reads null vectors off two spaces' rows:
        the marked space's in M's chart, for x_(l-1), then M's own in k^n,
        for the annihilator _in_pencil_form checks containment with."""
        checked, searched = recorded_covectors(monkeypatch), []
        real = deform._read_null_vectors
        monkeypatch.setattr(deform, "_read_null_vectors",
                            lambda *args: searched.append(args) or real(*args))
        cases, units = pencil_cases(), 0
        for mf, l, L_inf in cases:
            checked.clear()
            searched.clear()
            got = build_pencil(mf, l, L_inf)
            covectors, want = search_pencil(mf, l, L_inf)
            assert checked == [[_int_row(x) for x in covectors]], (l, str(mf[0]))
            assert got == want, (l, str(mf[0]))
            M = mf[0]
            assert [args[0] for args in searched] == [M.restrict(L_inf).rows, M.rows]
            assert [args[2] for args in searched] == [M.dim, M.ambient]
            units += all(sorted(x) == [0] * (len(x) - 1) + [1] for x in covectors)
        assert units < len(cases) // 2, units

    def test_every_draw_is_the_fraction_draw(self, monkeypatch):
        """With cell_member refusing every plane, a descent makes all 64
        draws, calling no kernel_basis and reading no Fraction basis; the
        hyperplane each one builds equals the Fraction draw from the same
        rng state, and the rng ends in the same state."""
        cases = descent_cases()
        assert len(cases) >= 15
        real = deform.span
        for k, (a, s, flag, M) in enumerate(cases):
            built = []

            def recording(ambient, *vectors):
                built.append(real(ambient, *vectors))
                return built[-1]

            rng, ref = random.Random(k), random.Random(k)
            with monkeypatch.context() as m:
                m.setattr(deform, "span", recording)
                m.setattr(deform, "cell_member", lambda *args: False)
                m.setattr(exactla, "kernel_basis", forbid)
                m.setattr(Subspace, "basis", property(forbid))
                with pytest.raises(GenericityError):
                    deform._descend_hyperplane(a, s, flag, M, rng)
            want = [L for L in itertools.islice(fraction_draws(a, s, flag, M, ref), 64)
                    if L is not None]
            assert built == want and len(want) >= 60, (a, s)
            assert rng.getstate() == ref.getstate()


# ----------------------------------------------------------------------
# build_pencil's dual basis is d_k times column k of the inverse of the
# integer covector matrix, read off one integer echelon (_inverse_rows).  The
# Fraction inverse of the search covectors, lifted through M's canonical
# basis, as build_pencil built it before, stays here as the reference.

def recorded_duals(monkeypatch):
    """Record the dual basis e_1..e_N of every pencil build_pencil builds."""
    recorded = []
    real = deform._pencil_columns

    def recording(ambient, dual, l):
        recorded.append(dual)
        return real(ambient, dual, l)

    monkeypatch.setattr(deform, "_pencil_columns", recording)
    return recorded


def inverse_dual(mflag, l, L_inf):
    """The dual basis as the inverse of the search covectors, each column
    read as coordinates on M's canonical basis."""
    M = mflag[0]
    inverse = invert_matrix(search_covectors(mflag, l, L_inf))
    return tuple(ref.from_coords(M, col) for col in zip(*inverse))


def sweep_pencils():
    """(mflag, l, L_inf) of every pencil built in the chains of
    sweep_chains(), run in the flag's frame and, on the seeded random flags,
    directly on the flag."""
    cases = []
    real = deform.build_pencil

    def recording(mflag, l, L_inf):
        cases.append((mflag, l, L_inf))
        return real(mflag, l, L_inf)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(deform, "build_pencil", recording)
        for a, b, flag, K, seeds in sweep_chains():
            chain_deformation(a, b, flag, K, seeds=seeds)
            if flag != standard_flag(a.n):
                direct_chain_deformation(a, b, flag, K, seeds)
    return cases


def dual_mismatches(monkeypatch, cases):
    """The cases on which the dual basis build_pencil hands _pencil_columns,
    read as Fractions, differs from the columns of the Fraction inverse of
    the search covectors; build_pencil takes no Fraction inverse and reads
    no Fraction basis."""
    duals = recorded_duals(monkeypatch)
    bad = []
    for mf, l, L_inf in cases:
        want = inverse_dual(mf, l, L_inf)
        duals.clear()
        with monkeypatch.context() as m:
            m.setattr(exactla, "invert_matrix", forbid)
            m.setattr(Subspace, "basis", property(forbid))
            deform.build_pencil(mf, l, L_inf)
        assert all(type(x) is int for d, w in duals[0] for x in (d, *w))
        if [as_fractions(dual) for dual in duals] != [want]:
            bad.append((l, str(mf[0])))
    return bad


class TestTriangularDual:
    def test_dual_is_the_inverse_on_every_case(self, monkeypatch):
        """On the 98 pencil_cases() and every pencil of the sweep chains,
        the dual basis equals the columns of the inverse covector matrix,
        value for value."""
        cases = pencil_cases()
        assert len(cases) == 98
        cases += sweep_pencils()
        assert dual_mismatches(monkeypatch, cases) == []
        seen = {"coordinate": 0, "other": 0}
        for mf, _, _ in cases:
            M = mf[0]
            unit = all(s == Subspace(M.ambient, M.rows[i:]) for i, s in enumerate(mf))
            seen["coordinate" if unit else "other"] += 1
        assert seen["coordinate"] >= 50 and seen["other"] >= 75, seen

    def test_dual_without_the_correction_fails(self, monkeypatch):
        """A build_pencil that keeps the triangular stand-in, the null
        vector of M_l at p_(l-1), in row l-1 of the covectors in place of
        L_inf's null vector is dual to the wrong covectors: it refuses every
        case whose L_inf is not the stand-in's kernel, among them every
        generic L_inf that a chain descends to.  The cases are those of the
        general path: each chart case is carried onto a random flag."""
        self.check_correction_dropped(monkeypatch, False, "x[l - 2] = _read_null_vectors("
                                      "marked.rows, marked.pivots, N)[0]")

    def test_dual_without_the_correction_in_the_chart_fails(self, monkeypatch):
        """The same fault in M's chart, where the stand-in is the unit
        covector e_(l-1): on the chart cases and the chain pencils at
        n <= 6."""
        self.check_correction_dropped(monkeypatch, True, "covectors[l - 2] = v")

    def check_correction_dropped(self, monkeypatch, chart, correction):
        cases = pencil_cases() + sweep_pencils()[:20]
        cases = chart_cases(cases) if chart else off_chart(cases)
        assert all(on_chart(mf) == chart for mf, _, _ in cases)
        monkeypatch.setattr(deform, "build_pencil", ref.source_mutant(
            deform.build_pencil, correction, "pass"))
        refused = kept = 0
        for mf, l, L_inf in cases:
            M = mf[0]
            # with no l-1 in range every row is the triangular stand-in
            stand_in = search_covectors(mf, M.dim + 2, L_inf)[l - 2]
            if all(sum(x * row[p] for x, p in zip(stand_in, M.pivots)) == 0
                   for row in L_inf.rows):
                deform.build_pencil(mf, l, L_inf)
                kept += 1
                continue
            with pytest.raises(VerificationError, match="does not span L_inf"):
                deform.build_pencil(mf, l, L_inf)
            refused += 1
        assert refused >= 80 and kept >= 20, (refused, kept)

    def test_dual_without_the_covector_scale_fails(self, monkeypatch):
        """Columns of V^-1 without the factor d_k are dual to the covectors
        v_k, not to x_k = v_k / d_k.  Each such vector is a positive multiple
        of e_k, so every check of build_pencil passes it; the comparisons
        with the inverse and with the textbook family fail it wherever some
        d_k is not 1, which never happens on the coordinate flag."""
        monkeypatch.setattr(deform, "build_pencil", ref.source_mutant(
            deform.build_pencil, "[d * sum(map(mul, w, col))", "[sum(map(mul, w, col))"))
        assert len(dual_mismatches(monkeypatch, pencil_cases())) >= 60
        assert len(textbook_mismatches(monkeypatch)) >= 60


# ----------------------------------------------------------------------
# A restricted family is a column tail of the pencil family that shares
# its integer column forms; a fresh family built from the Fraction columns
# of the same tail stays the reference.

def tail_mismatches():
    """(nonempty, mismatched): restricted_family(q) against a fresh
    PolyFamily built from the pencil's Fraction column tail from q, by ==
    and by integer forms, for every pencil_cases() case and every
    q = 1..l-1; nonempty counts the pairs whose tail has a column (for
    l = N+1 the tail from q = N has none)."""
    nonempty = mismatched = 0
    for mf, l, L_inf in pencil_cases():
        pencil = build_pencil(mf, l, L_inf)
        for q in range(1, l):
            fam = pencil.restricted_family(q)
            fresh = PolyFamily(pencil.M.ambient, pencil.family.cols[q - 1:])
            mismatched += fam != fresh or fam._forms != fresh._forms
            nonempty += fresh.ncols > 0
    return nonempty, mismatched


class TestRestrictedFamilyForms:
    def test_tail_forms_equal_a_fresh_family(self):
        assert tail_mismatches() == (263, 0)

    def test_forms_are_handed_down(self):
        pencil = companion_pencil()
        forms = pencil.family._forms
        for q in range(1, pencil.l):
            shared = pencil.restricted_family(q)._forms
            assert len(shared) == len(forms) - q + 1
            assert all(x is y for x, y in zip(shared, forms[q - 1:]))

    def test_off_by_one_tail_fails(self, monkeypatch):
        monkeypatch.setattr(Pencil, "restricted_family", ref.source_mutant(
            Pencil.restricted_family, "tail(i - 1)", "tail(i)"))
        assert tail_mismatches() == (263, 263)


def test_chain_reads_no_fraction_columns(monkeypatch):
    """A pencil, a step and a chain at (741, b=2), and the worked run, read
    only the integer column forms of their families."""
    monkeypatch.setattr(PolyFamily, "cols", property(forbid))
    assert companion_pencil().l == 6
    assert step_verify(A741, 2, 1, FLAG, M_COMPANION, L_MARKED).passed
    K = span(9, *[e(i) for i in range(1, 6)])
    assert all(rep.passed for rep in chain_deformation(A741, 2, FLAG, K, seeds=0))
    assert golden_run_741().passed


# ----------------------------------------------------------------------
# The per-stage checks at a lower cost.  _kills_family builds each
# coefficient vector once; _in_pencil_form reads containment in M and the
# x coordinates with one list of covectors; build_pencil reads the marked
# space's checks in M's chart; chain_deformation leaves K as it is on the
# coordinate flag.  The versions they replaced are the references:
# step_reference's, marked_refusal, and chain_deformation recompiled to
# frame K on every flag.

def pencil_tails(cases):
    """(mflag, pencil, q, tail) for the pencil of every case and each of
    its column tails restricted_family(q), q = 1..l-1."""
    out = []
    for mf, l, L_inf in cases:
        pencil = build_pencil(mf, l, L_inf)
        out.extend((mf, pencil, q, pencil.restricted_family(q)) for q in range(1, l))
    return out


def annihilator_rows(S):
    """S's integer annihilator, read off its canonical rows."""
    return [v for _, v in exactla._read_null_vectors(S.rows, S.pivots, S.ambient)]


def kills_family_disagreements(kills, tails):
    """(disagreements, verdicts) of kills against the generator reference
    on every tail with the annihilator of each space M_i of its flag in M;
    verdicts counts the reference's True and False."""
    wrong, verdicts = 0, Counter()
    for mf, _, _, tail in tails:
        for S in mf:
            covectors = annihilator_rows(S)
            want = step_ref.kills_family(covectors, tail)
            verdicts[want] += 1
            wrong += kills(covectors, tail) != want
    return wrong, verdicts


class TestKillsFamily:
    def test_matches_the_generator_on_every_tail(self):
        """The tail from q lies in M_i exactly for i <= q: both verdicts
        come up on the 98 pencil_cases()."""
        wrong, verdicts = kills_family_disagreements(deform._kills_family,
                                                     pencil_tails(pencil_cases()))
        assert wrong == 0 and verdicts[True] >= 500 and verdicts[False] >= 500, verdicts

    def test_constant_terms_only_fails(self):
        """The tail from q <= l-2 has t-coefficient e_q outside M_(q+1),
        which a check of the constant terms alone misses."""
        mutant = ref.source_mutant(deform._kills_family, "for k in range(deg + 1)",
                                   "for k in range(1)")
        assert kills_family_disagreements(mutant, pencil_tails(pencil_cases()))[0] >= 100


def pencil_form_inputs(monkeypatch, cases):
    """(M, covectors, family, l) of every _in_pencil_form call that
    build_pencil makes on the cases."""
    seen = []
    real = deform._in_pencil_form

    def recording(M, covectors, family, l):
        seen.append((M, covectors, family, l))
        return real(M, covectors, family, l)

    with monkeypatch.context() as m:
        m.setattr(deform, "_in_pencil_form", recording)
        for mf, l, L_inf in cases:
            build_pencil(mf, l, L_inf)
    return seen


def perturbed(family, k, coefficient, change):
    """family with coefficient of column k replaced by change(v) of its
    integer vector v, the column's form recomputed."""
    forms = list(family._forms)
    den, deg, polys = forms[k]
    coeffs = [[p[j] if len(p) > j else 0 for p in polys] for j in range(deg + 1)]
    coeffs[coefficient] = change(coeffs[coefficient])
    forms[k] = exactla._column_form(den, [tuple(c[i] for c in coeffs)
                                          for i in range(family.ambient)])
    return PolyFamily._trusted(family.ambient, tuple(forms))


def pencil_form_variants(M, family):
    """(label, family) for the built family and families that break it:
    its last column's constant term moved off M by a unit vector at a
    column where M has no pivot; its first column's constant term plus
    its last column's; its first two columns swapped; its last column
    times t."""
    out = [("built", family)]
    k = family.ncols - 1
    free = [c for c in range(M.ambient) if c not in M.pivots]
    if free:
        out.append(("off M", perturbed(family, k, 0, lambda v: [
            x + (c == free[0]) for c, x in enumerate(v)])))
    if family.ncols >= 2:
        last = [p[0] if p else 0 for p in family._forms[k][2]]
        out.append(("two supports", perturbed(family, 0, 0, lambda v: [
            x * family._forms[k][0] + y * family._forms[0][0] for x, y in zip(v, last)])))
        forms = family._forms
        out.append(("swapped", PolyFamily._trusted(
            family.ambient, (forms[1], forms[0]) + forms[2:])))
    den, deg, polys = family._forms[k]
    out.append(("times t", PolyFamily._trusted(family.ambient, family._forms[:k] + (
        exactla._column_form(den, [(0,) + tuple(p) for p in polys]),))))
    return out


def pencil_form_disagreements(monkeypatch, form):
    """(disagreements, verdicts by label) of form against the back-
    substituted reference on every variant of every pencil_cases() family."""
    wrong, verdicts = 0, Counter()
    for M, covectors, family, l in pencil_form_inputs(monkeypatch, pencil_cases()):
        for label, fam in pencil_form_variants(M, family):
            want = step_ref.pencil_form(M, covectors, fam, l)
            verdicts[label, want] += 1
            wrong += form(M, covectors, fam, l) != want
    return wrong, verdicts


class TestPencilForm:
    def test_matches_the_back_substituted_check(self, monkeypatch):
        wrong, verdicts = pencil_form_disagreements(monkeypatch, deform._in_pencil_form)
        assert wrong == 0, verdicts
        assert verdicts["built", True] == 98 and verdicts["built", False] == 0
        assert all(verdicts[label, False] >= 60 and not verdicts[label, True]
                   for label in ("off M", "two supports", "swapped", "times t")), verdicts

    def test_without_the_annihilator_fails(self, monkeypatch):
        """Read in the x coordinates alone, a coefficient moved off M by a
        vector zero at M's pivots looks unchanged."""
        mutant = ref.source_mutant(
            deform._in_pencil_form,
            "phis += [v for _, v in _read_null_vectors(M.rows, pivots, n)]", "pass")
        assert pencil_form_disagreements(monkeypatch, mutant)[0] >= 60


def marked_refusal(mflag, l, L_inf):
    """The message with which build_pencil's checks of L_inf refused it,
    as they read in k^n before they moved into M's chart, or None."""
    M = mflag[0]
    lower, upper = deform._mflag_space(mflag, l, M.ambient), mflag[l - 2]
    if not (M.contains(L_inf) and L_inf.dim == M.dim - 1):
        return "marked subspace must be a hyperplane of M"
    if not L_inf.contains(lower):
        return "marked hyperplane must contain M_l"
    if L_inf.contains(upper):
        return "marked hyperplane must not contain M_(l-1)"
    return None


def marked_candidates(mf, l, L_inf, rng):
    """L_inf; M; hyperplanes of M marked at every other position; L_inf
    with a row moved off M; L_inf less its first row; a space of another
    ambient dimension."""
    M = mf[0]
    out = [L_inf, M]
    out += [marked_at(mf, k, rng) for k in range(2, M.dim + 2) if k != l]
    free = [c for c in range(M.ambient) if c not in M.pivots]
    if free and L_inf.rows:
        moved = [x + (c == free[-1]) for c, x in enumerate(L_inf.rows[0])]
        out.append(span(M.ambient, moved, *L_inf.rows[1:]))
    out.append(span(M.ambient, *L_inf.rows[1:]))
    out.append(zero_subspace(M.ambient + 1))
    return out


def marked_outcomes(build, cases=None):
    """(outcome of build, want) per marked candidate of every case
    (pencil_cases() by default), an outcome being "built", the ValueError's
    message, or the class and message of an IndexError; want comes from
    marked_refusal."""
    rng = random.Random(19960106)
    out = []
    for mf, l, L_inf in pencil_cases() if cases is None else cases:
        for L in marked_candidates(mf, l, L_inf, rng):
            try:
                build(mf, l, L)
                got = "built"
            except ValueError as exc:
                got = str(exc)
            except IndexError as exc:
                got = f"IndexError: {exc}"
            if L.ambient != mf[0].ambient:
                want = "ambient mismatch"
            else:
                want = marked_refusal(mf, l, L) or "built"
            out.append((got, want))
    return out


class TestMarkedChecksInTheChart:
    def test_refusals_match_the_checks_in_k_n(self):
        outcomes = marked_outcomes(build_pencil)
        assert all(got == want for got, want in outcomes)
        seen = Counter(want for _, want in outcomes)
        assert len(seen) == 5 and min(seen.values()) >= 90, seen

    def test_upper_space_read_one_position_down_fails(self):
        """On pencil_cases() with each chart case carried onto a random
        flag, where the general path runs."""
        self.check_read_one_position_down(False, "if marked.contains(inner[l - 2]):",
                                          "if marked.contains(inner[l - 1]):")

    def test_upper_space_read_one_position_down_in_the_chart_fails(self):
        """On the chart cases of pencil_cases() and the chain pencils at
        n <= 6; at l = N+1 the mutant reads past v."""
        self.check_read_one_position_down(True, "if not v[l - 2]:", "if not v[l - 1]:")

    @staticmethod
    def check_read_one_position_down(chart, old, new):
        cases = pencil_cases()
        cases = chart_cases(cases) if chart else off_chart(cases)
        assert all(on_chart(mf) == chart for mf, _, _ in cases)
        mutant = ref.source_mutant(build_pencil, old, new)
        assert sum(got != want for got, want in marked_outcomes(mutant, cases)) >= 98


def chain_outcome(chain, a, b, flag, K, seeds):
    """The reports' JSON, or the class and message of what chain raised."""
    try:
        return [rep.to_json() for rep in chain(a, b, flag, K, seeds=seeds)]
    except Exception as exc:
        return type(exc).__name__, str(exc)


def framing_chains():
    """(a, b, flag, K, seeds) for every chain at n = 5 on the standard
    flag with the coordinate K and on the reversed flag with the reversed
    K, and the standard-flag chains of sweep_chains()."""
    out = []
    for k, (a, b) in enumerate(every_chain(5)):
        out.append((a, b, standard_flag(5), coordinate_k(5, a, b), k))
        out.append((a, b, reversed_flag(5), reversed_k(5, a, b), k))
    return out + [c for c in sweep_chains() if c[2] == standard_flag(c[0].n)]


class TestCoordinateFlagFrame:
    ALWAYS_FRAMED = ("if not flag._is_coordinate:", "if True:")

    def test_reports_equal_the_framed_chain(self, monkeypatch):
        """On the coordinate flag K is its own frame: no vector is framed,
        and the reports equal those of a chain that frames K anyway."""
        framed = ref.source_mutant(chain_deformation, *self.ALWAYS_FRAMED)
        cases = framing_chains()
        want = [chain_outcome(framed, *case) for case in cases]
        assert all(isinstance(w, list) for w in want)
        real = Flag.frame

        def frame(flag, v):
            assert not flag._is_coordinate, "framed through the coordinate flag"
            return real(flag, v)

        monkeypatch.setattr(Flag, "frame", frame)
        assert [chain_outcome(chain_deformation, *case) for case in cases] == want

    def test_skipping_the_frame_on_any_coordinate_order_fails(self):
        """The reversed flag has a coordinate order, the reversal, under
        which K must still be framed."""
        mutant = ref.source_mutant(chain_deformation, "if not flag._is_coordinate:",
                                   "if flag._coordinate_order is None:")
        cases = [c for c in framing_chains() if c[2] == reversed_flag(5)]
        assert sum(chain_outcome(mutant, *case) != chain_outcome(chain_deformation, *case)
                   for case in cases) >= 40


def chain_pencils(n):
    """(mflag, l, L_inf) of every pencil built in every chain at n on the
    standard flag, with the coordinate K."""
    cases = []
    real = deform.build_pencil

    def recording(mflag, l, L_inf):
        cases.append((mflag, l, L_inf))
        return real(mflag, l, L_inf)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(deform, "build_pencil", recording)
        for k, (a, b) in enumerate(every_chain(n)):
            chain_deformation(a, b, standard_flag(n), coordinate_k(n, a, b), seeds=k)
    return cases


@pytest.mark.skipif(os.environ.get("PIERIKIT_SLOW") != "1",
                    reason="every chain at n = 8, 9; set PIERIKIT_SLOW=1 to run them")
@pytest.mark.parametrize("n", [8, 9])
def test_pencil_differential_n8_9(n, monkeypatch):
    """Every pencil of every chain at n = 8, 9 on the standard flag: its
    pencil-form check, and on each column tail the limit and the
    coefficientwise kill by the flag's first j adapted covectors for every
    j, all agree with the references."""
    flag = standard_flag(n)
    cases = chain_pencils(n)
    inputs = pencil_form_inputs(monkeypatch, cases)
    assert len(inputs) == len(cases) >= 400
    assert all(deform._in_pencil_form(*args) == step_ref.pencil_form(*args) is True
               for args in inputs)
    tails = pencil_tails(cases)
    verdicts = Counter()
    for _, _, _, tail in tails:
        assert limit_at_zero(tail) == step_ref.limit_at_zero(tail)
        for j in range(n + 1):
            covectors = flag._adapted_coords[:j]
            want = step_ref.kills_family(covectors, tail)
            assert deform._kills_family(covectors, tail) == want
            verdicts[want] += 1
    assert verdicts[True] >= 1000 and verdicts[False] >= 1000, verdicts


# ----------------------------------------------------------------------
# Chain steps in M's chart.  On a flag in M whose spaces are the tails of
# M's canonical rows, as on the coordinate flag where every chain runs,
# build_pencil reads its covectors, V^-1 and dual basis off M's rows in
# closed form; on any other flag it runs the general path.  The parent's
# build_pencil, general path only, is step_reference.build_pencil.

def on_chart(mflag):
    """Whether each M_i is spanned by M's canonical rows from i on."""
    return all(s.rows == mflag[0].rows[i:] for i, s in enumerate(mflag))


def carried(S, flag):
    """S under the linear map e_k -> w_k, w_k the flag's integer adapted
    rows: it carries the coordinate flag's F_j onto the flag's F_j, so S's
    flag position, and every incidence with the flag, carries over."""
    rows = flag._adapted_rows
    return span(S.ambient, *[[sum(x * w[i] for x, w in zip(row, rows))
                              for i in range(S.ambient)] for row in S.rows])


def off_chart(cases):
    """The cases with each chart case carried onto random_flag(n, n): the
    flag in carried(M) is the carried flag in M, which is no row tail."""
    out = []
    for mf, l, L_inf in cases:
        if on_chart(mf):
            flag = random_flag(L_inf.ambient, L_inf.ambient)
            mf, L_inf = flag_within(carried(mf[0], flag), flag), carried(L_inf, flag)
        out.append((mf, l, L_inf))
    return out


def chart_cases(cases):
    """The chart cases among cases, then every chain pencil at n = 3..6."""
    return ([case for case in cases if on_chart(case[0])]
            + [case for n in range(3, 7) for case in chain_pencils(n)])


def pencil_outcome(build, mflag, l, L_inf):
    """(what build returned or the class and message of what it raised,
    the integer covectors it handed _in_pencil_form and the dual pairs it
    handed _pencil_columns, exactly)."""
    handed = []
    columns, form = deform._pencil_columns, deform._in_pencil_form
    with pytest.MonkeyPatch.context() as m:
        m.setattr(deform, "_pencil_columns", lambda ambient, dual, l: handed.append(
            [(d, list(w)) for d, w in dual]) or columns(ambient, dual, l))
        m.setattr(deform, "_in_pencil_form", lambda M, covectors, family, l: handed.append(
            [list(x) for x in covectors]) or form(M, covectors, family, l))
        try:
            got = build(mflag, l, L_inf)
        except Exception as exc:
            got = type(exc).__name__, str(exc)
    return got, handed


def reference_cases():
    """Every chain pencil at n = 3..7, then pencil_cases() with every
    marked candidate of each: the valid L_inf and its refusals."""
    rng = random.Random(19960106)
    cases = [case for n in range(3, 8) for case in chain_pencils(n)]
    for mf, l, L_inf in pencil_cases():
        cases += [(mf, l, L) for L in marked_candidates(mf, l, L_inf, rng)]
    return cases


def reference_mismatches(build, cases):
    """The cases on which build's pencil_outcome differs from the
    reference's."""
    return [(l, str(mf[0]), str(L_inf)) for mf, l, L_inf in cases
            if pencil_outcome(build, mf, l, L_inf)
            != pencil_outcome(step_ref.build_pencil, mf, l, L_inf)]


CHART_MUTANTS = {
    "v_(l-1) negative": ("covectors[l - 2] = v", "covectors[l - 2] = [-z for z in v]"),
    "no gcd": ("g = gcd(c, y)", "g = 1"),
    "M_l read from v_(l-1)": ("if any(v[l - 1:]):", "if any(v[l - 2:]):"),
    "tail by dimension": ("all(s.rows == M.rows[i:] for i, s in enumerate(mflag))",
                          "all(s.dim == N - i for i, s in enumerate(mflag))"),
}


class TestChartPencil:
    CASES = reference_cases()

    def test_equals_the_reference(self):
        """Pencil, covectors and dual pairs are the reference's, value for
        value, and every refusal is its refusal, on the chart and off it."""
        assert reference_mismatches(build_pencil, self.CASES) == []
        seen = Counter()
        for mf, l, L_inf in self.CASES:
            got, _ = pencil_outcome(build_pencil, mf, l, L_inf)
            seen[on_chart(mf), got[1] if isinstance(got, tuple) else "built"] += 1
        assert seen[True, "built"] >= 400 and seen[False, "built"] >= 60, seen
        for message in ("marked subspace must be a hyperplane of M",
                        "marked hyperplane must contain M_l",
                        "marked hyperplane must not contain M_(l-1)", "ambient mismatch"):
            assert seen[True, message] >= 20 and seen[False, message] >= 20, (message, seen)

    @pytest.mark.parametrize("kind", CHART_MUTANTS)
    def test_mutants_fail(self, kind):
        """A v of the other sign or dual pairs not in lowest terms build an
        equal Pencil from other integers than the reference's; the other
        two refuse or mis-build pencils the reference builds."""
        mutant = ref.source_mutant(build_pencil, *CHART_MUTANTS[kind])
        assert len(reference_mismatches(mutant, self.CASES)) >= 60

    def test_sanity_checks_stay_checks_in_the_chart(self):
        """Dual pairs with the two lifted rows swapped put e_k outside M_k
        for some k > l-1, which the first sanity check refuses."""
        mutant = ref.source_mutant(build_pencil, "[a * z - b * w for z, w in zip(row, last)]",
                                   "[a * w - b * z for z, w in zip(row, last)]")
        mf = flag_within(M_COMPANION, FLAG)
        with pytest.raises(VerificationError, match="dual basis tail 5 does not span M_5"):
            mutant(mf, 5, span(9, e(2), e(3), e(5), e(8), e(9)))

    def test_coordinate_kill_reading_b_j_entries_fails(self, monkeypatch):
        """On the coordinate flag the moving plane lies in F_(b_j) iff the
        first b_j - 1 entries of its columns vanish; reading b_j entries
        tests F_(b_j + 1) and fails chains whose moving plane is not in it."""
        cases = [(a, b, standard_flag(6), coordinate_k(6, a, b), k)
                 for k, (a, b) in enumerate(every_chain(6))]
        want = [chain_outcome(chain_deformation, *case) for case in cases]
        monkeypatch.setattr(deform, "step_verify", ref.source_mutant(
            step_verify, "any(col[:bj - 1])", "any(col[:bj])"))
        got = [chain_outcome(chain_deformation, *case) for case in cases]
        assert sum(g != w for g, w in zip(got, want)) >= 20

    def test_frame_before_the_proper_meeting_check(self, monkeypatch):
        """chain_deformation frames K once and checks it on the standard
        flag; a K that misses a random flag's proper position is refused
        with the same message."""
        flag = random_flag(9, 4)
        framed = []
        real = Flag.frame
        monkeypatch.setattr(Flag, "frame", lambda f, v: framed.append(v) or real(f, v))
        bad = flag.subspace(5)
        with pytest.raises(ValueError, match="general position must meet the flag properly"):
            chain_deformation(A741, 2, flag, bad)
        assert len(framed) == bad.dim
        K = coordinate_k(9, A741, 2)
        assert meets_properly(K, flag)
        framed.clear()
        assert all(rep.passed for rep in chain_deformation(A741, 2, flag, K))
        assert len(framed) == K.dim


def test_descent_fault_is_a_failed_check(monkeypatch):
    """A ValueError that step_verify raises on positions the chain drew
    itself is a VerificationError: here a descent that hands back M."""
    K = coordinate_k(9, A741, 2)
    monkeypatch.setattr(deform, "_descend_hyperplane", lambda a, s, flag, M, rng: M)
    with pytest.raises(VerificationError,
                       match="marked subspace must be a hyperplane of M") as info:
        chain_deformation(A741, 2, FLAG, K)
    assert isinstance(info.value.__cause__, ValueError)


@pytest.mark.skipif(os.environ.get("PIERIKIT_SLOW") != "1",
                    reason="every chain at n = 8, 9; set PIERIKIT_SLOW=1 to run them")
@pytest.mark.parametrize("n", [8, 9])
def test_chart_pencils_match_the_reference_n8_9(n):
    """Every pencil of every chain at n = 8, 9 on the standard flag, built
    in M's chart: the reference's Pencil, covectors and dual pairs."""
    cases = chain_pencils(n)
    assert len(cases) >= 400 and all(on_chart(mf) for mf, _, _ in cases)
    assert reference_mismatches(build_pencil, cases) == []
