"""Tests for tableaux, row insertion, and Schur polynomial algebra.

Expected counts were generated by the enumeration oracle in this file (naive
filling with both tableau conditions checked on the complete array), then
frozen.  Polynomial identities are verified coefficient by coefficient.
"""

import itertools

import pytest

import pierikit.tableaux as tableaux
from fraction_reference import source_mutant
from pierikit.seqcomb import _tableau_count
from pierikit.tableaux import (
    SparsePoly,
    Tableau,
    chow_project,
    complete_homogeneous,
    pieri_bijection_check,
    pieri_shapes,
    row_insert,
    schur_decompose,
    schur_expand,
    shape_tree_chains,
    ssyt_enumerate,
)
from records_reference import replace, trusted_refusals


def oracle_ssyt_count(shape, m):
    """Count semistandard fillings by brute force over entry assignments."""
    cells = [(r, c) for r, ln in enumerate(shape) for c in range(ln)]
    count = 0
    for values in itertools.product(range(1, m + 1), repeat=len(cells)):
        grid = {}
        for cell, v in zip(cells, values):
            grid[cell] = v
        ok = True
        for (r, c), v in grid.items():
            if c and grid[(r, c - 1)] > v:
                ok = False
            if r and (r - 1, c) in grid and grid[(r - 1, c)] >= v:
                ok = False
        count += ok
    return count


class TestTableau:
    def test_validation(self):
        Tableau(((1, 2, 2), (2, 3)), 3)
        with pytest.raises(ValueError):
            Tableau(((2, 1),), 3)  # row decreases
        with pytest.raises(ValueError):
            Tableau(((1,), (1,)), 3)  # column repeats
        with pytest.raises(ValueError):
            Tableau(((1,), (2, 2)), 3)  # lengths grow
        with pytest.raises(ValueError):
            Tableau(((4,),), 3)  # entry too big

    def test_negative_entry_bound_is_refused(self):
        # with no rows there is no entry to refuse, so the bound itself is checked
        for build in (lambda: Tableau((), -2), lambda: Tableau((), -1),
                      lambda: Tableau(((1,),), -1)):
            with pytest.raises(ValueError, match="entry_bound must be nonnegative, got -"):
                build()
        assert Tableau((), 0).content() == ()

    def test_content(self):
        t = Tableau(((1, 1, 3), (2,)), 3)
        assert t.content() == (2, 1, 1)
        assert t.shape == (3, 1)


class TestEnumeration:
    def test_frozen_counts(self):
        assert len(ssyt_enumerate((1,), 4)) == 4
        assert len(ssyt_enumerate((2, 1), 3)) == 8
        assert len(ssyt_enumerate((2, 2), 3)) == 6
        assert len(ssyt_enumerate((4, 2), 3)) == 27
        assert len(ssyt_enumerate((2,), 3)) == 6
        assert len(ssyt_enumerate((), 3)) == 1
        assert ssyt_enumerate((1, 1, 1), 2) == ()

    def test_against_oracle(self):
        for shape in [(1,), (2,), (2, 1), (3, 1), (2, 2), (2, 1, 1)]:
            for m in (2, 3):
                assert len(ssyt_enumerate(shape, m)) == oracle_ssyt_count(shape, m)

    def test_negative_variable_count_is_rejected(self):
        for shape in [(), (1,), (2, 1)]:
            with pytest.raises(ValueError, match="nonnegative"):
                ssyt_enumerate(shape, -1)
            with pytest.raises(ValueError, match="nonnegative"):
                schur_expand(shape, -3)
        # s of the empty shape is 1 in any number of variables, zero included
        assert schur_expand((), 0) == SparsePoly.one(0)
        assert schur_expand((1,), 0) == SparsePoly(0, {})

    def test_all_valid_and_distinct(self):
        ts = ssyt_enumerate((3, 2), 3)
        assert len({t.rows for t in ts}) == len(ts)
        for t in ts:
            assert t.shape == (3, 2)


# every shape of at most six boxes
SHAPES_TO_SIX = sorted({tuple(sorted(parts, reverse=True))
                        for k in range(7) for size in range(k + 1)
                        for parts in itertools.product(range(1, k + 1), repeat=size)
                        if sum(parts) == k})


def enumerate_every_shape():
    """ssyt_enumerate, read through the module so that a patched one
    runs, on every shape of at most six boxes and m <= 4."""
    for shape in SHAPES_TO_SIX:
        for m in range(5):
            tableaux.ssyt_enumerate(shape, m)


class TestTrustedTableaux:
    """ssyt_enumerate builds its tableaux through Tableau._trusted; the
    public constructor must accept every one of them."""

    def test_every_enumerated_tableau_is_semistandard(self, monkeypatch):
        assert len(SHAPES_TO_SIX) == 30
        built, refused = trusted_refusals(monkeypatch, Tableau, enumerate_every_shape)
        want = sum(_tableau_count(shape, m) for shape in SHAPES_TO_SIX for m in range(5))
        assert (built, refused) == (want, 0)

    def test_columns_that_only_weakly_increase_are_caught(self, monkeypatch):
        monkeypatch.setattr(tableaux, "ssyt_enumerate", source_mutant(
            ssyt_enumerate, "rows[r - 1][c] + 1", "rows[r - 1][c]"))
        assert trusted_refusals(monkeypatch, Tableau, enumerate_every_shape)[1] >= 1000

    @pytest.mark.parametrize("fn", [ssyt_enumerate, schur_expand],
                             ids=["ssyt_enumerate", "schur_expand"])
    def test_variable_count_goes_through_index_whatever_is_cached(self, fn):
        # as for the shape: 2.0 == 2 as a cache key (ssyt_enumerate has none)
        getattr(fn, "cache_clear", lambda: None)()
        for _ in range(2):
            with pytest.raises(ValueError, match="variables must be an integer, got 2.0$"):
                fn((1,), 2.0)
            fn((1,), 2)
        assert type(ssyt_enumerate((1,), True)[0].entry_bound) is int
        assert type(schur_expand((1,), True).nvars) is int


class TestInsertion:
    def test_single_letter(self):
        t, chain = row_insert(Tableau((), 3), (1,))
        assert t.rows == ((1,),)
        assert chain == ((), (1,))

    def test_bumping_path(self):
        t = Tableau(((1, 3), (2,)), 3)
        res, chain = row_insert(t, (2, 2))
        assert res.rows == ((1, 2, 2), (2, 3))
        assert chain == ((2, 1), (2, 2), (3, 2))

    def test_word_must_increase(self):
        with pytest.raises(ValueError):
            row_insert(Tableau((), 3), (2, 1))

    def test_chain_grows_one_cell_per_letter(self):
        for t in ssyt_enumerate((2, 1), 3):
            for strip in ssyt_enumerate((2,), 3):
                res, chain = row_insert(t, strip.rows[0])
                sizes = [sum(s) for s in chain]
                assert sizes == [3, 4, 5]
                assert res.shape == chain[-1]


class TestPieriShapes:
    def test_42_by_2(self):
        got = pieri_shapes((4, 2), 2, 3)
        assert set(got) == {(6, 2), (5, 3), (5, 2, 1), (4, 4), (4, 3, 1), (4, 2, 2)}

    def test_row_bound(self):
        # with only two rows available the third row cannot start
        assert set(pieri_shapes((2, 1), 1, 2)) == {(3, 1), (2, 2)}

    def test_zero_strip(self):
        assert pieri_shapes((3, 1), 0, 3) == ((3, 1),)


class TestBijection:
    def test_frozen_main_case(self):
        rep = pieri_bijection_check((4, 2), 2, 3)
        assert rep.passed
        assert rep.pairs_total == 162
        assert dict(rep.image_counts) == {
            (6, 2): 60,
            (5, 3): 42,
            (5, 2, 1): 24,
            (4, 4): 15,
            (4, 3, 1): 15,
            (4, 2, 2): 6,
        }
        assert dict(rep.image_counts) == dict(rep.expected_counts)

    def test_small_cases(self):
        assert pieri_bijection_check((1,), 1, 2).passed
        assert pieri_bijection_check((2, 1), 0, 3).passed
        assert pieri_bijection_check((3, 1), 3, 3).passed
        assert pieri_bijection_check((2, 2), 2, 2).passed

    def test_negative_row_length(self):
        with pytest.raises(ValueError, match="row length must be nonnegative, got -1"):
            pieri_bijection_check((2, 1), -1, 2)

    def test_no_letters_is_refused(self):
        # with m = 0 there is no tableau to insert into but the empty one
        for b in (0, 1, 2):
            with pytest.raises(ValueError, match="m must be positive, got 0$"):
                pieri_bijection_check((), b, 0)

    def test_count_without_the_content_term_fails_the_counts_clause(self, monkeypatch):
        from pierikit import seqcomb
        monkeypatch.setattr(tableaux, "_tableau_count", source_mutant(
            seqcomb._tableau_count, "num *= m + j - i", "num *= m"))
        for lam, b, m in [((4, 2), 2, 3), ((2, 1), 1, 3), ((2, 2), 2, 2)]:
            assert pieri_bijection_check(lam, b, m).failures() == ("counts_ok",)

    def test_failures_name_each_false_clause(self):
        rep = pieri_bijection_check((2, 1), 1, 3)
        assert rep.failures() == ()
        for clause in rep.CLAUSES:
            broken = replace(rep, **{clause: False})
            assert broken.failures() == (clause,)
            assert not broken.passed
            assert broken.to_json()["passed"] is False

    def test_chains_match_tree(self):
        rep = pieri_bijection_check((2,), 2, 2)
        assert rep.chains_ok and rep.chains_complete
        tree = set(shape_tree_chains((2,), 2, 2))
        assert tree == {
            ((2,), (3,), (4,)),
            ((2,), (2, 1), (3, 1)),
            ((2,), (2, 1), (2, 2)),
        }


class TestSparsePoly:
    def test_arithmetic(self):
        x = SparsePoly(2, {(1, 0): 1})
        y = SparsePoly(2, {(0, 1): 1})
        p = (x + y) * (x + y)
        assert p.coeff((2, 0)) == 1
        assert p.coeff((1, 1)) == 2
        assert (p - p) == SparsePoly.zero(2)
        assert not (p - p)

    def test_symmetry(self):
        x = SparsePoly(2, {(1, 0): 1})
        y = SparsePoly(2, {(0, 1): 1})
        assert (x + y).is_symmetric()
        assert (x * x + y * y).is_symmetric()
        assert not x.is_symmetric()
        assert not (x + 2 * y).is_symmetric()

    def test_json(self):
        p = SparsePoly(2, {(1, 0): 1, (0, 1): 1})
        assert p.to_json() == {"0,1": "1", "1,0": "1"}


class TestSchur:
    def test_expansion_dimensions(self):
        # number of monomials with multiplicity equals SSYT count
        s = schur_expand((2, 1), 3)
        assert sum(s.terms.values()) == 8
        assert s.is_symmetric()

    def test_h_is_single_row(self):
        assert complete_homogeneous(2, 3) == schur_expand((2,), 3)
        assert complete_homogeneous(0, 3) == SparsePoly.one(3)

    def test_pieri_identity_examples(self):
        m = 3
        s1 = schur_expand((1,), m)
        assert s1 * complete_homogeneous(1, m) == (
            schur_expand((2,), m) + schur_expand((1, 1), m)
        )
        lhs = schur_expand((2, 1), m) * complete_homogeneous(2, m)
        rhs = SparsePoly.zero(m)
        for mu in [(4, 1), (3, 2), (3, 1, 1), (2, 2, 1)]:
            rhs = rhs + schur_expand(mu, m)
        assert lhs == rhs

    def test_decompose_roundtrip(self):
        m = 3
        p = schur_expand((2, 1), m) * complete_homogeneous(2, m)
        assert schur_decompose(p, m) == {
            (4, 1): 1,
            (3, 2): 1,
            (3, 1, 1): 1,
            (2, 2, 1): 1,
        }

    def test_decompose_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            schur_decompose(SparsePoly(2, {(1, 0): 1}), 2)

    def test_decompose_rejects_fractional(self):
        from fractions import Fraction

        p = schur_expand((1,), 2) * Fraction(1, 2)
        with pytest.raises(ValueError):
            schur_decompose(p, 2)


class TestIntegerInputs:
    """Entries, letters, shapes and exponents go through operator.index: a
    float or a string raises a ValueError that names it, where it used to be
    truncated (Tableau(((1.9, 2.2),), 3) printed as 12)."""

    @pytest.mark.parametrize("build, bad", [
        (lambda: Tableau(((1.9, 2.2),), 3), "1.9"),
        (lambda: Tableau(((1, 2), (2.0,)), 3), "2.0"),
        (lambda: Tableau(((1, "2"),), 3), "'2'"),
        (lambda: Tableau(((1, 2),), 2.5), "2.5"),
        (lambda: row_insert(Tableau((), 3), (1.7, 2.9)), "1.7"),
        (lambda: ssyt_enumerate((2.5, 1), 3), "2.5"),
        (lambda: pieri_shapes((2.5, 1), 1, 3), "2.5"),
        (lambda: schur_expand((2, 1.5), 3), "1.5"),
        (lambda: SparsePoly(2, {(1.5, 0): 1}), "1.5"),
        (lambda: SparsePoly(2, [(("1", 0), 1)]), "'1'"),
    ], ids=["tableau", "tableau 2.0", "tableau str", "entry bound", "row_insert",
            "ssyt_enumerate", "pieri_shapes", "schur_expand", "exponent", "exponent str"])
    def test_non_integers_are_refused(self, build, bad):
        with pytest.raises(ValueError, match=f"got {bad}$"):
            build()

    @pytest.mark.parametrize("fn", [ssyt_enumerate, schur_expand],
                             ids=["ssyt_enumerate", "schur_expand"])
    def test_float_shape_is_refused_whatever_is_cached(self, fn):
        # (2, 1.0) == (2, 1), so a cache keyed on the raw shape would hand
        # back the cached (2, 1) result once that shape had been computed
        # (ssyt_enumerate has no cache)
        getattr(fn, "cache_clear", lambda: None)()
        with pytest.raises(ValueError, match="got 1.0$"):
            fn((2, 1.0), 3)
        assert fn((2, 1), 3) == fn((2, 1, 0), 3)
        with pytest.raises(ValueError, match="got 1.0$"):
            fn((2, 1.0), 3)

    def test_integer_likes_are_stored_as_int(self):
        t = Tableau(((True, 2),), 3)
        assert t == Tableau(((1, 2),), 3) and str(t) == "12"
        assert all(type(x) is int for row in t.rows for x in row)
        t = Tableau(((1,),), True)
        assert type(t.entry_bound) is int and t.content() == (1,)
        res, chain = row_insert(Tableau((), 3), iter([True, 2]))
        assert res.rows == ((1, 2),) and chain == ((), (1,), (2,))
        p = SparsePoly(2, {(True, 0): 1})
        assert p == SparsePoly(2, {(1, 0): 1})
        assert all(type(x) is int for e in p.terms for x in e)

    def test_decompose_coefficients_are_int(self):
        m = 3
        p = schur_expand((2, 1), m) * complete_homogeneous(2, m) * 3
        got = schur_decompose(p, m)
        assert got == {(4, 1): 3, (3, 2): 3, (3, 1, 1): 3, (2, 2, 1): 3}
        assert all(type(c) is int for c in got.values())


class TestChowProject:
    def test_truncation(self):
        assert chow_project({(3,): 1, (2, 1): 2}, 4, 2) == {(2, 1): 2}
        assert chow_project({(): 5}, 4, 2) == {(): 5}
        assert chow_project({(2, 2): 1}, 4, 2) == {(2, 2): 1}
