"""Tests for the exact linear algebra layer: subspaces, flags, charts, and
one-parameter families with their flat limits."""

import json
import os
import random
from bisect import bisect_left
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd

import pytest

import fraction_reference as ref
import step_reference as step_ref
import pierikit.exactla as exactla
from pierikit.exactla import (
    Flag,
    PolyFamily,
    Subspace,
    VerificationError,
    annihilator_basis,
    constant_family,
    coordinate_subspace,
    family_from_vectors,
    family_to_json,
    flag_from_basis,
    full_space,
    intersect,
    invert_matrix,
    kernel_basis,
    limit_at_zero,
    quotient_dim,
    quotient_subspace,
    rank,
    rref,
    solve_columns,
    span,
    subspace_from_json,
    subspace_to_json,
    sum_span,
    unit_vector,
    vec,
    zero_subspace,
)
from records_reference import trusted_refusals

# the five fixed points at which families used to be sampled
SAMPLE_POINTS = (Fraction(1), Fraction(1, 2), Fraction(2), Fraction(3), Fraction(-1))

F = Fraction


def eval_columns(fam, t):
    """The family's columns at t, evaluated in Fractions."""
    return [tuple(sum((c * F(t) ** k for k, c in enumerate(p)), F(0)) for p in col)
            for col in fam.cols]


def family_from_json(d):
    """Inverse of family_to_json."""
    return family_from_vectors(
        int(d["ambient"]), [[[F(c) for c in p] for p in col] for col in d["cols"]])


def rand_vec(rng, n):
    return vec([rng.randint(-4, 4) for _ in range(n)])


def rand_subspace(rng, n, d):
    while True:
        s = span(n, *[rand_vec(rng, n) for _ in range(d)])
        if s.dim == d:
            return s


class TestRref:
    def test_unique_form(self):
        rows = [vec([2, 4, 6]), vec([1, 2, 4])]
        red, piv = rref(rows)
        assert list(piv) == [0, 2]
        assert [tuple(r) for r in red] == [vec([1, 2, 0]), vec([0, 0, 1])]

    def test_rank_and_kernel(self):
        rows = [vec([1, 2, 3]), vec([2, 4, 6])]
        assert rank(rows) == 1
        ker = kernel_basis(rows, 3)
        assert len(ker) == 2
        for k in ker:
            assert sum(a * b for a, b in zip(rows[0], k)) == 0

    def test_solve_columns(self):
        cols = [vec([1, 0, 1]), vec([0, 1, 1])]
        x = solve_columns(cols, vec([2, 3, 5]))
        assert x == (F(2), F(3))
        assert solve_columns(cols, vec([1, 0, 0])) is None

    def test_invert(self):
        m = [vec([2, 1]), vec([1, 1])]
        inv = invert_matrix(m)
        assert inv == [vec([1, -1]), vec([-1, 2])]
        with pytest.raises(ValueError):
            invert_matrix([vec([1, 2]), vec([2, 4])])

    @pytest.mark.parametrize("rows", [[[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1], [1, 1]],
                                      [[1, 0], [0]], [[1], [0, 1]]],
                             ids=["wide", "tall", "ragged", "ragged first row"])
    def test_invert_refuses_a_non_square_matrix(self, rows):
        with pytest.raises(ValueError, match="^matrix is not square$"):
            invert_matrix(rows)


class TestSubspace:
    def test_span_and_dim(self):
        s = span(4, vec([1, 1, 0, 0]), vec([2, 2, 0, 0]), vec([0, 0, 1, 0]))
        assert s.dim == 2
        assert s.contains_vector(vec([3, 3, 5, 0]))
        assert not s.contains_vector(vec([0, 0, 0, 1]))

    def test_canonical_equality(self):
        a = span(3, vec([1, 2, 0]), vec([0, 0, 1]))
        b = span(3, vec([1, 2, 1]), vec([0, 0, 2]))
        assert a == b

    def test_zero_and_full(self):
        z = zero_subspace(3)
        assert z.is_zero and z.dim == 0
        f = full_space(3)
        assert f.dim == 3 and f.contains(z)

    def test_modular_dimension_random(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(2, 6)
            a = rand_subspace(rng, n, rng.randint(0, n))
            b = rand_subspace(rng, n, rng.randint(0, n))
            i = intersect(a, b)
            s = sum_span(a, b)
            assert a.dim + b.dim == i.dim + s.dim
            assert s.contains(a) and s.contains(b)
            assert a.contains(i) and b.contains(i)

    def test_quotient(self):
        a = span(4, unit_vector(4, 1), unit_vector(4, 2), unit_vector(4, 3))
        k = span(4, unit_vector(4, 2))
        q = quotient_subspace(a, k)
        assert q.dim == 2
        # quotient by zero leaves input alone
        assert quotient_subspace(a, zero_subspace(4)) == a

    def test_annihilator(self):
        s = span(3, vec([1, 0, 1]))
        cov = annihilator_basis(s)
        assert len(cov) == 2
        for nu in cov:
            assert sum(a * b for a, b in zip(nu, vec([1, 0, 1]))) == 0


class TestSubspaceRows:
    @pytest.mark.parametrize("rows,message", [
        (((1, 0, 2),), "length"),                  # wrong length
        (((1, 0, 0, 0), (0, 0, 0, 0)), "echelon"),  # zero row
        (((2, 0, 4, 0),), "echelon"),              # not primitive
        (((-1, 0, 2, 0),), "echelon"),             # negative pivot
        (((0, 1, 0, 0), (1, 0, 0, 0)), "echelon"),  # pivots out of order
        (((1, 1, 0, 0), (0, 1, 0, 0)), "reduced"),  # pivot column not clear
    ])
    def test_rejects_non_canonical_rows(self, rows, message):
        with pytest.raises(ValueError, match=message):
            Subspace(4, rows)

    def test_canonical_rows_give_the_canonicalize_basis(self):
        rows = ((2, 0, 1, 0), (0, 3, -1, 5))
        s = Subspace(4, rows)
        assert s.pivots == (0, 1)
        assert strs(s.basis) == strs(exactla.canonicalize(rows, 4).basis)
        assert strs(s.basis) == [["1", "0", "1/2", "0"], ["0", "1", "-1/3", "5/3"]]
        rng = random.Random(1996)
        for i in range(200):
            vectors, n = random_matrix(rng, i)
            want = exactla.canonicalize(vectors, n)
            got = Subspace(n, want.rows)
            assert got == want and hash(got) == hash(want)
            assert strs(got.basis) == strs(exactla.canonicalize(vectors, n).basis)


class TestFlag:
    def test_standard_shape(self):
        n = 5
        spaces = tuple(
            span(n, *[unit_vector(n, i) for i in range(j, n + 1)])
            for j in range(1, n + 2)
        )
        f = Flag(n, spaces)
        assert f.subspace(1).dim == 5
        assert f.subspace(5).dim == 1
        assert f.subspace(6).is_zero
        # indices beyond the ambient clamp to zero
        assert f.subspace(9).is_zero

    def test_from_basis(self):
        f = flag_from_basis([vec([1, 1]), vec([0, 1])])
        assert f.subspace(1).dim == 2
        assert f.subspace(2) == span(2, vec([0, 1]))

    def test_rejects_bad_nesting(self):
        n = 2
        with pytest.raises(ValueError):
            Flag(n, (span(n, vec([1, 0])), full_space(n), zero_subspace(n)))


def fresh_flags():
    """Flags equal to the standard, the reversed and seeded random flags of
    k^2..k^7, each rebuilt through the public constructors, so none has
    been hashed before."""
    from pierikit.enumerative import reversed_flag
    from pierikit.schubgeom import random_flag, standard_flag
    flags = []
    for n in range(2, 8):
        for flag in (standard_flag(n), reversed_flag(n), random_flag(n, n), random_flag(n, 9)):
            flags.append(Flag(n, tuple(Subspace(n, s.rows) for s in flag.spaces)))
    return flags


def flag_hash_mismatches(flags):
    """The flags whose hash, first and again, is not hash((ambient, spaces))
    or is not stored as _hash after the first use."""
    return [f for f in flags
            if not hash(f) == vars(f).get("_hash") == hash(f) == hash((f.ambient, f.spaces))]


class TestFlagHash:
    """A flag hashes as a Record, hash((ambient, spaces)), computed on first
    use and then stored."""

    def test_hash_is_the_field_tuple_hash_stored_once(self):
        flags = fresh_flags()
        assert all("_hash" not in vars(f) for f in flags)
        assert flag_hash_mismatches(flags) == []
        assert len({hash(f) for f in flags}) > len(flags) // 2
        # equal flags hash equal, however each was built
        for f in flags:
            assert len({f, Flag(f.ambient, f.spaces)}) == 1

    def test_hash_over_the_ambient_alone_is_caught(self, monkeypatch):
        mutant = ref.source_mutant(exactla._record_methods, "h = hash(({own}))",
                                   "h = hash((self.ambient,))")
        monkeypatch.setattr(Flag, "__hash__", mutant(Flag)["__hash__"])
        flags = fresh_flags()
        assert len(flag_hash_mismatches(flags)) == len(flags)


def seeded_basis(n, seed):
    """The integer basis that schubgeom.random_flag(n, seed) draws."""
    rng = random.Random(seed)
    while True:
        rows = [tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n)]
        if rank(rows) == n:
            return rows


class TestFlagFromBasis:
    """flag_from_basis on integer rows and span against the Fraction
    construction it replaced, fraction_reference.fraction_flag_from_basis,
    and against the rank-checked integer builder that replaced that,
    reference_flag_from_basis, with rref and rank forbidden inside the
    library call."""

    def built(self, monkeypatch, vectors):
        def refuse(*a, **k):
            raise AssertionError("flag_from_basis went through rref or rank")
        want = ref.fraction_flag_from_basis(vectors)
        assert reference_flag_from_basis(vectors) == want
        with monkeypatch.context() as m:
            m.setattr(exactla, "rref", refuse)
            m.setattr(exactla, "rank", refuse)
            got = flag_from_basis(vectors)
        assert got == want
        assert [s.pivots for s in got.spaces] == [s.pivots for s in want.spaces]
        return got

    def test_random_flags(self, monkeypatch):
        from pierikit.schubgeom import random_flag
        for n in range(2, 13):
            for seed in range(21):
                got = self.built(monkeypatch, seeded_basis(n, seed))
                assert random_flag(n, seed) == got

    def test_coordinate_flags(self, monkeypatch):
        from pierikit.enumerative import reversed_flag
        from pierikit.schubgeom import standard_flag
        for n in range(1, 13):
            assert standard_flag(n) == self.built(
                monkeypatch, [unit_vector(n, i) for i in range(1, n + 1)])
            assert reversed_flag(n) == self.built(
                monkeypatch, [unit_vector(n, i) for i in range(n, 0, -1)])

    def test_fraction_and_inexact_bases(self, monkeypatch):
        rng = random.Random(2024)
        done = 0
        for i in range(60):
            kind = KINDS[i % len(KINDS)]
            n = rng.randint(1, 4 if kind == "big" else 7)
            vectors = [[random_entry(rng, kind) for _ in range(n)] for _ in range(n)]
            if rank(vectors) == n:
                self.built(monkeypatch, vectors)
                done += 1
        assert done >= 50
        # anything vec reads, as before: floats, decimal strings, Decimals
        self.built(monkeypatch, [[0.5, "1/3", Decimal("2.5")], [0, 1, 0], [1, 0, 0]])

    @pytest.mark.parametrize("vectors, message", [
        ([[1, 2], [2, 4]], "vectors do not form a basis"),
        ([[1, 0], [0, 1, 0]], "expected vector of length 2, got 3"),
        ([[F(1, 2), 0], [0, F(0)]], "vectors do not form a basis"),
    ])
    def test_refusals_match(self, vectors, message):
        for build in (flag_from_basis, ref.fraction_flag_from_basis, reference_flag_from_basis):
            with pytest.raises(ValueError, match=f"^{message}$"):
                build(vectors)


def reference_flag_from_basis(vectors):
    """flag_from_basis before the one-pass tail builder: a rank check, then
    span(n, *rows[j:]) for each tail and the public Flag constructor, which
    checks every dimension and containment."""
    n = len(vectors)
    rows = [exactla._int_vector(v, n)[0] for v in vectors]
    if rank(rows) != n:
        raise ValueError("vectors do not form a basis")
    spaces = [span(n, *rows[j:]) for j in range(n)]
    spaces.append(zero_subspace(n))
    return Flag(n, tuple(spaces))


def tail_flag_cases():
    """(n, integer rows) for the tail builder: the standard and reversed
    coordinate bases for n <= 12, seeded -9..9 draws as random_flag makes
    them (with no redraw), and -1..1 draws and hand-made lists, many of
    them dependent."""
    rng = random.Random(34)
    cases = []
    for n in range(13):
        cases.append((n, [exactla._unit_row(n, p) for p in range(n)]))
        cases.append((n, [exactla._unit_row(n, p) for p in range(n - 1, -1, -1)]))
    for n in range(1, 13):
        for _ in range(8):
            cases.append((n, [tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n)]))
    for n in range(2, 7):
        for _ in range(30):
            cases.append((n, [tuple(rng.randint(-1, 1) for _ in range(n)) for _ in range(n)]))
    # a repeated row, a zero row, and the first or the last row dependent
    # on the others
    cases += [(3, [(1, 2, 3), (0, 1, 1), (0, 1, 1)]), (3, [(1, 0, 0), (0, 0, 0), (0, 0, 1)]),
              (3, [(1, 1, 0), (1, 0, 0), (0, 1, 0)]), (3, [(0, 0, 1), (1, 2, 0), (2, 4, 0)])]
    return cases


def tail_flag_mismatches(build):
    """The cases on which build(n, rows) (exactla._tail_flag or a mutant)
    differs from reference_flag_from_basis, taken as None where the
    reference refuses the rows, and the number of such dependent cases."""
    wrong, dependent = [], 0
    for n, rows in tail_flag_cases():
        try:
            want = reference_flag_from_basis(rows)
        except ValueError:
            want = None
            dependent += 1
        got = build(n, rows)
        if got != want or (want is not None and [s.pivots for s in got.spaces]
                           != [s.pivots for s in want.spaces]):
            wrong.append((n, rows))
    return wrong, dependent


class TestTailFlag:
    """exactla._tail_flag, which builds every flag from a basis in one pass
    from the bottom and returns None on a dependent list, against the
    builder it replaced, reference_flag_from_basis."""

    def test_matches_the_reference(self):
        wrong, dependent = tail_flag_mismatches(exactla._tail_flag)
        assert wrong == [] and dependent >= 40, (wrong[:3], dependent)

    def test_trusted_flags_pass_the_public_constructor(self, monkeypatch):
        built, refused = trusted_refusals(monkeypatch, Flag, lambda: [
            exactla._tail_flag(n, rows) for n, rows in tail_flag_cases()])
        assert refused == 0 and built >= 200, (built, refused)

    @pytest.mark.parametrize("old, new", [
        ("span(n, *tail.rows, row)", "span(n, row)"),
        ("if tail.dim != len(spaces):", "if tail.dim > len(spaces):"),
    ], ids=["tail of its row alone", "dependent row missed"])
    def test_mutants_fail(self, old, new):
        assert tail_flag_mismatches(ref.source_mutant(exactla._tail_flag, old, new))[0]

    @pytest.mark.parametrize("build", [
        lambda: exactla._tail_flag(-1, []), lambda: span(-1),
        lambda: subspace_from_json({"ambient": -1, "basis": []}),
        lambda: Subspace(-1, ()), lambda: zero_subspace(-1),
        lambda: PolyFamily(-1, ()), lambda: Flag(-1, ()),
    ], ids=["tail flag", "span", "json", "Subspace", "zero_subspace", "PolyFamily", "Flag"])
    def test_negative_ambient_is_refused(self, build):
        with pytest.raises(ValueError, match="^ambient dimension must be nonnegative, got -1$"):
            build()

    def test_negative_flag_sizes_are_refused(self):
        from pierikit.enumerative import reversed_flag
        from pierikit.schubgeom import random_flag, standard_flag
        # random_flag(-1) never returned, and the coordinate flags came out
        # of k^0
        for build in (standard_flag, reversed_flag, random_flag):
            with pytest.raises(ValueError, match="^ambient dimension must be nonnegative"):
                build(-1)


@pytest.mark.skipif(os.environ.get("PIERIKIT_SLOW") != "1",
                    reason="n = 20, 24 random flags; set PIERIKIT_SLOW=1 to run them")
@pytest.mark.parametrize("n", [20, 24])
def test_tail_flag_random_n20_24(n):
    from pierikit.schubgeom import random_flag
    for seed in range(40):
        assert random_flag(n, seed) == reference_flag_from_basis(seeded_basis(n, seed))


class TestFamily:
    def test_eval_and_dims(self):
        n = 3
        fam = PolyFamily(
            n,
            (
                ((F(0), F(1)), (F(1),), (F(0),)),  # t*e1 + e2
                ((F(0),), (F(0),), (F(1),)),       # e3
            ),
        )
        at1 = fam.at(F(1))
        assert at1 == span(3, vec([1, 1, 0]), vec([0, 0, 1]))
        assert fam.at(F(0)) == span(3, vec([0, 1, 0]), vec([0, 0, 1]))

    @pytest.mark.parametrize("entry", [1.5, Decimal("1.5"), "1"])
    def test_non_exact_entry_is_a_type_error(self, entry):
        # a float entry used to raise AttributeError on its denominator
        with pytest.raises(TypeError, match="int or Fraction"):
            PolyFamily(1, (((entry,),),))
        with pytest.raises(TypeError, match="int or Fraction"):
            PolyFamily(2, (((1, F(1, 2)), (0, entry)),))

    def test_int_and_fraction_entries_agree(self):
        fam = PolyFamily(2, (((F(1, 2), 3), (F(2, 3),)), ((1,), (0, F(5, 4)))))
        assert fam._forms == ((6, 1, ((3, 18), (4,))), (4, 1, ((4,), (0, 5))))
        assert fam == PolyFamily(2, tuple(tuple(tuple(F(c) for c in p) for p in col)
                                          for col in fam.cols))

    def test_limit_drops_t_factor(self):
        # column t*e1 has limit e1, not zero
        fam = PolyFamily(2, (((F(0), F(1)), (F(0),)),))
        lim = limit_at_zero(fam)
        assert lim == span(2, vec([1, 0]))

    def test_limit_worked_example(self):
        # the five-column family whose limit drops to a different pattern
        n = 9

        def col(*pairs):
            # pairs of (row, poly coeffs lowest first)
            cols = [(F(0),)] * n
            for row, cs in pairs:
                cols[row - 1] = tuple(F(c) for c in cs)
            return tuple(cols)

        fam = PolyFamily(
            n,
            (
                col((2, (0, 1)), (3, (-1,))),
                col((3, (0, 1)), (5, (-1,))),
                col((5, (0, 1)), (6, (-1,))),
                col((6, (0, 1)), (8, (-1,))),
                col((9, (1,))),
            ),
        )
        for t in SAMPLE_POINTS:
            assert fam.at(t).dim == 5
        lim = limit_at_zero(fam)
        want = span(
            n,
            unit_vector(n, 3),
            unit_vector(n, 5),
            unit_vector(n, 6),
            unit_vector(n, 8),
            unit_vector(n, 9),
        )
        assert lim == want

    def test_limit_requires_generic_rank(self):
        # two columns that collide at t=1 only: generic rank 2, so the limit
        # exists; the first full-rank point is t = 2
        fam = PolyFamily(2, (((F(1),), (F(0),)), ((F(0), F(1)), (F(1), F(-1)))))
        assert [t for t, _ in fam.full_rank_points()] == [2, 3]
        assert limit_at_zero(fam) == span(2, vec([1, 0]), vec([0, 1]))
        # a second column t times the first: rank 1 at every t
        fam = PolyFamily(2, (((F(1),), (F(1),)), ((F(0), F(1)), (F(0), F(1)))))
        assert list(fam.full_rank_points()) == []
        with pytest.raises(ValueError, match="does not have generic rank 2"):
            limit_at_zero(fam)

    def test_limit_combination_not_divisible_by_t(self, monkeypatch):
        # a "kernel" vector whose combination does not vanish at 0
        fam = constant_family(span(2, vec([1, 0])))
        monkeypatch.setattr(exactla, "kernel_basis", lambda mat, ncols: [(F(1),)])
        with pytest.raises(VerificationError, match="divisible by t"):
            limit_at_zero(fam)

    def test_constant_family(self):
        s = span(3, vec([1, 2, 0]))
        fam = constant_family(s)
        assert fam.at(F(7)) == s
        assert limit_at_zero(fam) == s


class TestSerialization:
    def test_subspace_roundtrip(self):
        s = span(4, vec([1, 0, F(1, 2), 0]), vec([0, 1, 3, 0]))
        j = subspace_to_json(s)
        assert j["ambient"] == 4
        assert all(isinstance(x, str) for row in j["basis"] for x in row)
        assert subspace_from_json(j) == s

    @pytest.mark.parametrize("doc", [
        {}, [1, 2], None, {"ambient": 3, "basis": 5}, {"ambient": "3", "basis": []},
        {"ambient": True, "basis": []}, {"ambient": 3, "basis": [1, 2, 3]},
    ])
    def test_malformed_subspace_json(self, doc):
        with pytest.raises(ValueError, match="must be an object with an integer"):
            subspace_from_json(doc)

    @pytest.mark.parametrize("entry", [None, [1], {}, float("inf")])
    def test_subspace_json_entry_not_a_number(self, entry):
        with pytest.raises(ValueError, match="entries must be rational numbers"):
            subspace_from_json({"ambient": 2, "basis": [[1, entry]]})

    def test_family_roundtrip(self):
        fam = PolyFamily(2, (((F(0), F(1)), (F(1),)),))
        j = family_to_json(fam)
        back = family_from_json(j)
        assert back == fam
        assert back.at(F(2)) == fam.at(F(2))


class TestExactInputs:
    @pytest.mark.parametrize("bad", [0.5, "1/2", Decimal("0.5"), None])
    @pytest.mark.parametrize("call", [
        rref,
        rank,
        lambda rows: kernel_basis(rows, 2),
        invert_matrix,
        lambda rows: solve_columns(rows, (1, 0)),
        lambda rows: span(2, *rows),
    ])
    def test_rejects_inexact_entries(self, call, bad):
        with pytest.raises(TypeError, match="int or Fraction"):
            call([[1, bad], [F(1, 3), 2]])

    def test_accepts_ints_fractions_and_bools(self):
        red, piv = rref([[2, F(4, 3)], [True, 0]])
        assert piv == [0, 1]
        assert red == [(1, 0), (0, 1)]

    def test_bool_and_int_subclass_rows_come_out_as_plain_ints(self):
        """The integer fast paths take a row only when every entry's type
        is int itself: bools and other int subclasses are read as their
        values, so canonical rows, scaled vectors and JSON hold plain ints."""
        class Small(int):
            pass

        def plain(rows):
            return all(type(x) is int for row in rows for x in row)

        rows = [(True, False, True), (False, True, True)]
        for feed in (rows, [tuple(map(Small, row)) for row in rows],
                     [(True, 0, Small(1)), (0, Small(1), True)]):
            s = span(3, *feed)
            assert s.rows == ((1, 0, 1), (0, 1, 1)) and plain(s.rows)
            assert s.pivots == (0, 1) and s == Subspace(3, ((1, 0, 1), (0, 1, 1)))
            assert json.dumps(subspace_to_json(s)) == (
                '{"ambient": 3, "basis": [["1", "0", "1"], ["0", "1", "1"]]}')
            assert s.contains_vector(feed[0]) and s.contains_vector((True, True, 2))
            assert not s.contains_vector((True, True, False))
            for row in feed:
                assert plain([exactla._int_row(row)])
                ints, d = exactla._int_vector(row, 3)
                assert d == 1 and plain([ints]) and ints == [int(x) for x in row]
        assert exactla._int_row([Small(2), True, 0]) == [2, 1, 0]


def scaler_rows(rng):
    """Seeded rows for the row scalers: all-int (some 150-bit), Fraction,
    int and Fraction mixed, bool, an int subclass mixed with ints, zero
    and empty rows, as lists, tuples and (for _int_vector) generators."""
    class Small(int):
        pass

    rows = [[], [0, 0, 0], [True, False], (Small(4), 6, -8)]
    for i in range(400):
        n = rng.randint(1, 7)
        kind = ("int", "big", "small", "mixed", "bool", "subclass")[i % 6]
        if kind == "bool":
            row = [rng.random() < 0.5 for _ in range(n)]
        elif kind == "subclass":
            row = [Small(rng.randint(-9, 9)) if rng.random() < 0.5 else rng.randint(-9, 9)
                   for _ in range(n)]
        elif kind == "mixed":
            row = [random_entry(rng, rng.choice(("int", "small"))) for _ in range(n)]
        else:
            row = [random_entry(rng, kind) for _ in range(n)]
        rows.append(tuple(row) if i % 2 else row)
    return rows


class TestIntegerFastPaths:
    def test_scalers_match_the_reference(self):
        """_int_row and _int_vector copy an all-int row and scale any
        other; both give the reference's plain ints on every row."""
        rng = random.Random(96010)
        for row in scaler_rows(rng):
            got = exactla._int_row(row)
            assert got == step_ref.int_row(row) and all(type(x) is int for x in got)
            n = len(row)
            for feed in (row, tuple(row), iter(row)):
                ints, d = exactla._int_vector(feed, n)
                assert (ints, d) == step_ref.int_vector(row, n)
                assert type(d) is int and all(type(x) is int for x in ints)
            if n:
                with pytest.raises(ValueError, match="expected vector of length"):
                    exactla._int_vector(row, n + 1)
        with pytest.raises(TypeError, match="int or Fraction"):
            exactla._int_row([1, 0.5])

    def test_fast_paths_taking_int_subclasses_fail(self, monkeypatch):
        """A fast path that takes every int instance, bools included,
        keeps bools in the canonical rows: the pinned boundary fails."""
        monkeypatch.setattr(exactla, "_int_row", ref.source_mutant(
            exactla._int_row, "_INT.issuperset(map(type, row))",
            "all(isinstance(x, int) for x in row)"))
        with pytest.raises(AssertionError):
            TestExactInputs().test_bool_and_int_subclass_rows_come_out_as_plain_ints()
        monkeypatch.undo()
        monkeypatch.setattr(exactla, "_int_vector", ref.source_mutant(
            exactla._int_vector, "if types == _INT else", "if int in types else"))
        with pytest.raises(AssertionError):
            self.test_scalers_match_the_reference()

    def test_ptrim_and_unit_rows(self):
        assert exactla.ptrim([1, 0, F(0)]) == (1,) and exactla.ptrim(iter([0, 0])) == ()
        kept = (F(1, 2), 0, 3)
        assert exactla.ptrim(kept) is kept
        for n in range(1, 6):
            for p in range(n):
                row = exactla._unit_row(n, p)
                assert row == tuple(int(c == p) for c in range(n))
                assert row is exactla._unit_row(n, p)


# ----------------------------------------------------------------------
# Differential check of the integer elimination core against a textbook
# Fraction Gauss-Jordan.  The reference is deliberately naive: it divides
# each pivot row by its pivot and clears the column with Fraction
# arithmetic.

def textbook_rref(rows):
    work = [[F(x) for x in r] for r in rows]
    ncols = len(work[0]) if work else 0
    pivots = []
    prow = 0
    for c in range(ncols):
        pr = next((r for r in range(prow, len(work)) if work[r][c] != 0), None)
        if pr is None:
            continue
        work[prow], work[pr] = work[pr], work[prow]
        inv = 1 / work[prow][c]
        work[prow] = [x * inv for x in work[prow]]
        for r in range(len(work)):
            if r != prow and work[r][c] != 0:
                f = work[r][c]
                work[r] = [a - f * b for a, b in zip(work[r], work[prow])]
        pivots.append(c)
        prow += 1
    return [tuple(r) for r in work[:prow]], pivots


def textbook_kernel(reduced, pivots, ncols):
    out = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [F(0)] * ncols
        v[fc] = F(1)
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[fc]
        out.append(tuple(v))
    return out


def textbook_solve(cols, target):
    k = len(cols)
    aug = [[col[i] for col in cols] + [target[i]] for i in range(len(target))]
    red, piv = textbook_rref(aug)
    if k in piv:
        return None
    x = [F(0)] * k
    for row, pc in zip(red, piv):
        x[pc] = row[-1]
    return tuple(x)


def textbook_inverse(rows):
    n = len(rows)
    aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    red, piv = textbook_rref(aug)
    if piv[:n] != list(range(n)):
        return None
    return [row[n:] for row in red]


def textbook_intersection(a, b):
    # A cap B is cut out by the covectors vanishing on A or on B; a and b
    # are Subspaces, so their bases are already reduced
    n = a.ambient
    covectors = (textbook_kernel(a.basis, a.pivots, n)
                 + textbook_kernel(b.basis, b.pivots, n))
    return textbook_rref(textbook_kernel(*textbook_rref(covectors), n))[0]


def strs(rows):
    """Entry strings, after checking every entry is a Fraction."""
    assert all(type(x) is F for row in rows for x in row)
    return [[str(x) for x in row] for row in rows]


KINDS = ("int", "small", "big", "small", "int")


def random_entry(rng, kind):
    if kind == "int":
        return rng.randint(-9, 9)
    if kind == "small":
        return F(rng.randint(-9, 9), rng.randint(1, 6))
    # at least 150 bits in numerator and denominator
    num = rng.getrandbits(160) | (1 << 150)
    return F(rng.choice((-1, 1)) * num, rng.getrandbits(160) | (1 << 150))


def random_matrix(rng, i):
    """Seeded matrix number i: every fourth has a zero row, every third is
    rank-deficient by construction, shapes run from 1x1 to 7x7 (4x4 for
    150-bit entries)."""
    kind = KINDS[i % len(KINDS)]
    top = 4 if kind == "big" else 7
    nrows, ncols = rng.randint(1, top), rng.randint(1, top)
    if i % 3 == 0 and min(nrows, ncols) > 1:
        # every row a combination of fewer base rows than min(shape)
        base = [[random_entry(rng, kind) for _ in range(ncols)]
                for _ in range(rng.randint(1, min(nrows, ncols) - 1))]
        rows = [[sum(rng.randint(-3, 3) * b[c] for b in base) for c in range(ncols)]
                for _ in range(nrows)]
    else:
        rows = [[random_entry(rng, kind) for _ in range(ncols)]
                for _ in range(nrows)]
    if i % 4 == 1:
        rows[rng.randrange(nrows)] = [0] * ncols
    return rows, ncols


class TestDifferential:
    def test_against_textbook_gauss_jordan(self):
        rng = random.Random(20240601)
        seen = dict.fromkeys(
            ("zero rows", "int-only", "tall", "wide", "rank-deficient", "150-bit"), 0)
        for i in range(2000):
            rows, ncols = random_matrix(rng, i)
            red, piv = textbook_rref(rows)
            seen["zero rows"] += any(all(x == 0 for x in r) for r in rows)
            seen["int-only"] += all(type(x) is int for r in rows for x in r)
            seen["tall"] += len(rows) > ncols
            seen["wide"] += len(rows) < ncols
            seen["rank-deficient"] += len(red) < min(len(rows), ncols)
            seen["150-bit"] += KINDS[i % len(KINDS)] == "big"

            got_red, got_piv = rref(rows)
            assert got_piv == piv
            assert strs(got_red) == strs(red)
            assert strs(kernel_basis(rows, ncols)) == strs(textbook_kernel(red, piv, ncols))
            cols, target = rows[:-1], rows[-1]
            if cols:
                want = textbook_solve(cols, target)
                got = solve_columns(cols, target)
                assert (got is None) == (want is None)
                if got is not None:
                    assert strs([got]) == strs([want])
            if len(rows) == ncols:
                want = textbook_inverse(rows)
                if want is None:
                    with pytest.raises(ValueError):
                        invert_matrix(rows)
                else:
                    assert strs(invert_matrix(rows)) == strs(want)
            k = rng.randint(0, len(rows))
            a, b = span(ncols, *rows[:k]), span(ncols, *rows[k:])
            assert strs(intersect(a, b).basis) == strs(textbook_intersection(a, b))
        assert all(count >= 100 for count in seen.values()), seen

    def test_rref_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(7)
        for i in range(200):
            rows, _ = random_matrix(rng, i)
            want, pivots = sympy.Matrix(
                [[sympy.Rational(F(x).numerator, F(x).denominator) for x in r]
                 for r in rows]).rref()
            got_red, got_piv = rref(rows)
            assert got_piv == list(pivots)
            assert strs(got_red) == [[str(want[r, c]) for c in range(want.cols)]
                                     for r in range(len(pivots))]


def reference_echelon(rows):
    """exactla._echelon as it was before its inner loops were flattened and
    its updates cut to the columns that can change: a next() over a
    generator finds each pivot row, enumerate walks the rows, every row is
    updated over its full length, and the rows are scaled by the reference
    int_row."""
    work = [r for r in map(step_ref.int_row, rows) if any(r)]
    pivots = []
    if not work:
        return work, pivots
    nrows = len(work)
    prow = 0
    for c in range(len(work[0])):
        pr = next((r for r in range(prow, nrows) if work[r][c]), None)
        if pr is None:
            continue
        piv = work[pr]
        work[pr] = work[prow]
        p = piv[c]
        if p < 0:
            piv = [-x for x in piv]
            p = -p
        work[prow] = piv
        for r, row in enumerate(work):
            f = row[c]
            if f and r != prow:
                g = gcd(p, f)
                a, b = p // g, f // g
                new = [a * x - b * y for x, y in zip(row, piv)]
                g = gcd(*new)
                work[r] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        prow += 1
        if prow == nrows:
            break
    return work[:prow], pivots


def echelon_mismatches(echelon):
    """How many of 600 seeded random_matrix cases (every fifth negated)
    echelon reduces otherwise than reference_echelon."""
    rng = random.Random(19960105)
    wrong = 0
    for i in range(600):
        rows, _ = random_matrix(rng, i)
        if i % 5 == 2:
            rows = [[-x for x in row] for row in rows]
        wrong += echelon(rows) != reference_echelon(rows)
    return wrong


class TestEchelonLoops:
    def test_matches_the_generator_loops(self):
        rng = random.Random(19960105)
        seen = dict.fromkeys(("zero rows", "negative pivot", "rank-deficient", "tall",
                              "wide", "int-only", "Fraction"), 0)
        for i in range(2000):
            rows, ncols = random_matrix(rng, i)
            if i % 5 == 2:
                rows = [[-x for x in row] for row in rows]
            want = reference_echelon(rows)
            assert exactla._echelon(rows) == want, rows
            seen["zero rows"] += any(not any(r) for r in rows)
            seen["negative pivot"] += any(next(filter(None, r), 0) < 0 for r in rows)
            seen["rank-deficient"] += len(want[1]) < min(len(rows), ncols)
            seen["tall"] += len(rows) > ncols
            seen["wide"] += len(rows) < ncols
            ints = all(type(x) is int for r in rows for x in r)
            seen["int-only" if ints else "Fraction"] += 1
        assert all(count >= 100 for count in seen.values()), seen

    def test_rows_above_the_pivot_row_without_the_prefix_scaling_fail(self):
        """The rows above the pivot row are updated from column c on and
        their prefix scaled by the cross-multiplier; leaving the prefix as
        it was breaks every case whose multiplier is not 1 there."""
        assert echelon_mismatches(exactla._echelon) == 0
        mutant = ref.source_mutant(
            exactla._echelon, "[a * x for x in row[:c]] if a != 1 else row[:c]", "row[:c]")
        assert echelon_mismatches(mutant) >= 100


# ----------------------------------------------------------------------
# _inverse_rows is the one inverse: invert_matrix, Flag._adapted_coords and
# build_pencil's dual basis all read it.  The textbook Gauss-Jordan inverse
# is its reference.

def square_matrix(rng, i):
    """Seeded square matrix number i: int, small-Fraction or 150-bit
    entries by KINDS, 1x1 to 6x6 (4x4 for 150-bit entries), every third
    singular by construction (one row a combination of the others)."""
    kind = KINDS[i % len(KINDS)]
    n = rng.randint(1, 4 if kind == "big" else 6)
    rows = [[random_entry(rng, kind) for _ in range(n)] for _ in range(n)]
    if i % 3 == 0:
        r = rng.randrange(n)
        others = rows[:r] + rows[r + 1:]
        coeffs = [rng.randint(-3, 3) for _ in others]
        rows[r] = [sum(k * row[c] for k, row in zip(coeffs, others)) for c in range(n)]
    return rows


class TestInverseRows:
    def test_against_textbook_inverse(self):
        rng = random.Random(9601)
        seen = dict.fromkeys(("int", "small", "big", "singular"), 0)
        for i in range(600):
            rows = square_matrix(rng, i)
            want = textbook_inverse(rows)
            got = exactla._inverse_rows(rows)
            seen[KINDS[i % len(KINDS)]] += 1
            if want is None:
                seen["singular"] += 1
                assert got is None
                continue
            assert len(got) == len(rows)
            for (d, w), row in zip(got, want):
                assert type(d) is int and d > 0
                assert all(type(x) is int for x in w)
                assert [F(x, d) for x in w] == list(row)
        assert all(count >= 100 for count in seen.values()), seen

    def test_singular_gives_none(self):
        assert exactla._inverse_rows([[1, 2], [2, 4]]) is None
        assert exactla._inverse_rows([[0]]) is None
        assert exactla._inverse_rows([[F(1, 2), 1], [0, 0]]) is None

    def test_rows_of_the_inverse(self):
        assert exactla._inverse_rows([[2, 1], [1, 1]]) == [(1, [1, -1]), (1, [-1, 2])]
        assert exactla._inverse_rows([[2]]) == [(2, [1])]
        assert exactla._inverse_rows([]) == []


# ----------------------------------------------------------------------
# span builds its Subspace straight from _echelon and rank counts rows with
# pairwise distinct leading columns without eliminating; canonicalize and
# the elimination's pivot count are their references.

def rank_cases(rng, count):
    """(rows, feed) pairs: random_matrix's rows (zero rows, rank-deficient
    ones, Fraction and 150-bit entries), every third with random leading
    zeros so that leading columns are sometimes distinct; feed is the rows
    as a list, a tuple of tuples or a generator."""
    for i in range(count):
        rows, ncols = random_matrix(rng, i)
        if i % 3 == 2:
            for row in rows:
                z = rng.randint(0, ncols)
                row[:z] = [0] * z
        feed = (rows, tuple(map(tuple, rows)), (row for row in rows))[i % 3]
        yield rows, feed


def leads(rows):
    return [next(c for c, x in enumerate(row) if x) for row in rows if any(row)]


def rank_disagreements(rank_fn, seen=None):
    """How many seeded cases rank_fn gets wrong against the pivot count of
    the elimination."""
    wrong = 0
    for rows, feed in rank_cases(random.Random(2026), 1500):
        want = len(exactla._echelon(rows)[1])
        if seen is not None:
            lead = leads(rows)
            seen["colliding leads" if len(set(lead)) < len(lead) else "distinct leads"] += 1
            seen["zero row"] += any(not any(row) for row in rows)
            seen["Fraction entries"] += any(type(x) is F for row in rows for x in row)
            seen["generator"] += not isinstance(feed, (list, tuple))
            seen["rank-deficient"] += want < len(rows)
        wrong += rank_fn(feed) != want
    return wrong


def counting_nonzero_rows(rows):
    """Mutant rank: counts the nonzero rows without checking their leads."""
    return sum(1 for row in rows if any(row))


LENGTH_FAULTS = [(3, [(0, 0)]), (3, [(1, 0, 0), (0, 0)]), (3, [(1, 2)]),
                 (2, [(1, 2, 3)]), (2, [(0, 0, 0)]), (1, [(0,), ()])]


def length_errors(span_fn):
    """How many LENGTH_FAULTS span_fn rejects with the length ValueError."""
    caught = 0
    for ambient, vectors in LENGTH_FAULTS:
        try:
            span_fn(ambient, *vectors)
        except ValueError as exc:
            caught += str(exc).startswith("expected vector of length")
    return caught


def span_without_length_check(ambient, *vectors):
    """Mutant span: _echelon's rows with no length check."""
    reduced, _ = exactla._echelon([tuple(v) for v in vectors])
    return Subspace(ambient, tuple(map(tuple, reduced)))


class TestSpanAndRank:
    def test_span_equals_canonicalize(self, monkeypatch):
        """span never builds the Fraction rref: it equals canonicalize, rows,
        pivots and basis, on random vectors fed as lists, tuples and
        generators, including zero vectors and 150-bit entries."""
        rng = random.Random(1601)
        seen = dict.fromkeys(("zero space", "zero row", "rank-deficient", "150-bit",
                              "generator"), 0)
        for i in range(1500):
            rows, ncols = random_matrix(rng, i)
            if i % 10 == 7:
                rows = [[0] * ncols for _ in rows[:i % 3]]
            want = exactla.canonicalize(rows, ncols)
            feed = [row if i % 3 else (x for x in row) for row in rows]
            with monkeypatch.context() as m:
                m.setattr(exactla, "rref", forbid_call)
                got = span(ncols, *feed)
            assert got == want and got.rows == want.rows and got.pivots == want.pivots
            assert strs(got.basis) == strs(want.basis)
            seen["zero space"] += got.is_zero
            seen["zero row"] += any(not any(row) for row in rows)
            seen["rank-deficient"] += got.dim < len(rows)
            seen["150-bit"] += KINDS[i % len(KINDS)] == "big"
            seen["generator"] += i % 3 == 0
        assert all(count >= 50 for count in seen.values()), seen
        assert span(3) == exactla.canonicalize([], 3) == zero_subspace(3)

    def test_rank_equals_the_elimination(self):
        seen = dict.fromkeys(("colliding leads", "distinct leads", "zero row",
                              "Fraction entries", "generator", "rank-deficient"), 0)
        assert rank_disagreements(rank, seen) == 0
        assert all(count >= 100 for count in seen.values()), seen

    def test_distinct_leads_need_no_elimination(self, monkeypatch):
        monkeypatch.setattr(exactla, "_echelon", forbid_call)
        assert rank([[0, 2, 1], [3, 0, 0], [0, 0, F(1, 2)], [0, 0, 0]]) == 3
        assert rank(iter([(0, 1), (1, 1)])) == 2
        assert rank([]) == 0

    @pytest.mark.parametrize("rows", [
        [[1, 0.5]],                          # a float behind a distinct lead
        [[0.5, 1]],                          # a float as the lead
        [[1, 2], [0, 0.0]],                  # a float zero
        [[1, 2], [2, 4], [0, 0.5]],          # after a lead collision
    ])
    @pytest.mark.parametrize("call", [rank, lambda rows: span(2, *rows),
                                      lambda rows: exactla.canonicalize(rows, 2)])
    def test_float_entries_raise(self, call, rows):
        with pytest.raises(TypeError, match="int or Fraction"):
            call(rows)
        with pytest.raises(TypeError, match="int or Fraction"):
            call(iter(rows))

    def test_length_check_is_shared(self):
        assert length_errors(span) == len(LENGTH_FAULTS)
        assert length_errors(lambda n, *vs: exactla.canonicalize(vs, n)) == len(LENGTH_FAULTS)

    def test_rank_counting_nonzero_rows_fails(self):
        # the mutant agrees wherever the nonzero rows are independent, and
        # is wrong on every rank-deficient case with no zero row
        assert rank_disagreements(counting_nonzero_rows) >= 300

    def test_span_without_length_check_fails(self):
        # a short or long zero vector is dropped by the elimination, and a
        # short nonzero one fails only Subspace's own check
        assert length_errors(span_without_length_check) < len(LENGTH_FAULTS)
        with pytest.raises(ValueError, match="expected vector of length 3, got 2"):
            span(3, (0, 0))
        assert span_without_length_check(3, (0, 0)) == zero_subspace(3)


# ----------------------------------------------------------------------
# Differential check of the integer Subspace paths (back substitution,
# contains_vector, coords, quotient_subspace) against textbook Fraction
# back-substitution on the canonical basis, of PolyFamily.at against
# canonicalizing the Fraction evaluation, and of the memoised coordinate
# flags against fresh ones.

def textbook_reduce(s, v):
    w = [F(x) for x in v]
    for row in s.basis:
        p = next(i for i, x in enumerate(row) if x != 0)
        c = w[p]
        if c != 0:
            w = [a - c * b for a, b in zip(w, row)]
    return tuple(w)


def textbook_quotient(a, k):
    if k.is_zero:
        return a.basis
    keep = [i for i in range(a.ambient) if i not in k.pivots]
    gens = [[textbook_reduce(k, row)[i] for i in keep] for row in a.basis]
    return textbook_rref(gens)[0] if gens else []


def random_space(rng, n, kind, i):
    """Every seventh pair uses the zero space, every seventh (offset 3) the
    full space; the rest span 0..n+1 random rows, often dependent."""
    if i % 7 == 0:
        return zero_subspace(n)
    if i % 7 == 3:
        return full_space(n)
    rows = [[random_entry(rng, kind) for _ in range(n)]
            for _ in range(rng.randint(0, n + 1))]
    return span(n, *rows)


def random_vector(rng, s, kind):
    """Half the time a random combination of the basis (so it lies in s),
    otherwise random entries; entries come as int and Fraction mixed."""
    n = s.ambient
    if s.basis and rng.random() < 0.5:
        v = [F(0)] * n
        for row in s.basis:
            c = random_entry(rng, kind)
            v = [a + c * b for a, b in zip(v, row)]
    else:
        v = [random_entry(rng, kind) for _ in range(n)]
    return [x.numerator if type(x) is F and x.denominator == 1 and rng.random() < 0.5
            else x for x in v]


def reference_quotient_dim(a, k):
    """quotient_dim as it was before it tested k once: every row of a back
    substituted against k, which tests k for coordinate rows each time."""
    if a.ambient != k.ambient:
        raise ValueError("ambient mismatch")
    if k.is_zero:
        return a.dim
    return rank([k._back_substitute(row)[0] for row in a.rows])


def quotient_dim_cases():
    """(a, k) over seeded subspaces of k^1..k^7 and every space of a
    coordinate, a reversed and a random flag: k coordinate, not coordinate
    and zero, a among the same spaces."""
    from pierikit.enumerative import reversed_flag
    from pierikit.schubgeom import random_flag, standard_flag
    rng = random.Random(5728)
    cases = []
    for n in range(1, 8):
        spaces = [*standard_flag(n).spaces, *reversed_flag(n).spaces,
                  *random_flag(n, n).spaces,
                  coordinate_subspace(n, rng.sample(range(1, n + 1), rng.randint(1, n)))]
        spaces += [random_space(rng, n, KINDS[i % len(KINDS)], i) for i in range(12)]
        cases += [(a, k) for a in spaces for k in spaces]
    return cases


def quotient_dim_mismatches(fn, rebuilt=False):
    """The cases where fn differs from reference_quotient_dim; with rebuilt,
    each k is built anew, so that nothing is stored on it yet."""
    mismatches = []
    for a, k in quotient_dim_cases():
        if rebuilt:
            k = Subspace(k.ambient, k.rows)
        if fn(a, k) != reference_quotient_dim(a, k):
            mismatches.append((a, k))
    return mismatches


def pivot_blind_mismatches(fn):
    """How many cases with a and k nonzero fn gets wrong when a's pivots
    read None and a's stored free columns are every column (wrong for any
    nonzero a)."""
    wrong = 0
    for a, k in quotient_dim_cases():
        if a.dim and k.dim:
            blind = Subspace(a.ambient, a.rows)
            object.__setattr__(blind, "pivots", None)
            object.__setattr__(blind, "_free", tuple(range(a.ambient)))
            wrong += fn(blind, k) != reference_quotient_dim(a, k)
    return wrong


class TestQuotientDim:
    def test_matches_the_back_substitution(self):
        cases = quotient_dim_cases()
        kinds = {"coordinate": 0, "other": 0, "zero": 0}
        for _, k in cases:
            kinds["zero" if k.is_zero else "coordinate" if k._is_coordinate else "other"] += 1
        assert min(kinds.values()) >= 500, kinds
        assert quotient_dim_mismatches(quotient_dim) == []

    def test_reads_no_pivot_of_a(self):
        # schubert_member's quotient path must not read H's pivots, nor the
        # free columns derived from them
        assert pivot_blind_mismatches(quotient_dim) == 0

    def test_reading_the_free_columns_of_a_is_caught(self):
        mutant = ref.source_mutant(quotient_dim, "free = k._free_columns",
                                   "free = a._free_columns")
        assert pivot_blind_mismatches(mutant) >= 100

    def test_coordinate_quotient_on_the_pivot_columns_is_caught(self, monkeypatch):
        # the free columns are stored on k, so the mutant reads rebuilt ones;
        # the source keeps its decorator, so the mutant is a property
        mutant = ref.source_mutant(Subspace._free_columns.fget,
                                   "if i not in pivots", "if i in pivots")
        monkeypatch.setattr(Subspace, "_free_columns", mutant)
        assert len(quotient_dim_mismatches(quotient_dim, rebuilt=True)) >= 100


class TestSubspaceDifferential:
    def test_against_textbook_back_substitution(self):
        rng = random.Random(20240917)
        seen = dict.fromkeys(("zero space", "full space", "150-bit", "contained",
                              "not contained", "str/generator input"), 0)
        for i in range(1400):
            kind = KINDS[i % len(KINDS)]
            n = rng.randint(1, 4 if kind == "big" else 7)
            s = random_space(rng, n, kind, i)
            v = random_vector(rng, s, kind)
            if i % 11 == 5:
                v = [str(x) for x in v]
            seen["str/generator input"] += i % 11 in (5, 6)
            seen["zero space"] += s.is_zero
            seen["full space"] += s.dim == n
            seen["150-bit"] += kind == "big"

            want = textbook_reduce(s, v)
            inside = all(x == 0 for x in want)
            seen["contained" if inside else "not contained"] += 1
            feed = iter(v) if i % 11 == 6 else v
            w, d = exactla._int_vector(feed, n)
            r, scale = s._back_substitute(w)
            assert strs([tuple(F(x, d * scale) for x in r)]) == strs([want])
            assert s.contains_vector(v) is inside
            assert s.pivots == tuple(
                next(c for c, x in enumerate(row) if x != 0) for row in s.basis)

            a = random_space(rng, n, kind, i + 1)
            q = quotient_subspace(a, s)
            assert strs(q.basis) == strs(textbook_quotient(a, s))
            assert s.contains(a) is all(s.contains_vector(row) for row in a.basis)
        assert all(count >= 100 for count in seen.values()), seen

    def test_scaled_lift_against_fraction_sum(self):
        """A combination of the rows that _scaled_lift lifts to one leading
        multiple P, over P, is the textbook sum of coordinates times the
        Fraction basis, value for value, on random spaces including the
        zero space; on a flag's adapted rows, whose leading entries are not
        the pivots of one echelon form, it is the same combination of the
        adapted basis."""
        rng = random.Random(9601)
        seen = dict.fromkeys(("zero space", "150-bit", "flag rows"), 0)
        for i in range(700):
            kind = KINDS[i % len(KINDS)]
            n = rng.randint(1, 4 if kind == "big" else 7)
            if i % 4 == 3:
                vectors = [[random_entry(rng, kind) for _ in range(n)] for _ in range(n)]
                if rank(vectors) < n:
                    continue
                flag = flag_from_basis(vectors)
                rows, basis = flag._adapted_rows, flag.adapted_basis
                seen["flag rows"] += 1
            else:
                s = random_space(rng, n, kind, i)
                rows, basis = s.rows, s.basis
                seen["zero space"] += s.is_zero
            seen["150-bit"] += kind == "big"
            x = [random_entry(rng, kind) if rng.random() < 0.8 else 0 for _ in rows]
            want = (F(0),) * n
            for c, row in zip(x, basis):
                want = ref.vec_add(want, ref.vec_scale(c, row))
            P, lifted = exactla._scaled_lift(rows)
            assert all(type(c) is int for row in lifted for c in row)
            got = tuple(F(sum(c * row[k] for c, row in zip(x, lifted)), P) for k in range(n))
            assert strs([got]) == strs([want])
        assert all(count >= 50 for count in seen.values()), seen
        assert exactla._scaled_lift(()) == (1, [])

    def test_annihilator_is_read_off_the_canonical_rows(self, monkeypatch):
        """annihilator_basis reads the null vectors off s's canonical rows
        without elimination; kernel_basis of the same rows, which eliminates
        them first, gives the same covectors in the same order, on random
        spaces including the zero and the full space."""
        rng = random.Random(20261019)
        seen = dict.fromkeys(("zero space", "full space", "150-bit", "proper"), 0)
        for i in range(700):
            kind = KINDS[i % len(KINDS)]
            n = rng.randint(1, 4 if kind == "big" else 7)
            s = random_space(rng, n, kind, i)
            seen["zero space"] += s.is_zero
            seen["full space"] += s.dim == n
            seen["150-bit"] += kind == "big"
            seen["proper"] += 0 < s.dim < n
            want = kernel_basis(list(s.rows), s.ambient)
            with monkeypatch.context() as m:
                m.setattr(exactla, "_echelon", forbid_call)
                got = annihilator_basis(s)
            assert got == want and strs(got) == strs(want)
            assert len(got) == n - s.dim
        assert all(count >= 50 for count in seen.values()), seen

    def test_restrict_against_canonicalize_of_coordinates(self, monkeypatch):
        """restrict reads a's canonical rows at s's pivots and divides out
        each row's content, with no elimination; canonicalizing those
        coordinates, as restrict did before, must give the same subspace,
        on random spaces including the zero and the full space."""
        def textbook_restrict(s, a):
            coords = []
            for row in a.rows:
                if not s.contains_vector(row):
                    raise ValueError("subspace is not contained in the chart space")
                coords.append([row[p] for p in s.pivots])
            return exactla.canonicalize(coords, s.dim)

        def no_elimination(rows):
            raise AssertionError("restrict ran an elimination")

        rng = random.Random(1601)
        seen = dict.fromkeys(("zero s", "full s", "zero a", "a = s", "proper a",
                              "not contained", "150-bit"), 0)
        for i in range(700):
            kind = KINDS[i % len(KINDS)]
            n = rng.randint(1, 4 if kind == "big" else 7)
            s = random_space(rng, n, kind, i)
            if i % 5 == 4:
                a = random_space(rng, n, kind, i + 1)
            elif i % 5 == 1:
                a = s
            else:
                # 0..dim s + 1 random combinations of s's basis
                coeffs = [[random_entry(rng, kind) for _ in s.basis]
                          for _ in range(rng.randint(0, s.dim + 1))]
                a = span(n, *[[sum(c * row[k] for c, row in zip(cs, s.basis))
                               for k in range(n)] for cs in coeffs])
            inside = s.contains(a)
            seen["zero s"] += s.is_zero
            seen["full s"] += s.dim == n
            seen["zero a"] += a.is_zero
            seen["a = s"] += a == s
            seen["proper a"] += inside and 0 < a.dim < s.dim
            seen["not contained"] += not inside
            seen["150-bit"] += kind == "big"
            if not inside:
                with pytest.raises(ValueError, match="not contained in the chart"):
                    s.restrict(a)
                continue
            want = textbook_restrict(s, a)
            with monkeypatch.context() as m:
                m.setattr(exactla, "_echelon", no_elimination)
                got = s.restrict(a)
            assert got == want and got.pivots == want.pivots
            assert ref.extend(s, got) == a
        assert all(count >= 50 for count in seen.values()), seen

    def test_vector_inputs(self):
        s = span(3, vec([1, 1, 0]))
        for v in ([F(1, 2), F(1, 2), 0], (0.5, 0.5, 0), ("1/2", "1/2", "0"),
                  (x for x in (F(1, 2), F(1, 2), False))):
            assert s.contains_vector(v)
        for v in ([F(1, 2), 1, 3], (0.5, 1.0, 3), ("1/2", "1", "3"),
                  (x for x in (F(1, 2), True, 3))):
            assert not s.contains_vector(v)
        for v in ([1, 2], ("1", "2")):
            with pytest.raises(ValueError, match="expected vector of length 3, got 2"):
                s.contains_vector(v)

    def test_family_at_against_fraction_evaluation(self):
        rng = random.Random(515)
        points = list(SAMPLE_POINTS) + [F(0)]
        for i in range(250):
            kind = KINDS[i % len(KINDS)]
            n = rng.randint(1, 4 if kind == "big" else 6)
            cols = [[[random_entry(rng, kind) if rng.random() < 0.7 else 0
                      for _ in range(rng.randint(0, 3))] for _ in range(n)]
                    for _ in range(rng.randint(0, 4))]
            fam = family_from_vectors(n, cols)
            extra = [F(rng.randint(-50, 50), rng.randint(1, 50)) for _ in range(3)]
            extra.append(random_entry(random.Random(i), "big"))
            for t in points + extra:
                got = fam.at(t)
                want = exactla.canonicalize(eval_columns(fam, t), n)
                assert got == want
                assert strs(got.basis) == strs(want.basis)

    def test_memoised_coordinate_flags_equal_fresh_ones(self):
        from pierikit.enumerative import reversed_flag
        from pierikit.schubgeom import standard_flag
        for n in range(1, 10):
            fresh = flag_from_basis([unit_vector(n, i) for i in range(1, n + 1)])
            fresh_rev = flag_from_basis([unit_vector(n, i) for i in range(n, 0, -1)])
            assert standard_flag(n) == fresh and standard_flag(n) is standard_flag(n)
            assert reversed_flag(n) == fresh_rev and reversed_flag(n) is reversed_flag(n)
            for got, want in zip(standard_flag(n).spaces + reversed_flag(n).spaces,
                                 fresh.spaces + fresh_rev.spaces):
                assert strs(got.basis) == strs(want.basis)


# ----------------------------------------------------------------------
# Differential check of limit_at_zero, whose column operations run over
# Z[t] on integer columns, against the textbook loop over Q[t]: Fraction
# polynomial columns, a Fraction kernel at t=0, and division by t of the
# first vanishing combination.

def t_add(p, q):
    out = [F(0)] * max(len(p), len(q))
    for i, x in enumerate(p):
        out[i] += x
    for i, x in enumerate(q):
        out[i] += x
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def t_scale(c, p):
    return tuple(F(c) * x for x in p) if c else ()


def textbook_limit(fam):
    """Rows of the canonical basis of the flat limit at t=0, and the number
    of divisions by t it took."""
    d, ambient = fam.ncols, fam.ambient
    # a maximal minor has degree at most D, the sum of the column degrees:
    # a nonzero one is nonzero at one of t = 1, ..., D+1
    D = sum(max((len(p) - 1 for p in col), default=0) for col in fam.cols)
    if all(len(textbook_rref(eval_columns(fam, t))[1]) != d for t in range(1, D + 2)):
        raise ValueError(f"family does not have generic rank {d}")
    cols = [list(col) for col in fam.cols]
    divisions = 0
    while True:
        ev = [[p[0] if p else F(0) for p in col] for col in cols]
        red, piv = textbook_rref([[col[i] for col in ev] for i in range(ambient)])
        null = textbook_kernel(red, piv, d)
        if not null:
            return textbook_rref(ev)[0], divisions
        c = null[0]
        q0 = max(q for q in range(d) if c[q] != 0)
        combo = [()] * ambient
        for q in range(d):
            for i in range(ambient):
                combo[i] = t_add(combo[i], t_scale(c[q], cols[q][i]))
        vals = [next(k for k, x in enumerate(p) if x != 0) for p in combo if p]
        if not vals:
            raise ValueError("columns are dependent as polynomials")
        v = min(vals)
        assert v >= 1
        cols[q0] = [p[v:] for p in combo]
        divisions += 1
        # each division drops the least t-order of a nonzero maximal minor,
        # at most D to begin with
        assert divisions <= D


def coefficient(rng, kind):
    if kind == "int":
        return F(rng.randint(-9, 9))
    if kind == "small":
        return F(rng.randint(-9, 9), rng.randint(1, 6))
    num = rng.getrandbits(100) | (1 << 99)
    return F(rng.choice((-1, 1)) * num, rng.getrandbits(100) | (1 << 99))


def random_poly_family(rng, kind):
    """Random entries of degree <= 4, a third of them zero."""
    n = rng.randint(1, 8)
    return [[tuple(coefficient(rng, kind) for _ in range(rng.randint(1, 5)))
             if rng.random() < 0.67 else () for _ in range(n)]
            for _ in range(rng.randint(1, min(6, n)))], n


def chain_family(rng, kind):
    """Columns t e_i - e_j along a chain of coordinates, like worked_family,
    plus perhaps a constant unit vector; all linear in t."""
    n = rng.randint(3, 8)
    chain = sorted(rng.sample(range(n), rng.randint(2, min(n, 6))))
    units = [tuple((F(0), F(1)) if i == a else (F(-1),) if i == b else () for i in range(n))
             for a, b in zip(chain, chain[1:])]
    rest = [i for i in range(n) if i not in chain]
    if rest and len(units) < 6:
        k = rng.choice(rest)
        units.append(tuple((F(1),) if i == k else () for i in range(n)))
    return units, n


def pencil_family(rng, kind):
    """A restricted pencil family over a random basis: t e_j + e_(j+1) for
    lo <= j <= l-2 and the constant e_q for q >= l."""
    n = rng.randint(2, 8)
    N = rng.randint(2, n)
    dual = [[coefficient(rng, kind) for _ in range(n)] for _ in range(N)]
    while True:
        l = rng.randint(2, N + 1)
        lo = rng.randint(1, l - 1)
        if 1 <= (l - 1 - lo) + (N - l + 1) <= 6:
            break
    cols = [tuple(t_add((dual[j][i],), (F(0), dual[j - 1][i])) for i in range(n))
            for j in range(lo, l - 1)]
    cols += [tuple(t_add((dual[q - 1][i],), ()) for i in range(n)) for q in range(l, N + 1)]
    return cols, n


def combined_entry(coeffs, cols, i):
    """Entry i of the combination sum_q coeffs[q] * cols[q]."""
    out = ()
    for c, col in zip(coeffs, cols):
        out = t_add(out, t_scale(c, col[i]))
    return out


def twisted(cols, n, rng):
    """Columns C1 . diag(t^k) . C2 applied to the family, for small integer
    matrices C1 and C2: the same fibres for generic t, but the constant
    terms lose rank, so the limit takes several divisions by t.  Degrees
    stay <= 4 for a linear family."""
    d = len(cols)
    top = max((len(p) for col in cols for p in col), default=1)
    ks = [rng.randint(0, 5 - top) for _ in range(d)]
    c1, c2 = ([[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
              for _ in range(2))
    mid = [tuple(t_add((), (F(0),) * ks[r] + combined_entry(c2[r], cols, i))
                 for i in range(n)) for r in range(d)]
    return [tuple(combined_entry(c1[q], mid, i) for i in range(n)) for q in range(d)], n


def not_generic(cols, n, rng, multiple):
    """Add a multiple of a column (generic rank drops), or a column that
    meets it at t = 1 (rank drops at t = 1 only, for most draws)."""
    keep = list(cols[:5])
    q = rng.choice(keep)
    if multiple:
        new = tuple(t_scale(rng.randint(1, 3), p) for p in q)
    else:
        new = tuple(t_add(p, (F(-w), F(w))) for p, w in
                    zip(q, [rng.randint(-3, 3) for _ in q]))
    return keep + [new], n


@lru_cache(maxsize=1)
def limit_cases():
    """(fam, source, kind) for 300 seeded families: random ones, chains of
    coordinates and pencils, with int, small-Fraction or 100-bit entries;
    most chain and pencil ones twisted, so that the limit takes several
    divisions by t, and three in ten not generic.  Built once: the values
    are frozen, and every test reads the same cases."""
    rng = random.Random(19960109)
    out = []
    for i in range(300):
        kind = ("int", "small", "big")[i % 3]
        source = ("random", "chain", "pencil")[i // 3 % 3]
        cols, n = {"random": random_poly_family, "chain": chain_family,
                   "pencil": pencil_family}[source](rng, kind)
        if source != "random" and i % 4:
            cols, n = twisted(cols, n, rng)
        if i % 10 in (3, 5, 7):
            cols, n = not_generic(cols, n, rng, multiple=i % 10 == 7)
        out.append((family_from_vectors(n, cols), source, kind))
    return tuple(out)


def limit_outcome(limit, fam):
    """The canonical basis limit gives for fam as strings, or the class
    and message of what it raised."""
    try:
        return strs(limit(fam).basis)
    except Exception as exc:
        return type(exc).__name__, str(exc)


@lru_cache(maxsize=1)
def reference_outcomes():
    """limit_outcome of the reference limit, which searched full-rank
    points first, on each of limit_cases(), in their order."""
    return tuple(limit_outcome(step_ref.limit_at_zero, fam) for fam, _, _ in limit_cases())


class TestLimitDifferential:
    def test_against_textbook_column_operations(self):
        seen = dict.fromkeys(("random", "chain", "pencil", "100-bit", "not generic",
                              "drops at t = 1 only", "several divisions"), 0)
        for fam, source, kind in limit_cases():
            seen[source] += 1
            seen["100-bit"] += kind == "big"
            assert fam.ncols <= 6 and fam.max_degree() <= 4 and fam.ambient <= 8
            try:
                want, divisions = textbook_limit(fam)
            except ValueError as exc:
                seen["not generic"] += 1
                with pytest.raises(ValueError) as got:
                    limit_at_zero(fam)
                assert str(got.value) == str(exc)
                continue
            seen["several divisions"] += divisions >= 2
            seen["drops at t = 1 only"] += rank(eval_columns(fam, 1)) < fam.ncols
            assert strs(limit_at_zero(fam).basis) == strs(want)
        assert all(count >= 30 for count in seen.values()), seen

    def test_against_the_limit_that_searched_full_rank_points_first(self):
        assert [limit_outcome(limit_at_zero, fam) for fam, _, _ in limit_cases()] == list(
            reference_outcomes())

    def test_independent_at_zero_evaluates_no_point(self, monkeypatch):
        """d columns independent at t = 0 prove generic rank d: the limit
        is the fibre there, with no full-rank point looked for."""
        cases, want = zip(*[(fam, outcome) for (fam, _, _), outcome
                            in zip(limit_cases(), reference_outcomes())
                            if rank(eval_columns(fam, 0)) == fam.ncols])
        monkeypatch.setattr(PolyFamily, "full_rank_points", forbid_call)
        assert tuple(limit_outcome(limit_at_zero, fam) for fam in cases) == want
        assert len(cases) >= 30 and all(isinstance(w, list) for w in want)

    def test_limit_without_the_generic_rank_check_fails(self):
        """With the full-rank point search dropped, no family that is not
        generic raises the generic-rank ValueError any more."""
        mutant = ref.source_mutant(
            limit_at_zero, "if next(fam.full_rank_points(), None) is None:", "if False:")
        refused = [fam for (fam, _, _), outcome in zip(limit_cases(), reference_outcomes())
                   if isinstance(outcome, tuple)]
        assert len(refused) >= 30
        assert all(limit_outcome(mutant, fam) != limit_outcome(limit_at_zero, fam)
                   for fam in refused)


def t_power(n, i, k):
    """t^k e_i in k^n as a column of Polys."""
    return [(0,) * k + (1,) if j == i else () for j in range(1, n + 1)]


def t_sum(*columns):
    return [reduce(t_add, entries) for entries in zip(*columns)]


def exact_budget_families():
    """(name, family) for families whose limit takes exactly D divisions by
    t: the staircase with columns e_1 + t e_2 + ... + t^(j-1) e_j, and the
    chain e_1, e_1 + t e_2, e_2 + t e_3, ..., at k = 2..5; at k = 2 both
    are e_1, e_1 + t e_2."""
    for k in range(2, 6):
        yield f"staircase {k}", family_from_vectors(k, [
            t_sum(*[t_power(k, i, i - 1) for i in range(1, j + 1)]) for j in range(1, k + 1)])
        yield f"chain {k}", family_from_vectors(k, [t_power(k, 1, 0)] + [
            t_sum(t_power(k, j - 1, 0), t_power(k, j, 1)) for j in range(2, k + 1)])


class TestLimitBudget:
    """limit_at_zero stops after D divisions, D the sum of the column
    degrees, by its own proof: one more is a VerificationError."""

    @pytest.mark.parametrize("name, fam", exact_budget_families(),
                             ids=[name for name, _ in exact_budget_families()])
    def test_family_needing_exactly_d_divisions(self, name, fam):
        k = fam.ambient
        D = sum(deg for _, deg, _ in fam._forms)
        assert D == (k * (k - 1) // 2 if name.startswith("staircase") else k - 1)
        assert limit_at_zero(fam) == full_space(k)
        assert textbook_limit(fam)[1] == D
        short = ref.source_mutant(limit_at_zero, "if divisions > D:", "if divisions > D - 1:")
        with pytest.raises(VerificationError, match=f"^limit computation took more than "
                                                    f"D = {D} divisions by t$"):
            short(fam)


# ----------------------------------------------------------------------
# Differential check of Flag.meet_dims, one elimination in flag-adapted
# coordinates, against one intersect per flag space.

def flag_vector_span(rng, flag):
    """A span of flag vectors, so usually in a degenerate position: some
    adapted basis vectors, sometimes with the rows of one flag space or the
    sum of two adapted vectors."""
    n = flag.ambient
    u = flag.adapted_basis
    rows = [u[k] for k in rng.sample(range(n), rng.randint(1, n))]
    if rng.random() < 0.5:
        rows += flag.subspace(rng.randint(1, n + 1)).basis
    if rng.random() < 0.5:
        i, k = rng.randrange(n), rng.randrange(n)
        rows.append(tuple(x + y for x, y in zip(u[i], u[k])))
    return span(n, *rows)


class TestMeetDims:
    def test_against_per_space_intersect(self):
        from pierikit.enumerative import reversed_flag
        from pierikit.schubgeom import random_flag, standard_flag
        rng = random.Random(19960110)
        seen = dict.fromkeys(("zero", "full", "random", "flag vectors",
                              "not proper"), 0)
        for n in range(1, 13):
            for flag in (standard_flag(n), reversed_flag(n), random_flag(n, n)):
                spaces = [("zero", zero_subspace(n)), ("full", full_space(n))]
                spaces += [("random", rand_subspace(rng, n, rng.randint(1, n)))
                           for _ in range(3)]
                spaces += [("flag vectors", flag_vector_span(rng, flag))
                           for _ in range(3)]
                for kind, L in spaces:
                    seen[kind] += 1
                    want = tuple(intersect(flag.subspace(j), L).dim
                                 for j in range(1, n + 2))
                    assert flag.meet_dims(L) == want, (n, kind, str(L))
                    seen["not proper"] += any(
                        d != max(0, L.dim - c) for c, d in enumerate(want))
        assert all(count >= 36 for count in seen.values()), seen

    def test_rejects_ambient_mismatch(self):
        flag = flag_from_basis([unit_vector(3, i) for i in (1, 2, 3)])
        with pytest.raises(ValueError, match="ambient mismatch"):
            flag.meet_dims(full_space(4))


# ----------------------------------------------------------------------
# The flag's adapted basis and covectors come from its integer rows.  The
# Fraction construction they replaced stays here as the reference.

def textbook_adapted(flag):
    """(adapted basis, adapted covectors) as built in Fractions: u_j the
    first canonical basis row of F_j outside F_{j+1}, the covectors the
    primitive rows of the inverse of the matrix with columns u_1..u_n."""
    n = flag.ambient
    basis = tuple(next(row for row in flag.spaces[j].basis
                       if not flag.spaces[j + 1].contains_vector(row))
                  for j in range(n))
    inverse = invert_matrix(list(zip(*basis)))
    return basis, tuple(tuple(exactla._int_row(row)) for row in inverse)


class TestAdaptedCoordinates:
    def test_against_the_inverse_of_the_adapted_basis(self, monkeypatch):
        from pierikit.enumerative import reversed_flag
        from pierikit.schubgeom import random_flag, restrict_flag, standard_flag
        checked = 0
        for n in range(1, 13):
            for flag in (standard_flag(n), reversed_flag(n), random_flag(n, n),
                         random_flag(n, 7 * n), restrict_flag(random_flag(n + 3, n), 4)):
                want = textbook_adapted(flag)
                with monkeypatch.context() as m:
                    m.setattr(exactla, "invert_matrix", forbid_call)
                    fresh = Flag(flag.ambient, flag.spaces)  # nothing cached yet
                    got = (fresh.adapted_basis, fresh._adapted_coords)
                assert got == want, (n, flag)
                assert all(isinstance(x, int) for row in got[1] for x in row)
                checked += 1
        assert checked == 60


# ----------------------------------------------------------------------
# On the coordinate flag a flag position is read off the canonical pivots
# and the flag induced on a subspace off its canonical rows.  The echelon
# path, which every other flag takes, stays as the reference.

def echelon_view(flag):
    """The same flag with _is_coordinate and its coordinate order forced
    off, so that meet_dims frames L's rows and deform.flag_within takes
    the echelon path."""
    view = Flag(flag.ambient, flag.spaces)
    view.__dict__["_is_coordinate"] = False
    view.__dict__["_coordinate_order"] = None
    return view


class TestCoordinateReadOff:
    def test_only_the_coordinate_flag_reads_off(self):
        from pierikit.enumerative import reversed_flag
        from pierikit.schubgeom import random_flag, restrict_flag, standard_flag
        for n in range(1, 13):
            rebuilt = flag_from_basis([unit_vector(n, i) for i in range(1, n + 1)])
            restricted = restrict_flag(standard_flag(n + 2), 3)
            identity = tuple(range(n))
            for flag in (standard_flag(n), rebuilt, restricted):
                assert flag._is_coordinate and flag._coordinate_order == identity
            # in k^1 there is one flag; otherwise these are not coordinate
            assert reversed_flag(n)._is_coordinate is (n == 1)
            assert reversed_flag(n)._coordinate_order == identity[::-1]
            assert random_flag(n, n)._is_coordinate is (n == 1)
            assert random_flag(n, n)._coordinate_order == (identity if n == 1 else None)
            view = echelon_view(standard_flag(n))
            assert not view._is_coordinate and view._coordinate_order is None

    def test_read_off_matches_the_echelon_path(self, monkeypatch):
        """meet_dims and flag_within on the standard flag, with no
        elimination, equal the echelon path's, on random subspaces
        including the zero and the full space."""
        from pierikit import deform
        from pierikit.schubgeom import standard_flag
        rng = random.Random(9601006)
        seen = dict.fromkeys(("zero space", "full space", "150-bit", "proper"), 0)
        for i in range(700):
            kind = KINDS[i % len(KINDS)]
            n = rng.randint(1, 4 if kind == "big" else 8)
            L = random_space(rng, n, kind, i)
            seen["zero space"] += L.is_zero
            seen["full space"] += L.dim == n
            seen["150-bit"] += kind == "big"
            seen["proper"] += 0 < L.dim < n
            flag, view = standard_flag(n), echelon_view(standard_flag(n))
            assert flag._is_coordinate  # cached before elimination is forbidden
            want = (view.meet_dims(L), deform.flag_within(L, view))
            with monkeypatch.context() as m:
                m.setattr(exactla, "_echelon", forbid_call)
                m.setattr(deform, "_echelon", forbid_call)
                got = (flag.meet_dims(L), deform.flag_within(L, flag))
            assert got == want, (n, str(L))
            assert [s.pivots for s in got[1]] == [L.pivots[k:] for k in range(L.dim)]
        assert all(count >= 50 for count in seen.values()), seen


def forbid_call(*args, **kwargs):
    raise AssertionError("forbidden call")


# ----------------------------------------------------------------------
# contains and restrict skip the back substitution for a row that is one of
# the space's own canonical rows.  Back-substituting every row, as both did
# before, stays as the reference.

def back_substituted_contains(s, a):
    return a.dim <= s.dim and all(s.contains_vector(row) for row in a.rows)


def back_substituted_restrict(s, a):
    """a in s's coordinates, every row checked by back substitution, the
    coordinates canonicalized."""
    for row in a.rows:
        if not s.contains_vector(row):
            raise ValueError("subspace is not contained in the chart space")
    return exactla.canonicalize([[row[p] for p in s.pivots] for row in a.rows], s.dim)


def containment_pairs():
    """Seeded (s, a) in k^n, n <= 7 (4 for 150-bit entries), in four shapes
    in turn: a tail of s's rows; that tail with combinations of the rows
    before it; that tail with a vector outside s (a combination of the
    rows before it plus a vector on the columns before the tail where s
    has no pivot); an unrelated random space.  Every other pair of the
    second shape takes the empty tail, combinations of all of s's rows.  In the middle two, the
    added vectors are zero at the tail's pivots and the tail's rows are
    zero at their leads, so the tail's rows stay rows of a.  Also counts
    what the pairs cover."""
    rng = random.Random(19960126)
    seen = dict.fromkeys(("tail", "shared rows, contained", "disjoint rows, contained",
                          "not contained, shared row", "not contained at a pivot of s",
                          "150-bit"), 0)
    pairs = []
    for i in range(1600):
        kind = KINDS[i % len(KINDS)]
        n = rng.randint(1, 4 if kind == "big" else 7)
        s = random_space(rng, n, kind, i)
        # in the middle shapes, rows before the tail and a nonempty tail,
        # except that every other pair of the second shape has no tail
        if i % 4 in (0, 3):
            k = rng.randint(0, s.dim)
        elif i % 8 == 5:
            k = s.dim
        else:
            k = min(1, s.dim) + rng.randrange(max(1, s.dim - 1))
        tail = s.rows[k:]
        if i % 4 == 0:
            a = Subspace(n, tail)
        elif i % 4 == 3:
            a = random_space(rng, n, kind, i + 2)
        else:
            first = s.pivots[k] if tail else n
            free = [c for c in range(first) if c not in s.pivots]
            extra = []
            for _ in range(rng.randint(1, 2)):
                v = [sum(random_entry(rng, kind) * row[c] for row in s.rows[:k])
                     for c in range(n)]
                if i % 4 == 2 and free:
                    c = rng.choice(free)
                    v[c] += random_entry(rng, kind) or 1
                extra.append(v)
            a = span(n, *extra, *tail)
        pairs.append((s, a))
        inside = back_substituted_contains(s, a)
        shared = sum(row in s.rows for row in a.rows)
        seen["tail"] += i % 4 == 0 and not a.is_zero
        seen["shared rows, contained"] += inside and 0 < shared < a.dim
        seen["disjoint rows, contained"] += inside and not shared and not a.is_zero
        seen["not contained, shared row"] += not inside and shared > 0
        seen["not contained at a pivot of s"] += not inside and any(
            not s.contains_vector(row) and p in s.pivots
            for row, p in zip(a.rows, a.pivots))
        seen["150-bit"] += kind == "big"
    return pairs, seen


def containment_disagreements(pairs):
    """(pairs where contains is wrong, pairs where restrict is wrong) against
    the back-substituted references; a refusal counts by its message."""
    def outcome(fn, s, a):
        try:
            return fn(s, a)
        except ValueError as exc:
            return str(exc)

    wrong_contains = wrong_restrict = 0
    for s, a in pairs:
        wrong_contains += s.contains(a) != back_substituted_contains(s, a)
        got = outcome(Subspace.restrict, s, a)
        want = outcome(back_substituted_restrict, s, a)
        wrong_restrict += got != want or (isinstance(got, Subspace) and got.pivots != want.pivots)
    return wrong_contains, wrong_restrict


OWN_ROW_MUTANTS = {
    # (contains' skip rule, restrict's own-row rule)
    # a row that leads at one of s's pivots counts as one of s's rows
    "shares a pivot": ("row.index(next(filter(None, row))) not in self.pivots",
                       "mine[i] == p"),
    # every row of the ambient length counts as one of s's rows
    "matching length": ("len(row) != self.ambient", "len(row) == self.ambient"),
}


class TestOwnRowsSkipBackSubstitution:
    def test_against_the_full_back_substitution(self):
        pairs, seen = containment_pairs()
        assert containment_disagreements(pairs) == (0, 0)
        assert all(count >= 50 for count in seen.values()), seen

    def test_a_tail_of_own_rows_is_never_back_substituted(self, monkeypatch):
        """Every tail of s's rows, among them each space of the flag that the
        coordinate flag induces on s, is contained and restricted with no
        back substitution; its coordinates are still read."""
        from pierikit import deform
        from pierikit.schubgeom import standard_flag
        rng = random.Random(9601)
        checked = 0
        for i in range(300):
            kind = KINDS[i % len(KINDS)]
            n = rng.randint(1, 4 if kind == "big" else 8)
            s = random_space(rng, n, kind, i)
            tails = [Subspace(n, s.rows[k:]) for k in range(s.dim + 1)]
            assert list(deform.flag_within(s, standard_flag(n))) == tails[:s.dim]
            want = [back_substituted_restrict(s, a) for a in tails]
            with monkeypatch.context() as m:
                m.setattr(Subspace, "_back_substitute", forbid_call)
                assert all(s.contains(a) for a in tails)
                assert all(upper.contains(lower) for upper, lower in zip(tails, tails[1:]))
                got = [s.restrict(a) for a in tails]
            assert got == want
            checked += len(tails)
        assert checked >= 1000

    def test_own_rows_restrict_with_no_gcd(self, monkeypatch):
        """A row that is one of s's canonical rows restricts to the unit
        row at its position, with no coordinates read and no gcd taken."""
        pairs = [(s, a) for s, a in containment_pairs()[0]
                 if a.rows and all(row in s.rows for row in a.rows)]
        want = [back_substituted_restrict(s, a) for s, a in pairs]
        monkeypatch.setattr(exactla, "gcd", forbid_call)
        assert [s.restrict(a) for s, a in pairs] == want and len(pairs) >= 200

    def test_restrict_refuses_a_space_outside_the_chart(self):
        """Also when a's other row is one of s's own rows or lies in s."""
        s = span(4, (1, 0, 2, 0), (0, 1, 3, 0))
        shared = span(4, (1, 0, 2, 0), (0, 0, 0, 1))
        assert shared.rows[0] == s.rows[0]
        for a in (span(4, (0, 0, 0, 1)), shared, span(4, (1, 1, 5, 0), (0, 0, 0, 1)),
                  span(4, (1, 0, 2, 0), (0, 1, 3, 1))):
            assert not s.contains(a)
            with pytest.raises(ValueError, match="not contained in the chart space"):
                s.restrict(a)

    @pytest.mark.parametrize("rules", list(OWN_ROW_MUTANTS.values()), ids=list(OWN_ROW_MUTANTS))
    def test_mutant_skip_rules_fail(self, monkeypatch, rules):
        skip, own = rules
        for name, old, new in (("contains", "row not in own)", skip + ")"),
                               ("restrict", "own[i] == row", own)):
            monkeypatch.setattr(Subspace, name,
                                ref.source_mutant(getattr(Subspace, name), old, new))
        wrong_contains, wrong_restrict = containment_disagreements(containment_pairs()[0])
        assert wrong_contains >= 50 and wrong_restrict >= 50, (wrong_contains, wrong_restrict)


class TestMeetDimsBisection:
    def test_bisection_equals_the_pivot_count(self):
        """meet_dims counts the pivots at or after each column by bisection;
        on random strictly increasing pivot tuples, read on the coordinate
        flag and through the echelon path, that is sum(p >= c for p in
        pivots) for every column c."""
        from pierikit.schubgeom import standard_flag
        rng = random.Random(1996)
        seen = {"empty": 0, "full": 0, "proper": 0}
        for _ in range(600):
            n = rng.randint(1, 12)
            pivots = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
            # a row leading at each pivot, random past it: distinct leads
            L = span(n, *[[0] * p + [rng.randint(1, 5)]
                          + [rng.randint(-5, 5) for _ in range(n - p - 1)]
                          for p in pivots])
            assert L.pivots == pivots
            want = tuple(sum(p >= c for p in pivots) for c in range(n + 1))
            flag = standard_flag(n)
            assert flag.meet_dims(L) == want == echelon_view(flag).meet_dims(L)
            seen["empty" if not pivots else "full" if len(pivots) == n else "proper"] += 1
        assert all(count >= 30 for count in seen.values()), seen


# ----------------------------------------------------------------------
# Coordinate subspaces back-substitute by zeroing their pivot columns and
# meet on their common pivots, and a flag with a coordinate order reads a
# flag position off one elimination of L's permuted rows.  The general
# routines every other space and flag takes stay here as the references.

def general_back_substitute(s, w):
    """Fraction-free back substitution against any subspace: each row with
    a nonzero entry of w at its pivot clears it by cross-multiplying."""
    scale = 1
    for p, row in zip(s.pivots, s.rows):
        c = w[p]
        if c:
            a = row[p]
            g = gcd(a, c)
            a, c = a // g, c // g
            w = [a * x - c * y for x, y in zip(w, row)]
            scale *= a
    return list(w), scale


def general_intersect(a, b):
    """a cap b from the null vectors (u, v) of the matrix with columns a's
    and b's rows: sum u_q a_q = -sum v_q b_q lies in both."""
    n = a.ambient
    if a.is_zero or b.is_zero:
        return zero_subspace(n)
    cols = a.rows + b.rows
    gens = []
    for _, kv in exactla._null_vectors(list(zip(*cols)), len(cols)):
        gens.append([sum(c * row[k] for c, row in zip(kv, a.rows)) for k in range(n)])
    return exactla.canonicalize(gens, n)


def framed_meet_dims(flag, L):
    """The flag position from one elimination of L's framed rows."""
    pivots = exactla._echelon([flag.frame(row) for row in L.rows])[1]
    return tuple(len(pivots) - bisect_left(pivots, c) for c in range(flag.ambient + 1))


def permuted_flag(n, rng):
    """The flag of coordinate spaces F_j = span(e_{s_j}, ..., e_{s_n}) for a
    random order s."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    return flag_from_basis([unit_vector(n, i) for i in order])


@lru_cache(maxsize=1)
def coordinate_cases():
    """Seeded (flag, s, t, w) in k^n, n <= 8 (4 for 150-bit entries): the
    flag cycles through the standard flag, a flag with a permuted
    coordinate order (every fourth the reversed flag) and a random flag; s and
    t are spaces of those flags, random coordinate subspaces, random
    (mixed) spaces, or the zero or full space; w is a random integer
    vector.  Also counts what the cases cover.  Built once: the values
    are frozen, and every test reads the same cases."""
    from pierikit.enumerative import reversed_flag
    from pierikit.schubgeom import random_flag, standard_flag
    rng = random.Random(19960106)
    seen = dict.fromkeys(("coordinate", "permuted-coordinate", "mixed", "zero",
                          "full", "150-bit"), 0)
    cases = []
    for i in range(600):
        kind = KINDS[i % len(KINDS)]
        n = rng.randint(1, 4 if kind == "big" else 8)
        flag = (standard_flag(n), reversed_flag(n) if i % 12 == 1 else permuted_flag(n, rng),
                random_flag(n, i))[i % 3]

        def space(j):
            shape = (i + j) % 5
            if shape == 0:
                return flag.subspace(rng.randint(1, n + 1))
            if shape == 1:
                return coordinate_subspace(n, rng.sample(range(1, n + 1), rng.randint(0, n)))
            return random_space(rng, n, kind, i + j)

        s, t = space(0), space(2)
        w = [exactla._int_row([random_entry(rng, kind) for _ in range(n)]), [0] * n,
             list(rng.choice(s.rows)) if s.rows else [1] * n][i % 3]
        cases.append((flag, s, t, w))
        order = flag._coordinate_order
        seen["coordinate"] += s._is_coordinate and 0 < s.dim < n
        seen["permuted-coordinate"] += order is not None and order != tuple(range(n))
        seen["mixed"] += s._is_coordinate is not t._is_coordinate
        seen["zero"] += s.is_zero or t.is_zero
        seen["full"] += s.dim == n or t.dim == n
        seen["150-bit"] += kind == "big"
    return cases, seen


def coordinate_disagreements(cases):
    """(back substitutions, intersects, flag positions of s and t) that
    differ from the general references; a back substitution is compared
    with its result and scale, an intersect with its rows and pivots."""
    wrong = [0, 0, 0]
    for flag, s, t, w in cases:
        wrong[0] += s._back_substitute(w) != general_back_substitute(s, w)
        got, want = exactla.intersect(s, t), general_intersect(s, t)
        wrong[1] += got != want or got.pivots != want.pivots
        wrong[2] += sum(flag.meet_dims(L) != framed_meet_dims(flag, L) for L in (s, t))
    return tuple(wrong)


def subspace_refusals(monkeypatch, cases):
    """(built, refused) of trusted_refusals for Subspace: how many
    Subspaces the library's routines build through Subspace._trusted on the
    cases, and how many of them the public constructor refuses or gives
    other pivots."""
    from pierikit import deform

    def run():
        for flag, s, t, w in cases:
            n = s.ambient
            span(n, w, *t.rows)
            exactla.canonicalize([list(w), *s.rows], n)
            deform.flag_within(s, flag)
            s.restrict(intersect(s, t))
            s.restrict(s)
            # sums of consecutive rows: rows of s's space that are not its
            # own rows, whose coordinates share a factor when pivots do
            s.restrict(span(n, *[[x + y for x, y in zip(r, q)]
                                 for r, q in zip(s.rows, s.rows[1:])]))
    return trusted_refusals(monkeypatch, Subspace, run)


class TestCoordinateShortcuts:
    def test_against_the_general_routines(self):
        cases, seen = coordinate_cases()
        assert coordinate_disagreements(cases) == (0, 0, 0)
        assert all(count >= 50 for count in seen.values()), seen

    def test_coordinate_intersect_runs_no_elimination(self, monkeypatch):
        from pierikit.enumerative import reversed_flag
        from pierikit.schubgeom import standard_flag
        monkeypatch.setattr(exactla, "_echelon", forbid_call)
        monkeypatch.setattr(exactla, "rref", forbid_call)
        for n in range(1, 9):
            for i in range(1, n + 2):
                for j in range(1, n + 2):
                    got = intersect(standard_flag(n).subspace(i), reversed_flag(n).subspace(j))
                    assert got.pivots == tuple(range(i - 1, n + 1 - j))

    def test_trusted_constructor_equals_the_public_one(self, monkeypatch):
        built, refused = subspace_refusals(monkeypatch, coordinate_cases()[0])
        assert refused == 0 and built >= 3000, (built, refused)

    def test_only_unit_covectors_give_an_order(self):
        """A covector with one nonzero entry that is not 1 is no unit
        covector, so it gives no coordinate order; the framed path still
        reads the position.  No flag's primitive covectors are such, so
        the covectors are set by hand."""
        rng = random.Random(7)
        for n in range(1, 9):
            flag = permuted_flag(n, rng)
            for factor in (-1, 2, -3):
                view = Flag(n, flag.spaces)
                covectors = list(flag._adapted_coords)
                k = rng.randrange(n)
                covectors[k] = tuple(factor * x for x in covectors[k])
                view.__dict__["_adapted_coords"] = tuple(covectors)
                assert view._coordinate_order is None and not view._is_coordinate
                L = random_space(rng, n, "int", 1)
                assert view.meet_dims(L) == flag.meet_dims(L) == framed_meet_dims(flag, L)

    def test_intersect_over_the_union_of_pivots_fails(self, monkeypatch):
        monkeypatch.setattr(exactla, "intersect", ref.source_mutant(
            exactla.intersect, "set(a.pivots) & set(b.pivots)",
            "set(a.pivots) | set(b.pivots)"))
        assert coordinate_disagreements(coordinate_cases()[0])[1] >= 50

    def test_order_accepting_any_single_entry_fails(self, monkeypatch):
        mutant = ref.source_mutant(Flag.__dict__["_coordinate_order"].func,
                                   "phi[c] != 1 or ", "")
        mutant.__set_name__(Flag, "_coordinate_order")
        monkeypatch.setattr(Flag, "_coordinate_order", mutant)
        with pytest.raises(AssertionError):
            self.test_only_unit_covectors_give_an_order()

    def test_meet_dims_in_reversed_order_fails(self, monkeypatch):
        monkeypatch.setattr(Flag, "meet_dims", ref.source_mutant(
            Flag.meet_dims, "for c in order]", "for c in reversed(order)]"))
        assert coordinate_disagreements(coordinate_cases()[0])[2] >= 50

    def test_restrict_without_the_content_division_fails(self, monkeypatch):
        # coordinates that share a factor go down the trusted constructor
        monkeypatch.setattr(Subspace, "restrict", ref.source_mutant(
            Subspace.restrict, "if g > 1 else tuple(coords)", "if False else tuple(coords)"))
        assert subspace_refusals(monkeypatch, coordinate_cases()[0])[1] >= 50


# ----------------------------------------------------------------------
# Each Subspace tests whether it is a coordinate subspace once and stores
# the answer, and a coordinate subspace stores its free columns.  A recount
# and the general routines are the references, on subspaces built anew so
# that nothing is stored on them before the check.

def counted_coordinate(s):
    """Whether every canonical row of s is a unit row, counted afresh."""
    return all(row.count(0) == s.ambient - 1 for row in s.rows)


def stored_answer_disagreements(cases):
    """How many checks on rebuilt copies of the cases' s and t differ from
    the references: each copy's coordinate answer, read twice, against a
    recount; s's back substitution; s cap t; dim s/t and dim t/s against
    the textbook quotient."""
    wrong = 0
    for _, s, t, w in cases:
        s, t = Subspace(s.ambient, s.rows), Subspace(t.ambient, t.rows)
        for x in (s, t, s, t):
            wrong += x._is_coordinate is not counted_coordinate(x)
        wrong += s._back_substitute(w) != general_back_substitute(s, w)
        wrong += intersect(s, t) != general_intersect(s, t)
        wrong += quotient_dim(s, t) != len(textbook_quotient(s, t))
        wrong += quotient_dim(t, s) != len(textbook_quotient(t, s))
    return wrong


class TestStoredCoordinateAnswer:
    def test_against_a_recount_and_the_general_routines(self):
        assert stored_answer_disagreements(coordinate_cases()[0]) == 0

    def test_routines_read_the_stored_answer(self):
        """A wrong answer stored on a space that is no coordinate subspace
        sends back substitution, intersect and quotient_dim down the
        coordinate branch, so they read the stored answer, not a recount;
        the space's own answer and free columns are stored once read."""
        s = span(3, (1, 1, 0), (0, 0, 1))
        assert not s._is_coordinate and s._coordinate is False
        assert s._free_columns == (1,) and s._free == (1,)
        t = coordinate_subspace(3, (1, 2))
        assert general_intersect(s, t) == span(3, (1, 1, 0))
        object.__setattr__(s, "_coordinate", True)
        assert s._back_substitute([5, 7, 9]) == ([0, 7, 0], 1)
        assert intersect(s, t) == coordinate_subspace(3, (1,))
        assert quotient_dim(t, s) == 1  # t's rows read at s's free column 1
        assert quotient_dim(span(3, (1, 1, 0)), s) == 1

    def test_one_answer_shared_by_all_subspaces_fails(self, monkeypatch):
        # the mutant stores the first answer it counts on the class, where
        # every subspace that has stored none reads it
        cases = coordinate_cases()[0]
        mutant = ref.source_mutant(Subspace._is_coordinate.fget,
                                   '_set_field(self, "_coordinate", coordinate)',
                                   'setattr(Subspace, "_coordinate", coordinate)')
        monkeypatch.setattr(Subspace, "_coordinate", None)
        monkeypatch.setattr(Subspace, "_is_coordinate", mutant)
        assert stored_answer_disagreements(cases) >= 50


# ----------------------------------------------------------------------
# Off the coordinate flag, Flag.meet_dims reads the pivots off the leading
# columns of L's rows in adapted coordinates when those are pairwise
# distinct.  The elimination it ran before on every such flag stays as the
# reference.

def elimination_meet_dims(flag, L):
    """Flag.meet_dims as it was before it read leads: on the coordinate
    flag L's pivots, on another coordinate order one elimination of L's
    rows with their columns in that order, else one elimination of L's
    framed rows."""
    order = flag._coordinate_order
    if flag._is_coordinate:
        pivots = L.pivots
    elif order is not None:
        pivots = exactla._echelon([[row[c] for c in order] for row in L.rows])[1]
    else:
        pivots = exactla._echelon([flag.frame(row) for row in L.rows])[1]
    return tuple(len(pivots) - bisect_left(pivots, c) for c in range(flag.ambient + 1))


def lead_kind(flag, L):
    """The branch meet_dims takes: the coordinate flag's read-off, or, on
    L's rows in adapted coordinates, distinct or repeated leads."""
    if flag._is_coordinate:
        return "coordinate flag"
    order = flag._coordinate_order
    rows = ([[row[c] for c in order] for row in L.rows] if order is not None
            else [flag.frame(row) for row in L.rows])
    leads = [next(c for c, x in enumerate(row) if x) for row in rows]
    return "distinct leads" if len(set(leads)) == len(leads) else "repeated lead"


def block_span(rng, n):
    """A span of vectors with disjoint supports in contiguous coordinate
    blocks, as a witness plane is spanned by vectors from disjoint
    coordinate slices."""
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    blocks = [range(lo, hi) for lo, hi in zip([0, *cuts], [*cuts, n])]
    rows = []
    for block in rng.sample(blocks, rng.randint(1, len(blocks))):
        row = [0] * n
        for c in block:
            row[c] = rng.randint(-9, 9)
        row[block[-1]] = rng.choice((-1, 1)) * rng.randint(1, 9)
        rows.append(row)
    return span(n, *rows)


def meet_dims_cases(sizes, seed):
    """(flag, L) for each n in sizes: the standard, the reversed and a
    random flag, each against every space of all three flags and seeded
    spans (random subspaces, spans of the flag's vectors, block spans)."""
    from pierikit.enumerative import reversed_flag
    from pierikit.schubgeom import random_flag, standard_flag
    rng = random.Random(seed)
    cases = []
    for n in sizes:
        flags = (standard_flag(n), reversed_flag(n), random_flag(n, n))
        spaces = [s for flag in flags for s in flag.spaces]
        for flag in flags:
            spans = [rand_subspace(rng, n, rng.randint(1, n)) for _ in range(4)]
            spans += [flag_vector_span(rng, flag) for _ in range(4)]
            spans += [block_span(rng, n) for _ in range(4)]
            cases += [(flag, L) for L in spaces + spans]
    return cases


SMALL_MEET_CASES = meet_dims_cases(range(1, 10), 9601)


def meet_dims_disagreements(meet_dims, cases, seen=None):
    """How many cases meet_dims(flag, L) gets wrong against the elimination;
    seen, when given, counts the branches the cases take."""
    wrong = 0
    for flag, L in cases:
        if seen is not None:
            seen[lead_kind(flag, L)] += 1
        wrong += meet_dims(flag, L) != elimination_meet_dims(flag, L)
    return wrong


def on_reversed_flags(cases):
    """The cases on a reversed flag of k^n, n > 1 (in k^1 it is the
    coordinate flag)."""
    return [(flag, L) for flag, L in cases
            if flag.ambient > 1 and flag._coordinate_order == tuple(range(flag.ambient))[::-1]]


class TestMeetDimsLeads:
    def test_against_the_elimination(self):
        seen = dict.fromkeys(("coordinate flag", "distinct leads", "repeated lead"), 0)
        assert meet_dims_disagreements(Flag.meet_dims, SMALL_MEET_CASES, seen) == 0
        assert all(count >= 200 for count in seen.values()), seen
        reversed_seen = dict.fromkeys(seen, 0)
        meet_dims_disagreements(Flag.meet_dims, on_reversed_flags(SMALL_MEET_CASES),
                                reversed_seen)
        assert reversed_seen["distinct leads"] >= 100 and reversed_seen["repeated lead"] >= 40

    def test_distinct_leads_run_no_elimination(self, monkeypatch):
        cases = [(flag, L) for flag, L in SMALL_MEET_CASES
                 if lead_kind(flag, L) == "distinct leads"]
        want = [elimination_meet_dims(flag, L) for flag, L in cases]
        monkeypatch.setattr(exactla, "_echelon", forbid_call)
        assert [flag.meet_dims(L) for flag, L in cases] == want

    def test_witness_planes_lead_apart_on_the_reversed_flag(self):
        from pierikit.enumerative import reversed_flag, valid_instances, witness_table
        planes = [(reversed_flag(p.n), H) for p in valid_instances(5)
                  for _, _, H in witness_table(p)[1]]
        assert len(planes) >= 50
        assert {lead_kind(flag, H) for flag, H in planes} == {"distinct leads"}

    def test_shortcut_without_the_distinctness_test_fails(self):
        mutant = ref.source_mutant(Flag.meet_dims, "if len(set(pivots)) != len(pivots):",
                                   "if False:")
        assert meet_dims_disagreements(mutant, SMALL_MEET_CASES) >= 100

    def test_leads_in_natural_column_order_on_the_reversed_flag_fail(self):
        # L's canonical rows lead at distinct columns, L's pivots, so the
        # mutant takes the shortcut on every case and reads them
        mutant = ref.source_mutant(Flag.meet_dims, "for row in rows])", "for row in L.rows])")
        assert meet_dims_disagreements(mutant, on_reversed_flags(SMALL_MEET_CASES)) >= 100


@pytest.mark.skipif(os.environ.get("PIERIKIT_SLOW") != "1",
                    reason="n = 20, 24 random flags; set PIERIKIT_SLOW=1 to run them")
@pytest.mark.parametrize("n", [20, 24])
def test_meet_dims_random_flag_n20_24(n):
    cases = [(flag, L) for flag, L in meet_dims_cases([n], n)
             if flag._coordinate_order is None]
    seen = dict.fromkeys(("coordinate flag", "distinct leads", "repeated lead"), 0)
    assert meet_dims_disagreements(Flag.meet_dims, cases, seen) == 0
    assert seen["distinct leads"] >= 5 and seen["repeated lead"] >= 20, seen
