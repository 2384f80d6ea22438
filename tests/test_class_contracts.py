"""The library's record classes: constructors, defaults, immutability of
GradedSpace, equality where it is compared, and the checks run on
construction."""

from fractions import Fraction

import pytest

from codiff import cochain
from codiff.algfile import AlgebraFile
from codiff.cochain import Cochain, ScalarCochain, canonical_tuples
from codiff.fields import QQ, PrimeField
from codiff.graded import EXTERIOR, TENSOR, GradedSpace
from codiff.homology import CohomologyReport, DegreeRow, DeformationClass
from codiff.oracle import SYMMETRIC, WCochain
from codiff.structures import (A_INFINITY, DEFAULT_MAX_ARITY, L_INFINITY,
                               InfinityStructure, StructureError,
                               ValidationReport)
from conftest import Restriction, Word

F = Fraction


def space():
    return GradedSpace(("a", "b"), (0, 1))


def product(sp):
    # the multiplication a*a = a, a*b = b on the tensor side
    return Cochain(sp, TENSOR, 2, 0, {(0, 0): {0: F(1)}, (0, 1): {1: F(1)}})


class TestGradedSpace:
    def test_fields_cannot_be_assigned(self):
        sp = space()
        for name, value in (("names", ("x", "y")), ("parities", (0, 0)),
                            ("field", PrimeField(5)), ("extra", 1)):
            with pytest.raises(AttributeError):
                setattr(sp, name, value)
        with pytest.raises(AttributeError):
            del sp.names
        assert (sp.names, sp.parities) == (("a", "b"), (0, 1))

    def test_equal_spaces_hash_equal(self):
        a, b = space(), space()
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != GradedSpace(("a", "b"), (0, 0))
        assert a != GradedSpace(("a", "c"), (0, 1))
        assert a != GradedSpace(("a", "b"), (0, 1), PrimeField(5))
        assert a != ("a", "b")

    def test_equal_spaces_share_canonical_tuples(self):
        """The tuples are cached on (dim, parities, flavor, degree): equal
        spaces, and spaces that differ only in names or field, share one
        tuple object, each lookup a cache hit."""
        a, b = GradedSpace(("p", "q", "r"), (0, 1, 1)), \
            GradedSpace(("p", "q", "r"), (0, 1, 1))
        renamed = GradedSpace(("x", "y", "z"), (0, 1, 1))
        other_field = GradedSpace(("p", "q", "r"), (0, 1, 1), PrimeField(5))
        cache = cochain._canonical_tuples.cache_info
        for flavor in (TENSOR, EXTERIOR):
            first = canonical_tuples(a, flavor, 3)
            hits = cache().hits
            for space in (b, renamed, other_field):
                assert canonical_tuples(space, flavor, 3) is first
            assert cache().hits == hits + 3
        assert canonical_tuples(GradedSpace(("p", "q", "r"), (0, 0, 1)),
                                EXTERIOR, 3) != first

    @pytest.mark.parametrize("args,message", [
        (((), ()), "a graded space needs dimension >= 1"),
        ((("a", "a"), (0, 0)), "duplicate basis names"),
        ((("a", "b"), (0,)), "one parity per basis element required"),
        ((("a",), (2,)), "parities must be 0 or 1"),
        ((("a",), (0,), "Q"), "unsupported field"),
    ])
    def test_bad_arguments(self, args, message):
        with pytest.raises(ValueError, match="^%s$" % message):
            GradedSpace(*args)


class TestFreshCoefficientDicts:
    def test_cochains_built_without_coeffs_do_not_share(self):
        a = Cochain(space(), TENSOR, 2, 0)
        b = Cochain(space(), TENSOR, 2, 0)
        assert a.coeffs == {} and a.coeffs is not b.coeffs
        a.coeffs[(0, 0)] = {0: F(1)}
        assert b.coeffs == {}

    def test_scalar_cochains_built_without_coeffs_do_not_share(self):
        a = ScalarCochain(space(), TENSOR, 2, 0)
        b = ScalarCochain(space(), TENSOR, 2, 0)
        assert a.coeffs == {} and a.coeffs is not b.coeffs
        a.coeffs[(0, 0)] = F(1)
        assert b.coeffs == {}

    def test_other_defaults_are_fresh(self):
        sp = space()
        pairs = [
            (InfinityStructure(A_INFINITY, sp),
             InfinityStructure(A_INFINITY, sp), "parts"),
            (ValidationReport(True), ValidationReport(True), "residual"),
            (DegreeRow(0, 1, 0, 1), DegreeRow(0, 1, 0, 1), "representatives"),
            (AlgebraFile(sp, TENSOR), AlgebraFile(sp, TENSOR), "parts"),
            (AlgebraFile(sp, TENSOR), AlgebraFile(sp, TENSOR), "part_names"),
            (AlgebraFile(sp, TENSOR), AlgebraFile(sp, TENSOR), "deformations"),
        ]
        for x, y, name in pairs:
            assert getattr(x, name) is not getattr(y, name), name

    def test_given_coeffs_are_copied_clean(self):
        given = {(0, 0): {0: F(1)}, (1, 1): {1: F(0)}}
        c = Cochain(space(), TENSOR, 2, 0, given)
        assert c.coeffs == {(0, 0): {0: F(1)}} and c.coeffs is not given


class TestCochainEquality:
    def test_equal_fields_compare_equal(self):
        assert product(space()) == product(space())

    def test_any_field_differs(self):
        sp = space()
        c = product(sp)
        assert c != Cochain(sp, TENSOR, 2, 0, {(0, 0): {0: F(2)}})
        assert c != Cochain(sp, TENSOR, 2, 0)
        assert c != Cochain(GradedSpace(("a", "b"), (0, 1), PrimeField(5)),
                            TENSOR, 2, 0,
                            {(0, 0): {0: 1}, (0, 1): {1: 1}})
        assert Cochain(sp, TENSOR, 2, 0) != Cochain(sp, TENSOR, 2, 1)
        assert Cochain(sp, TENSOR, 2, 0) != Cochain(sp, TENSOR, 3, 0)
        assert Cochain(sp, TENSOR, 1, 0) != Cochain(sp, EXTERIOR, 1, 0)
        assert c != "not a cochain"

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(product(space()))

    def test_algebra_files_compare_their_parts(self):
        sp = space()
        a = AlgebraFile(sp, TENSOR, {2: product(sp)}, {2: "m"})
        assert a == AlgebraFile(space(), TENSOR, {2: product(space())},
                                {2: "m"})
        assert a != AlgebraFile(sp, TENSOR, {2: product(sp)}, {2: "n"})


class TestConstructorChecks:
    @pytest.mark.parametrize("make,error,message", [
        (lambda sp: Cochain(sp, "free", 1, 0), ValueError,
         "unknown flavor 'free'"),
        (lambda sp: Cochain(sp, SYMMETRIC, 1, 0), ValueError,
         "unknown flavor 'symmetric'"),
        (lambda sp: Cochain(sp, TENSOR, -1, 0), ValueError,
         "cochain degree must be >= 0"),
        (lambda sp: Cochain(sp, TENSOR, 1, 2), ValueError,
         "parity must be 0 or 1"),
        (lambda sp: Cochain(sp, TENSOR, 2, 0, {(0,): {0: 1}}), ValueError,
         r"tuple \(0,\) has wrong arity \(expected 2\)"),
        (lambda sp: Cochain(sp, EXTERIOR, 2, 1, {(1, 0): {1: 1}}), ValueError,
         r"non-canonical tuple \(1, 0\)"),
        (lambda sp: Cochain(sp, TENSOR, 1, 0, {(0,): {1: 1}}), ValueError,
         r"entry \(0,\) -> b breaks parity homogeneity"),
        (lambda sp: ScalarCochain(sp, SYMMETRIC, 1, 0), ValueError,
         "scalar cochains are tensor or exterior flavored"),
        (lambda sp: ScalarCochain(sp, TENSOR, 0, 0), ValueError,
         "scalar cochains take at least one argument"),
        (lambda sp: ScalarCochain(sp, TENSOR, 1, 0, {(1,): 1}), ValueError,
         r"tuple \(1,\) breaks parity homogeneity"),
        (lambda sp: Word(sp, "free", (0,)), ValueError,
         "unknown flavor 'free'"),
        (lambda sp: Word(sp, TENSOR, ()), ValueError,
         "words have degree >= 1"),
        (lambda sp: WCochain(sp, EXTERIOR, 1, 0), ValueError,
         "exterior coderivations need the bidegree grading"),
        (lambda sp: WCochain(sp, SYMMETRIC, 2, 0, {(1, 0): {0: 1}}),
         ValueError, r"non-canonical word \(1, 0\)"),
        (lambda sp: InfinityStructure("other", sp), StructureError,
         "flavor must be tensor or exterior"),
        (lambda sp: InfinityStructure(A_INFINITY, sp, {3: product(sp)}),
         StructureError, "part filed under arity 3 has degree 2"),
        (lambda sp: InfinityStructure(A_INFINITY, sp, {2: product(sp)}, 1),
         StructureError, "arity 2 beyond the max_arity cap 1"),
        (lambda sp: InfinityStructure(L_INFINITY, sp, {2: product(sp)}),
         StructureError, "exterior structures need exterior-flavored parts"),
        (lambda sp: InfinityStructure(A_INFINITY, GradedSpace(("x",), (0,)),
                                      {2: product(sp)}),
         StructureError, "part lives on a different space"),
    ])
    def test_same_error(self, make, error, message):
        with pytest.raises(error, match="^%s$" % message):
            make(space())

    def test_word_is_stored_canonically(self):
        sp = space()
        w = Word(sp, EXTERIOR, (1, 0), F(3))
        assert (w.letters, w.coefficient) == ((0, 1), F(-3))
        dead = Word(sp, EXTERIOR, (0, 0), F(3))
        assert (dead.letters, dead.coefficient, dead.is_zero()) == \
            ((0, 0), 0, True)

    def test_structure_drops_zero_parts(self):
        sp = space()
        s = InfinityStructure(A_INFINITY, sp, {1: Cochain(sp, TENSOR, 1, 1),
                                               2: product(sp)})
        assert list(s.parts) == [2]


def _constructions(sp):
    """(class, positional arguments, parameter names) for every record."""
    m = product(sp)
    return [
        (GradedSpace, (("a", "b"), (0, 1), PrimeField(7)),
         ("names", "parities", "field")),
        (Word, (sp, TENSOR, (0, 1), F(2)),
         ("space", "flavor", "letters", "coefficient")),
        (Cochain, (sp, TENSOR, 2, 0, {(0, 0): {0: F(1)}}),
         ("space", "flavor", "degree", "parity", "coeffs")),
        (ScalarCochain, (sp, TENSOR, 2, 0, {(0, 0): F(1)}),
         ("space", "flavor", "arity", "parity", "coeffs")),
        (WCochain, (sp, SYMMETRIC, 2, 0, {(0, 0): {0: F(1)}}),
         ("space", "flavor", "degree", "parity", "coeffs")),
        (Restriction, (2, 1, {}), ("k", "l", "matrix")),
        (InfinityStructure, (A_INFINITY, sp, {2: m}, 4),
         ("flavor", "space", "parts", "max_arity")),
        (ValidationReport, (False, 3, ("a",), {0: F(1)}),
         ("ok", "n", "letters", "residual")),
        (DegreeRow, (2, 3, 1, 2, [m]),
         ("degree", "cocycles", "coboundaries", "quotient",
          "representatives")),
        (CohomologyReport, ((0, 3), [], True, "a note"),
         ("window", "rows", "graded_exact", "note")),
        (DeformationClass, (True, False, None, "a note"),
         ("cocycle", "coboundary", "preserves_ip", "note")),
        (AlgebraFile, (sp, TENSOR, {2: m}, {2: "m"}, None, {}),
         ("space", "flavor", "parts", "part_names", "inner_product",
          "deformations")),
    ]


CONSTRUCTIONS = _constructions(space())


@pytest.mark.parametrize("cls,args,names", CONSTRUCTIONS,
                         ids=[c[0].__name__ for c in CONSTRUCTIONS])
def test_positional_and_keyword_calls_agree(cls, args, names):
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(names, args)))
    for name in names:
        assert getattr(by_position, name) == getattr(by_keyword, name), name


def test_defaults():
    sp = space()
    assert Word(sp, TENSOR, (0,)).coefficient == 1
    assert GradedSpace(("a",), (0,)).field == QQ
    s = InfinityStructure(L_INFINITY, sp)
    assert (s.parts, s.max_arity) == ({}, DEFAULT_MAX_ARITY)
    r = ValidationReport(True)
    assert (r.n, r.letters, r.residual) == (0, (), {})
    assert DegreeRow(0, 1, 0, 1).representatives == []
    assert CohomologyReport((0, 1), [], False).note == ""
    d = DeformationClass(True, None)
    assert (d.preserves_ip, d.note) == (None, "")
    af = AlgebraFile(sp, TENSOR)
    assert (af.parts, af.part_names, af.inner_product, af.deformations) == \
        ({}, {}, None, {})
