import os
from fractions import Fraction

import pytest

from codiff.algfile import (E_ARITY, E_DIRECTIVE, E_DUPLICATE, E_FIELD,
                            E_FLAVOR, E_NAME, E_PARITY, E_SCALAR, E_SPACE,
                            E_STRUCTURE, ParseError, parse, serialize)
from codiff.fields import PrimeField

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def read_fixture(name):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
        return fh.read()


def all_fixture_names():
    return sorted(n for n in os.listdir(FIXTURES)
                  if n.endswith(".alg") and not n.startswith("bad"))


@pytest.mark.parametrize("name", all_fixture_names())
def test_round_trip(name):
    af = parse(read_fixture(name))
    text = serialize(af)
    again = parse(text)
    assert again == af
    assert serialize(again) == text


def test_round_trip_of_unusual_names():
    # names the value syntax still reads: numeric, primed, a fraction, '='
    af = parse("field Q\nflavor tensor\nspace\n  basis 1 even\n"
               "  basis x' even\n  basis 1/2 odd\n  basis a=b odd\n"
               "map m 2\n  m(1,1) = 1\n  m(1,x') = 2*x'\n"
               "  m(x',1/2) = -1/2*1/2 + 3*a=b\n  m(1/2,a=b) = -1\n")
    assert af.parts[2].coeffs[(1, 2)] == {2: Fraction(-1, 2), 3: 3}
    text = serialize(af)
    again = parse(text)
    assert again == af
    assert serialize(again) == text


def test_dual_numbers_content():
    af = parse(read_fixture("dual_numbers.alg"))
    assert af.space.dim == 2
    assert af.flavor == "tensor"
    assert list(af.parts) == [2]
    assert af.inner_product is not None
    assert list(af.deformations) == ["lam"]


def test_empty_structure_is_valid():
    af = parse("field Q\nflavor tensor\nspace\n  basis a even\n")
    assert af.parts == {}
    assert af.inner_product is None


def test_prime_field_file():
    af = parse("field F 7\nflavor exterior\nspace\n  basis a even\n"
               "  basis b even\nmap l 2\n  l(a,b) = 3*a\n")
    assert af.space.field == PrimeField(7)
    assert af.parts[2].coeffs[(0, 1)][0] == 3


def test_value_grammar():
    af = parse("field Q\nflavor tensor\nspace\n  basis a even\n"
               "  basis b even\nmap m 1\n  m(a) = 1/2*a - 3*b\n"
               "  m(b) = 2 a + b\n")
    m = af.parts[1]
    from fractions import Fraction as F
    assert m.coeffs[(0,)] == {0: F(1, 2), 1: F(-3)}
    assert m.coeffs[(1,)] == {0: F(2), 1: F(1)}


def test_explicit_zero_value():
    af = parse("field Q\nflavor tensor\nspace\n  basis a even\n"
               "map m 1\n  m(a) = 0\n")
    assert af.parts[1].is_zero()


ONE_EVEN = "field Q\nflavor tensor\nspace\n  basis a even\n"

# (text, code, line of the error)
DIAGNOSTICS = [
    ("field Q\nflavor tensor\nspace\n  basis a even\nmap m 2\n  m(a,y) = a\n",
     E_NAME, 6),
    ("field F 6\nflavor tensor\nspace\n  basis a even\n", E_FIELD, 1),
    ("field Q\nflavor symmetric\nspace\n  basis a even\n", E_FLAVOR, 2),
    ("field Q\nflavor sideways\nspace\n  basis a even\n", E_FLAVOR, 2),
    ("field Q\nflavor tensor\nspace\n  basis a even\n"
     "map m 2\n  m(a,a) = a\n  m(a,a) = a\n", E_DUPLICATE, 7),
    ("field Q\nflavor tensor\nspace\n  basis a even\n  basis a odd\n",
     E_DUPLICATE, 5),
    ("field Q\nflavor tensor\nspace\n  basis a even\n  basis o odd\n"
     "map m 2\n  m(a,a) = a\n  m(a,o) = a\n", E_PARITY, 6),
    ("field Q\nflavor tensor\nspace\n  basis a even\nbogus directive\n",
     E_DIRECTIVE, 5),
    ("field Q\nflavor tensor\nspace\n  basis a even\nmap m 2\n  m(a) = a\n",
     E_ARITY, 6),
    ("field Q\nflavor tensor\nspace\n  basis a even\nmap m 0\n", E_ARITY, 5),
    ("field Q\nflavor tensor\nspace\n  basis a even\nmap m 1\n  m(a) = 1q#\n",
     E_NAME, 6),
    ("field Q\nflavor tensor\nmap m 1\n", E_STRUCTURE, 3),
    ("flavor tensor\nspace\n  basis a even\n", E_STRUCTURE, 2),
    ("field Q\nspace\n  basis a even\nmap m 1\n  m(a) = a\nflavor tensor\n",
     E_STRUCTURE, 4),
    ("field Q\nflavor tensor\nspace\n  basis a even\n"
     "deformation lam 2 odd_parameter\n  lam(a,a) = a\n", E_PARITY, 5),
    ("field Q\nflavor exterior\nspace\n  basis e even\n  basis f even\n"
     "map l 2\n  l(e,e) = f\n", E_ARITY, 7),
    ("field Q\nflavor exterior\nspace\n  basis e even\n  basis f even\n"
     "  basis h even\ndeformation lam 2 even_parameter\n  lam(e,h) = e\n"
     "  lam(f,e) = h\n", E_ARITY, 9),
    ("field Q\nflavor tensor\nspace\nmap m 1\n", E_SPACE, 4),
    ("flavor tensor\n", E_STRUCTURE, 0),
    ("field Q\nspace\n  basis a even\n", E_STRUCTURE, 0),
    ("field Q\nfield Q\n", E_DUPLICATE, 2),
    ("field R\n", E_FIELD, 1),
    ("field Q\nflavor tensor\nflavor tensor\n", E_DUPLICATE, 3),
    ("field Q\nflavor tensor\nbasis a even\n", E_DIRECTIVE, 3),
    ("field Q\nflavor tensor\nspace\n  basis a\n", E_SPACE, 4),
    # names the value syntax cannot read back
    (ONE_EVEN + "  basis a*b even\n", E_SPACE, 5),
    (ONE_EVEN + "  basis x-y even\n", E_SPACE, 5),
    (ONE_EVEN + "  basis x+y odd\n", E_SPACE, 5),
    (ONE_EVEN + "  basis 0 even\n", E_SPACE, 5),
    (ONE_EVEN + "  basis a,b even\n", E_SPACE, 5),
    (ONE_EVEN + "  basis a) even\n", E_SPACE, 5),
    (ONE_EVEN + "  basis <a even\n", E_SPACE, 5),
    (ONE_EVEN + "  basis a> even\n", E_SPACE, 5),
    (ONE_EVEN + "space\n", E_DUPLICATE, 5),
    (ONE_EVEN + "map m\n", E_DIRECTIVE, 5),
    (ONE_EVEN + "map m two\n", E_ARITY, 5),
    (ONE_EVEN + "map m 1\nmap n 1\n", E_DUPLICATE, 6),
    (ONE_EVEN + "map m 1\n  m a = a\n", E_DIRECTIVE, 6),
    (ONE_EVEN + "map m 1\n  n(a) = a\n", E_DIRECTIVE, 6),
    (ONE_EVEN + "map m 1\n  m(a) = 2 3 a\n", E_SCALAR, 6),
    (ONE_EVEN + "map m 1\n  m(a) = 2*\n", E_SCALAR, 6),
    (ONE_EVEN + "map m 1\n  m(a) = -\n", E_SCALAR, 6),
    # a value cut short after an operator
    (ONE_EVEN + "map m 1\n  m(a) = a -\n", E_SCALAR, 6),
    (ONE_EVEN + "map m 1\n  m(a) = a +\n", E_SCALAR, 6),
    (ONE_EVEN + "map m 1\n  m(a) = 2*a + 3*a -\n", E_SCALAR, 6),
    (ONE_EVEN + "map m 1\n  m(a) = * a\n", E_SCALAR, 6),
    (ONE_EVEN + "inner_product\n  <a,a> = 1\ninner_product\n",
     E_DUPLICATE, 7),
    (ONE_EVEN + "inner_product\n  a a 1\n", E_DIRECTIVE, 6),
    (ONE_EVEN + "inner_product\n  <a,z> = 1\n", E_NAME, 6),
    (ONE_EVEN + "inner_product\n  <a,a> = 1\n  <a,a> = 1\n", E_DUPLICATE, 7),
    (ONE_EVEN + "inner_product\n  <a,a> = x\n", E_SCALAR, 6),
    (ONE_EVEN + "deformation lam 2\n", E_DIRECTIVE, 5),
    (ONE_EVEN + "deformation lam 1 even_parameter\n"
     "deformation lam 2 odd_parameter\n", E_PARITY, 6),
    (ONE_EVEN + "deformation lam 1 even_parameter\n"
     "deformation lam 1 even_parameter\n", E_DUPLICATE, 6),
]


@pytest.mark.parametrize("text,code,line", DIAGNOSTICS,
                         ids=["%s-%s" % case[:2] for case in DIAGNOSTICS])
def test_diagnostics(text, code, line):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.code, exc.value.line) == (code, line)


def test_symmetric_flavor_refusal_names_the_flavors():
    with pytest.raises(ParseError) as exc:
        parse("field Q\nflavor symmetric\nspace\n  basis a even\n")
    assert str(exc.value) == (
        "line 2: no symmetric flavor: the library computes on tensor and "
        "exterior structures only [E_FLAVOR]")


@pytest.mark.parametrize("value,term", [
    ("a -", ""), ("a +", ""), ("2*a + 3*a -", ""), ("a + + a", ""),
    ("* a", "* a"), ("a - *a", "*a"),
])
def test_truncated_value_names_the_term(value, term):
    with pytest.raises(ParseError) as exc:
        parse(ONE_EVEN + "map m 1\n  m(a) = %s\n" % value)
    assert str(exc.value) == "line 6: cannot read term %r [E_SCALAR]" % term


@pytest.mark.parametrize("value,coeff", [("-a", -1), ("--a", 1),
                                         ("+a", 1), ("2*a - a", 1)])
def test_leading_signs_are_read(value, coeff):
    af = parse(ONE_EVEN + "map m 1\n  m(a) = %s\n" % value)
    assert af.parts[1].coeffs == {(0,): {0: coeff}}


def test_exterior_assignment_names_its_letters():
    text = ("field Q\nflavor exterior\nspace\n  basis e even\n"
            "  basis f even\nmap l 2\n  l(f,e) = f\n")
    with pytest.raises(ParseError, match=r"\(f,e\)") as exc:
        parse(text)
    assert (exc.value.code, exc.value.line) == (E_ARITY, 7)


def test_diagnostic_carries_line_number():
    text = "field Q\nflavor tensor\nspace\n  basis a even\nmap m 2\n  m(a,z) = a\n"
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.line == 6


def test_comments_and_blank_lines():
    af = parse("# heading\n\nfield Q\n# comment\nflavor tensor\nspace\n"
               "  basis a even  # trailing\n")
    assert af.space.names == ("a",)


def test_one_sided_inner_product_fills_by_symmetry():
    af = parse("field Q\nflavor tensor\nspace\n  basis 1 even\n"
               "  basis x even\nmap m 2\n  m(1,1) = 1\n  m(1,x) = x\n"
               "  m(x,1) = x\ninner_product\n  <1,x> = 1\n")
    assert af.inner_product.matrix[0][1] == 1
    assert af.inner_product.matrix[1][0] == 1
    # odd-odd mirrors pick up the Koszul sign
    af = parse("field Q\nflavor tensor\nspace\n  basis p odd\n"
               "  basis q odd\ninner_product\n  <p,q> = 1\n")
    assert af.inner_product.matrix[1][0] == -1
    # explicitly contradictory entries still fail
    with pytest.raises(ParseError) as exc:
        parse("field Q\nflavor tensor\nspace\n  basis p odd\n  basis q odd\n"
              "inner_product\n  <p,q> = 1\n  <q,p> = 1\n")
    assert exc.value.code == E_STRUCTURE


def test_deformation_parameter_consistency():
    # an even direction of arity 2 needs an even parameter
    good = parse("field Q\nflavor exterior\nspace\n  basis a even\n"
                 "  basis b even\ndeformation lam 2 even_parameter\n"
                 "  lam(a,b) = a\n")
    assert good.deformations["lam"][0] == 0
    with pytest.raises(ParseError) as exc:
        parse("field Q\nflavor exterior\nspace\n  basis a even\n"
              "  basis b even\ndeformation lam 2 odd_parameter\n"
              "  lam(a,b) = a\n")
    assert exc.value.code == E_PARITY


@pytest.mark.parametrize("entries,message", [
    ("  <a,b> = 1\n  <b,a> = 2\n", "graded symmetric"),
    ("  <a,a> = 1\n", "degenerate"),
])
def test_inner_product_errors_carry_the_header_line(entries, message):
    text = ("field Q\nflavor tensor\nspace\n  basis a even\n  basis b even\n"
            "map m 2\n  m(a,a) = a\n\ninner_product\n" + entries)
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.code == E_STRUCTURE
    assert exc.value.line == 9
    assert message in str(exc.value)


def test_missing_declarations_keep_line_zero():
    with pytest.raises(ParseError) as exc:
        parse("field Q\nflavor tensor\n")
    assert (exc.value.code, exc.value.line) == (E_STRUCTURE, 0)


@pytest.mark.parametrize("field,value,message", [
    ("Q", "1/0", "bad rational scalar '1/0'"),
    ("Q", "-2", "scalar '2' without a basis name"),
    ("F 5", "1/0", "bad scalar '1/0'"),
    ("F 5", "1/5", "scalar '1/5' divides by zero in F_5"),
    ("F 5", "2/5 a", "scalar '2/5' divides by zero in F_5"),
])
def test_scalar_looking_terms_report_e_scalar(field, value, message):
    text = ("field %s\nflavor tensor\nspace\n  basis a even\nmap m 2\n"
            "  m(a,a) = %s\n" % (field, value))
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.code, exc.value.line) == (E_SCALAR, 6)
    assert message in str(exc.value)
