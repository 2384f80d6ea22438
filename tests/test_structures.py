import importlib.util
import itertools
import os
import random
import re
from fractions import Fraction
from math import lcm

import pytest

import codiff.structures
from codiff import GradedSpace
from codiff.algfile import ParseError, parse
from codiff.cli import build_structure
from codiff.cochain import add, scale, zero_cochain
from codiff.coderivation import (CONVENTIONS, V_OF_W, bracket_signs,
                                 family_bracket, family_is_zero, sigma)
from codiff.graded import EXTERIOR, TENSOR
from codiff.homology import (InvarianceError, classify_deformation,
                             deform_check)
from codiff.structures import (A_INFINITY, DEFAULT_MAX_ARITY,
                               InfinityStructure, StructureError,
                               relation_sign, structure_residual, validate)
from codiff.oracle import (bracket_signs_reference, relation_sign_reference,
                           residual_reference)
from conftest import (bracket, make_cochain, random_cochain, reversed_side_ok,
                      structure_in)

F = Fraction
HERE = os.path.dirname(__file__)
FIXTURE_DIR = os.path.join(HERE, "fixtures")
BENCH_INPUTS = os.path.join(HERE, os.pardir, "bench", "inputs")


class TestValidate:
    def test_dual_numbers_ok(self, dual_numbers):
        assert validate(dual_numbers[0]).ok

    def test_truncated_poly_and_triangular_ok(self, truncated_poly, triangular):
        assert validate(truncated_poly).ok
        assert validate(triangular).ok

    def test_nonassociative_first_failure(self, nonassociative):
        report = validate(nonassociative)
        assert not report.ok
        assert report.n == 3
        assert report.letters == ("a", "a", "a")
        assert report.residual == {0: F(1)}  # the associator is a

    def test_sl2_jacobi(self, sl2):
        assert validate(sl2[0]).ok

    def test_sl2_jacobi_brute_force(self, sl2):
        # independent check of the fixture itself
        s, _ = sl2
        l2 = s.parts[2]

        def br(x, y):
            return l2.value((x, y))

        def br_vec(u, v):
            acc = {}
            for i, a in u.items():
                for j, b in v.items():
                    for k, c in br(i, j).items():
                        acc[k] = acc.get(k, F(0)) + a * b * c
            return {k: v2 for k, v2 in acc.items() if v2}

        for x, y, z in itertools.product(range(3), repeat=3):
            acc = {}
            for term in (br_vec(br(x, y), {z: F(1)}),
                         br_vec(br(y, z), {x: F(1)}),
                         br_vec(br(z, x), {y: F(1)})):
                for k, c in term.items():
                    acc[k] = acc.get(k, F(0)) + c
            assert all(not c for c in acc.values())

    def test_parity_violation_raises_before_relations(self):
        # an odd arity-2 part can never assemble to an odd codifferential
        space = GradedSpace(("e", "o"), (0, 1))
        m2 = make_cochain(space, TENSOR, 2, 1, {("e", "e"): {"o": 1}})
        with pytest.raises(StructureError):
            validate(InfinityStructure(A_INFINITY, space, {2: m2}))

    def test_empty_structure_ok(self, abelian2):
        assert validate(abelian2[0]).ok

    def test_relation_range(self, koszul_dga):
        # with support up to N, relations beyond 2N-1 vanish identically
        top = koszul_dga.top_arity
        for n in range(2 * top, 2 * top + 3):
            assert structure_residual(koszul_dga, n).is_zero()


class TestValidateDga:
    def test_zero_differential_reduces_to_associativity(self, dual_numbers):
        s, _ = dual_numbers
        d = zero_cochain(s.space, TENSOR, 1, 1)
        assert validate(InfinityStructure(A_INFINITY, s.space,
                                          {1: d, 2: s.parts[2]})).ok

    def test_koszul_dga_ok(self, koszul_dga):
        assert validate(koszul_dga).ok

    def test_leibniz_violation_fails_at_two(self, leibniz_violation):
        report = validate(leibniz_violation)
        assert not report.ok and report.n == 2

    def test_theta_algebra_with_zero_differential(self, theta_algebra):
        d = zero_cochain(theta_algebra.space, TENSOR, 1, 1)
        assert validate(InfinityStructure(A_INFINITY, theta_algebra.space,
                                          {1: d, 2: theta_algebra.parts[2]})).ok


class TestThreeRoutes:
    def routes(self, s):
        direct = validate(s).ok
        sq = family_bracket(s.parts, s.parts)
        rev = reversed_side_ok(s)
        return direct, family_is_zero(sq), rev

    def test_fixtures(self, dual_numbers, sl2, koszul_dga, nonassociative,
                      leibniz_violation, truncated_poly, triangular):
        for s in (dual_numbers[0], sl2[0], koszul_dga, nonassociative,
                  leibniz_violation, truncated_poly, triangular):
            a, b, c = self.routes(s)
            assert a == b == c

    def test_random_near_structures(self, rng, dual_numbers, sl2, koszul_dga):
        bases = [dual_numbers[0], sl2[0], koszul_dga]
        failing = 0
        guard = 0
        while failing < 30 and guard < 300:
            guard += 1
            base = bases[guard % len(bases)]
            pert_arity = rng.choice(sorted(base.parts) + [3])
            pert = random_cochain(base.space, base.flavor, pert_arity,
                                  pert_arity & 1, rng, density=0.4)
            if pert.is_zero():
                continue
            parts = dict(base.parts)
            parts[pert_arity] = add(parts[pert_arity], pert) \
                if pert_arity in parts else pert
            s = InfinityStructure(base.flavor, base.space, parts)
            a, b, c = self.routes(s)
            assert a == b == c
            if not a:
                failing += 1
        assert failing >= 30


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_self_bracket_coefficient_is_twice_the_relation_sign(convention):
    # m_a ∘ m_b enters {m, m} from {m_a, m_b} and from {m_b, m_a}; with
    # |m_k| = k mod 2 its coefficient is 2 S(a, b), so away from
    # characteristic 2 {m, m} = 0 is exactly the relations validate checks.
    # The core's w_of_v signs times σ_{a+b-1} σ_a σ_b are the reference
    # signs of the convention, for any parities: C(a+b-1,2) - C(a,2) -
    # C(b,2) = (a-1)(b-1)
    for a in range(1, 9):
        for b in range(1, 9):
            first = bracket_signs_reference(a, a & 1, b, b & 1, convention)[0]
            second = bracket_signs_reference(b, b & 1, a, a & 1,
                                             convention)[1]
            assert first + second == \
                2 * relation_sign_reference(a, b, convention)
            twist = sigma(a + b - 1) * sigma(a) * sigma(b) \
                if convention == V_OF_W else 1
            assert relation_sign(a, b) * twist == \
                relation_sign_reference(a, b, convention)
            for pa in (0, 1):
                for pb in (0, 1):
                    assert tuple(twist * x for x in bracket_signs(
                        a, pa, b, pb)) == bracket_signs_reference(
                            a, pa, b, pb, convention)


ALG_FILES = [os.path.join(d, f) for d in (FIXTURE_DIR, BENCH_INPUTS)
             for f in sorted(os.listdir(d))
             if f.endswith(".alg") and f != "bad_name.alg"]


def test_validate_needs_no_bracket(monkeypatch, dual_numbers, sl2,
                                   koszul_dga, nonassociative,
                                   leibniz_violation, truncated_poly,
                                   triangular, abelian2):
    def refuse(*args, **kwargs):
        raise AssertionError("validate reached family_bracket")
    monkeypatch.setattr(codiff.structures, "family_bracket", refuse)
    for s in (dual_numbers[0], sl2[0], koszul_dga, truncated_poly,
              triangular, abelian2[0]):
        assert validate(s).ok
    bad = validate(nonassociative)
    assert (bad.n, bad.letters, bad.residual) == (3, ("a", "a", "a"),
                                                  {0: F(1)})
    assert validate(leibniz_violation).n == 2
    for path in ALG_FILES:
        with open(path, encoding="utf-8") as fh:
            af = parse(fh.read())
        s = InfinityStructure(af.flavor, af.space, af.parts)
        assert validate(s).ok == (os.path.basename(path)
                                  != "nonassociative.alg"), path


class TestDeformations:
    def test_parity_constraint_enforced(self, sl2, rng):
        s, _ = sl2
        lam2 = random_cochain(s.space, s.flavor, 2, 0, rng, density=1.0)
        lam3 = random_cochain(s.space, s.flavor, 3, 0, rng, density=1.0)
        # arities 2 and 3 with equal parities cannot share one parameter
        with pytest.raises(StructureError):
            deform_check(s, {2: lam2, 3: lam3})

    def test_structure_brackets_itself(self, sl2):
        s, _ = sl2
        assert deform_check(s, {2: s.parts[2]})

    def test_abelian_all_directions_closed(self, abelian2, rng):
        s, _ = abelian2
        lam = random_cochain(s.space, EXTERIOR, 2, 0, rng)
        assert deform_check(s, {2: lam})

    def test_coboundaries_are_cocycles(self, sl2, rng):
        from codiff.homology import coboundary
        s, _ = sl2
        for trial in range(10):
            beta = random_cochain(s.space, s.flavor, rng.randint(1, 2), 0, rng)
            lam = coboundary(beta, s)
            if not lam:
                continue
            assert deform_check(s, lam)


class TestPureAritySupport:
    def test_plain_bracket_agrees_for_single_parity_arities(
            self, dual_numbers, sl2, nonassociative, rng):
        # when every part sits in even arities only (or odd only), the plain
        # bidegree-graded self-bracket on the V side detects validity too
        def plain_square_is_zero(parts):
            # [m, m]_n = sum over k + l = n + 1 of [m_k, m_l]
            square = {}
            for k, a in parts.items():
                for l, b in parts.items():
                    n, term = k + l - 1, bracket(a, b)
                    square[n] = add(square[n], term) if n in square else term
            return all(c.is_zero() for c in square.values())

        for s in (dual_numbers[0], sl2[0], nonassociative):
            ok = validate(s).ok
            assert plain_square_is_zero(s.parts) == ok
        # and for a perturbed even-arity family
        base = sl2[0]
        pert = random_cochain(base.space, base.flavor, 2, 0, rng, density=0.5)
        parts = {2: add(base.parts[2], pert)}
        s = InfinityStructure(base.flavor, base.space, parts)
        assert plain_square_is_zero(parts) == validate(s).ok


def assert_residuals_are_the_reference(parts, s, convention):
    """σ_n times each relation residual of the core structure s is the
    reference residual of the family ``parts`` it was built from, in the
    convention (σ_n = 1 for w_of_v).  Returns the number of nonzero
    residuals."""
    nonzero = 0
    for n in range(1, 2 * max(parts, default=0)):
        want = residual_reference(parts, n, convention)
        got = structure_residual(s, n)
        if convention == V_OF_W:
            got = scale(sigma(n), got)
        assert got.coeffs == ({} if want is None else want.coeffs), n
        nonzero += not got.is_zero()
    return nonzero


class TestConventions:
    def test_same_acceptance_on_fixtures(self, dual_numbers, sl2, koszul_dga,
                                         nonassociative, leibniz_violation):
        for s in (dual_numbers[0], sl2[0], koszul_dga, nonassociative,
                  leibniz_violation):
            other = structure_in(s.flavor, s.space, s.parts, V_OF_W)
            assert validate(other).ok == validate(s).ok

    @pytest.mark.parametrize("convention", CONVENTIONS)
    def test_residuals_of_random_families(self, convention, rng):
        """σ of the core residual of σm is the reference residual of m, on
        random odd families (tensor and exterior, arities 1-3, both
        parities of letter)."""
        spaces = [GradedSpace(("a", "b"), (0, 1)),
                  GradedSpace(("a", "b"), (1, 1))]
        residuals = nonzero = 0
        for trial in range(250):
            space = rng.choice(spaces)
            flavor = rng.choice((TENSOR, EXTERIOR))
            arities = rng.sample((1, 2, 3), rng.randint(1, 3))
            parts = {k: random_cochain(space, flavor, k, k & 1, rng)
                     for k in arities}
            s = structure_in(flavor, space, parts, convention)
            nonzero += assert_residuals_are_the_reference(parts, s,
                                                          convention)
            residuals += 2 * max(parts) - 1
        assert residuals >= 750 and nonzero >= 150

    def test_max_arity_cap(self, sl2):
        s, _ = sl2
        with pytest.raises(StructureError):
            InfinityStructure(s.flavor, s.space, s.parts, max_arity=1)

    def test_flavor_kind_consistency(self, sl2):
        s, _ = sl2
        with pytest.raises(StructureError):
            InfinityStructure(A_INFINITY, s.space, s.parts)


def _sweep():
    path = os.path.join(HERE, os.pardir, "scripts", "output_sweep.py")
    spec = importlib.util.spec_from_file_location("output_sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SWEEP = _sweep()
LIFT_FIELDS = ("Q", "F 32003", "F 2", "F 3")


def lift_texts():
    """(id, text over Q) of every input file, the output sweep's inline
    inputs, and the sweep's rescaled copy of each, whose entries have
    denominators."""
    texts = []
    for path in ALG_FILES:
        with open(path, encoding="utf-8") as fh:
            texts.append((os.path.basename(path), fh.read()))
    texts += list(SWEEP.INLINE)
    return texts + [("rescaled-" + name, SWEEP.rescaled(text))
                    for name, text in texts]


LIFT_TEXTS = lift_texts()


def field_route_report(s):
    """(ok, n, letters, residual) of the relations evaluated on the field
    scalars of s.parts."""
    for n in range(1, 2 * s.top_arity):
        res = structure_residual(s, n).coeffs
        if res:
            t = min(res)
            return False, n, tuple(s.space.names[i] for i in t), res[t]
    return True, 0, (), {}


@pytest.mark.parametrize("convention", CONVENTIONS)
@pytest.mark.parametrize("field", LIFT_FIELDS)
@pytest.mark.parametrize("name,text", LIFT_TEXTS,
                         ids=[name for name, _ in LIFT_TEXTS])
def test_the_integer_lift_answers_as_the_field_scalars(name, text, field,
                                                       convention):
    """Validation and the cocycle test of a direction run on the
    structure's integer lift; they give the answers of the field-scalar
    routes, ``structure_residual`` on s.parts and ``deform_check``.  The
    lift is N·m over Q, with N the lcm of every denominator, and m itself
    mod p over F_p.  The directions are the file's, each part of the
    structure and a random one."""
    try:
        af = parse(re.sub(r"^field Q$", "field " + field, text, flags=re.M))
    except ParseError:
        return
    s = build_structure(af, convention, DEFAULT_MAX_ARITY)
    lift, f = s.lift, s.space.field
    assert (lift.flavor, lift.space, lift.max_arity) == \
        (s.flavor, s.space, s.max_arity)
    assert sorted(lift.parts) == sorted(s.parts)
    n = lcm(*[x.denominator for c in s.parts.values()
              for vec in c.coeffs.values() for x in vec.values()]) \
        if not f.characteristic else 1
    if name.startswith("rescaled-") and field == "Q" and s.parts:
        assert n > 1
    for k, c in s.parts.items():
        ints = lift.parts[k].coeffs
        assert all(x.__class__ is int for vec in ints.values()
                   for x in vec.values())
        assert {t: {b: f(x) for b, x in vec.items()}
                for t, vec in ints.items()} == \
            {t: {b: n * x for b, x in vec.items()}
             for t, vec in c.coeffs.items()}
    try:
        report = validate(s)
    except StructureError:
        report = None
    if report is not None:
        assert (report.ok, report.n, report.letters, report.residual) == \
            field_route_report(s)
    assert_residuals_are_the_reference(af.parts, s, convention)
    rng = random.Random(name)
    directions = [parts for _, parts in af.deformations.values()]
    directions += [{k: c} for k, c in s.parts.items()]
    directions.append({2: random_cochain(s.space, s.flavor, 2, 0, rng)})
    for lam in directions:
        try:
            want = deform_check(s, lam)
        except StructureError:
            continue
        for ip in (None, af.inner_product)[:1 + bool(af.inner_product)]:
            try:
                got = classify_deformation(s, lam, ip)
            except InvarianceError:
                continue
            assert got.cocycle == want
