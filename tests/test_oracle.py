import itertools
from fractions import Fraction

from codiff import GradedSpace
from codiff.cochain import Cochain, canonical_tuples
from codiff.coderivation import (CONVENTIONS, V_OF_W, W_OF_V,
                                 convert_convention_parts)
from codiff.fields import QQ
from codiff.graded import EXTERIOR, TENSOR
from codiff.homology import deform_check
from codiff.structures import InfinityStructure
from codiff import oracle
from conftest import koszul_sign, make_cochain, random_cochain, random_family

F = Fraction


def test_oracle_report_invariant():
    import pytest
    oracle.OracleReport("x", True)
    oracle.OracleReport("x", False, ("loc", 1, 2))
    with pytest.raises(ValueError):
        oracle.OracleReport("x", True, ("loc", 1, 2))
    with pytest.raises(ValueError):
        oracle.OracleReport("x", False)


def test_compare_cochains_report(dual_numbers, rng):
    s, _ = dual_numbers
    a = random_cochain(s.space, TENSOR, 2, 0, rng, density=1.0)
    rep = oracle.compare_cochains("self", a, a)
    assert rep.agreement and rep.first_discrepancy is None
    from codiff.cochain import scale
    rep = oracle.compare_cochains("flip", a, scale(-1, a))
    assert not rep.agreement and rep.first_discrepancy is not None
    assert oracle.compare_cochains("flip", a, scale(-1, a), sign=-1).agreement


def test_reversed_space_flips_parities():
    space = GradedSpace(("a", "b"), (0, 1))
    other = oracle.reversed_space(space)
    assert other.parities == (1, 0)
    assert other.names == space.names and other.field == space.field
    assert oracle.reversed_space(other) == space


def test_closed_form_koszul_matches_decomposition():
    # the two epsilon implementations follow different routes and must agree
    for n in range(1, 6):
        for par in itertools.product((0, 1), repeat=n):
            for images in itertools.permutations(range(1, n + 1)):
                assert oracle.koszul_sign_closed_form(images, list(par)) == \
                    koszul_sign(images, par)


def test_dense_rank_small():
    a = [[F(1), F(2)], [F(2), F(4)]]
    assert oracle.dense_rank(a, QQ) == 1
    assert oracle.dense_rank([], QQ) == 0
    assert oracle.dense_rank([[F(0), F(0)]], QQ) == 0


def test_hochschild_of_zero_is_zero(dual_numbers):
    s, _ = dual_numbers
    z = Cochain(s.space, TENSOR, 2, 0, {})
    assert oracle.hochschild_coboundary(s.parts[2], z).is_zero()


def test_hochschild_identity_map(dual_numbers):
    # (d id)(a,b) = a.id(b) - id(ab) + id(a).b = ab for unital algebras;
    # for the dual numbers that is twice m minus m, i.e. m itself
    s, _ = dual_numbers
    m2 = s.parts[2]
    ident = make_cochain(s.space, TENSOR, 1, 0,
                         {("1",): {"1": 1}, ("x",): {"x": 1}})
    d = oracle.hochschild_coboundary(m2, ident)
    for t in itertools.product(range(2), repeat=2):
        assert d.coeffs.get(t, {}) == m2.coeffs.get(t, {})


def test_ce_oracle_on_abelian_is_zero(abelian2, rng):
    s, _ = abelian2
    zero_l2 = Cochain(s.space, EXTERIOR, 2, 0, {})
    phi = random_cochain(s.space, EXTERIOR, 2, 0, rng)
    assert oracle.chevalley_eilenberg_coboundary(zero_l2, phi).is_zero()


def test_ce_oracle_squares_to_zero(sl2, rng):
    s, _ = sl2
    l2 = s.parts[2]
    for trial in range(10):
        phi = random_cochain(s.space, EXTERIOR, rng.randint(0, 2), 0, rng)
        once = oracle.chevalley_eilenberg_coboundary(l2, phi)
        twice = oracle.chevalley_eilenberg_coboundary(l2, once)
        assert twice.is_zero()


def test_trivial_coefficient_dims_sl2(sl2):
    dims = oracle.lie_trivial_cohomology_dims(sl2[0].parts[2], 3)
    assert dims == {0: 1, 1: 0, 2: 0, 3: 1}


def test_first_order_zero_direction(dual_numbers):
    s, _ = dual_numbers
    assert oracle.first_order_residuals(s, {}, 0, W_OF_V) == {}


def test_first_order_agrees_with_deform_check(dual_numbers, sl2, koszul_dga,
                                              rng):
    checked = 0
    for s in (dual_numbers[0], sl2[0], koszul_dga):
        for trial in range(15):
            param = rng.randint(0, 1)
            lam = random_family(s, rng, param)
            if not lam:
                continue
            want = deform_check(s, lam)
            for conv in CONVENTIONS:
                # the family and the direction written in the convention:
                # σ of the core's for v_of_w
                flip = convert_convention_parts if conv == V_OF_W else dict
                written = InfinityStructure(s.flavor, s.space, flip(s.parts))
                res = oracle.first_order_residuals(written, flip(lam), param,
                                                   conv)
                residual_zero = all(
                    all(not any(vec.values()) for vec in per.values())
                    for per in res.values())
                assert residual_zero == want
            checked += 1
    assert checked >= 25


def test_first_order_residual_proportional_to_coboundary(sl2, rng):
    # the u-linear residual is the coboundary of the direction up to one
    # sign per relation degree
    from codiff.coderivation import family_bracket
    s, _ = sl2
    for trial in range(10):
        param = rng.randint(0, 1)
        lam = random_family(s, rng, param)
        if not lam:
            continue
        res = oracle.first_order_residuals(s, lam, param, W_OF_V)
        D = family_bracket(lam, s.parts)
        for n, per in res.items():
            mine = D.get(n)
            if mine is None:
                assert all(not any(v.values()) for v in per.values())
                continue
            matched = False
            for sgn in (1, -1):
                ok = True
                for t in canonical_tuples(s.space, s.flavor, n):
                    ov = per.get(t, {})
                    mv = mine.coeffs.get(t, {})
                    for k in set(ov) | set(mv):
                        if ov.get(k, F(0)) != sgn * mv.get(k, F(0)):
                            ok = False
                            break
                    if not ok:
                        break
                if ok:
                    matched = True
                    break
            assert matched
