from fractions import Fraction

import itertools

import pytest

from codiff import GradedSpace
from codiff.cochain import (Cochain, add, canonical_tuples, scale, vec_add,
                            zero_cochain)
from codiff.coderivation import (CONVENTIONS, V_OF_W, W_OF_V, compose,
                                 heads_of, modified_bracket, terms)
from codiff.fields import QQ, PrimeField
from codiff.graded import EXTERIOR, TENSOR, word_parity
from codiff.oracle import (SYMMETRIC, WCochain, bracket_reference,
                           compose_reference, extend_letters_reference,
                           word_tuples)
from conftest import (PARITY_ONLY, PRODUCT_FORM, SHIFTED_FORM, Word, bracket,
                      bracket_in, extend_on, extensions, family_bracket_in,
                      grading_pair, make_cochain, random_cochain,
                      reduced_diagonal, restrict)

F = Fraction


class TestExtension:
    def test_degree_one_leibniz(self):
        # d1 on v1 (x) v2 -> d1(v1) (x) v2 + (-1)^{|v1||d1|} v1 (x) d1(v2)
        space = GradedSpace(("a", "b"), (1, 0))
        d1 = make_cochain(space, TENSOR, 1, 1, {("a",): {"b": 1}, ("b",): {"a": 1}})
        out = extend_on(d1, (0, 0), PARITY_ONLY)
        # d(a)(x)a = b(x)a; a(x)d(a) with sign (-1)^{1*1}
        assert out == {(1, 0): 1, (0, 1): -1}

    def test_bidegree_mode_sign(self):
        # even m2 in the bidegree grading on v1 (x) v2 (x) v3:
        # m(v1,v2)(x)v3 - v1(x)m(v2,v3)
        space = GradedSpace(("a",), (0,))
        m2 = make_cochain(space, TENSOR, 2, 0, {("a", "a"): {"a": 1}})
        out = extend_on(m2, (0, 0, 0), PRODUCT_FORM)
        assert out == {(0, 0): 0} or out == {}
        # with two generators the two insertions stay separate
        space = GradedSpace(("a", "b"), (0, 0))
        m2 = make_cochain(space, TENSOR, 2, 0, {("a", "a"): {"b": 1}})
        out = extend_on(m2, (0, 0, 0), PRODUCT_FORM)
        assert out == {(1, 0): 1, (0, 1): -1}

    def test_short_word_vanishes(self):
        space = GradedSpace(("a", "b"), (0, 0))
        m2 = make_cochain(space, TENSOR, 2, 0, {("a", "a"): {"b": 1}})
        assert extend_on(m2, (0,), PRODUCT_FORM) == {}

    @pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)],
                             ids=str)
    @pytest.mark.parametrize("flavor", [TENSOR, EXTERIOR])
    def test_terms_sum_to_the_oracle_extension(self, flavor, field):
        # every canonical word up to degree 5 (tensor 4) under every parity
        # pattern of a 3-letter space, for a cochain of each degree 0..3 and
        # parity with distinct coefficients at every head: the terms summed
        # per target are the oracle's extension, which sums the unshuffles
        # of the target one by one.  Odd exterior letters repeat, so some
        # terms stand for several unshuffles.
        several = 0
        for par in itertools.product((0, 1), repeat=3):
            space = GradedSpace(("a", "b", "c"), par, field)
            for k, parity in itertools.product(range(4), (0, 1)):
                gen = dense_cochain(space, flavor, k, parity)
                for n in range(6 if flavor == EXTERIOR else 5):
                    table = extensions(gen, n)
                    for word in word_tuples(space, flavor, n):
                        assert table.get(word, {}) == \
                            extend_letters_reference(gen, word)
                    if n >= k - 1:
                        several += sum(
                            abs(signs[0]) > 1 for *_, signs in terms(
                                canonical_tuples(space, flavor, n - k + 1),
                                heads_of(gen), flavor, par))
        assert (several > 0) == (flavor == EXTERIOR)

    def test_generator_mode_constraints(self):
        # a symmetric generator takes the parity grading, so it lives on the
        # reversed side; an exterior one takes the bidegree grading, on V
        space = GradedSpace(("a",), (0,))
        with pytest.raises(ValueError):
            zero_cochain(space, SYMMETRIC, 2, 0)
        with pytest.raises(ValueError):
            WCochain(space, EXTERIOR, 2, 0)
        WCochain(space, SYMMETRIC, 2, 0)
        zero_cochain(space, EXTERIOR, 2, 0)

    def test_coderivation_axiom_randomized(self, rng):
        space = GradedSpace(("a", "b"), (0, 1))
        cases = 0
        for flavor, forms in ((TENSOR, (PARITY_ONLY, PRODUCT_FORM)),
                              (SYMMETRIC, (PARITY_ONLY,)),
                              (EXTERIOR, (PRODUCT_FORM,))):
            for form in forms:
                for trial in range(40):
                    k = rng.randint(1, 3)
                    gen = random_cochain(space, flavor, k, rng.randint(0, 1), rng)
                    deg = rng.randint(1, 4)
                    tuples = word_tuples(space, flavor, deg)
                    w = Word(space, flavor, tuples[rng.randrange(len(tuples))], F(1))
                    if w.is_zero():
                        continue
                    assert coderivation_axiom_holds(gen, form, w)
                    cases += 1
        assert cases > 150


def dense_cochain(space, flavor, degree, parity):
    """The cochain with a distinct coefficient, 1, 2, 3, .., at every head
    and output letter its parity allows."""
    coeffs, count = {}, itertools.count(1)
    for t in canonical_tuples(space, flavor, degree):
        tp = word_parity(space, t)
        coeffs[t] = {b: space.field(next(count)) for b in range(space.dim)
                     if space.parities[b] ^ tp == parity}
    return Cochain(space, flavor, degree, parity, coeffs)


def coderivation_axiom_holds(gen, form, word):
    """Delta d = (d (x) 1 + 1 (x) d) Delta with the form's sign on
    1 (x) d, for the extension ``extend_on`` gives in that grading: the
    library's on V, the oracle's on the reversed side."""
    space = word.space
    lhs = {}
    for letters, c in extend_on(gen, word.letters, form).items():
        w2 = Word(space, word.flavor, letters, c * word.coefficient)
        if w2.is_zero():
            continue
        for l, r in reduced_diagonal(w2):
            key = (l.letters, r.letters)
            lhs[key] = lhs.get(key, 0) + l.coefficient * r.coefficient
    lhs = {k: v for k, v in lhs.items() if v}
    rhs = {}
    genbid = (gen.parity, gen.degree - 1)
    for l, r in reduced_diagonal(word):
        for letters, c in extend_on(gen, l.letters, form).items():
            w2 = Word(space, word.flavor, letters, c * l.coefficient)
            if w2.is_zero():
                continue
            key = (w2.letters, r.letters)
            rhs[key] = rhs.get(key, 0) + w2.coefficient * r.coefficient
        bidl = (word_parity(space, l.letters), len(l.letters))
        sgn = -1 if grading_pair(form, bidl, genbid) else 1
        for letters, c in extend_on(gen, r.letters, form).items():
            w2 = Word(space, word.flavor, letters, c * r.coefficient)
            if w2.is_zero():
                continue
            key = (l.letters, w2.letters)
            rhs[key] = rhs.get(key, 0) + sgn * l.coefficient * w2.coefficient
    rhs = {k: v for k, v in rhs.items() if v}
    return lhs == rhs


class TestRestriction:
    def test_level_one_is_the_cochain(self, rng):
        space = GradedSpace(("a", "b"), (0, 1))
        for flavor in (TENSOR, SYMMETRIC, EXTERIOR):
            c = random_cochain(space, flavor, 2, 0, rng)
            r = restrict(c, 1)
            assert r.k == 2 and r.l == 1
            for t, row in r.matrix.items():
                want = c.value(t)
                assert row == {(b,): x for b, x in want.items()}

    def test_zero_restriction(self):
        space = GradedSpace(("a",), (0,))
        z = zero_cochain(space, TENSOR, 2, 0)
        assert restrict(z, 3).matrix == {}

    def test_leibniz_matrix(self):
        space = GradedSpace(("a", "b"), (1, 0))
        d1 = make_cochain(space, TENSOR, 1, 1, {("a",): {"b": 1}, ("b",): {"a": 1}})
        r = restrict(d1, 2, PARITY_ONLY)
        assert r.matrix[(0, 0)] == {(1, 0): 1, (0, 1): -1}


class TestBracket:
    def test_associative_self_bracket_vanishes(self, dual_numbers):
        s, _ = dual_numbers
        m2 = s.parts[2]
        assert bracket(m2, m2).is_zero()

    def test_odd_square_zero_differential(self, koszul_dga):
        d1 = koszul_dga.parts[1]
        br = bracket(d1, d1)
        # [d,d] = 2 d.d = 0 here
        assert br.is_zero()
        two_square = scale(2, compose(d1, d1))
        assert add(br, scale(-1, two_square)).is_zero()

    def test_nonassociative_associator(self, nonassociative):
        m = nonassociative.parts[2]
        br = bracket(m, m)
        assert br.coeffs[(0, 0, 0)] == {0: F(2)}  # 2a on (a,a,a)

    def test_flavor_mismatch(self):
        space = GradedSpace(("a",), (0,))
        t = zero_cochain(space, TENSOR, 2, 0)
        e = zero_cochain(space, EXTERIOR, 2, 0)
        with pytest.raises(ValueError):
            bracket(t, e)


class TestModifiedBracket:
    def test_even_second_argument_reduces_to_plain(self, rng):
        space = GradedSpace(("a", "b"), (0, 1))
        a = random_cochain(space, TENSOR, 3, 1, rng)
        b = random_cochain(space, TENSOR, 2, 0, rng)
        assert add(modified_bracket(a, b),
                   scale(-1, bracket(a, b))).is_zero()

    def test_degree_one_first_argument(self, rng):
        space = GradedSpace(("a", "b"), (0, 1))
        a = random_cochain(space, TENSOR, 1, 1, rng)
        b = random_cochain(space, TENSOR, 2, 1, rng)
        for conv in (W_OF_V, V_OF_W):
            assert add(bracket_in(a, b, conv),
                       scale(-1, bracket(a, b))).is_zero()

    def test_odd_second_argument_flips(self, rng):
        space = GradedSpace(("a", "b"), (0, 1))
        a = random_cochain(space, TENSOR, 2, 0, rng)
        b = random_cochain(space, TENSOR, 2, 1, rng)
        assert add(modified_bracket(a, b), bracket(a, b)).is_zero()

    def test_lie_laws(self, rng):
        space = GradedSpace(("a", "b"), (0, 1))
        for flavor in (TENSOR, EXTERIOR):
            for trial in range(25):
                degs = [rng.randint(1, 3) for _ in range(3)]
                pars = [rng.randint(0, 1) for _ in range(3)]
                a = random_cochain(space, flavor, degs[0], pars[0], rng)
                b = random_cochain(space, flavor, degs[1], pars[1], rng)
                c = random_cochain(space, flavor, degs[2], pars[2], rng)
                # plain bracket: product form laws
                sgn = -1 if grading_pair(PRODUCT_FORM, a.bidegree, b.bidegree) else 1
                assert add(bracket(a, b), scale(sgn, bracket(b, a))).is_zero()
                lhs = bracket(a, bracket(b, c))
                rhs = add(bracket(bracket(a, b), c),
                          scale(sgn, bracket(b, bracket(a, c))))
                assert add(lhs, scale(-1, rhs)).is_zero()
                # modified brackets: shifted form laws, both conventions,
                # and each ordered pair's bracket is the oracle's with the
                # convention's own sign rule: the core's for w_of_v, and
                # σ{σx, σy} for v_of_w
                for conv in (W_OF_V, V_OF_W):
                    sgn = -1 if grading_pair(SHIFTED_FORM, a.bidegree,
                                             b.bidegree) else 1
                    assert add(bracket_in(a, b, conv),
                               scale(sgn, bracket_in(b, a, conv))).is_zero()
                    lhs = bracket_in(a, bracket_in(b, c, conv), conv)
                    rhs = add(bracket_in(bracket_in(a, b, conv), c, conv),
                              scale(sgn, bracket_in(
                                  b, bracket_in(a, c, conv), conv)))
                    assert add(lhs, scale(-1, rhs)).is_zero()
                    for x, y in itertools.permutations((a, b, c), 2):
                        assert bracket_in(x, y, conv) == \
                            bracket_reference(x, y, conv)


class TestBracketIsCommutator:
    def test_against_extension_composition(self, rng):
        # [a, b] read off words: extend b, extend a, project to letters of
        # degree one, and subtract the signed opposite composition; the
        # bracket composes with the library on V and with the oracle on the
        # reversed side
        space = GradedSpace(("a", "b"), (0, 1))
        for flavor, form in ((TENSOR, PRODUCT_FORM), (TENSOR, PARITY_ONLY),
                             (SYMMETRIC, PARITY_ONLY), (EXTERIOR, PRODUCT_FORM)):
            for trial in range(10):
                x = random_cochain(space, flavor, rng.randint(1, 2),
                                   rng.randint(0, 1), rng)
                y = random_cochain(space, flavor, rng.randint(1, 2),
                                   rng.randint(0, 1), rng)
                n = x.degree + y.degree - 1
                sgn = -1 if grading_pair(form, (x.parity, x.degree - 1),
                                         (y.parity, y.degree - 1)) else 1
                if form == PRODUCT_FORM:
                    br = bracket(x, y).coeffs
                else:
                    br = {}
                    for c, z in ((1, compose_reference(x, y, bidegree=False)),
                                 (-sgn, compose_reference(y, x,
                                                          bidegree=False))):
                        for t, vec in z.coeffs.items():
                            vec_add(br.setdefault(t, {}), vec, c)

                def commute(first, second, t):
                    out = {}
                    for mid, c in extend_on(first, t, form).items():
                        for fin, c2 in extend_on(second, mid, form).items():
                            if len(fin) == 1:
                                out[fin[0]] = out.get(fin[0], F(0)) + c * c2
                    return {b: v for b, v in out.items() if v}

                for t in word_tuples(space, flavor, n):
                    direct = commute(y, x, t)
                    swapped = commute(x, y, t)
                    want = dict(direct)
                    for b, v in swapped.items():
                        want[b] = want.get(b, F(0)) - sgn * v
                    want = {b: v for b, v in want.items() if v}
                    assert br.get(t, {}) == want


class TestFamilyBracket:
    def test_component_law(self, rng):
        # {a, b}_n assembled from components matches the modified bracket
        # of the components, under either convention
        space = GradedSpace(("a", "b"), (0, 1))
        fam_a = {k: random_cochain(space, TENSOR, k, (k + 1) & 1, rng)
                 for k in (1, 2)}
        fam_b = {k: random_cochain(space, TENSOR, k, (k + 1) & 1, rng)
                 for k in (1, 3)}
        for conv in CONVENTIONS:
            out = family_bracket_in(fam_a, fam_b, conv)
            for n, c in out.items():
                acc = None
                for k, a in fam_a.items():
                    l = n + 1 - k
                    if l in fam_b:
                        term = bracket_reference(a, fam_b[l], conv)
                        acc = term if acc is None else add(acc, term)
                assert acc is not None
                assert add(c, scale(-1, acc)).is_zero()
