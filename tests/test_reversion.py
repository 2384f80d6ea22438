import itertools
from fractions import Fraction

from codiff import GradedSpace
from codiff.cochain import canonical_tuples
from codiff.coderivation import V_OF_W, W_OF_V, convert_convention_parts
from codiff.graded import EXTERIOR, TENSOR, word_parity
from codiff.oracle import (SYMMETRIC, conjugate_family, conjugate_part,
                           eta_sign, residual_reference)
from codiff.structures import validate
from conftest import (Word, check_extension_conjugation,
                      check_reversion_sign_identity, eta_inverse_word,
                      eta_word, make_cochain, random_cochain, reversed_parts,
                      structure_in)

F = Fraction


class TestEtaWord:
    def test_degree_one_no_sign(self):
        space = GradedSpace(("a",), (1,))
        w = eta_word(Word(space, TENSOR, (0,), F(1)))
        assert w.coefficient == 1 and w.letters == (0,)
        assert w.space.parities == (0,)

    def test_degree_two_odd_first_letter(self):
        space = GradedSpace(("a", "b"), (1, 0))
        w = eta_word(Word(space, TENSOR, (0, 1), F(1)))
        assert w.coefficient == -1

    def test_degree_three_sign(self):
        # parities (1,1,0): exponent 2*1 + 1*1 = 3, odd
        assert eta_sign((1, 1, 0)) == -1

    def test_bijection(self):
        space = GradedSpace(("a", "b"), (0, 1))
        for flavor in (TENSOR, EXTERIOR):
            for deg in range(1, 6):
                for t in canonical_tuples(space, flavor, deg):
                    w = Word(space, flavor, t, F(1))
                    if w.is_zero():
                        continue
                    back = eta_inverse_word(eta_word(w), space)
                    assert back.letters == w.letters
                    assert back.coefficient == w.coefficient
                    assert back.flavor == w.flavor

    def test_exterior_words_land_in_symmetric(self):
        space = GradedSpace(("a", "b"), (0, 1))
        w = eta_word(Word(space, EXTERIOR, (0, 1), F(1)))
        assert w.flavor == SYMMETRIC


class TestConjugation:
    def test_degree_one_parity_unchanged(self, rng):
        space = GradedSpace(("a", "b"), (0, 1))
        c = random_cochain(space, TENSOR, 1, 1, rng)
        d = conjugate_part(c, W_OF_V)
        assert d.parity == c.parity
        # values transport through the parity flip with no sign at k = 1
        for t, vec in c.coeffs.items():
            assert d.coeffs[t] == vec

    def test_parity_shift(self):
        # an odd part of arity 2 on the reversed side comes from an even one
        w_space = GradedSpace(("w",), (0,))
        delta = make_cochain(w_space, TENSOR, 2, 1, {})
        mu = conjugate_part(delta, W_OF_V, to_reversed=False)
        assert mu.parity == 0

    def test_round_trip(self, rng):
        space = GradedSpace(("a", "b"), (0, 1))
        for flavor in (TENSOR, EXTERIOR):
            for conv in (W_OF_V, V_OF_W):
                fam = {k: random_cochain(space, flavor, k, rng.randint(0, 1), rng)
                       for k in (1, 2, 3)}
                over = conjugate_family(fam, conv, to_reversed=True)
                back = conjugate_family(over, conv, to_reversed=False)
                for k in fam:
                    assert back[k] == fam[k]

    def test_odd_codifferential_iff_structure(self, dual_numbers):
        s, _ = dual_numbers
        rev = reversed_parts(s)
        assert all(c.parity == 1 for c in rev.values())


class TestExtensionConjugation:
    def test_exhaustive_small(self):
        space = GradedSpace(("a", "b"), (0, 1))
        for flavor in (TENSOR, EXTERIOR):
            for k in range(1, 4):
                for t in canonical_tuples(space, flavor, k):
                    tp = word_parity(space, t)
                    for j in range(space.dim):
                        mu = make_cochain(space, flavor, k,
                                          (space.parities[j] ^ tp) & 1, {})
                        mu.coeffs[t] = {j: F(1)}
                        for n in range(1, 6):
                            assert check_extension_conjugation(mu, n)


class TestReversionSignIdentity:
    def test_identity_permutation(self):
        assert check_reversion_sign_identity((1, 2, 3), [0, 1, 1])

    def test_all_even(self):
        for images in itertools.permutations(range(1, 5)):
            assert check_reversion_sign_identity(images, [0, 0, 0, 0])

    def test_exhaustive(self):
        for n in range(1, 6):
            for par in itertools.product((0, 1), repeat=n):
                for images in itertools.permutations(range(1, n + 1)):
                    assert check_reversion_sign_identity(images, list(par))


class TestConvertConvention:
    def test_involution(self, rng):
        space = GradedSpace(("a", "b"), (0, 1))
        fam = {k: random_cochain(space, TENSOR, k, k & 1, rng) for k in (1, 2, 3, 4)}
        twice = convert_convention_parts(convert_convention_parts(fam))
        for k in fam:
            assert twice[k] == fam[k]

    def test_arity_signs(self, rng):
        space = GradedSpace(("a", "b"), (0, 1))
        fam = {k: random_cochain(space, TENSOR, k, k & 1, rng, density=1.0)
               for k in (1, 2, 3, 4, 5)}
        out = convert_convention_parts(fam)
        # (-1)^{k(k-1)/2}: +, -, -, +, + ...
        from codiff.cochain import add, scale
        signs = {1: 1, 2: -1, 3: -1, 4: 1, 5: 1}
        for k, sgn in signs.items():
            assert add(out[k], scale(-sgn, fam[k])).is_zero()

    def test_converted_structure_validates_in_other_convention(
            self, dual_numbers, sl2, koszul_dga, nonassociative):
        # the v_of_w relations, with the reference signs, of the converted
        # family vanish exactly when the structure validates
        for s in (dual_numbers[0], sl2[0], koszul_dga, nonassociative):
            other = convert_convention_parts(s.parts)
            residuals = [residual_reference(other, n, V_OF_W)
                         for n in range(1, 2 * s.top_arity)]
            assert all(r is None or r.is_zero() for r in residuals) == \
                validate(s).ok

    def test_reversed_codifferential_conjugates_into_both_conventions(
            self, dual_numbers, sl2, koszul_dga):
        # starting from the odd codifferential on the reversed side, pulling
        # back through either convention's eta yields a family satisfying
        # that convention's relation signs: for v_of_w, σ of the pullback
        # through the V parities validates in the core, an independent check
        # of σ
        for s in (dual_numbers[0], sl2[0], koszul_dga):
            delta = reversed_parts(s)
            for conv in (W_OF_V, V_OF_W):
                fam = conjugate_family(delta, conv, to_reversed=False)
                assert validate(structure_in(s.flavor, s.space, fam,
                                             conv)).ok
