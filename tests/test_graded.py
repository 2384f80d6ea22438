import itertools
from fractions import Fraction

import pytest

from codiff import GradedSpace
from codiff.graded import (EXTERIOR, TENSOR, canonical_word, rotation_signs,
                           word_parity)
from codiff.oracle import SYMMETRIC, _reorder_sign, sort_word
from conftest import (PARITY_ONLY, PRODUCT_FORM, SHIFTED_FORM, Word,
                      grading_pair, koszul_sign, pair_sum, permutation_sign,
                      reduced_diagonal)

F = Fraction


class TestKoszulSign:
    def test_identity(self):
        assert koszul_sign((1, 2, 3), (1, 0, 1)) == 1

    def test_adjacent_transposition_of_two_odds(self):
        assert koszul_sign((2, 1), (1, 1)) == -1
        assert koszul_sign((2, 1), (1, 0)) == 1

    def test_three_cycle(self):
        # sends (v1,v2,v3) to (v2,v3,v1); parities (1,1,0):
        # two adjacent swaps contribute (-1)^{1*1} * (-1)^{1*0}
        assert koszul_sign((2, 3, 1), (1, 1, 0)) == -1

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            koszul_sign((1, 2), (0,))

    def test_multiplicativity_small(self):
        for n in range(1, 5):
            perms = list(itertools.permutations(range(1, n + 1)))
            for par in itertools.product((0, 1), repeat=n):
                for sig in perms:
                    for tau in perms:
                        comp = tuple(tau[sig[i] - 1] for i in range(n))
                        permuted = [par[tau[i] - 1] for i in range(n)]
                        assert koszul_sign(comp, par) == \
                            koszul_sign(sig, permuted) * koszul_sign(tau, par)


class TestRotationSigns:
    def test_prefix_parities_match_rotation_sign(self, rng):
        for trial in range(200):
            dim = rng.randint(1, 4)
            par = tuple(rng.randint(0, 1) for _ in range(dim))
            t = tuple(rng.randrange(dim) for _ in range(rng.randint(1, 8)))
            n = len(t)
            letter_par = [par[x] for x in t]
            assert rotation_signs(par, t) == [
                _reorder_sign(EXTERIOR, tuple(range(i + 1, n + 1))
                              + tuple(range(1, i + 1)), letter_par)
                for i in range(n)]


class TestPermutationSign:
    def test_identity(self):
        assert permutation_sign((1, 2, 3)) == 1

    def test_adjacent(self):
        assert permutation_sign((2, 1, 3)) == -1

    def test_three_cycle_even(self):
        assert permutation_sign((2, 3, 1)) == 1


class TestCanonicalWord:
    """The library's tensor and exterior words; the symmetric words of the
    reversed side are the oracle's ``sort_word``."""

    def test_symmetric_repeated_odd_dies(self):
        assert sort_word(SYMMETRIC, (0, 0), (1, 0)) is None

    def test_exterior_repeated_even_dies(self):
        assert canonical_word(EXTERIOR, (0, 0), (0, 1)) is None

    def test_exterior_repeated_odd_survives(self):
        assert canonical_word(EXTERIOR, (0, 0), (1, 0)) == (1, (0, 0))

    def test_exterior_swap_sign(self):
        # two even letters anticommute
        assert canonical_word(EXTERIOR, (1, 0), (0, 0)) == (-1, (0, 1))
        # two odd letters commute in the exterior algebra
        assert canonical_word(EXTERIOR, (1, 0), (1, 1)) == (1, (0, 1))

    def test_symmetric_swap_sign(self):
        assert sort_word(SYMMETRIC, (1, 0), (0, 0)) == (1, (0, 1))
        assert sort_word(SYMMETRIC, (1, 0), (1, 1)) == (-1, (0, 1))

    def test_exterior_matches_the_oracle_sort(self, rng):
        # random words of length 0..7 under every parity pattern of a
        # 4-letter space: repeated odd letters survive, repeated even ones
        # kill the word
        repeated_odd = dead = 0
        for parities in itertools.product((0, 1), repeat=4):
            for trial in range(100):
                word = tuple(rng.randrange(4)
                             for _ in range(rng.randint(0, 7)))
                got = canonical_word(EXTERIOR, word, parities)
                assert got == sort_word(EXTERIOR, word, parities)
                if got is None:
                    dead += 1
                elif any(parities[x] and word.count(x) > 1 for x in word):
                    repeated_odd += 1
        assert repeated_odd and dead

    def test_reordering_consistency(self):
        # any route to canonical form gives the same sign: compare the
        # inversion count against explicit permutation data
        parities = (1, 0, 1, 1)
        for flavor, sort in ((SYMMETRIC, sort_word), (EXTERIOR, canonical_word),
                             (EXTERIOR, sort_word)):
            for letters in itertools.permutations(range(4)):
                res = sort(flavor, letters, parities)
                assert res is not None
                sign, canon = res
                assert canon == (0, 1, 2, 3)
                images = tuple(letters.index(i) + 1 for i in range(4))
                eps = koszul_sign(images, [parities[i] for i in letters])
                if flavor == EXTERIOR:
                    eps *= permutation_sign(images)
                assert sign == eps


class TestDiagonal:
    def setup_method(self):
        self.space = GradedSpace(("a", "b", "c"), (0, 1, 0))

    def test_tensor_two_letters(self):
        w = Word(self.space, TENSOR, (0, 1), F(1))
        [(l, r)] = reduced_diagonal(w)
        assert l.letters == (0,) and r.letters == (1,)
        assert l.coefficient * r.coefficient == 1

    def test_degree_one_empty(self):
        for flavor in (TENSOR, SYMMETRIC, EXTERIOR):
            w = Word(self.space, flavor, (1,), F(1))
            assert reduced_diagonal(w) == []

    def test_symmetric_two_even_letters(self):
        w = Word(self.space, SYMMETRIC, (0, 2), F(1))
        got = pair_sum(reduced_diagonal(w))
        assert got == {((0,), (2,)): 1, ((2,), (0,)): 1}

    def test_coassociativity(self):
        space = GradedSpace(("a", "b", "c"), (0, 1, 1))
        for flavor in (TENSOR, SYMMETRIC, EXTERIOR):
            for deg in range(1, 6):
                for letters in itertools.product(range(3), repeat=deg):
                    w = Word(space, flavor, letters, F(1))
                    if w.is_zero():
                        continue
                    left, right = {}, {}
                    for l, r in reduced_diagonal(w):
                        for l2, r2 in reduced_diagonal(r):
                            c = l.coefficient * l2.coefficient * r2.coefficient
                            key = (l.letters, l2.letters, r2.letters)
                            left[key] = left.get(key, 0) + c
                    for l, r in reduced_diagonal(w):
                        for l2, r2 in reduced_diagonal(l):
                            c = l2.coefficient * r2.coefficient * r.coefficient
                            key = (l2.letters, r2.letters, r.letters)
                            right[key] = right.get(key, 0) + c
                    assert {k: v for k, v in left.items() if v} == \
                           {k: v for k, v in right.items() if v}

    def test_cocommutativity(self):
        # symmetric diagonal under the parity form, exterior under the
        # bidegree form
        space = GradedSpace(("a", "b"), (0, 1))
        for flavor, form in ((SYMMETRIC, PARITY_ONLY), (EXTERIOR, PRODUCT_FORM)):
            for deg in range(2, 5):
                for letters in itertools.product(range(2), repeat=deg):
                    w = Word(space, flavor, letters, F(1))
                    if w.is_zero():
                        continue
                    d = pair_sum(reduced_diagonal(w))
                    sw = {}
                    for (lt, rt), c in d.items():
                        bidl = (word_parity(space, lt), len(lt))
                        bidr = (word_parity(space, rt), len(rt))
                        sgn = -1 if grading_pair(form, bidl, bidr) else 1
                        sw[(rt, lt)] = sw.get((rt, lt), 0) + sgn * c
                    assert {k: v for k, v in sw.items() if v} == d


class TestWord:
    def test_bidegree(self):
        space = GradedSpace(("a", "b"), (0, 1))
        w = Word(space, TENSOR, (0, 1, 1), F(2))
        assert w.degree == 3
        assert w.parity == 0
        assert w.bidegree == (0, 3)

    def test_canonicalization_absorbs_sign(self):
        space = GradedSpace(("a", "b"), (0, 0))
        w = Word(space, EXTERIOR, (1, 0), F(3))
        assert w.letters == (0, 1)
        assert w.coefficient == F(-3)

    def test_dead_word_is_zero(self):
        space = GradedSpace(("a",), (0,))
        w = Word(space, EXTERIOR, (0, 0), F(5))
        assert w.is_zero()


def test_grading_pair_forms():
    assert grading_pair(PARITY_ONLY, (1, 5), (1, 7)) == 1
    assert grading_pair(PRODUCT_FORM, (1, 1), (1, 1)) == 0
    assert grading_pair(PRODUCT_FORM, (0, 1), (0, 1)) == 1
    assert grading_pair(SHIFTED_FORM, (1, 1), (1, 1)) == 0
    assert grading_pair(SHIFTED_FORM, (0, 1), (1, 0)) == 1


def test_space_validation():
    with pytest.raises(ValueError):
        GradedSpace(("a", "a"), (0, 0))
    with pytest.raises(ValueError):
        GradedSpace((), ())
    with pytest.raises(ValueError):
        GradedSpace(("a",), (2,))
