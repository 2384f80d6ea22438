import itertools
from fractions import Fraction

import pytest

from codiff import GradedSpace
from codiff.cochain import (Cochain, InnerProduct, add, canonical_tuples,
                            scale, tilde, untilde, zero_cochain)
from codiff.graded import EXTERIOR, TENSOR
from codiff.oracle import SYMMETRIC, word_tuples
from conftest import (evaluate, koszul_sign, make_cochain, permutation_sign,
                      random_cochain)

F = Fraction


class TestCanonicalTuples:
    def test_tensor_counts(self):
        space = GradedSpace(("a", "b"), (0, 1))
        assert len(canonical_tuples(space, TENSOR, 3)) == 8

    def test_exterior_excludes_repeated_even(self):
        space = GradedSpace(("a", "b"), (0, 1))
        tuples = canonical_tuples(space, EXTERIOR, 2)
        assert (0, 0) not in tuples and (1, 1) in tuples

    def test_symmetric_excludes_repeated_odd(self):
        # the symmetric words of the reversed side are the oracle's
        space = GradedSpace(("a", "b"), (0, 1))
        tuples = word_tuples(space, SYMMETRIC, 2)
        assert (0, 0) in tuples and (1, 1) not in tuples

    def test_degree_zero(self):
        space = GradedSpace(("a",), (0,))
        assert canonical_tuples(space, TENSOR, 0) == ((),)


class TestEvaluate:
    def test_zero_cochain(self):
        space = GradedSpace(("a", "b"), (0, 0))
        z = zero_cochain(space, TENSOR, 2, 0)
        assert evaluate(z, ["a", "b"]) == {}

    def test_exterior_antisymmetry_even(self):
        space = GradedSpace(("e1", "e2", "e3"), (0, 0, 0))
        l2 = make_cochain(space, EXTERIOR, 2, 0, {("e1", "e2"): {"e3": 1}})
        assert evaluate(l2, ["e2", "e1"]) == {2: F(-1)}

    def test_dual_numbers_square_zero(self, dual_numbers):
        s, _ = dual_numbers
        assert evaluate(s.parts[2], ["x", "x"]) == {}

    def test_multilinearity(self, rng):
        space = GradedSpace(("a", "b", "c"), (0, 0, 1))
        for flavor in (TENSOR, SYMMETRIC, EXTERIOR):
            for trial in range(10):
                c = random_cochain(space, flavor, 2, rng.randint(0, 1), rng)
                u = {0: F(2), 1: F(-1)}
                v = {1: F(3), 2: F(1)}
                w = {0: F(1)}
                uv = {k: u.get(k, F(0)) + v.get(k, F(0)) for k in set(u) | set(v)}
                lhs = evaluate(c, [uv, w])
                rhs = {}
                for b, x in evaluate(c, [u, w]).items():
                    rhs[b] = rhs.get(b, F(0)) + x
                for b, x in evaluate(c, [v, w]).items():
                    rhs[b] = rhs.get(b, F(0)) + x
                assert lhs == {b: x for b, x in rhs.items() if x}

    def test_flavor_sign_invariance(self, rng):
        # evaluation is invariant under permutations up to the flavor sign
        space = GradedSpace(("a", "b"), (0, 1))
        for flavor in (SYMMETRIC, EXTERIOR):
            for k in range(2, 5):
                c = random_cochain(space, flavor, k, rng.randint(0, 1), rng)
                for t in itertools.product(range(2), repeat=k):
                    base = c.value(t)
                    for images in itertools.permutations(range(1, k + 1)):
                        permuted = tuple(t[images[i] - 1] for i in range(k))
                        eps = koszul_sign(images, [space.parities[i] for i in t])
                        if flavor == EXTERIOR:
                            eps *= permutation_sign(images)
                        got = c.value(permuted)
                        want = {b: eps * x for b, x in base.items()}
                        assert got == want

    def test_wrong_arity(self):
        space = GradedSpace(("a",), (0,))
        c = zero_cochain(space, TENSOR, 2, 0)
        with pytest.raises(ValueError):
            evaluate(c, ["a"])


class TestAddScale:
    def test_add_zero(self, rng):
        space = GradedSpace(("a", "b"), (0, 1))
        a = random_cochain(space, TENSOR, 2, 1, rng)
        z = zero_cochain(space, TENSOR, 2, 1)
        assert add(a, z) == a

    def test_scale_zero(self, rng):
        space = GradedSpace(("a", "b"), (0, 1))
        a = random_cochain(space, TENSOR, 2, 1, rng)
        assert scale(0, a).is_zero()

    def test_additive_inverse(self, rng):
        space = GradedSpace(("a", "b"), (0, 1))
        a = random_cochain(space, EXTERIOR, 2, 1, rng)
        assert add(scale(-1, a), a).is_zero()

    def test_mismatch_raises(self):
        space = GradedSpace(("a",), (0,))
        a = zero_cochain(space, TENSOR, 2, 0)
        b = zero_cochain(space, TENSOR, 3, 0)
        with pytest.raises(ValueError):
            add(a, b)

    def test_parity_mismatch_raises(self, rng):
        space = GradedSpace(("a", "b"), (0, 1))
        a = random_cochain(space, TENSOR, 2, 0, rng, density=1.0)
        b = random_cochain(space, TENSOR, 2, 1, rng, density=1.0)
        with pytest.raises(ValueError):
            add(a, b)


class TestInnerProduct:
    def test_degenerate_rejected(self):
        space = GradedSpace(("a", "b"), (0, 0))
        with pytest.raises(ValueError):
            InnerProduct(space, [[1, 0], [0, 0]])

    def test_odd_pairing_must_be_even(self):
        space = GradedSpace(("a", "b"), (0, 1))
        with pytest.raises(ValueError):
            InnerProduct(space, [[0, 1], [1, 0]])

    def test_odd_odd_block_antisymmetric(self):
        space = GradedSpace(("o1", "o2"), (1, 1))
        ip = InnerProduct(space, [[0, 1], [-1, 0]])
        assert ip.matrix[0][1] == 1 and ip.matrix[1][0] == -1
        with pytest.raises(ValueError):
            InnerProduct(space, [[0, 1], [1, 0]])


class TestTilde:
    def test_dual_numbers_example(self, dual_numbers):
        s, ip = dual_numbers
        tm = tilde(s.parts[2], ip)
        assert tm.value((0, 0, 1)) == 1  # <m(1,1), x> = <1, x> = 1
        assert tm.value((0, 0, 0)) == 0

    def test_zero_maps_to_zero(self, dual_numbers):
        s, ip = dual_numbers
        z = zero_cochain(s.space, TENSOR, 2, 0)
        assert tilde(z, ip).is_zero()

    def test_round_trip_random(self, dual_numbers, sl2, rng):
        for (s, ip), flavor in ((dual_numbers, TENSOR), (sl2, EXTERIOR)):
            for k in range(1, 4):
                for trial in range(8):
                    c = random_cochain(s.space, flavor, k, rng.randint(0, 1), rng)
                    back = untilde(tilde(c, ip), ip, flavor)
                    assert back == c

    def test_round_trip_with_odd_parities(self, rng):
        space = GradedSpace(("e", "o1", "o2"), (0, 1, 1))
        ip = InnerProduct(space, [[1, 0, 0], [0, 0, 1], [0, -1, 0]])
        for k in range(1, 3):
            for parity in (0, 1):
                c = random_cochain(space, TENSOR, k, parity, rng)
                back = untilde(tilde(c, ip), ip, TENSOR)
                assert back == c


class TestParityValidation:
    def test_inhomogeneous_rejected(self):
        space = GradedSpace(("a", "b"), (0, 1))
        with pytest.raises(ValueError):
            Cochain(space, TENSOR, 1, 0, {(0,): {0: F(1), 1: F(1)}})

    def test_noncanonical_tuple_rejected(self):
        space = GradedSpace(("a", "b"), (0, 0))
        with pytest.raises(ValueError):
            Cochain(space, EXTERIOR, 2, 0, {(1, 0): {0: F(1)}})
