import random
from fractions import Fraction

import pytest

from codiff import (EXTERIOR, TENSOR, A_INFINITY, L_INFINITY, GradedSpace,
                    InfinityStructure, InnerProduct)
from codiff.cochain import Cochain, canonical_tuples
from codiff.graded import word_parity

F = Fraction


def make_cochain(space, flavor, degree, parity, entries):
    coeffs = {}
    for t, vec in entries.items():
        coeffs[tuple(space.index(n) for n in t)] = {
            space.index(b): F(c) for b, c in vec.items()}
    return Cochain(space, flavor, degree, parity, coeffs)


def random_cochain(space, flavor, degree, parity, rng, density=0.6, span=3):
    """Parity-homogeneous random cochain with small integer entries in the
    space's field."""
    coeffs = {}
    for t in canonical_tuples(space, flavor, degree):
        tp = word_parity(space, t)
        vec = {}
        for j in range(space.dim):
            if (space.parities[j] ^ tp) == parity and rng.random() < density:
                c = space.field(rng.randint(-span, span))
                if c:
                    vec[j] = c
        if vec:
            coeffs[t] = vec
    return Cochain(space, flavor, degree, parity, coeffs)


def sparse_rows(m):
    """A dense matrix as the sparse rows {column: scalar} that ``linalg``
    takes."""
    return [{j: x for j, x in enumerate(row) if x} for row in m]


def dense_vector(v, n, zero):
    """A sparse vector {position: scalar} as a list of length n."""
    return [v.get(j, zero) for j in range(n)]


def random_family(s, rng, param, max_arity=3):
    fam = {}
    for k in range(1, max_arity + 1):
        if rng.random() < 0.6:
            c = random_cochain(s.space, s.flavor, k, (param + k) & 1, rng)
            if not c.is_zero():
                fam[k] = c
    return fam


# --- structures used throughout the suite ----------------------------------

@pytest.fixture(scope="session")
def dual_numbers():
    """k[x]/x^2: unit 1 and an even square-zero generator."""
    space = GradedSpace(("1", "x"), (0, 0))
    m2 = make_cochain(space, TENSOR, 2, 0,
                      {("1", "1"): {"1": 1}, ("1", "x"): {"x": 1},
                       ("x", "1"): {"x": 1}})
    s = InfinityStructure(A_INFINITY, space, {2: m2})
    ip = InnerProduct(space, [[0, 1], [1, 0]])
    return s, ip


@pytest.fixture(scope="session")
def truncated_poly():
    """k[x]/x^3, all even, dimension 3."""
    space = GradedSpace(("1", "x", "y"), (0, 0, 0))
    m2 = make_cochain(space, TENSOR, 2, 0, {
        ("1", "1"): {"1": 1}, ("1", "x"): {"x": 1}, ("x", "1"): {"x": 1},
        ("1", "y"): {"y": 1}, ("y", "1"): {"y": 1}, ("x", "x"): {"y": 1}})
    return InfinityStructure(A_INFINITY, space, {2: m2})


@pytest.fixture(scope="session")
def triangular():
    """Upper triangular 2x2 matrices, noncommutative, dimension 3."""
    space = GradedSpace(("p", "q", "r"), (0, 0, 0))
    m2 = make_cochain(space, TENSOR, 2, 0, {
        ("p", "p"): {"p": 1}, ("p", "q"): {"q": 1},
        ("q", "r"): {"q": 1}, ("r", "r"): {"r": 1}})
    return InfinityStructure(A_INFINITY, space, {2: m2})


@pytest.fixture(scope="session")
def theta_algebra():
    """Free graded-commutative algebra on one odd generator."""
    space = GradedSpace(("1", "t"), (0, 1))
    m2 = make_cochain(space, TENSOR, 2, 0,
                      {("1", "1"): {"1": 1}, ("1", "t"): {"t": 1},
                       ("t", "1"): {"t": 1}})
    return InfinityStructure(A_INFINITY, space, {2: m2})


@pytest.fixture(scope="session")
def koszul_dga(theta_algebra):
    """The theta algebra with the odd differential sending t to 1."""
    space = theta_algebra.space
    d = make_cochain(space, TENSOR, 1, 1, {("t",): {"1": 1}})
    return InfinityStructure(A_INFINITY, space,
                             {1: d, 2: theta_algebra.parts[2]})


@pytest.fixture(scope="session")
def nonassociative():
    """m(a,a)=b, m(b,a)=a: the associator on (a,a,a) is a."""
    space = GradedSpace(("a", "b"), (0, 0))
    m2 = make_cochain(space, TENSOR, 2, 0,
                      {("a", "a"): {"b": 1}, ("b", "a"): {"a": 1}})
    return InfinityStructure(A_INFINITY, space, {2: m2})


@pytest.fixture(scope="session")
def leibniz_violation():
    """Odd differential on the even-odd unital algebra that is no derivation."""
    space = GradedSpace(("e", "o"), (0, 1))
    m2 = make_cochain(space, TENSOR, 2, 0,
                      {("e", "e"): {"e": 1}, ("e", "o"): {"o": 1},
                       ("o", "e"): {"o": 1}})
    d = make_cochain(space, TENSOR, 1, 1, {("e",): {"o": 1}})
    return InfinityStructure(A_INFINITY, space, {1: d, 2: m2})


@pytest.fixture(scope="session")
def sl2():
    """sl2 with the standard basis and its Killing form."""
    space = GradedSpace(("e", "f", "h"), (0, 0, 0))
    l2 = make_cochain(space, EXTERIOR, 2, 0, {
        ("e", "f"): {"h": 1}, ("e", "h"): {"e": -2}, ("f", "h"): {"f": 2}})
    s = InfinityStructure(L_INFINITY, space, {2: l2})
    killing = InnerProduct(space, [[0, 4, 0], [4, 0, 0], [0, 0, 8]])
    return s, killing


@pytest.fixture(scope="session")
def nonabelian2():
    """The 2-dimensional Lie algebra [x,y] = x."""
    space = GradedSpace(("x", "y"), (0, 0))
    l2 = make_cochain(space, EXTERIOR, 2, 0, {("x", "y"): {"x": 1}})
    return InfinityStructure(L_INFINITY, space, {2: l2})


@pytest.fixture(scope="session")
def abelian2():
    space = GradedSpace(("u", "v"), (0, 0))
    s = InfinityStructure(L_INFINITY, space, {})
    ip = InnerProduct(space, [[1, 0], [0, 1]])
    return s, ip


@pytest.fixture(scope="session")
def abelian1():
    space = GradedSpace(("u",), (0,))
    return InfinityStructure(L_INFINITY, space, {})


@pytest.fixture
def rng():
    return random.Random(20240811)
