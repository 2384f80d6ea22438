import itertools
import random
from fractions import Fraction

import pytest

from codiff import (EXTERIOR, TENSOR, A_INFINITY, L_INFINITY, GradedSpace,
                    InfinityStructure, InnerProduct)
from codiff.cochain import (Cochain, ScalarCochain, add, canonical_tuples,
                            vec_add, zero_cochain)
from codiff.coderivation import (CoderivationGenerator, W_OF_V, compose,
                                 extend_letters, natural_mode)
from codiff.graded import (PARITY_ONLY, PRODUCT_FORM, SYMMETRIC, Word,
                           koszul_sign, permutation_sign, reorder_sign,
                           rotation_sign, unshuffles, word_parity)
from codiff.reversion import (conjugate_family, conjugate_part, eta_sign,
                              reversed_flavor)

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


# --- verification routes: the tests are their only callers ----------------

def evaluate(c, args):
    """Multilinear evaluation; each argument is a basis index, basis name,
    or a sparse vector {index: scalar}."""
    if len(args) != c.degree:
        raise ValueError("expected %d arguments, got %d" % (c.degree, len(args)))
    norm = []
    for a in args:
        if isinstance(a, dict):
            norm.append(a)
        elif isinstance(a, str):
            norm.append({c.space.index(a): 1})
        else:
            norm.append({int(a): 1})
    acc = {}
    for combo in itertools.product(*[sorted(v.items()) for v in norm]):
        letters = tuple(b for b, _ in combo)
        factor = 1
        for _, s in combo:
            factor = factor * s
        if not factor:
            continue
        vec_add(acc, c.value(letters), factor)
    return acc


def scalar_scale(s, a):
    return ScalarCochain(a.space, a.flavor, a.arity, a.parity,
                         {t: s * c for t, c in a.coeffs.items() if s * c})


def scalar_cochains_match(a, b):
    """Equality as multilinear functions (flavors may differ)."""
    if a.space != b.space or a.arity != b.arity:
        return False
    for t in itertools.product(range(a.space.dim), repeat=a.arity):
        if a.value(t) != b.value(t):
            return False
    return True


def is_cyclic_scalar_blockwise(f):
    """Block form of the rotation identity: f(a ox b) = (-1)^{|a||b| + i n}
    f(b ox a) for every splitting after i letters."""
    par = f.space.parities
    return all(f.value(t) == rotation_sign(par, t, i) * f.value(t[i:] + t[:i])
               for t in itertools.product(range(f.space.dim), repeat=f.arity)
               for i in range(1, f.arity))


def reduced_diagonal(word):
    """The reduced diagonal of a word as a list of (left, right) Word pairs.

    Tensor words split at every position; symmetric splits run over
    unshuffles weighted by epsilon(sigma); exterior splits carry the extra
    (-1)^sigma.  Degree-1 words map to the empty sum (the kernel is V).
    """
    n = word.degree
    if word.is_zero() or n == 1:
        return []
    par = word.space.parities
    letter_par = [par[i] for i in word.letters]
    out = []
    if word.flavor == TENSOR:
        for k in range(1, n):
            left = Word(word.space, TENSOR, word.letters[:k], word.coefficient)
            right = Word(word.space, TENSOR, word.letters[k:], 1)
            out.append((left, right))
        return out
    for k in range(1, n):
        for sigma in unshuffles(k, n - k):
            s = reorder_sign(word.flavor, sigma, letter_par)
            lhs = tuple(word.letters[sigma[i] - 1] for i in range(k))
            rhs = tuple(word.letters[sigma[i] - 1] for i in range(k, n))
            left = Word(word.space, word.flavor, lhs, s * word.coefficient)
            right = Word(word.space, word.flavor, rhs, 1)
            if not left.is_zero() and not right.is_zero():
                out.append((left, right))
    return out


def pair_sum(pairs):
    """Collect (left, right) word pairs into a canonical dict keyed by
    (left letters, right letters); used to compare formal sums of splits."""
    acc = {}
    for left, right in pairs:
        c = left.coefficient * right.coefficient
        if not c:
            continue
        key = (left.letters, right.letters)
        cur = acc.get(key, 0)
        cur = cur + c
        if cur:
            acc[key] = cur
        else:
            acc.pop(key, None)
    return acc


class Restriction:
    """The extended coderivation of a degree-k generator restricted to
    degree k+l-1 words, landing in degree-l words."""

    def __init__(self, k, l, matrix):
        self.k = k
        self.l = l
        self.matrix = matrix  # input tuple -> {output tuple: coefficient}


def restrict(gen, l, mode=None):
    if isinstance(gen, CoderivationGenerator):
        gen, mode = gen.base, gen.mode
    if mode is None:
        mode = natural_mode(gen.flavor)
    if l < 1:
        raise ValueError("restriction lands in degree >= 1")
    n = gen.degree + l - 1
    matrix = {}
    for t in canonical_tuples(gen.space, gen.flavor, n):
        row = extend_letters(gen, t, mode)
        if row:
            matrix[t] = row
    return Restriction(gen.degree, l, matrix)


def eta_word(word, w_space=None):
    """Transport a word over V to the reversed side."""
    if w_space is None:
        w_space = word.space.reversed()
    sign = eta_sign([word.space.parities[i] for i in word.letters])
    return Word(w_space, reversed_flavor(word.flavor), word.letters,
                sign * word.coefficient)


def eta_inverse_word(word, v_space=None):
    """Transport a word over W back to V; the sign is computed from the
    V-side parities, i.e. the flipped ones."""
    if v_space is None:
        v_space = word.space.reversed()
    sign = eta_sign([v_space.parities[i] for i in word.letters])
    return Word(v_space, reversed_flavor(word.flavor), word.letters,
                sign * word.coefficient)


def check_extension_conjugation(mu, n):
    """Compare the two extensions of a homogeneous cochain on degree-n words:
    conjugating the parity-graded extension from the reversed side must equal
    (-1)^{(n-k)|mu|} times the bidegree-graded extension on the V side."""
    space = mu.space
    k = mu.degree
    if n < 1:
        raise ValueError("need word degree >= 1")
    delta = conjugate_part(mu, W_OF_V, to_reversed=True)
    w_space = delta.space
    rev_mode = PARITY_ONLY if delta.flavor in (TENSOR, SYMMETRIC) else PRODUCT_FORM
    sign = -1 if ((n - k) * mu.parity) & 1 else 1
    for t in canonical_tuples(space, mu.flavor, n):
        word = Word(space, mu.flavor, t, 1)
        if word.is_zero():
            continue
        # around: eta, extend on the reversed side, eta back
        w_word = eta_word(word, w_space)
        around = {}
        for letters, c in extend_letters(delta, w_word.letters, rev_mode).items():
            back = eta_inverse_word(Word(w_space, delta.flavor, letters,
                                         c * w_word.coefficient), space)
            if back.is_zero():
                continue
            cur = around.get(back.letters, 0) + back.coefficient
            if cur:
                around[back.letters] = cur
            else:
                around.pop(back.letters, None)
        # direct: bidegree-graded extension on the V side, rescaled
        direct = {}
        for letters, c in extend_letters(mu, t, PRODUCT_FORM).items():
            if sign * c:
                direct[letters] = sign * c
        if around != direct:
            return False
    return True


def check_reversion_sign_identity(images, parities):
    """The permutation identity tying the eta sign, the permutation sign and
    the Koszul signs on both sides of the reversion:
    eta(v) (-1)^sigma eps(sigma; v) == eta(v o sigma) eps(sigma; w)."""
    n = len(images)
    flipped = [1 - p for p in parities]
    lhs = eta_sign(parities) * permutation_sign(images) * koszul_sign(images, parities)
    permuted = [parities[images[i] - 1] for i in range(n)]
    rhs = eta_sign(permuted) * koszul_sign(images, flipped)
    return lhs == rhs


def reversed_parts(s):
    """The family conjugated to the reversed side (where validity means
    an odd codifferential for the plain parity grading)."""
    return conjugate_family(s.parts, s.convention, to_reversed=True)


def reversed_residual(parts_w, w_space, flavor_w, n):
    """Degree-n component of delta ∘ delta on the reversed side: the sum of
    delta_a ∘ delta_{b a} over a+b = n+1, parity grading, no extra signs."""
    acc = None
    for a, outer in parts_w.items():
        b = n + 1 - a
        inner = parts_w.get(b)
        if inner is None:
            continue
        term = compose(outer, inner, PARITY_ONLY)
        acc = term if acc is None else add(acc, term)
    if acc is None:
        return zero_cochain(w_space, flavor_w, n, 0)
    return acc


def reversed_side_ok(s):
    """Third validation route: the conjugated family squares to zero on the
    reversed side."""
    parts_w = reversed_parts(s)
    if not parts_w:
        return True
    w_space = s.space.reversed()
    flavor_w = next(iter(parts_w.values())).flavor
    top = max(parts_w)
    for n in range(1, 2 * top):
        if not reversed_residual(parts_w, w_space, flavor_w, n).is_zero():
            return False
    return True


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
