import itertools
import random
from fractions import Fraction

import pytest

from codiff import (EXTERIOR, TENSOR, A_INFINITY, L_INFINITY, GradedSpace,
                    InfinityStructure, InnerProduct)
from codiff.algfile import AlgebraFile
from codiff.cochain import (Cochain, ScalarCochain, add, canonical_tuples,
                            scale, vec_add, zero_cochain)
from codiff.coderivation import (V_OF_W, W_OF_V, compose,
                                 convert_convention_parts, family_bracket,
                                 heads_of, modified_bracket, terms)
from codiff.graded import word_parity
from codiff.homology import cyclic_scalar_basis
from codiff.oracle import (SYMMETRIC, WCochain, compose_reference,
                           conjugate_family, conjugate_part, eta_sign,
                           extend_letters_reference, reversed_flavor,
                           reversed_space, sort_word, word_tuples)

F = Fraction

# The gradings the tests pair bidegrees (parity, Z-degree) in: the parity
# grading of the reversed side W, the bidegree grading of V (the library's
# one), and the shifted grading of the modified bracket.
PARITY_ONLY = "parity_only"
PRODUCT_FORM = "product_form"
SHIFTED_FORM = "shifted_form"


def grading_pair(form, bid_a, bid_b):
    """The Z2 pairing <a,b> of two bidegrees under the grading form."""
    pa, da = bid_a
    pb, db = bid_b
    if form == PARITY_ONLY:
        return (pa * pb) & 1
    if form == PRODUCT_FORM:
        return (pa * pb + da * db) & 1
    if form == SHIFTED_FORM:
        return ((pa + da) * (pb + db)) & 1
    raise ValueError("unknown grading form %r" % form)


def pair(ip, u, v):
    """<u, v> under the inner product ip, for sparse vectors or basis
    indices."""
    u = u if isinstance(u, dict) else {u: 1}
    v = v if isinstance(v, dict) else {v: 1}
    acc = ip.space.field(0)
    for i, a in u.items():
        for j, b in v.items():
            acc = acc + a * ip.matrix[i][j] * b
    return acc


def make_cochain(space, flavor, degree, parity, entries):
    coeffs = {}
    for t, vec in entries.items():
        coeffs[tuple(space.index(n) for n in t)] = {
            space.index(b): F(c) for b, c in vec.items()}
    return Cochain(space, flavor, degree, parity, coeffs)


def random_cochain(space, flavor, degree, parity, rng, density=0.6, span=3,
                   denominators=None):
    """Parity-homogeneous random cochain with small integer entries in the
    space's field, each divided by one of ``denominators`` when given; a
    symmetric one is the oracle's ``WCochain``."""
    coeffs = {}
    w_side = flavor == SYMMETRIC
    for t in (word_tuples if w_side else canonical_tuples)(space, flavor,
                                                           degree):
        tp = word_parity(space, t)
        vec = {}
        for j in range(space.dim):
            if (space.parities[j] ^ tp) == parity and rng.random() < density:
                c = space.field(rng.randint(-span, span))
                if denominators:
                    c = c / rng.choice(denominators)
                if c:
                    vec[j] = c
        if vec:
            coeffs[t] = vec
    return (WCochain if w_side else Cochain)(space, flavor, degree, parity,
                                             coeffs)


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
    return all(f.value(t)
               == rotation_reorder_sign(par, t, i) * f.value(t[i:] + t[:i])
               for t in itertools.product(range(f.space.dim), repeat=f.arity)
               for i in range(1, f.arity))


def cyclic_basis_cochains(space, flavor, degree):
    """The vectors of ``cyclic_scalar_basis`` as ScalarCochains, each
    orbit's int signs read in the space's field, as a representative
    holds them (over F_2 an int -1 is 1)."""
    orbits, pivots = cyclic_scalar_basis(space, flavor, degree)
    return [ScalarCochain(space, flavor, degree + 1, word_parity(space, t),
                          {u: space.field(e) for u, e in orbit.items()})
            for orbit, t in zip(orbits, pivots)]


def cyclic_scalar_basis_reference(space, degree):
    """The tensor cyclic basis by a scan of every tuple: a tuple least among
    its rotations gives the orbit {rotation: its rotation sign}, dropped
    when two rotations reach one tuple with different signs in the field.
    Returns (list of ScalarCochain, list of pivot tuples)."""
    arity = degree + 1
    basis, pivots = [], []
    for t in itertools.product(range(space.dim), repeat=arity):
        coeffs = _rotation_orbit(t, space.parities, space.field)
        if coeffs is not None:
            basis.append(ScalarCochain(space, TENSOR, arity,
                                       word_parity(space, t), coeffs))
            pivots.append(t)
    return basis, pivots


def _rotation_orbit(t, par, field):
    """{rotation of t: its rotation sign}, or None when t is not least in
    its orbit or two rotations reach one tuple with different signs."""
    rotations = [t[i:] + t[:i] for i in range(len(t))]
    if min(rotations) < t:
        return None
    coeffs = {}
    for i, u in enumerate(rotations):
        c = field(rotation_reorder_sign(par, t, i))
        if coeffs.setdefault(u, c) != c:
            return None
    return coeffs


# --- permutation signs, by adjacent swaps ------------------------------------

def check_permutation(images):
    n = len(images)
    if sorted(images) != list(range(1, n + 1)):
        raise ValueError("not a permutation of 1..%d: %r" % (n, images))


def _swap_signs(images, parities):
    """(-1)^sigma and epsilon(sigma; v), read off the adjacent swaps that
    bubble-sort the permuted word v_sigma(1)..v_sigma(n) back into order:
    each swap gives -1, and (-1)^{|a||b|} for the two letters it moves."""
    if len(images) != len(parities):
        raise ValueError("permutation size %d != parity vector size %d"
                         % (len(images), len(parities)))
    check_permutation(images)
    word = list(images)
    sign = koszul = 1
    for end in range(len(word) - 1, 0, -1):
        for i in range(end):
            if word[i] > word[i + 1]:
                a, b = word[i], word[i + 1]
                word[i], word[i + 1] = b, a
                sign = -sign
                if parities[a - 1] & parities[b - 1]:
                    koszul = -koszul
    return sign, koszul


def permutation_sign(images):
    """Ordinary sign (-1)^sigma."""
    return _swap_signs(images, (0,) * len(images))[0]


def koszul_sign(images, parities):
    """The sign epsilon(sigma; v_1..v_n): one factor (-1)^{|a||b|} per
    adjacent swap that sorts the permuted word back into order."""
    return _swap_signs(images, parities)[1]


def reorder_sign(flavor, images, parities):
    """The sign of v_sigma(1)..v_sigma(n) against v_1..v_n in the symmetric
    (epsilon(sigma; v)) or exterior (epsilon(sigma; v) (-1)^sigma)
    algebra."""
    sign, koszul = _swap_signs(images, parities)
    return koszul * sign if flavor == EXTERIOR else koszul


def rotation_reorder_sign(par, t, i):
    """The sign of the rotation t -> t[i:] + t[:i]: its exterior
    reordering sign, by adjacent swaps."""
    images = tuple(range(i + 1, len(t) + 1)) + tuple(range(1, i + 1))
    return reorder_sign(EXTERIOR, images, [par[x] for x in t])


# --- words, extensions and the plain bracket ----------------------------------

class Word:
    """A coefficient times a pure word in T(V), S(V) or /\\V.

    Stored in canonical form: symmetric and exterior letters nondecreasing,
    with the reordering sign (``oracle.sort_word``) absorbed into the
    coefficient.
    """

    def __init__(self, space, flavor, letters, coefficient=1):
        if flavor not in (TENSOR, SYMMETRIC, EXTERIOR):
            raise ValueError("unknown flavor %r" % flavor)
        if len(letters) == 0:
            raise ValueError("words have degree >= 1")
        self.space = space
        self.flavor = flavor
        cw = sort_word(flavor, letters, space.parities)
        if cw is None:
            self.letters = tuple(sorted(letters))
            self.coefficient = 0 * coefficient
        else:
            sign, canon = cw
            self.letters = canon
            self.coefficient = sign * coefficient

    @property
    def degree(self):
        return len(self.letters)

    @property
    def parity(self):
        return word_parity(self.space, self.letters)

    @property
    def bidegree(self):
        return (self.parity, self.degree)

    def is_zero(self):
        return not self.coefficient


def extensions(gen, n):
    """The library's extension of ``gen`` on the canonical words of degree
    n, as {word: {canonical output letters: coefficient}}: the terms that
    ``coderivation.terms`` yields on every canonical word of the degree it
    lands in, summed per target."""
    out = {}
    if n >= gen.degree - 1:
        words = canonical_tuples(gen.space, gen.flavor, n - gen.degree + 1)
        for t, w, b, h, signs in terms(words, heads_of(gen), gen.flavor,
                                       gen.space.parities):
            vec_add(out.setdefault(t, {}),
                    {w: signs[gen.parity] * gen.coeffs[h][b]})
    return {t: vec for t, vec in out.items() if vec}


def extend_on(gen, letters, form):
    """The extension of ``gen`` on a canonical word: the library's in the
    bidegree grading (PRODUCT_FORM), the oracle's in the parity grading of
    the reversed side (PARITY_ONLY)."""
    if form == PRODUCT_FORM:
        return extensions(gen, len(letters)).get(tuple(letters), {})
    return extend_letters_reference(gen, letters, bidegree=False)


def bracket(a, b):
    """The plain bracket [a, b] = a∘b - (-1)^{<a,b>} b∘a of the bidegree
    grading, <a,b> = |a||b| + (k-1)(l-1)."""
    odd = grading_pair(PRODUCT_FORM, a.bidegree, b.bidegree)
    return add(compose(a, b), scale(1 if odd else -1, compose(b, a)))


def structure_in(flavor, space, parts, convention, **kw):
    """The structure of a family written in the convention: the core reads
    a v_of_w family through σ, as ``cli.build_structure`` does."""
    if convention == V_OF_W:
        parts = convert_convention_parts(parts)
    return InfinityStructure(flavor, space, parts, **kw)


def family_bracket_in(fam_a, fam_b, convention):
    """{a, b} of families in the convention, as the command line computes
    it: the core's bracket for w_of_v, and σ{σa, σb} for v_of_w."""
    if convention == W_OF_V:
        return family_bracket(fam_a, fam_b)
    return convert_convention_parts(family_bracket(
        convert_convention_parts(fam_a), convert_convention_parts(fam_b)))


def bracket_in(a, b, convention):
    """{a, b} of two cochains in the convention (``family_bracket_in``)."""
    if convention == W_OF_V:
        return modified_bracket(a, b)
    n = a.degree + b.degree - 1
    return family_bracket_in({a.degree: a}, {b.degree: b}, convention).get(
        n, zero_cochain(a.space, a.flavor, n, (a.parity + b.parity) & 1))


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
        for head in itertools.combinations(range(n), k):
            sigma = head + tuple(i for i in range(n) if i not in head)
            s = reorder_sign(word.flavor, tuple(i + 1 for i in sigma),
                             letter_par)
            lhs = tuple(word.letters[i] for i in sigma[:k])
            rhs = tuple(word.letters[i] for i in sigma[k:])
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


def restrict(gen, l, form=PRODUCT_FORM):
    """The restriction of ``gen``'s extension in the grading ``form``
    (``extend_on``); a symmetric generator takes the parity grading."""
    if l < 1:
        raise ValueError("restriction lands in degree >= 1")
    if gen.flavor == SYMMETRIC:
        form = PARITY_ONLY
    n = gen.degree + l - 1
    matrix = {}
    for t in word_tuples(gen.space, gen.flavor, n):
        row = extend_on(gen, t, form)
        if row:
            matrix[t] = row
    return Restriction(gen.degree, l, matrix)


def eta_word(word, w_space=None):
    """Transport a word over V to the reversed side."""
    if w_space is None:
        w_space = reversed_space(word.space)
    sign = eta_sign([word.space.parities[i] for i in word.letters])
    return Word(w_space, reversed_flavor(word.flavor), word.letters,
                sign * word.coefficient)


def eta_inverse_word(word, v_space=None):
    """Transport a word over W back to V; the sign is computed from the
    V-side parities, i.e. the flipped ones."""
    if v_space is None:
        v_space = reversed_space(word.space)
    sign = eta_sign([v_space.parities[i] for i in word.letters])
    return Word(v_space, reversed_flavor(word.flavor), word.letters,
                sign * word.coefficient)


def check_extension_conjugation(mu, n):
    """Compare the two extensions of a homogeneous cochain on degree-n words:
    conjugating the oracle's parity-graded extension on the reversed side
    must equal (-1)^{(n-k)|mu|} times the library's bidegree-graded
    extension on the V side."""
    space = mu.space
    k = mu.degree
    if n < 1:
        raise ValueError("need word degree >= 1")
    delta = conjugate_part(mu, W_OF_V, to_reversed=True)
    w_space = delta.space
    sign = -1 if ((n - k) * mu.parity) & 1 else 1
    table = extensions(mu, n)
    for t in canonical_tuples(space, mu.flavor, n):
        word = Word(space, mu.flavor, t, 1)
        if word.is_zero():
            continue
        # around: eta, extend on the reversed side, eta back
        w_word = eta_word(word, w_space)
        around = {}
        for letters, c in extend_letters_reference(
                delta, w_word.letters, bidegree=False).items():
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
        for letters, c in table.get(t, {}).items():
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
    return conjugate_family(s.parts, W_OF_V, to_reversed=True)


def reversed_residual(parts_w, n):
    """The coefficients of the degree-n component of delta ∘ delta on the
    reversed side: the sum of delta_a ∘ delta_{b a} over a+b = n+1, in the
    oracle's parity grading, no extra signs."""
    acc = {}
    for a, outer in parts_w.items():
        inner = parts_w.get(n + 1 - a)
        if inner is None:
            continue
        for t, vec in compose_reference(outer, inner,
                                        bidegree=False).coeffs.items():
            vec_add(acc.setdefault(t, {}), vec)
            if not acc[t]:
                del acc[t]
    return acc


def reversed_side_ok(s):
    """Third validation route: the conjugated family squares to zero on the
    reversed side."""
    parts_w = reversed_parts(s)
    top = max(parts_w, default=0)
    return not any(reversed_residual(parts_w, n) for n in range(1, 2 * top))


# --- basis changes ----------------------------------------------------------

def _transport(c, g, ginv):
    """The cochain c in the basis f_i = sum_k g[k][i] e_k: its value on f_t
    is ginv applied to c(g f_t1, ..., g f_tk)."""
    n = c.space.dim
    cols = [{k: g[k][i] for k in range(n) if g[k][i]} for i in range(n)]
    coeffs = {}
    for t in canonical_tuples(c.space, c.flavor, c.degree):
        w = evaluate(c, [cols[i] for i in t])
        vec = {}
        for a in range(n):
            x = sum((ginv[a][b] * y for b, y in w.items()), c.space.field(0))
            if x:
                vec[a] = x
        if vec:
            coeffs[t] = vec
    return Cochain(c.space, c.flavor, c.degree, c.parity, coeffs)


def shear(af, count, seed):
    """A copy of the parsed file af in the basis f = e G, where G is the
    product of ``count`` elementary integer shears f_i = e_i + c e_j drawn
    from ``seed`` (i != j of one parity, c in +-1, +-2).  Every map, the
    inner product and every deformation are carried along by G and its
    exact inverse, so the copy is the same structure with denser entries,
    and every invariant of it is the same."""
    rng = random.Random(seed)
    space = af.space
    n = space.dim
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    ginv = [row[:] for row in g]
    pairs = [(i, j) for i in range(n) for j in range(n)
             if i != j and space.parities[i] == space.parities[j]]
    for _ in range(count if pairs else 0):
        i, j = rng.choice(pairs)
        c = rng.choice((-2, -1, 1, 2))
        for row in g:                   # G <- G (1 + c E_ji)
            row[i] += c * row[j]
        ginv[j] = [x - c * y for x, y in zip(ginv[j], ginv[i])]
    return _change_basis(af, g, ginv)


RESCALE_FACTORS = (Fraction(1, 2), Fraction(2, 3), Fraction(-3, 2),
                   Fraction(3), Fraction(-1, 3))


def rescale(af, seed):
    """A copy of the parsed file af in the basis f_i = d_i e_i, each d_i
    drawn from ``seed`` among ``RESCALE_FACTORS`` (1/2, 2/3, -3/2, 3,
    -1/3), carried through every map, the inner product and every
    deformation as ``shear`` does: the same structure, with non-integral
    entries."""
    rng = random.Random(seed)
    field, n = af.space.field, af.space.dim
    d = [field(rng.choice(RESCALE_FACTORS)) for _ in range(n)]
    g = [[d[i] if i == j else field(0) for j in range(n)] for i in range(n)]
    ginv = [[1 / d[i] if i == j else field(0) for j in range(n)]
            for i in range(n)]
    return _change_basis(af, g, ginv)


def _change_basis(af, g, ginv):
    """The parsed file af in the basis f = e G, with G = g and its inverse
    ginv carried through every map, the inner product and every
    deformation."""
    space = af.space
    n = space.dim

    def fam(parts):
        return {k: _transport(c, g, ginv) for k, c in parts.items()}
    ip = None
    if af.inner_product is not None:
        m = af.inner_product.matrix
        ip = InnerProduct(space, [[sum(g[k][i] * m[k][l] * g[l][j]
                                       for k in range(n) for l in range(n))
                                   for j in range(n)] for i in range(n)])
    return AlgebraFile(space, af.flavor, fam(af.parts), dict(af.part_names),
                       ip, {name: (parity, fam(parts)) for name, (parity, parts)
                            in af.deformations.items()})


def matrix_algebra_text(n, field="Q"):
    """The input file of M_n: m(eij, ejk) = eik and the trace form
    <eij, eji> = 1."""
    r = range(1, n + 1)
    return "\n".join(
        ["field " + field, "flavor tensor", "space"]
        + ["  basis e%d%d even" % (i, j) for i in r for j in r] + ["map m 2"]
        + ["  m(e%d%d,e%d%d) = e%d%d" % (i, j, j, k, i, k)
           for i in r for j in r for k in r]
        + ["inner_product"]
        + ["  <e%d%d,e%d%d> = 1" % (i, j, j, i) for i in r for j in r]) + "\n"


def gl_text(n, field="Q"):
    """The input file of gl_n: [eij, ekl] = d(j,k) eil - d(l,i) ekj on the
    canonical pairs, as in the benchmark's gl2 and gl3."""
    e = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    products = []
    for a, (i, j) in enumerate(e):
        for k, l in e[a + 1:]:
            terms = (["e%d%d" % (i, l)] if j == k else []) + (
                ["-e%d%d" % (k, j)] if l == i else [])
            if terms:
                products.append("  l(e%d%d,e%d%d) = %s" % (
                    i, j, k, l, " ".join(terms).replace(" -", " - ")))
    return "\n".join(["field " + field, "flavor exterior", "space"]
                     + ["  basis e%d%d even" % ij for ij in e]
                     + ["map l 2"] + products) + "\n"


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
