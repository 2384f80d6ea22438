"""Independent brute-force cross-checks, used only by the test suite.

Everything here deliberately avoids the sign machinery of the main modules:
Koszul signs come from the closed-form product over inversions instead of
transposition decomposition, words are sorted and cochains read locally
(``sort_word``), the extension and composition are re-derived over every
canonical word (``splits_reference``, ``extend_letters_reference``,
``compose_reference``), and rank computation is a plain dense elimination.
The reversed side W, with its symmetric coalgebra and its parity-only
grading, lives here alone: the library computes on V.  Dense and
unoptimized on purpose.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .cochain import Cochain, ScalarCochain, add, canonical_tuples, scale
from .coderivation import CONVENTIONS, V_OF_W, W_OF_V
from .graded import EXTERIOR, TENSOR, GradedSpace

# the flavor of the reversed side of an exterior structure
SYMMETRIC = "symmetric"


@dataclass
class OracleReport:
    name: str
    agreement: bool
    first_discrepancy: object = None

    def __post_init__(self):
        if self.agreement == (self.first_discrepancy is not None):
            raise ValueError("agreement is false iff a discrepancy is present")


def compare_cochains(name, got, want, sign=1):
    """OracleReport for an exact comparison got == sign * want."""
    keys = sorted(set(got.coeffs) | set(want.coeffs))
    for t in keys:
        gv = got.coeffs.get(t, {})
        wv = want.coeffs.get(t, {})
        for b in sorted(set(gv) | set(wv)):
            g = gv.get(b, 0)
            w = sign * wv.get(b, 0)
            if g != w:
                return OracleReport(name, False, ((t, b), w, g))
    return OracleReport(name, True)


def koszul_sign_closed_form(images, parities):
    """epsilon(sigma; v) as the product over inversions of sigma of
    (-1)^{|v_{sigma(i)}| |v_{sigma(j)}|}."""
    n = len(images)
    sign = 1
    for a in range(n):
        for b in range(a + 1, n):
            if images[a] > images[b]:
                if parities[images[a] - 1] & parities[images[b] - 1]:
                    sign = -sign
    return sign


def dense_rank(matrix, field):
    """Plain forward elimination, no pivot normalization tricks."""
    if not matrix or not matrix[0]:
        return 0
    a = [row[:] for row in matrix]
    rows, cols = len(a), len(a[0])
    rank = 0
    for c in range(cols):
        piv = None
        for r in range(rank, rows):
            if a[r][c]:
                piv = r
                break
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for r in range(rank + 1, rows):
            if a[r][c]:
                f = a[r][c] / a[rank][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


def _reorder_sign(flavor, images, parities):
    """The sign of v_sigma(1)..v_sigma(n) against v_1..v_n in the symmetric
    algebra (the closed-form Koszul sign) or the exterior algebra (times
    (-1)^sigma); parities[i - 1] is the parity of v_i."""
    sign = koszul_sign_closed_form(images, parities)
    n = len(images)
    if flavor == EXTERIOR and sum(images[a] > images[b] for a in range(n)
                                  for b in range(a + 1, n)) & 1:
        sign = -sign
    return sign


def sort_word(flavor, letters, parities):
    """Sort the letters of a word of T, S or /\\; returns (sign, sorted
    letters), or None when a repeated odd letter kills a symmetric word or
    a repeated even letter an exterior one.  Local re-derivation: a factor
    (-1)^{|u||v|} per pair u > v out of order, and -1 more per pair in the
    exterior algebra."""
    if flavor == TENSOR:
        return 1, tuple(letters)
    n = len(letters)
    sign = 1
    for a in range(n):
        for b in range(a + 1, n):
            if letters[a] > letters[b]:
                if flavor == EXTERIOR:
                    sign = -sign
                if parities[letters[a]] & parities[letters[b]]:
                    sign = -sign
    srt = tuple(sorted(letters))
    dead = 1 if flavor == SYMMETRIC else 0
    for x, y in zip(srt, srt[1:]):
        if x == y and parities[x] == dead:
            return None
    return sign, srt


def word_tuples(space, flavor, degree):
    """The canonical words of a degree in lexicographic order: every tuple
    (tensor), or every multiset less those ``sort_word`` kills."""
    letters = range(space.dim)
    if flavor == TENSOR:
        return tuple(itertools.product(letters, repeat=degree))
    return tuple(t for t in itertools.combinations_with_replacement(
        letters, degree) if sort_word(flavor, t, space.parities) is not None)


def _value(coeffs, letters, parities, flavor=EXTERIOR):
    """Value of a cochain with these coefficients and this flavor (exterior
    by default) on an arbitrary tuple, through ``sort_word``."""
    res = sort_word(flavor, tuple(letters), parities)
    if res is None:
        return {}
    sign, srt = res
    vec = coeffs.get(srt)
    if not vec:
        return {}
    return {b: sign * c for b, c in vec.items()}


# --- extension and composition over every canonical word ------------------
#
# A degree-k cochain d extends to a coderivation; on a word it is a signed
# sum over insertion positions (tensor) or unshuffles (symmetric,
# exterior).  In the bidegree grading of V a tensor insertion after i
# letters of parity p carries (-1)^{p|d| + i(k-1)}; in the parity grading
# of the reversed side W it carries (-1)^{p|d|} alone.  Unshuffles carry
# their reordering sign.

def splits_reference(flavor, letters, k, par, bidegree=True):
    """The terms of the extension of a degree-k cochain on a canonical word,
    as (signs, head, prefix, suffix): tensor insertions by position, and
    every unshuffle of the positions, each counted on its own, with
    ``bidegree`` False for the parity grading of W."""
    n = len(letters)
    if flavor == TENSOR:
        for i in range(n - k + 1):
            even = -1 if bidegree and i * (k - 1) & 1 else 1
            odd = -even if sum(par[x] for x in letters[:i]) & 1 else even
            yield (even, odd), letters[i:i + k], letters[:i], letters[i + k:]
        return
    letter_par = [par[x] for x in letters]
    for head in itertools.combinations(range(n), k):
        tail = tuple(i for i in range(n) if i not in head)
        s = _reorder_sign(flavor, tuple(i + 1 for i in head + tail),
                          letter_par)
        yield ((s, s), tuple(letters[i] for i in head), (),
               tuple(letters[i] for i in tail))


def extend_letters_reference(gen, letters, bidegree=True):
    """The extension of ``gen`` on a canonical word as {canonical output
    letters: coefficient}, each head and landing word sorted by
    ``sort_word``."""
    par = gen.space.parities
    out = {}
    for signs, head, pre, post in splits_reference(gen.flavor, letters,
                                                   gen.degree, par, bidegree):
        sign = signs[gen.parity]
        for b, c in _value(gen.coeffs, head, par, gen.flavor).items():
            res = sort_word(gen.flavor, pre + (b,) + post, par)
            if res is not None:
                _acc(out, res[1], sign * res[0] * c)
    return out


def compose_reference(outer, inner, bidegree=True):
    """outer ∘ (extension of inner), read on every canonical word of degree
    outer.degree + inner.degree - 1; a cochain of outer's class."""
    n = outer.degree + inner.degree - 1
    par = outer.space.parities
    coeffs = {}
    for t in word_tuples(outer.space, outer.flavor, n):
        acc = {}
        for mid, c in extend_letters_reference(inner, t, bidegree).items():
            for o, x in _value(outer.coeffs, mid, par, outer.flavor).items():
                _acc(acc, o, c * x)
        if acc:
            coeffs[t] = acc
    return type(outer)(outer.space, outer.flavor, n,
                       (outer.parity + inner.parity) & 1, coeffs)


def _mult(m2, i, j):
    return m2.coeffs.get((i, j), {})


def hochschild_coboundary(m2, phi):
    """The classical bar-complex coboundary for an associative product,
    with the graded first term:

    (d phi)(a_1..a_{p+1}) = (-1)^{|a_1||phi|} a_1 phi(a_2..a_{p+1})
        + sum_i (-1)^i phi(a_1,..,a_i a_{i+1},..,a_{p+1})
        + (-1)^{p+1} phi(a_1..a_p) a_{p+1}
    """
    space = m2.space
    par = space.parities
    p = phi.degree
    out = {}
    for t in itertools.product(range(space.dim), repeat=p + 1):
        acc = {}
        # a_1 . phi(rest)
        inner = phi.coeffs.get(t[1:], {})
        sgn = -1 if (par[t[0]] * phi.parity) & 1 else 1
        for b, c in inner.items():
            for bb, cc in _mult(m2, t[0], b).items():
                cur = acc.get(bb, 0) + sgn * c * cc
                if cur:
                    acc[bb] = cur
                else:
                    acc.pop(bb, None)
        # inner multiplications
        for i in range(1, p + 1):
            sgn = -1 if i & 1 else 1
            prod = _mult(m2, t[i - 1], t[i])
            for b, c in prod.items():
                args = t[:i - 1] + (b,) + t[i + 1:]
                for bb, cc in phi.coeffs.get(args, {}).items():
                    cur = acc.get(bb, 0) + sgn * c * cc
                    if cur:
                        acc[bb] = cur
                    else:
                        acc.pop(bb, None)
        # phi(front) . a_{p+1}
        sgn = -1 if (p + 1) & 1 else 1
        front = phi.coeffs.get(t[:p], {})
        for b, c in front.items():
            for bb, cc in _mult(m2, b, t[p]).items():
                cur = acc.get(bb, 0) + sgn * c * cc
                if cur:
                    acc[bb] = cur
                else:
                    acc.pop(bb, None)
        if acc:
            out[t] = acc
    return Cochain(space, TENSOR, p + 1, (phi.parity + m2.parity) & 1, out)


def chevalley_eilenberg_coboundary(l2, phi):
    """The classical Lie-algebra coboundary with adjoint coefficients on an
    all-even space:

    (d phi)(x_1..x_{p+1}) = sum_i (-1)^{i+1} [x_i, phi(.. no x_i ..)]
        + sum_{i<j} (-1)^{i+j} phi([x_i,x_j], .. no x_i, x_j ..)
    """
    space = l2.space
    par = space.parities
    if any(par):
        raise ValueError("this oracle is written for all-even spaces")
    p = phi.degree

    def bracket_vec(i, j):
        return _value(l2.coeffs, (i, j), par)

    out = {}
    for t in canonical_tuples(space, EXTERIOR, p + 1):
        acc = {}
        for i in range(p + 1):
            rest = t[:i] + t[i + 1:]
            sgn = 1 if i % 2 == 0 else -1  # (-1)^{i+1} with 1-based i
            for b, c in _value(phi.coeffs, rest, par).items():
                for bb, cc in bracket_vec(t[i], b).items():
                    cur = acc.get(bb, 0) + sgn * c * cc
                    if cur:
                        acc[bb] = cur
                    else:
                        acc.pop(bb, None)
        for i in range(p + 1):
            for j in range(i + 1, p + 1):
                sgn = 1 if (i + j + 2) % 2 == 0 else -1  # (-1)^{i+j}, 1-based
                rest = tuple(t[r] for r in range(p + 1) if r != i and r != j)
                for b, c in bracket_vec(t[i], t[j]).items():
                    args = (b,) + rest
                    for bb, cc in _value(phi.coeffs, args, par).items():
                        cur = acc.get(bb, 0) + sgn * c * cc
                        if cur:
                            acc[bb] = cur
                        else:
                            acc.pop(bb, None)
        if acc:
            out[t] = acc
    return Cochain(space, EXTERIOR, p + 1, (phi.parity + l2.parity) & 1, out)


def chevalley_eilenberg_trivial_coboundary(l2, f):
    """Trivial-coefficient coboundary on an all-even space:
    (d f)(x_1..x_{p+1}) = sum_{i<j} (-1)^{i+j} f([x_i,x_j], .. no i, j ..)."""
    space = l2.space
    par = space.parities
    if any(par):
        raise ValueError("this oracle is written for all-even spaces")
    arity = f.arity + 1

    def f_value(letters):
        res = sort_word(EXTERIOR, tuple(letters), par)
        if res is None:
            return 0
        sign, srt = res
        c = f.coeffs.get(srt, 0)
        return sign * c if c else 0

    out = {}
    for t in itertools.combinations(range(space.dim), arity):
        acc = space.field(0)
        for i in range(arity):
            for j in range(i + 1, arity):
                sgn = 1 if (i + j + 2) % 2 == 0 else -1
                rest = tuple(t[r] for r in range(arity) if r != i and r != j)
                for b, c in _value(l2.coeffs, (t[i], t[j]), par).items():
                    acc = acc + sgn * c * f_value((b,) + rest)
        if acc:
            out[t] = acc
    return ScalarCochain(space, EXTERIOR, arity, 0, out)


def lie_trivial_cohomology_dims(l2, max_degree):
    """Dimensions of the trivial-coefficient cohomology in degrees
    0..max_degree, assembled densely and ranked with the local elimination."""
    space = l2.space
    field = space.field

    def basis_tuples(j):
        if j == 0:
            return [()]
        return list(itertools.combinations(range(space.dim), j))

    def delta_matrix(j):
        # rows: degree j+1 tuples, cols: degree j tuples
        src = basis_tuples(j)
        tgt = basis_tuples(j + 1)
        tgt_index = {t: r for r, t in enumerate(tgt)}
        cols = []
        for t in src:
            if j == 0:
                cols.append([field(0)] * len(tgt))
                continue
            f = ScalarCochain(space, EXTERIOR, j, 0, {t: field(1)})
            df = chevalley_eilenberg_trivial_coboundary(l2, f)
            col = [field(0)] * len(tgt)
            for u, c in df.coeffs.items():
                col[tgt_index[u]] = c
            cols.append(col)
        return [[cols[c][r] for c in range(len(src))] for r in range(len(tgt))]

    dims = {}
    ranks = {}
    for j in range(0, max_degree + 1):
        ranks[j] = dense_rank(delta_matrix(j), field)
    for j in range(0, max_degree + 1):
        kernel = len(basis_tuples(j)) - ranks[j]
        image = ranks[j - 1] if j > 0 else 0
        dims[j] = kernel - image
    return dims


def first_order_residuals(s, lam, param, convention):
    """Expand the structure relations of m + u*lambda symbolically, discard
    u^2, and return the u-linear residual per relation degree as
    {n: {tuple: vector}}, in the convention of s.parts and lambda.
    Re-derives every extension sign locally."""
    space = s.space
    par = space.parities
    field = space.field
    parts = s.parts
    degrees = sorted(set(list(parts) + list(lam)))
    if not degrees:
        return {}
    top = max(degrees)

    residuals = {}
    for n in range(1, 2 * top):
        per_tuple = {}
        for t in canonical_tuples(space, s.flavor, n):
            acc = {}
            for a in degrees:
                b = n + 1 - a
                if b not in degrees:
                    continue
                base = relation_sign_reference(a, b, convention)
                m_a = parts.get(a)
                m_b = parts.get(b)
                l_a = lam.get(a)
                l_b = lam.get(b)
                if s.flavor == TENSOR:
                    for i in range(n - b + 1):
                        pre = sum(par[x] for x in t[:i])
                        e = pre * b + i * (b - 1)
                        ext = -base if e & 1 else base
                        win, prefix, suffix = t[i:i + b], t[:i], t[i + b:]
                        if l_a is not None and m_b is not None:
                            for bb, c in m_b.coeffs.get(win, {}).items():
                                val = l_a.coeffs.get(prefix + (bb,) + suffix, {})
                                for o, cc in val.items():
                                    _acc(acc, o, ext * c * cc)
                        if m_a is not None and l_b is not None:
                            u_move = param * ((a & 1) + pre)
                            ext2 = -ext if u_move & 1 else ext
                            for bb, c in l_b.coeffs.get(win, {}).items():
                                val = m_a.coeffs.get(prefix + (bb,) + suffix, {})
                                for o, cc in val.items():
                                    _acc(acc, o, ext2 * c * cc)
                else:
                    idx = list(range(n))
                    for head_pos in itertools.combinations(idx, b):
                        tail_pos = [x for x in idx if x not in head_pos]
                        images = tuple(x + 1 for x in head_pos) + tuple(
                            x + 1 for x in tail_pos)
                        sgn = base * _reorder_sign(EXTERIOR, images,
                                                   [par[x] for x in t])
                        head = tuple(t[x] for x in head_pos)
                        tail = tuple(t[x] for x in tail_pos)
                        if l_a is not None and m_b is not None:
                            for bb, c in _value(m_b.coeffs, head, par).items():
                                for o, cc in _value(
                                        l_a.coeffs, (bb,) + tail, par).items():
                                    _acc(acc, o, sgn * c * cc)
                        if m_a is not None and l_b is not None:
                            u_move = param * (a & 1)
                            sgn2 = -sgn if u_move & 1 else sgn
                            for bb, c in _value(l_b.coeffs, head, par).items():
                                for o, cc in _value(
                                        m_a.coeffs, (bb,) + tail, par).items():
                                    _acc(acc, o, sgn2 * c * cc)
            if acc:
                per_tuple[t] = acc
        if per_tuple:
            residuals[n] = per_tuple
    return residuals


def _acc(acc, key, val):
    if not val:
        return
    cur = acc.get(key, 0) + val
    if cur:
        acc[key] = cur
    else:
        acc.pop(key, None)


# --- parity reversion --------------------------------------------------------
#
# The reversion W of V keeps the basis and flips every parity; the
# degreewise isomorphism eta sends a word v_1...v_n to the same letters over
# W with the closed-form sign (-1)^{(n-1)|v_1| + (n-2)|v_2| + ... +
# |v_{n-1}|}.  Tensor words map to tensor words, exterior words to symmetric
# ones.  Conjugating a family of cochains through eta trades the bidegree
# grading on the V side for the plain parity grading on the W side, which is
# how the tests check a structure on the reversed side.

class WCochain:
    """A homogeneous cochain on the reversed side W, tensor or symmetric,
    stored like a ``Cochain`` on the canonical words of ``sort_word``.  The
    extension and composition on W are ``extend_letters_reference`` and
    ``compose_reference`` with ``bidegree`` False."""

    def __init__(self, space, flavor, degree, parity, coeffs=None):
        if flavor == EXTERIOR:
            raise ValueError("exterior coderivations need the bidegree grading")
        if flavor not in (TENSOR, SYMMETRIC):
            raise ValueError("the reversed side is tensor or symmetric, "
                             "not %r" % flavor)
        self.space = space
        self.flavor = flavor
        self.degree = degree
        self.parity = parity
        self.coeffs = {}
        for t, vec in (coeffs or {}).items():
            if sort_word(flavor, t, space.parities) != (1, t):
                raise ValueError("non-canonical word %r" % (t,))
            vec = {b: c for b, c in vec.items() if c}
            if vec:
                self.coeffs[t] = vec

    def is_zero(self):
        return not self.coeffs

    def value(self, letters):
        """Value on a pure tuple, reordered through ``sort_word``."""
        return _value(self.coeffs, letters, self.space.parities,
                          self.flavor)


def reversed_space(space):
    """The same basis with all parities flipped."""
    return GradedSpace(space.names, tuple(1 - p for p in space.parities),
                       space.field)


def reversed_flavor(flavor):
    if flavor == TENSOR:
        return TENSOR
    if flavor == EXTERIOR:
        return SYMMETRIC
    if flavor == SYMMETRIC:
        return EXTERIOR
    raise ValueError("unknown flavor %r" % flavor)


def eta_sign(parities):
    """(-1)^{(n-1)p_1 + (n-2)p_2 + ... + p_{n-1}} for letter parities p_i."""
    n = len(parities)
    e = sum((n - 1 - i) * parities[i] for i in range(n - 1))
    return -1 if e & 1 else 1


def conjugate_part(part, convention=W_OF_V, to_reversed=True):
    """Conjugate one cochain through eta: a ``WCochain`` on W, or with
    ``to_reversed`` False a part on W back to a ``Cochain`` on V.

    With delta = eta_1 ∘ m_k ∘ eta_k^{-1}, the value on a basis tuple picks
    up (-1)^e with e the eta_k exponent; w_of_v reads the exponent off the
    V parities, v_of_w off the W parities.  The same sign works in both
    directions.  Parities of the part shift by k - 1.
    """
    if convention not in CONVENTIONS:
        raise ValueError("unknown convention %r" % convention)
    space = part.space
    other = reversed_space(space)
    flavor = reversed_flavor(part.flavor)
    k = part.degree
    if to_reversed:
        v_parities = space.parities
    else:
        v_parities = other.parities
    coeffs = {}
    for t, vec in part.coeffs.items():
        pars = [v_parities[i] for i in t]
        if convention == V_OF_W:
            pars = [1 - p for p in pars]
        sign = eta_sign(pars)
        coeffs[t] = {b: sign * c for b, c in vec.items()}
    cls = WCochain if to_reversed else Cochain
    return cls(other, flavor, k, (part.parity + k - 1) & 1, coeffs)


def conjugate_family(parts, convention=W_OF_V, to_reversed=True):
    return {k: conjugate_part(c, convention, to_reversed)
            for k, c in parts.items()}


# --- the v_of_w reference ---------------------------------------------------
#
# The library computes in w_of_v alone and reaches v_of_w through the
# involution σ of ``convert_convention_parts``.  The sign rule of both
# conventions stays here, so that the tests can check σ against it.

def bracket_signs_reference(k, a_parity, l, b_parity, convention):
    """The signs of a∘b and of b∘a in {a_k, b_l} under the convention:
    a∘b - (-1)^{<a,b>} b∘a, with <a,b> = |a||b| + (k-1)(l-1), twisted by
    (-1)^{(k-1)|b|} under w_of_v and by (-1)^{(k-1)(|b|+l-1)} under v_of_w,
    which reads b's parity |b| + l - 1 on W, as ``conjugate_part`` reads the
    W parities under v_of_w."""
    if convention not in CONVENTIONS:
        raise ValueError("unknown convention %r" % convention)
    e = (k - 1) * (b_parity + (l - 1 if convention == V_OF_W else 0))
    twist = -1 if e & 1 else 1
    if (a_parity * b_parity + (k - 1) * (l - 1)) & 1:
        return twist, twist
    return twist, -twist


def relation_sign_reference(a, b, convention):
    """S(a, b), the sign of m_a∘m_b in the relations of an odd family."""
    return bracket_signs_reference(a, a & 1, b, b & 1, convention)[0]


def bracket_reference(a, b, convention):
    """{a, b} under the convention, composed by ``compose_reference``."""
    first, second = bracket_signs_reference(a.degree, a.parity, b.degree,
                                            b.parity, convention)
    return add(scale(first, compose_reference(a, b)),
               scale(second, compose_reference(b, a)))


def residual_reference(parts, n, convention):
    """The degree-n relation residual, the sum over a + b = n + 1 of
    S(a, b) m_a∘m_b, of a family in the convention, composed by
    ``compose_reference``; None when no pair of parts reaches degree n."""
    acc = None
    for a, outer in parts.items():
        inner = parts.get(n + 1 - a)
        if inner is not None:
            term = scale(relation_sign_reference(a, n + 1 - a, convention),
                         compose_reference(outer, inner))
            acc = term if acc is None else add(acc, term)
    return acc
