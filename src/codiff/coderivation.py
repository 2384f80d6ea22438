"""Extension of cochains to coderivations of T(V), S(V), /\\V and the
(modified) bracket of coderivations.

A degree-k cochain extends to a coderivation whose value on a degree-n word
is a signed sum over insertion positions (tensor) or unshuffles (symmetric,
exterior).  Tensor extensions come in two gradings: parity-only, where a
prefix of parity p contributes (-1)^{p |d|}, and the bidegree grading which
adds (-1)^{i(k-1)} for an insertion after i letters.  Symmetric extensions
require the parity grading, exterior extensions the bidegree grading.
"""

from __future__ import annotations

from .cochain import Cochain, add, scale, vec_add, zero_cochain
from .graded import (EXTERIOR, PARITY_ONLY, PRODUCT_FORM, SHIFTED_FORM,
                     SYMMETRIC, TENSOR, Word, canonical_word, grading_pair,
                     reorder_sign, unshuffles)

W_OF_V = "w_of_v"
V_OF_W = "v_of_w"
CONVENTIONS = (W_OF_V, V_OF_W)


def natural_mode(flavor):
    """The grading a coderivation theory of this flavor needs."""
    if flavor == SYMMETRIC:
        return PARITY_ONLY
    if flavor == EXTERIOR:
        return PRODUCT_FORM
    return PRODUCT_FORM  # tensor default: the bidegree grading on the V side


class CoderivationGenerator:
    """A cochain together with the grading mode of its extension."""

    def __init__(self, base, mode):
        self.base = base
        self.mode = mode
        if self.mode not in (PARITY_ONLY, PRODUCT_FORM):
            raise ValueError("extension mode must be parity_only or product_form")
        if self.base.flavor == SYMMETRIC and self.mode != PARITY_ONLY:
            raise ValueError("symmetric coderivations need the parity grading")
        if self.base.flavor == EXTERIOR and self.mode != PRODUCT_FORM:
            raise ValueError("exterior coderivations need the bidegree grading")


def extend_letters(gen, letters, mode):
    """Value of the extended coderivation of ``gen`` on a pure word, as a
    dict {output letters: coefficient}.  Zero when deg(word) < k."""
    space = gen.space
    par = space.parities
    k = gen.degree
    n = len(letters)
    out = {}
    if gen.flavor == TENSOR:
        for i in range(n - k + 1):
            e = sum(par[x] for x in letters[:i]) * gen.parity
            if mode == PRODUCT_FORM:
                e += i * (k - 1)
            sign = -1 if e & 1 else 1
            vec = gen.coeffs.get(tuple(letters[i:i + k]))
            if not vec:
                continue
            for b, c in vec.items():
                key = letters[:i] + (b,) + letters[i + k:]
                cur = out.get(key, 0) + sign * c
                if cur:
                    out[key] = cur
                else:
                    out.pop(key, None)
        return out
    letter_par = [par[x] for x in letters]
    if n < k:
        return out
    for sigma in unshuffles(k, n - k):
        s = reorder_sign(gen.flavor, sigma, letter_par)
        head = tuple(letters[sigma[i] - 1] for i in range(k))
        rest = tuple(letters[sigma[i] - 1] for i in range(k, n))
        vec = gen.value(head)
        if not vec:
            continue
        for b, c in vec.items():
            cw = canonical_word(gen.flavor, (b,) + rest, par)
            if cw is None:
                continue
            s2, canon = cw
            cur = out.get(canon, 0) + s * s2 * c
            if cur:
                out[canon] = cur
            else:
                out.pop(canon, None)
    return out


def extend(gen, word, mode=None):
    """The coderivation extension applied to a Word; a list of Words."""
    if isinstance(gen, CoderivationGenerator):
        gen, mode = gen.base, gen.mode
    if mode is None:
        mode = natural_mode(gen.flavor)
    if word.flavor != gen.flavor:
        raise ValueError("flavor mismatch: %s generator on %s word"
                         % (gen.flavor, word.flavor))
    terms = extend_letters(gen, word.letters, mode)
    return [Word(word.space, word.flavor, t, word.coefficient * c)
            for t, c in sorted(terms.items())]


def reachable(support, inner, rotations=False):
    """The target tuples, in canonical order, whose extension by ``inner``
    can land on a tuple of ``support``: a support tuple with one letter b
    replaced by a head h with b in inner(h), in the canonical form of
    inner's flavor (dead symmetric and exterior words dropped).  With
    ``rotations`` only the first letter is replaced and every rotation of
    h + w[1:] is taken, the tuples a rotation sum reads.  Every other
    target gives zero."""
    heads = {}
    for h, vec in inner.coeffs.items():
        for b in vec:
            heads.setdefault(b, []).append(h)
    par = inner.space.parities
    out = set()
    for w in support:
        for i in range(1 if rotations else len(w)):
            for h in heads.get(w[i], ()):
                t = w[:i] + h + w[i + 1:]
                if rotations:
                    out.update(t[j:] + t[:j] for j in range(len(t)))
                else:
                    cw = canonical_word(inner.flavor, t, par)
                    if cw is not None:
                        out.add(cw[1])
    return sorted(out)


def compose(outer, inner, mode=None):
    """outer ∘ (extension of inner restricted to land in outer's degree):
    a cochain of degree outer.degree + inner.degree - 1."""
    if outer.space != inner.space or outer.flavor != inner.flavor:
        raise ValueError("cochain mismatch in composition")
    if mode is None:
        mode = natural_mode(outer.flavor)
    n = outer.degree + inner.degree - 1
    if n < 0:
        return zero_cochain(outer.space, outer.flavor, 0,
                            (outer.parity + inner.parity) & 1)
    coeffs = {}
    for t in reachable(outer.coeffs, inner):
        acc = {}
        for mid, c in extend_letters(inner, t, mode).items():
            vec_add(acc, outer.value(mid), c)
        if acc:
            coeffs[t] = acc
    return Cochain(outer.space, outer.flavor, n,
                   (outer.parity + inner.parity) & 1, coeffs)


def bracket(a, b, form=None):
    """[a_k, b_l] = a ∘ b_{lk} - (-1)^{<a,b>} b ∘ a_{kl} under the grading
    form (parity_only on a reversed side, product_form on the V side)."""
    if a.space != b.space or a.flavor != b.flavor:
        raise ValueError("cochain mismatch in bracket")
    if form is None:
        form = natural_mode(a.flavor)
    if form == SHIFTED_FORM:
        raise ValueError("the shifted form grades the modified bracket, "
                         "not the plain one")
    mode = form
    first = compose(a, b, mode)
    second = compose(b, a, mode)
    sign = -1 if grading_pair(form, a.bidegree, b.bidegree) else 1
    return add(first, scale(-sign, second))


def modified_bracket(a, b, convention=W_OF_V):
    """{a_k, b_l}: the bracket conjugated through the parity reversion.

    w_of_v twists by (-1)^{(k-1)|b|}; v_of_w by (-1)^{(k-1)(|b|+l-1)}.
    Both are graded Lie for the shifted form on bidegrees.
    """
    if convention not in CONVENTIONS:
        raise ValueError("unknown convention %r" % convention)
    base = bracket(a, b, PRODUCT_FORM)
    e = (a.degree - 1) * b.parity
    if convention == V_OF_W:
        e = (a.degree - 1) * (b.parity + b.degree - 1)
    if e & 1:
        return scale(-1, base)
    return base


# --- families -------------------------------------------------------------
#
# An inhomogeneous cochain is a family {degree: Cochain}; brackets act
# degree by degree via [a, b]_n = sum over k+l=n+1 of [a_k, b_l].

def family_bracket(fam_a, fam_b, form=None, convention=None):
    """Componentwise bracket of families; pass ``convention`` to use the
    modified bracket instead of the plain one."""
    out = {}
    for k, a in fam_a.items():
        for l, b in fam_b.items():
            if convention is None:
                term = bracket(a, b, form)
            else:
                term = modified_bracket(a, b, convention)
            if term.is_zero():
                continue
            n = k + l - 1
            out[n] = add(out[n], term) if n in out else term
    return {n: c for n, c in out.items() if not c.is_zero()}


def family_is_zero(fam):
    return all(c.is_zero() for c in fam.values())
