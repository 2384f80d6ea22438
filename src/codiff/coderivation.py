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


def splits(flavor, letters, k, mode, par):
    """The terms of the extension of a degree-k cochain on a pure word, as
    (signs, head, prefix, suffix): the cochain reads ``head``, and a value
    letter b lands on prefix + (b,) + suffix with the sign signs[parity of
    the cochain].  Tensor terms insert at each position; symmetric and
    exterior terms run over the unshuffles, have an empty prefix and still
    have to be put in canonical order."""
    n = len(letters)
    if flavor == TENSOR:
        pre_parity = 0
        for i in range(n - k + 1):
            even = -1 if mode == PRODUCT_FORM and i * (k - 1) & 1 else 1
            odd = -even if pre_parity & 1 else even
            yield (even, odd), letters[i:i + k], letters[:i], letters[i + k:]
            if i < n:
                pre_parity += par[letters[i]]
        return
    if n < k:
        return
    letter_par = [par[x] for x in letters]
    for sigma in unshuffles(k, n - k):
        s = reorder_sign(flavor, sigma, letter_par)
        yield ((s, s), tuple(letters[i - 1] for i in sigma[:k]), (),
               tuple(letters[i - 1] for i in sigma[k:]))


def extend_letters(gen, letters, mode):
    """Value of the extended coderivation of ``gen`` on a pure word, as a
    dict {output letters: coefficient}.  Zero when deg(word) < k."""
    par = gen.space.parities
    tensor = gen.flavor == TENSOR
    out = {}
    for signs, head, pre, post in splits(gen.flavor, letters, gen.degree,
                                         mode, par):
        vec = gen.coeffs.get(head) if tensor else gen.value(head)
        if not vec:
            continue
        sign = signs[gen.parity]
        for b, c in vec.items():
            key = pre + (b,) + post
            if not tensor:
                cw = canonical_word(gen.flavor, key, par)
                if cw is None:
                    continue
                key = cw[1]
                c = cw[0] * c
            cur = out.get(key, 0) + sign * c
            if cur:
                out[key] = cur
            else:
                out.pop(key, None)
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
    return targets(support, heads, inner.flavor, inner.space.parities,
                   rotations)


def targets(support, heads, flavor, par, rotations=False):
    """``reachable`` for the heads {letter b: the heads whose value has a
    b component}."""
    out = set()
    for w in support:
        for i in range(1 if rotations else len(w)):
            for h in heads.get(w[i], ()):
                t = w[:i] + h + w[i + 1:]
                if rotations:
                    out.update(t[j:] + t[:j] for j in range(len(t)))
                else:
                    cw = canonical_word(flavor, t, par)
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


def bracket_signs(k, a_parity, l, b_parity, convention):
    """The signs of a∘b and of b∘a in the modified bracket {a_k, b_l} of
    cochains of these degrees and parities: the plain bracket's
    a∘b - (-1)^{<a,b>} b∘a under the product form, twisted by the
    convention's sign."""
    if convention not in CONVENTIONS:
        raise ValueError("unknown convention %r" % convention)
    e = (k - 1) * b_parity
    if convention == V_OF_W:
        e = (k - 1) * (b_parity + l - 1)
    twist = -1 if e & 1 else 1
    if grading_pair(PRODUCT_FORM, (a_parity, k - 1), (b_parity, l - 1)):
        return twist, twist
    return twist, -twist


def modified_bracket(a, b, convention=W_OF_V):
    """{a_k, b_l}: the bracket conjugated through the parity reversion.

    w_of_v twists by (-1)^{(k-1)|b|}; v_of_w by (-1)^{(k-1)(|b|+l-1)}.
    Both are graded Lie for the shifted form on bidegrees.
    """
    first, second = bracket_signs(a.degree, a.parity, b.degree, b.parity,
                                  convention)
    if a.space != b.space or a.flavor != b.flavor:
        raise ValueError("cochain mismatch in bracket")
    return add(scale(first, compose(a, b, PRODUCT_FORM)),
               scale(second, compose(b, a, PRODUCT_FORM)))


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
