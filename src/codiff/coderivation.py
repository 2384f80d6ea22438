"""Extension of cochains to coderivations of T(V) and /\\V, in the
bidegree grading, and the modified bracket of coderivations.

A degree-k cochain extends to a coderivation whose value on a degree-n word
is a signed sum over insertion positions (tensor) or unshuffles
(exterior).  ``terms`` enumerates that sum from the words it lands on:
each (word, letter, head) triple gives one term, whose target is the word
with the letter replaced by the head, and no target's unshuffles are
enumerated to find its heads again.
"""

from __future__ import annotations

import math

from .cochain import Cochain, add, scale, vec_add, zero_cochain
from .graded import TENSOR, canonical_merge

W_OF_V = "w_of_v"
V_OF_W = "v_of_w"
CONVENTIONS = (W_OF_V, V_OF_W)


def sigma(k):
    """σ, the involution between the conventions, on arity k: (-1)^C(k,2)."""
    return -1 if (k * (k - 1) // 2) & 1 else 1


def convert_convention_parts(parts):
    """σ: a family in the opposite sign convention.  The core computes in
    w_of_v, and {a, b}_V = σ{σa, σb}_W: C(k+l-1,2) - C(k,2) - C(l,2) =
    (k-1)(l-1) is the difference of the two conventions' bracket signs."""
    return {k: c if sigma(k) > 0 else scale(-1, c) for k, c in parts.items()}


def heads_of(inner):
    """{letter b: the heads h whose value inner(h) has a b component}."""
    heads = {}
    for h, vec in inner.coeffs.items():
        for b in vec:
            heads.setdefault(b, []).append(h)
    return heads


def terms(support, heads, flavor, par):
    """Each term of the extension of a cochain that lands on a word of
    ``support``, once, as (target, w, b, h, signs): the cochain reads the
    head h in the canonical target, and its value letter b lands on the
    word w with the sign signs[parity of the cochain].  One term per word
    w, letter b of w (each position, tensor; each distinct letter,
    exterior) and head h in ``heads[b]``; the target is w with b replaced
    by h, made canonical, and a dead exterior target gives no term.

    A tensor insertion after i letters of parity q carries (-1)^{q|d| +
    i(k-1)}.  An exterior term, with r the rest of w after one b, carries
    the sign ``canonical_merge`` gives h + r times the one b + r has, read
    from the parity of the letters before b, times the number of
    unshuffles of the target with head h: Π C(count_T(x), count_h(x)),
    which is 1 unless an odd letter of r recurs in h (equal odd letters
    commute, so those unshuffles share one sign)."""
    if flavor == TENSOR:
        for w in support:
            pre = 0
            for i, b in enumerate(w):
                for h in heads.get(b, ()):
                    even = -1 if i * (len(h) - 1) & 1 else 1
                    yield (w[:i] + h + w[i + 1:], w, b, h,
                           (even, -even if pre & 1 else even))
                pre += par[b]
        return
    odd = {}
    for w in support:
        pre = 0
        for i, b in enumerate(w):
            hs = heads.get(b)
            pre += par[b]
            # equal letters sit together in a canonical word: skip repeats
            if not hs or w[i - 1:i] == (b,):
                continue
            r = w[:i] + w[i + 1:]
            sign = -1 if (i + par[b] * (pre - par[b])) & 1 else 1
            for h in hs:
                cw = canonical_merge(h, r, par)
                if cw is None:
                    continue
                x = sign * cw[0]
                if h not in odd:
                    odd[h] = [(y, h.count(y)) for y in set(h) if par[y]]
                for y, a in odd[h]:
                    c = r.count(y)
                    if c:
                        x *= math.comb(a + c, a)
                yield cw[1], w, b, h, (x, x)


def reachable(support, inner):
    """The target tuples, in canonical order, whose extension by ``inner``
    can land on a tuple of ``support``, those of ``terms``; every other
    target gives zero."""
    return sorted({t for t, *_ in terms(support, heads_of(inner),
                                        inner.flavor, inner.space.parities)})


def compose(outer, inner):
    """outer ∘ (extension of inner landing in outer's degree), of degree
    outer.degree + inner.degree - 1; outer is read by key at each output."""
    if outer.space != inner.space or outer.flavor != inner.flavor:
        raise ValueError("cochain mismatch in composition")
    n = outer.degree + inner.degree - 1
    parity = (outer.parity + inner.parity) & 1
    if n < 0:
        return zero_cochain(outer.space, outer.flavor, 0, parity)
    acc = {}
    for t, w, b, h, signs in terms(outer.coeffs, heads_of(inner),
                                   inner.flavor, inner.space.parities):
        vec_add(acc.setdefault(t, {}), outer.coeffs[w],
                signs[inner.parity] * inner.coeffs[h][b])
    return Cochain(outer.space, outer.flavor, n, parity,
                   {t: acc[t] for t in sorted(acc)})


def bracket_signs(k, a_parity, l, b_parity):
    """The signs of a∘b and of b∘a in the modified bracket {a_k, b_l} of
    cochains of these degrees and parities: the plain bracket's
    a∘b - (-1)^{<a,b>} b∘a, with <a,b> = |a||b| + (k-1)(l-1) the pairing
    of the bidegrees, twisted by (-1)^{(k-1)|b|}."""
    twist = -1 if (k - 1) * b_parity & 1 else 1
    if (a_parity * b_parity + (k - 1) * (l - 1)) & 1:
        return twist, twist
    return twist, -twist


def modified_bracket(a, b):
    """{a_k, b_l}: the bracket conjugated through the parity reversion,
    graded Lie for the shifted form on bidegrees."""
    first, second = bracket_signs(a.degree, a.parity, b.degree, b.parity)
    if a.space != b.space or a.flavor != b.flavor:
        raise ValueError("cochain mismatch in bracket")
    return add(scale(first, compose(a, b)), scale(second, compose(b, a)))


# --- families -------------------------------------------------------------
#
# An inhomogeneous cochain is a family {degree: Cochain}; brackets act
# degree by degree via {a, b}_n = sum over k+l=n+1 of {a_k, b_l}.

def family_bracket(fam_a, fam_b):
    """Componentwise modified bracket of families."""
    out = {}
    for k, a in fam_a.items():
        for l, b in fam_b.items():
            term = modified_bracket(a, b)
            if term.is_zero():
                continue
            n = k + l - 1
            out[n] = add(out[n], term) if n in out else term
    return {n: c for n, c in out.items() if not c.is_zero()}


def family_is_zero(fam):
    return all(c.is_zero() for c in fam.values())
