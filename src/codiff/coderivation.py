"""Extension of cochains to coderivations of T(V) and /\\V, in the
bidegree grading, and the modified bracket of coderivations.

A degree-k cochain extends to a coderivation whose value on a degree-n word
is a signed sum over insertion positions (tensor) or unshuffles
(exterior).  A tensor insertion after a prefix of parity p, i letters
long, carries (-1)^{p |d| + i(k-1)}; an exterior unshuffle, the head's
positions chosen in lexicographic order and the rest following, carries
the sign ``canonical_word`` gives its head + rest.
"""

from __future__ import annotations

import itertools

from .cochain import Cochain, add, scale, vec_add, zero_cochain
from .graded import EXTERIOR, TENSOR, canonical_word

W_OF_V = "w_of_v"
V_OF_W = "v_of_w"
CONVENTIONS = (W_OF_V, V_OF_W)


def convert_convention_parts(parts):
    """Re-express a family in the opposite sign convention.

    Round-tripping one convention's conjugation through the other multiplies
    the arity-k part by (-1)^{k(k-1)/2}; the map is an involution.
    """
    return {k: scale(-1, c) if (k * (k - 1) // 2) & 1 else c
            for k, c in parts.items()}


def splits(flavor, letters, k, par):
    """The terms of the extension of a degree-k cochain on a canonical word,
    as (signs, head, prefix, suffix): the cochain reads ``head``, and a value
    letter b lands on prefix + (b,) + suffix with the sign signs[parity of
    the cochain].  Heads and suffixes are canonical.  Tensor terms insert at
    each position; exterior terms run over the unshuffles, have an empty
    prefix, and the landing word still has to be sorted."""
    n = len(letters)
    if flavor == TENSOR:
        pre_parity = 0
        for i in range(n - k + 1):
            even = -1 if i * (k - 1) & 1 else 1
            odd = -even if pre_parity & 1 else even
            yield (even, odd), letters[i:i + k], letters[:i], letters[i + k:]
            if i < n:
                pre_parity += par[letters[i]]
        return
    for pos in itertools.combinations(range(n), k):
        head = tuple(letters[i] for i in pos)
        rest = tuple(x for i, x in enumerate(letters) if i not in pos)
        s = canonical_word(EXTERIOR, head + rest, par)[0]
        yield (s, s), head, (), rest


def extend_letters(gen, letters):
    """The extension of ``gen`` on a canonical word, read at each head by
    key, as {canonical output letters: coefficient}; zero below degree k."""
    par = gen.space.parities
    tensor = gen.flavor == TENSOR
    out = {}
    for signs, head, pre, post in splits(gen.flavor, letters, gen.degree,
                                         par):
        vec = gen.coeffs.get(head)
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


def reachable(support, inner):
    """The target tuples, in canonical order, whose extension by ``inner``
    can land on a tuple of ``support``: a support tuple with one letter b
    replaced by a head h with b in inner(h), in the canonical form of
    inner's flavor (dead exterior words dropped).  Every other target gives
    zero."""
    heads = {}
    for h, vec in inner.coeffs.items():
        for b in vec:
            heads.setdefault(b, []).append(h)
    return targets(support, heads, inner.flavor, inner.space.parities)


def targets(support, heads, flavor, par):
    """``reachable`` for the heads {letter b: the heads whose value has a
    b component}."""
    out = set()
    for w in support:
        for i in range(len(w)):
            for h in heads.get(w[i], ()):
                cw = canonical_word(flavor, w[:i] + h + w[i + 1:], par)
                if cw is not None:
                    out.add(cw[1])
    return sorted(out)


def compose(outer, inner):
    """outer ∘ (extension of inner landing in outer's degree), of degree
    outer.degree + inner.degree - 1; outer is read by key at each output."""
    if outer.space != inner.space or outer.flavor != inner.flavor:
        raise ValueError("cochain mismatch in composition")
    n = outer.degree + inner.degree - 1
    if n < 0:
        return zero_cochain(outer.space, outer.flavor, 0,
                            (outer.parity + inner.parity) & 1)
    coeffs = {}
    for t in reachable(outer.coeffs, inner):
        acc = {}
        for mid, c in extend_letters(inner, t).items():
            vec_add(acc, outer.coeffs.get(mid, {}), c)
        if acc:
            coeffs[t] = acc
    return Cochain(outer.space, outer.flavor, n,
                   (outer.parity + inner.parity) & 1, coeffs)


def bracket_signs(k, a_parity, l, b_parity, convention):
    """The signs of a∘b and of b∘a in the modified bracket {a_k, b_l} of
    cochains of these degrees and parities: the plain bracket's
    a∘b - (-1)^{<a,b>} b∘a, with <a,b> = |a||b| + (k-1)(l-1) the pairing
    of the bidegrees, twisted by the convention's sign."""
    if convention not in CONVENTIONS:
        raise ValueError("unknown convention %r" % convention)
    e = (k - 1) * b_parity
    if convention == V_OF_W:
        e = (k - 1) * (b_parity + l - 1)
    twist = -1 if e & 1 else 1
    if (a_parity * b_parity + (k - 1) * (l - 1)) & 1:
        return twist, twist
    return twist, -twist


def modified_bracket(a, b, convention):
    """{a_k, b_l}: the bracket conjugated through the parity reversion.

    w_of_v twists by (-1)^{(k-1)|b|}; v_of_w by (-1)^{(k-1)(|b|+l-1)}.
    Both are graded Lie for the shifted form on bidegrees.
    """
    first, second = bracket_signs(a.degree, a.parity, b.degree, b.parity,
                                  convention)
    if a.space != b.space or a.flavor != b.flavor:
        raise ValueError("cochain mismatch in bracket")
    return add(scale(first, compose(a, b)), scale(second, compose(b, a)))


# --- families -------------------------------------------------------------
#
# An inhomogeneous cochain is a family {degree: Cochain}; brackets act
# degree by degree via {a, b}_n = sum over k+l=n+1 of {a_k, b_l}.

def family_bracket(fam_a, fam_b, convention):
    """Componentwise modified bracket of families under the convention."""
    out = {}
    for k, a in fam_a.items():
        for l, b in fam_b.items():
            term = modified_bracket(a, b, convention)
            if term.is_zero():
                continue
            n = k + l - 1
            out[n] = add(out[n], term) if n in out else term
    return {n: c for n, c in out.items() if not c.is_zero()}


def family_is_zero(fam):
    return all(c.is_zero() for c in fam.values())
