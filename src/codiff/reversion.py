"""Parity reversion and transport of structures across it.

The reversion W of V keeps the basis and flips every parity; the degreewise
isomorphism eta sends a word v_1...v_n to the same letters over W with the
closed-form sign (-1)^{(n-1)|v_1| + (n-2)|v_2| + ... + |v_{n-1}|}.  Tensor
words map to tensor words, exterior words to symmetric ones.  Conjugating a
family of cochains through eta trades the bidegree grading on the V side
for the plain parity grading on the W side, which is what makes squares of
odd codifferentials computable there.
"""

from __future__ import annotations

from .cochain import Cochain, scale
from .coderivation import CONVENTIONS, V_OF_W, W_OF_V
from .graded import EXTERIOR, SYMMETRIC, TENSOR


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
    """Conjugate one cochain through eta.

    With delta = eta_1 ∘ m_k ∘ eta_k^{-1}, the value on a basis tuple picks
    up (-1)^e with e the eta_k exponent; w_of_v reads the exponent off the
    V parities, v_of_w off the W parities.  The same sign works in both
    directions.  Parities of the part shift by k - 1.
    """
    if convention not in CONVENTIONS:
        raise ValueError("unknown convention %r" % convention)
    space = part.space
    other = space.reversed()
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
    return Cochain(other, flavor, k, (part.parity + k - 1) & 1, coeffs)


def conjugate_family(parts, convention=W_OF_V, to_reversed=True):
    return {k: conjugate_part(c, convention, to_reversed)
            for k, c in parts.items()}


def convert_convention_parts(parts):
    """Re-express a family in the opposite sign convention.

    Round-tripping one convention's conjugation through the other multiplies
    the arity-k part by (-1)^{k(k-1)/2}; the map is an involution.
    """
    out = {}
    for k, c in parts.items():
        e = (k * (k - 1) // 2) & 1
        out[k] = scale(-1, c) if e else c
    return out
