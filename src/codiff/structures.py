"""Homotopy-associative and homotopy-Lie structures and their validation.

A structure is a flavor and a finitely supported family {m_k} of cochains
of that flavor.  The flavor is the structure's kind: an A∞ structure
(``A_INFINITY``) is a codifferential on the tensor coalgebra, an L∞ one
(``L_INFINITY``) on the exterior coalgebra.  Validity means the family
assembles to an odd codifferential on the reversed side; on the V side this
is the vanishing, for every n, of

    sum over a+b=n+1 of  S(a,b) * m_a ∘ (extension of m_b at level a)

with S(a,b) = (-1)^{(a-1)b}, the w_of_v sign; a v_of_w family comes in
through σ (``coderivation.convert_convention_parts``).  Away from
characteristic 2 this is equivalent to {m, m} = 0 for the modified
self-bracket, whose coefficient of m_a ∘ m_b is 2 S(a,b), so ``validate``
checks the relations alone (the bracket route and the reversed-side route
live in the tests).

Every bracket with m runs on the structure's integer ``lift``: N·m over Q,
with N the lcm of the denominators of every part, and the residues over
F_p.  {Nm, Nm} = N²{m, m} and D_{Nm} = N·D_m, and over F_p each bracket is
an integer polynomial in the entries, which commutes with reduction mod p,
so a value vanishes in the field exactly when its ints do (``vanishes``).
"""

from __future__ import annotations

from functools import cached_property

from . import linalg
from .cochain import Cochain, add, scale, zero_cochain
from .coderivation import bracket_signs, compose, family_bracket
from .graded import EXTERIOR, TENSOR

# the paper's names for the two flavors
A_INFINITY = TENSOR
L_INFINITY = EXTERIOR

DEFAULT_MAX_ARITY = 8


class StructureError(ValueError):
    """A structure violates a precondition (parity, arity, flavor)."""


class InfinityStructure:
    def __init__(self, flavor, space, parts=None, max_arity=DEFAULT_MAX_ARITY):
        self.flavor = flavor
        self.space = space
        self.parts = {} if parts is None else parts
        self.max_arity = max_arity
        if flavor not in (TENSOR, EXTERIOR):
            raise StructureError("flavor must be tensor or exterior")
        clean = {}
        for k, part in self.parts.items():
            if part.is_zero():
                continue
            if k != part.degree:
                raise StructureError("part filed under arity %d has degree %d"
                                     % (k, part.degree))
            if k < 1:
                raise StructureError("structure parts have arity >= 1")
            if k > self.max_arity:
                raise StructureError("arity %d beyond the max_arity cap %d"
                                     % (k, self.max_arity))
            if part.flavor != flavor:
                raise StructureError("%s structures need %s-flavored parts"
                                     % (flavor, flavor))
            if part.space != self.space:
                raise StructureError("part lives on a different space")
            clean[k] = part
        self.parts = clean

    @property
    def top_arity(self):
        return max(self.parts) if self.parts else 0

    @cached_property
    def lift(self):
        """The same structure with the parts ``core_family`` gives, built
        on first use: validation, D and the cocycle test of a direction
        read it."""
        return InfinityStructure(self.flavor, self.space,
                                 core_family(self.parts, self.space.field),
                                 self.max_arity)


def core_family(parts, field):
    """A family {arity: Cochain} over core ints, by one factor for all of
    its parts (``linalg.core_vectors``): N·parts over Q, with N the lcm of
    every denominator, and the residues over F_p."""
    core = linalg.core_vectors({(k, t): vec for k, c in parts.items()
                                for t, vec in c.coeffs.items()}, field)
    return {k: Cochain(c.space, c.flavor, c.degree, c.parity,
                       {t: core[k, t] for t in c.coeffs})
            for k, c in parts.items()}


def vanishes(values, p):
    """Are these ints all zero in the field: 0, mod p over F_p (p > 0)?"""
    return not any(x % p for x in values) if p else not any(values)


def family_vanishes(fam, p):
    """Is a family {degree: Cochain} over ints zero in the field?"""
    return vanishes((x for c in fam.values() for vec in c.coeffs.values()
                     for x in vec.values()), p)


class ValidationReport:
    def __init__(self, ok, n=0, letters=(), residual=None):
        self.ok = ok
        self.n = n
        self.letters = letters
        self.residual = {} if residual is None else residual


def relation_sign(outer, inner):
    """S(outer, inner), the sign of m_outer∘m_inner in {m_outer, m_inner}."""
    return bracket_signs(outer, outer & 1, inner, inner & 1)[0]


def structure_residual(s, n):
    """The degree-n relation residual as a cochain (direct route)."""
    # the residual of an odd family at arity n has parity n + 1
    acc = zero_cochain(s.space, s.flavor, n, (n + 1) & 1)
    for a, outer in s.parts.items():
        b = n + 1 - a
        if b in s.parts:
            term = compose(outer, s.parts[b])
            if relation_sign(a, b) < 0:
                term = scale(-1, term)
            acc = add(acc, term)
    return acc


def validate(s):
    """Check the structure relations; returns a ValidationReport.

    Raises StructureError when the parity constraint |m_k| = k mod 2 fails
    (that check comes before any relation is evaluated).  A failing report
    names the least arity n whose residual is nonzero and the residual's
    first word in canonical order.  The relations are evaluated on the
    lift; only the failing residual is evaluated again on field scalars,
    for its value at that word.
    """
    for k, c in sorted(s.parts.items()):
        if c.parity != (k & 1):
            raise StructureError(
                "part of arity %d has parity %d, an odd codifferential needs %d"
                % (k, c.parity, k & 1))
    lift, p = s.lift, s.space.field.characteristic
    for n in range(1, 2 * s.top_arity):
        words = [t for t, vec in structure_residual(lift, n).coeffs.items()
                 if not vanishes(vec.values(), p)]
        if words:
            t = min(words)
            return ValidationReport(False, n,
                                    tuple(s.space.names[i] for i in t),
                                    structure_residual(s, n).coeffs[t])
    return ValidationReport(True)


def deformation_parameter_parity(parts):
    """Infer the parameter parity from a family, or raise when the family
    cannot sit at first order of any single parameter."""
    seen = None
    for k, c in parts.items():
        if c.is_zero():
            continue
        p = (c.parity + k) & 1
        if seen is None:
            seen = p
        elif seen != p:
            raise StructureError("direction parts do not share a parameter parity")
    return 0 if seen is None else seen


def deform_check(s, parts):
    """Is l + u*lambda a structure to first order (u^2 = 0)?  True exactly
    when the direction is a cocycle: {lambda, m} = 0, bracketed on the
    direction's core ints and the lift."""
    deformation_parameter_parity(parts)
    field = s.space.field
    return family_vanishes(family_bracket(core_family(parts, field),
                                          s.lift.parts), field.characteristic)
