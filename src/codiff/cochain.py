"""Multilinear maps V^k -> V and V^k -> k in the three flavors.

A ``Cochain`` is homogeneous (one parity, one arity) and stores exact
coefficients sparsely on canonical argument tuples; evaluation on arbitrary
tuples reorders through the flavor's sign rule.  Inhomogeneous objects are
handled as families ``{arity: Cochain}`` by the coderivation layer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

from . import linalg
from .graded import (EXTERIOR, FLAVORS, SYMMETRIC, TENSOR, GradedSpace,
                     canonical_word, word_parity)


@lru_cache(maxsize=None)
def canonical_tuples(space, flavor, degree):
    """Ordered canonical basis tuples of the degree-k part of the coalgebra.

    Tensor: all tuples.  Symmetric: nondecreasing, no repeated odd letter.
    Exterior: nondecreasing, no repeated even letter.  Degree 0 is the
    single empty tuple (used for constants; words proper start at degree 1).
    """
    if degree == 0:
        return ((),)
    idx = range(space.dim)
    if flavor == TENSOR:
        return tuple(itertools.product(idx, repeat=degree))
    out = []
    for t in itertools.combinations_with_replacement(idx, degree):
        ok = True
        for a, b in zip(t, t[1:]):
            if a == b:
                p = space.parities[a]
                if (flavor == SYMMETRIC and p == 1) or (flavor == EXTERIOR and p == 0):
                    ok = False
                    break
        if ok:
            out.append(t)
    return tuple(out)


def vec_add(acc, vec, factor=1):
    """acc += factor * vec for sparse vectors {basis index: scalar}."""
    for b, c in vec.items():
        x = factor * c
        if not x:
            continue
        cur = acc.get(b)
        if cur is None:
            acc[b] = x
        else:
            cur = cur + x
            if cur:
                acc[b] = cur
            else:
                del acc[b]
    return acc


def vec_scale(vec, factor):
    return {b: factor * c for b, c in vec.items() if factor * c}


def vec_is_zero(vec):
    return all(not c for c in vec.values())


@dataclass
class Cochain:
    """A homogeneous degree-k multilinear map V^k -> V.

    ``coeffs`` maps canonical k-tuples of basis indices to sparse output
    vectors; missing tuples are zero.  Every stored component must satisfy
    |output| = parity + |inputs| mod 2.
    """

    space: GradedSpace
    flavor: str
    degree: int
    parity: int
    coeffs: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.flavor not in FLAVORS:
            raise ValueError("unknown flavor %r" % self.flavor)
        if self.degree < 0:
            raise ValueError("cochain degree must be >= 0")
        if self.parity not in (0, 1):
            raise ValueError("parity must be 0 or 1")
        clean = {}
        for t, vec in self.coeffs.items():
            t = tuple(t)
            if len(t) != self.degree:
                raise ValueError("tuple %r has wrong arity (expected %d)" % (t, self.degree))
            cw = canonical_word(self.flavor, t, self.space.parities)
            if cw is None or cw[1] != t or cw[0] != 1:
                raise ValueError("non-canonical tuple %r" % (t,))
            tp = word_parity(self.space, t)
            v = {}
            for b, c in vec.items():
                if not c:
                    continue
                if (self.space.parities[b] ^ tp) != self.parity:
                    raise ValueError(
                        "entry %s -> %s breaks parity homogeneity"
                        % (t, self.space.names[b]))
                v[b] = c
            if v:
                clean[t] = v
        self.coeffs = clean

    @property
    def bidegree(self):
        # Z-degree of the induced coderivation is degree - 1
        return (self.parity, self.degree - 1)

    def is_zero(self):
        return not self.coeffs

    def value(self, letters):
        """Value on a pure tuple, reordered through the flavor sign."""
        if len(letters) != self.degree:
            raise ValueError("expected %d arguments, got %d" % (self.degree, len(letters)))
        cw = canonical_word(self.flavor, tuple(letters), self.space.parities)
        if cw is None:
            return {}
        sign, canon = cw
        vec = self.coeffs.get(canon)
        if not vec:
            return {}
        return vec_scale(vec, sign)


def zero_cochain(space, flavor, degree, parity):
    return Cochain(space, flavor, degree, parity, {})


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


def add(a, b):
    if (a.space, a.flavor, a.degree) != (b.space, b.flavor, b.degree):
        raise ValueError("cochain shape mismatch in add")
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    if a.parity != b.parity:
        raise ValueError("cannot add cochains of different parity")
    coeffs = {t: dict(vec) for t, vec in a.coeffs.items()}
    for t, vec in b.coeffs.items():
        acc = coeffs.setdefault(t, {})
        vec_add(acc, vec)
        if not acc:
            del coeffs[t]
    return Cochain(a.space, a.flavor, a.degree, a.parity, coeffs)


def scale(s, a):
    return Cochain(a.space, a.flavor, a.degree, a.parity,
                   {t: vec_scale(vec, s) for t, vec in a.coeffs.items()})


def cochains_equal(a, b):
    return (a.space == b.space and a.flavor == b.flavor and a.degree == b.degree
            and a.coeffs == b.coeffs)


@dataclass
class ScalarCochain:
    """A multilinear map V^arity -> k.

    Tensor flavor stores values on all tuples; exterior flavor stores
    canonical tuples only and is graded antisymmetric by construction.
    """

    space: GradedSpace
    flavor: str
    arity: int
    parity: int
    coeffs: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.flavor not in (TENSOR, EXTERIOR):
            raise ValueError("scalar cochains are tensor or exterior flavored")
        if self.arity < 1:
            raise ValueError("scalar cochains take at least one argument")
        clean = {}
        for t, c in self.coeffs.items():
            t = tuple(t)
            if len(t) != self.arity:
                raise ValueError("tuple %r has wrong arity" % (t,))
            if not c:
                continue
            if self.flavor == EXTERIOR:
                cw = canonical_word(EXTERIOR, t, self.space.parities)
                if cw is None or cw[1] != t or cw[0] != 1:
                    raise ValueError("non-canonical exterior tuple %r" % (t,))
            if (word_parity(self.space, t)) != self.parity:
                raise ValueError("tuple %r breaks parity homogeneity" % (t,))
            clean[t] = c
        self.coeffs = clean

    @property
    def degree(self):
        # HC grading: a map on arity n+1 tuples sits in scalar degree n
        return self.arity - 1

    def is_zero(self):
        return not self.coeffs

    def value(self, letters):
        if len(letters) != self.arity:
            raise ValueError("expected %d arguments" % self.arity)
        t = tuple(letters)
        if self.flavor == TENSOR:
            return self.coeffs.get(t, 0)
        cw = canonical_word(EXTERIOR, t, self.space.parities)
        if cw is None:
            return 0
        sign, canon = cw
        c = self.coeffs.get(canon)
        return sign * c if c else 0


def scalar_add(a, b):
    if (a.space, a.flavor, a.arity) != (b.space, b.flavor, b.arity):
        raise ValueError("scalar cochain shape mismatch")
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    if a.parity != b.parity:
        raise ValueError("cannot add scalar cochains of different parity")
    coeffs = dict(a.coeffs)
    for t, c in b.coeffs.items():
        cur = coeffs.get(t, 0) + c
        if cur:
            coeffs[t] = cur
        else:
            coeffs.pop(t, None)
    return ScalarCochain(a.space, a.flavor, a.arity, a.parity, coeffs)


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


class InnerProduct:
    """An even graded-symmetric nondegenerate bilinear form on V, as an
    exact matrix indexed by basis pairs."""

    def __init__(self, space, matrix):
        self.space = space
        n = space.dim
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise ValueError("inner product matrix must be %d x %d" % (n, n))
        self.matrix = [[space.field(x) for x in row] for row in matrix]
        for i in range(n):
            for j in range(n):
                if space.parities[i] != space.parities[j] and self.matrix[i][j]:
                    raise ValueError("inner product must be even: <%s,%s> != 0"
                                     % (space.names[i], space.names[j]))
                sym = self.matrix[j][i]
                if space.parities[i] & space.parities[j]:
                    sym = -sym
                if self.matrix[i][j] != sym:
                    raise ValueError("inner product must be graded symmetric")
        self._inverse = linalg.invert(self.matrix, space.field)
        if self._inverse is None:
            raise ValueError("inner product is degenerate")

    def pair(self, u, v):
        """<u, v> for sparse vectors (or basis indices)."""
        if not isinstance(u, dict):
            u = {int(u): 1}
        if not isinstance(v, dict):
            v = {int(v): 1}
        acc = self.space.field(0)
        for i, a in u.items():
            for j, b in v.items():
                acc = acc + a * self.matrix[i][j] * b
        return acc


def tilde(c, ip):
    """The scalar cochain <c(v_1..v_k), v_{k+1}> of arity k+1."""
    if ip.space != c.space:
        raise ValueError("inner product lives on a different space")
    out = {}
    if c.flavor == TENSOR:
        for t, vec in c.coeffs.items():
            for b in range(c.space.dim):
                val = c.space.field(0)
                for j, x in vec.items():
                    val = val + x * ip.matrix[j][b]
                if val:
                    out[t + (b,)] = val
    else:
        # expand through the flavor sign so the tensor container is total
        for t in itertools.product(range(c.space.dim), repeat=c.degree + 1):
            v = c.value(t[:-1])
            val = c.space.field(0)
            for j, x in v.items():
                val = val + x * ip.matrix[j][t[-1]]
            if val:
                out[t] = val
    return ScalarCochain(c.space, TENSOR, c.degree + 1, c.parity & 1, out)


def untilde(s, ip, flavor=None):
    """Inverse of tilde: recover the V-valued cochain from its scalar form.

    ``flavor`` fixes the output flavor (defaults to tensor; pass EXTERIOR
    to read an antisymmetric scalar cochain as an exterior cochain)."""
    if ip.space != s.space:
        raise ValueError("inner product lives on a different space")
    flavor = flavor or (EXTERIOR if s.flavor == EXTERIOR else TENSOR)
    space = s.space
    k = s.arity - 1
    ginv = ip._inverse
    out = {}
    for t in canonical_tuples(space, flavor, k):
        row = [s.value(t + (b,)) for b in range(space.dim)]
        vec = {}
        for i in range(space.dim):
            val = space.field(0)
            for b in range(space.dim):
                val = val + row[b] * ginv[b][i]
            if val:
                vec[i] = val
        if vec:
            out[t] = vec
    return Cochain(space, flavor, k, s.parity & 1, out)
