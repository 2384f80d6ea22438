"""Multilinear maps V^k -> V and V^k -> k, tensor or exterior flavored.

A ``Cochain`` is homogeneous (one parity, one arity) and stores exact
coefficients sparsely on canonical argument tuples; evaluation on arbitrary
tuples reorders through the flavor's sign rule.  Inhomogeneous objects are
handled as families ``{arity: Cochain}`` by the coderivation layer.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from . import linalg
from .graded import EXTERIOR, TENSOR, canonical_word, word_parity


def canonical_tuples(space, flavor, degree):
    """Ordered canonical basis tuples of the degree-k part of the coalgebra.

    Tensor: all tuples.  Exterior: nondecreasing, no repeated even letter.
    Degree 0 is the single empty tuple (used for constants; words proper
    start at degree 1).  Tuples come in lexicographic order; the exterior
    ones are grown letter by letter, and only from a prefix that some kept
    tuple extends, so no dead multiset is visited.  The cache is keyed on
    (dim, parities, flavor, degree), not on names or field.
    """
    return _canonical_tuples(space.dim, space.parities, flavor, degree)


@lru_cache(maxsize=None)
def _canonical_tuples(n, parities, flavor, degree):
    if degree == 0:
        return ((),)
    if flavor == TENSOR:
        return tuple(itertools.product(range(n), repeat=degree))
    # room[x]: how many letters a tuple may still take from x, x + 1, ...;
    # an odd letter may repeat
    room = [0] * (n + 1)
    for x in reversed(range(n)):
        room[x] = degree if parities[x] else room[x + 1] + 1
    out = []

    def grow(prefix, start, left):
        for x in range(start, n):
            if room[x] < left:
                break
            t = prefix + (x,)
            if left == 1:
                out.append(t)
            else:
                grow(t, x if parities[x] else x + 1, left - 1)
    grow((), 0, degree)
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


class Cochain:
    """A homogeneous degree-k multilinear map V^k -> V.

    ``coeffs`` maps canonical k-tuples of basis indices to sparse output
    vectors; missing tuples are zero.  Every stored component must satisfy
    |output| = parity + |inputs| mod 2.
    """

    def __init__(self, space, flavor, degree, parity, coeffs=None):
        self.space = space
        self.flavor = flavor
        self.degree = degree
        self.parity = parity
        self.coeffs = {} if coeffs is None else coeffs
        if self.flavor not in (TENSOR, EXTERIOR):
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

    def __eq__(self, other):
        if other.__class__ is not Cochain:
            return NotImplemented
        return (self.space == other.space and self.flavor == other.flavor
                and self.degree == other.degree and self.parity == other.parity
                and self.coeffs == other.coeffs)

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


class ScalarCochain:
    """A multilinear map V^arity -> k.

    Tensor flavor stores values on all tuples; exterior flavor stores
    canonical tuples only and is graded antisymmetric by construction.
    """

    def __init__(self, space, flavor, arity, parity, coeffs=None):
        self.space = space
        self.flavor = flavor
        self.arity = arity
        self.parity = parity
        self.coeffs = {} if coeffs is None else coeffs
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


def tilde(c, ip):
    """The scalar cochain <c(v_1..v_k), v_{k+1}> of arity k+1, on every
    tuple where it is nonzero: an exterior c is read on each distinct
    ordering of its stored tuples, through the exterior sign, and the
    result is sorted."""
    if ip.space != c.space:
        raise ValueError("inner product lives on a different space")
    space = c.space
    zero = space.field(0)
    out = {}
    for t, vec in c.coeffs.items():
        row = [sum((x * ip.matrix[j][b] for j, x in vec.items()), zero)
               for b in range(space.dim)]
        orders = ((1, t),) if c.flavor == TENSOR else (
            (canonical_word(c.flavor, u, space.parities)[0], u)
            for u in set(itertools.permutations(t)))
        for sign, u in orders:
            for b, val in enumerate(row):
                if val:
                    out[u + (b,)] = sign * val
    if c.flavor != TENSOR:
        out = dict(sorted(out.items()))
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
