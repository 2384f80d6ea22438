"""Z2-graded basis bookkeeping, canonical words of the tensor and exterior
coalgebras, their reordering and rotation signs, and unshuffles.

Permutations are 1-indexed tuples ``images`` with ``images[i-1] == sigma(i)``,
matching the usual convention for unshuffles.  All sign computations return
plain ints (+1/-1) so they mix with scalars from any exact field.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .fields import QQ, PrimeField, Rationals

TENSOR = "tensor"
EXTERIOR = "exterior"


class GradedSpace:
    """A finite ordered homogeneous basis with Z2 parities over an exact field.

    Immutable and hashable: spaces are compared on every compose and bracket
    and key the ``canonical_tuples`` cache.
    """

    def __init__(self, names, parities, field=QQ):
        if len(names) == 0:
            raise ValueError("a graded space needs dimension >= 1")
        if len(set(names)) != len(names):
            raise ValueError("duplicate basis names")
        if len(parities) != len(names):
            raise ValueError("one parity per basis element required")
        if any(p not in (0, 1) for p in parities):
            raise ValueError("parities must be 0 or 1")
        if not isinstance(field, (Rationals, PrimeField)):
            raise ValueError("unsupported field")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "parities", parities)
        object.__setattr__(self, "field", field)

    def __setattr__(self, name, value):
        raise AttributeError("GradedSpace is immutable")

    def __delattr__(self, name):
        raise AttributeError("GradedSpace is immutable")

    def __eq__(self, other):
        if other.__class__ is not GradedSpace:
            return NotImplemented
        return (self.names == other.names and self.parities == other.parities
                and self.field == other.field)

    def __hash__(self):
        return hash((self.names, self.parities, self.field))

    @property
    def dim(self):
        return len(self.names)

    def index(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError("unknown basis name %r" % name)

    def parity(self, i):
        return self.parities[i]

    def reversed(self):
        """The same basis with all parities flipped."""
        return GradedSpace(self.names, tuple(1 - p for p in self.parities), self.field)


def word_parity(space, letters):
    return sum(space.parities[i] for i in letters) & 1


def _exterior_sign(keys, pars):
    """The sign of sorting the word in the exterior algebra: (-1)^(inv +
    odd), inv the pairs i < j with keys[i] > keys[j] and odd those of them
    joining two odd letters (pars[i] is the parity of keys[i]), the
    adjacent swaps that sort the word."""
    e = 0
    for j in range(1, len(keys)):
        kj, pj = keys[j], pars[j]
        for i in range(j):
            if keys[i] > kj:
                e += 1 + (pars[i] & pj)
    return -1 if e & 1 else 1


def rotation_sign(par, t, i):
    """(-1)^{|t[:i]||t[i:]| + i n} for a tuple t of arity n + 1: the sign of
    the rotation t -> t[i:] + t[:i], which is its exterior reordering sign
    (Koszul sign times the sign of the cyclic permutation)."""
    pa = sum(map(par.__getitem__, t[:i]))
    pb = sum(map(par.__getitem__, t[i:]))
    return -1 if (pa * pb + i * (len(t) - 1)) & 1 else 1


def rotation_signs(par, t):
    """[rotation_sign(par, t, i) for i in range(len(t))], from one running
    prefix parity pre: (-1)^{pre (tot - pre) + i n}."""
    n = len(t) - 1
    tot = sum(map(par.__getitem__, t))
    signs, pre = [1], 0
    for i, x in enumerate(t[:n], 1):
        pre += par[x]
        signs.append(-1 if (pre * (tot - pre) + i * n) & 1 else 1)
    return signs


@lru_cache(maxsize=None)
def unshuffles(p, q):
    """All permutations of p+q that increase on 1..p and on p+1..p+q,
    as 1-indexed image tuples in lexicographic order; there are C(p+q, p)."""
    if p < 0 or q < 0:
        raise ValueError("need p, q >= 0")
    n = p + q
    out = []
    for first in itertools.combinations(range(1, n + 1), p):
        rest = tuple(i for i in range(1, n + 1) if i not in first)
        out.append(first + rest)
    return tuple(out)


def canonical_word(flavor, letters, parities):
    """Sort a word's letters into canonical nondecreasing order.

    Returns (sign, letters) or None when the word dies in the quotient: a
    repeated even letter kills an exterior word.  (An odd letter may repeat
    in the exterior algebra: u^v = -(-1)^{|u||v|} v^u forces only even
    squares to vanish.)  Tensor words are canonical as they stand.
    """
    if flavor == TENSOR:
        return 1, tuple(letters)
    seq = tuple(sorted(letters))
    for a, b in zip(seq, seq[1:]):
        if a == b and not parities[a]:
            return None
    return _exterior_sign(letters, [parities[x] for x in letters]), seq
