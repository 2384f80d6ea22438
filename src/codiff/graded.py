"""Z2-graded basis bookkeeping, canonical words of the tensor and exterior
coalgebras, and their reordering and rotation signs.

``canonical_word`` is the one routine that counts exterior reordering
signs, and ``canonical_merge`` its form for two canonical words, which
signs the extension's terms.  All sign computations return plain ints
(+1/-1) so they mix with scalars from any exact field.
"""

from __future__ import annotations

from bisect import bisect_left

from .fields import QQ, PrimeField, Rationals

TENSOR = "tensor"
EXTERIOR = "exterior"


class GradedSpace:
    """A finite ordered homogeneous basis with Z2 parities over an exact field.

    Immutable and hashable: spaces are compared on every compose and
    bracket, and ``canonical_tuples`` is cached on their parities alone.
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


def word_parity(space, letters):
    return sum(space.parities[i] for i in letters) & 1


def rotation_signs(par, t):
    """The signs of the rotations t -> t[i:] + t[:i] of a tuple t of arity
    n + 1, for i in range(len(t)): each is the rotation's exterior
    reordering sign (Koszul sign times the sign of the cyclic permutation),
    (-1)^{pre (tot - pre) + i n} with pre the parity of t[:i], read from
    one running prefix parity."""
    n = len(t) - 1
    tot = sum(map(par.__getitem__, t))
    signs, pre = [1], 0
    for i, x in enumerate(t[:n], 1):
        pre += par[x]
        signs.append(-1 if (pre * (tot - pre) + i * n) & 1 else 1)
    return signs


def canonical_word(flavor, letters, parities):
    """Sort a word's letters into canonical nondecreasing order.

    Returns (sign, letters) or None when the word dies in the quotient: a
    repeated even letter kills an exterior word.  (An odd letter may repeat
    in the exterior algebra: u^v = -(-1)^{|u||v|} v^u forces only even
    squares to vanish.)  Tensor words are canonical as they stand.

    The exterior sort inserts the letters from the last one on with
    ``bisect``.  A letter x that passes the i smaller letters before its
    place carries (-1)^{i + |x| (their parity)}, one factor per adjacent
    swap; the word's sign is the product of these factors.
    """
    if flavor == TENSOR:
        return 1, tuple(letters)
    seq, odd, e = [], [], 0
    for x in reversed(letters):
        i = bisect_left(seq, x)
        if parities[x]:
            j = bisect_left(odd, x)
            odd.insert(j, x)
            e += i + j
        elif i < len(seq) and seq[i] == x:
            return None
        else:
            e += i
        seq.insert(i, x)
    return -1 if e & 1 else 1, tuple(seq)


def canonical_merge(h, r, parities):
    """``canonical_word`` of the exterior word h + r, for canonical words h
    and r, by a merge: each letter y of r passes the letters x > y of h,
    with (-1)^{1 + |x||y|} each, and an even letter in both kills it."""
    e = 0
    for x in h:
        k = bisect_left(r, x)
        if not parities[x] and r[k:k + 1] == (x,):
            return None
        e += k + (parities[x] and sum(map(parities.__getitem__, r[:k])))
    return -1 if e & 1 else 1, tuple(sorted(h + r))
