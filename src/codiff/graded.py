"""Z2-graded basis bookkeeping, words in the three coalgebras, Koszul signs
and unshuffles.

Permutations are 1-indexed tuples ``images`` with ``images[i-1] == sigma(i)``,
matching the usual convention for unshuffles.  All sign computations return
plain ints (+1/-1) so they mix with scalars from any exact field.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .fields import QQ, PrimeField, Rationals

TENSOR = "tensor"
SYMMETRIC = "symmetric"
EXTERIOR = "exterior"
FLAVORS = (TENSOR, SYMMETRIC, EXTERIOR)

PARITY_ONLY = "parity_only"
PRODUCT_FORM = "product_form"
SHIFTED_FORM = "shifted_form"
GRADING_FORMS = (PARITY_ONLY, PRODUCT_FORM, SHIFTED_FORM)


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


def check_permutation(images):
    n = len(images)
    if sorted(images) != list(range(1, n + 1)):
        raise ValueError("not a permutation of 1..%d: %r" % (n, images))


def _inversions(keys, pars):
    """(inv, odd): the pairs i < j with keys[i] > keys[j], and how many of
    them join two odd letters (pars[i] is the parity of keys[i]).  These are
    the adjacent swaps that sort the word, so every reordering sign is read
    from them: (-1)^inv for the permutation, (-1)^odd in the symmetric
    algebra (Koszul), (-1)^(inv + odd) in the exterior algebra."""
    inv = odd = 0
    for j in range(1, len(keys)):
        kj, pj = keys[j], pars[j]
        for i in range(j):
            if keys[i] > kj:
                inv += 1
                odd += pars[i] & pj
    return inv, odd


def _flavor_sign(flavor, keys, pars):
    """The sign of sorting the word in the symmetric or exterior algebra."""
    inv, odd = _inversions(keys, pars)
    if flavor == EXTERIOR:
        odd += inv
    return -1 if odd & 1 else 1


def permutation_sign(images):
    """Ordinary sign (-1)^sigma."""
    check_permutation(images)
    return -1 if _inversions(images, (0,) * len(images))[0] & 1 else 1


def reorder_sign(flavor, images, parities):
    """The sign of v_sigma(1)..v_sigma(n) against v_1..v_n in the symmetric
    (Koszul sign epsilon(sigma; v)) or exterior (epsilon(sigma; v)
    (-1)^sigma) algebra, whatever adjacent swaps realize sigma."""
    if len(images) != len(parities):
        raise ValueError("permutation size %d != parity vector size %d"
                         % (len(images), len(parities)))
    check_permutation(images)
    return _flavor_sign(flavor, images, [parities[x - 1] for x in images])


def rotation_sign(par, t, i):
    """(-1)^{|t[:i]||t[i:]| + i n} for a tuple t of arity n + 1: the sign of
    the rotation t -> t[i:] + t[:i], which is its exterior reordering sign
    (Koszul sign times the sign of the cyclic permutation)."""
    pa = sum(map(par.__getitem__, t[:i]))
    pb = sum(map(par.__getitem__, t[i:]))
    return -1 if (pa * pb + i * (len(t) - 1)) & 1 else 1


def koszul_sign(images, parities):
    """The sign epsilon(sigma; v_1..v_n): one factor (-1)^{|a||b|} per
    adjacent swap that sorts the permuted word back into order."""
    return reorder_sign(SYMMETRIC, images, parities)


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

    Returns (sign, letters) or None when the word dies in the quotient:
    a repeated odd letter kills a symmetric word, a repeated even letter
    kills an exterior word.  (An odd letter may repeat in the exterior
    algebra: u^v = -(-1)^{|u||v|} v^u forces only even squares to vanish.)
    """
    if flavor == TENSOR:
        return 1, tuple(letters)
    seq = tuple(sorted(letters))
    dead = 1 if flavor == SYMMETRIC else 0
    for a, b in zip(seq, seq[1:]):
        if a == b and parities[a] == dead:
            return None
    return _flavor_sign(flavor, letters, [parities[x] for x in letters]), seq


class Word:
    """A coefficient times a pure word in T(V), S(V) or /\\V.

    Stored in canonical form: symmetric and exterior letters nondecreasing,
    with the reordering sign absorbed into the coefficient.
    """

    def __init__(self, space, flavor, letters, coefficient=1):
        if flavor not in FLAVORS:
            raise ValueError("unknown flavor %r" % flavor)
        if len(letters) == 0:
            raise ValueError("words have degree >= 1")
        self.space = space
        self.flavor = flavor
        cw = canonical_word(flavor, letters, space.parities)
        if cw is None:
            self.letters = tuple(sorted(letters))
            self.coefficient = 0 * coefficient
        else:
            sign, canon = cw
            self.letters = canon
            self.coefficient = sign * coefficient

    @property
    def degree(self):
        return len(self.letters)

    @property
    def parity(self):
        return word_parity(self.space, self.letters)

    @property
    def bidegree(self):
        return (self.parity, self.degree)

    def is_zero(self):
        return not self.coefficient


def grading_pair(form, bid_a, bid_b):
    """The Z2 pairing <a,b> of two bidegrees under the chosen grading form."""
    pa, da = bid_a
    pb, db = bid_b
    if form == PARITY_ONLY:
        return (pa * pb) & 1
    if form == PRODUCT_FORM:
        return (pa * pb + da * db) & 1
    if form == SHIFTED_FORM:
        return ((pa + da) * (pb + db)) & 1
    raise ValueError("unknown grading form %r" % form)
