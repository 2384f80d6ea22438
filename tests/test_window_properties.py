"""Property tests of the per-degree window report against dense ranks.
For a structure of one arity k, D_p maps C^p to C^{p+k-1} alone, so the
report must give Z^p = dim C^p - rank D_p and B^p = rank D_{p-k+1}.  For
two arities the report must give Z^p = dim C^p - rank(D on C^p) and, with
D applied to the sources of degree a - spread .. b, B^p = rank(D on the
sources) - rank(the same with degree p's coordinates deleted).  Each rank is
taken by ``oracle.dense_rank`` on the images of D evaluated on every tuple,
with no coordinates, index maps or sparse blocks; random structures over Q,
F_2 and F_3 under both conventions, in the plain and in the cyclic
complex."""

import itertools
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import (assume, given, settings,  # noqa: E402
                        strategies as st)

from codiff import GradedSpace  # noqa: E402
from codiff.cochain import Cochain, canonical_tuples  # noqa: E402
from codiff.coderivation import CONVENTIONS  # noqa: E402
from codiff.fields import QQ, PrimeField  # noqa: E402
from codiff.graded import EXTERIOR, TENSOR, word_parity  # noqa: E402
from codiff.homology import (_spanned, coboundary, cohomology,  # noqa: E402
                             cyclic_coboundary, cyclic_cohomology,
                             cyclic_scalar_basis)
from codiff.oracle import dense_rank  # noqa: E402
from conftest import (cyclic_basis_cochains, random_cochain,  # noqa: E402
                      structure_in)

FIELDS = [QQ, PrimeField(2), PrimeField(3)]
PROPERTY = settings(max_examples=100, deadline=None)


@st.composite
def structures(draw, arity_sets, min_dim=1):
    """(structure with one part of each arity in a drawn set, window a..b),
    with the window kept small enough for dense ranks: target degrees
    b + spread <= 4, or <= 3 in dimension 3, the spread being the largest
    arity less one."""
    field = draw(st.sampled_from(FIELDS))
    dim = draw(st.integers(min_dim, 3))
    parities = tuple(draw(st.lists(st.integers(0, 1), min_size=dim,
                                   max_size=dim)))
    space = GradedSpace(tuple("abc"[:dim]), parities, field)
    flavor = draw(st.sampled_from([TENSOR, EXTERIOR]))
    arities = draw(st.sampled_from(arity_sets))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    density = draw(st.sampled_from([0.3, 0.6, 1.0]))
    parts = {k: random_cochain(space, flavor, k, k & 1, rng, density)
             for k in arities}
    b = draw(st.integers(0, (4 if dim < 3 else 3) - (max(arities) - 1)))
    a = draw(st.integers(0, b))
    convention = draw(st.sampled_from(CONVENTIONS))
    return structure_in(flavor, space, parts, convention), (a, b)


def plain_images(s, p, degrees):
    """D of every delta cochain of degree p, as one dense row over all
    (tuple, output letter) pairs of the target degrees, in order."""
    space, flavor = s.space, s.flavor
    par = space.parities
    rows = []
    for t in canonical_tuples(space, flavor, p):
        for j in range(space.dim):
            delta = Cochain(space, flavor, p, (par[j] + word_parity(space, t))
                            & 1, {t: {j: 1}})
            image = coboundary(delta, s)
            rows.append([space.field(image[q].value(u).get(i, 0)
                                     if q in image else 0)
                         for q in degrees
                         for u in itertools.product(range(space.dim),
                                                    repeat=q)
                         for i in range(space.dim)])
    return rows


def cyclic_images(s, p, degrees):
    """D of every cyclic basis cochain of degree p, as one dense row over
    all tuples of the target degrees' arities, in order."""
    space = s.space
    rows = []
    for f in cyclic_basis_cochains(space, s.flavor, p):
        image = cyclic_coboundary(f, s)
        rows.append([space.field(image[q].value(u) if q in image else 0)
                     for q in degrees
                     for u in itertools.product(range(space.dim),
                                                repeat=q + 1)])
    return rows


def plain_dim(s, p):
    return len(canonical_tuples(s.space, s.flavor, p)) * s.space.dim


def cyclic_dim(s, p):
    return len(cyclic_scalar_basis(s.space, s.flavor, p)[0])


@PROPERTY
@given(structures([(1,), (2,), (3,)]), st.booleans())
def test_window_report_matches_dense_ranks(case, cyclic):
    s, window = case
    spread = max(s.parts) - 1 if s.parts else 0
    if cyclic:
        report = cyclic_cohomology(s, None, window)
        images, dim = cyclic_images, cyclic_dim
    else:
        report = cohomology(s, window)
        images, dim = plain_images, plain_dim
    assert report.graded_exact
    for row in report.rows:
        p = row.degree
        rank_p = dense_rank(images(s, p, [p + spread]), s.space.field)
        rank_in = (dense_rank(images(s, p - spread, [p]), s.space.field)
                   if p >= spread else 0)
        assert (row.cocycles, row.coboundaries) == (dim(s, p) - rank_p,
                                                    rank_in)
        assert row.quotient == row.cocycles - row.coboundaries


# one letter carries no odd part of arity 1 or 3, hence two letters or more
@PROPERTY
@given(structures([(1, 2), (1, 3), (2, 3)], min_dim=2), st.booleans())
def test_mixed_window_report_matches_dense_ranks(case, cyclic):
    s, (a, b) = case
    # a random part can be zero, and the structure drops it
    assume(len(s.parts) == 2)
    spread = max(s.parts) - 1
    if cyclic:
        report = cyclic_cohomology(s, None, (a, b))
        images, dim = cyclic_images, cyclic_dim
    else:
        report = cohomology(s, (a, b))
        images, dim = plain_images, plain_dim
    assert not report.graded_exact
    field = s.space.field
    low = max(0, a - spread)
    targets = list(range(low, b + spread + 1))
    sources = [row for q in range(low, b + 1)
               for row in images(s, q, targets)]
    rank_sources = dense_rank(sources, field)
    for row in report.rows:
        p = row.degree
        # the dense columns of degree p, each target degree q taking
        # dim^(q+1) of them in both complexes
        n = s.space.dim
        lo = sum(n ** (q + 1) for q in range(low, p))
        hi = lo + n ** (p + 1)
        off_p = [r[:lo] + r[hi:] for r in sources]
        rank_p = dense_rank(images(s, p, range(p, p + spread + 1)), field)
        assert row.cocycles == dim(s, p) - rank_p
        assert row.coboundaries == rank_sources - dense_rank(off_p, field)
        assert row.quotient == row.cocycles - row.coboundaries


class _Degrees:
    """What ``_spanned`` reads of a complex: its field, the field's
    characteristic (``modulus``) and the dimension of each degree."""

    def __init__(self, field, dims):
        self.field = field
        self.modulus = field.characteristic
        self.dim = dims.__getitem__


@st.composite
def span_cases(draw):
    """(field, dimensions of degrees 0 and 1, source families, questioned
    families, last) of families {degree: sparse vector} over core ints,
    what ``_spanned`` takes: ints over Q, residues in [1, p) over F_p.  A
    source lies in one degree or both.  A questioned family is random,
    zero, or a combination of the sources and the earlier families; all of
    them lie in degree ``last`` when so drawn (and combine only families
    that do), else they spread over both degrees.  The families are drawn
    over the field, with integer coefficients, and then given as ints."""
    field = draw(st.sampled_from(FIELDS))
    dims = draw(st.lists(st.integers(1, 3), min_size=2, max_size=2))
    last = draw(st.sampled_from([None, 0, 1]))
    on_last = last is not None and draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2 ** 32)))

    def add(acc, family, c):
        for q, vec in family.items():
            for r, x in vec.items():
                y = acc.setdefault(q, {}).get(r, 0) + c * x
                acc[q][r] = y
                if not y:
                    del acc[q][r]
        return {q: vec for q, vec in acc.items() if vec}

    def random_family(degrees):
        out = {}
        for q in degrees:
            for r in range(dims[q]):
                if rng.random() < 0.5:
                    out = add(out, {q: {r: field(1)}}, rng.randint(-2, 2))
        return out

    sources = [random_family(draw(st.sampled_from([(0,), (1,), (0, 1)])))
               for _ in range(draw(st.integers(0, 4)))]
    vectors = []
    for kind in draw(st.lists(st.sampled_from(["random", "zero", "span"]),
                              max_size=5)):
        family = {}
        if kind == "random":
            family = random_family((last,) if on_last else (0, 1))
        elif kind == "span":
            for other in sources + vectors:
                if not on_last or set(other) <= {last}:
                    family = add(family, other, rng.randint(-2, 2))
        vectors.append(family)

    def core(family):
        p = field.characteristic
        return {q: {r: x.value if p else x.numerator for r, x in vec.items()}
                for q, vec in family.items()}
    return (field, dims, [core(f) for f in sources],
            [core(f) for f in vectors], last)


@PROPERTY
@given(span_cases())
def test_spanned_marks_each_vector_in_the_span_of_the_earlier_ones(case):
    """j is marked exactly when vector j adds nothing to the rank of the
    sources and vectors[:j].  The pivots in degree ``last`` span the part
    of the row space that vanishes off it, whose dimension is the rank of
    the sources plus one for each vector, less the rank off degree last;
    the marked vectors account for the dependences.  With every vector in
    degree last, that leaves dense_rank(sources) - dense_rank(sources off
    degree last) once the unmarked vectors are taken away."""
    field, dims, sources, vectors, last = case
    spanned, pivots = _spanned(_Degrees(field, dims), sources, vectors, last)

    def rank(families, degrees=(0, 1)):
        return dense_rank([[field(family.get(q, {}).get(r, 0))
                            for q in degrees for r in range(dims[q])]
                           for family in families], field)
    for j in range(len(vectors)):
        assert (j in spanned) == (rank(sources + vectors[:j + 1])
                                  == rank(sources + vectors[:j]))
    if last is None:
        assert pivots == 0
    else:
        off = (1 - last,)
        assert pivots - (len(vectors) - len(spanned)) == (
            rank(sources) - rank(sources + vectors, off))
        if all(set(family) <= {last} for family in vectors):
            assert pivots - (len(vectors) - len(spanned)) == (
                rank(sources) - rank(sources, off))
