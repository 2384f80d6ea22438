"""Property test of the coboundary blocks: ``images(p)``, built in one pass
over the structure's entries, equals N·D of each basis vector taken one at
a time through the bracket route (``coboundary`` or ``cyclic_coboundary``)
and read back with ``coords``, entry by entry: scaled by N, the lcm of the
denominators of every part, over Q, and as residues over F_p.  Every entry
is an int, in [0, p) over F_p.  Random tensor and exterior structures with
one part or two parts of different arities, sources from degree 0, over Q
(with integral and non-integral entries), F_2 and F_3, under both
conventions.  The tensor plain block places its terms by arithmetic on
positions and shares no code with the bracket route's
``coderivation.terms``, so the two check each other; its sources reach
degree 4 in dimensions 1 and 2."""

import random
from math import lcm

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from codiff import GradedSpace  # noqa: E402
from codiff.coderivation import CONVENTIONS  # noqa: E402
from codiff.fields import QQ, PrimeField  # noqa: E402
from codiff.graded import EXTERIOR, TENSOR  # noqa: E402
from codiff.homology import (_CyclicComplex, _PlainComplex,  # noqa: E402
                             coboundary, cyclic_coboundary)
from conftest import random_cochain, structure_in  # noqa: E402

FIELDS = [QQ, PrimeField(2), PrimeField(3)]
ARITIES = [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]
DENOMINATORS = [None, (1, 2), (2, 3), (1, 2, 3, 4, 6)]
PROPERTY = settings(max_examples=120, deadline=None)


@st.composite
def structures(draw):
    """(structure, source degree p), with targets of degree <= 4, or <= 3
    in dimension 3, except that tensor sources reach degree 4 in dimension
    1 and 2."""
    field = draw(st.sampled_from(FIELDS))
    dim = draw(st.integers(1, 3))
    parities = tuple(draw(st.lists(st.integers(0, 1), min_size=dim,
                                   max_size=dim)))
    space = GradedSpace(tuple("abc"[:dim]), parities, field)
    flavor = draw(st.sampled_from([TENSOR, EXTERIOR]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    density = draw(st.sampled_from([0.3, 0.6, 1.0]))
    arities = draw(st.sampled_from(ARITIES))
    # each part draws its own denominators, so N can exceed the lcm of
    # any one part's
    parts = {k: random_cochain(space, flavor, k, draw(st.integers(0, 1)),
                               rng, density, denominators=draw(
                                   st.sampled_from(DENOMINATORS))
                               if field == QQ else None)
             for k in arities}
    s = structure_in(flavor, space, parts, draw(st.sampled_from(CONVENTIONS)))
    top = (4 if dim < 3 else 3) - (max(arities) - 1)
    p = draw(st.integers(0, 4 if flavor == TENSOR and dim < 3 else top))
    return s, p


def as_block(s, image):
    """A bracket-route image as a block holds it: times N over Q, the
    residues over F_p."""
    p = s.space.field.characteristic
    n = p or lcm(*[c.denominator for m in s.parts.values()
                   for vec in m.coeffs.values() for c in vec.values()])
    return {q: {r: x.value if p else x * n for r, x in vec.items()}
            for q, vec in image.items()}


def assert_core_ints(s, image):
    p = s.space.field.characteristic
    for vec in image.values():
        for x in vec.values():
            assert type(x) is int
            assert not p or 0 <= x < p


@PROPERTY
@given(structures())
def test_plain_block_matches_each_column(case):
    s, p = case
    cx = _PlainComplex(s)
    block = cx.images(p)
    assert len(block) == cx.dim(p)
    for i, image in enumerate(block):
        delta = cx.reconstruct(p, {i: s.space.field(1)})
        want = {q: cx.coords(q, c) for q, c in coboundary(delta, s).items()}
        assert image == as_block(s, want)
        assert_core_ints(s, image)


@PROPERTY
@given(structures())
def test_cyclic_block_matches_each_column(case):
    s, p = case
    cx = _CyclicComplex(s)
    block = cx.images(p)
    assert len(block) == cx.dim(p)
    for i, image in enumerate(block):
        f = cx.reconstruct(p, {i: s.space.field(1)})
        want = {q: cx.coords(q, g) for q, g in cyclic_coboundary(f, s).items()}
        assert image == as_block(s, want)
        assert_core_ints(s, image)


@PROPERTY
@given(structures(), st.booleans())
def test_coords_read_back_each_basis_vector(case, cyclic):
    """Basis vector i, built by ``reconstruct``, has coordinates {i: 1} and
    the parity ``parity`` gives position i, in either complex."""
    s, p = case
    cx = (_CyclicComplex if cyclic else _PlainComplex)(s)
    one = s.space.field(1)
    for i in range(cx.dim(p)):
        c = cx.reconstruct(p, {i: one})
        assert cx.coords(p, c) == {i: one}
        assert c.parity == cx.parity(p, i)
