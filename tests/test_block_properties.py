"""Property test of the coboundary blocks: ``images(p)``, built in one pass
over the structure's entries, equals D of each basis vector taken one at a
time through the bracket route (``coboundary`` or ``cyclic_coboundary``)
and read back with ``coords``, entry by entry and in scalar type.  Random
tensor and exterior structures with one part or two parts of different
arities, sources from degree 0, over Q, F_2 and F_3, under both
conventions."""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from codiff import A_INFINITY, L_INFINITY, GradedSpace  # noqa: E402
from codiff.cochain import Cochain  # noqa: E402
from codiff.coderivation import CONVENTIONS  # noqa: E402
from codiff.fields import QQ, PrimeField  # noqa: E402
from codiff.graded import EXTERIOR, TENSOR  # noqa: E402
from codiff.homology import (_CyclicComplex, _PlainComplex,  # noqa: E402
                             coboundary, cyclic_coboundary)
from codiff.structures import InfinityStructure  # noqa: E402
from conftest import random_cochain  # noqa: E402

FIELDS = [QQ, PrimeField(2), PrimeField(3)]
ARITIES = [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]
PROPERTY = settings(max_examples=120, deadline=None)


@st.composite
def structures(draw):
    """(structure, source degree p), with targets of degree <= 4, or <= 3
    in dimension 3."""
    field = draw(st.sampled_from(FIELDS))
    dim = draw(st.integers(1, 3))
    parities = tuple(draw(st.lists(st.integers(0, 1), min_size=dim,
                                   max_size=dim)))
    space = GradedSpace(tuple("abc"[:dim]), parities, field)
    kind = draw(st.sampled_from([A_INFINITY, L_INFINITY]))
    flavor = TENSOR if kind == A_INFINITY else EXTERIOR
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    density = draw(st.sampled_from([0.3, 0.6, 1.0]))
    arities = draw(st.sampled_from(ARITIES))
    parts = {k: random_cochain(space, flavor, k, draw(st.integers(0, 1)),
                               rng, density) for k in arities}
    s = InfinityStructure(kind, space, parts, draw(st.sampled_from(CONVENTIONS)))
    p = draw(st.integers(0, (4 if dim < 3 else 3) - (max(arities) - 1)))
    return s, p


def types(image):
    return {q: {r: type(x) for r, x in vec.items()} for q, vec in image.items()}


@PROPERTY
@given(structures())
def test_plain_block_matches_each_column(case):
    s, p = case
    cx = _PlainComplex(s)
    block = cx.images(p)
    assert len(block) == cx.dim(p)
    for image, (t, j, parity) in zip(block, cx._basis(p)):
        delta = Cochain(s.space, s.flavor, p, parity, {t: {j: s.space.field(1)}})
        want = {q: cx.coords(q, c) for q, c in coboundary(delta, s).items()}
        assert image == want
        assert types(image) == types(want)


@PROPERTY
@given(structures())
def test_cyclic_block_matches_each_column(case):
    s, p = case
    cx = _CyclicComplex(s)
    block = cx.images(p)
    assert len(block) == cx.dim(p)
    for image, (f, _) in zip(block, cx._basis(p)):
        want = {q: cx.coords(q, g) for q, g in cyclic_coboundary(f, s).items()}
        assert image == want
        assert types(image) == types(want)
