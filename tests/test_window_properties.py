"""Property test of the per-degree window report.  For a structure of one
arity k, D_p maps C^p to C^{p+k-1} alone, so the report must give
Z^p = dim C^p - rank D_p and B^p = rank D_{p-k+1}.  Each rank is taken here
by ``oracle.dense_rank`` on the images of D evaluated on every tuple, with
no coordinates, index maps or sparse blocks; random single-arity structures
over Q, F_2 and F_3, in the plain and in the cyclic complex."""

import itertools
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from codiff import A_INFINITY, L_INFINITY, GradedSpace  # noqa: E402
from codiff.cochain import Cochain, canonical_tuples  # noqa: E402
from codiff.fields import QQ, PrimeField  # noqa: E402
from codiff.graded import EXTERIOR, TENSOR, word_parity  # noqa: E402
from codiff.homology import (coboundary, cohomology,  # noqa: E402
                             cyclic_coboundary, cyclic_cohomology,
                             cyclic_scalar_basis)
from codiff.oracle import dense_rank  # noqa: E402
from codiff.structures import InfinityStructure  # noqa: E402
from conftest import random_cochain  # noqa: E402

FIELDS = [QQ, PrimeField(2), PrimeField(3)]
PROPERTY = settings(max_examples=100, deadline=None)


@st.composite
def single_arity(draw):
    """(structure with one part of arity k, window a..b), with the window
    kept small enough for dense ranks: target degrees b + k - 1 <= 4, or
    <= 3 in dimension 3."""
    field = draw(st.sampled_from(FIELDS))
    dim = draw(st.integers(1, 3))
    parities = tuple(draw(st.lists(st.integers(0, 1), min_size=dim,
                                   max_size=dim)))
    space = GradedSpace(tuple("abc"[:dim]), parities, field)
    kind = draw(st.sampled_from([A_INFINITY, L_INFINITY]))
    flavor = TENSOR if kind == A_INFINITY else EXTERIOR
    k = draw(st.integers(1, 3))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    part = random_cochain(space, flavor, k, k & 1, rng,
                          draw(st.sampled_from([0.3, 0.6, 1.0])))
    b = draw(st.integers(0, (4 if dim < 3 else 3) - (k - 1)))
    a = draw(st.integers(0, b))
    return InfinityStructure(kind, space, {k: part}), k, (a, b)


def plain_images(s, p):
    """D of every delta cochain of degree p, as dense rows over all
    (tuple, output letter) pairs of the target degree."""
    space, flavor = s.space, s.flavor
    par = space.parities
    rows = []
    for t in canonical_tuples(space, flavor, p):
        for j in range(space.dim):
            delta = Cochain(space, flavor, p, (par[j] + word_parity(space, t))
                            & 1, {t: {j: 1}})
            for q, c in coboundary(delta, s).items():
                rows.append([space.field(c.value(u).get(i, 0))
                             for u in itertools.product(range(space.dim),
                                                        repeat=q)
                             for i in range(space.dim)])
    return rows


def cyclic_images(s, p):
    """D of every cyclic basis cochain of degree p, as dense rows over all
    tuples of the target arity."""
    space = s.space
    rows = []
    for f in cyclic_scalar_basis(space, s.flavor, p)[0]:
        for g in cyclic_coboundary(f, s).values():
            rows.append([space.field(g.value(u))
                         for u in itertools.product(range(space.dim),
                                                    repeat=g.arity)])
    return rows


def plain_dim(s, p):
    return len(canonical_tuples(s.space, s.flavor, p)) * s.space.dim


def cyclic_dim(s, p):
    return len(cyclic_scalar_basis(s.space, s.flavor, p)[0])


@PROPERTY
@given(single_arity(), st.booleans())
def test_window_report_matches_dense_ranks(case, cyclic):
    s, k, window = case
    spread = k - 1 if s.parts else 0
    if cyclic:
        report = cyclic_cohomology(s, None, window)
        images, dim = cyclic_images, cyclic_dim
    else:
        report = cohomology(s, window)
        images, dim = plain_images, plain_dim
    assert report.graded_exact
    for row in report.rows:
        p = row.degree
        rank_p = dense_rank(images(s, p), s.space.field)
        rank_in = (dense_rank(images(s, p - spread), s.space.field)
                   if p >= spread else 0)
        assert (row.cocycles, row.coboundaries) == (dim(s, p) - rank_p,
                                                    rank_in)
        assert row.quotient == row.cocycles - row.coboundaries
