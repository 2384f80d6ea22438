"""Property tests of the support-driven coboundary loops: ``compose``,
``_rotation_sum`` and ``_unshuffle_sum`` visit only the tuples that
``coderivation.reachable`` returns, ``is_cyclic_scalar`` checks only the
support, and ``_PlainComplex.coords`` reads the nonzero
coordinates through an index map.  Each is compared, coefficients and key order,
with the full-enumeration loop it replaced, kept here as the reference, on
random sparse cochains over Q, F_2 and F_3 with odd and even letters."""

import itertools
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from codiff import A_INFINITY, L_INFINITY, GradedSpace  # noqa: E402
from codiff.cochain import (  # noqa: E402
    Cochain, ScalarCochain, canonical_tuples, vec_add)
from codiff.coderivation import compose, extend_letters  # noqa: E402
from codiff.fields import QQ, PrimeField  # noqa: E402
from codiff.graded import (EXTERIOR, PARITY_ONLY, PRODUCT_FORM,  # noqa: E402
                           SYMMETRIC, TENSOR, reorder_sign, unshuffles,
                           word_parity)
from codiff.homology import (_PlainComplex, _rotation_sign,  # noqa: E402
                             _rotation_sum, _unshuffle_sum,
                             cyclic_scalar_basis, is_cyclic_scalar)
from codiff.structures import InfinityStructure  # noqa: E402
from conftest import random_cochain  # noqa: E402

FIELDS = [QQ, PrimeField(2), PrimeField(3)]
PROPERTY = settings(max_examples=100, deadline=None)
DENSITY = st.sampled_from([0.2, 0.5, 1.0])


@st.composite
def spaces(draw):
    """A graded space of dimension 2 or 3 with odd and even letters (in
    dimension 1 every word is canonical)."""
    field = draw(st.sampled_from(FIELDS))
    parities = draw(st.lists(st.integers(0, 1), min_size=2, max_size=3))
    return GradedSpace(tuple("abc"[:len(parities)]), tuple(parities), field)


def random_scalar(space, flavor, arity, parity, rng, density):
    """A parity-homogeneous scalar cochain on canonical tuples."""
    coeffs = {}
    for t in canonical_tuples(space, flavor, arity):
        if word_parity(space, t) == parity and rng.random() < density:
            c = space.field(rng.randint(-3, 3))
            if c:
                coeffs[t] = c
    return ScalarCochain(space, flavor, arity, parity, coeffs)


def same(new, ref):
    """Equal coefficients in the same key order."""
    return list(new.coeffs.items()) == list(ref.coeffs.items())


# --- the full-enumeration references ----------------------------------------

def compose_reference(outer, inner, mode):
    n = outer.degree + inner.degree - 1
    coeffs = {}
    for t in canonical_tuples(outer.space, outer.flavor, n):
        acc = {}
        for mid, c in extend_letters(inner, t, mode).items():
            vec_add(acc, outer.value(mid), c)
        if acc:
            coeffs[t] = acc
    return Cochain(outer.space, outer.flavor, n,
                   (outer.parity + inner.parity) & 1, coeffs)


def rotation_sum_reference(f, inner, extra_exp):
    space = f.space
    l = inner.degree
    n = f.arity - 1 + l - 1
    sign = -1 if extra_exp & 1 else 1
    out = {}
    for t in itertools.product(range(space.dim), repeat=n + 1):
        acc = space.field(0)
        for i in range(n + 1):
            u = t[i:] + t[:i]
            vec = inner.value(u[:l])
            term = space.field(0)
            for b, c in vec.items():
                term = term + c * f.value((b,) + u[l:])
            acc = acc + sign * _rotation_sign(space.parities, t, i) * term
        if acc:
            out[t] = acc
    return ScalarCochain(space, TENSOR, n + 1, (f.parity + inner.parity) & 1,
                         out)


def unshuffle_sum_reference(f, inner, extra_exp):
    space = f.space
    l = inner.degree
    n = f.arity - 1 + l - 1
    par = space.parities
    out = {}
    for t in canonical_tuples(space, EXTERIOR, n + 1):
        letter_par = [par[x] for x in t]
        acc = space.field(0)
        for sigma in unshuffles(l, n + 1 - l):
            s = reorder_sign(EXTERIOR, sigma, letter_par)
            head = tuple(t[sigma[i] - 1] for i in range(l))
            tail = tuple(t[sigma[i] - 1] for i in range(l, n + 1))
            term = space.field(0)
            for b, c in inner.value(head).items():
                term = term + c * f.value((b,) + tail)
            if extra_exp & 1:
                term = -term
            acc = acc + s * term
        if acc:
            out[t] = acc
    return ScalarCochain(space, EXTERIOR, n + 1, (f.parity + inner.parity) & 1,
                         out)


def is_cyclic_scalar_reference(f):
    par = f.space.parities
    return all(f.value(t) == _rotation_sign(par, t, 1) * f.value(t[1:] + t[:1])
               for t in itertools.product(range(f.space.dim), repeat=f.arity))


# --- properties --------------------------------------------------------------

@PROPERTY
@given(space=spaces(),
       flavor=st.sampled_from([TENSOR, SYMMETRIC, EXTERIOR]),
       mode=st.sampled_from([PARITY_ONLY, PRODUCT_FORM]),
       degrees=st.tuples(st.integers(0, 3), st.integers(0, 3)),
       parities=st.tuples(st.integers(0, 1), st.integers(0, 1)),
       density=DENSITY, seed=st.integers(0, 2 ** 32))
def test_compose_matches_full_enumeration(space, flavor, mode, degrees,
                                          parities, density, seed):
    m, k = degrees
    n = m + k - 1
    assume(0 <= n <= 4)
    rng = random.Random(seed)
    outer = random_cochain(space, flavor, m, parities[0], rng, density)
    inner = random_cochain(space, flavor, k, parities[1], rng, density)
    assert same(compose(outer, inner, mode),
                compose_reference(outer, inner, mode))


@PROPERTY
@given(space=spaces(), arity=st.integers(1, 3), l=st.integers(0, 3),
       parities=st.tuples(st.integers(0, 1), st.integers(0, 1)),
       extra=st.integers(0, 1), density=DENSITY, seed=st.integers(0, 2 ** 32))
def test_rotation_sum_matches_full_enumeration(space, arity, l, parities,
                                               extra, density, seed):
    assume(1 <= arity + l - 1 <= 4)
    rng = random.Random(seed)
    f = random_scalar(space, TENSOR, arity, parities[0], rng, density)
    inner = random_cochain(space, TENSOR, l, parities[1], rng, density)
    assert same(_rotation_sum(f, inner, extra),
                rotation_sum_reference(f, inner, extra))


@PROPERTY
@given(space=spaces(), arity=st.integers(1, 4), l=st.integers(0, 3),
       parities=st.tuples(st.integers(0, 1), st.integers(0, 1)),
       extra=st.integers(0, 1), density=DENSITY, seed=st.integers(0, 2 ** 32))
def test_unshuffle_sum_matches_full_enumeration(space, arity, l, parities,
                                                extra, density, seed):
    assume(1 <= arity + l - 1 <= 5)
    rng = random.Random(seed)
    f = random_scalar(space, EXTERIOR, arity, parities[0], rng, density)
    inner = random_cochain(space, EXTERIOR, l, parities[1], rng, density)
    assert same(_unshuffle_sum(f, inner, extra),
                unshuffle_sum_reference(f, inner, extra))


@PROPERTY
@given(space=spaces(), arity=st.integers(1, 4), parity=st.integers(0, 1),
       density=DENSITY, seed=st.integers(0, 2 ** 32))
def test_is_cyclic_scalar_matches_full_enumeration(space, arity, parity,
                                                   density, seed):
    rng = random.Random(seed)
    # an arbitrary cochain, a random combination of cyclic basis vectors,
    # and that combination with one coefficient changed
    arbitrary = random_scalar(space, TENSOR, arity, parity, rng, density)
    coeffs = {}
    for b in cyclic_scalar_basis(space, TENSOR, arity - 1)[0]:
        if b.parity == parity and rng.random() < density:
            vec_add(coeffs, b.coeffs, space.field(rng.randint(-3, 3)))
    cyclic = ScalarCochain(space, TENSOR, arity, parity, coeffs)
    bumped = dict(coeffs)
    t = rng.choice([t for t in itertools.product(range(space.dim),
                                                 repeat=arity)
                    if word_parity(space, t) == parity] or [None])
    if t is not None:
        bumped[t] = bumped.get(t, space.field(0)) + 1
    bumped = ScalarCochain(space, TENSOR, arity, parity, bumped)
    assert is_cyclic_scalar(cyclic)
    for f in (arbitrary, cyclic, bumped):
        assert is_cyclic_scalar(f) == is_cyclic_scalar_reference(f)


@PROPERTY
@given(space=spaces(), flavor=st.sampled_from([TENSOR, EXTERIOR]),
       degree=st.integers(0, 3), parity=st.integers(0, 1), density=DENSITY,
       seed=st.integers(0, 2 ** 32))
def test_plain_coords_match_list_comprehension(space, flavor, degree, parity,
                                               density, seed):
    kind = A_INFINITY if flavor == TENSOR else L_INFINITY
    cx = _PlainComplex(InfinityStructure(kind, space, {}))
    c = random_cochain(space, flavor, degree, parity, random.Random(seed),
                       density)
    dense = [space.field(c.coeffs.get(t, {}).get(j, 0))
             for t, j, _ in cx._basis(degree)]
    want = {i: x for i, x in enumerate(dense) if x}
    got = cx.coords(degree, c)
    assert got == want
    assert {i: type(x) for i, x in got.items()} == \
        {i: type(x) for i, x in want.items()}
