"""Property tests of the support-driven loops: ``compose`` and
``_unshuffle_sum`` visit only the targets of ``coderivation.terms``, and
``_rotation_sum`` only the rotations of h + w[1:], for w in f's support and
h a head of its first letter; ``is_cyclic_scalar`` and the cyclicity
witnesses (``_rotation_witness``, ``_antisymmetry_witness``,
``_cyclic_witness``) check only the support and the tuples that rotate or
swap into it; ``tilde`` reads each stored tuple once, and
``_PlainComplex.coords`` reads the nonzero coordinates through an index
map.  Each is compared, coefficients, witnesses and key order, with the
full-enumeration loop it replaced, kept here as the reference, on random
sparse cochains over Q, F_2 and F_3 with odd and even letters.
``canonical_tuples`` grows only the exterior tuples it keeps; it is
compared, tuples and order, with the filter of every multiset
(``oracle.word_tuples``).  The extension terms of ``coderivation.terms``,
summed per target, and ``compose`` read a cochain by key at canonical
words; they are compared with the oracle's ``extend_letters_reference``
and ``compose_reference``, which read every canonical word through the
oracle's own sort."""

import itertools
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from codiff import GradedSpace  # noqa: E402
from codiff.cochain import (  # noqa: E402
    Cochain, InnerProduct, ScalarCochain, canonical_tuples, tilde, untilde,
    vec_add)
from codiff.coderivation import compose, heads_of, terms  # noqa: E402
from codiff.fields import QQ, PrimeField  # noqa: E402
from codiff.graded import (EXTERIOR, TENSOR, canonical_merge,  # noqa: E402
                           canonical_word, word_parity)
from codiff.oracle import (compose_reference,  # noqa: E402
                           extend_letters_reference, word_tuples)
from codiff.homology import (_PlainComplex, _antisymmetry_witness,  # noqa: E402
                             _cyclic_witness, _rotation_sum,
                             _rotation_witness, _unshuffle_sum,
                             is_cyclic_scalar)
from codiff.structures import InfinityStructure  # noqa: E402
from conftest import (cyclic_basis_cochains, extensions,  # noqa: E402
                      pair, random_cochain, reorder_sign,
                      rotation_reorder_sign)

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


@PROPERTY
@given(st.lists(st.integers(0, 1), min_size=1, max_size=6),
       st.integers(0, 7))
def test_canonical_tuples_are_the_filtered_multisets(parities, degree):
    space = GradedSpace(tuple("abcdef"[:len(parities)]), tuple(parities), QQ)
    assert (canonical_tuples(space, EXTERIOR, degree)
            == word_tuples(space, EXTERIOR, degree))


@st.composite
def canonical_pairs(draw):
    """(parities, h, r): two canonical exterior words over 1 to 5 letters
    of random parity, each sorted with its odd letters repeated at will and
    an even letter at most once, so the two share odd and even letters."""
    parities = tuple(draw(st.lists(st.integers(0, 1), min_size=1,
                                   max_size=5)))

    def word():
        letters = draw(st.lists(st.integers(0, len(parities) - 1),
                                max_size=7))
        return tuple(sorted(x for i, x in enumerate(letters)
                            if parities[x] or x not in letters[:i]))
    return parities, word(), word()


@PROPERTY
@given(canonical_pairs())
def test_canonical_merge_is_the_canonical_word(case):
    """The merge of two canonical words gives ``canonical_word`` of their
    concatenation: the same sign and letters, and None exactly when an
    even letter of one is in the other."""
    parities, h, r = case
    assert (canonical_merge(h, r, parities)
            == canonical_word(EXTERIOR, h + r, parities))


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
            acc = acc + (sign * rotation_reorder_sign(space.parities, t, i)
                         * term)
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
        for pos in itertools.combinations(range(n + 1), l):
            sigma = pos + tuple(i for i in range(n + 1) if i not in pos)
            s = reorder_sign(EXTERIOR, tuple(i + 1 for i in sigma),
                             letter_par)
            head = tuple(t[i] for i in sigma[:l])
            tail = tuple(t[i] for i in sigma[l:])
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


def rotation_witness_reference(f):
    par = f.space.parities
    for t in itertools.product(range(f.space.dim), repeat=f.arity):
        if f.value(t) != (rotation_reorder_sign(par, t, 1)
                          * f.value(t[1:] + t[:1])):
            return t
    return None


def antisymmetry_witness_reference(f):
    space = f.space
    for t in itertools.product(range(space.dim), repeat=f.arity):
        base = f.value(t)
        for i in range(f.arity - 1):
            swapped = t[:i] + (t[i + 1], t[i]) + t[i + 2:]
            sign = -1 if not (space.parities[t[i]]
                              & space.parities[t[i + 1]]) else 1
            if f.value(swapped) != sign * base:
                return swapped
    return None


def tilde_reference(c, ip):
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
        for t in itertools.product(range(c.space.dim), repeat=c.degree + 1):
            v = c.value(t[:-1])
            val = c.space.field(0)
            for j, x in v.items():
                val = val + x * ip.matrix[j][t[-1]]
            if val:
                out[t] = val
    return ScalarCochain(c.space, TENSOR, c.degree + 1, c.parity & 1, out)


def cyclic_witness_reference(phi, ip):
    space = phi.space
    if phi.flavor == EXTERIOR:
        # graded alternating: antisymmetric, and zero wherever an even
        # letter repeats (which antisymmetry misses in characteristic 2)
        f = tilde_reference(phi, ip)
        return antisymmetry_witness_reference(f) or next(
            (t for t in itertools.product(range(space.dim), repeat=f.arity)
             if f.value(t) and any(not space.parities[x] and t.count(x) > 1
                                   for x in t)), None)
    k = phi.degree
    for t in itertools.product(range(space.dim), repeat=k + 1):
        lhs = pair(ip, phi.value(t[:k]), t[k])
        e = k + space.parities[t[0]] * phi.parity
        rhs = pair(ip, {t[0]: 1}, phi.value(t[1:]))
        if e & 1:
            rhs = -rhs
        if lhs != rhs:
            return t
    return None


# --- inputs -------------------------------------------------------------------

def cyclic_scalar(space, arity, parity, rng, density):
    """A random combination of cyclic basis vectors."""
    coeffs = {}
    for b in cyclic_basis_cochains(space, TENSOR, arity - 1):
        if b.parity == parity and rng.random() < density:
            vec_add(coeffs, b.coeffs, space.field(rng.randint(-3, 3)))
    return ScalarCochain(space, TENSOR, arity, parity, coeffs)


def alternating_scalar(space, arity, parity, rng, density):
    """A random exterior scalar cochain, read on every tuple."""
    e = random_scalar(space, EXTERIOR, arity, parity, rng, density)
    return ScalarCochain(space, TENSOR, arity, parity, {
        t: e.value(t)
        for t in itertools.product(range(space.dim), repeat=arity)})


def scalar_inputs(space, arity, parity, rng, density, special):
    """An arbitrary tensor scalar cochain, a ``special`` one (cyclic or
    alternating), and the special one with one coefficient changed."""
    arbitrary = random_scalar(space, TENSOR, arity, parity, rng, density)
    good = special(space, arity, parity, rng, density)
    bumped = dict(good.coeffs)
    t = rng.choice([t for t in itertools.product(range(space.dim),
                                                 repeat=arity)
                    if word_parity(space, t) == parity] or [None])
    if t is not None:
        bumped[t] = bumped.get(t, space.field(0)) + 1
    bumped = ScalarCochain(space, TENSOR, arity, parity, bumped)
    return arbitrary, good, bumped


@st.composite
def form_spaces(draw):
    """(space, invariant-form candidate): a graded space of dimension 2 or
    3 with an even number of odd letters, so that an even graded-symmetric
    nondegenerate form exists, and a random such form."""
    field = draw(st.sampled_from(FIELDS))
    parities = draw(st.sampled_from([(0, 0), (1, 1), (0, 0, 0), (0, 1, 1),
                                     (1, 0, 1), (1, 1, 0)]))
    space = GradedSpace(tuple("abc"[:len(parities)]), parities, field)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    n = space.dim
    for _ in range(50):
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if parities[i] != parities[j] or (i == j and parities[i]):
                    continue
                m[i][j] = rng.randint(-2, 2)
                m[j][i] = -m[i][j] if parities[i] else m[i][j]
        try:
            return space, InnerProduct(space, m)
        except ValueError:
            continue
    assume(False)


def shuffled(c, rng):
    """The same cochain with its coefficients stored in another order."""
    items = list(c.coeffs.items())
    rng.shuffle(items)
    return Cochain(c.space, c.flavor, c.degree, c.parity, dict(items))


# --- properties --------------------------------------------------------------

@PROPERTY
@given(space=spaces(), flavor=st.sampled_from([TENSOR, EXTERIOR]),
       degrees=st.tuples(st.integers(0, 3), st.integers(0, 3)),
       parities=st.tuples(st.integers(0, 1), st.integers(0, 1)),
       density=DENSITY, seed=st.integers(0, 2 ** 32))
def test_compose_matches_full_enumeration(space, flavor, degrees, parities,
                                          density, seed):
    m, k = degrees
    n = m + k - 1
    assume(0 <= n <= 4)
    rng = random.Random(seed)
    outer = random_cochain(space, flavor, m, parities[0], rng, density)
    inner = random_cochain(space, flavor, k, parities[1], rng, density)
    assert same(compose(outer, inner), compose_reference(outer, inner))


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
    arbitrary, cyclic, bumped = scalar_inputs(
        space, arity, parity, random.Random(seed), density, cyclic_scalar)
    assert is_cyclic_scalar(cyclic)
    for f in (arbitrary, cyclic, bumped):
        witness = rotation_witness_reference(f)
        assert _rotation_witness(f) == witness
        assert is_cyclic_scalar(f) == (witness is None)


@PROPERTY
@given(space=spaces(), flavor=st.sampled_from([TENSOR, EXTERIOR]),
       degree=st.integers(0, 3), parity=st.integers(0, 1), density=DENSITY,
       seed=st.integers(0, 2 ** 32))
def test_plain_coords_match_list_comprehension(space, flavor, degree, parity,
                                               density, seed):
    cx = _PlainComplex(InfinityStructure(flavor, space, {}))
    c = random_cochain(space, flavor, degree, parity, random.Random(seed),
                       density)
    dense = [space.field(c.coeffs.get(t, {}).get(j, 0))
             for t in canonical_tuples(space, flavor, degree)
             for j in range(space.dim)]
    want = {i: x for i, x in enumerate(dense) if x}
    got = cx.coords(degree, c)
    assert got == want
    assert {i: type(x) for i, x in got.items()} == \
        {i: type(x) for i, x in want.items()}


@PROPERTY
@given(space=spaces(), arity=st.integers(1, 4), parity=st.integers(0, 1),
       density=DENSITY, seed=st.integers(0, 2 ** 32))
def test_antisymmetry_witness_matches_full_enumeration(space, arity, parity,
                                                       density, seed):
    inputs = scalar_inputs(space, arity, parity, random.Random(seed),
                           density, alternating_scalar)
    assert _antisymmetry_witness(inputs[1]) is None
    for f in inputs:
        assert _antisymmetry_witness(f) == antisymmetry_witness_reference(f)


@PROPERTY
@given(form=form_spaces(), flavor=st.sampled_from([TENSOR, EXTERIOR]),
       degree=st.integers(0, 3), parity=st.integers(0, 1), density=DENSITY,
       seed=st.integers(0, 2 ** 32))
def test_cyclic_witness_matches_full_enumeration(form, flavor, degree, parity,
                                                 density, seed):
    space, ip = form
    rng = random.Random(seed)
    # an arbitrary cochain, a cyclic one (the cochain of a cyclic or an
    # alternating scalar form), and the cyclic one with one entry changed
    arbitrary = random_cochain(space, flavor, degree, parity, rng, density)
    special = cyclic_scalar if flavor == TENSOR else alternating_scalar
    cyclic = untilde(special(space, degree + 1, parity, rng, density), ip,
                     flavor)
    bumped = {t: dict(vec) for t, vec in cyclic.coeffs.items()}
    slots = [(t, j) for t in canonical_tuples(space, flavor, degree)
             for j in range(space.dim)
             if space.parities[j] ^ word_parity(space, t) == parity]
    if slots:
        t, j = rng.choice(slots)
        vec_add(bumped.setdefault(t, {}), {j: space.field(1)})
    bumped = Cochain(space, flavor, degree, parity, bumped)
    assert _cyclic_witness(flavor, tilde(cyclic, ip)) is None
    for phi in (arbitrary, cyclic, bumped):
        assert _cyclic_witness(flavor, tilde(phi, ip)) == \
            cyclic_witness_reference(phi, ip)


@PROPERTY
@given(form=form_spaces(), flavor=st.sampled_from([TENSOR, EXTERIOR]),
       degree=st.integers(0, 3), parity=st.integers(0, 1), density=DENSITY,
       seed=st.integers(0, 2 ** 32))
def test_tilde_matches_full_enumeration(form, flavor, degree, parity, density,
                                        seed):
    space, ip = form
    rng = random.Random(seed)
    c = shuffled(random_cochain(space, flavor, degree, parity, rng, density),
                 rng)
    new, ref = tilde(c, ip), tilde_reference(c, ip)
    assert same(new, ref)
    assert [type(x) for x in new.coeffs.values()] == \
        [type(x) for x in ref.coeffs.values()]


@PROPERTY
@given(space=spaces(), flavor=st.sampled_from([TENSOR, EXTERIOR]),
       n=st.integers(1, 5), k=st.integers(0, 3),
       parities=st.tuples(st.integers(0, 1), st.integers(0, 1)),
       density=DENSITY, seed=st.integers(0, 2 ** 32))
def test_terms_of_canonical_words_sum_to_the_oracle_extension(
        space, flavor, n, k, parities, density, seed):
    """The terms of ``terms`` on the canonical words of degree n - k + 1
    (odd letters repeat in the exterior algebra) have canonical targets of
    degree n, and summed per target they are the oracle's extension, value
    and type, which sums every split of the target.  So the reads by key of
    ``terms`` and ``compose`` give what the oracle's reads through its own
    sort give."""
    words = canonical_tuples(space, flavor, n)
    assume(k <= n and words)
    rng = random.Random(seed)
    par = space.parities
    gen = random_cochain(space, flavor, k, parities[0], rng, density)
    for t, *_ in terms(canonical_tuples(space, flavor, n - k + 1),
                       heads_of(gen), flavor, par):
        assert len(t) == n and canonical_word(flavor, t, par) == (1, t)
    table = extensions(gen, n)
    for word in words:
        want = extend_letters_reference(gen, word)
        assert {t: (c, type(c)) for t, c in table.get(word, {}).items()} == \
            {t: (c, type(c)) for t, c in want.items()}
    outer = random_cochain(space, flavor, n - k + 1, parities[1], rng,
                           density)
    assert same(compose(outer, gen), compose_reference(outer, gen))
