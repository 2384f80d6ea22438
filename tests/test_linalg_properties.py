"""Property tests of the sparse elimination core in ``codiff.linalg`` on
small random matrices over Q, F_2, F_3 and F_32003, against the independent
``oracle.dense_rank`` and a dense Gauss-Jordan reference kept here.  The
matrices are drawn dense and handed to ``linalg`` as sparse rows that may
keep explicit zero entries and mix plain ints with field scalars; over Q
some have fractional and 20-40 bit entries."""

from fractions import Fraction
from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from codiff import linalg, oracle  # noqa: E402
from codiff.fields import QQ, FpElement, PrimeField  # noqa: E402
from conftest import dense_vector  # noqa: E402

FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(32003)]
ENTRY = st.integers(-3, 3)
# entries p/q with q in 1..6, some with numerators of 20 to 40 bits:
# ``core_vectors`` clears their denominators by one factor for the matrix
RATIONAL = st.one_of(
    ENTRY, st.builds(Fraction, ENTRY, st.integers(1, 6)),
    st.builds(Fraction, st.integers(2 ** 20, 2 ** 40)
              | st.integers(-2 ** 40, -2 ** 20), st.integers(1, 6)))
PROPERTY = settings(max_examples=100, deadline=None)


@st.composite
def matrices(draw, max_rows=8, max_cols=10):
    """(field, matrix, rows): up to max_rows x max_cols entries in -3..3,
    or over Q also RATIONAL ones, including empty, zero-row and zero-column
    matrices, as a dense matrix of field scalars and as the sparse rows
    handed to ``linalg``.  Each entry of a row is the drawn int or
    ``Fraction`` or its field scalar; a zero of the field (over F_2 also
    the int 2) is dropped, kept as drawn, or kept as 0, Fraction(0) or, over
    F_p, FpElement(0, p), so no entry may become a pivot on a zero."""
    field = draw(st.sampled_from(FIELDS))
    entry = draw(st.sampled_from([ENTRY, RATIONAL])) if field == QQ else ENTRY
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0, max_cols))
    m = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows))
    zero_row = draw(st.sampled_from([None] + list(range(rows))))
    zero_col = draw(st.sampled_from([None] + list(range(cols))))
    for i, row in enumerate(m):
        for j in range(cols):
            if i == zero_row or j == zero_col:
                row[j] = 0
    p = field.characteristic
    zeros = [None, 0, Fraction(0)] + ([FpElement(0, p)] if p else [])
    sparse = []
    for row in m:
        sparse.append({})
        for j, x in enumerate(row):
            y = draw(st.sampled_from([x, field(x)] if field(x) else
                                     [x, *zeros]))
            if y is not None:
                sparse[-1][j] = y
    return field, [[field(x) for x in row] for row in m], sparse


def reference_rref(m, field):
    """Dense Gauss-Jordan elimination; the reduced echelon form is unique."""
    a = [row[:] for row in m]
    cols = len(a[0]) if a else 0
    pivots = []
    for c in range(cols):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = field(1) / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


def matvec(m, v, field):
    return [sum((x * y for x, y in zip(row, v)), field(0)) for row in m]


def dense(rows, cols, field):
    return [dense_vector(row, cols, field(0)) for row in rows]


def transpose(m, cols):
    return [[row[j] for row in m] for j in range(cols)]


@PROPERTY
@given(matrices())
def test_rank_matches_dense_oracle(fm):
    field, m, rows = fm
    assert linalg.rank(rows, field) == oracle.dense_rank(m, field)


@PROPERTY
@given(matrices())
def test_rref_matches_dense_reference(fm):
    field, m, rows = fm
    rows, pivots = linalg.rref(rows, field)
    ref_rows, ref_pivots = reference_rref(m, field)
    cols = len(m[0]) if m else 0
    assert (dense(rows, cols, field), pivots) == \
        (ref_rows[:len(ref_pivots)], ref_pivots)


@PROPERTY
@given(matrices())
def test_echelon_has_the_rref_pivots_and_row_space(fm):
    field, m, rows = fm
    cols = len(m[0]) if m else 0
    rows, pivots = linalg.echelon(rows, field)
    ref_rows, ref_pivots = reference_rref(m, field)
    assert pivots == ref_pivots
    assert len(rows) == len(pivots)
    for row, c in zip(rows, pivots):
        assert min(row) == c and row[c] == 1
    assert all(x for row in rows for x in row.values())
    assert reference_rref(dense(rows, cols, field), field) == \
        (ref_rows[:len(ref_pivots)], ref_pivots)


@PROPERTY
@given(matrices())
def test_kernel_basis_spans_the_kernel(fm):
    field, m, rows = fm
    cols = len(m[0]) if m else 0
    sparse_basis = linalg.kernel_basis(rows, cols, field)
    assert all(0 <= j < cols for v in sparse_basis for j in v)
    basis = dense(sparse_basis, cols, field)
    assert len(basis) == cols - oracle.dense_rank(m, field)
    for v in basis:
        assert all(not x for x in matvec(m, v, field))
    assert oracle.dense_rank(basis, field) == len(basis)


@PROPERTY
@given(matrices())
def test_core_relations_against_a_dense_reference(fm):
    """On the matrix over core ints, made by ``core_vectors`` with one
    factor for every row (so over Q the rows need not be primitive) and
    with no zero entry,
    ``core_relations`` gives, for each row j in the span of the rows before
    it, in order, one relation that sums the rows to zero, on j and the
    earlier rows outside the span of those before them, as ints with a
    positive int at j: 1 over F_p, where every entry lies in [1, p), and
    over Q a primitive vector; scaled to 1 at j they are the free-column
    kernel vectors of the dense reduced echelon form of the transpose.  Its
    basis has the pivots of ``echelon`` and spans the rows."""
    field, m, sparse = fm
    cols, p = len(m[0]) if m else 0, field.characteristic
    core = linalg.core_vectors(dict(enumerate(sparse)), field)
    rows = [core[i] for i in range(len(m))]
    assert all(x.__class__ is int and (0 < x < p if p else x)
               for row in rows for x in row.values())
    basis, relations = linalg.core_relations([dict(row) for row in rows],
                                             cols, p)
    assert [min(row) for row in basis] == linalg.echelon(sparse, field)[1]
    dense_rows = [dense_vector({j: field(x) for j, x in row.items()}, cols,
                               field(0)) for row in rows]
    dense_basis = [dense_vector({j: field(x) for j, x in row.items()}, cols,
                                field(0)) for row in basis]
    assert oracle.dense_rank(dense_basis + dense_rows, field) == len(basis)
    rank = oracle.dense_rank(dense_rows, field)
    assert len(relations) == len(m) - rank == len(m) - len(basis)
    # row i is independent when it raises the rank of the rows before it
    ranks = [oracle.dense_rank(dense_rows[:i], field)
             for i in range(len(m) + 1)]
    independent = {i for i in range(len(m)) if ranks[i + 1] > ranks[i]}
    dependent = [j for j in range(len(m)) if j not in independent]
    transpose = [[row[c] for row in m] for c in range(cols)]
    reduced, pivots = reference_rref(transpose, field) if cols else ([], [])
    assert pivots == sorted(independent)
    for j, z in zip(dependent, relations):
        assert max(z) == j and set(z) <= independent | {j}
        assert all(x.__class__ is int and (0 < x < p if p else x)
                   for x in z.values())
        assert z[j] == 1 if p else z[j] > 0 and gcd(*z.values()) == 1
        assert not any(field(sum(z.get(i, 0) * row.get(c, 0)
                                 for i, row in enumerate(rows)))
                       for c in range(cols))
        want = {j: field(1), **{pc: -row[j] for pc, row in zip(pivots,
                                                               reduced)
                                if row[j]}}
        assert {i: field(x) / z[j] for i, x in z.items()} == want


@PROPERTY
@given(matrices(), st.data())
def test_solve_finds_a_solution_exactly_when_one_exists(fm, data):
    field, m, rows = fm
    cols = len(m[0]) if m else 0
    if data.draw(st.booleans(), label="b in the column space"):
        x = [field(data.draw(ENTRY)) for _ in range(cols)]
        b = matvec(m, x, field)
    else:
        b = [field(data.draw(ENTRY)) for _ in m]
    aug = [row + [y] for row, y in zip(m, b)]
    consistent = oracle.dense_rank(aug, field) == oracle.dense_rank(m, field)
    x = linalg.solve(rows, dict(enumerate(b)), cols, field)
    if not consistent:
        assert x is None
    else:
        assert x is not None and all(0 <= j < cols for j in x)
        assert matvec(m, dense_vector(x, cols, field(0)), field) == b


@PROPERTY
@given(matrices())
def test_in_span_is_a_rank_that_does_not_grow(fm):
    field, m, rows = fm
    if m:
        assert linalg.in_span(rows[:-1], rows[-1], field) == (
            oracle.dense_rank(m, field) == oracle.dense_rank(m[:-1], field))


@PROPERTY
@given(st.sampled_from(FIELDS), st.integers(1, 6), st.data())
def test_invert_gives_a_two_sided_inverse(field, n, data):
    """Also when the entries handed in mix plain ints with field scalars,
    over F_2 with 2 for a zero."""
    raw = [[data.draw(ENTRY) for _ in range(n)] for _ in range(n)]
    a = [[field(x) for x in row] for row in raw]
    inv = linalg.invert([[data.draw(st.sampled_from([x, field(x)]))
                          for x in row] for row in raw], field)
    if oracle.dense_rank(a, field) < n:
        assert inv is None
        return
    identity = [[field(int(i == j)) for j in range(n)] for i in range(n)]
    assert [matvec(inv, col, field) for col in transpose(a, n)] == \
        transpose(identity, n)
    assert [matvec(a, col, field) for col in transpose(inv, n)] == \
        transpose(identity, n)


def _entries(value):
    """Every scalar in a result of the linalg functions."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        for x in value:
            yield from _entries(x)
    elif value is not None:
        yield value


def _assert_field_scalars(value, field):
    for x in _entries(value):
        if field.characteristic:
            assert type(x) is FpElement and x.p == field.p, repr(x)
        else:
            assert type(x) is Fraction, repr(x)


@PROPERTY
@given(matrices(max_rows=5, max_cols=5))
def test_results_hold_field_scalars_only(fm):
    """No raw int (or float) leaks out of the core, even when the input
    mixes plain ints and explicit zeros with field scalars."""
    field, m, sparse = fm
    cols = len(m[0]) if m else 0
    rows, pivots = linalg.echelon(sparse, field)
    _assert_field_scalars(rows, field)
    assert all(type(c) is int for c in pivots)
    _assert_field_scalars(linalg.rref(sparse, field)[0], field)
    _assert_field_scalars(linalg.kernel_basis(sparse, cols, field), field)
    ones = dict.fromkeys(range(len(m)), field(1))
    _assert_field_scalars(linalg.solve(sparse, ones, cols, field), field)
    _assert_field_scalars(linalg.solve(sparse,
                                       dict.fromkeys(range(len(m)), 0), cols,
                                       field), field)
    if m and len(m) == len(m[0]):
        _assert_field_scalars(linalg.invert([dense_vector(row, cols, 0)
                                             for row in sparse], field),
                              field)
