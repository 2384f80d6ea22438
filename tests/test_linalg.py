from fractions import Fraction

import pytest

from codiff import linalg
from codiff.fields import QQ, PrimeField
from conftest import dense_vector, sparse_rows

F = Fraction


def m(rows):
    return [[F(x) for x in row] for row in rows]


def test_rank_bareiss_vs_echelon():
    a = m([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert linalg.rank(sparse_rows(a), QQ) == 2
    f5 = PrimeField(5)
    b = [[f5(x) for x in row] for row in [[1, 2], [3, 6]]]
    assert linalg.rank(sparse_rows(b), f5) == 1


def test_kernel_basis():
    a = m([[1, 2, 3], [0, 0, 1]])
    basis = linalg.kernel_basis(sparse_rows(a), 3, QQ)
    assert len(basis) == 1
    assert set(basis[0]) <= {0, 1, 2}
    v = dense_vector(basis[0], 3, F(0))
    assert v == [F(-2), F(1), F(0)]
    for row in a:
        assert sum(row[i] * v[i] for i in range(3)) == 0


def test_solve():
    a = sparse_rows(m([[1, 1], [1, -1]]))
    x = linalg.solve(a, {0: F(3), 1: F(1)}, 2, QQ)
    assert x == {0: F(2), 1: F(1)}
    # inconsistent
    b = sparse_rows(m([[1, 1], [2, 2]]))
    assert linalg.solve(b, {0: F(1), 1: F(3)}, 2, QQ) is None
    # underdetermined: a particular solution is fine
    c = sparse_rows(m([[1, 1]]))
    x = linalg.solve(c, {0: F(5)}, 2, QQ)
    assert x is not None and x.get(0, 0) + x.get(1, 0) == 5


def test_invert():
    a = m([[0, 1], [1, 0]])
    assert linalg.invert(a, QQ) == m([[0, 1], [1, 0]])
    assert linalg.invert(m([[1, 1], [1, 1]]), QQ) is None


def test_in_span():
    basis = sparse_rows(m([[1, 0, 1], [0, 1, 0]]))
    assert linalg.in_span(basis, {0: F(2), 1: F(3), 2: F(2)}, QQ)
    assert not linalg.in_span(basis, {0: F(1)}, QQ)
    assert linalg.in_span([], {}, QQ)
    assert not linalg.in_span([], {0: F(1)}, QQ)


def test_rank_invariant_under_row_permutation():
    import random
    rng = random.Random(3)
    rows = sparse_rows(m([[rng.randint(-4, 4) for _ in range(5)]
                          for _ in range(4)]))
    r = linalg.rank(rows, QQ)
    for _ in range(5):
        rng.shuffle(rows)
        assert linalg.rank(rows, QQ) == r


def test_fp_core_reads_residues_and_refuses_another_prime():
    f5, f3 = PrimeField(5), PrimeField(3)
    # plain ints and residues of F_5 mix in one matrix
    assert linalg.rank([{0: f5(2), 1: 3}, {0: 4, 1: f5(6)}], f5) == 1
    with pytest.raises(ValueError, match="F_3 used in F_5"):
        linalg.rank([{0: f3(1)}], f5)
