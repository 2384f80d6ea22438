"""Exact dense linear algebra over Q and F_p.

Matrices are lists of row lists of field scalars.  Rank over the rationals
uses fraction-free (Bareiss) elimination to control coefficient growth;
kernels, solves and inverses use ordinary exact Gauss-Jordan reduction.
"""

from __future__ import annotations


def _nrows(m):
    return len(m)


def _ncols(m):
    return len(m[0]) if m else 0


def copy_matrix(m):
    return [row[:] for row in m]


def rank(m, field):
    """Exact rank; Bareiss over Q, plain elimination over F_p."""
    if not m or not m[0]:
        return 0
    if field.characteristic == 0:
        return _rank_bareiss(m)
    return len(echelon(m, field)[1])


def _rank_bareiss(m):
    a = copy_matrix(m)
    rows, cols = _nrows(a), _ncols(a)
    prev = 1
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if a[i][c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                a[i][j] = (a[r][c] * a[i][j] - a[i][c] * a[r][j]) / prev
            a[i][c] = 0 * a[i][c]
        prev = a[r][c]
        r += 1
        if r == rows:
            break
    return r


def echelon(m, field):
    """Forward elimination.  Returns (rows, pivot column list)."""
    a = copy_matrix(m)
    rows, cols = _nrows(a), _ncols(a)
    pivots = []
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if a[i][c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
        inv = field(1) / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(r + 1, rows):
            if a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def rref(m, field):
    """Reduced row echelon form.  Returns (rows, pivot column list)."""
    a, pivots = echelon(m, field)
    for r in range(len(pivots) - 1, -1, -1):
        c = pivots[r]
        for i in range(r):
            if a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
    return a, pivots


def kernel_basis(m, field):
    """Basis of the right kernel from the reduced echelon form, one vector
    per free column, in column order (the usual deterministic choice)."""
    cols = _ncols(m)
    if cols == 0:
        return []
    if not m:
        m = [[field(0)] * cols]
    a, pivots = rref(m, field)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [field(0)] * cols
        v[fc] = field(1)
        for r, pc in enumerate(pivots):
            v[pc] = -a[r][fc]
        basis.append(v)
    return basis


def solve(m, b, field):
    """One solution x of m x = b, or None when inconsistent."""
    rows, cols = _nrows(m), _ncols(m)
    if rows != len(b):
        raise ValueError("shape mismatch")
    aug = [m[i][:] + [b[i]] for i in range(rows)] if rows else []
    if not aug:
        return [field(0)] * cols
    a, pivots = rref(aug, field)
    if cols in pivots:
        return None
    x = [field(0)] * cols
    for r, pc in enumerate(pivots):
        x[pc] = a[r][cols]
    return x


def invert(m, field):
    """Inverse matrix, or None when singular."""
    n = _nrows(m)
    if n == 0 or _ncols(m) != n:
        raise ValueError("inverse needs a square matrix")
    aug = [m[i][:] + [field(1) if j == i else field(0) for j in range(n)]
           for i in range(n)]
    a, pivots = rref(aug, field)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in a]


def in_span(basis, v, field):
    """Is v in the span of the given row vectors?"""
    if not basis:
        return all(not x for x in v)
    cols = [[basis[r][c] for r in range(len(basis))] for c in range(len(v))]
    return solve(cols, v, field) is not None
