"""Exact sparse linear algebra over Q and F_p.

Matrices come in and go out as lists of row lists of field scalars.  Inside,
one elimination core works on sparse rows ``{column: value}`` and touches
only nonzeros: over F_p the values are plain ints in [0, p), turned back
into ``FpElement``s on the way out; over Q they are ``Fraction``s.  No raw
int leaks out, and no float is ever formed.

Row operations do not change which columns are independent of the earlier
ones, so the pivot columns, the rank and the reduced row echelon form do not
depend on the order in which rows are eliminated; the core takes the
sparsest rows first to keep fill-in down.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress

from .fields import FpElement


def _rational(x):
    return x if type(x) is Fraction else Fraction(x)


def _sparse(m, field):
    """The nonzeros of each row of m as a {column: core value} dict."""
    width = range(len(m[0]) if m else 0)
    if field.characteristic:
        return [{j: field(row[j]).value for j in compress(width, row)}
                for row in m]
    return [{j: _rational(row[j]) for j in compress(width, row)} for row in m]


def _dense(rows, nrows, ncols, field):
    """Sparse core rows as nrows dense rows of field scalars, padded with
    zero rows."""
    p = field.characteristic
    zero = field(0)
    out = []
    for row in rows:
        dense = [zero] * ncols
        for j, v in row.items():
            dense[j] = FpElement(v, p) if p else v
        out.append(dense)
    out.extend([zero] * ncols for _ in range(nrows - len(rows)))
    return out


def _add_multiple(row, g, prow, p):
    """row += g * prow in place, keeping only nonzeros (mod p when p)."""
    for j, y in prow.items():
        v = row.get(j, 0) + g * y
        if p:
            v %= p
        if v:
            row[j] = v
        else:
            del row[j]


def _eliminate(rows, p, reduced):
    """Gaussian elimination of sparse rows over F_p (Q when p == 0).

    Each row is reduced against the pivot rows found so far until its
    leading column is new; it is then scaled to a leading 1 and becomes the
    pivot row of that column.  With ``reduced`` the pivot rows are then
    cleared above every pivot, which gives the reduced row echelon form.
    Returns (pivot rows, pivot columns), both in column order.
    """
    pivot_rows = {}
    for row in sorted(rows, key=len):
        while row:
            c = min(row)
            prow = pivot_rows.get(c)
            if prow is None:
                lead = row[c]
                if lead != 1:
                    inv = pow(lead, -1, p) if p else 1 / lead
                    row = {j: v * inv % p if p else v * inv
                           for j, v in row.items()}
                pivot_rows[c] = row
                break
            _add_multiple(row, -row[c], prow, p)
    pivots = sorted(pivot_rows)
    if reduced:
        for c in reversed(pivots):
            row = pivot_rows[c]
            for d in [j for j in row if j != c and j in pivot_rows]:
                _add_multiple(row, -row[d], pivot_rows[d], p)
    return [pivot_rows[c] for c in pivots], pivots


def rank(m, field):
    """Exact rank: the number of pivots of the echelon form."""
    return len(echelon(m, field)[1])


def echelon(m, field, reduced=False):
    """Row echelon form with leading ones, reduced when ``reduced``.
    Returns (rows, pivot column list); the rows past the rank are zero."""
    cols = len(m[0]) if m else 0
    rows, pivots = _eliminate(_sparse(m, field), field.characteristic,
                              reduced)
    return _dense(rows, len(m), cols, field), pivots


def rref(m, field):
    """Reduced row echelon form.  Returns (rows, pivot column list)."""
    return echelon(m, field, reduced=True)


def kernel_basis(m, field):
    """Basis of the right kernel from the reduced echelon form, one vector
    per free column, in column order (the usual deterministic choice)."""
    cols = len(m[0]) if m else 0
    if cols == 0:
        return []
    a, pivots = echelon(m, field, reduced=True)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    zero, one = field(0), field(1)
    basis = []
    for fc in free:
        v = [zero] * cols
        v[fc] = one
        for r, pc in enumerate(pivots):
            if a[r][fc]:
                v[pc] = -a[r][fc]
        basis.append(v)
    return basis


def solve(m, b, field):
    """One solution x of m x = b, or None when inconsistent."""
    rows, cols = len(m), len(m[0]) if m else 0
    if rows != len(b):
        raise ValueError("shape mismatch")
    if not rows:
        return [field(0)] * cols
    a, pivots = rref([m[i] + [b[i]] for i in range(rows)], field)
    if cols in pivots:
        return None
    x = [field(0)] * cols
    for r, pc in enumerate(pivots):
        x[pc] = a[r][cols]
    return x


def invert(m, field):
    """Inverse matrix, or None when singular."""
    n = len(m)
    if n == 0 or len(m[0]) != n:
        raise ValueError("inverse needs a square matrix")
    zero, one = field(0), field(1)
    aug = [m[i] + [one if j == i else zero for j in range(n)]
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
