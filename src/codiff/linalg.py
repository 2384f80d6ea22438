"""Exact sparse linear algebra over Q and F_p.

Matrices come in as lists of sparse rows ``{column: scalar}``.  One
elimination core works on rows of nonzero plain ints, residues in [1, p)
over F_p and integer rows over Q, reduced fraction-free (after Bareiss,
1968, but dividing out each row's content), so no ``gcd`` runs per
multiply-add; ``core_pivots`` and ``core_relations`` take and return such
ints, ``core_vectors`` makes them and ``scalars`` turns them back.
``core_relations`` reads a basis of the span and the relations of each row
on the earlier ones from one elimination, each row tagged by a column of
its own after the others.  The rest take field scalars or plain ints,
converted by ``core_vectors`` with one factor for the whole matrix, and
return only nonzeros, as field scalars: ``Fraction``s over Q,
``FpElement``s over F_p, each entry converted once on the way in and once
on the way out.  Only ``invert`` keeps a dense square matrix in and out.
No float is ever formed, and no cost grows with the zero cells of a matrix.

Row operations do not change which columns are independent of the earlier
ones, so the pivot columns, the rank and the reduced row echelon form do not
depend on the order in which rows are eliminated; the core takes the
sparsest rows first to keep fill-in down.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm

from .fields import FpElement


def core_vectors(vectors, field):
    """Sparse vectors {key: {i: scalar}} over core ints, zero entries
    dropped, by one factor for all of them: N·v over Q, with N the lcm of
    every denominator, and the residues over F_p.  A factor per vector
    would change what they span together, not only its scale."""
    if field.characteristic:
        return {k: {i: v for i, c in vec.items() if (v := field(c).value)}
                for k, vec in vectors.items()}
    n = lcm(*[c.denominator for vec in vectors.values()
              for c in vec.values()])
    return {k: {i: v for i, c in vec.items()
                if (v := c.numerator * (n // c.denominator))}
            for k, vec in vectors.items()}


def scalars(rows, columns, p):
    """Core rows as rows of field scalars, a Q row divided by its entry at
    its column in ``columns`` (a lead, or a kernel vector's free column)."""
    if p:
        return [{j: FpElement(v, p) for j, v in row.items()} for row in rows]
    return [{j: Fraction(v, row[c]) for j, v in row.items()}
            for row, c in zip(rows, columns)]


def _add_multiple(row, g, prow, p):
    """row += g * prow in place mod p, keeping only nonzeros."""
    for j, y in prow.items():
        v = (row.get(j, 0) + g * y) % p
        if v:
            row[j] = v
        else:
            del row[j]


def _cancel(row, c, prow):
    """row <- (a/g) * row - (b/g) * prow with a = prow[c], b = row[c] and
    g = gcd(a, b), made primitive: a nonzero multiple of the row that
    elimination over ``Fraction``s holds, so it has the same support.
    Returns the new row; the old one may have changed in place."""
    a = prow[c]
    b = row[c]
    g = gcd(a, b)
    if a < 0:
        g = -g
    a //= g
    b //= g
    if a != 1:
        row = {j: a * v for j, v in row.items()}
    for j, y in prow.items():
        v = row.get(j, 0) - b * y
        if v:
            row[j] = v
        else:
            del row[j]
    g = gcd(*row.values())
    return {j: v // g for j, v in row.items()} if g > 1 else row


def _eliminate(rows, p, start):
    """Gaussian elimination of sparse rows over F_p (Q when p == 0).

    Each row is reduced against the pivot rows found so far until its
    leading column is new; it then becomes the pivot row of that column,
    scaled to a leading 1 over F_p and kept an integer row over Q, made
    primitive by each reduction.
    Unless ``start`` is None, the pivot rows at columns from ``start`` on
    are then cleared above every pivot, which from ``start`` 0 gives the
    reduced row echelon form up to the scale of each row.
    Returns (pivot rows, pivot columns), both in column order.
    """
    pivot_rows = {}
    for row in sorted(rows, key=len):
        while row:
            c = min(row)
            prow = pivot_rows.get(c)
            if prow is None:
                lead = row[c]
                if p and lead != 1:
                    inv = pow(lead, -1, p)
                    row = {j: v * inv % p for j, v in row.items()}
                pivot_rows[c] = row
                break
            if p:
                _add_multiple(row, -row[c], prow, p)
            else:
                row = _cancel(row, c, prow)
    pivots = sorted(pivot_rows)
    if start is not None:
        for c in reversed(pivots[bisect_left(pivots, start):]):
            row = pivot_rows[c]
            for d in [j for j in row if j != c and j in pivot_rows]:
                if p:
                    _add_multiple(row, -row[d], pivot_rows[d], p)
                else:
                    row = pivot_rows[c] = _cancel(row, d, pivot_rows[d])
    return [pivot_rows[c] for c in pivots], pivots


def core_pivots(rows, p):
    """The pivot columns, in order, of core rows over F_p (Q when p == 0),
    which the elimination may change in place."""
    return _eliminate(rows, p, None)[1]


def core_relations(rows, ncols, p):
    """(A basis of the span, the relations) of core rows with ncols columns
    over F_p (Q when p == 0), from one elimination in place, row j tagged
    by a 1 at column ncols + n - 1 - j: the pivot rows before the tags,
    stripped of them, in column order, and, for each row j in the span of
    the rows before it, in order, the pivot row at its tag, cleared of the
    other tag pivots: its relation {i: int} on j and the earlier rows
    outside that span, primitive over Q, positive at j (1 over F_p)."""
    tag = ncols + len(rows) - 1
    for j, row in enumerate(rows):
        row[tag - j] = 1
    a, pivots = _eliminate(rows, p, ncols)
    k = bisect_left(pivots, ncols)
    for row in a[:k]:
        for c in [c for c in row if c >= ncols]:
            del row[c]
    return a[:k], [{tag - d: -v if row[c] < 0 else v for d, v in row.items()}
                   for row, c in zip(a[k:], pivots[k:])][::-1]


def rank(rows, field):
    """Exact rank: the number of pivots of the echelon form."""
    rows = core_vectors(dict(enumerate(rows)), field).values()
    return len(core_pivots(rows, field.characteristic))


def echelon(rows, field, reduced=False):
    """Row echelon form with leading ones, reduced when ``reduced``.
    Returns (pivot rows, pivot column list): one row per pivot, in column
    order."""
    p = field.characteristic
    rows = core_vectors(dict(enumerate(rows)), field).values()
    out, pivots = _eliminate(rows, p, 0 if reduced else None)
    return scalars(out, pivots, p), pivots


def rref(rows, field):
    """Reduced row echelon form.  Returns (pivot rows, pivot column list)."""
    return echelon(rows, field, reduced=True)


def kernel_basis(rows, ncols, field):
    """Basis of the right kernel of the matrix with these rows and ncols
    columns: the relations of its columns (``core_relations``), each
    scaled to a 1 at its last column."""
    p = field.characteristic
    cols = [{} for _ in range(ncols)]
    for r, row in core_vectors(dict(enumerate(rows)), field).items():
        for c, x in row.items():
            cols[c][r] = x
    basis = core_relations(cols, len(rows), p)[1]
    return scalars(basis, [max(z) for z in basis], p)


def solve(rows, b, ncols, field):
    """One solution x of m x = b as a sparse vector, or None when the system
    is inconsistent; b is sparse over the row positions."""
    if any(not 0 <= i < len(rows) for i in b):
        raise ValueError("shape mismatch")
    aug = [{**row, ncols: b[i]} if i in b else row
           for i, row in enumerate(rows)]
    a, pivots = rref(aug, field)
    if ncols in pivots:
        return None
    return {pc: row[ncols] for row, pc in zip(a, pivots) if ncols in row}


def invert(m, field):
    """Inverse of a dense square matrix, or None when singular."""
    n = len(m)
    if n == 0 or len(m[0]) != n:
        raise ValueError("inverse needs a square matrix")
    aug = [{**{j: x for j, x in enumerate(row) if x}, n + i: 1}
           for i, row in enumerate(m)]
    a, pivots = rref(aug, field)
    if pivots != list(range(n)):
        return None
    zero = field(0)
    return [[row.get(n + j, zero) for j in range(n)] for row in a]


def in_span(basis, v, field):
    """Is the sparse vector v in the span of the sparse rows of basis?"""
    return rank(basis + [v], field) == rank(basis, field)
