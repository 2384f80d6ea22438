"""Exact sparse linear algebra over Q and F_p.

Matrices come in as lists of sparse rows ``{column: scalar}``.  One
elimination core works on rows of nonzero plain ints, residues in [1, p)
over F_p and integer rows over Q, reduced fraction-free (after Bareiss,
1968, but dividing out each row's content), so no ``gcd`` runs per
multiply-add; ``core_pivots`` and ``core_kernel`` take and return such
ints, ``core_vectors`` makes them and ``scalars`` turns them back.  The
rest take field scalars or plain ints (an int is taken mod p over F_p; an
all-int Q row only has its content divided out) and return only nonzeros,
as field scalars: ``Fraction``s over Q, ``FpElement``s over F_p, each
entry converted once on the way in and once on the way out.  Only
``invert`` keeps a dense square matrix in and out.  No float is ever
formed, and no cost grows with the zero cells of a matrix.

Row operations do not change which columns are independent of the earlier
ones, so the pivot columns, the rank and the reduced row echelon form do not
depend on the order in which rows are eliminated; the core takes the
sparsest rows first to keep fill-in down.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .fields import FpElement


def _primitive(row):
    """A Q row as the primitive integer row with the same support: the
    denominators cleared by their lcm, unless every entry is an int, then
    the content divided out."""
    if all(x.__class__ is int for x in row.values()):
        row = {j: x for j, x in row.items() if x}
    else:
        m = lcm(*[x.denominator for x in row.values()])
        row = {j: v for j, x in row.items()
               if (v := x.numerator * (m // x.denominator))}
    g = gcd(*row.values())
    return {j: v // g for j, v in row.items()} if g > 1 else row


def _core(rows, field):
    """The rows over the core scalars, with zero entries dropped: residues
    in [1, p) over F_p, primitive integer rows over Q (empty rows, which
    change nothing, dropped too)."""
    p = field.characteristic
    if not p:
        return [_primitive(row) for row in rows if row]

    def conv(x):
        # an int is a residue as it is; any other entry but a residue of
        # F_p goes through the field's checks
        if x.__class__ is int:
            return x % p
        if x.__class__ is FpElement and x.p == p:
            return x.value
        return field(x).value
    return [{j: v for j, x in row.items() if (v := conv(x))} for row in rows]


def core_vectors(vectors, field):
    """Sparse vectors {key: {i: scalar}} over core ints, by one factor for
    all of them: N·v over Q, with N the lcm of every denominator, and the
    residues over F_p.  A factor per vector would change what they span
    together, not only its scale."""
    if field.characteristic:
        return {k: {i: field(c).value for i, c in vec.items()}
                for k, vec in vectors.items()}
    n = lcm(*[c.denominator for vec in vectors.values()
              for c in vec.values()])
    return {k: {i: c.numerator * (n // c.denominator) for i, c in vec.items()}
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


def _eliminate(rows, p, reduced):
    """Gaussian elimination of sparse rows over F_p (Q when p == 0).

    Each row is reduced against the pivot rows found so far until its
    leading column is new; it then becomes the pivot row of that column,
    scaled to a leading 1 over F_p and kept a primitive integer row over Q.
    With ``reduced`` the pivot rows are then cleared above every pivot,
    which gives the reduced row echelon form up to the scale of each row.
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
    if reduced:
        for c in reversed(pivots):
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
    return _eliminate(rows, p, False)[1]


def core_kernel(rows, ncols, p):
    """The right kernel of core rows with ncols columns by the reduced
    elimination: a vector per free column, in order, primitive over Q, at
    its free column, its last, a positive int (1 over F_p: leads are 1)."""
    a, pivots = _eliminate(rows, p, True)
    pivot_set = set(pivots)
    hits = {c: [] for c in range(ncols) if c not in pivot_set}
    for row, pc in zip(a, pivots):
        for j in row:
            if j != pc:
                hits[j].append((pc, row))
    basis = []
    for c, prows in hits.items():
        m = lcm(*[row[pc] for pc, row in prows])
        z = {c: m, **{pc: -row[c] * (m // row[pc]) for pc, row in prows}}
        basis.append({j: v % p for j, v in z.items()} if p else _primitive(z))
    return basis


def rank(rows, field):
    """Exact rank: the number of pivots of the echelon form."""
    return len(core_pivots(_core(rows, field), field.characteristic))


def echelon(rows, field, reduced=False):
    """Row echelon form with leading ones, reduced when ``reduced``.
    Returns (pivot rows, pivot column list): one row per pivot, in column
    order."""
    p = field.characteristic
    out, pivots = _eliminate(_core(rows, field), p, reduced)
    return scalars(out, pivots, p), pivots


def rref(rows, field):
    """Reduced row echelon form.  Returns (pivot rows, pivot column list)."""
    return echelon(rows, field, reduced=True)


def kernel_basis(rows, ncols, field):
    """Basis of the right kernel of the matrix with these rows and ncols
    columns, ``core_kernel``'s scaled to a 1 at each free column."""
    p = field.characteristic
    basis = core_kernel(_core(rows, field), ncols, p)
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
