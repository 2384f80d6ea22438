"""Coboundary operators, exact cohomology of a structure, cyclic cochains
and cyclic cohomology, and classification of first-order deformations.

Windowed cohomology, cyclic cohomology and the coboundary test all query one
cochain complex: the cochains V^p -> V with D(phi) = {phi, m}, or the cyclic
scalar cochains with the cyclic coboundary.  The complex builds each block
D_p, D of every degree-p basis vector as sparse coordinates, in one pass
over the structure's entries (``codiff.blocks``); ``coboundary`` and
``cyclic_coboundary`` remain the per-cochain routes.  D is linear in m, so
the blocks hold N·D over core ints, from the structure's ``lift``: N·m,
with N the lcm of the denominators of every part, over Q, and residues over
F_p.  N·D has the kernels, images and ranks of D, so its rows go to
``linalg``'s core entries as they are, and a cocycle gets field scalars
only when it becomes a representative, once the per-cochain route on the
lift has certified it.
For a window a..b a row reports Z^p = ker D on C^p and B^p = im D ∩ C^p
(``_window_report``).  Each block it reads is eliminated once, its images
stacked over the degrees they reach and each tagged by a column of its own:
the tags give ker D_p, the relations of the images, and the rest a basis of
im D_p.  With the spread the largest arity less one, D maps C^p into
degrees p..p+spread.  For one arity it maps into C^{p+spread} alone, so
B^p = im D_{p-spread} exactly.  For mixed arities the sources are every
degree a - spread .. b, so B^p is a lower bound for the coboundary space
and the report says so (membership tests remain reliable).  ``_sources``
holds that rule, and every coboundary question (B^p, the representatives,
``deform``) is one ``_spanned`` echelon form of the sources and the
questioned vectors: the bases of the source degrees in the report, and the
images of the parameter's parity in ``deform``.
"""

from __future__ import annotations

import functools
import itertools
import math

from . import linalg
from .blocks import OUTSIDE, cyclic_block, orbit_coords, plain_block
from .cochain import Cochain, ScalarCochain, canonical_tuples, tilde, vec_add
from .coderivation import family_bracket, heads_of, reachable, terms
from .graded import (EXTERIOR, TENSOR, canonical_word, rotation_signs,
                     word_parity)
# deform_check stays a module attribute: bench/tracer.py wraps it here
from .structures import (core_family, deform_check,  # noqa: F401
                         deformation_parameter_parity, family_vanishes,
                         vanishes)


MAX_INDEX = 10 ** 6


class WindowTooLarge(ValueError):
    """A window refused before any basis is built: the largest plain basis
    the command builds would have more than MAX_INDEX positions, or it has
    more rows than that."""


class InvarianceError(ValueError):
    """The inner product fails to be invariant for some structure part."""

    def __init__(self, arity, letters):
        self.arity = arity
        self.letters = letters
        super().__init__("inner product is not invariant: part of arity %d "
                         "fails the cyclic identity at (%s)"
                         % (arity, ",".join(letters)))


# --- coboundary ------------------------------------------------------------

def coboundary(phi, s):
    """D(phi) = {phi, m} as a family {degree: Cochain}."""
    if phi.flavor != s.flavor or phi.space != s.space:
        raise ValueError("cochain does not live in the structure's complex")
    return family_bracket({phi.degree: phi}, s.parts)


# --- the two cochain complexes -----------------------------------------------

class _Complex:
    """A cochain complex of a structure with a basis per degree, built once.

    ``dim(p)`` and ``parity(p, i)`` describe the degree-p basis, kept as
    the keys it is enumerated by (``_basis(p)``), with ``_index(p)`` the map
    from those keys to positions.  Vectors are sparse {basis position:
    scalar} dicts of nonzeros: ``images(p)`` is the block of N·D on C^p,
    N·D of each degree-p basis vector as {degree: vector} over core ints,
    built in one pass (``codiff.blocks``) from the parts of the lift;
    ``coords(p, c)`` reads a cochain in the basis over field scalars,
    ``reconstruct(p, v)`` builds the cochain with coordinates v, and
    ``is_cocycle(c)`` tests D(c) = 0 for a cochain c over core ints on the
    lift.  ``_basis`` and ``_index`` are built once per degree, ``images``
    on each call: its caller owns the block and may change it.
    """

    def __init__(self, s):
        self.s = s
        self.lift = s.lift
        self.field = s.space.field
        self.spread = (max(s.parts) - 1) if s.parts else 0
        self.modulus = self.field.characteristic
        self._basis = functools.cache(self._build_basis)
        self._index = functools.cache(self._build_index)


class _PlainComplex(_Complex):
    """Cochains V^p -> V on the delta basis, with D = coboundary.  The
    degree-p basis is ``canonical_tuples``: with t the k-th tuple, the delta
    at (t, j) sits at position dim·k + j, and the index maps t to dim·k;
    a tensor basis is counted, never enumerated, by ``dim``."""

    def _build_basis(self, p):
        return canonical_tuples(self.s.space, self.s.flavor, p)

    def _build_index(self, p):
        dim = self.s.space.dim
        return {t: dim * k for k, t in enumerate(self._basis(p))}

    def dim(self, p):
        if self.s.flavor == TENSOR:
            return self.s.space.dim ** (p + 1)
        return self.s.space.dim * len(self._basis(p))

    def parity(self, p, i):
        k, j = divmod(i, self.s.space.dim)
        return word_parity(self.s.space, self._basis(p)[k] + (j,))

    def images(self, p):
        return plain_block(self.s, self.lift.parts, self.modulus, p,
                           self._index)

    def is_cocycle(self, c):
        return family_vanishes(coboundary(c, self.lift), self.modulus)

    def coords(self, p, c):
        index, field = self._index(p), self.field
        return {index[t] + j: v for t, vec in c.coeffs.items()
                for j, x in vec.items() if (v := field(x))}

    def reconstruct(self, p, coords):
        basis, coeffs = self._basis(p), {}
        for i in sorted(coords):
            k, j = divmod(i, self.s.space.dim)
            coeffs.setdefault(basis[k], {})[j] = coords[i]
        parity = self.parity(p, max(coords)) if coords else 0
        return Cochain(self.s.space, self.s.flavor, p, parity, coeffs)


class _CyclicComplex(_Complex):
    """Cyclic scalar cochains of arity p + 1 in degree p, with D =
    cyclic_coboundary, on the signed orbits and pivots of
    ``cyclic_scalar_basis``: position i is the i-th orbit."""

    def _build_basis(self, p):
        return cyclic_scalar_basis(self.s.space, self.s.flavor, p)

    def _build_index(self, p):
        """{tuple: (position, orbit sign, pivot)} over every basis orbit."""
        return {t: (i, sign, pivot)
                for i, (orbit, pivot) in enumerate(zip(*self._basis(p)))
                for t, sign in orbit.items()}

    def dim(self, p):
        return len(self._basis(p)[1])

    def parity(self, p, i):
        return word_parity(self.s.space, self._basis(p)[1][i])

    def images(self, p):
        return cyclic_block(self.s, self.lift.parts, self.modulus, p,
                            self._index)

    def is_cocycle(self, f):
        return vanishes((x for d in cyclic_coboundary(f, self.lift).values()
                         for x in d.coeffs.values()), self.modulus)

    def coords(self, p, f):
        """Coordinates at the pivots, read from f on the rotations of its
        support with the membership check of ``orbit_coords``."""
        if self.s.flavor == EXTERIOR:
            f = _exterior_form(f)
            if f is None:
                raise RuntimeError(OUTSIDE)
        field = self.field
        values = {u: field(f.coeffs.get(u, 0)) for t in f.coeffs
                  for u in (t[i:] + t[:i] for i in range(len(t)))}
        return orbit_coords(values, self._index(p))

    def reconstruct(self, p, coords):
        orbits, coeffs = self._basis(p)[0], {}
        for i in sorted(coords):
            vec_add(coeffs, orbits[i], coords[i])
        parity = self.parity(p, max(coords)) if coords else 0
        return ScalarCochain(self.s.space, self.s.flavor, p + 1, parity,
                             coeffs)


def _stack(cx, families, last=None):
    """Families {degree: vector} as vectors over the degrees they reach,
    stacked in increasing order, with degree ``last`` after the others when
    given.  Returns (vectors, spans): (degree, its first row, the row after
    its last) for each degree, in that order."""
    degrees = sorted({q for family in families for q in family} - {last})
    if last is not None:
        degrees.append(last)
    spans, total = [], 0
    for q in degrees:
        spans.append((q, total, total + cx.dim(q)))
        total += cx.dim(q)
    offset = {q: lo for q, lo, _ in spans}
    return [{offset[q] + r: x for q, vec in family.items()
             for r, x in vec.items()} for family in families], spans


# --- windowed cohomology ----------------------------------------------------

class DegreeRow:
    def __init__(self, degree, cocycles, coboundaries, quotient,
                 representatives=None):
        self.degree = degree
        self.cocycles = cocycles
        self.coboundaries = coboundaries
        self.quotient = quotient
        self.representatives = ([] if representatives is None
                                else representatives)


class CohomologyReport:
    def __init__(self, window, rows, graded_exact, note=""):
        self.window = window
        self.rows = rows
        self.graded_exact = graded_exact
        self.note = note


def _window_report(cx, window, note):
    """Z^p, B^p and representatives of Z^p / B^p for p in the window.

    Each degree read is eliminated once (``_eliminated``): Z^p is the
    relations of the degree-p images, kept until row p, and a basis of
    im D_q until the last row whose ``_sources`` hold q.  The cocycles
    outside the span of the source bases and the earlier cocycles are the
    representatives; the pivots in degree p span B^p + Z^p, so B^p counts
    them less the representatives (neither count assumes D^2 = 0)."""
    a, b = window
    if a < 0 or b < a:
        raise ValueError("window must satisfy 0 <= a <= b")
    _check_window(cx, a, b)
    last = {q: p for p in range(a, b + 1) if cx.dim(p)
            for q in _sources(cx, window, p)}
    bases, kernels, rows_out = {}, {}, []
    for p in range(a, b + 1):
        kern, reps, pivots = [], [], 0
        if cx.dim(p):
            sources = _sources(cx, window, p)
            for q in (*sources, p):
                if cx.dim(q) and q not in bases and q not in kernels:
                    bases[q], kernels[q] = _eliminated(cx, q)
            kern = kernels[p]
            spanned, pivots = _spanned(
                cx, [v for q in sources for v in bases.get(q, ())],
                [{p: z} for z in kern], last=p)
            reps = [z for j, z in enumerate(kern) if j not in spanned]
        bases = {q: v for q, v in bases.items() if last.get(q, -1) > p}
        kernels = {q: z for q, z in kernels.items() if q > p}
        # the bracket route certifies each class the block picked
        if not all(cx.is_cocycle(cx.reconstruct(p, z)) for z in reps):
            raise RuntimeError("a representative of H^%d is not a cocycle" % p)
        reps = [cx.reconstruct(p, *linalg.scalars([z], [max(z)], cx.modulus))
                for z in reps]
        rows_out.append(DegreeRow(p, len(kern), pivots - len(reps),
                                  len(kern) - pivots + len(reps), reps))
    return CohomologyReport(window, rows_out, len(cx.s.parts) <= 1, note)


def _eliminated(cx, q):
    """(A basis of im D_q as families {degree: vector}, ker D_q) over core
    ints from one ``linalg.core_relations`` of the degree-q block, built
    here and released; one arity's images go in as they are, mixed ones
    stacked by ``_stack``."""
    if len(cx.s.parts) == 1:
        d = q + cx.spread
        basis, kern = linalg.core_relations(
            [img.get(d, {}) for img in cx.images(q)], cx.dim(d), cx.modulus)
        return [{d: row} for row in basis], kern
    rows, spans = _stack(cx, cx.images(q))
    basis, kern = linalg.core_relations(rows, spans[-1][2] if spans else 0,
                                        cx.modulus)
    return [{d: v for d, lo, hi in spans
             if (v := {c - lo: x for c, x in row.items() if lo <= c < hi})}
            for row in basis], kern


def _sources(cx, window, p):
    """The degrees whose images B^p is read from, for the window a..b."""
    if len(cx.s.parts) > 1:
        return range(max(window[0] - cx.spread, 0), window[1] + 1)
    return [p - cx.spread] if p >= cx.spread else []


def _spanned(cx, sources, vectors, last=None):
    """(The j whose vector lies in the span of the sources and
    vectors[:j], the number of pivots in degree ``last``) from one echelon
    form of the families {degree: vector} over core ints stacked by
    ``_stack``.  Vector j carries a 1 in the j-th column from the right
    after every degree, a pivot exactly when a vanishing combination of the
    sources and vectors[:j + 1] has a nonzero coefficient on vector j."""
    rows, spans = _stack(cx, sources + vectors, last)
    total = spans[-1][2] if spans else 0
    tag = total + len(vectors) - 1
    for j, row in enumerate(rows[len(sources):]):
        row[tag - j] = 1
    pivots = linalg.core_pivots(rows, cx.modulus)
    start = spans[-1][1] if last is not None else total
    return ({tag - c for c in pivots if c >= total},
            sum(start <= c < total for c in pivots))


def _check_window(cx, a, b, what=None, low=None):
    """Raise WindowTooLarge when the largest plain basis the command builds,
    of a degree from ``low`` (else max(a - spread, 0)) to d = b + spread,
    would have more than MAX_INDEX positions, or the window has more rows
    than that; the message names what needs it, ``what`` or else the
    window a..b.  The size is exact: dim^(d+1) tuples and letters (tensor),
    or dim * K(d), with K(d) the exterior tuples of j distinct even letters
    and d - j odd ones for each j.  It grows with d but over all-even
    letters, where dim * C(dim, d) peaks at d = dim // 2, so that degree,
    clamped to those built, is read after d.  It bounds the cyclic index
    too, as K(d + 1) <= dim * K(d).  It bounds the size of the bases, not
    the work of a block."""
    dim, top = cx.s.space.dim, b + cx.spread
    odd = sum(cx.s.space.parities)
    degrees = [top]
    if cx.s.flavor == EXTERIOR and not odd:
        low = max(a - cx.spread, 0) if low is None else low
        degrees.append(min(max(dim // 2, low), top))
    for d in degrees:
        if cx.s.flavor == TENSOR:
            # dim^65 already exceeds MAX_INDEX unless dim is 1: no larger
            # power is expanded
            size = dim ** min(d + 1, 65)
            form = "%d^%d" % (dim, d + 1) + ("" if d >= 64 else " = %d" % size)
        else:
            even = dim - odd
            count = math.comb(even, d) if not odd else sum(
                math.comb(even, j) * math.comb(odd + d - j - 1, d - j)
                for j in range(min(even, d) + 1))
            size = dim * count
            form = "%d*%d = %d" % (dim, count, size)
        if size > MAX_INDEX:
            raise WindowTooLarge(
                "%s: its degree-%d basis would have %s positions, more than %d"
                % (what or "window %d..%d" % (a, b), d, form, MAX_INDEX))
    if b - a >= MAX_INDEX:
        raise WindowTooLarge("window %d..%d has %d rows, more than %d"
                             % (a, b, b - a + 1, MAX_INDEX))


def _report_note(s, mixed, small_p=""):
    """The report's caveats joined by "; ": ``mixed`` for a structure of
    several arities, ``small_p`` when given, and for an exterior structure
    over F_2 the characteristic-2 caveat."""
    notes = [mixed] if len(s.parts) > 1 else []
    if small_p:
        notes.append(small_p)
    if s.flavor == EXTERIOR and s.space.field.characteristic == 2:
        notes.append("characteristic 2: the L-infinity guarantees (D^2 = 0, "
                     "the bracket routes) hold only away from "
                     "characteristic 2")
    return "; ".join(notes)


def cohomology(s, window):
    """Exact windowed cohomology of the structure's coboundary D."""
    note = _report_note(s, "mixed arities: the complex does not split by "
                        "degree; coboundary dimensions are truncated to "
                        "sources in the window")
    return _window_report(_PlainComplex(s), tuple(window), note)


# --- cyclicity --------------------------------------------------------------

def _rotation_witness(f):
    """The least tuple on which the tensor scalar cochain f breaks the
    rotation identity f(t) = rotation sign * f(t rotated by one), or None.
    Where both sides vanish the identity holds, so only the support and the
    tuples that rotate into it are checked.  Arity 1 has one rotation, the
    identity."""
    if f.arity == 1:
        return None
    par, field = f.space.parities, f.space.field
    for t in sorted({*f.coeffs, *(u[-1:] + u[:-1] for u in f.coeffs)}):
        if field(f.value(t)
                 - rotation_signs(par, t)[1] * f.value(t[1:] + t[:1])):
            return t
    return None


def _antisymmetry_witness(f):
    """The first tuple whose adjacent swap breaks graded antisymmetry of the
    tensor scalar cochain f, as swapped, or None.  Only the tuples in the
    support or swapping into it can fail; they are checked in order."""
    par = f.space.parities
    swaps = range(f.arity - 1)
    for t in sorted({*f.coeffs, *(u[:i] + (u[i + 1], u[i]) + u[i + 2:]
                                  for u in f.coeffs for i in swaps)}):
        base = f.value(t)
        for i in swaps:
            swapped = t[:i] + (t[i + 1], t[i]) + t[i + 2:]
            sign = 1 if par[t[i]] & par[t[i + 1]] else -1
            if f.value(swapped) != sign * base:
                return swapped
    return None


def _cyclic_witness(flavor, form):
    """The first tuple on which a cochain of this flavor with scalar form
    ``form`` (its ``tilde``) breaks the cyclic identity, or None: for an
    exterior cochain graded antisymmetry, and then the least tuple of the
    support with a repeated even letter (which only characteristic 2 lets
    antisymmetry miss); the rotation identity for a tensor one."""
    if flavor == EXTERIOR:
        par = form.space.parities
        return _antisymmetry_witness(form) or min(
            (t for t in form.coeffs
             if canonical_word(EXTERIOR, t, par) is None), default=None)
    return _rotation_witness(form)


def is_cyclic(phi, ip):
    """A tensor cochain is cyclic when <phi(v_1..v_k), v_{k+1}> equals
    (-1)^{k + |v_1||phi|} <v_1, phi(v_2..v_{k+1})> on every tuple (the
    rotation identity of its scalar form); an exterior cochain when its
    scalar form is graded antisymmetric."""
    return _cyclic_witness(phi.flavor, tilde(phi, ip)) is None


def is_cyclic_scalar(f):
    """The rotation identity f(v_1..v_{n+1}) = (-1)^{n + |v_1|(|v_2|+..)}
    f(v_2..v_{n+1}, v_1) on every tuple (tensor-flavored scalar cochains)."""
    return _rotation_witness(f) is None


def cyclicize(f):
    """Average a scalar cochain over signed rotations; the result is always
    cyclic, and equals (n+1) f when f already was."""
    if f.flavor != TENSOR:
        raise ValueError("cyclicize acts on tensor-flavored scalar cochains")
    space = f.space
    out = {}
    for t in itertools.product(range(space.dim), repeat=f.arity):
        acc = space.field(0)
        for i, e in enumerate(rotation_signs(space.parities, t)):
            acc = acc + e * f.value(t[i:] + t[:i])
        if acc:
            out[t] = acc
    return ScalarCochain(space, TENSOR, f.arity, f.parity, out)


def _require_invariant(s, ip):
    """Raise InvarianceError unless the inner product is invariant."""
    ok, witness = structure_is_cyclic(s, ip)
    if not ok:
        raise InvarianceError(*witness)


def structure_is_cyclic(s, ip):
    """Invariance of the inner product: every part is cyclic.  Returns
    (True, None) or (False, (arity, witness letters))."""
    for k in sorted(s.parts):
        t = _cyclic_witness(s.flavor, tilde(s.parts[k], ip))
        if t is not None:
            return False, (k, tuple(s.space.names[x] for x in t))
    return True, None


# --- cyclic coboundary ------------------------------------------------------

def _rotation_sum(f, inner, extra_exp):
    """sum over rotations of (-1)^{(v_1+..+v_i)(v_{i+1}+..+v_{n+1}) + i n
    + extra} f(inner(u_1..u_l), u_{l+1}..) with u the rotated tuple; the
    shared shape of the cyclic bracket and the cyclic coboundary.  f and
    inner are tensor-flavored, so both are read by key.  The sum is read on
    the rotations of the reachable targets: a nonzero term needs a
    rotation of some h + w[1:]."""
    space = f.space
    l = inner.degree
    k = f.arity - 1
    n = k + l - 1
    sign = -1 if extra_exp & 1 else 1
    out = {}
    for t in sorted({u[i:] + u[:i] for u in reachable(f.coeffs, inner)
                     for i in range(n + 1)}):
        acc = 0
        for i, e in enumerate(rotation_signs(space.parities, t)):
            u = t[i:] + t[:i]
            head, tail = u[:l], u[l:]
            vec = inner.coeffs.get(head)
            if not vec:
                continue
            term = 0
            for bidx, c in vec.items():
                x = f.coeffs.get((bidx,) + tail)
                if x is not None:
                    term = term + c * x
            acc = acc + sign * e * term
        if acc:
            out[t] = acc
    parity = (f.parity + inner.parity) & 1
    return ScalarCochain(space, TENSOR, n + 1, parity, out)


def _unshuffle_sum(f, inner, extra_exp):
    """Exterior counterpart: f composed with the extension of ``inner``,
    whose unshuffle sum carries the permutation and Koszul signs, giving an
    antisymmetric scalar cochain.  The extension terms land on f's
    support, whose canonical tuples are its coefficient keys."""
    space = f.space
    sign = -1 if extra_exp & 1 else 1
    out = {}
    for t, w, b, h, signs in terms(f.coeffs, heads_of(inner), EXTERIOR,
                                   space.parities):
        out[t] = out.get(t, 0) + signs[inner.parity] * inner.coeffs[h][b] \
            * f.coeffs[w]
    parity = (f.parity + inner.parity) & 1
    return ScalarCochain(space, EXTERIOR, f.arity + inner.degree - 1, parity,
                         {t: sign * out[t] for t in sorted(out)})


def _exterior_form(f):
    """The exterior scalar cochain equal to f as a function, or None when f
    is not graded alternating, the exterior test of ``_cyclic_witness``."""
    if f.flavor == EXTERIOR:
        return f
    if _cyclic_witness(EXTERIOR, f) is not None:
        return None
    par = f.space.parities
    coeffs = {t: f.value(t) for t in
              sorted({canonical_word(EXTERIOR, t, par)[1] for t in f.coeffs})}
    return ScalarCochain(f.space, EXTERIOR, f.arity, f.parity, coeffs)


def cyclic_coboundary(f, s):
    """The differential on cyclic scalar cochains, as a family keyed by
    scalar degree.  Requires a cyclic (tensor) or antisymmetric (exterior)
    input; with an invariant inner product it coincides with the scalar
    form of {untilde(f), m}."""
    if s.flavor == TENSOR:
        if f.flavor != TENSOR or not is_cyclic_scalar(f):
            raise ValueError("cyclic coboundary needs a cyclic scalar cochain")
        term_of = _rotation_sum
    else:
        f = _exterior_form(f)
        if f is None:
            raise ValueError("cyclic coboundary needs an antisymmetric scalar cochain")
        term_of = _unshuffle_sum
    out = {}
    k = f.arity - 1
    for l, part in s.parts.items():
        term = term_of(f, part, (k - 1) * l)
        if not term.is_zero():
            # part l lands in arity f.arity + l - 1: no two parts meet
            out[term.arity - 1] = term
    return out


# --- cyclic cochain spaces and cyclic cohomology ----------------------------

def cyclic_scalar_basis(space, flavor, degree):
    """Deterministic basis of the degree-n cyclic scalar cochains (arity
    n+1), the cochains fixed by the signed rotation action: ker(1 - t) at
    every characteristic.  For p <= arity this lambda-complex need not
    compute the bicomplex cyclic cohomology.

    There is one basis vector per orbit whose signed stabilizer acts
    trivially, with coefficient 1 at the orbit's least tuple (its pivot).
    Tensor orbits are rotation orbits, enumerated as necklaces in
    lexicographic order (Fredricksen-Kessler-Maiorana; Ruskey-Savage-Wang
    1992).  The rotation by the period generates the stabilizer, so an
    orbit is kept iff its sign is 1 in the field; its first `period`
    rotations carry their rotation signs.  Exterior orbits are S_{n+1}
    orbits, and the canonical tuples are exactly those with a trivial
    signed stabilizer, so each gets its delta cochain.  (In characteristic
    2 every signed stabilizer is trivial, but exterior cochains are
    alternating, so a repeated even letter still drops out.)

    Returns (list of orbits {tuple: its int sign}, list of pivot tuples).
    """
    arity = degree + 1
    if flavor == EXTERIOR:
        orbits = {t: {t: 1} for t in canonical_tuples(space, EXTERIOR, arity)}
    else:
        orbits = dict(_signed_orbits(space.parities, space.dim, arity,
                                     space.field.characteristic == 2))
    return list(orbits.values()), list(orbits)


def _signed_orbits(par, dim, arity, char2):
    """(least tuple, {rotation: its sign}) of every kept tensor orbit; in
    characteristic 2 (``char2``) every orbit is kept."""
    for t, period in _necklaces(dim, arity):
        signs = rotation_signs(par, t)
        # the rotation by the period generates the stabilizer; by the
        # arity it is the identity
        if period == arity or signs[period] > 0 or char2:
            yield t, {t[i:] + t[:i]: signs[i] for i in range(period)}


def _necklaces(k, n):
    """(word, period) for each length-n word over range(k) least among its
    rotations, in lexicographic order: iterative FKM, which keeps the
    prenecklaces whose Lyndon prefix length divides n."""
    a = [0] * n
    yield tuple(a), 1
    while True:
        i = n - 1
        while i >= 0 and a[i] == k - 1:
            i -= 1
        if i < 0:
            return
        a[i] += 1
        for j in range(i + 1, n):
            a[j] = a[j - i - 1]
        if n % (i + 1) == 0:
            yield tuple(a), i + 1


def cyclic_cohomology(s, ip, window):
    """Exact windowed cyclic cohomology.

    When an inner product is supplied it must be invariant (every part
    cyclic); the complex itself, built from scalar cochains, does not
    depend on it, which also covers structures with no invariant form.
    """
    if ip is not None:
        _require_invariant(s, ip)
    p, arity = s.space.field.characteristic, window[1] + 1
    small_p = ("characteristic %d <= %d, the largest arity in the window: "
               "the lambda-complex need not compute cyclic cohomology"
               % (p, arity)) if 0 < p <= arity else ""
    note = _report_note(s, "mixed arities: coboundary dimensions are "
                        "truncated to sources in the window", small_p)
    return _window_report(_CyclicComplex(s), tuple(window), note)


# --- deformation classification ---------------------------------------------

class DeformationClass:
    def __init__(self, cocycle, coboundary, preserves_ip=None, note=""):
        self.cocycle = cocycle
        self.coboundary = coboundary  # True / False / None when undetermined
        self.preserves_ip = preserves_ip
        self.note = note


def classify_deformation(s, parts, ip=None):
    """Classify a first-order direction.

    cocycle: D(lambda) = 0.  coboundary: lambda = D(beta), exactly, for a
    beta of the parameter's parity on the ``_sources`` of lambda's degrees,
    in the plain complex without an inner product and in the cyclic one
    with it, matching the classification of deformations that preserve the
    form, so the form must be invariant (InvarianceError otherwise, as in
    cyclic_cohomology).  WindowTooLarge if its bases exceed the bound.
    """
    if ip is not None:
        _require_invariant(s, ip)
    param = deformation_parameter_parity(parts)
    # D(lambda) = {lambda, m}, deform_check's test without its second parity
    # check, on the direction's core ints and the lift
    field = s.space.field
    cocycle = family_vanishes(family_bracket(core_family(parts, field),
                                             s.lift.parts),
                              field.characteristic)
    preserves = None
    if ip is not None:
        # each part's scalar form, built once for the test and the coords
        forms = {k: tilde(c, ip) for k, c in parts.items()}
        preserves = all(_cyclic_witness(c.flavor, forms[k]) is None
                        for k, c in parts.items())
    live = {k: c for k, c in parts.items() if not c.is_zero()}
    if not live:
        return DeformationClass(cocycle, True, preserves, "zero direction")
    max_deg = max(live)
    if max_deg > s.max_arity:
        return DeformationClass(cocycle, None, preserves,
                                "undetermined at this truncation: direction "
                                "exceeds the max_arity cap")
    if ip is not None and not preserves:
        return DeformationClass(cocycle, False, preserves,
                                "direction is not cyclic, so it cannot be a "
                                "coboundary in the cyclic complex")
    cx = _PlainComplex(s) if ip is None else _CyclicComplex(s)
    degrees = sorted({q for k in live for q in _sources(cx, (0, max_deg), k)})
    _check_window(cx, 0, max([max_deg - cx.spread] + degrees),
                  "direction of degree %d" % max_deg, min([*degrees, *live]))
    sources = [img for q in degrees for i, img in enumerate(cx.images(q))
               if cx.parity(q, i) == (param + q + 1) & 1]
    lam = linalg.core_vectors({k: cx.coords(k, c if ip is None else forms[k])
                               for k, c in live.items()}, cx.field)
    note = "" if ip is None else ("coboundary tested in the cyclic complex "
                                  "(inner product supplied)")
    return DeformationClass(cocycle, bool(_spanned(cx, sources, [lam])[0]),
                            preserves, note)
