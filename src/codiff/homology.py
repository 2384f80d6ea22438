"""Coboundary operators, exact cohomology of a structure, cyclic cochains
and cyclic cohomology, and classification of first-order deformations.

Windowed cohomology, cyclic cohomology and the coboundary test all query one
cochain complex: the cochains V^p -> V with D(phi) = {phi, m}, or the cyclic
scalar cochains with the cyclic coboundary.  The complex builds each block
D_p, D of every degree-p basis vector as sparse coordinates, once and in
one pass over the structure's entries (``codiff.blocks``); ``coboundary``
and ``cyclic_coboundary`` remain the per-cochain routes.  Every matrix
passed to ``linalg`` is a list of sparse rows.  For a window a..b a row
reports Z^p = ker D on C^p and B^p = im D ∩ C^p, with D applied to the
sources of degree >= a - spread, the spread being the largest arity less
one.  For one arity D_p maps C^p to C^{p+spread} alone, so Z^p = ker D_p
and B^p = im D_{p-spread} exactly.  For mixed arities the image of a
degree-p cochain spreads over degrees p..p+N-1, so B^p is a lower bound for
the coboundary space and the report says so (membership tests remain
reliable).
"""

from __future__ import annotations

import itertools

from . import linalg
from .blocks import OUTSIDE, cyclic_block, orbit_coords, plain_block
from .cochain import (Cochain, ScalarCochain, canonical_tuples, scalar_add,
                      tilde, vec_add)
from .coderivation import (extend_letters, family_bracket, family_is_zero,
                           reachable)
from .graded import (EXTERIOR, PRODUCT_FORM, TENSOR, canonical_word,
                     rotation_sign)
# deform_check stays a module attribute: bench/tracer.py wraps it here
from .structures import deformation_parameter_parity, deform_check  # noqa: F401


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
    return family_bracket({phi.degree: phi}, s.parts, convention=s.convention)


# --- the two cochain complexes -----------------------------------------------

class _Complex:
    """A cochain complex of a structure with a basis per degree, built once.

    ``dim(p)`` and ``parity(p, i)`` describe the degree-p basis.  Vectors
    are sparse {basis position: scalar} dicts of nonzeros: ``images(p)`` is
    the block of D on C^p, D of each degree-p basis vector as {degree:
    vector}, built once in one pass (``codiff.blocks``); ``coords(p, c)``
    reads a cochain in the basis, ``reconstruct(p, v)`` builds the cochain
    with coordinates v, and ``differential(c)`` is D of one cochain.
    """

    def __init__(self, s):
        self.s = s
        self.field = s.space.field
        self.spread = (max(s.parts) - 1) if s.parts else 0
        self._bases = {}
        self._indexes = {}
        self._images = {}

    def _basis(self, p):
        if p not in self._bases:
            self._bases[p] = self._build_basis(p)
        return self._bases[p]

    def _index(self, p):
        """The degree-p map from basis keys to positions, built once."""
        if p not in self._indexes:
            self._indexes[p] = self._build_index(p)
        return self._indexes[p]

    def dim(self, p):
        return len(self._basis(p))

    def images(self, p):
        if p not in self._images:
            self._images[p] = self._block(p)
        return self._images[p]


class _PlainComplex(_Complex):
    """Cochains V^p -> V on the delta basis of (canonical tuple, output
    letter) pairs, with D = coboundary."""

    def _build_basis(self, p):
        par = self.s.space.parities
        return [(t, j, (par[j] + sum(par[i] for i in t)) & 1)
                for t in canonical_tuples(self.s.space, self.s.flavor, p)
                for j in range(self.s.space.dim)]

    def _build_index(self, p):
        return {entry[:2]: i for i, entry in enumerate(self._basis(p))}

    def parity(self, p, i):
        return self._basis(p)[i][2]

    def _block(self, p):
        return plain_block(self.s, p, self._index)

    def differential(self, c):
        return coboundary(c, self.s)

    def coords(self, p, c):
        index, field = self._index(p), self.field
        return {index[t, j]: v for t, vec in c.coeffs.items()
                for j, x in vec.items() if (v := field(x))}

    def reconstruct(self, p, coords):
        basis, coeffs, parity = self._basis(p), {}, 0
        for i in sorted(coords):
            t, j, parity = basis[i]
            coeffs.setdefault(t, {})[j] = coords[i]
        return Cochain(self.s.space, self.s.flavor, p, parity, coeffs)


class _CyclicComplex(_Complex):
    """Cyclic scalar cochains of arity p + 1 in degree p, on
    ``cyclic_scalar_basis``, with D = cyclic_coboundary."""

    def _build_basis(self, p):
        return list(zip(*cyclic_scalar_basis(self.s.space, self.s.flavor, p)))

    def _build_index(self, p):
        """{tuple: (position, orbit sign, pivot)} over every basis orbit."""
        return {t: (i, 1 if c == 1 else -1, pivot)
                for i, (b, pivot) in enumerate(self._basis(p))
                for t, c in b.coeffs.items()}

    def parity(self, p, i):
        return self._basis(p)[i][0].parity

    def _block(self, p):
        return cyclic_block(self.s, p, self._index)

    def differential(self, f):
        return cyclic_coboundary(f, self.s)

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
        basis, coeffs, parity = self._basis(p), {}, 0
        for i in sorted(coords):
            b = basis[i][0]
            vec_add(coeffs, b.coeffs, coords[i])
            parity = b.parity
        return ScalarCochain(self.s.space, self.s.flavor, p + 1, parity,
                             coeffs)


def _transpose(vectors, n):
    """The n sparse rows of the matrix whose columns are these vectors."""
    rows = [{} for _ in range(n)]
    for c, vec in enumerate(vectors):
        for r, x in vec.items():
            rows[r][c] = x
    return rows


def _stack(family, offset):
    """A family {degree: vector} as one vector over the degrees stacked at
    these row offsets; other degrees are dropped."""
    return {offset[q] + r: x for q, vec in family.items() if q in offset
            for r, x in vec.items()}


def _offsets(cx, degrees):
    """(row offset per degree, total rows) of the stacked degrees."""
    offset, total = {}, 0
    for q in degrees:
        offset[q] = total
        total += cx.dim(q)
    return offset, total


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


def _window_report(cx, window, graded_exact, note):
    """Z^p, B^p and representatives of Z^p / B^p for p in the window."""
    a, b = window
    if a < 0 or b < a:
        raise ValueError("window must satisfy 0 <= a <= b")
    spaces = _block_spaces(cx) if graded_exact else _truncated_spaces(cx, a, b)
    rows_out = []
    for p in range(a, b + 1):
        kern, b_basis = spaces(p) if cx.dim(p) else ([], [])
        # representatives: the kernel vectors among the pivot columns of
        # [B | Z], i.e. each one not in the span of B and the earlier ones
        reps = []
        if kern:
            span = b_basis + kern
            _, pivots = linalg.echelon(_transpose(span, cx.dim(p)), cx.field)
            reps = [cx.reconstruct(p, span[c]) for c in pivots
                    if c >= len(b_basis)]
        # the bracket route certifies each class the block picked
        if any(cx.differential(rep) for rep in reps):
            raise RuntimeError("a representative of H^%d is not a cocycle" % p)
        rows_out.append(DegreeRow(p, len(kern), len(b_basis),
                                  len(kern) - len(b_basis), reps))
    return CohomologyReport(window, rows_out, graded_exact, note)


def _block_spaces(cx):
    """Single arity: D maps C^p into C^{p + spread} alone, so Z^p = ker D_p
    and B^p = im D_{p - spread}.  Each block D_p is ``cx.images(p)``, built
    once and shared by rows p and p + spread.  Returns p -> (basis of Z^p
    in free-column form, RREF basis of B^p)."""
    def spaces(p):
        q, src = p + cx.spread, p - cx.spread
        block = [img.get(q, {}) for img in cx.images(p)]
        kern = linalg.kernel_basis(_transpose(block, cx.dim(q)), len(block),
                                   cx.field)
        if src < 0:
            return kern, []
        return kern, linalg.rref([img.get(p, {}) for img in cx.images(src)],
                                 cx.field)[0]
    return spaces


def _truncated_spaces(cx, a, b):
    """Mixed arities: Z^p = ker D on C^p, and B^p = im D ∩ C^p with D
    applied to every basis vector of degree a - spread .. b, as one stack of
    sparse columns over the target degrees.  Returns p -> (Z^p, B^p) like
    ``_block_spaces``."""
    src_low = max(0, a - cx.spread)
    offset, total = _offsets(cx, range(src_low, b + cx.spread + 1))
    cols = [_stack(img, offset) for p in range(src_low, b + 1)
            for img in cx.images(p)]

    def spaces(p):
        # sources and targets both start at src_low, so the columns of
        # degree p start at the row offset of degree p
        lo, hi = offset[p], offset[p] + cx.dim(p)
        kern = linalg.kernel_basis(_transpose(cols[lo:hi], total), hi - lo,
                                   cx.field)
        # the combinations of all columns that vanish off degree p, and
        # their degree-p parts
        own = [{r - lo: x for r, x in col.items() if lo <= r < hi}
               for col in cols]
        off = [{r: x for r, x in col.items() if not lo <= r < hi}
               for col in cols]
        images = []
        for v in linalg.kernel_basis(_transpose(off, total), len(cols),
                                     cx.field):
            img = {}
            for j, x in v.items():
                vec_add(img, own[j], x)
            images.append(img)
        return kern, linalg.rref(images, cx.field)[0]
    return spaces


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
    return _window_report(_PlainComplex(s), tuple(window), len(s.parts) <= 1,
                          note)


# --- cyclicity --------------------------------------------------------------

def _cyclic_witness(phi, ip):
    """The first tuple on which phi breaks the cyclic identity, or None."""
    space = phi.space
    if phi.flavor == EXTERIOR:
        return _antisymmetry_witness(tilde(phi, ip))
    k = phi.degree
    for t in itertools.product(range(space.dim), repeat=k + 1):
        lhs = ip.pair(phi.value(t[:k]), t[k])
        e = k + space.parities[t[0]] * phi.parity
        rhs = ip.pair({t[0]: 1}, phi.value(t[1:]))
        if e & 1:
            rhs = -rhs
        if lhs != rhs:
            return t
    return None


def _antisymmetry_witness(f):
    """The first tuple whose adjacent swap breaks graded antisymmetry, as
    swapped, or None."""
    space = f.space
    for t in itertools.product(range(space.dim), repeat=f.arity):
        base = f.value(t)
        for i in range(f.arity - 1):
            swapped = t[:i] + (t[i + 1], t[i]) + t[i + 2:]
            sign = -1 if not (space.parities[t[i]] & space.parities[t[i + 1]]) else 1
            if f.value(swapped) != sign * base:
                return swapped
    return None


def is_cyclic(phi, ip):
    """A tensor cochain is cyclic when <phi(v_1..v_k), v_{k+1}> equals
    (-1)^{k + |v_1||phi|} <v_1, phi(v_2..v_{k+1})> on every tuple; an
    exterior cochain when its scalar form is graded antisymmetric."""
    return _cyclic_witness(phi, ip) is None


def is_cyclic_scalar(f):
    """The rotation identity f(v_1..v_{n+1}) = (-1)^{n + |v_1|(|v_2|+..)}
    f(v_2..v_{n+1}, v_1) on every tuple (tensor-flavored scalar cochains)."""
    par = f.space.parities
    # checking the support suffices: there the identity makes the rotation
    # map the support into itself, hence onto it, so off the support both
    # sides are zero
    return all(f.value(t) == rotation_sign(par, t, 1) * f.value(t[1:] + t[:1])
               for t in f.coeffs)


def cyclicize(f):
    """Average a scalar cochain over signed rotations; the result is always
    cyclic, and equals (n+1) f when f already was."""
    if f.flavor != TENSOR:
        raise ValueError("cyclicize acts on tensor-flavored scalar cochains")
    space = f.space
    out = {}
    for t in itertools.product(range(space.dim), repeat=f.arity):
        acc = space.field(0)
        for i in range(f.arity):
            rotated = f.value(t[i:] + t[:i])
            acc = acc + rotation_sign(space.parities, t, i) * rotated
        if acc:
            out[t] = acc
    return ScalarCochain(space, TENSOR, f.arity, f.parity, out)


def structure_is_cyclic(s, ip):
    """Invariance of the inner product: every part is cyclic.  Returns
    (True, None) or (False, (arity, witness letters))."""
    for k in sorted(s.parts):
        t = _cyclic_witness(s.parts[k], ip)
        if t is not None:
            return False, (k, tuple(s.space.names[x] for x in t))
    return True, None


# --- cyclic coboundary ------------------------------------------------------

def _rotation_sum(f, inner, extra_exp):
    """sum over rotations of (-1)^{(v_1+..+v_i)(v_{i+1}+..+v_{n+1}) + i n
    + extra} f(inner(u_1..u_l), u_{l+1}..) with u the rotated tuple; the
    shared shape of the cyclic bracket and the cyclic coboundary.  f is
    tensor-flavored, so its support is its coefficient keys."""
    space = f.space
    l = inner.degree
    k = f.arity - 1
    n = k + l - 1
    sign = -1 if extra_exp & 1 else 1
    out = {}
    for t in reachable(f.coeffs, inner, rotations=True):
        acc = space.field(0)
        for i in range(n + 1):
            u = t[i:] + t[:i]
            head, tail = u[:l], u[l:]
            vec = inner.value(head)
            if not vec:
                continue
            term = space.field(0)
            for bidx, c in vec.items():
                term = term + c * f.value((bidx,) + tail)
            acc = acc + sign * rotation_sign(space.parities, t, i) * term
        if acc:
            out[t] = acc
    parity = (f.parity + inner.parity) & 1
    return ScalarCochain(space, TENSOR, n + 1, parity, out)


def _unshuffle_sum(f, inner, extra_exp):
    """Exterior counterpart: f composed with the extension of ``inner``,
    whose unshuffle sum carries the permutation and Koszul signs, giving an
    antisymmetric scalar cochain.  The extension lands on canonical tuples,
    which are f's coefficient keys."""
    space = f.space
    sign = -1 if extra_exp & 1 else 1
    out = {}
    for t in reachable(f.coeffs, inner):
        acc = space.field(0)
        for mid, c in extend_letters(inner, t, PRODUCT_FORM).items():
            x = f.coeffs.get(mid)
            if x:
                acc = acc + c * x
        if acc:
            out[t] = sign * acc
    parity = (f.parity + inner.parity) & 1
    return ScalarCochain(space, EXTERIOR, f.arity + inner.degree - 1, parity,
                         out)


def _exterior_form(f):
    """The exterior scalar cochain equal to f as a function, or None when f
    is not graded alternating: antisymmetric under adjacent swaps, and zero
    on tuples with a repeated even letter (which only characteristic 2 lets
    antisymmetry miss)."""
    if f.flavor == EXTERIOR:
        return f
    par = f.space.parities
    if (_antisymmetry_witness(f) is not None
            or any(canonical_word(EXTERIOR, t, par) is None for t in f.coeffs)):
        return None
    coeffs = {t: f.value(t)
              for t in canonical_tuples(f.space, EXTERIOR, f.arity)}
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
            q = term.arity - 1
            out[q] = scalar_add(out[q], term) if q in out else term
    return out


# --- cyclic cochain spaces and cyclic cohomology ----------------------------

def cyclic_scalar_basis(space, flavor, degree):
    """Deterministic basis of the degree-n cyclic scalar cochains (arity
    n+1), the cochains fixed by the signed rotation action: ker(1 - t) at
    every characteristic.  For p <= arity this lambda-complex need not
    compute the bicomplex cyclic cohomology.

    There is one basis vector per orbit whose signed stabilizer acts
    trivially, with coefficient 1 at the orbit's least tuple (its pivot).
    Tensor orbits are rotation orbits: each rotation of the least tuple
    carries its rotation sign, and an orbit where two rotations reach one
    tuple with different signs carries no cyclic cochain.  Exterior orbits
    are S_{n+1} orbits, and the canonical tuples are exactly those with a
    trivial signed stabilizer, so each gets its delta cochain.  (In
    characteristic 2 every signed stabilizer is trivial, but exterior
    cochains are alternating, so a repeated even letter still drops out.)

    Returns (list of ScalarCochain, list of pivot tuples).
    """
    arity = degree + 1
    field = space.field
    par = space.parities
    if flavor == EXTERIOR:
        orbits = ((t, {t: field(1)})
                  for t in canonical_tuples(space, EXTERIOR, arity))
    else:
        orbits = ((t, _rotation_orbit(t, par, field))
                  for t in itertools.product(range(space.dim), repeat=arity))
    basis, pivots = [], []
    for t, coeffs in orbits:
        if coeffs is not None:
            basis.append(ScalarCochain(space, flavor, arity,
                                       sum(par[x] for x in t) & 1, coeffs))
            pivots.append(t)
    return basis, pivots


def _rotation_orbit(t, par, field):
    """{rotation of t: its rotation sign}, or None when t is not least in
    its orbit or two rotations reach one tuple with different signs."""
    coeffs = {}
    for i in range(len(t)):
        u = t[i:] + t[:i]
        c = field(rotation_sign(par, t, i))
        if u < t or coeffs.setdefault(u, c) != c:
            return None
    return coeffs


def cyclic_cohomology(s, ip=None, window=(0, 3)):
    """Exact windowed cyclic cohomology.

    When an inner product is supplied it must be invariant (every part
    cyclic); the complex itself, built from scalar cochains, does not
    depend on it, which also covers structures with no invariant form.
    """
    if ip is not None:
        ok, witness = structure_is_cyclic(s, ip)
        if not ok:
            raise InvarianceError(*witness)
    p, arity = s.space.field.characteristic, window[1] + 1
    small_p = ("characteristic %d <= %d, the largest arity in the window: "
               "the lambda-complex need not compute cyclic cohomology"
               % (p, arity)) if 0 < p <= arity else ""
    note = _report_note(s, "mixed arities: coboundary dimensions are "
                        "truncated to sources in the window", small_p)
    return _window_report(_CyclicComplex(s), tuple(window), len(s.parts) <= 1,
                          note)


# --- deformation classification ---------------------------------------------

class DeformationClass:
    def __init__(self, cocycle, coboundary, preserves_ip=None, note=""):
        self.cocycle = cocycle
        self.coboundary = coboundary  # True / False / None when undetermined
        self.preserves_ip = preserves_ip
        self.note = note


def classify_deformation(s, parts, ip=None):
    """Classify a first-order direction.

    cocycle: D(lambda) = 0.  coboundary: exact linear solve of
    D(beta) = lambda; without an inner product beta ranges over the full
    windowed complex, with one it ranges over the cyclic complex, matching
    the classification of deformations that preserve the form.
    """
    param = deformation_parameter_parity(parts)
    # D(lambda) = {lambda, m}: deform_check without its second parity check
    cocycle = family_is_zero(family_bracket(parts, s.parts,
                                            convention=s.convention))
    preserves = None
    if ip is not None:
        preserves = all(is_cyclic(c, ip) for c in parts.values())
    live = {k: c for k, c in parts.items() if not c.is_zero()}
    if not live:
        return DeformationClass(cocycle, True, preserves, "zero direction")
    max_deg = max(live)
    if max_deg > s.max_arity:
        return DeformationClass(cocycle, None, preserves,
                                "undetermined at this truncation: direction "
                                "exceeds the max_arity cap")
    if ip is None:
        cx = _PlainComplex(s)
        lam = {k: cx.coords(k, c) for k, c in live.items()}
        return DeformationClass(cocycle, _is_coboundary(cx, lam, param, max_deg),
                                preserves)
    if not preserves:
        return DeformationClass(cocycle, False, preserves,
                                "direction is not cyclic, so it cannot be a "
                                "coboundary in the cyclic complex")
    cx = _CyclicComplex(s)
    lam = {k: cx.coords(k, tilde(c, ip)) for k, c in live.items()}
    note = "coboundary tested in the cyclic complex (inner product supplied)"
    return DeformationClass(cocycle, _is_coboundary(cx, lam, param, max_deg),
                            preserves, note)


def _is_coboundary(cx, lam_coords, param, max_deg):
    """Is lambda, given as {degree: coordinates}, D(beta) for a beta of
    degree <= max_deg whose parity matches a parameter of parity param?"""
    offset, total = _offsets(cx, range(max_deg + cx.spread + 1))
    cols = [_stack(img, offset) for q in range(max_deg + 1)
            for i, img in enumerate(cx.images(q))
            if cx.parity(q, i) == (param + q + 1) & 1]
    return linalg.solve(_transpose(cols, total), _stack(lam_coords, offset),
                        len(cols), cx.field) is not None
