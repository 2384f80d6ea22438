"""Coboundary operators, exact cohomology of a structure, cyclic cochains
and cyclic cohomology, and classification of first-order deformations.

Windowed cohomology, cyclic cohomology and the coboundary test all query one
cochain complex: the cochains V^p -> V with D(phi) = {phi, m}, or the cyclic
scalar cochains with the cyclic coboundary.  For a window a..b a row reports
the cocycles Z^p = ker D on C^p and the coboundaries B^p = im D ∩ C^p, with D
applied to the sources of degree >= a - spread, where the spread is the
largest arity less one.  For a structure concentrated in one arity the
complex splits by cochain degree and B^p is exact.  For mixed arities the
image of a degree-p cochain spreads over degrees p..p+N-1, so B^p is a lower
bound for the coboundary space and the report says so (membership tests
remain reliable).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

from . import linalg
from .cochain import (Cochain, ScalarCochain, canonical_tuples, scalar_add,
                      tilde, vec_add)
from .coderivation import family_bracket, reachable
from .graded import (EXTERIOR, TENSOR, canonical_word, reorder_sign,
                     unshuffles)
from .structures import deformation_parameter_parity, deform_check


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


def coboundary_family(fam, s):
    return family_bracket(fam, s.parts, convention=s.convention)


# --- the two cochain complexes -----------------------------------------------

class _Complex:
    """A cochain complex of a structure with a basis per degree, built once.

    ``dim(p)`` and ``parity(p, i)`` describe the degree-p basis,
    ``image(p, i)`` is D of its i-th vector as {degree: coordinates},
    ``coords(p, c)`` reads a cochain in the basis and ``reconstruct(p, v)``
    builds the cochain with coordinates v.
    """

    def __init__(self, s):
        self.s = s
        self.field = s.space.field
        self.spread = (max(s.parts) - 1) if s.parts else 0
        self._bases = {}

    def _basis(self, p):
        if p not in self._bases:
            self._bases[p] = self._build_basis(p)
        return self._bases[p]

    def dim(self, p):
        return len(self._basis(p))


class _PlainComplex(_Complex):
    """Cochains V^p -> V on the delta basis of (canonical tuple, output
    letter) pairs, with D = coboundary."""

    def __init__(self, s):
        super().__init__(s)
        self._index = {}  # degree -> {(tuple, letter): basis position}

    def _build_basis(self, p):
        par = self.s.space.parities
        return [(t, j, (par[j] + sum(par[i] for i in t)) & 1)
                for t in canonical_tuples(self.s.space, self.s.flavor, p)
                for j in range(self.s.space.dim)]

    def parity(self, p, i):
        return self._basis(p)[i][2]

    def image(self, p, i):
        t, j, parity = self._basis(p)[i]
        delta = Cochain(self.s.space, self.s.flavor, p, parity, {t: {j: 1}})
        return {q: self.coords(q, c)
                for q, c in coboundary(delta, self.s).items()}

    def coords(self, p, c):
        if p not in self._index:
            self._index[p] = {(t, j): i for i, (t, j, _)
                              in enumerate(self._basis(p))}
        index = self._index[p]
        out = [self.field(0)] * len(index)
        for t, vec in c.coeffs.items():
            for j, x in vec.items():
                out[index[t, j]] = self.field(x)
        return out

    def reconstruct(self, p, coords):
        coeffs, parity = {}, 0
        for (t, j, par), x in zip(self._basis(p), coords):
            if x:
                coeffs.setdefault(t, {})[j] = x
                parity = par
        return Cochain(self.s.space, self.s.flavor, p, parity, coeffs)


class _CyclicComplex(_Complex):
    """Cyclic scalar cochains of arity p + 1 in degree p, on
    ``cyclic_scalar_basis``, with D = cyclic_coboundary."""

    def _build_basis(self, p):
        return list(zip(*cyclic_scalar_basis(self.s.space, self.s.flavor, p)))

    def parity(self, p, i):
        return self._basis(p)[i][0].parity

    def image(self, p, i):
        fam = cyclic_coboundary(self._basis(p)[i][0], self.s)
        return {q: self.coords(q, g) for q, g in fam.items()}

    def coords(self, p, f):
        """Coordinates at the pivot tuples, with an exact membership check:
        the basis combination must give back every stored coefficient."""
        if self.s.flavor == EXTERIOR:
            f = _exterior_form(f)
        if f is not None:
            coords = [self.field(f.coeffs.get(t, 0))
                      for _, t in self._basis(p)]
            if self.reconstruct(p, coords).coeffs == f.coeffs:
                return coords
        raise RuntimeError("scalar cochain falls outside the cyclic space")

    def reconstruct(self, p, coords):
        coeffs, parity = {}, 0
        for (b, _), x in zip(self._basis(p), coords):
            if x:
                vec_add(coeffs, b.coeffs, x)
                parity = b.parity
        return ScalarCochain(self.s.space, self.s.flavor, p + 1, parity,
                             coeffs)


def _assemble(cx, sources, degrees):
    """D of the (degree, index) sources as columns, stacking the target
    degrees in order.  Returns (row offset per degree, row count, columns)."""
    offset, total = {}, 0
    for q in degrees:
        offset[q] = total
        total += cx.dim(q)
    cols = []
    for p, i in sources:
        col = [cx.field(0)] * total
        for q, coords in cx.image(p, i).items():
            if q in offset:
                col[offset[q]:offset[q] + len(coords)] = coords
        cols.append(col)
    return offset, total, cols


# --- windowed cohomology ----------------------------------------------------

@dataclass
class DegreeRow:
    degree: int
    cocycles: int
    coboundaries: int
    quotient: int
    representatives: list = dc_field(default_factory=list)


@dataclass
class CohomologyReport:
    window: tuple
    rows: list
    graded_exact: bool
    note: str = ""


def _window_report(cx, window, graded_exact, note):
    """Z^p, B^p and representatives of Z^p / B^p for p in the window, with
    D applied to every basis vector of degree a - spread .. b."""
    a, b = window
    if a < 0 or b < a:
        raise ValueError("window must satisfy 0 <= a <= b")
    field = cx.field
    src_low = max(0, a - cx.spread)
    sources = [(p, i) for p in range(src_low, b + 1) for i in range(cx.dim(p))]
    # sources and targets both start at src_low, so the columns of degree p
    # start at the row offset of degree p
    offset, total_rows, all_cols = _assemble(
        cx, sources, range(src_low, b + cx.spread + 1))
    rows_out = []
    for p in range(a, b + 1):
        dim_p = cx.dim(p)
        if dim_p == 0:
            rows_out.append(DegreeRow(p, 0, 0, 0, []))
            continue
        off_p = offset[p]
        # cocycles: kernel of D restricted to degree-p sources (all rows)
        own = all_cols[off_p:off_p + dim_p]
        kern = linalg.kernel_basis(
            [[col[r] for col in own] for r in range(total_rows)], field)
        # coboundaries landing exactly in degree p, from windowed sources
        off_rows = [r for r in range(total_rows)
                    if not off_p <= r < off_p + dim_p]
        if off_rows:
            feasible = linalg.kernel_basis(
                [[col[r] for col in all_cols] for r in off_rows], field)
            # the nonzero degree-p entries of each column
            block = [[(r, x) for r, x in enumerate(col[off_p:off_p + dim_p])
                      if x] for col in all_cols]
            images = []
            for v in feasible:
                img = [field(0)] * dim_p
                for x, entries in zip(v, block):
                    if x:
                        for r, y in entries:
                            img[r] = img[r] + x * y
                images.append(img)
        else:
            images = [col[off_p:off_p + dim_p] for col in all_cols]
        img_rows, img_pivots = linalg.rref(images, field) if images else ([], [])
        b_basis = img_rows[:len(img_pivots)]
        # representatives: the kernel vectors among the pivot columns of
        # [B | Z], i.e. each one not in the span of B and the earlier ones
        reps = []
        if kern:
            span = b_basis + kern
            _, pivots = linalg.echelon(
                [[v[r] for v in span] for r in range(dim_p)], field)
            reps = [cx.reconstruct(p, span[c]) for c in pivots
                    if c >= len(b_basis)]
        rows_out.append(DegreeRow(p, len(kern), len(b_basis),
                                  len(kern) - len(b_basis), reps))
    return CohomologyReport(window, rows_out, graded_exact, note)


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


def scalar_is_antisymmetric(f):
    """Graded antisymmetry under adjacent swaps, checked on all tuples."""
    return _antisymmetry_witness(f) is None


def _rotation_sign(par, t, i):
    """(-1)^{|t[:i]||t[i:]| + i n} for a tuple t of arity n + 1: the sign of
    the rotation t -> t[i:] + t[:i], which is its exterior reordering sign
    (Koszul sign times the sign of the cyclic permutation)."""
    pa = sum(par[x] for x in t[:i])
    pb = sum(par[x] for x in t[i:])
    return -1 if (pa * pb + i * (len(t) - 1)) & 1 else 1


def is_cyclic_scalar(f):
    """The rotation identity f(v_1..v_{n+1}) = (-1)^{n + |v_1|(|v_2|+..)}
    f(v_2..v_{n+1}, v_1) on every tuple (tensor-flavored scalar cochains)."""
    par = f.space.parities
    # checking the support suffices: there the identity makes the rotation
    # map the support into itself, hence onto it, so off the support both
    # sides are zero
    return all(f.value(t) == _rotation_sign(par, t, 1) * f.value(t[1:] + t[:1])
               for t in f.coeffs)


def is_cyclic_scalar_blockwise(f):
    """Block form of the same condition: f(a ox b) = (-1)^{|a||b| + i n}
    f(b ox a) for every splitting after i letters."""
    par = f.space.parities
    return all(f.value(t) == _rotation_sign(par, t, i) * f.value(t[i:] + t[:i])
               for t in itertools.product(range(f.space.dim), repeat=f.arity)
               for i in range(1, f.arity))


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
            acc = acc + _rotation_sign(space.parities, t, i) * rotated
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
            acc = acc + sign * _rotation_sign(space.parities, t, i) * term
        if acc:
            out[t] = acc
    parity = (f.parity + inner.parity) & 1
    return ScalarCochain(space, TENSOR, n + 1, parity, out)


def _unshuffle_sum(f, inner, extra_exp):
    """Exterior counterpart: sum over (l, k) unshuffles with the permutation
    and Koszul signs, producing an antisymmetric scalar cochain."""
    space = f.space
    l = inner.degree
    k = f.arity - 1
    n = k + l - 1
    par = space.parities
    out = {}
    for t in reachable(f.coeffs, inner):
        letter_par = [par[x] for x in t]
        acc = space.field(0)
        for sigma in unshuffles(l, n + 1 - l):
            s = reorder_sign(EXTERIOR, sigma, letter_par)
            head = tuple(t[sigma[i] - 1] for i in range(l))
            tail = tuple(t[sigma[i] - 1] for i in range(l, n + 1))
            vec = inner.value(head)
            if not vec:
                continue
            term = space.field(0)
            for bidx, c in vec.items():
                term = term + c * f.value((bidx,) + tail)
            if (extra_exp & 1):
                term = -term
            acc = acc + s * term
        if acc:
            out[t] = acc
    parity = (f.parity + inner.parity) & 1
    return ScalarCochain(space, EXTERIOR, n + 1, parity, out)


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
        c = field(_rotation_sign(par, t, i))
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

@dataclass
class DeformationClass:
    cocycle: bool
    coboundary: object  # True / False / None when undetermined
    preserves_ip: object = None
    note: str = ""


def classify_deformation(s, parts, ip=None):
    """Classify a first-order direction.

    cocycle: D(lambda) = 0.  coboundary: exact linear solve of
    D(beta) = lambda; without an inner product beta ranges over the full
    windowed complex, with one it ranges over the cyclic complex, matching
    the classification of deformations that preserve the form.
    """
    param = deformation_parameter_parity(parts)
    cocycle = deform_check(s, parts)
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
    sources = [(q, i) for q in range(max_deg + 1) for i in range(cx.dim(q))
               if cx.parity(q, i) == (param + q + 1) & 1]
    offset, total, cols = _assemble(cx, sources,
                                    range(max_deg + cx.spread + 1))
    rhs = [cx.field(0)] * total
    for k, coords in lam_coords.items():
        rhs[offset[k]:offset[k] + len(coords)] = coords
    matrix = [[col[r] for col in cols] for r in range(total)]
    return linalg.solve(matrix, rhs, cx.field) is not None
