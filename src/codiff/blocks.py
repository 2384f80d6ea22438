"""The blocks of the coboundary D, each built in one pass over the
structure's nonzero entries.

D is linear in the cochain, so its block on C^p is read off from the
entries of the parts m_l instead of one bracket per basis cochain.  Entry i
of a block is D of the i-th basis vector of degree p as sparse coordinates
{degree: {row: scalar}}, the same that ``coboundary`` or
``cyclic_coboundary`` followed by the complex's ``coords`` give.

Plain complex, on the delta cochains (t, j): D(phi) = {phi, m} is a signed
sum of phi∘m and m∘phi, with the signs of ``coderivation.bracket_signs``.
phi∘m is read from one extension of m per reachable target; m∘phi from the
splits of each target in which the delta's value lands on a source word of
m, with the extension signs of ``coderivation.splits``.

Cyclic complex: the tensor rotation sum pairs each entry of m with the basis
tuples that start with its output letter and spreads the product over every
rotation; the exterior unshuffle sum reads one extension of m per reachable
canonical target.  Each column is then read at the pivots, with the
membership check of ``orbit_coords``.
"""

from __future__ import annotations

from .cochain import canonical_tuples
from .coderivation import (bracket_signs, extend_letters, reachable, splits,
                           targets)
from .graded import PRODUCT_FORM, TENSOR, canonical_word, rotation_sign

OUTSIDE = "scalar cochain falls outside the cyclic space"


def _add(vec, key, x):
    cur = vec.get(key)
    vec[key] = x if cur is None else cur + x


def plain_block(s, p, index):
    """The block of D on C^p over the delta basis.  ``index(q)`` maps
    (canonical tuple, output letter) to its basis position in degree q."""
    space, flavor, par = s.space, s.flavor, s.space.parities
    cols = index(p)
    images = [{} for _ in cols]
    sources = canonical_tuples(space, flavor, p)
    for l, m in s.parts.items():
        q = p + l - 1
        rows = index(q)
        out = [img.setdefault(q, {}) for img in images]
        signs = [bracket_signs(p, parity, l, m.parity, s.convention)
                 for parity in (0, 1)]
        # phi∘m: the delta at (mid, j) reads the extension of m on t, and
        # its sign in the bracket does not depend on the delta's parity
        for t in reachable(sources, m):
            for mid, c in extend_letters(m, t, PRODUCT_FORM).items():
                x = c if signs[0][0] > 0 else -c
                for j in range(space.dim):
                    _add(out[cols[mid, j]], rows[t, j], x)
        # m∘phi: the source words of m with letter j at a split, keyed by
        # the split's (prefix, suffix), with the sign that puts j back
        lands = {}
        for w, vec in m.coeffs.items():
            for i in range(l):
                pre, post = w[:i], w[i + 1:]
                sign = 1
                if flavor != TENSOR:
                    pre, post = (), pre + post
                    sign = canonical_word(flavor, (w[i],) + post, par)[0]
                lands.setdefault((pre, post), {}).setdefault(w[i], (sign, vec))
        heads = dict.fromkeys(range(space.dim), sources)
        for t in targets(m.coeffs, heads, flavor, par):
            for split, head, pre, post in splits(flavor, t, p, PRODUCT_FORM,
                                                 par):
                hits = lands.get((pre, post))
                cw = canonical_word(flavor, head, par) if hits else None
                if cw is None:
                    continue
                head_parity = sum(par[x] for x in cw[1])
                for j, (sign, vec) in hits.items():
                    parity = (par[j] + head_parity) & 1
                    x = split[parity] * cw[0] * sign * signs[parity][1]
                    col = out[cols[cw[1], j]]
                    for o, c in vec.items():
                        _add(col, rows[t, o], c if x > 0 else -c)
    return [{q: v for q, vec in img.items()
             if (v := {r: x for r, x in vec.items() if x})} for img in images]


def cyclic_block(s, p, index):
    """The block of D on the degree-p cyclic cochains.  ``index(q)`` maps
    each tuple of a degree-q basis orbit to (position, orbit sign, pivot)."""
    par = s.space.parities
    sources = index(p)
    values = [{} for _ in {i for i, _, _ in sources.values()}]
    for l, m in s.parts.items():
        q = p + l - 1
        sign = -1 if (p - 1) * l & 1 else 1
        out = [v.setdefault(q, {}) for v in values]
        if s.flavor == TENSOR:
            first = {}
            for v, (i, orbit_sign, _) in sources.items():
                first.setdefault(v[0], []).append((v[1:], out[i],
                                                   sign * orbit_sign))
            for h, vec in m.coeffs.items():
                for b, c in vec.items():
                    for w, g, e in first.get(b, ()):
                        u, x = h + w, (c if e > 0 else -c)
                        # the sum at t = u[i:] + u[:i] reads u, the
                        # rotation of t by len(u) - i, whose sign is that
                        # of the rotation of u by i
                        for i in range(len(u)):
                            _add(g, u[i:] + u[:i],
                                 x if rotation_sign(par, u, i) > 0 else -x)
        else:
            # every exterior orbit is its pivot alone
            cols = {t: out[i] for t, (i, _, _) in sources.items()}
            for t in reachable(cols, m):
                for mid, c in extend_letters(m, t, PRODUCT_FORM).items():
                    _add(cols[mid], t, c if sign > 0 else -c)
    return [{q: v for q, g in img.items() if (v := orbit_coords(g, index(q)))}
            for img in values]


def orbit_coords(values, index):
    """Coordinates {position: value at the pivot} of a scalar cochain, given
    by its values on a set of tuples closed under rotation.  Each value must
    equal its pivot's value times its orbit sign, and a tuple in no
    basis orbit must carry zero; otherwise the cochain is not cyclic."""
    coords = {}
    for t, x in values.items():
        hit = index.get(t)
        if hit is None:
            if x:
                raise RuntimeError(OUTSIDE)
            continue
        i, sign, pivot = hit
        y = values.get(pivot, 0)
        if x != (y if sign > 0 else -y):
            raise RuntimeError(OUTSIDE)
        if y:
            coords[i] = y
    return coords
