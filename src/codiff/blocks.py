"""The blocks of the coboundary D, each built in one pass over the
structure's nonzero entries.

D is linear in the cochain, so its block on C^p is read off from the
entries of the parts m_l instead of one bracket per basis cochain.  D is
linear in m too, so the blocks are built from the complex's core parts,
whose entries are plain ints: N·m over Q, with N the lcm of the parts'
denominators, and residues over F_p.  Entry i of a block is N·D of the
i-th basis vector of degree p as sparse coordinates {degree: {row: int}},
what ``coboundary`` or ``cyclic_coboundary`` followed by the complex's
``coords`` give, scaled by N over Q and as residues in [0, p) over F_p.
Every sum runs over plain ints; over F_p each entry is reduced once, when
its block is finished.

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

from .coderivation import (bracket_signs, extend_letters, reachable, splits,
                           targets)
from .graded import TENSOR, canonical_word, rotation_signs, word_parity

OUTSIDE = "scalar cochain falls outside the cyclic space"


def _add(vec, key, x):
    cur = vec.get(key)
    vec[key] = x if cur is None else cur + x


def _reduced(vec, modulus):
    """The nonzero entries of a finished block vector, mod p over F_p
    (``modulus`` p; 0 over Q)."""
    if modulus:
        return {r: v for r, x in vec.items() if (v := x % modulus)}
    return {r: x for r, x in vec.items() if x}


def plain_block(s, parts, modulus, p, index):
    """The block of N·D on C^p over the delta basis, from the core parts
    ``parts`` of the structure s.  ``index(q)`` maps each canonical tuple t
    of degree q to the position of the delta at (t, 0); the delta at (t,
    j) sits j places after it."""
    space, flavor, par = s.space, s.flavor, s.space.parities
    cols = index(p)
    images = [{} for _ in range(space.dim * len(cols))]
    for l, m in parts.items():
        q = p + l - 1
        rows = index(q)
        out = [img.setdefault(q, {}) for img in images]
        signs = [bracket_signs(p, parity, l, m.parity, s.convention)
                 for parity in (0, 1)]
        # phi∘m: the delta at (mid, j) reads the extension of m on t, and
        # its sign in the bracket does not depend on the delta's parity
        for t in reachable(cols, m):
            for mid, c in extend_letters(m, t).items():
                x = c if signs[0][0] > 0 else -c
                for j in range(space.dim):
                    _add(out[cols[mid] + j], rows[t] + j, x)
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
        heads = dict.fromkeys(range(space.dim), cols)
        for t in targets(m.coeffs, heads, flavor, par):
            for split, head, pre, post in splits(flavor, t, p, par):
                hits = lands.get((pre, post))
                if not hits:
                    continue
                head_parity = word_parity(space, head)
                for j, (sign, vec) in hits.items():
                    parity = (par[j] + head_parity) & 1
                    x = split[parity] * sign * signs[parity][1]
                    col, row = out[cols[head] + j], rows[t]
                    for o, c in vec.items():
                        _add(col, row + o, c if x > 0 else -c)
    return [{q: v for q, vec in img.items() if (v := _reduced(vec, modulus))}
            for img in images]


def cyclic_block(s, parts, modulus, p, index):
    """The block of N·D on the degree-p cyclic cochains, from the core
    parts ``parts`` of the structure s.  ``index(q)`` maps each tuple of a
    degree-q basis orbit to (position, orbit sign, pivot)."""
    par = s.space.parities
    sources = index(p)
    values = [{} for _ in {i for i, _, _ in sources.values()}]
    for l, m in parts.items():
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
                        for i, e in enumerate(rotation_signs(par, u)):
                            _add(g, u[i:] + u[:i], x if e > 0 else -x)
        else:
            # every exterior orbit is its pivot alone
            cols = {t: out[i] for t, (i, _, _) in sources.items()}
            for t in reachable(cols, m):
                for mid, c in extend_letters(m, t).items():
                    _add(cols[mid], t, c if sign > 0 else -c)
    return [{q: v for q, g in img.items()
             if (v := orbit_coords(g, index(q), modulus))} for img in values]


def orbit_coords(values, index, modulus=0):
    """Coordinates {position: value at the pivot} of a scalar cochain, given
    by its values on a set of tuples closed under rotation.  Each value must
    equal its pivot's value times its orbit sign, and a tuple in no
    basis orbit must carry zero; otherwise the cochain is not cyclic.  With
    ``modulus`` p the values are ints read in F_p: the check compares
    residues, and the coordinates are residues in [0, p)."""
    coords = {}
    for t, x in values.items():
        hit = index.get(t)
        if hit is None:
            i, y, gap = None, 0, x
        else:
            i, sign, pivot = hit
            y = values.get(pivot, 0)
            gap = x - y if sign > 0 else x + y
        if modulus:
            gap, y = gap % modulus, y % modulus
        if gap:
            raise RuntimeError(OUTSIDE)
        if y:
            coords[i] = y
    return coords
