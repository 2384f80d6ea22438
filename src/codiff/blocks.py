"""The blocks of the coboundary D, each built in one pass over the
structure's nonzero entries.

D is linear in the cochain and in m, so its block on C^p is read off from
the entries of the complex's core parts, whose entries are plain ints: N·m
over Q, with N the lcm of the parts' denominators, and residues over F_p.
Entry i of a block is N·D of the i-th basis vector of degree p as sparse
coordinates {degree: {row: int}}, what ``coboundary`` or
``cyclic_coboundary`` followed by the complex's ``coords`` give, scaled by N
over Q and as residues in [0, p) over F_p.  Every sum runs over plain ints;
over F_p each entry is reduced once, when its block is finished.

Plain complex, on the delta cochains (t, j): D(phi) = {phi, m} is a signed
sum of phi∘m and m∘phi, with the signs of ``coderivation.bracket_signs``.
The k-th tensor tuple of degree n is the base-dim numeral k, so the tensor
block places every term by integer strides, from the words of m alone; the
exterior block reads the extension terms of ``coderivation.terms``.

Cyclic complex: the tensor rotation sum pairs each entry of m with the basis
tuples that start with its output letter and spreads the product over every
rotation; the exterior unshuffle sum reads the extension terms of m landing
on the basis tuples.  Each column is then read at the pivots, with the
membership check of ``orbit_coords``.
"""

from __future__ import annotations

from .coderivation import bracket_signs, heads_of, terms
from .graded import TENSOR, rotation_signs, word_parity

OUTSIDE = "scalar cochain falls outside the cyclic space"


def _add(vec, key, x):
    cur = vec.get(key)
    vec[key] = x if cur is None else cur + x


def _finished(images, modulus):
    """The images with their nonzero entries only, mod ``modulus`` if set."""
    def reduced(vec):
        if modulus:
            return {r: v for r, x in vec.items() if (v := x % modulus)}
        return {r: x for r, x in vec.items() if x}
    return [{q: v for q, vec in img.items() if (v := reduced(vec))}
            for img in images]


def plain_block(s, parts, modulus, p, index):
    """The block of N·D on C^p over the delta basis, from the core parts
    ``parts`` of the structure s.  ``index(q)`` maps each canonical tuple t
    of degree q to the position of the delta at (t, 0); the delta at (t,
    j) sits j places after it.  The tensor block reads no index."""
    if s.flavor == TENSOR:
        return _finished(_tensor_images(s, parts, p), modulus)
    space, flavor, par = s.space, s.flavor, s.space.parities
    cols = index(p)
    images = [{} for _ in range(space.dim * len(cols))]
    # the deltas as cochains to extend: the delta at (h, j) reads the head
    # h and has the value letter j
    every = dict.fromkeys(range(space.dim), cols)
    head_parity = {h: word_parity(space, h) for h in cols}
    for l, m in parts.items():
        q = p + l - 1
        rows = index(q)
        out = [img.setdefault(q, {}) for img in images]
        signs = [bracket_signs(p, parity, l, m.parity) for parity in (0, 1)]
        # phi∘m: the delta at (w, j) reads the extension of m on t, and
        # its sign in the bracket does not depend on the delta's parity
        for t, w, b, h, split in terms(cols, heads_of(m), flavor, par):
            x = split[m.parity] * signs[0][0] * m.coeffs[h][b]
            col, row = cols[w], rows[t]
            for j in range(space.dim):
                _add(out[col + j], row + j, x)
        # m∘phi: the delta at (h, b), extended on t, lands on the source
        # word w of m
        for t, w, b, h, split in terms(m.coeffs, every, flavor, par):
            parity = (par[b] + head_parity[h]) & 1
            x = split[parity] * signs[parity][1]
            col, row = out[cols[h] + b], rows[t]
            for o, c in m.coeffs[w].items():
                _add(col, row + o, x * c)
    return _finished(images, modulus)


def _tensor_images(s, parts, p):
    """The tensor block by integer strides: the word of numeral k sits at
    dim·k, and its letter after i of n letters weighs dim^(n-1-i)."""
    dim, par = s.space.dim, s.space.parities
    parity = [[0]]  # parity[n][k]: that of the word of degree n, numeral k
    for _ in range(p):
        parity.append([(e + par[x]) & 1 for e in parity[-1]
                       for x in range(dim)])
    images = [{} for _ in range(dim ** (p + 1))]
    for l, m in parts.items():
        q = p + l - 1
        signs = [bracket_signs(p, e, l, m.parity) for e in (0, 1)]
        num = {w: sum(x * dim ** (l - 1 - i) for i, x in enumerate(w))
               for w in m.coeffs}
        # phi∘m: the delta at (P·b·S, 0) reads h on P·h·S; the columns of
        # the other values j copy its column with every row moved by j
        first = [images[dim * k].setdefault(q, {}) for k in range(dim ** p)]
        for i in range(p):
            low = dim ** (p - 1 - i)
            even = -signs[0][0] if i * (l - 1) & 1 else signs[0][0]
            for h, vec in m.coeffs.items():
                for b, c in vec.items():
                    for P, pre in enumerate(parity[i]):
                        y = -even * c if pre & m.parity else even * c
                        a, top = (P * dim + b) * low, P * dim ** l + num[h]
                        for col, r in zip(first[a:a + low], range(
                                dim * top * low, dim * (top + 1) * low, dim)):
                            col[r] = col.get(r, 0) + y
        for k, vec in enumerate(first):
            for j in range(1, dim):
                images[dim * k + j][q] = {r + j: x for r, x in vec.items()}
        # m∘phi: the delta at (h, b), h of numeral k, lands on P·h·S for
        # each word P·b·S of m; values[e] is m(w) signed for a head of
        # parity e, by i, the parity of P and the delta's, d = par[b] + e
        out = [img[q] for img in images]
        for w, vec in m.coeffs.items():
            plus, pre, n = list(vec.items()), 0, num[w]
            minus = [(o, -c) for o, c in plus]
            for i, b in enumerate(w):
                low = dim ** (l - 1 - i)
                values = [plus if (signs[d][1] < 0) == ((i * (p - 1) + d * pre)
                                                        & 1) else minus
                          for d in (par[b], 1 - par[b])]
                pre += par[b]
                base = dim * (n // (dim * low) * dim ** (q - i) + n % low)
                for col, r, e in zip(out[b::dim], range(
                        base, base + low * dim ** (p + 1), dim * low),
                        parity[p]):
                    for o, y in values[e]:
                        col[r + o] = col.get(r + o, 0) + y
    return images


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
            for t, w, b, h, split in terms(cols, heads_of(m), s.flavor, par):
                _add(cols[w], t, split[m.parity] * sign * m.coeffs[h][b])
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
