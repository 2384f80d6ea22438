"""Invariants of the full exterior complex of a Lie algebra, over Q and
F_32003, on gl2, sl2 and sl2+sl2 (all even letters, unimodular, with an
invariant form).

- Euler characteristic: sum (-1)^p dim C^p = sum (-1)^p H^p, for the
  adjoint complex (``cohomology``, C^p = Λ^p V* ⊗ V) and the cyclic one
  (``cyclic``, C^p = Λ^{p+1} V*), each over its whole window 0..dim.
- Poincaré duality: H^p = H^{dim-p} for the adjoint complex (the form
  identifies the adjoint and coadjoint modules).  The cyclic complex is the
  trivial-coefficient complex shifted by one, HC^p = H^{p+1}(g; k), so
  there duality reads HC^p = HC^{dim-2-p}, and HC^{dim-1} = H^dim = 1.
"""

import os
import re
from math import comb

import pytest

from codiff.algfile import parse
from codiff.cli import build_structure
from codiff.coderivation import W_OF_V
from codiff.homology import cohomology, cyclic_cohomology

HERE = os.path.dirname(__file__)
INPUTS = {
    "gl2": os.path.join(HERE, os.pardir, "bench", "inputs", "gl2.alg"),
    "sl2": os.path.join(HERE, "fixtures", "sl2.alg"),
    "sl2_sl2": os.path.join(HERE, os.pardir, "bench", "inputs",
                            "sl2_sl2.alg"),
}
FIELDS = ["Q", "F 32003"]


def load(name, field):
    with open(INPUTS[name], encoding="utf-8") as fh:
        af = parse(re.sub(r"^field Q$", "field " + field, fh.read(),
                          flags=re.M))
    assert not any(af.space.parities)
    return af, build_structure(af, W_OF_V, 8)


def alternating_sum(values):
    return sum((-1) ** p * x for p, x in enumerate(values))


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_adjoint_complex(name, field):
    _, s = load(name, field)
    n = s.space.dim
    h = [row.quotient for row in cohomology(s, (0, n)).rows]
    assert alternating_sum(h) == alternating_sum(comb(n, p) * n
                                                 for p in range(n + 1))
    assert h == h[::-1]
    if name == "gl2":
        assert h == [1, 1, 0, 1, 1]


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_cyclic_complex(name, field):
    af, s = load(name, field)
    n = s.space.dim
    hc = [row.quotient
          for row in cyclic_cohomology(s, af.inner_product, (0, n)).rows]
    assert alternating_sum(hc) == alternating_sum(comb(n, p + 1)
                                                  for p in range(n + 1))
    assert hc[:n - 1] == hc[n - 2::-1]
    assert hc[n - 1:] == [1, 0]
