import itertools
import math
import os
from fractions import Fraction

import pytest

from codiff import GradedSpace
from codiff.cochain import (Cochain, InnerProduct, ScalarCochain, add,
                            canonical_tuples, tilde, untilde)
from codiff.coderivation import W_OF_V, bracket, family_bracket, \
    family_is_zero, modified_bracket
from codiff.graded import EXTERIOR, PRODUCT_FORM, TENSOR, word_parity
from codiff.homology import (InvarianceError, _CyclicComplex, _rotation_sum,
                             _antisymmetry_witness, classify_deformation,
                             coboundary, cohomology, cyclic_coboundary,
                             cyclic_cohomology, cyclic_scalar_basis, cyclicize,
                             is_cyclic, is_cyclic_scalar, structure_is_cyclic)
from codiff import linalg, oracle
from codiff.algfile import parse
from codiff.cli import build_structure
from codiff.fields import QQ, PrimeField
from codiff.structures import (A_INFINITY, L_INFINITY, InfinityStructure,
                               StructureError, validate)
from conftest import (make_cochain, random_cochain, scalar_cochains_match,
                      scalar_scale, sparse_rows)

F = Fraction
BENCH_INPUTS = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                            "inputs")


def bench_structure(name):
    """The structure of one of the benchmark's input files, over Q."""
    with open(os.path.join(BENCH_INPUTS, name), encoding="utf-8") as fh:
        af = parse(fh.read())
    return build_structure(af, W_OF_V, 8)


def random_cyclic_scalar(space, k, parity, rng, density=0.5):
    coeffs = {}
    for t in itertools.product(range(space.dim), repeat=k + 1):
        if word_parity(space, t) == parity and rng.random() < density:
            c = F(rng.randint(-2, 2))
            if c:
                coeffs[t] = c
    return cyclicize(ScalarCochain(space, TENSOR, k + 1, parity, coeffs))


class TestCoboundary:
    def test_dd_zero_random(self, dual_numbers, sl2, koszul_dga, rng):
        for s in (dual_numbers[0], sl2[0], koszul_dga):
            for trial in range(15):
                p = rng.randint(0, 3)
                phi = random_cochain(s.space, s.flavor, p, rng.randint(0, 1), rng)
                dd = family_bracket(coboundary(phi, s), s.parts,
                                    convention=s.convention)
                assert family_is_zero(dd)

    def test_flavor_mismatch(self, dual_numbers, sl2):
        s, _ = dual_numbers
        phi = random_cochain(sl2[0].space, EXTERIOR, 1, 0,
                             __import__("random").Random(0))
        with pytest.raises(ValueError):
            coboundary(phi, s)

    def test_ce_oracle_frozen_signs(self, sl2):
        # the coboundary agrees with the classical adjoint complex up to a
        # single overall sign per degree; on sl2 that sign is -1 throughout
        s, _ = sl2
        l2 = s.parts[2]
        for p in range(0, 4):
            for t in canonical_tuples(s.space, EXTERIOR, p):
                for j in range(3):
                    phi = Cochain(s.space, EXTERIOR, p, 0, {t: {j: F(1)}})
                    mine = coboundary(phi, s).get(p + 1)
                    orc = oracle.chevalley_eilenberg_coboundary(l2, phi)
                    if mine is None:
                        assert orc.is_zero()
                    else:
                        assert add(mine, orc).is_zero()  # mine == -oracle

    def test_bar_oracle_frozen_signs(self, dual_numbers, truncated_poly,
                                     triangular, theta_algebra):
        # same statement for the associative complexes: global sign -1
        for s in (dual_numbers[0], truncated_poly, triangular, theta_algebra):
            m2 = s.parts[2]
            for p in range(0, 4):
                for t in canonical_tuples(s.space, TENSOR, p):
                    tp = word_parity(s.space, t)
                    for j in range(s.space.dim):
                        parity = (s.space.parities[j] ^ tp) & 1
                        phi = Cochain(s.space, TENSOR, p, parity, {t: {j: F(1)}})
                        mine = coboundary(phi, s).get(p + 1)
                        orc = oracle.hochschild_coboundary(m2, phi)
                        if mine is None:
                            assert orc.is_zero()
                        else:
                            assert add(mine, orc).is_zero()


class TestCohomology:
    def test_sl2_adjoint_vanishes(self, sl2):
        report = cohomology(sl2[0], (0, 3))
        assert report.graded_exact
        assert [(r.degree, r.quotient) for r in report.rows] == \
            [(0, 0), (1, 0), (2, 0), (3, 0)]

    def test_abelian_one_dim(self, abelian1):
        report = cohomology(abelian1, (0, 3))
        rows = {r.degree: r for r in report.rows}
        assert rows[1].cocycles == 1 and rows[1].coboundaries == 0
        assert rows[1].quotient == 1
        assert rows[2].quotient == 0  # no exterior square of one even line

    def test_dual_numbers_match_oracle(self, dual_numbers):
        s, _ = dual_numbers
        report = cohomology(s, (1, 3))
        dims = hochschild_dims_oracle(s.parts[2], 3)
        for r in report.rows:
            assert r.quotient == dims[r.degree]

    def test_quotient_identity(self, sl2, dual_numbers):
        for s in (sl2[0], dual_numbers[0]):
            for row in cohomology(s, (0, 3)).rows:
                assert row.quotient == row.cocycles - row.coboundaries

    def test_mixed_arity_not_graded_exact(self, koszul_dga):
        report = cohomology(koszul_dga, (1, 2))
        assert not report.graded_exact
        assert report.note

    def test_representatives_are_cocycles(self, dual_numbers):
        s, _ = dual_numbers
        report = cohomology(s, (1, 2))
        for row in report.rows:
            assert len(row.representatives) == row.quotient
            for rep in row.representatives:
                assert family_is_zero(coboundary(rep, s))

    def test_representatives_frozen(self, dual_numbers):
        s, _ = dual_numbers
        want = [{("x",): {"x": 1}}, {("x", "x"): {"1": 1}},
                {("x", "x", "x"): {"x": 1}}]
        got = [[rep.coeffs for rep in row.representatives]
               for row in cohomology(s, (1, 3)).rows]
        assert got == [[make_cochain(s.space, TENSOR, k + 1, 0, w).coeffs]
                       for k, w in enumerate(want)]

    def test_exterior_representatives_frozen(self):
        # gl2, H = 1,1,0,1: the kernel vectors carry the signs of D, so a
        # sign slip that keeps every rank changes these picks
        s = bench_structure("gl2.alg")
        want = [[{(): {"e11": 1, "e22": 1}}],
                [{("e11",): {"e11": 1, "e22": 1},
                  ("e22",): {"e11": 1, "e22": 1}}],
                [],
                [{("e11", "e12", "e21"): {"e11": 1}}]]
        got = [[rep.coeffs for rep in row.representatives]
               for row in cohomology(s, (0, 3)).rows]
        assert got == [[make_cochain(s.space, EXTERIOR, p, 0, w).coeffs
                        for w in reps] for p, reps in enumerate(want)]

    @pytest.mark.parametrize("name, window, want", [
        ("koszul_dga", (0, 4), [1, 1, 2, 3, 6]),
        ("koszul_dga", (1, 2), [1, 2]),
        ("koszul_dga", (2, 3), [2, 3]),
        ("dual_numbers", (0, 4), [0, 0, 3, 4, 11]),
    ])
    def test_window_coboundaries_meet_degree_p(self, request, name, window,
                                               want):
        # B^p = im D ∩ C^p with D on every source of degree a - spread .. b,
        # ranked independently of the library's window machinery
        s = request.getfixturevalue(name)
        s = s[0] if isinstance(s, tuple) else s
        assert [r.coboundaries for r in cohomology(s, window).rows] == want
        assert window_coboundary_dims(s, window) == want

    def test_window_beyond_support_is_empty_not_error(self, abelian1):
        report = cohomology(abelian1, (5, 6))
        assert [(r.cocycles, r.coboundaries, r.quotient)
                for r in report.rows] == [(0, 0, 0), (0, 0, 0)]

    def test_basis_order_invariance(self, sl2):
        # permuting the basis does not change any reported dimension
        s, _ = sl2
        space = GradedSpace(("h", "e", "f"), (0, 0, 0))
        # [h,e] = 2e, [h,f] = -2f, [e,f] = h in the permuted order
        l2 = make_cochain(space, EXTERIOR, 2, 0, {
            ("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1}})
        s2 = InfinityStructure(L_INFINITY, space, {2: l2})
        a = [(r.cocycles, r.coboundaries, r.quotient)
             for r in cohomology(s, (0, 3)).rows]
        b = [(r.cocycles, r.coboundaries, r.quotient)
             for r in cohomology(s2, (0, 3)).rows]
        assert a == b


def window_coboundary_dims(s, window):
    """rank M - rank(M without the degree-p rows) for p in the window, where
    M holds D of every delta cochain of degree a - spread .. b."""
    a, b = window
    space, field = s.space, s.space.field
    low = max(0, a - (max(s.parts) - 1))

    def basis(p):
        return [(t, j) for t in canonical_tuples(space, s.flavor, p)
                for j in range(space.dim)]

    row_of = {}
    for q in range(low, b + max(s.parts)):
        for t, j in basis(q):
            row_of[(q, t, j)] = len(row_of)
    cols = []
    for p in range(low, b + 1):
        for t, j in basis(p):
            parity = (space.parities[j] ^ word_parity(space, t)) & 1
            col = [field(0)] * len(row_of)
            phi = Cochain(space, s.flavor, p, parity, {t: {j: F(1)}})
            for q, c in coboundary(phi, s).items():
                for u, vec in c.coeffs.items():
                    for k, x in vec.items():
                        col[row_of[(q, u, k)]] = x
            cols.append(col)
    m = [[col[r] for col in cols] for r in range(len(row_of))]
    full = oracle.dense_rank(m, field)
    return [full - oracle.dense_rank(
                [m[r] for (q, _, _), r in row_of.items() if q != p], field)
            for p in range(a, b + 1)]


def hochschild_dims_oracle(m2, upto):
    space = m2.space
    field = space.field

    def basis(p):
        return [(t, j) for t in canonical_tuples(space, TENSOR, p)
                for j in range(space.dim)]

    def matrix(p):
        src, tgt = basis(p), basis(p + 1)
        tgt_ix = {bj: r for r, bj in enumerate(tgt)}
        cols = []
        for (t, j) in src:
            tp = word_parity(space, t)
            phi = Cochain(space, TENSOR, p, (space.parities[j] ^ tp) & 1,
                          {t: {j: F(1)}})
            d = oracle.hochschild_coboundary(m2, phi)
            col = [field(0)] * len(tgt)
            for u, vec in d.coeffs.items():
                for b, c in vec.items():
                    col[tgt_ix[(u, b)]] = c
            cols.append(col)
        return [[cols[c][r] for c in range(len(src))]
                for r in range(len(tgt))] if src else []

    ranks = {p: oracle.dense_rank(matrix(p), field) for p in range(upto + 1)}
    return {p: len(basis(p)) - ranks[p] - (ranks[p - 1] if p else 0)
            for p in range(upto + 1)}


class TestCyclicity:
    def test_zero_cochain_cyclic(self, dual_numbers):
        s, ip = dual_numbers
        from codiff.cochain import zero_cochain
        assert is_cyclic(zero_cochain(s.space, TENSOR, 2, 0), ip)

    def test_sl2_killing_invariant(self, sl2):
        s, killing = sl2
        assert is_cyclic(s.parts[2], killing)
        ok, _ = structure_is_cyclic(s, killing)
        assert ok

    def test_killing_invariance_brute_force(self, sl2):
        # <[x,y],z> == <x,[y,z]> over all basis triples
        s, killing = sl2
        l2 = s.parts[2]
        for x, y, z in itertools.product(range(3), repeat=3):
            lhs = killing.pair(l2.value((x, y)), z)
            rhs = killing.pair({x: F(1)}, l2.value((y, z)))
            assert lhs == rhs

    def test_dual_numbers_cyclic(self, dual_numbers):
        s, ip = dual_numbers
        assert is_cyclic(s.parts[2], ip)

    def test_non_invariant_ip_detected(self, sl2):
        s, _ = sl2
        bad = InnerProduct(s.space, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        ok, witness = structure_is_cyclic(s, bad)
        assert not ok and witness[0] == 2
        with pytest.raises(InvarianceError):
            cyclic_cohomology(s, bad, (0, 1))


class TestCyclicize:
    def test_already_cyclic_scales(self, rng):
        # a cyclic cochain of arity n+1 comes back n+1 times itself
        space = GradedSpace(("a", "b"), (0, 1))
        for k in range(0, 3):
            f = random_cyclic_scalar(space, k, rng.randint(0, 1), rng)
            again = cyclicize(f)
            want = scalar_scale(F(k + 1), f)
            assert again.coeffs == want.coeffs

    def test_zero(self):
        space = GradedSpace(("a",), (0,))
        f = ScalarCochain(space, TENSOR, 2, 0, {})
        assert cyclicize(f).is_zero()

    def test_two_argument_even_case(self):
        # C(f)(v1,v2) = f(v1,v2) - f(v2,v1) on an even space
        space = GradedSpace(("a", "b"), (0, 0))
        f = ScalarCochain(space, TENSOR, 2, 0, {(0, 1): F(1)})
        cf = cyclicize(f)
        assert cf.value((0, 1)) == 1 and cf.value((1, 0)) == -1

    def test_output_always_cyclic(self, rng):
        space = GradedSpace(("a", "b"), (0, 1))
        for k in range(0, 3):
            for trial in range(6):
                coeffs = {}
                parity = rng.randint(0, 1)
                for t in itertools.product(range(2), repeat=k + 1):
                    if word_parity(space, t) == parity and rng.random() < .5:
                        c = F(rng.randint(-2, 2))
                        if c:
                            coeffs[t] = c
                f = ScalarCochain(space, TENSOR, k + 1, parity, coeffs)
                assert is_cyclic_scalar(cyclicize(f))

    def test_pointwise_equals_blockwise(self):
        space = GradedSpace(("a", "b"), (0, 1))
        for arity in range(2, 5):
            tuples = list(itertools.product(range(2), repeat=arity))
            ix = {t: i for i, t in enumerate(tuples)}
            n = arity - 1
            rows_point, rows_block = [], []
            for t in tuples:
                row = [F(0)] * len(tuples)
                row[ix[t]] += F(1)
                e = n + space.parities[t[0]] * sum(space.parities[i]
                                                   for i in t[1:])
                row[ix[t[1:] + t[:1]]] -= F(-1) ** (e & 1)
                rows_point.append(row)
                for i in range(1, arity):
                    alpha, beta = t[:i], t[i:]
                    pa = sum(space.parities[x] for x in alpha)
                    pb = sum(space.parities[x] for x in beta)
                    row = [F(0)] * len(tuples)
                    row[ix[t]] += F(1)
                    row[ix[beta + alpha]] -= F(-1) ** ((pa * pb + i * n) & 1)
                    rows_block.append(row)
            kp = linalg.kernel_basis(sparse_rows(rows_point),
                                     len(tuples), QQ)
            kb = linalg.kernel_basis(sparse_rows(rows_block),
                                     len(tuples), QQ)
            assert len(kp) == len(kb)
            assert all(linalg.in_span(kp, v, QQ) for v in kb)
            assert all(linalg.in_span(kb, v, QQ) for v in kp)


def rotation_kernel_dim(space, arity):
    """dim ker(1 - t) on the scalar cochains of this arity, with t the signed
    one-step rotation, by a dense rank over the space's field."""
    field = space.field
    tuples = list(itertools.product(range(space.dim), repeat=arity))
    ix = {t: i for i, t in enumerate(tuples)}
    rows = []
    for t in tuples:
        e = arity - 1 + space.parities[t[0]] * sum(space.parities[x]
                                                   for x in t[1:])
        row = [field(0)] * len(tuples)
        row[ix[t]] = row[ix[t]] + 1
        row[ix[t[1:] + t[:1]]] = row[ix[t[1:] + t[:1]]] - (-1) ** (e & 1)
        rows.append(row)
    return len(tuples) - oracle.dense_rank(rows, field)


def averaged_basis(space, arity):
    """The span of the rotation averages of all delta cochains in reduced
    echelon form, as ([coefficient dicts], [pivot tuples])."""
    tuples = list(itertools.product(range(space.dim), repeat=arity))
    rows = []
    for t in tuples:
        delta = ScalarCochain(space, TENSOR, arity, word_parity(space, t),
                              {t: space.field(1)})
        rows.append([cyclicize(delta).value(u) for u in tuples])
    red, pivots = linalg.rref(sparse_rows(rows), space.field)
    return ([{tuples[j]: x for j, x in row.items()} for row in red],
            [tuples[c] for c in pivots])


F2, F3, F5 = PrimeField(2), PrimeField(3), PrimeField(5)
EVEN4 = (0, 0, 0, 0)


class TestCyclicSpaceAtSmallPrimes:
    """The tensor cyclic basis spans ker(1 - t) at every characteristic,
    including p <= arity where rotation averaging spans less."""

    @pytest.mark.parametrize("field,parities,arity", [
        (QQ, EVEN4, 3), (QQ, (0, 1), 4), (QQ, (0, 1, 1), 3),
        (F2, EVEN4, 2), (F2, (0, 1), 2), (F2, (0, 1), 4), (F2, (0, 1, 1), 2),
        (F3, EVEN4, 3), (F3, (0, 1), 3), (F3, (0, 1), 6), (F3, (0, 1, 1), 3),
        (F5, (0, 1), 5),
    ])
    def test_basis_spans_rotation_kernel(self, field, parities, arity):
        space = GradedSpace(tuple("abcd"[:len(parities)]), parities, field)
        basis, pivots = cyclic_scalar_basis(space, TENSOR, arity - 1)
        assert len(basis) == rotation_kernel_dim(space, arity)
        assert all(is_cyclic_scalar(b) for b in basis)
        assert all(b.coeffs[t] == 1 for b, t in zip(basis, pivots))

    def test_m2_space_dimensions(self):
        # the 4-dimensional even space of M2: 24 cyclic cochains of arity 3
        # over F_3 and 10 of arity 2 over F_2
        for field, degree, want in ((F3, 2, 24), (F2, 1, 10)):
            space = GradedSpace(("a", "b", "c", "d"), EVEN4, field)
            assert len(cyclic_scalar_basis(space, TENSOR, degree)[0]) == want

    def test_averaging_misses_cyclic_cochains(self):
        # rotation averages of deltas span less than ker(1 - t) when p
        # divides the arity: 6 of 10 over F_2 in arity 2, 2 of 4 over F_3
        # in arity 3 (the constant-letter orbits average to 3 delta = 0)
        for field, dim, arity, averaged, cyclic in ((F2, 4, 2, 6, 10),
                                                    (F3, 2, 3, 2, 4)):
            space = GradedSpace(tuple("abcd"[:dim]), (0,) * dim, field)
            assert len(averaged_basis(space, arity)[1]) == averaged
            assert len(cyclic_scalar_basis(space, TENSOR, arity - 1)[0]) == \
                cyclic

    @pytest.mark.parametrize("parities,arity", [
        (EVEN4, 1), (EVEN4, 2), ((0, 1), 4), ((0, 1, 1), 3),
    ])
    def test_equals_averaged_basis_over_q(self, parities, arity):
        space = GradedSpace(tuple("abcd"[:len(parities)]), parities)
        basis, pivots = cyclic_scalar_basis(space, TENSOR, arity - 1)
        assert ([b.coeffs for b in basis], pivots) == \
            averaged_basis(space, arity)


class TestCyclicBracketClosure:
    def test_bracket_of_cyclic_is_cyclic(self, dual_numbers, rng):
        s, ip = dual_numbers
        done = 0
        for trial in range(20):
            k, l = rng.randint(1, 3), rng.randint(1, 3)
            phi = untilde(random_cyclic_scalar(s.space, k, 0, rng), ip)
            psi = untilde(random_cyclic_scalar(s.space, l, 0, rng), ip)
            if phi.is_zero() or psi.is_zero():
                continue
            assert is_cyclic(bracket(phi, psi, PRODUCT_FORM), ip)
            assert is_cyclic(modified_bracket(phi, psi, W_OF_V), ip)
            done += 1
        assert done >= 10

    def test_rotation_sum_formula(self, dual_numbers, rng):
        # the scalar form of the plain bracket of cyclic cochains equals the
        # rotation sum with no extra sign
        s, ip = dual_numbers
        for trial in range(10):
            k, l = rng.randint(1, 2), rng.randint(1, 2)
            phi = untilde(random_cyclic_scalar(s.space, k, 0, rng), ip)
            psi = untilde(random_cyclic_scalar(s.space, l, 0, rng), ip)
            if phi.is_zero() or psi.is_zero():
                continue
            lhs = tilde(bracket(phi, psi, PRODUCT_FORM), ip)
            rhs = _rotation_sum(tilde(phi, ip), psi, 0)
            assert scalar_cochains_match(lhs, rhs)


class TestCyclicCoboundary:
    def test_requires_cyclic_input(self, dual_numbers):
        s, _ = dual_numbers
        f = ScalarCochain(s.space, TENSOR, 2, 0, {(0, 1): F(1)})
        assert not is_cyclic_scalar(f)
        with pytest.raises(ValueError):
            cyclic_coboundary(f, s)
        with pytest.raises(RuntimeError,
                           match="falls outside the cyclic space"):
            _CyclicComplex(s).coords(1, f)

    def test_coords_read_the_pivots_sparsely(self, dual_numbers):
        s, _ = dual_numbers
        cx = _CyclicComplex(s)
        basis, _ = cyclic_scalar_basis(s.space, TENSOR, 2)
        for i, b in enumerate(basis):
            assert cx.coords(2, b) == {i: 1}
        last = len(basis) - 1
        f = ScalarCochain(s.space, TENSOR, 3, 0, {
            **scalar_scale(F(2), basis[0]).coeffs,
            **scalar_scale(F(-3), basis[last]).coeffs})
        coords = cx.coords(2, f)
        assert coords == {0: F(2), last: F(-3)}
        assert all(type(x) is Fraction for x in coords.values())
        assert cx.reconstruct(2, coords).coeffs == f.coeffs

    def test_exterior_input_must_be_alternating(self):
        # over F_2 antisymmetry does not force f(a,a) = 0 for an even a, so
        # this form has no exterior counterpart and both routes refuse it
        f2 = PrimeField(2)
        space = GradedSpace(("a", "b"), (0, 0), f2)
        s = InfinityStructure(L_INFINITY, space, {})
        f = ScalarCochain(space, TENSOR, 2, 0, {(0, 0): f2(1)})
        assert _antisymmetry_witness(f) is None
        with pytest.raises(ValueError):
            cyclic_coboundary(f, s)
        with pytest.raises(RuntimeError):
            _CyclicComplex(s).coords(1, f)

    def test_dd_zero(self, dual_numbers, sl2, rng):
        for(s, ip), flavor in ((dual_numbers, TENSOR), (sl2, EXTERIOR)):
            for trial in range(8):
                k = rng.randint(1, 3)
                if flavor == TENSOR:
                    f = random_cyclic_scalar(s.space, k, 0, rng)
                else:
                    coeffs = {}
                    for t in canonical_tuples(s.space, EXTERIOR, k + 1):
                        c = F(rng.randint(-2, 2))
                        if c:
                            coeffs[t] = c
                    f = ScalarCochain(s.space, EXTERIOR, k + 1, 0, coeffs)
                if f.is_zero():
                    continue
                fam = cyclic_coboundary(f, s)
                for g in fam.values():
                    fam2 = cyclic_coboundary(g, s)
                    assert all(h.is_zero() for h in fam2.values())

    def test_zero_structure_gives_zero(self, abelian2, rng):
        s, _ = abelian2
        coeffs = {}
        for t in canonical_tuples(s.space, EXTERIOR, 2):
            coeffs[t] = F(1)
        f = ScalarCochain(s.space, EXTERIOR, 2, 0, coeffs)
        assert cyclic_coboundary(f, s) == {}

    def test_invariant_route_agreement(self, dual_numbers, sl2, rng):
        # with an invariant form, the cyclic coboundary is the scalar form of
        # the modified bracket with the structure
        for (s, ip), flavor in ((dual_numbers, TENSOR), (sl2, EXTERIOR)):
            for trial in range(8):
                k = rng.randint(1, 3)
                if flavor == TENSOR:
                    f = random_cyclic_scalar(s.space, k, 0, rng)
                    phi = untilde(f, ip)
                else:
                    coeffs = {}
                    for t in canonical_tuples(s.space, EXTERIOR, k + 1):
                        c = F(rng.randint(-2, 2))
                        if c:
                            coeffs[t] = c
                    f = ScalarCochain(s.space, EXTERIOR, k + 1, 0, coeffs)
                    phi = untilde(f, ip, EXTERIOR)
                if f.is_zero():
                    continue
                fam = cyclic_coboundary(f, s)
                for l, part in s.parts.items():
                    mine = fam.get(k + l - 1)
                    via = tilde(modified_bracket(phi, part, s.convention), ip)
                    if mine is None:
                        assert via.is_zero()
                    else:
                        assert scalar_cochains_match(mine, via)


class TestCyclicCohomology:
    def test_sl2_killing(self, sl2):
        s, killing = sl2
        report = cyclic_cohomology(s, killing, (0, 3))
        assert [(r.degree, r.quotient) for r in report.rows] == \
            [(0, 0), (1, 0), (2, 1), (3, 0)]

    def test_matches_trivial_coefficients(self, sl2, nonabelian2, abelian2):
        for s, l2 in ((sl2[0], sl2[0].parts[2]),
                      (nonabelian2, nonabelian2.parts[2])):
            report = cyclic_cohomology(s, None, (0, 3))
            dims = oracle.lie_trivial_cohomology_dims(l2, 4)
            for r in report.rows:
                assert r.quotient == dims[r.degree + 1]
        # abelian: zero differential, HC^k has the full exterior dimension
        s, ip = abelian2
        report = cyclic_cohomology(s, ip, (0, 3))
        for r in report.rows:
            assert r.quotient == math.comb(2, r.degree + 1)

    def test_zero_structure_counts_cyclic_subspace(self, dual_numbers):
        s0 = InfinityStructure(A_INFINITY, dual_numbers[0].space, {})
        report = cyclic_cohomology(s0, dual_numbers[1], (0, 3))
        for r in report.rows:
            basis, _ = cyclic_scalar_basis(s0.space, TENSOR, r.degree)
            assert r.quotient == r.cocycles == len(basis)
            assert r.coboundaries == 0

    def test_form_free_mode_for_tensor_structures(self, dual_numbers):
        # the scalar complex never reads the form, so the dimensions agree
        # whether or not one is supplied
        s, ip = dual_numbers
        with_ip = cyclic_cohomology(s, ip, (0, 2))
        without = cyclic_cohomology(s, None, (0, 2))
        assert [(r.cocycles, r.coboundaries, r.quotient)
                for r in with_ip.rows] == \
            [(r.cocycles, r.coboundaries, r.quotient) for r in without.rows]

    def test_representatives_frozen(self):
        # M2, HC = 1,0,1: the classes of tr(x) and of tr(xyz)
        s = bench_structure("m2.alg")
        orbit3 = [("e11", "e11", "e11"), ("e11", "e12", "e21"),
                  ("e12", "e21", "e11"), ("e12", "e22", "e21"),
                  ("e21", "e11", "e12"), ("e21", "e12", "e22"),
                  ("e22", "e21", "e12"), ("e22", "e22", "e22")]
        want = [[{("e11",): 1, ("e22",): 1}], [], [dict.fromkeys(orbit3, 1)]]
        got = [[rep.coeffs for rep in row.representatives]
               for row in cyclic_cohomology(s, None, (0, 2)).rows]
        assert got == [[{tuple(s.space.index(n) for n in t): c
                         for t, c in w.items()} for w in reps]
                       for reps in want]


class TestClassifyDeformation:
    def test_coboundary_direction(self, sl2, rng):
        s, _ = sl2
        for trial in range(5):
            beta = random_cochain(s.space, s.flavor, rng.randint(1, 2), 0, rng)
            lam = coboundary(beta, s)
            if not lam:
                continue
            cls = classify_deformation(s, lam)
            assert cls.cocycle and cls.coboundary is True

    def test_sl2_bracket_with_killing(self, sl2):
        # the bracket deformation is a cocycle and preserves the form, but
        # its class in the cyclic complex is the nonzero Cartan class
        s, killing = sl2
        cls = classify_deformation(s, {2: s.parts[2]}, killing)
        assert cls.cocycle is True
        assert cls.coboundary is False
        assert cls.preserves_ip is True

    def test_sl2_bracket_without_ip_is_rigid(self, sl2):
        # semisimple rigidity: without the form, l itself is D(-identity)
        s, _ = sl2
        cls = classify_deformation(s, {2: s.parts[2]})
        assert cls.cocycle is True and cls.coboundary is True

    def test_abelian_direction_not_coboundary(self, abelian2, rng):
        s, _ = abelian2
        lam = random_cochain(s.space, EXTERIOR, 2, 0, rng, density=1.0)
        cls = classify_deformation(s, {2: lam})
        assert cls.cocycle is True and cls.coboundary is False

    def test_undetermined_beyond_cap(self, sl2, rng):
        s, _ = sl2
        small = InfinityStructure(s.kind, s.space, s.parts, s.convention,
                                  max_arity=2)
        lam = random_cochain(s.space, s.flavor, 3, 0, rng, density=1.0)
        assert not lam.is_zero()
        cls = classify_deformation(small, {3: lam}, None)
        assert cls.coboundary is None
        assert "truncation" in cls.note

    def test_non_cyclic_direction_with_ip(self, sl2, rng):
        s, killing = sl2
        # an identity-like direction is not cyclic for the Killing form
        ident = make_cochain(s.space, EXTERIOR, 1, 1, {})
        lam = None
        for trial in range(20):
            cand = random_cochain(s.space, s.flavor, 2, 0, rng)
            if not cand.is_zero() and not is_cyclic(cand, killing):
                lam = cand
                break
        assert lam is not None
        cls = classify_deformation(s, {2: lam}, killing)
        assert cls.preserves_ip is False and cls.coboundary is False
