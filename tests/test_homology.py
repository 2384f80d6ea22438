import itertools
import math
import os
import re
from fractions import Fraction

import pytest

from codiff import GradedSpace
from codiff.cochain import (Cochain, InnerProduct, ScalarCochain, add,
                            canonical_tuples, tilde, untilde)
from codiff.coderivation import V_OF_W, W_OF_V, family_bracket, \
    family_is_zero, modified_bracket
from codiff.graded import EXTERIOR, TENSOR, rotation_signs, word_parity
from codiff.homology import (MAX_INDEX, InvarianceError, WindowTooLarge,
                             _CyclicComplex, _PlainComplex, _check_window,
                             _rotation_sum, _rotation_witness,
                             _signed_orbits, _antisymmetry_witness,
                             classify_deformation, coboundary, cohomology,
                             cyclic_coboundary, cyclic_cohomology,
                             cyclic_scalar_basis, cyclicize, is_cyclic,
                             is_cyclic_scalar, structure_is_cyclic)
from codiff import homology, linalg, oracle
from codiff.algfile import parse
from codiff.cli import build_structure
from codiff.fields import QQ, PrimeField
from codiff.structures import (A_INFINITY, L_INFINITY, InfinityStructure,
                               StructureError, validate)
from conftest import (bracket, cyclic_basis_cochains,
                      cyclic_scalar_basis_reference,
                      gl_text, is_cyclic_scalar_blockwise, make_cochain,
                      pair, random_cochain, scalar_cochains_match,
                      scalar_scale, sparse_rows)

F = Fraction
BENCH_INPUTS = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                            "inputs")
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
INPUT_FILES = sorted(os.path.join(d, f) for d in (FIXTURES, BENCH_INPUTS)
                     for f in os.listdir(d) if f.endswith(".alg"))


def input_id(path):
    return os.path.relpath(path, os.path.join(os.path.dirname(__file__),
                                              os.pardir))


def load_file(path, field="Q"):
    """The parsed file with its ``field Q`` line rewritten to ``field``."""
    with open(path, encoding="utf-8") as fh:
        return parse(re.sub(r"^field Q$", "field " + field, fh.read(),
                            flags=re.M))


def bench_structure(name):
    """The structure of one of the benchmark's input files, over Q."""
    return build_structure(load_file(os.path.join(BENCH_INPUTS, name)),
                           W_OF_V, 8)


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
                dd = family_bracket(coboundary(phi, s), s.parts)
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

    @pytest.mark.parametrize("report, want", [
        (cohomology, [(1, 1, 0), (1, 1, 0), (2, 2, 0), (3, 3, 0), (6, 6, 0),
                      (11, 11, 0), (22, 22, 0), (43, 43, 0)]),
        (lambda s, window: cyclic_cohomology(s, None, window),
         [(1, 1, 0), (1, 1, 0), (2, 2, 0), (2, 2, 0), (3, 2, 1), (4, 2, 2),
          (6, 3, 3), (8, 4, 4)]),
    ], ids=["cohomology", "cyclic"])
    def test_mixed_arity_rows_at_a_wide_window(self, koszul_dga, report,
                                               want):
        """At 0..7 every row of the Koszul DGA reads the image bases of
        degrees 0..7, each from one elimination of its block: the rows
        (Z^p, B^p, H^p) are pinned."""
        assert [(r.cocycles, r.coboundaries, r.quotient)
                for r in report(koszul_dga, (0, 7)).rows] == want

    @pytest.mark.parametrize("name, complex_, report", [
        ("gl2.alg", _PlainComplex, cohomology),
        ("koszul_dga.alg", _PlainComplex, cohomology),
        ("gl2.alg", _CyclicComplex,
         lambda s, window: cyclic_cohomology(s, None, window)),
        ("m2.alg", _CyclicComplex,
         lambda s, window: cyclic_cohomology(s, None, window)),
    ], ids=["gl2", "koszul_dga", "gl2-cyclic", "m2-cyclic"])
    def test_two_echelon_forms_per_row(self, monkeypatch, name, complex_,
                                       report):
        """Each nonempty degree the report reads, a row's own or one of its
        sources (every degree 0..3 for the mixed arities of koszul_dga),
        is built and eliminated once (``core_relations``), when a row first
        reads it, with the pivot rows at its tag columns cleared; each
        nonempty row takes one span elimination of its sources and
        cocycles (``core_pivots``), and an empty degree none (gl2 has no
        basis above degree 4 in the plain complex, above degree 3 in the
        cyclic one); no other elimination runs."""
        s, calls, eliminations = bench_structure(name), [], []

        def eliminate(rows, p, start, eliminate=linalg._eliminate):
            eliminations.append(start)
            return eliminate(rows, p, start)

        def images(cx, q, images=complex_.images):
            calls.append(("block", q))
            return images(cx, q)

        def relations(rows, ncols, p, relations=linalg.core_relations):
            calls.append(("relations", len(rows), ncols))
            return relations(rows, ncols, p)

        def pivots(rows, p, pivots=linalg.core_pivots):
            calls.append(("pivots",))
            return pivots(rows, p)
        monkeypatch.setattr(linalg, "_eliminate", eliminate)
        monkeypatch.setattr(complex_, "images", images)
        monkeypatch.setattr(linalg, "core_relations", relations)
        monkeypatch.setattr(linalg, "core_pivots", pivots)
        window = (0, 5) if name == "gl2.alg" else (0, 3)
        report(s, window)
        cx, spread = complex_(s), max(s.parts) - 1
        want, seen = [], set()
        for p in range(window[0], window[1] + 1):
            if not cx.dim(p):
                continue
            sources = (range(max(window[0] - spread, 0), window[1] + 1)
                       if len(s.parts) > 1 else [p - spread] * (p >= spread))
            for q in [*sources, p]:
                if cx.dim(q) and q not in seen:
                    seen.add(q)
                    want += [("block", q), ("relations", cx.dim(q))]
            want.append(("pivots",))
        assert [call[:2] for call in calls] == want
        assert eliminations == [call[2] if call[0] == "relations" else None
                                for call in calls if call[0] != "block"]

    @pytest.mark.parametrize("field", ["Q", "F 2", "F 3", "F 32003"])
    @pytest.mark.parametrize("name, report", [
        ("gl2.alg", cohomology),
        ("dual_numbers.alg", cohomology),
        ("m2.alg", lambda s, window: cyclic_cohomology(s, None, window)),
    ], ids=["gl2", "dual_numbers", "m2-cyclic"])
    def test_window_report_gives_the_core_plain_ints(self, monkeypatch, field,
                                                     name, report):
        """Every row the window report eliminates is plain nonzero ints,
        residues in [1, p) over F_p, with no conversion pass
        (``core_vectors``) once the lift is built; field scalars are formed
        (``scalars``) only for the representatives."""
        s = build_structure(load_file(os.path.join(BENCH_INPUTS, name),
                                      field), W_OF_V, 8)
        p, converted = s.space.field.characteristic, []

        def eliminate(rows, modulus, start, eliminate=linalg._eliminate):
            assert modulus == p
            assert all(x.__class__ is int and (0 < x < p if p else x)
                       for row in rows for x in row.values())
            return eliminate(rows, modulus, start)

        def scalars(rows, columns, modulus, scalars=linalg.scalars):
            converted.extend(rows)
            return scalars(rows, columns, modulus)

        def core(vectors, field):
            raise AssertionError("the window report converted its rows")
        s.lift  # the structure's one conversion, built before the patch
        monkeypatch.setattr(linalg, "_eliminate", eliminate)
        monkeypatch.setattr(linalg, "scalars", scalars)
        monkeypatch.setattr(linalg, "core_vectors", core)
        reps = [rep for row in report(s, (0, 3)).rows
                for rep in row.representatives]
        assert len(converted) == len(reps)

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
            lhs = pair(killing, l2.value((x, y)), z)
            rhs = pair(killing, {x: F(1)}, l2.value((y, z)))
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
        with pytest.raises(InvarianceError):
            classify_deformation(s, {2: s.parts[2]}, bad)


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
        orbits, pivots = cyclic_scalar_basis(space, TENSOR, arity - 1)
        assert len(orbits) == rotation_kernel_dim(space, arity)
        assert all(is_cyclic_scalar(b) for b in
                   cyclic_basis_cochains(space, TENSOR, arity - 1))
        assert all(orbit[t] == 1 for orbit, t in zip(orbits, pivots))

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

    @pytest.mark.parametrize("parities", [(0, 1), (0, 1, 1), (0, 0, 1)])
    def test_the_integer_lift_of_every_kept_f2_orbit_is_cyclic(self,
                                                               parities):
        """Over F_2 every tensor orbit is kept, also one whose rotation by
        its period has sign -1.  Its int signs, the integer cochain that
        certifies a representative, satisfy the rotation identity only mod
        2, which is where ``is_cyclic_scalar`` compares."""
        space = GradedSpace(tuple("abc"[:len(parities)]), parities, F2)
        odd = 0
        for arity in range(1, 7):
            over_q = {t for t, _ in _signed_orbits(parities, space.dim, arity,
                                                   False)}
            for t, orbit in _signed_orbits(parities, space.dim, arity, True):
                f = ScalarCochain(space, TENSOR, arity, word_parity(space, t),
                                  dict(orbit))
                assert is_cyclic_scalar(f), t
                odd += t not in over_q
        assert odd

    @pytest.mark.parametrize("field", [QQ, F3], ids=str)
    def test_rotation_witness_of_field_scalars_is_unchanged(self, field, rng):
        """On field scalars the witness compares in the field as
        f(t) != sign * f(t rotated) does: the same least tuple, or None
        exactly when the block form of the rotation identity holds.  The
        cochains are the orbits of every tuple with their signs in the
        field, cyclic or not, and random ones."""
        def witness(f):
            par = f.space.parities
            for t in sorted({*f.coeffs, *(u[-1:] + u[:-1] for u in f.coeffs)}):
                if f.value(t) != (rotation_signs(par, t)[1]
                                  * f.value(t[1:] + t[:1])):
                    return t
            return None

        space = GradedSpace(("a", "u", "v"), (0, 1, 1), field)
        for arity in range(2, 5):
            cochains = [ScalarCochain(space, TENSOR, arity,
                                      word_parity(space, t),
                                      {u: field(e) for u, e in orbit.items()})
                        for t, orbit in _signed_orbits(space.parities, 3,
                                                       arity, True)]
            for parity in (0, 1):
                cochains += [ScalarCochain(space, TENSOR, arity, parity, {
                    t: field(rng.randint(-2, 2))
                    for t in itertools.product(range(3), repeat=arity)
                    if word_parity(space, t) == parity
                    and rng.random() < 0.3}) for _ in range(5)]
            answers = set()
            for f in cochains:
                assert _rotation_witness(f) == witness(f)
                assert is_cyclic_scalar(f) == is_cyclic_scalar_blockwise(f)
                answers.add(is_cyclic_scalar(f))
            assert answers == {True, False}

    @pytest.mark.parametrize("parities,arity", [
        (EVEN4, 1), (EVEN4, 2), ((0, 1), 4), ((0, 1, 1), 3),
    ])
    def test_equals_averaged_basis_over_q(self, parities, arity):
        space = GradedSpace(tuple("abcd"[:len(parities)]), parities)
        assert cyclic_scalar_basis(space, TENSOR, arity - 1) == \
            averaged_basis(space, arity)


class TestNecklaceBasis:
    """The necklace enumeration gives the basis of the scan over every
    tuple: the same pivots in the same order, and the same coefficient
    dicts in the same insertion order, for every parity pattern.  The
    orbits carry int signs, read in the field for the comparison."""

    @pytest.mark.parametrize("field", [QQ, F2, F3], ids=str)
    @pytest.mark.parametrize("dim, top", [(1, 5), (2, 5), (3, 5), (4, 3)])
    def test_equals_the_scan(self, field, dim, top):
        for parities in itertools.product((0, 1), repeat=dim):
            space = GradedSpace(tuple("abcd"[:dim]), parities, field)
            for degree in range(top + 1):
                orbits, pivots = cyclic_scalar_basis(space, TENSOR, degree)
                want, want_pivots = cyclic_scalar_basis_reference(space,
                                                                  degree)
                assert pivots == want_pivots
                assert {e for o in orbits for e in o.values()} <= {1, -1}
                basis = cyclic_basis_cochains(space, TENSOR, degree)
                assert [list(b.coeffs.items()) for b in basis] == \
                    [list(b.coeffs.items()) for b in want]
                assert [b.parity for b in basis] == [b.parity for b in want]


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
            assert is_cyclic(bracket(phi, psi), ip)
            assert is_cyclic(modified_bracket(phi, psi), ip)
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
            lhs = tilde(bracket(phi, psi), ip)
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
        basis = cyclic_basis_cochains(s.space, TENSOR, 2)
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
                    via = tilde(modified_bracket(phi, part), ip)
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

    def test_mixed_arity_representatives_frozen(self, koszul_dga):
        # the Koszul DGA (arities 1 and 2), HC = 0,0,1,2 over Q: the class
        # of t^3, and in degree 3 those of a four-tuple orbit sum and of t^4
        s = koszul_dga
        report = cyclic_cohomology(s, None, (0, 3))
        assert not report.graded_exact
        assert [r.quotient for r in report.rows] == [0, 0, 1, 2]
        want = [[], [], [{("t", "t", "t"): 1}],
                [{("1", "1", "t", "t"): 1, ("1", "t", "t", "1"): -1,
                  ("t", "1", "1", "t"): 1, ("t", "t", "1", "1"): 1},
                 {("t", "t", "t", "t"): 1}]]
        got = [[rep.coeffs for rep in row.representatives]
               for row in report.rows]
        assert got == [[{tuple(s.space.index(n) for n in t): c
                         for t, c in w.items()} for w in reps]
                       for reps in want]


    @pytest.mark.parametrize("convention", [W_OF_V, V_OF_W])
    @pytest.mark.parametrize("field", ["Q", "F 32003", "F 3"])
    @pytest.mark.parametrize("path", [
        os.path.join(BENCH_INPUTS, "m2.alg"),
        os.path.join(BENCH_INPUTS, "dual_numbers.alg"),
        os.path.join(FIXTURES, "sl2.alg"),
        os.path.join(FIXTURES, "abelian2.alg"),
        os.path.join(FIXTURES, "dual_numbers.alg")], ids=input_id)
    def test_representatives_map_to_cocycles(self, path, field, convention):
        """The comparison of the two complexes on cohomology: with an
        invariant form, ``untilde`` carries cyclic cocycles to cocycles of
        the plain complex, so it maps every representative of HC^p to a
        cochain that D kills."""
        af = load_file(path, field)
        s = build_structure(af, convention, 8)
        report = cyclic_cohomology(s, af.inner_product, (0, 3))
        reps = [rep for row in report.rows for rep in row.representatives]
        assert reps
        for rep in reps:
            phi = untilde(rep, af.inner_product)
            assert not phi.is_zero()
            assert family_is_zero(coboundary(phi, s))


class TestCertificate:
    """The bracket route certifies every representative: one block entry
    changed makes a basis vector whose image is that one entry a cocycle of
    the block, and not of D, so the report refuses the row."""

    @pytest.mark.parametrize("field", ["Q", "F 32003", "F 3"])
    @pytest.mark.parametrize("block, report", [
        ("plain_block", cohomology),
        ("cyclic_block", lambda s, window: cyclic_cohomology(s, None, window)),
    ], ids=["cohomology", "cyclic"])
    @pytest.mark.parametrize("degree", [1, 2])
    def test_a_wrong_block_entry_fails_the_certificate(
            self, monkeypatch, field, block, report, degree):
        build = getattr(homology, block)
        changed = []

        def wrong(s, parts, modulus, p, index):
            images = build(s, parts, modulus, p, index)
            if p == degree:
                for image in images:
                    entries = [(q, r) for q, vec in image.items() for r in vec]
                    if len(entries) == 1:
                        q, r = entries[0]
                        del image[q][r]
                        changed.append((q, r))
                        break
            return images
        monkeypatch.setattr(homology, block, wrong)
        s = build_structure(load_file(os.path.join(FIXTURES,
                                                   "dual_numbers.alg"),
                                      field), W_OF_V, 8)
        with pytest.raises(RuntimeError, match=r"a representative of H\^%d "
                           "is not a cocycle" % degree):
            report(s, (0, 3))
        assert changed


class TestClassifyDeformation:
    def test_m2_builds_no_basis_above_the_direction(self, monkeypatch):
        """For one arity D maps degree q into q + spread alone, so the
        coboundary test of a degree-2 direction of M2 reads the block D_1
        and the bases of degrees 1 and 2, in either complex."""
        built = []
        for cls in (_PlainComplex, _CyclicComplex):
            def build(cx, p, build=cls._build_basis):
                built.append(p)
                return build(cx, p)
            monkeypatch.setattr(cls, "_build_basis", build)
        af = load_file(os.path.join(BENCH_INPUTS, "m2.alg"))
        s = build_structure(af, W_OF_V, 8)
        _, lam = af.deformations["lam"]
        plain = classify_deformation(s, lam)
        assert (plain.cocycle, plain.coboundary) == (True, True)
        assert built and max(built) == 2
        built.clear()
        cyclic = classify_deformation(s, lam, af.inner_product)
        assert (cyclic.cocycle, cyclic.coboundary) == (True, False)
        assert built and max(built) == 2

    @pytest.mark.parametrize("convention", [W_OF_V, V_OF_W])
    @pytest.mark.parametrize("scale", [1, F(1, 2)], ids=["1", "1/2"])
    def test_direction_is_scaled_as_one_family(self, convention, scale):
        """With d(x) = 2y and l(x,z) = z, D(x) is {0: 2y, 1: z -> z} up to
        sign: content 2 in degree 0 and 1 in degree 1.  Scaled degree by
        degree, to primitive rows or by each degree's own denominators (for
        D(x/2)), it would become {0: y, 1: z -> z}, which is no coboundary;
        the direction is scaled by one factor, so it is one."""
        s = build_structure(parse("field Q\nflavor exterior\nspace\n"
                                  "  basis x even\n  basis y odd\n"
                                  "  basis z even\nmap d 1\n  d(x) = 2*y\n"
                                  "map l 2\n  l(x,z) = z\n"), convention, 8)
        beta = make_cochain(s.space, EXTERIOR, 0, 0, {(): {"x": scale}})
        lam = coboundary(beta, s)
        assert sorted(lam) == [0, 1]
        cls = classify_deformation(s, lam)
        assert cls.cocycle is True and cls.coboundary is True

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
        small = InfinityStructure(s.flavor, s.space, s.parts, max_arity=2)
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


class TestTensorPositions:
    """The tensor block places every term by arithmetic on positions: the
    k-th tensor tuple of degree p is the base-dim numeral k, so the delta at
    (t, j) sits at dim·k + j, and a window report never enumerates the
    basis its top degree reaches."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("p", [0, 1, 2, 3, 4])
    def test_the_index_is_dim_times_the_numeral(self, dim, p):
        # mixed parities: the letters alternate even, odd, even, ...
        space = GradedSpace(tuple("abcd"[:dim]),
                            tuple(i & 1 for i in range(dim)))
        s = InfinityStructure(A_INFINITY, space, {})
        cx = _PlainComplex(s)
        index = cx._index(p)
        assert len(index) == dim ** p
        for t in itertools.product(range(dim), repeat=p):
            numeral = sum(x * dim ** (p - 1 - i) for i, x in enumerate(t))
            assert index[t] == dim * numeral
        assert cx.dim(p) == dim * len(cx._basis(p)) == dim ** (p + 1)

    @pytest.mark.parametrize("name", ["dual_numbers", "koszul_dga"])
    def test_the_report_enumerates_no_tensor_degree_above_its_window(
            self, request, monkeypatch, name):
        """The blocks read no index, so a report builds a basis only for
        the rows whose representatives it rebuilds, and no index at all;
        the rows do not change."""
        s = request.getfixturevalue(name)
        s = s[0] if isinstance(s, tuple) else s
        built, want = [], [(r.cocycles, r.coboundaries, r.quotient)
                           for r in cohomology(s, (0, 4)).rows]
        build = _PlainComplex._build_basis
        monkeypatch.setattr(_PlainComplex, "_build_basis",
                            lambda cx, p: built.append(p) or build(cx, p))
        monkeypatch.setattr(_PlainComplex, "_build_index",
                            lambda cx, p: pytest.fail("index of %d" % p))
        rows = [(r.cocycles, r.coboundaries, r.quotient)
                for r in cohomology(s, (0, 4)).rows]
        assert rows == want
        assert all(p <= 4 for p in built)


class TestWindowBound:
    def test_a_huge_window_is_refused(self):
        s = bench_structure("m2.alg")
        with pytest.raises(WindowTooLarge, match=r"4\^100000000000000000002"):
            cohomology(s, (0, 10 ** 20))
        with pytest.raises(WindowTooLarge, match=r"4\^100000000000000000002"):
            cyclic_cohomology(s, None, (0, 10 ** 20))

    def test_rows_are_bounded_when_the_index_is_not(self):
        # in dimension 1 every index has one entry
        space = GradedSpace(("1",), (0,))
        s = InfinityStructure(A_INFINITY, space, {2: make_cochain(
            space, TENSOR, 2, 0, {("1", "1"): {"1": 1}})})
        _check_window(_PlainComplex(s), 0, MAX_INDEX - 1)
        with pytest.raises(WindowTooLarge, match="rows"):
            cohomology(s, (0, MAX_INDEX))

    def test_an_index_at_the_bound_is_built(self):
        # ten even letters and arity 2 (spread 1): the degree-5 index scans
        # 10^6 = MAX_INDEX entries, the degree-6 one ten times more
        space = GradedSpace(tuple("x%d" % i for i in range(10)), (0,) * 10)
        s = InfinityStructure(A_INFINITY, space, {2: make_cochain(
            space, TENSOR, 2, 0, {("x0", "x0"): {"x0": 1}})})
        assert MAX_INDEX == 10 ** 6
        for cx in (_PlainComplex(s), _CyclicComplex(s)):
            _check_window(cx, 0, 4)
            with pytest.raises(WindowTooLarge, match=r"10\^7 = 10000000 "):
                _check_window(cx, 0, 5)

    def test_odd_exterior_letters_repeat_in_the_bound(self):
        # two even and two odd letters: K(d) = 4d exterior tuples of degree
        # d, so with arity 2 the window 0..b scans 4 * 4(b + 1) entries
        space = GradedSpace(("a", "b", "u", "v"), (0, 0, 1, 1))
        s = InfinityStructure(L_INFINITY, space, {2: make_cochain(
            space, EXTERIOR, 2, 0, {("a", "b"): {"a": 1}})})
        for cx in (_PlainComplex(s), _CyclicComplex(s)):
            _check_window(cx, 0, 62499)
            with pytest.raises(WindowTooLarge, match=r"4\*250004 = 1000016 "):
                _check_window(cx, 0, 62500)
        assert len(canonical_tuples(space, EXTERIOR, 5)) == 4 * 5

    def test_a_direction_too_large_is_refused(self, monkeypatch):
        # the structure above with a degree-6 direction: its coboundary test
        # reads the degree-5 sources, whose images reach the degree-6 index
        built = []
        monkeypatch.setattr(_PlainComplex, "_build_basis",
                            lambda cx, p: built.append(p))
        space = GradedSpace(tuple("x%d" % i for i in range(10)), (0,) * 10)
        s = InfinityStructure(A_INFINITY, space, {2: make_cochain(
            space, TENSOR, 2, 0, {("x0", "x0"): {"x0": 1}})})
        lam = make_cochain(space, TENSOR, 6, 0, {("x0",) * 6: {"x1": 1}})
        with pytest.raises(WindowTooLarge, match=(
                r"^direction of degree 6: its degree-6 basis would have "
                r"10\^7 = 10000000 positions, more than 1000000$")):
            classify_deformation(s, {6: lam})
        assert built == []

    def test_a_direction_is_bounded_by_the_degrees_its_test_builds(self):
        """gl5 has 25 even letters, and its degree-12 basis 130007500
        positions; the test of a degree-25 direction builds the degrees 24
        and 25 only, of 625 and 25 positions, so it is not refused."""
        s = build_structure(parse(gl_text(5)), W_OF_V, 8)
        names = s.space.names
        lam = make_cochain(s.space, EXTERIOR, 25, 0, {names: {names[0]: 1}})
        assert classify_deformation(s, {25: lam}).cocycle

    @pytest.mark.parametrize("path", [p for p in INPUT_FILES
                                      if not p.endswith("bad_name.alg")],
                             ids=input_id)
    def test_the_closed_form_is_the_enumerated_scan(self, monkeypatch, path):
        """The size the bound reads is dim times every tuple (tensor) or
        every canonical exterior tuple of the top degree, the plain basis
        positions exactly, and the cyclic index is no larger.  A window
        whose top is empty, over all-even letters past their number, is
        refused at MAX_INDEX = 0 for the largest basis it builds, that of
        the middle degree dim // 2."""
        s = build_structure(load_file(path), W_OF_V, 8)
        cx = _PlainComplex(s)
        monkeypatch.setattr(homology, "MAX_INDEX", 0)
        dim = s.space.dim
        # past its dimension an all-even exterior space has no tuple left
        for b in range(3 if s.flavor == TENSOR else dim + 2):
            d = b + cx.spread
            with pytest.raises(WindowTooLarge) as refusal:
                _check_window(cx, 0, b)
            scan = (sum(1 for _ in itertools.product(range(dim), repeat=d))
                    if s.flavor == TENSOR
                    else len(canonical_tuples(s.space, EXTERIOR, d)))
            largest = d if scan else dim // 2
            assert str(refusal.value).startswith(
                "window 0..%d: its degree-%d basis" % (b, largest))
            size = int(re.search(r" = (\d+) positions", str(refusal.value))[1])
            assert size == cx.dim(largest) > 0
            if scan:
                assert size == dim * scan
            assert len(_CyclicComplex(s)._index(d)) <= size
