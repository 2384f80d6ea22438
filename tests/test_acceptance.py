"""Acceptance suite: one test per criterion, exact arithmetic throughout
(zero tolerance).  Each test prints a single [acceptance] line on success;
run with ``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import itertools
import math
import os
import random
from fractions import Fraction

import pytest

from codiff import GradedSpace, linalg, oracle
from codiff.algfile import parse, serialize
from codiff.cli import run
from codiff.cochain import (Cochain, ScalarCochain, add, canonical_tuples,
                            scale, tilde, untilde)
from codiff.coderivation import (V_OF_W, W_OF_V, family_bracket,
                                 family_is_zero, modified_bracket)
from codiff.fields import QQ
from codiff.graded import EXTERIOR, TENSOR, word_parity
from codiff.homology import (classify_deformation, coboundary, cohomology,
                             cyclic_coboundary, cyclic_cohomology, cyclicize,
                             deform_check, is_cyclic, is_cyclic_scalar)
from codiff.oracle import SYMMETRIC, word_tuples
from codiff.structures import InfinityStructure, validate
from conftest import (PARITY_ONLY, PRODUCT_FORM, SHIFTED_FORM, Word, bracket,
                      bracket_in, check_extension_conjugation,
                      check_reversion_sign_identity, grading_pair,
                      is_cyclic_scalar_blockwise, koszul_sign, random_cochain,
                      random_family, reversed_side_ok, scalar_cochains_match,
                      scalar_scale, sparse_rows, structure_in)
from test_coderivation import coderivation_axiom_holds
from test_homology import hochschild_dims_oracle, random_cyclic_scalar

F = Fraction
HERE = os.path.dirname(__file__)
SEED = 8283553


def report(line):
    print("[acceptance] %s" % line)


def test_a01_sign_identity_suite():
    # Koszul sign multiplicativity, exhaustive for n <= 6 over all parity
    # vectors; table lookups through numpy keep the sweep fast
    numpy = pytest.importorskip("numpy")
    for n in range(1, 7):
        perms = list(itertools.permutations(range(1, n + 1)))
        perm_ix = {p: i for i, p in enumerate(perms)}
        masks = list(itertools.product((0, 1), repeat=n))
        eps = numpy.empty((len(perms), len(masks)), dtype=numpy.int8)
        for i, p in enumerate(perms):
            for m, par in enumerate(masks):
                eps[i, m] = koszul_sign(p, par)
        comp = numpy.empty((len(perms), len(perms)), dtype=numpy.int32)
        for i, tau in enumerate(perms):
            for j, sig in enumerate(perms):
                comp[i, j] = perm_ix[tuple(tau[sig[r] - 1] for r in range(n))]
        pmask = numpy.empty((len(perms), len(masks)), dtype=numpy.int32)
        mask_ix = {m: i for i, m in enumerate(masks)}
        for i, tau in enumerate(perms):
            for m, par in enumerate(masks):
                pmask[i, m] = mask_ix[tuple(par[tau[r] - 1] for r in range(n))]
        for i in range(len(perms)):
            lhs = eps[comp[i]]                     # eps(tau o sig; v)
            rhs = eps[:, pmask[i]] * eps[i]        # eps(sig; v o tau) eps(tau; v)
            assert numpy.array_equal(lhs, rhs), ("multiplicativity", n, i)
    # the reversion sign identity, exhaustive for n <= 5
    for n in range(1, 6):
        for par in itertools.product((0, 1), repeat=n):
            for images in itertools.permutations(range(1, n + 1)):
                assert check_reversion_sign_identity(images, list(par))
    report("1 sign-identity suite: PASS")


def test_a02_coderivation_axiom_randomized():
    rng = random.Random(SEED)
    space_cases = [GradedSpace(("a",), (0,)), GradedSpace(("a",), (1,)),
                   GradedSpace(("a", "b"), (0, 1)),
                   GradedSpace(("a", "b"), (1, 1))]
    # the library's extension on V, the oracle's on the reversed side
    for flavor, forms in ((TENSOR, (PARITY_ONLY, PRODUCT_FORM)),
                          (SYMMETRIC, (PARITY_ONLY,)),
                          (EXTERIOR, (PRODUCT_FORM,))):
        cases = 0
        while cases < 200:
            space = rng.choice(space_cases)
            form = rng.choice(forms)
            gen = random_cochain(space, flavor, rng.randint(1, 3),
                                 rng.randint(0, 1), rng)
            deg = rng.randint(1, 4)
            tuples = word_tuples(space, flavor, deg)
            if not tuples:
                continue
            w = Word(space, flavor, tuples[rng.randrange(len(tuples))], F(1))
            if w.is_zero():
                continue
            assert coderivation_axiom_holds(gen, form, w)
            cases += 1
    report("2 coderivation axiom (>=200 randomized cases per flavor): PASS")


def test_a03_bracket_laws():
    rng = random.Random(SEED + 1)
    spaces = [GradedSpace(("a", "b"), (0, 1)), GradedSpace(("a", "b"), (1, 1))]
    for flavor in (TENSOR, EXTERIOR):
        for trial in range(40):
            space = rng.choice(spaces)
            a, b, c = (random_cochain(space, flavor, rng.randint(1, 3),
                                      rng.randint(0, 1), rng)
                       for _ in range(3))
            sgn = -1 if grading_pair(PRODUCT_FORM, a.bidegree, b.bidegree) else 1
            assert add(bracket(a, b), scale(sgn, bracket(b, a))).is_zero()
            lhs = bracket(a, bracket(b, c))
            rhs = add(bracket(bracket(a, b), c),
                      scale(sgn, bracket(b, bracket(a, c))))
            assert add(lhs, scale(-1, rhs)).is_zero()
            for conv in (W_OF_V, V_OF_W):
                sgn = -1 if grading_pair(SHIFTED_FORM, a.bidegree,
                                         b.bidegree) else 1
                assert add(bracket_in(a, b, conv),
                           scale(sgn, bracket_in(b, a, conv))).is_zero()
                lhs = bracket_in(a, bracket_in(b, c, conv), conv)
                rhs = add(bracket_in(bracket_in(a, b, conv), c, conv),
                          scale(sgn, bracket_in(
                              b, bracket_in(a, c, conv), conv)))
                assert add(lhs, scale(-1, rhs)).is_zero()
    report("3 bracket laws (product and shifted gradings): PASS")


def test_a04_conjugation(dual_numbers, sl2, koszul_dga, nonassociative):
    # extension-conjugation sign relation, exhaustive k <= 3, n <= 5, dim <= 2
    for parities in ((0, 1), (1, 1), (0, 0)):
        space = GradedSpace(("a", "b"), parities)
        for flavor in (TENSOR, EXTERIOR):
            for k in range(1, 4):
                for t in canonical_tuples(space, flavor, k):
                    tp = word_parity(space, t)
                    for j in range(space.dim):
                        mu = Cochain(space, flavor, k,
                                     (space.parities[j] ^ tp) & 1,
                                     {t: {j: F(1)}})
                        for n in range(1, 6):
                            assert check_extension_conjugation(mu, n)
    # both conventions accept exactly the same fixtures
    for s in (dual_numbers[0], sl2[0], koszul_dga, nonassociative):
        mine = validate(s).ok
        other = validate(structure_in(s.flavor, s.space, s.parts,
                                      V_OF_W)).ok
        assert mine == other
    report("4 conjugation sign relation + convention agreement: PASS")


def test_a05_three_route_agreement(dual_numbers, sl2, koszul_dga,
                                   nonassociative, leibniz_violation,
                                   truncated_poly, triangular):
    def routes(s):
        direct = validate(s).ok
        sq = family_is_zero(family_bracket(s.parts, s.parts))
        return direct, sq, reversed_side_ok(s)

    fixtures = [dual_numbers[0], sl2[0], koszul_dga, nonassociative,
                leibniz_violation, truncated_poly, triangular]
    for s in fixtures:
        a, b, c = routes(s)
        assert a == b == c
    rng = random.Random(SEED + 2)
    bases = [dual_numbers[0], sl2[0], koszul_dga, truncated_poly]
    failing = 0
    attempts = 0
    while failing < 100:
        attempts += 1
        assert attempts < 1500, "could not draw enough failing perturbations"
        base = bases[attempts % len(bases)]
        arity = rng.choice(sorted(base.parts) + [3])
        pert = random_cochain(base.space, base.flavor, arity, arity & 1, rng,
                              density=0.4)
        if pert.is_zero():
            continue
        parts = dict(base.parts)
        parts[arity] = add(parts[arity], pert) if arity in parts else pert
        s = InfinityStructure(base.flavor, base.space, parts)
        a, b, c = routes(s)
        assert a == b == c
        if not a:
            failing += 1
    report("5 three-route validation agreement (fixtures + 100 failing "
           "perturbations): PASS")


def test_a06_coboundary_squares_to_zero(dual_numbers, sl2, koszul_dga,
                                        truncated_poly, triangular,
                                        theta_algebra, nonabelian2, abelian2):
    rng = random.Random(SEED + 3)
    fixtures = [dual_numbers[0], sl2[0], koszul_dga, truncated_poly,
                triangular, theta_algebra, nonabelian2, abelian2[0]]
    for s in fixtures:
        top_deg = 3 if s.space.dim <= 2 else 2
        for trial in range(100):
            p = rng.randint(0, top_deg)
            phi = random_cochain(s.space, s.flavor, p, rng.randint(0, 1), rng)
            dd = family_bracket(coboundary(phi, s), s.parts)
            assert family_is_zero(dd)
    report("6 D^2 = 0 (8 fixtures x 100 random cochains): PASS")


def test_a07_oracle_equivalence(dual_numbers, truncated_poly, triangular,
                                theta_algebra, sl2, nonabelian2):
    # frozen: the library coboundary is exactly -1 times the classical
    # operator in every degree, for every fixture below
    rng = random.Random(SEED + 4)
    assoc = [("dual", dual_numbers[0]), ("kx3", truncated_poly),
             ("tri", triangular), ("theta", theta_algebra)]
    for name, s in assoc:
        m2 = s.parts[2]
        for p in range(0, 4):
            for t in canonical_tuples(s.space, TENSOR, p):
                tp = word_parity(s.space, t)
                for j in range(s.space.dim):
                    phi = Cochain(s.space, TENSOR, p,
                                  (s.space.parities[j] ^ tp) & 1, {t: {j: F(1)}})
                    mine = coboundary(phi, s).get(p + 1)
                    orc = oracle.hochschild_coboundary(m2, phi)
                    if mine is None:
                        assert orc.is_zero()
                    else:
                        assert add(mine, orc).is_zero(), (name, p, t, j)
        # degree 4 sampled on random cochains (linearity carries the sign)
        for trial in range(15):
            phi = random_cochain(s.space, TENSOR, 4, rng.randint(0, 1), rng,
                                 density=0.3)
            mine = coboundary(phi, s).get(5)
            orc = oracle.hochschild_coboundary(m2, phi)
            if mine is None:
                assert orc.is_zero()
            else:
                assert add(mine, orc).is_zero(), (name, "deg4")
    for name, s in (("sl2", sl2[0]), ("nonabelian2", nonabelian2)):
        l2 = s.parts[2]
        for p in range(0, 4):
            for t in canonical_tuples(s.space, EXTERIOR, p):
                for j in range(s.space.dim):
                    phi = Cochain(s.space, EXTERIOR, p, 0, {t: {j: F(1)}})
                    mine = coboundary(phi, s).get(p + 1)
                    orc = oracle.chevalley_eilenberg_coboundary(l2, phi)
                    if mine is None:
                        assert orc.is_zero()
                    else:
                        assert add(mine, orc).is_zero(), (name, p, t, j)
    report("7 oracle equivalence (bar and adjoint complexes, frozen sign -1 "
           "per degree): PASS")


def test_a08_cohomology_dimensions(sl2, dual_numbers, abelian1):
    rep = cohomology(sl2[0], (0, 3))
    assert [(r.degree, r.quotient) for r in rep.rows] == \
        [(0, 0), (1, 0), (2, 0), (3, 0)]
    # the vanishing is checked against the dense oracle, not assumed
    dims = ce_adjoint_dims_oracle(sl2[0].parts[2], 3)
    for r in rep.rows:
        assert r.quotient == dims[r.degree]
    rep = cohomology(dual_numbers[0], (1, 3))
    hdims = hochschild_dims_oracle(dual_numbers[0].parts[2], 3)
    for r in rep.rows:
        assert r.quotient == hdims[r.degree]
    rep = cohomology(abelian1, (1, 1))
    assert rep.rows[0].quotient == 1
    report("8 cohomology dimensions vs dense oracles: PASS")


def ce_adjoint_dims_oracle(l2, upto):
    space = l2.space
    field = space.field

    def basis(p):
        return [(t, j) for t in canonical_tuples(space, EXTERIOR, p)
                for j in range(space.dim)]

    def matrix(p):
        src, tgt = basis(p), basis(p + 1)
        tgt_ix = {bj: r for r, bj in enumerate(tgt)}
        cols = []
        for (t, j) in src:
            phi = Cochain(space, EXTERIOR, p, 0, {t: {j: F(1)}})
            d = oracle.chevalley_eilenberg_coboundary(l2, phi)
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


def test_a09_cyclic_suite(dual_numbers, sl2):
    rng = random.Random(SEED + 5)
    # rotation averaging: output cyclic, fixed points rescale; exhaustive
    # over the dual basis for arity <= 4 on dim <= 2 spaces
    for parities in ((0, 0), (0, 1), (1, 1)):
        space = GradedSpace(("a", "b"), parities)
        for arity in range(1, 5):
            for t in itertools.product(range(2), repeat=arity):
                f = ScalarCochain(space, TENSOR, arity,
                                  word_parity(space, t), {t: F(1)})
                cf = cyclicize(f)
                assert is_cyclic_scalar(cf)
                assert is_cyclic_scalar_blockwise(cf)
                again = cyclicize(cf)
                assert again.coeffs == scalar_scale(F(arity), cf).coeffs
        # pointwise vs blockwise cyclicity: identical subspaces
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
                    pa = sum(space.parities[x] for x in t[:i])
                    pb = sum(space.parities[x] for x in t[i:])
                    row = [F(0)] * len(tuples)
                    row[ix[t]] += F(1)
                    row[ix[t[i:] + t[:i]]] -= F(-1) ** ((pa * pb + i * n) & 1)
                    rows_block.append(row)
            kp = linalg.kernel_basis(sparse_rows(rows_point),
                                     len(tuples), QQ)
            kb = linalg.kernel_basis(sparse_rows(rows_block),
                                     len(tuples), QQ)
            assert len(kp) == len(kb)
            assert all(linalg.in_span(kp, v, QQ) for v in kb)
    # bracket closure on randomized cyclic pairs
    s, ip = dual_numbers
    done = 0
    for trial in range(30):
        k, l = rng.randint(1, 3), rng.randint(1, 3)
        phi = untilde(random_cyclic_scalar(s.space, k, 0, rng), ip)
        psi = untilde(random_cyclic_scalar(s.space, l, 0, rng), ip)
        if phi.is_zero() or psi.is_zero():
            continue
        assert is_cyclic(bracket(phi, psi), ip)
        assert is_cyclic(modified_bracket(phi, psi), ip)
        done += 1
    assert done >= 15
    # invariant-form route agreement on both fixtures
    for (s, ip), flavor in ((dual_numbers, TENSOR), (sl2, EXTERIOR)):
        for trial in range(10):
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
            for g in fam.values():
                for h in cyclic_coboundary(g, s).values():
                    assert h.is_zero()
            for l, part in s.parts.items():
                mine = fam.get(k + l - 1)
                via = tilde(modified_bracket(phi, part), ip)
                if mine is None:
                    assert via.is_zero()
                else:
                    assert scalar_cochains_match(mine, via)
    report("9 cyclic suite (averaging, block test, closure, invariant "
           "route): PASS")


def test_a10_cyclic_vs_trivial_coefficients(sl2, nonabelian2, abelian2):
    for s, l2 in ((sl2[0], sl2[0].parts[2]),
                  (nonabelian2, nonabelian2.parts[2])):
        rep = cyclic_cohomology(s, None, (0, 3))
        dims = oracle.lie_trivial_cohomology_dims(l2, 4)
        for r in rep.rows:
            assert r.quotient == dims[r.degree + 1]
    s, ip = abelian2
    rep = cyclic_cohomology(s, ip, (0, 3))
    for r in rep.rows:
        assert r.quotient == math.comb(2, r.degree + 1)
    report("10 HC^n(V) matches H^{n+1}(V,k) on the Lie fixtures: PASS")


def test_a11_deformation_suite(sl2, dual_numbers, koszul_dga):
    rng = random.Random(SEED + 6)
    s, killing = sl2
    # a coboundary direction classifies as {cocycle, coboundary}
    produced = 0
    for trial in range(10):
        beta = random_cochain(s.space, s.flavor, rng.randint(1, 2), 0, rng)
        lam = coboundary(beta, s)
        if not lam:
            continue
        cls = classify_deformation(s, lam)
        assert cls.cocycle is True and cls.coboundary is True
        produced += 1
    assert produced >= 5
    # the bracket of sl2 is a cocycle but not a coboundary in the cyclic
    # complex of its Killing form
    cls = classify_deformation(s, {2: s.parts[2]}, killing)
    assert cls.cocycle is True and cls.coboundary is False
    assert cls.preserves_ip is True
    # first-order expansion oracle vs deform_check, fixtures and 100 randoms
    checked = 0
    fixtures = [dual_numbers[0], s, koszul_dga]
    guard = 0
    while checked < 100:
        guard += 1
        assert guard < 600
        base = fixtures[guard % len(fixtures)]
        param = rng.randint(0, 1)
        lam = random_family(base, rng, param)
        if not lam:
            continue
        res = oracle.first_order_residuals(base, lam, param, W_OF_V)
        residual_zero = all(
            all(not any(vec.values()) for vec in per.values())
            for per in res.values())
        assert residual_zero == deform_check(base, lam)
        checked += 1
    report("11 deformation suite (coboundary class, rigidity vs Cartan "
           "class, first-order oracle x100): PASS")


def test_a12_cli_contract():
    from test_cli import GOLDEN_CASES, golden, load
    for golden_name, command, fixture, kw, want_status in GOLDEN_CASES:
        text, status = run(command, load(fixture), **kw)
        assert status == want_status
        assert text == golden(golden_name)
        text2, _ = run(command, load(fixture), **kw)
        assert text2 == text
    # round trip on every fixture file
    fixtures_dir = os.path.join(HERE, "fixtures")
    for name in sorted(os.listdir(fixtures_dir)):
        if not name.endswith(".alg") or name.startswith("bad"):
            continue
        with open(os.path.join(fixtures_dir, name), encoding="utf-8") as fh:
            af = parse(fh.read())
        assert parse(serialize(af)) == af
    # exit-code contract: one positive and one negative case per command
    from codiff.cli import main
    fx = lambda n: os.path.join(fixtures_dir, n)
    pairs = [
        (["validate", fx("sl2.alg")], 0),
        (["validate", fx("nonassociative.alg")], 1),
        (["bracket", fx("sl2.alg")], 0),
        (["bracket", fx("bad_name.alg")], 2),
        (["cohomology", fx("sl2.alg"), "--window", "0..2"], 0),
        (["cohomology", fx("bad_name.alg")], 2),
        (["cyclic", fx("sl2.alg"), "--window", "0..2"], 0),
        (["cyclic", fx("noninvariant.alg")], 1),
        (["deform", fx("sl2.alg")], 0),
        (["deform", fx("bad_name.alg")], 2),
        (["convert", fx("sl2.alg")], 0),
        (["convert", fx("bad_name.alg")], 2),
    ]
    import io
    from contextlib import redirect_stderr, redirect_stdout
    for argv, want in pairs:
        buf_out, buf_err = io.StringIO(), io.StringIO()
        with redirect_stdout(buf_out), redirect_stderr(buf_err):
            got = main(argv)
        assert got == want, (argv, got, want)
    report("12 CLI golden files, round trips and exit codes: PASS")
