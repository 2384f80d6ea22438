"""Property test over file texts: random algebra files, most of which parse
and some of which do not, run through ``cli.main`` by every command under
both conventions.  Every run exits 0, 1 or 2; an exit 2 prints one
``error:`` line and nothing on stdout; every file that parses reads back
from its serialization.  A structure that validates over Q validates over
each F_l the same text parses over: N·m is an integer structure, so its
reduction mod l is one (this exercises the mod-l zero test of the integer
lift).  For one arity each cohomology row over F_l is then at least the row
over Q, and so is each cyclic row when l exceeds 4, the largest arity of
the window 0..3 (the cyclic complex divides by the arity)."""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from codiff import GradedSpace  # noqa: E402
from codiff.algfile import ParseError, parse, serialize  # noqa: E402
from codiff.cli import build_structure, main  # noqa: E402
from codiff.cochain import canonical_tuples  # noqa: E402
from codiff.coderivation import W_OF_V  # noqa: E402
from codiff.graded import EXTERIOR, TENSOR, word_parity  # noqa: E402
from codiff.homology import (InvarianceError, cohomology,  # noqa: E402
                             cyclic_cohomology)
from codiff.structures import (DEFAULT_MAX_ARITY, StructureError,  # noqa: E402
                               validate)

FIELDS = ("Q", "F 32003", "F 2", "F 3", "F 5")
PRIMES = (2, 3, 5, 32003)
COEFFICIENTS = ("1", "2", "3", "1/2")
COMMANDS = (["validate"], ["bracket"], ["cohomology", "--window", "0..3"],
            ["cyclic", "--window", "0..3"], ["deform"], ["convert"])
WINDOW = (0, 3)
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def values(draw, space, outputs):
    """A linear combination of up to two of the output letters, or 0."""
    terms = draw(st.lists(st.tuples(st.sampled_from(outputs),
                                    st.booleans(),
                                    st.sampled_from(COEFFICIENTS)),
                          min_size=1, max_size=2)) if outputs else []
    text = ""
    for b, negative, coeff in terms:
        term = "%s*%s" % (coeff, space.names[b])
        if not text:
            text = ("-" if negative else "") + term
        else:
            text += (" - " if negative else " + ") + term
    return text or "0"


@st.composite
def blocks(draw, space, flavor, header, name, arity, parity):
    """Lines of a map or deformation block: assignments on one to three
    canonical tuples, whose outputs mostly have the given parity."""
    parity = draw(st.sampled_from([parity, parity, parity, 1 - parity]))
    tuples = canonical_tuples(space, flavor, arity)
    chosen = draw(st.lists(st.sampled_from(tuples), min_size=1, max_size=3,
                           unique=True)) if tuples else []
    lines = [header]
    for t in chosen:
        outputs = [b for b in range(space.dim)
                   if word_parity(space, t + (b,)) == parity]
        lines.append("  %s(%s) = %s" % (
            name, ",".join(space.names[i] for i in t),
            draw(values(space, outputs))))
    return lines


@st.composite
def files(draw):
    """(file text less its field line, field)."""
    dim = draw(st.integers(1, 3))
    parities = draw(st.lists(st.integers(0, 1), min_size=dim, max_size=dim))
    space = GradedSpace(tuple("abc"[:dim]), tuple(parities))
    flavor = draw(st.sampled_from([TENSOR, EXTERIOR]))
    lines = ["flavor " + flavor, "space"] + [
        "  basis %s %s" % (n, "odd" if p else "even")
        for n, p in zip(space.names, space.parities)]
    for k in draw(st.lists(st.integers(1, 3), min_size=1, max_size=2,
                           unique=True)):
        lines += draw(blocks(space, flavor, "map m %d" % k, "m", k, k & 1))
    if draw(st.booleans()):
        pairs = draw(st.lists(
            st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1),
                      st.sampled_from(COEFFICIENTS + ("-1",))),
            min_size=1, max_size=3, unique_by=lambda e: e[:2]))
        lines.append("inner_product")
        lines += ["  <%s,%s> = %s" % (space.names[i], space.names[j], c)
                  for i, j, c in pairs]
    if draw(st.booleans()):
        k = draw(st.integers(1, 3))
        odd = draw(st.booleans())
        lines += draw(blocks(
            space, flavor, "deformation lam %d %s_parameter"
            % (k, "odd" if odd else "even"), "lam", k, (odd + k) & 1))
    return "\n".join(lines) + "\n", draw(st.sampled_from(FIELDS))


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, out.getvalue(), err.getvalue()


def rows(text):
    """(whether it validates, H row or None, HC row or None) of the
    structure of the text, with the rows of a structure of one arity that
    validates; None when the text does not parse or fails the parity
    check."""
    try:
        af = parse(text)
    except ParseError:
        return None
    s = build_structure(af, W_OF_V, DEFAULT_MAX_ARITY)
    try:
        ok = validate(s).ok
    except StructureError:
        return None
    if len(s.parts) != 1 or not ok:
        return ok, None, None
    h = [row.quotient for row in cohomology(s, WINDOW).rows]
    try:
        hc = [row.quotient for row in
              cyclic_cohomology(s, af.inner_product, WINDOW).rows]
    except InvarianceError:
        hc = None
    return ok, h, hc


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "file.alg")


@PROPERTY
@given(case=files())
def test_every_command_answers_every_file(path, case):
    body, field = case
    text = "field %s\n%s" % (field, body)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    for command in COMMANDS:
        for convention in ("w-of-v", "v-of-w"):
            status, out, err = call(command[:1] + [path] + command[1:]
                                    + ["--convention", convention])
            assert status in (0, 1, 2), (command, convention, text)
            if status == 2:
                assert out == "" and len(err.splitlines()) == 1, text
                assert err.startswith("error: "), text
    try:
        af = parse(text)
    except ParseError:
        return
    assert parse(serialize(af)) == af, text


@PROPERTY
@given(case=files())
def test_rows_over_a_prime_field_are_at_least_the_rows_over_q(case):
    body, _ = case
    over_q = rows("field Q\n" + body)
    if over_q is None or not over_q[0]:
        return
    for ell in PRIMES:
        over_ell = rows("field F %d\n%s" % (ell, body))
        if over_ell is None:
            continue
        assert over_ell[0], (ell, body)
        # a part may vanish mod l, leaving another number of arities
        if None in (over_q[1], over_ell[1]):
            continue
        assert all(x >= y for x, y in zip(over_ell[1], over_q[1])), \
            (ell, body)
        if ell > WINDOW[1] + 1 and None not in (over_q[2], over_ell[2]):
            assert all(x >= y for x, y in zip(over_ell[2], over_q[2])), \
                (ell, body)
