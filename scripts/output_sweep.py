"""Print a digest of every CLI answer, so two checkouts can be compared.

    python scripts/output_sweep.py ROOT > sweep.txt

Runs ``validate``, ``bracket`` (with no names, then with each deformation
name of the file), ``cohomology`` and ``cyclic`` at window 0..3,
``deform``, ``deform --max-arity 1`` and ``convert``, on the
2-dimensional tensor inputs also ``cyclic`` at window 0..5, whose arity 6
is the first with rotation orbits of period 3, and on the inputs with more
than one ``map`` block also ``cohomology`` and ``cyclic`` at window 0..7,
where every row reads the sources of every degree in the window, and on
the exterior inputs whose letters are all even also ``cohomology`` and
``cyclic`` at window 0..12, past the middle degree, whose basis is the
largest the window builds (no such input is too large to answer), through
``codiff.cli.main`` of the checkout at ROOT (its ``src`` goes first on the
import path), on every ``tests/fixtures/*.alg`` and ``bench/inputs/*.alg``
file of that checkout, and on the inputs of ``INLINE``, which are written
to the temporary directory and so run on an older checkout too: three
exterior ones (two with odd letters, and one with an odd letter and two
arities, l_1 and l_2), which also run ``cohomology`` and ``cyclic`` at
window 0..12, whose tuples repeat an odd letter up to 13 times and more,
the tensor graded dual numbers (an odd letter and one arity), which
also run them at window 0..7, a tensor map of the wrong parity (a parity
error and three base refusals) and sl2 with a non-invariant form and a
direction, which ``deform`` refuses, over
Q, F_32003, F_2, F_3 and F_5 (the file's ``field Q`` line rewritten),
under both conventions, in text and json-lines.  A file with an ``inner_product`` block also runs ``deform``
with the block removed, which tests its directions in the plain complex.
Over Q each file that parses also runs ``validate``, ``cohomology``,
``cyclic``, ``deform`` and ``deform --max-arity 1`` after a fixed
non-integral diagonal change of basis (``rescaled``), so that the structure
has entries with denominators and its integer lift a factor N > 1 (a
failing ``validate`` prints its residual with denominators).
Each run prints one line: the arguments, the exit status, and digests of
stdout and stderr; a json-lines run adds ``json=ok``, or ``json=bad`` when
a line of its stdout is not JSON.  The CLI prints dimensions only, so each
``cohomology`` and ``cyclic`` run that exits 0 is followed by one line
with a digest of the library's representatives for the same arguments.
``diff`` of the outputs of two checkouts lists every run whose answer
changed.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import re
import sys
import tempfile
from fractions import Fraction

FIELDS = ("Q", "F 32003", "F 2", "F 3", "F 5")
CONVENTIONS = ("w-of-v", "v-of-w")
FORMATS = ("text", "json-lines")
SOURCES = ("tests/fixtures", "bench/inputs")
INNER_PRODUCT = re.compile(r"^inner_product\n(?:[ \t].*\n)*", re.M)
RESCALE = (Fraction(1, 2), Fraction(2, 3), Fraction(-3, 2))
RESCALED_COMMANDS = ("validate", "cohomology", "cyclic", "deform")

# exterior structures with odd letters, whose brackets and coboundaries
# carry the odd-odd reordering signs: the first validates (over Q its
# cohomology at 0..3 is 0, 1, 1, 1), the second fails at n = 3 on (u,u,v)
# with residual 2*u
ODD_LETTERS = """field Q
flavor exterior
space
  basis a even
  basis u odd
  basis v odd
map l 2
  l(a,u) = u
  l(a,v) = -v
%sdeformation lam 2 even_parameter
  lam(a,u) = u
"""
# an exterior structure with two arities and an odd letter: it validates,
# and over Q its cohomology at 0..4 is 1, 1, 0, 0, 0 and its cyclic
# cohomology is 0
TWO_ARITIES = """field Q
flavor exterior
space
  basis x even
  basis y odd
  basis z even
map d 1
  d(x) = y
map l 2
  l(x,z) = z
deformation lam 2 even_parameter
  lam(x,z) = z
"""
# the graded dual numbers k[u]/u^2 with u odd, a tensor structure with an
# odd letter and one arity: it validates under both conventions, and over Q
# its cohomology is 2 in each degree 0..7
GRADED_DUAL_NUMBERS = """field Q
flavor tensor
space
  basis 1 even
  basis u odd
map m 2
  m(1,1) = 1
  m(1,u) = u
  m(u,1) = u
"""
# a tensor map of the wrong parity (m(a,a) = u is odd): validate answers
# with a parity error, and cohomology, cyclic and deform refuse the base
WRONG_PARITY = """field Q
flavor tensor
space
  basis a even
  basis u odd
map m 2
  m(a,a) = u
"""
# sl2 with a form that is not invariant, and a direction: deform refuses
# the form, as cyclic does
NONINVARIANT_DIRECTION = """field Q
flavor exterior
space
  basis e even
  basis f even
  basis h even
map l 2
  l(e,f) = h
  l(e,h) = -2*e
  l(f,h) = 2*f
inner_product
  <e,e> = 1
  <f,f> = 1
  <h,h> = 1
deformation lam 2 even_parameter
  lam(e,f) = h
"""
INLINE = (("odd_letters.alg", ODD_LETTERS % ""),
          ("odd_letters_bracket.alg", ODD_LETTERS % "  l(u,v) = a\n"),
          ("two_arities.alg", TWO_ARITIES),
          ("graded_dual_numbers.alg", GRADED_DUAL_NUMBERS),
          ("wrong_parity.alg", WRONG_PARITY),
          ("noninvariant_direction.alg", NONINVARIANT_DIRECTION))
# the extra window of ``cohomology`` and ``cyclic`` on an inline input, if
# not 0..12; None for none
INLINE_WINDOW = {"graded_dual_numbers.alg": "0..7", "wrong_parity.alg": None,
                 "noninvariant_direction.alg": None}


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def is_json_lines(text):
    """Whether every line of the text is one JSON value."""
    try:
        for line in text.splitlines():
            json.loads(line)
    except ValueError:
        return False
    return True


def commands(text):
    """(command, extra arguments) for one input file with this text."""
    from codiff.algfile import ParseError, parse

    try:
        af = parse(text)
    except ParseError:
        af = None
    directions = sorted(af.deformations) if af else []
    wide = ([("cyclic", ["--window", "0..5"])]
            if af and af.flavor == "tensor" and af.space.dim == 2 else [])
    if af and len(af.parts) > 1:
        wide += [(command, ["--window", "0..7"])
                 for command in ("cohomology", "cyclic")]
    if af and af.flavor == "exterior" and not any(af.space.parities):
        wide += [(command, ["--window", "0..12"])
                 for command in ("cohomology", "cyclic")]
    return ([("validate", []), ("bracket", [])]
            + [("bracket", [d]) for d in directions]
            + [("cohomology", ["--window", "0..3"]),
               ("cyclic", ["--window", "0..3"])] + wide
            + [("deform", []), ("deform", ["--max-arity", "1"]),
               ("convert", [])])


def rescaled(text):
    """The file text in the basis f_i = d_i e_i, with d_i = RESCALE[i mod 3]
    (1/2, 2/3, -3/2), carried through every map, the inner product and
    every deformation: the same structure with non-integral entries.  None
    when the text does not parse."""
    from codiff.algfile import AlgebraFile, ParseError, parse, serialize
    from codiff.cochain import Cochain, InnerProduct

    try:
        af = parse(text)
    except ParseError:
        return None
    space = af.space
    d = [space.field(RESCALE[i % len(RESCALE)]) for i in range(space.dim)]

    def move(c):
        # c(f_t) = prod d_t c(e_t), written in the basis f: a diagonal change
        # keeps every canonical tuple canonical
        coeffs = {}
        for t, vec in c.coeffs.items():
            w = space.field(1)
            for x in t:
                w = w * d[x]
            coeffs[t] = {b: x * w / d[b] for b, x in vec.items()}
        return Cochain(space, c.flavor, c.degree, c.parity, coeffs)

    def family(parts):
        return {k: move(c) for k, c in parts.items()}
    ip = af.inner_product
    if ip is not None:
        ip = InnerProduct(space, [[x * d[i] * d[j] for j, x in enumerate(row)]
                                  for i, row in enumerate(ip.matrix)])
    return serialize(AlgebraFile(
        space, af.flavor, family(af.parts), dict(af.part_names), ip,
        {name: (parity, family(parts))
         for name, (parity, parts) in af.deformations.items()}))


def call(main, argv):
    """(status, stdout, stderr) of one in-process run; an escaping
    exception is recorded as status ``raised:<type>``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
        except Exception as exc:  # noqa: BLE001 -- a crash is an answer too
            status = "raised:%s" % type(exc).__name__
    return status, out.getvalue(), err.getvalue()


def representatives(command, text, window, convention):
    """A digest of the representatives that ``cohomology`` or
    ``cyclic_cohomology`` returns for the file text at this window, under
    this convention, row by row; an escaping exception is recorded as
    ``raised:<type>``."""
    from codiff.algfile import parse
    from codiff.cli import CONVENTION_FLAGS, build_structure
    from codiff.homology import cohomology, cyclic_cohomology
    from codiff.structures import DEFAULT_MAX_ARITY

    window = tuple(int(x) for x in window.split(".."))
    try:
        af = parse(text)
        s = build_structure(af, CONVENTION_FLAGS[convention],
                            DEFAULT_MAX_ARITY)
        if command == "cohomology":
            report = cohomology(s, window)
        else:
            report = cyclic_cohomology(s, af.inner_product, window)
    except Exception as exc:  # noqa: BLE001 -- a crash is an answer too
        return "raised:%s" % type(exc).__name__
    return digest(repr([(row.degree, [sorted(rep.coeffs.items())
                                      for rep in row.representatives])
                        for row in report.rows]))


def write(path, text):
    """Write the text to the relative path; returns the path."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def sweep(root):
    sys.path.insert(0, os.path.join(root, "src"))
    from codiff.cli import main

    inputs = []
    for src in SOURCES:
        for name in sorted(os.listdir(os.path.join(root, src))):
            if name.endswith(".alg"):
                with open(os.path.join(root, src, name),
                          encoding="utf-8") as fh:
                    inputs.append((src, name, fh.read(), None))
    inputs += [("inline", name, text, INLINE_WINDOW.get(name, "0..12"))
               for name, text in INLINE]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        # relative paths keep any path in an error message the same in
        # every checkout
        os.chdir(tmp)
        try:
            for src, name, source, window in inputs:
                for field in FIELDS:
                    path = os.path.join(field.replace(" ", ""), src, name)
                    local = re.sub(r"^field Q$", "field " + field, source,
                                   flags=re.M)
                    runs = [(path, local, command, extra)
                            for command, extra in commands(local)]
                    if window:
                        runs += [(path, local, command, ["--window", window])
                                 for command in ("cohomology", "cyclic")]
                    write(path, local)
                    plain = INNER_PRODUCT.sub("", local)
                    if plain != local:
                        runs.append((write(os.path.join(
                            "no_inner_product", path), plain), plain,
                            "deform", []))
                    moved = rescaled(local) if field == "Q" else None
                    if moved is not None:
                        moved_path = write(os.path.join("rescaled", path),
                                           moved)
                        runs += [(moved_path, moved, command, extra)
                                 for command, extra in commands(moved)
                                 if command in RESCALED_COMMANDS]
                    for (path, text, command, extra), convention in \
                            itertools.product(runs, CONVENTIONS):
                        for fmt in FORMATS:
                            argv = ([command, path] + extra
                                    + ["--convention", convention,
                                       "--format", fmt])
                            status, out, err = call(main, argv)
                            line = "%s status=%s out=%s err=%s" % (
                                " ".join(argv), status, digest(out),
                                digest(err))
                            if fmt == "json-lines":
                                line += " json=%s" % (
                                    "ok" if is_json_lines(out) else "bad")
                            print(line, flush=True)
                        if command in ("cohomology", "cyclic") and status == 0:
                            print("%s %s %s --convention %s representatives=%s"
                                  % (command, path, " ".join(extra),
                                     convention,
                                     representatives(command, text,
                                                     extra[-1], convention)),
                                  flush=True)
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: output_sweep.py ROOT")
    sweep(os.path.abspath(sys.argv[1]))
