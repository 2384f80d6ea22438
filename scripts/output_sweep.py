"""Print a digest of every CLI answer, so two checkouts can be compared.

    python scripts/output_sweep.py ROOT > sweep.txt

Runs ``validate``, ``bracket`` (with no names, then with each deformation
name of the file), ``cohomology`` and ``cyclic`` at window 0..3,
``deform``, ``deform --max-arity 1`` and ``convert``, through
``codiff.cli.main`` of the checkout at ROOT (its ``src`` goes first on the
import path), on every ``tests/fixtures/*.alg`` and ``bench/inputs/*.alg``
file of that checkout, over Q, F_32003, F_2, F_3 and F_5 (the file's
``field Q`` line rewritten), under both conventions, in text and
json-lines.  A file with an ``inner_product`` block also runs ``deform``
with the block removed, which tests its directions in the plain complex.
``cohomology`` of gl3 runs at 0..2 only, which keeps the sweep short.
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

FIELDS = ("Q", "F 32003", "F 2", "F 3", "F 5")
CONVENTIONS = ("w-of-v", "v-of-w")
FORMATS = ("text", "json-lines")
SOURCES = ("tests/fixtures", "bench/inputs")
INNER_PRODUCT = re.compile(r"^inner_product\n(?:[ \t].*\n)*", re.M)


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


def commands(name, text):
    """(command, extra arguments) for one input file with this text."""
    from codiff.algfile import ParseError, parse

    try:
        directions = sorted(parse(text).deformations)
    except ParseError:
        directions = []
    window = "0..2" if name == "gl3.alg" else "0..3"
    return ([("validate", []), ("bracket", [])]
            + [("bracket", [d]) for d in directions]
            + [("cohomology", ["--window", window]),
               ("cyclic", ["--window", "0..3"]), ("deform", []),
               ("deform", ["--max-arity", "1"]), ("convert", [])])


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

    inputs = [(src, name) for src in SOURCES
              for name in sorted(os.listdir(os.path.join(root, src)))
              if name.endswith(".alg")]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        # relative paths keep any path in an error message the same in
        # every checkout
        os.chdir(tmp)
        try:
            for src, name in inputs:
                with open(os.path.join(root, src, name),
                          encoding="utf-8") as fh:
                    text = fh.read()
                for field in FIELDS:
                    path = os.path.join(field.replace(" ", ""), src, name)
                    local = re.sub(r"^field Q$", "field " + field, text,
                                   flags=re.M)
                    runs = [(path, command, extra)
                            for command, extra in commands(name, local)]
                    write(path, local)
                    plain = INNER_PRODUCT.sub("", local)
                    if plain != local:
                        runs.append((write(os.path.join(
                            "no_inner_product", path), plain), "deform", []))
                    for (path, command, extra), convention in \
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
                                     representatives(command, local,
                                                     extra[-1], convention)),
                                  flush=True)
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: output_sweep.py ROOT")
    sweep(os.path.abspath(sys.argv[1]))
