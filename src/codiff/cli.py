"""Command line interface.

    codiff validate FILE
    codiff bracket FILE [NAME [NAME2]]
    codiff cohomology FILE --window a..b
    codiff cyclic FILE --window a..b
    codiff deform FILE
    codiff convert FILE

Every command takes ``--convention w-of-v|v-of-w``.  The library computes
in w-of-v: a v-of-w file goes in through the involution σ of
``convert_convention_parts``, and the cochains printed back (``bracket``,
the ``validate`` residual) come out through it.

Exit status: 0 on success, 1 on a mathematical failure (relations violated,
non-invariant inner product, parity constraint), 2 on an input error (a
bad command line, an unreadable or malformed file, a bad window, an
unknown name, a part beyond ``--max-arity``, a window or a deformation
direction too large to build: the largest basis the command builds would
have more than ``homology.MAX_INDEX`` positions, which bounds the size of
the basis, not the running time), 3 on an internal error or lack of memory.  Every
refusal with exit 2 or 3 is one ``error:`` line on stderr, with nothing on
stdout and no traceback.
"""

from __future__ import annotations

import argparse
import sys

from .algfile import AlgebraFile, ParseError, parse, render_vector, serialize
from .cochain import vec_scale
from .coderivation import (V_OF_W, W_OF_V, convert_convention_parts,
                           family_bracket, sigma)
from .homology import (InvarianceError, WindowTooLarge, classify_deformation,
                       cohomology, cyclic_cohomology)
from .structures import (DEFAULT_MAX_ARITY, InfinityStructure,
                         StructureError, validate)

OK, MATH_FAIL, INPUT_ERROR, INTERNAL_ERROR = 0, 1, 2, 3

CONVENTION_FLAGS = {"w-of-v": W_OF_V, "v-of-w": V_OF_W}


class UsageError(Exception):
    """A command line the CLI refuses: a malformed window, names it cannot
    take or does not know, an unknown command."""


class _ArgumentParser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print its usage and exit, so
    that a bad command line is refused in one line like any input error."""

    def error(self, message):
        raise UsageError(message)


def _parse_window(text):
    parts = text.split("..")
    if len(parts) != 2:
        raise UsageError("window must look like 'a..b'")
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise UsageError(exc) from None
    if a < 0 or b < a:
        raise UsageError("window needs 0 <= a <= b")
    return (a, b)


def _in_core(parts, convention):
    """σ for v-of-w: a family of the file in the core's signs, and back."""
    return convert_convention_parts(parts) if convention == V_OF_W else parts


def build_structure(af, convention, max_arity):
    return InfinityStructure(af.flavor, af.space,
                             _in_core(af.parts, convention), max_arity)


def _emit(records, lines, fmt):
    if fmt == "json-lines":
        import json  # imported here, so text output never loads it
        return "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n"
    return "\n".join(lines) + "\n"


def run(command, af, convention=W_OF_V, window=(1, 4),
        max_arity=DEFAULT_MAX_ARITY, fmt="text", names=()):
    """Execute one command against a parsed file.  Returns (text, exit);
    an input error raises (StructureError, UsageError, WindowTooLarge)."""
    s = build_structure(af, convention, max_arity)
    directions = {name: _in_core(fam, convention)
                  for name, (_, fam) in af.deformations.items()}
    if command == "validate":
        return _cmd_validate(s, convention, fmt)
    if command == "bracket":
        return _cmd_bracket(s, directions, convention, names, fmt)
    if command in ("cohomology", "cyclic", "deform"):
        refusal = _refuse_invalid_base(s, command, fmt)
        if refusal is not None:
            return refusal
    if command == "cohomology":
        return _cmd_cohomology(s, window, fmt)
    if command == "cyclic":
        return _cmd_cyclic(s, af, window, fmt)
    if command == "deform":
        return _cmd_deform(s, af, directions, fmt)
    if command == "convert":
        return _cmd_convert(af, fmt)
    raise UsageError("unknown command %r" % command)


def _cmd_validate(s, convention, fmt):
    try:
        report = validate(s)
    except StructureError as exc:
        text = _emit([{"command": "validate", "ok": False, "error": str(exc)}],
                     ["validate: parity error: %s" % exc], fmt)
        return text, MATH_FAIL
    if report.ok:
        return _emit([{"command": "validate", "ok": True}],
                     ["validate: ok"], fmt), OK
    word = "(" + ",".join(report.letters) + ")"
    residual = render_vector(s.space, vec_scale(
        report.residual, sigma(report.n) if convention == V_OF_W else 1))
    rec = {"command": "validate", "ok": False, "n": report.n,
           "word": list(report.letters), "residual": residual}
    line = "validate: FAIL n=%d word=%s residual=%s" % (report.n, word, residual)
    return _emit([rec], [line], fmt), MATH_FAIL


def _family_lines(s, fam, label):
    lines = ["bracket %s:" % label]
    records = []
    entries = []
    for n in sorted(fam):
        c = fam[n]
        for t in sorted(c.coeffs):
            word = "(" + ",".join(s.space.names[i] for i in t) + ")"
            val = render_vector(s.space, c.coeffs[t])
            entries.append("  n=%d %s -> %s" % (n, word, val))
            records.append({"command": "bracket", "which": label, "n": n,
                            "word": [s.space.names[i] for i in t],
                            "value": val})
    if not entries:
        lines[0] = "bracket %s: zero" % label
        records.append({"command": "bracket", "which": label, "zero": True})
    else:
        lines.extend(entries)
    return lines, records


def _cmd_bracket(s, directions, convention, names, fmt):
    fams = {"m": s.parts, **directions}
    for n in names:
        if n not in fams:
            raise UsageError("unknown direction %r" % n)
    if not names:
        label, a, b = "{m,m}", s.parts, s.parts
    elif len(names) == 1:
        label, a, b = "{%s,m}" % names[0], fams[names[0]], s.parts
    else:
        label = "{%s,%s}" % (names[0], names[1])
        a, b = fams[names[0]], fams[names[1]]
    fam = _in_core(family_bracket(a, b), convention)
    lines, records = _family_lines(s, fam, label)
    return _emit(records, lines, fmt), OK


def _report_lines(kind, report, symbol):
    head = "%s window %d..%d graded_exact=%s" % (
        kind, report.window[0], report.window[1],
        "yes" if report.graded_exact else "no")
    lines = [head]
    records = []
    for row in report.rows:
        lines.append("degree %d: cocycles=%d coboundaries=%d %s=%d"
                     % (row.degree, row.cocycles, row.coboundaries, symbol,
                        row.quotient))
        records.append({"command": kind, "degree": row.degree,
                        "cocycles": row.cocycles,
                        "coboundaries": row.coboundaries,
                        symbol: row.quotient,
                        "graded_exact": report.graded_exact})
        if report.note:
            records[-1]["note"] = report.note
    if report.note:
        lines.append("note: %s" % report.note)
    return lines, records


def _cmd_cohomology(s, window, fmt):
    report = cohomology(s, window)
    lines, records = _report_lines("cohomology", report, "H")
    return _emit(records, lines, fmt), OK


def _cmd_cyclic(s, af, window, fmt):
    try:
        report = cyclic_cohomology(s, af.inner_product, window)
    except InvarianceError as exc:
        return _refuse_noninvariant("cyclic", exc, fmt)
    lines, records = _report_lines("cyclic", report, "HC")
    return _emit(records, lines, fmt), OK


def _refuse_noninvariant(command, exc, fmt):
    """(text, MATH_FAIL) for an inner product that is not invariant."""
    return _emit([{"command": command, "error": str(exc), "arity": exc.arity,
                   "word": list(exc.letters)}],
                 ["%s: %s" % (command, exc)], fmt), MATH_FAIL


def _refuse_invalid_base(s, command, fmt):
    """(text, MATH_FAIL) when the structure fails validation, else None:
    the complexes of an invalid structure are not complexes at all."""
    try:
        base = validate(s)
    except StructureError as exc:
        return _emit([{"command": command, "error": str(exc)}],
                     ["%s: base structure parity error: %s" % (command, exc)],
                     fmt), MATH_FAIL
    if base.ok:
        return None
    line = "%s: base structure does not validate (n=%d)" % (command, base.n)
    return _emit([{"command": command, "error": "base structure invalid",
                   "n": base.n}], [line], fmt), MATH_FAIL


def _cmd_deform(s, af, directions, fmt):
    lines, records = [], []
    for name in sorted(directions):
        try:
            cls = classify_deformation(s, directions[name], af.inner_product)
        except StructureError as exc:
            return _emit([{"command": "deform", "direction": name,
                           "error": str(exc)}],
                         ["deform %s: parity error: %s" % (name, exc)],
                         fmt), MATH_FAIL
        except InvarianceError as exc:
            return _refuse_noninvariant("deform", exc, fmt)
        except WindowTooLarge as exc:
            raise WindowTooLarge("deform %s: %s" % (name, exc)) from None
        def tri(x):
            return "undetermined" if x is None else ("yes" if x else "no")
        line = "deform %s: cocycle=%s coboundary=%s preserves_ip=%s" % (
            name, tri(cls.cocycle), tri(cls.coboundary), tri(cls.preserves_ip))
        if cls.note:
            line += "  # %s" % cls.note
        lines.append(line)
        records.append({"command": "deform", "direction": name,
                        "cocycle": cls.cocycle, "coboundary": cls.coboundary,
                        "preserves_ip": cls.preserves_ip, "note": cls.note})
    if not lines:
        lines = ["deform: no deformation directions in the file"]
        records = [{"command": "deform", "directions": 0}]
    return _emit(records, lines, fmt), OK


def _cmd_convert(af, fmt):
    parts = convert_convention_parts(af.parts)
    defos = {}
    for name, (parity, fam) in af.deformations.items():
        defos[name] = (parity, convert_convention_parts(fam))
    out = AlgebraFile(af.space, af.flavor, parts, dict(af.part_names),
                      af.inner_product, defos)
    text = serialize(out)
    if fmt == "json-lines":
        return _emit([{"command": "convert", "text": text}], [], fmt), OK
    return text, OK


def main(argv=None):
    ap = _ArgumentParser(
        prog="codiff",
        description="exact validation, cohomology and deformation reports for "
                    "homotopy associative and homotopy Lie structures")
    ap.add_argument("command",
                    choices=["validate", "bracket", "cohomology", "cyclic",
                             "deform", "convert"])
    ap.add_argument("file", help="algebra definition file")
    ap.add_argument("names", nargs="*", default=[],
                    help="deformation names for the bracket command")
    ap.add_argument("--convention", choices=sorted(CONVENTION_FLAGS),
                    default="w-of-v")
    ap.add_argument("--window", help="degree window a..b")
    ap.add_argument("--max-arity", type=int, default=DEFAULT_MAX_ARITY)
    ap.add_argument("--format", dest="fmt", choices=["text", "json-lines"],
                    default="text")
    try:
        args = ap.parse_args(argv)
        kw = {} if args.window is None else {
            "window": _parse_window(args.window)}
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
        if args.names and args.command != "bracket":
            raise UsageError("extra arguments are only meaningful for the "
                             "bracket command")
        if len(args.names) > 2:
            raise UsageError("bracket takes at most two names, got %d"
                             % len(args.names))
        out, status = run(args.command, parse(text),
                          convention=CONVENTION_FLAGS[args.convention],
                          max_arity=args.max_arity, fmt=args.fmt,
                          names=tuple(args.names), **kw)
    except UnicodeDecodeError as exc:
        sys.stderr.write("error: %s is not UTF-8 text: %s at byte %d\n"
                         % (args.file, exc.reason, exc.start))
        return INPUT_ERROR
    except (ParseError, StructureError, WindowTooLarge, OSError,
            UsageError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return INPUT_ERROR
    except (RuntimeError, MemoryError) as exc:
        sys.stderr.write("error: %s\n" % (str(exc) or type(exc).__name__))
        return INTERNAL_ERROR
    sys.stdout.write(out)
    return status


if __name__ == "__main__":
    sys.exit(main())
