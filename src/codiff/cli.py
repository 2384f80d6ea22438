"""Command line interface.

    codiff validate FILE [--convention ...] [--format ...]
    codiff bracket FILE [NAME [NAME2]]
    codiff cohomology FILE --window a..b
    codiff cyclic FILE --window a..b
    codiff deform FILE
    codiff convert FILE

Exit status: 0 on success, 1 on a mathematical failure (relations violated,
non-invariant inner product, parity constraint), 2 on an input error.
"""

from __future__ import annotations

import argparse
import sys

from .algfile import AlgebraFile, ParseError, parse, render_vector, serialize
from .coderivation import V_OF_W, W_OF_V, family_bracket
from .homology import (InvarianceError, classify_deformation, cohomology,
                       cyclic_cohomology)
from .reversion import convert_convention_parts
from .structures import (FLAVOR_KIND, InfinityStructure, StructureError,
                         validate)

OK, MATH_FAIL, INPUT_ERROR = 0, 1, 2

CONVENTION_FLAGS = {"w-of-v": W_OF_V, "v-of-w": V_OF_W}


def _parse_window(text):
    parts = text.split("..")
    if len(parts) != 2:
        raise ValueError("window must look like 'a..b'")
    a, b = int(parts[0]), int(parts[1])
    if a < 0 or b < a:
        raise ValueError("window needs 0 <= a <= b")
    return (a, b)


def build_structure(af, convention, max_arity):
    kind = FLAVOR_KIND[af.flavor]
    return InfinityStructure(kind, af.space, dict(af.parts), convention,
                             max_arity)


def _emit(records, lines, fmt):
    if fmt == "json-lines":
        import json  # imported here, so text output never loads it
        return "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n"
    return "\n".join(lines) + "\n"


def run(command, af, convention=W_OF_V, window=(1, 4), max_arity=8,
        fmt="text", names=()):
    """Execute one command against a parsed file.  Returns (text, exit)."""
    try:
        s = build_structure(af, convention, max_arity)
    except StructureError as exc:
        return "error: %s\n" % exc, INPUT_ERROR
    if command == "validate":
        return _cmd_validate(s, fmt)
    if command == "bracket":
        return _cmd_bracket(s, af, names, fmt)
    if command in ("cohomology", "cyclic", "deform"):
        refusal = _refuse_invalid_base(s, command, fmt)
        if refusal is not None:
            return refusal
    if command == "cohomology":
        return _cmd_cohomology(s, window, fmt)
    if command == "cyclic":
        return _cmd_cyclic(s, af, window, fmt)
    if command == "deform":
        return _cmd_deform(s, af, fmt)
    if command == "convert":
        return _cmd_convert(af, fmt)
    return "error: unknown command %r\n" % command, INPUT_ERROR


def _cmd_validate(s, fmt):
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
    residual = render_vector(s.space, report.residual)
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


def _cmd_bracket(s, af, names, fmt):
    fams = {"m": s.parts}
    for name, (_, fam) in af.deformations.items():
        fams[name] = fam
    chosen = list(names) if names else []
    for n in chosen:
        if n not in fams:
            return "error: unknown direction %r\n" % n, INPUT_ERROR
    if not chosen:
        label, a, b = "{m,m}", s.parts, s.parts
    elif len(chosen) == 1:
        label, a, b = "{%s,m}" % chosen[0], fams[chosen[0]], s.parts
    else:
        label = "{%s,%s}" % (chosen[0], chosen[1])
        a, b = fams[chosen[0]], fams[chosen[1]]
    fam = family_bracket(a, b, convention=s.convention)
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
        rec = [{"command": "cyclic", "error": str(exc),
                "arity": exc.arity, "word": list(exc.letters)}]
        return _emit(rec, ["cyclic: %s" % exc], fmt), MATH_FAIL
    lines, records = _report_lines("cyclic", report, "HC")
    return _emit(records, lines, fmt), OK


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


def _cmd_deform(s, af, fmt):
    lines, records = [], []
    for name in sorted(af.deformations):
        _, fam = af.deformations[name]
        try:
            cls = classify_deformation(s, fam, af.inner_product)
        except StructureError as exc:
            return _emit([{"command": "deform", "direction": name,
                           "error": str(exc)}],
                         ["deform %s: parity error: %s" % (name, exc)],
                         fmt), MATH_FAIL
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
    ap = argparse.ArgumentParser(
        prog="codiff",
        description="exact validation, cohomology and deformation reports for "
                    "homotopy associative and homotopy Lie structures")
    ap.add_argument("command",
                    choices=["validate", "bracket", "cohomology", "cyclic",
                             "deform", "convert"])
    ap.add_argument("file", help="algebra definition file")
    ap.add_argument("names", nargs="*",
                    help="deformation names for the bracket command")
    ap.add_argument("--convention", choices=sorted(CONVENTION_FLAGS),
                    default="w-of-v")
    ap.add_argument("--window", default="1..4", help="degree window a..b")
    ap.add_argument("--max-arity", type=int, default=8)
    ap.add_argument("--format", dest="fmt", choices=["text", "json-lines"],
                    default="text")
    args = ap.parse_args(argv)
    try:
        window = _parse_window(args.window)
    except ValueError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return INPUT_ERROR
    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return INPUT_ERROR
    except UnicodeDecodeError as exc:
        sys.stderr.write("error: %s is not UTF-8 text: %s at byte %d\n"
                         % (args.file, exc.reason, exc.start))
        return INPUT_ERROR
    if args.names and args.command != "bracket":
        sys.stderr.write("error: extra arguments are only meaningful for "
                         "the bracket command\n")
        return INPUT_ERROR
    try:
        af = parse(text)
    except ParseError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return INPUT_ERROR
    out, status = run(args.command, af,
                      convention=CONVENTION_FLAGS[args.convention],
                      window=window, max_arity=args.max_arity, fmt=args.fmt,
                      names=tuple(args.names))
    sys.stdout.write(out)
    return status


if __name__ == "__main__":
    sys.exit(main())
