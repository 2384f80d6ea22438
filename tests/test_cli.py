import functools
import importlib.util
import json
import os
import re
import subprocess
import sys
import time

import pytest

import codiff.cli
from codiff.algfile import parse
from codiff.blocks import OUTSIDE
from codiff.cli import build_structure, main, run
from codiff.cochain import vec_add
from codiff.coderivation import W_OF_V
from codiff.fields import PRIME_BOUND
from codiff.homology import _CyclicComplex, _PlainComplex
from codiff.structures import validate
from conftest import (gl_text, make_cochain, matrix_algebra_text, rescale,
                      shear)

HERE = os.path.dirname(__file__)
FIXTURES = os.path.join(HERE, "fixtures")
GOLDEN = os.path.join(HERE, "golden")


def load(name):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
        return parse(fh.read())


def golden(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        return fh.read()


GOLDEN_CASES = [
    ("validate_sl2.txt", "validate", "sl2.alg", {}, 0),
    ("validate_nonassociative.txt", "validate", "nonassociative.alg", {}, 1),
    ("validate_dual.txt", "validate", "dual_numbers.alg", {}, 0),
    ("validate_dga.txt", "validate", "koszul_dga.alg", {}, 0),
    ("cohomology_sl2.txt", "cohomology", "sl2.alg", {"window": (0, 3)}, 0),
    ("cohomology_dual.txt", "cohomology", "dual_numbers.alg", {"window": (1, 3)}, 0),
    ("cohomology_dga.txt", "cohomology", "koszul_dga.alg", {"window": (1, 2)}, 0),
    ("cyclic_sl2.txt", "cyclic", "sl2.alg", {"window": (0, 3)}, 0),
    ("cyclic_noninvariant.txt", "cyclic", "noninvariant.alg", {"window": (0, 2)}, 1),
    ("deform_sl2.txt", "deform", "sl2.alg", {}, 0),
    ("deform_dual.txt", "deform", "dual_numbers.alg", {}, 0),
    ("deform_abelian2.txt", "deform", "abelian2.alg", {}, 0),
    ("bracket_nonassociative.txt", "bracket", "nonassociative.alg", {}, 0),
    ("bracket_sl2_lam.txt", "bracket", "sl2.alg", {"names": ("lam",)}, 0),
    ("convert_sl2.txt", "convert", "sl2.alg", {}, 0),
    ("convert_dga.txt", "convert", "koszul_dga.alg", {}, 0),
    ("validate_sl2.jsonl", "validate", "sl2.alg", {"fmt": "json-lines"}, 0),
    ("cohomology_sl2.jsonl", "cohomology", "sl2.alg",
     {"window": (0, 3), "fmt": "json-lines"}, 0),
    ("deform_sl2.jsonl", "deform", "sl2.alg", {"fmt": "json-lines"}, 0),
    ("cyclic_dga.txt", "cyclic", "koszul_dga.alg", {"window": (0, 3)}, 0),
    ("cyclic_dga.jsonl", "cyclic", "koszul_dga.alg",
     {"window": (0, 3), "fmt": "json-lines"}, 0),
]


@pytest.mark.parametrize("golden_name,command,fixture,kw,want_status",
                         GOLDEN_CASES)
def test_golden(golden_name, command, fixture, kw, want_status):
    text, status = run(command, load(fixture), **kw)
    assert status == want_status
    assert text == golden(golden_name)


@pytest.mark.parametrize("golden_name,command,fixture,kw,want_status",
                         GOLDEN_CASES)
def test_byte_identical_rerun(golden_name, command, fixture, kw, want_status):
    first, _ = run(command, load(fixture), **kw)
    second, _ = run(command, load(fixture), **kw)
    assert first == second


def test_convert_round_trips_to_original():
    from codiff.algfile import serialize
    af = load("sl2.alg")
    once, status = run("convert", af, fmt="text")
    assert status == 0
    twice, status = run("convert", parse(once), fmt="text")
    assert twice == serialize(af)


def test_convert_output_validates_under_other_convention():
    from codiff.coderivation import V_OF_W
    for fixture in ("sl2.alg", "koszul_dga.alg", "dual_numbers.alg"):
        converted, _ = run("convert", load(fixture))
        text, status = run("validate", parse(converted), convention=V_OF_W)
        assert status == 0, (fixture, text)


def assert_refused(capsys, argv, err):
    """main refuses argv with exit 2 and the one stderr line err, and
    prints nothing on stdout, in text and in json-lines alike."""
    for fmt in ("text", "json-lines"):
        assert main(argv + ["--format", fmt]) == 2
        assert capsys.readouterr() == ("", err)


def test_unknown_bracket_direction(capsys):
    assert_refused(capsys, ["bracket", os.path.join(FIXTURES, "sl2.alg"),
                            "nope"], "error: unknown direction 'nope'\n")


def test_max_arity_cap_is_input_error(capsys):
    assert_refused(capsys, ["validate", os.path.join(FIXTURES, "sl2.alg"),
                            "--max-arity", "1"],
                   "error: arity 2 beyond the max_arity cap 1\n")


@pytest.mark.parametrize("fixture", sorted(
    name for name in os.listdir(FIXTURES) if name.endswith(".alg")))
def test_json_lines_stdout_is_json(fixture, capsys):
    """Every line a command prints on stdout under --format json-lines is
    a JSON record, whether it answers or refuses."""
    path = os.path.join(FIXTURES, fixture)
    for argv in (["validate"], ["bracket"], ["bracket", "no-such-name"],
                 ["cohomology"], ["cyclic"], ["deform"],
                 ["deform", "--max-arity", "1"], ["convert"]):
        main(argv[:1] + [path] + argv[1:] + ["--format", "json-lines"])
        for line in capsys.readouterr().out.splitlines():
            json.loads(line)


ONE_LETTER = ("field Q\nflavor tensor\nspace\n  basis x even\nmap m 2\n"
              "  m(x,x) = x\n%sdeformation lam 2 even_parameter\n"
              "  lam(x,x) = 0\n")


@pytest.mark.parametrize("form,fmt,want", [
    ("", "text", "deform lam: cocycle=yes coboundary=yes "
                 "preserves_ip=undetermined  # zero direction\n"),
    ("inner_product\n  <x,x> = 1\n", "json-lines",
     '{"coboundary": true, "cocycle": true, "command": "deform", '
     '"direction": "lam", "note": "zero direction", "preserves_ip": true}\n'),
], ids=["text", "json-lines-with-form"])
def test_zero_direction(tmp_path, capsys, form, fmt, want):
    path = tmp_path / "zero.alg"
    path.write_text(ONE_LETTER % form, encoding="utf-8")
    assert main(["deform", str(path), "--format", fmt]) == 0
    assert capsys.readouterr() == (want, "")


@pytest.mark.parametrize("command", ["cohomology", "cyclic", "deform"])
@pytest.mark.parametrize("fmt,want", [
    ("text", "%s: base structure does not validate (n=3)\n"),
    ("json-lines", '{"command": "%s", "error": "base structure invalid", '
                   '"n": 3}\n'),
], ids=["text", "json-lines"])
def test_invalid_structure_is_refused(command, fmt, want):
    text, status = run(command, load("nonassociative.alg"), window=(0, 3),
                       fmt=fmt)
    assert (text, status) == (want % command, 1)


NONINVARIANT = ("inner product is not invariant: part of arity 2 fails the "
                "cyclic identity at (e,h,e)")


@pytest.mark.parametrize("fmt,want", [
    ("text", "deform: %s\n" % NONINVARIANT),
    ("json-lines", '{"arity": 2, "command": "deform", "error": "%s", '
                   '"word": ["e", "h", "e"]}\n' % NONINVARIANT),
], ids=["text", "json-lines"])
def test_deform_refuses_a_noninvariant_form(fmt, want):
    """As cyclic does: a form that is not invariant defines no cyclic
    complex to classify the direction lam = l in."""
    with open(os.path.join(FIXTURES, "noninvariant.alg"),
              encoding="utf-8") as fh:
        text = fh.read() + ("deformation lam 2 even_parameter\n"
                            "  lam(e,f) = h\n  lam(e,h) = -2*e\n"
                            "  lam(f,h) = 2*f\n")
    assert run("deform", parse(text), fmt=fmt) == (want, 1)


REPEATED_EVEN = """field F %d
flavor exterior
space
  basis c even
inner_product
  <c,c> = 1
deformation lam 1 odd_parameter
  lam(c) = c
"""


@pytest.mark.parametrize("p", [2, 3])
def test_deform_refuses_a_form_on_a_repeated_even_letter(tmp_path, capsys,
                                                         p):
    """The direction's scalar form is 1 at (c,c), so it is not alternating.
    Over F_2, where 1 = -1, antisymmetry cannot see that, and the exterior
    cyclicity test names the repeated even letter itself: deform answers
    as over F_3, where it never reaches the cyclic complex."""
    path = tmp_path / "c.alg"
    path.write_text(REPEATED_EVEN % p, encoding="utf-8")
    assert main(["deform", str(path)]) == 0
    assert capsys.readouterr() == (
        "deform lam: cocycle=yes coboundary=no preserves_ip=no  # direction "
        "is not cyclic, so it cannot be a coboundary in the cyclic "
        "complex\n", "")


WRONG_PARITY = """field Q
flavor tensor
space
  basis a even
  basis u odd
map m 2
  m(a,a) = u
"""
PART_PARITY = "part of arity 2 has parity 1, an odd codifferential needs 0"
MIXED_PARAMETER = "direction parts do not share a parameter parity"


def assert_one_answer(answer, fmt, line, record):
    """run's (text, status) is the exit-1 answer: the one line in text, the
    one JSON record in json-lines."""
    text, status = answer
    want = line if fmt == "text" else json.dumps(record, sort_keys=True)
    assert (text, status) == (want + "\n", 1)
    assert len(text.splitlines()) == 1


@pytest.mark.parametrize("fmt", ["text", "json-lines"])
def test_validate_refuses_a_part_of_the_wrong_parity(fmt):
    assert_one_answer(
        run("validate", parse(WRONG_PARITY), fmt=fmt), fmt,
        "validate: parity error: %s" % PART_PARITY,
        {"command": "validate", "ok": False, "error": PART_PARITY})


@pytest.mark.parametrize("command", ["cohomology", "cyclic", "deform"])
@pytest.mark.parametrize("fmt", ["text", "json-lines"])
def test_a_base_of_the_wrong_parity_is_refused(command, fmt):
    assert_one_answer(
        run(command, parse(WRONG_PARITY), window=(0, 2), fmt=fmt), fmt,
        "%s: base structure parity error: %s" % (command, PART_PARITY),
        {"command": command, "error": PART_PARITY})


@pytest.mark.parametrize("fmt", ["text", "json-lines"])
def test_deform_refuses_a_direction_of_two_parameter_parities(fmt):
    """The parser gives each direction one parameter parity, so only a
    file built in code reaches this answer: lam's arity-2 part needs an
    even parameter and its arity-3 part, of the same parity, an odd one."""
    af = load("dual_numbers.alg")
    lam = {k: make_cochain(af.space, af.flavor, k, 0,
                           {("x",) * k: {"1": 1}}) for k in (2, 3)}
    af.deformations = {"lam": (0, lam)}
    assert_one_answer(
        run("deform", af, fmt=fmt), fmt,
        "deform lam: parity error: %s" % MIXED_PARAMETER,
        {"command": "deform", "direction": "lam", "error": MIXED_PARAMETER})


@pytest.mark.parametrize("names", [["m"], ["m", "m"], ["m", "lam"]])
def test_bracket_refuses_a_direction_named_m(tmp_path, capsys, names):
    """A direction named m would take the structure's name: its bracket
    with m would print under the label {m,m}."""
    with open(os.path.join(FIXTURES, "dual_numbers.alg"),
              encoding="utf-8") as fh:
        text = fh.read() + "deformation m 2 even_parameter\n  m(1,x) = 1\n"
    path = tmp_path / "dual_m.alg"
    path.write_text(text, encoding="utf-8")
    assert_refused(capsys, ["bracket", str(path)] + names,
                   "error: the name 'm' is both the structure and a "
                   "deformation direction\n")
    assert main(["bracket", str(path), "lam"]) == 0
    assert capsys.readouterr().out.startswith("bracket {lam,m}:")


def over_field(text, field):
    return re.sub(r"^field Q$", "field " + field, text, flags=re.M)


FIXTURE_FILES = sorted(f for f in os.listdir(FIXTURES) if f.endswith(".alg"))


@pytest.mark.parametrize("fixture", FIXTURE_FILES)
def test_q_and_large_prime_agree(fixture, tmp_path, capsys):
    path = os.path.join(FIXTURES, fixture)
    with open(path, encoding="utf-8") as fh:
        modular = tmp_path / fixture
        modular.write_text(over_field(fh.read(), "F 32003"), encoding="utf-8")
    for command in ("cohomology", "cyclic", "deform"):
        outs = []
        for f in (path, str(modular)):
            status = main([command, f, "--window", "0..3"])
            outs.append((capsys.readouterr().out, status))
        assert outs[0] == outs[1], (command, outs)


BENCH_INPUTS = os.path.join(HERE, os.pardir, "bench", "inputs")
MIXED_NOTE = ("mixed arities: the complex does not split by degree; "
              "coboundary dimensions are truncated to sources in the window")
SMALL_P_NOTE = ("characteristic %d <= %d, the largest arity in the window: "
                "the lambda-complex need not compute cyclic cohomology")
CHAR2_NOTE = ("characteristic 2: the L-infinity guarantees (D^2 = 0, the "
              "bracket routes) hold only away from characteristic 2")


def load_over(path, field):
    with open(path, encoding="utf-8") as fh:
        return parse(over_field(fh.read(), field))


def quotients(text, symbol):
    return [int(m) for m in re.findall(r" %s=(\d+)$" % symbol, text, re.M)]


def m2_text(field):
    """2x2 matrices with m(eij, ejk) = eik, the trace form and the
    deformation lam = m."""
    names = ["e%d%d" % (i, j) for i in (1, 2) for j in (1, 2)]
    products = ["(e%d%d,e%d%d) = e%d%d" % (i, j, j, k, i, k)
                for i in (1, 2) for j in (1, 2) for k in (1, 2)]
    return "\n".join(
        ["field " + field, "flavor tensor", "space"]
        + ["  basis %s even" % n for n in names]
        + ["map m 2"] + ["  m" + p for p in products]
        + ["inner_product"]
        + ["  <e%d%d,e%d%d> = 1" % (i, j, j, i)
           for i in (1, 2) for j in (1, 2)]
        + ["deformation lam 2 even_parameter"]
        + ["  lam" + p for p in products]) + "\n"


def test_m2_cyclic_cohomology_over_f3_is_morita_invariant():
    # HC(M2) = HC(k) = 1,0,1,0 in the lambda-complex over F_3 as over Q
    text, status = run("cyclic", parse(m2_text("F 3")), window=(0, 3))
    assert status == 0
    lines = text.splitlines()
    assert [line.rsplit("HC=", 1)[1] for line in lines[1:5]] == \
        ["1", "0", "1", "0"]
    assert lines[5:] == ["note: " + SMALL_P_NOTE % (3, 4)]


@pytest.mark.parametrize("name", ["m2", "dual_numbers"])
def test_deform_with_trace_form_over_f3(name):
    # the directions are cyclic cochains outside the span of rotation
    # averages, so their coordinates need the full cyclic basis
    if name == "m2":
        text = m2_text("F 3")
    else:
        with open(os.path.join(FIXTURES, "dual_numbers.alg"),
                  encoding="utf-8") as fh:
            text = over_field(fh.read(), "F 3")
    out, status = run("deform", parse(text))
    assert status == 0
    assert out.startswith("deform lam: cocycle=yes coboundary=no "
                          "preserves_ip=yes")


class TestMainEntryPoint:
    def path(self, name):
        return os.path.join(FIXTURES, name)

    def test_exit_codes(self, capsys):
        assert main(["validate", self.path("sl2.alg")]) == 0
        assert main(["validate", self.path("nonassociative.alg")]) == 1
        assert main(["validate", self.path("bad_name.alg")]) == 2
        assert main(["cohomology", self.path("sl2.alg"),
                     "--window", "0..2"]) == 0
        assert main(["cohomology", self.path("bad_name.alg")]) == 2
        assert main(["cyclic", self.path("sl2.alg"), "--window", "0..2"]) == 0
        assert main(["cyclic", self.path("noninvariant.alg")]) == 1
        assert main(["deform", self.path("sl2.alg")]) == 0
        assert main(["deform", self.path("bad_name.alg")]) == 2
        assert main(["bracket", self.path("sl2.alg")]) == 0
        assert main(["bracket", self.path("bad_name.alg")]) == 2
        assert main(["convert", self.path("sl2.alg")]) == 0
        assert main(["convert", self.path("bad_name.alg")]) == 2
        capsys.readouterr()

    def test_missing_file(self, capsys):
        assert main(["validate", self.path("absent.alg")]) == 2
        capsys.readouterr()

    def test_file_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin.alg"
        path.write_bytes(b"field Q\n\xff\xfe bad\n")
        for command in ("validate", "cohomology"):
            assert main([command, str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == ("error: %s is not UTF-8 text: invalid "
                                    "start byte at byte 8\n" % path)

    def test_bad_window(self, capsys):
        assert main(["cohomology", self.path("sl2.alg"),
                     "--window", "3..1"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("fmt", ["text", "json-lines"])
    def test_window_too_large_is_one_line_and_exit_2(self, fmt):
        """Refused from the closed-form size of its top index, before any
        basis is built: the command ends at once with nothing on stdout."""
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "codiff.cli", "cohomology",
             os.path.join(BENCH_INPUTS, "m2.alg"),
             "--window", "0..99999999999999999999999", "--format", fmt],
            capture_output=True, text=True, timeout=60)
        assert time.perf_counter() - start < 2
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            "error: window 0..99999999999999999999999: its "
            "degree-100000000000000000000000 basis would have "
            "4^100000000000000000000001 positions, more than 1000000\n")

    @pytest.mark.parametrize("fmt", ["text", "json-lines"])
    def test_deform_too_large_is_one_line_and_exit_2(self, tmp_path, fmt):
        """Ten even letters and a degree-6 direction: its coboundary test
        would build the degree-6 index, 10^7 entries, so it is refused
        before any basis is built."""
        path = tmp_path / "ten.alg"
        path.write_text("\n".join(
            ["field Q", "flavor tensor", "space"]
            + ["  basis x%d even" % i for i in range(10)]
            + ["map m 2", "  m(x0,x0) = x0",
               "deformation lam 6 even_parameter",
               "  lam(x0,x0,x0,x0,x0,x0) = x1"]) + "\n", encoding="utf-8")
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "codiff.cli", "deform", str(path),
             "--format", fmt], capture_output=True, text=True, timeout=60)
        assert time.perf_counter() - start < 2
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            "error: deform lam: direction of degree 6: its degree-6 basis "
            "would have 10^7 = 10000000 positions, more than 1000000\n")

    @pytest.mark.parametrize("command", ["cohomology", "cyclic"])
    @pytest.mark.parametrize("window, degree", [("0..12", 13), ("0..26", 12)])
    def test_a_window_past_the_middle_degree_is_refused(
            self, tmp_path, monkeypatch, capsys, command, window, degree):
        """gl5 has 25 even letters, so its degree-d basis has 25 * C(25, d)
        positions, most at d = 12 and 13.  At 0..12 the top, degree 13, is
        refused; at 0..26 the top is empty, and the middle degree the
        window builds is refused before any basis is built."""
        for complex_ in (_PlainComplex, _CyclicComplex):
            monkeypatch.setattr(complex_, "_build_basis", lambda cx, p:
                                pytest.fail("built the degree-%d basis" % p))
        path = tmp_path / "gl5.alg"
        path.write_text(gl_text(5), encoding="utf-8")
        assert_refused(capsys, [command, str(path), "--window", window], (
            "error: window %s: its degree-%d basis would have 25*5200300 = "
            "130007500 positions, more than 1000000\n" % (window, degree)))

    def test_bracket_takes_at_most_two_names(self, capsys):
        assert main(["bracket", self.path("sl2.alg"), "lam", "lam"]) == 0
        capsys.readouterr()
        assert main(["bracket", self.path("sl2.alg"), "lam", "lam",
                     "lam"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: bracket takes at most two names, "
                                "got 3\n")

    @pytest.mark.parametrize("argv,want", [
        ([], "error: the following arguments are required: command, file\n"),
        (["frobnicate", "sl2.alg"], None),
        (["validate", "sl2.alg", "--convention", "sideways"], None),
        (["validate", "sl2.alg", "--max-arity", "two"], None),
        (["cohomology", "sl2.alg", "--window", "-1..2"],
         "error: argument --window: expected one argument\n"),
    ], ids=["none", "command", "convention", "max-arity", "window"])
    def test_bad_command_line_is_one_line_and_exit_2(self, capsys, argv,
                                                     want):
        """argparse's own refusals, whose wording differs between Python
        versions except where it is given."""
        argv = [self.path(a) if a.endswith(".alg") else a for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")
        assert want is None or captured.err == want

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: codiff")

    def test_window_too_large_in_process(self, tmp_path, capsys):
        # two even and two odd letters: the degree-d exterior tuples number
        # K(d) = (d + 1) + 2d + (d - 1) = 4d, as odd letters repeat
        path = tmp_path / "odd.alg"
        path.write_text("\n".join(
            ["field Q", "flavor exterior", "space", "  basis a even",
             "  basis b even", "  basis u odd", "  basis v odd", "map l 2",
             "  l(a,b) = a"]) + "\n", encoding="utf-8")
        assert main(["cyclic", str(path), "--window", "0..62500"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: window 0..62500: its degree-62501 "
                                "basis would have 4*250004 = 1000016 "
                                "positions, more than 1000000\n")

    def test_exterior_bound_counts_the_kept_tuples(self, capsys):
        """gl3 has no exterior tuple above degree 9, so a window past it is
        built, and H*(gl3) = /\\(x1, x3, x5), of Poincare polynomial
        (1 + t)(1 + t^3)(1 + t^5), ends in zeros."""
        assert main(["cohomology", os.path.join(BENCH_INPUTS, "gl3.alg"),
                     "--window", "0..12"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "cohomology window 0..12 graded_exact=yes"
        assert [line.rsplit("H=", 1)[1] for line in out[1:]] == \
            ["1", "1", "0", "1", "1", "1", "1", "0", "1", "1", "0", "0", "0"]

    def test_field_above_the_primality_bound_is_refused(self, tmp_path,
                                                        capsys):
        with open(self.path("sl2.alg"), encoding="utf-8") as fh:
            text = fh.read()
        big = tmp_path / "big.alg"
        big.write_text(over_field(text, "F %d" % (2 ** 61 - 1)),
                       encoding="utf-8")
        assert main(["validate", str(big)]) == 0
        assert capsys.readouterr().out == "validate: ok\n"
        huge = tmp_path / "huge.alg"
        huge.write_text(over_field(text, "F %d" % PRIME_BOUND),
                        encoding="utf-8")
        for command in ("validate", "cohomology", "cyclic", "deform"):
            assert main([command, str(huge)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "error: line 2: primality is decided only below %d, got %d "
                "[E_FIELD]\n" % (PRIME_BOUND, PRIME_BOUND))

    @pytest.mark.parametrize("exc,want", [
        (RuntimeError(OUTSIDE), "error: %s\n" % OUTSIDE),
        (RuntimeError("a representative of H^2 is not a cocycle"),
         "error: a representative of H^2 is not a cocycle\n"),
        (MemoryError(), "error: MemoryError\n"),
    ], ids=["outside", "representative", "memory"])
    def test_internal_error_is_one_line_and_exit_3(self, monkeypatch, capsys,
                                                   exc, want):
        def fail(*args):
            raise exc
        monkeypatch.setattr(codiff.cli, "cohomology", fail)
        assert main(["cohomology", self.path("sl2.alg"),
                     "--window", "0..2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == want
        assert "Traceback" not in captured.err

    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "codiff.cli", "validate",
             self.path("sl2.alg")],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == "validate: ok\n"


def test_cli_import_leaves_out_dataclasses_and_json():
    # each command is a fresh process, so every module on the import path
    # of codiff.cli is paid for at every start; the oracle, the reversed
    # side included, is the tests' alone
    src = os.path.join(HERE, os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    code = ("import sys, codiff.cli; print(sorted(m for m in "
            "('dataclasses', 'inspect', 'json', 'codiff.oracle') "
            "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


class TestReportNotes:
    """Caveats of small characteristic and mixed arities share one
    ``note:`` line, joined by "; ", and every json-lines record."""

    @pytest.mark.parametrize("field,window,note", [
        ("F 3", (0, 3), SMALL_P_NOTE % (3, 4)),
        ("F 3", (1, 2), SMALL_P_NOTE % (3, 3)),
        ("F 3", (0, 1), ""),
        ("F 5", (0, 3), ""),
        ("F 5", (0, 4), SMALL_P_NOTE % (5, 5)),
        ("F 32003", (0, 3), ""),
    ])
    def test_cyclic_over_small_prime(self, field, window, note):
        af = load_over(os.path.join(FIXTURES, "dual_numbers.alg"), field)
        text, status = run("cyclic", af, window=window)
        assert status == 0
        want = ["note: " + note] if note else []
        assert text.splitlines()[window[1] - window[0] + 2:] == want
        jsonl, _ = run("cyclic", af, window=window, fmt="json-lines")
        records = [json.loads(line) for line in jsonl.splitlines()]
        assert [r.get("note", "") for r in records] == [note] * len(records)

    def test_exterior_over_f2(self):
        af = load_over(os.path.join(BENCH_INPUTS, "gl2.alg"), "F 2")
        text, status = run("cohomology", af, window=(0, 3))
        assert (status, quotients(text, "H")) == (0, [1, 4, 6, 4])
        assert text.splitlines()[-1] == "note: " + CHAR2_NOTE
        text, status = run("cyclic", af, window=(0, 3))
        assert status == 0
        assert text.splitlines()[-1] == \
            "note: %s; %s" % (SMALL_P_NOTE % (2, 4), CHAR2_NOTE)

    @pytest.mark.parametrize("fixture,field", [
        ("dual_numbers.alg", "F 2"), ("sl2.alg", "F 3"),
    ])
    def test_no_char2_note_for_tensor_or_odd_p(self, fixture, field):
        text, status = run("cohomology",
                           load_over(os.path.join(FIXTURES, fixture), field),
                           window=(0, 3))
        assert status == 0
        assert "note:" not in text

    def test_mixed_arity_note_in_json_lines(self):
        text, status = run("cohomology", load("koszul_dga.alg"), window=(1, 2),
                           fmt="json-lines")
        assert status == 0
        records = [json.loads(line) for line in text.splitlines()]
        assert len(records) == 2
        assert all(r["note"] == MIXED_NOTE for r in records)

    def test_mixed_arity_and_char2_join(self):
        af = load_over(os.path.join(FIXTURES, "koszul_dga.alg"), "F 2")
        text, _ = run("cohomology", af, window=(1, 2))
        # a tensor structure: only the mixed-arity caveat applies
        assert text.splitlines()[-1] == "note: " + MIXED_NOTE


class TestSizeFrontier:
    """gl3 and M2 at window 0..4 (M2's cyclic cohomology at 0..6), gl4 and
    M3 at 0..3: H*(gl_n) is an exterior algebra on generators of degrees
    1, 3, .., 2n - 1, with HC^n = H^{n+1}, and M_n is separable, so its
    Hochschild cohomology is k in degree 0."""

    def test_gl4_cohomology_and_cyclic_over_f32003(self):
        af = parse(gl_text(4, "F 32003"))
        text, status = run("cohomology", af, window=(0, 3))
        assert (status, quotients(text, "H")) == (0, [1, 1, 0, 1])
        text, status = run("cyclic", af, window=(0, 3))
        assert (status, quotients(text, "HC")) == (0, [1, 0, 1, 1])

    @pytest.mark.parametrize("n, b", [(2, 4), (3, 3)])
    @pytest.mark.parametrize("field", ["Q", "F 32003"])
    def test_matrix_algebras_obey_connes_periodicity(self, n, b, field):
        """The trace form identifies HH*(A, A*) with HH*(A, A), so in
        Connes' exact sequence .. -> HH^{k-1} -> HC^{k-2} -> HC^k -> HH^k
        -> .. (Loday, Cyclic Homology, 2.2) HC^k = HC^{k-2} wherever
        HH^{k-1} = HH^k = 0.  By Morita invariance HC(M_n) = HC(k)."""
        af = parse(matrix_algebra_text(n, field))
        text, status = run("cohomology", af, window=(0, b))
        hh = quotients(text, "H")
        text, cyclic_status = run("cyclic", af, window=(0, b))
        hc = quotients(text, "HC")
        assert (status, cyclic_status) == (0, 0)
        periodic = [k for k in range(2, b + 1) if hh[k - 1] == hh[k] == 0]
        assert periodic
        assert [hc[k] for k in periodic] == [hc[k - 2] for k in periodic]
        assert hh == [1] + [0] * b
        assert hc == [1 - k % 2 for k in range(b + 1)]

    def test_an_inner_weight_makes_the_odd_line_acyclic(self):
        """a even, u odd, l(a,u) = u at window 0..80, whose terms repeat u
        up to 81 times.  The weight w(a) = 0, w(u) = 1 acts on cochains as
        ad a, up to sign D(a), which is zero on cohomology, so every
        cochain of nonzero weight lies in an acyclic subcomplex over Q.  A
        weight-0 cochain takes at most one u and one a, so it stops at
        degree 2, and H = 0 in every degree."""
        af = parse("field Q\nflavor exterior\nspace\n  basis a even\n"
                   "  basis u odd\nmap l 2\n  l(a,u) = u\n")
        text, status = run("cohomology", af, window=(0, 80))
        rows = re.findall(r"^degree (\d+): cocycles=(\d+) coboundaries=(\d+)"
                          r" H=(\d+)$", text, re.M)
        assert status == 0
        assert [tuple(map(int, r)) for r in rows] == \
            [(0, 0, 0, 0)] + [(d, 2, 2, 0) for d in range(1, 81)]

    def test_gl3_cohomology_and_cyclic_over_f32003(self):
        af = load_over(os.path.join(BENCH_INPUTS, "gl3.alg"), "F 32003")
        text, status = run("cohomology", af, window=(0, 4))
        assert (status, quotients(text, "H")) == (0, [1, 1, 0, 1, 1])
        text, status = run("cyclic", af, window=(0, 4))
        assert (status, quotients(text, "HC")) == (0, [1, 0, 1, 1, 1])

    def test_m2_cohomology_over_q(self):
        af = load_over(os.path.join(BENCH_INPUTS, "m2.alg"), "Q")
        text, status = run("cohomology", af, window=(0, 4))
        assert (status, quotients(text, "H")) == (0, [1, 0, 0, 0, 0])

    def test_gl3_cohomology_over_q(self):
        af = load_over(os.path.join(BENCH_INPUTS, "gl3.alg"), "Q")
        text, status = run("cohomology", af, window=(0, 4))
        assert (status, quotients(text, "H")) == (0, [1, 1, 0, 1, 1])

    def test_m2_cyclic_over_q(self):
        # Morita invariance: HC(M2) = HC(k), which is k in even degrees
        af = load_over(os.path.join(BENCH_INPUTS, "m2.alg"), "Q")
        text, status = run("cyclic", af, window=(0, 6))
        assert (status, quotients(text, "HC")) == (0, [1, 0, 1, 0, 1, 0, 1])

    @pytest.mark.parametrize("field", ["Q", "F 32003"])
    def test_sheared_m2(self, field):
        # the same M2 in a basis where most products have four terms, with
        # entries up to a few hundred: the same invariants
        af = shear(load_over(os.path.join(BENCH_INPUTS, "m2.alg"), field),
                   6, 1)
        text, status = run("cohomology", af, window=(0, 3))
        assert (status, quotients(text, "H")) == (0, [1, 0, 0, 0])
        text, status = run("cyclic", af, window=(0, 2))
        assert (status, quotients(text, "HC")) == (0, [1, 0, 1])


ALL_INPUTS = [os.path.join(FIXTURES, f) for f in FIXTURE_FILES] + sorted(
    os.path.join(BENCH_INPUTS, f) for f in os.listdir(BENCH_INPUTS)
    if f.endswith(".alg"))


def shear_cases():
    """Every parseable input under seeds 1-3, over Q and F_32003; seed 2
    over Q keeps the input's own id."""
    for path in ALL_INPUTS:
        if path.endswith("bad_name.alg"):
            continue
        name = os.path.relpath(path, os.path.join(HERE, os.pardir))
        for field, tag in (("Q", ""), ("F 32003", "-F32003")):
            for seed in (2, 1, 3):
                suffix = tag + ("" if seed == 2 else "-seed%d" % seed)
                yield pytest.param(path, field, seed, id=name + suffix)


def assert_blocks_compose_to_zero(cx, degrees):
    """D∘D = 0 read from the blocks: D of the image of each basis vector of
    these degrees, summed over the degrees the image reaches, and reduced
    mod p over F_p (the blocks hold ints: N·D over Q, residues over F_p).
    ``images`` builds a block on each call, so each is built here once."""
    p = cx.field.characteristic
    block = functools.cache(cx.images)
    for degree in degrees:
        for image in block(degree):
            twice = {}
            for q, vec in image.items():
                for row, x in vec.items():
                    for r, w in block(q)[row].items():
                        vec_add(twice.setdefault(r, {}), w, x)
            assert not any(x % p if p else x for vec in twice.values()
                           for x in vec.values()), (degree, image)


def assert_a_change_of_basis(af, moved):
    """The copy ``moved`` of a structure in another basis is the same
    structure: every report agrees (a refusal's witness word is written in
    the basis, so only the status of a refusal is compared), and if it
    validates its blocks compose to zero (D_{p+spread} D_p = 0 for
    p = 0, 1) in both complexes."""
    for command in ("validate", "cohomology", "cyclic", "deform"):
        ours, status = run(command, af, window=(0, 2))
        theirs, moved_status = run(command, moved, window=(0, 2))
        assert moved_status == status
        if status == 0:
            assert theirs == ours
    s = build_structure(moved, W_OF_V, 8)
    if validate(s).ok:
        for cx in (_PlainComplex(s), _CyclicComplex(s)):
            assert_blocks_compose_to_zero(cx, (0, 1))


@pytest.mark.parametrize("path,field,seed", shear_cases())
def test_shear_is_a_change_of_basis(path, field, seed):
    """A sheared copy of a structure is the same structure."""
    af = load_over(path, field)
    sheared = shear(af, 4, seed)
    if len(set(af.space.parities)) < af.space.dim:  # a shear is possible
        assert sheared != af
    assert_a_change_of_basis(af, sheared)


@pytest.mark.parametrize("path,field,seed", shear_cases())
def test_rescaling_is_a_change_of_basis(path, field, seed):
    """A diagonal rescaling by non-integral factors is a change of basis
    too.  Over Q it gives entries with denominators, so the blocks hold
    N·D with N > 1."""
    af = load_over(path, field)
    rescaled = rescale(af, seed)
    if field == "Q" and af.parts:
        assert any(c.denominator > 1 for m in rescaled.parts.values()
                   for vec in m.coeffs.values() for c in vec.values())
    assert_a_change_of_basis(af, rescaled)


def sweep_inputs():
    """{name: text} of the output sweep's inline inputs with odd
    letters."""
    path = os.path.join(HERE, os.pardir, "scripts", "output_sweep.py")
    spec = importlib.util.spec_from_file_location("output_sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return dict(module.INLINE)


def negated(rendered):
    """The rendering of -v, given the rendering of a vector v over Q
    (``render_vector``)."""
    pieces = re.split(r" ([+-]) ", rendered)
    terms = [("-" if pieces[0].startswith("-") else "+", pieces[0].lstrip("-"))]
    terms += zip(pieces[1::2], pieces[2::2])
    out = "-" + terms[0][1] if terms[0][0] == "+" else terms[0][1]
    for sign, body in terms[1:]:
        out += (" - " if sign == "+" else " + ") + body
    return out


def with_sigma(text):
    """A text output with σ_n on every printed cochain, the bracket values
    and the FAIL residual: negated at n = 2, 3 mod 4, where
    (-1)^{n(n-1)/2} = -1."""
    def line(text):
        m = re.match(r"(validate: FAIL n=(\d+) .* residual=|  n=(\d+) \S+ -> )"
                     r"(.*)$", text)
        if m is None or int(m.group(2) or m.group(3)) % 4 not in (2, 3):
            return text
        return m.group(1) + negated(m.group(4))
    return "\n".join(line(x) for x in text.split("\n"))


def test_negated_and_with_sigma():
    assert [negated(x) for x in ("u", "-2*u", "x - 1/2*y", "-x + y")] == \
        ["-u", "2*u", "-x + 1/2*y", "x - y"]
    assert with_sigma("bracket {m,m}:\n  n=1 (a) -> a\n  n=2 (a,b) -> -b\n"
                      "  n=3 (a,a,a) -> a - b\n  n=5 (a) -> b\n") == \
        ("bracket {m,m}:\n  n=1 (a) -> a\n  n=2 (a,b) -> b\n"
         "  n=3 (a,a,a) -> -a + b\n  n=5 (a) -> b\n")
    assert with_sigma("validate: FAIL n=3 word=(u,u,v) residual=2*u\n") == \
        "validate: FAIL n=3 word=(u,u,v) residual=-2*u\n"


def assert_convention_is_sigma(path, command, tmp_path, capsys):
    """``command`` on the file under v-of-w prints what it prints on
    ``convert FILE``, with σ_n on the printed cochains (``bracket`` with no
    name, each direction and each direction twice).  A file that
    ``convert`` refuses fails alike under both conventions.  Returns
    (status, capture) of the v-of-w run with no name."""
    status = main(["convert", path])
    converted = capsys.readouterr().out
    window = ["--window", "0..3"] if command in ("cohomology",
                                                 "cyclic") else []
    if status:
        outputs = []
        for convention in ("v-of-w", "w-of-v"):
            ours = main([command, path, "--convention", convention] + window)
            outputs.append((ours, capsys.readouterr()))
        assert outputs[0] == outputs[1] and outputs[0][0] == status
        return outputs[0]
    other = tmp_path / "converted.alg"
    other.write_text(converted, encoding="utf-8")
    names = sorted(parse(converted).deformations)
    argvs = [[]]
    if command == "bracket":
        argvs += [[n] for n in names] + [[n, n] for n in names]
    for argv in reversed(argvs):
        outputs = []
        for args in ([path, "--convention", "v-of-w"], [str(other)]):
            status = main([command] + args[:1] + argv + args[1:] + window)
            outputs.append((status, capsys.readouterr()))
        (ours, got), (theirs, want) = outputs
        assert (ours, got.out, got.err) == \
            (theirs, with_sigma(want.out), want.err), argv
    return ours, got


# F, the CDGA with 1, x even, t, s odd, d(t) = x, unit 1 and m(x,t) =
# m(t,x) = s, after the gauge {(1,1) -> t}: m(1,1) gains -x and an arity-3
# part appears.  Its relation at n = 3 joins m2∘m2 (even arities) and
# m1∘m3 (odd ones), so F validates under w-of-v only, and G = convert F
# under v-of-w only.
GAUGED_CDGA = """field Q
flavor tensor
space
  basis 1 even
  basis x even
  basis t odd
  basis s odd
map d 1
  d(t) = x
map m 2
  m(1,1) = 1 - x
  m(1,x) = x
  m(x,1) = x
  m(1,t) = t
  m(t,1) = t
  m(1,s) = s
  m(s,1) = s
  m(x,t) = s
  m(t,x) = s
map n 3
  n(1,1,x) = s
  n(x,1,1) = -s
"""
# an exterior structure with l_1 and l_2 and a direction in arities 1 and
# 2, on which σ is not ±1: {lam, m} at n = 2 reads both of its parts
TWO_ARITY_DIRECTION = """field Q
flavor exterior
space
  basis x even
  basis y odd
  basis z even
map d 1
  d(x) = y
map l 2
  l(x,z) = z
deformation lam 1 even_parameter
  lam(x) = y
  lam(z) = y
deformation lam 2 even_parameter
  lam(x,z) = x
"""


BOUNDARY_COMMANDS = ["validate", "bracket", "cohomology", "cyclic", "deform"]
BOUNDARY_INPUTS = [
    pytest.param(path, None, id=os.path.relpath(path, os.path.join(
        HERE, os.pardir))) for path in ALL_INPUTS] + [
    pytest.param(name, text, id=name) for name, text in
    list(sweep_inputs().items()) + [("gauged_cdga.alg", GAUGED_CDGA),
                                    ("two_arity_direction.alg",
                                     TWO_ARITY_DIRECTION)]]


@pytest.mark.parametrize("command", BOUNDARY_COMMANDS)
@pytest.mark.parametrize("path,text", BOUNDARY_INPUTS)
def test_convention_does_not_change_the_answer(path, text, command, tmp_path,
                                               capsys):
    """``--convention v-of-w`` is σ at the command line
    (``assert_convention_is_sigma``), on the fixture and bench files and on
    inline inputs: the sweep's, the gauged CDGA, whose relations differ
    between the conventions, and an input whose direction has two arities
    of different σ.  On the files, whose mixed arities are 1 and 2 at
    most, both conventions also give isomorphic complexes, so the
    ``cohomology`` and ``cyclic`` reports of FILE agree under w-of-v too;
    on the gauged CDGA, valid in one convention only, they do not."""
    if text is not None:
        (tmp_path / path).write_text(text, encoding="utf-8")
        path = str(tmp_path / path)
    status, captured = assert_convention_is_sigma(path, command, tmp_path,
                                                  capsys)
    if text is None and command in ("cohomology", "cyclic"):
        assert main([command, path, "--window", "0..3"]) == status
        assert capsys.readouterr() == captured


def test_v_of_w_cyclic_complex_is_that_of_sigma_m(tmp_path, capsys):
    """A v-of-w structure's cyclic complex is the w-of-v one of σm: for
    G = convert F, ``cyclic G --convention v-of-w`` prints what ``cyclic F``
    prints, and no row has a negative HC (a cyclic complex built from m
    itself is no complex, and its rows read HC = 2, 0, 0, -5, -14)."""
    f = tmp_path / "f.alg"
    f.write_text(GAUGED_CDGA, encoding="utf-8")
    assert main(["convert", str(f)]) == 0
    g = tmp_path / "g.alg"
    g.write_text(capsys.readouterr().out, encoding="utf-8")
    assert main(["validate", str(g), "--convention", "v-of-w"]) == 0
    assert main(["validate", str(f)]) == 0
    capsys.readouterr()
    outputs = []
    for argv in ([str(g), "--convention", "v-of-w"], [str(f)]):
        status = main(["cyclic"] + argv + ["--window", "0..4"])
        outputs.append((status, capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    hc = [int(x) for x in re.findall(r" HC=(-?\d+)$", outputs[0][1], re.M)]
    assert outputs[0][0] == 0 and len(hc) == 5 and min(hc) >= 0, hc


EXTERIOR_DIFFERENTIAL = """field Q
flavor exterior
space
  basis a even
  basis t odd
map d 1
  d(t) = a
"""


@pytest.mark.parametrize("field", ["Q", "F 3", "F 32003"])
def test_exterior_differential_from_degree_zero(field):
    """An L-infinity structure with only d(t) = a, window from 0.  By hand:
    (V, d) is contractible (h(a) = t gives dh + hd = 1), so every
    Hom(Λ^p V, V) is exact.  C^0 = V with D = d has Z^0 = B^0 = <a>.
    C^1 = Hom(V, V) and C^2 = Hom(<a∧t, t∧t>, V) (a∧a = 0 as a is even)
    have dimension 4, so Z^p = B^p has dimension 2.  H^0..H^2 = 0."""
    text, status = run("cohomology", parse(over_field(EXTERIOR_DIFFERENTIAL,
                                                      field)),
                       window=(0, 2))
    assert status == 0
    assert re.findall(r"cocycles=(\d+) coboundaries=(\d+) H=(\d+)$", text,
                      re.M) == [("1", "1", "0"), ("2", "2", "0"),
                                ("2", "2", "0")]


@pytest.mark.parametrize("convention,residual", [("w-of-v", "2*u"),
                                                 ("v-of-w", "-2*u")])
def test_sweep_odd_letter_inputs(convention, residual):
    """The odd-letter inputs answer as the sweep says: the first validates,
    with cohomology 0, 1, 1, 1 at 0..3 over Q; the second fails at n = 3
    on (u,u,v), where the odd-odd reordering signs add up (v_of_w signs
    the arity-3 relation the other way)."""
    texts = sweep_inputs()
    af = parse(texts["odd_letters.alg"])
    conv = codiff.cli.CONVENTION_FLAGS[convention]
    assert run("validate", af, convention=conv) == ("validate: ok\n", 0)
    text, status = run("cohomology", af, window=(0, 3), convention=conv)
    assert (status, quotients(text, "H")) == (0, [0, 1, 1, 1])
    assert run("validate", parse(texts["odd_letters_bracket.alg"]),
               convention=conv) == \
        ("validate: FAIL n=3 word=(u,u,v) residual=%s\n" % residual, 1)


@pytest.mark.parametrize("convention", ["w-of-v", "v-of-w"])
def test_sweep_graded_dual_numbers(convention):
    """The tensor input with an odd letter and one arity answers as the
    sweep says: it validates, and its cohomology at 0..7 over Q is 2 in
    every degree."""
    af = parse(sweep_inputs()["graded_dual_numbers.alg"])
    assert sorted(af.parts) == [2] and af.flavor == "tensor"
    assert af.space.parities == (0, 1)
    conv = codiff.cli.CONVENTION_FLAGS[convention]
    assert run("validate", af, convention=conv) == ("validate: ok\n", 0)
    text, status = run("cohomology", af, window=(0, 7), convention=conv)
    assert (status, quotients(text, "H")) == (0, [2] * 8)


@pytest.mark.parametrize("convention", ["w-of-v", "v-of-w"])
def test_sweep_two_arity_input(convention):
    """The exterior input with l_1, l_2 and an odd letter answers as the
    sweep says: it validates, its cohomology at 0..4 over Q is 1, 1, 0,
    0, 0, its cyclic cohomology is 0, and its direction is a
    coboundary."""
    af = parse(sweep_inputs()["two_arities.alg"])
    assert sorted(af.parts) == [1, 2] and af.flavor == "exterior"
    conv = codiff.cli.CONVENTION_FLAGS[convention]
    assert run("validate", af, convention=conv) == ("validate: ok\n", 0)
    text, status = run("cohomology", af, window=(0, 4), convention=conv)
    assert (status, quotients(text, "H")) == (0, [1, 1, 0, 0, 0])
    text, status = run("cyclic", af, window=(0, 4), convention=conv)
    assert (status, quotients(text, "HC")) == (0, [0, 0, 0, 0, 0])
    text, status = run("deform", af, convention=conv)
    assert status == 0
    assert text.startswith("deform lam: cocycle=yes coboundary=yes ")
