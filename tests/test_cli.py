import json
import os
import re
import subprocess
import sys

import pytest

from codiff.algfile import parse
from codiff.cli import main, run
from codiff.fields import PRIME_BOUND

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


def test_unknown_bracket_direction():
    text, status = run("bracket", load("sl2.alg"), names=("nope",))
    assert status == 2


def test_max_arity_cap_is_input_error():
    text, status = run("validate", load("sl2.alg"), max_arity=1)
    assert status == 2


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

    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "codiff.cli", "validate",
             self.path("sl2.alg")],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == "validate: ok\n"


def test_cli_import_leaves_out_dataclasses_and_json():
    # each command is a fresh process, so every module on the import path
    # of codiff.cli is paid for at every start
    src = os.path.join(HERE, os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    code = ("import sys, codiff.cli; print(sorted(m for m in "
            "('dataclasses', 'inspect', 'json') if m in sys.modules))")
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
    """gl3 and M2 at window 0..4: H*(gl3) = L(x1, x3, x5), HC^n = H^{n+1},
    and M2 is separable, so its Hochschild cohomology is k in degree 0."""

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
        text, status = run("cyclic", af, window=(0, 5))
        assert (status, quotients(text, "HC")) == (0, [1, 0, 1, 0, 1, 0])


ALL_INPUTS = [os.path.join(FIXTURES, f) for f in FIXTURE_FILES] + sorted(
    os.path.join(BENCH_INPUTS, f) for f in os.listdir(BENCH_INPUTS)
    if f.endswith(".alg"))


@pytest.mark.parametrize("command", ["cohomology", "cyclic"])
@pytest.mark.parametrize("path", ALL_INPUTS, ids=lambda path: os.path.relpath(
    path, os.path.join(HERE, os.pardir)))
def test_convention_does_not_change_the_answer(path, command, capsys):
    """Both conventions give isomorphic complexes, so the same report."""
    outputs = []
    for convention in ("w-of-v", "v-of-w"):
        status = main([command, path, "--window", "0..3",
                       "--convention", convention])
        outputs.append((status, capsys.readouterr()))
    assert outputs[0] == outputs[1]


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
