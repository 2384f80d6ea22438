"""Workloads of the codiff benchmark: the jobs, their known answers, the
seeded relabelling that produces each pass's input files, and the checker
that reads a job's text report.

A *job* is one ``codiff`` command on one input file; a *pass* runs every
job of a workload once.  Every pass gets its own isomorphic copy of each
base structure (a basis permutation plus sign flips, drawn from the seed and
the pass index), so the program never sees the checked-in files.  Cohomology
dimensions are isomorphism invariants, so the expected answers below hold
for every seed.

Why these answers are right (the H / HC column; the cocycle and coboundary
columns are the dimensions of the subspaces they are quotients of, which
are invariants of the same isomorphisms):

- M2 is separable, so HH^{>=1}(M2) = 0; HC(M2) = HC(k) by Morita invariance.
- The dual numbers have HH^n = 1 for n >= 1 in characteristic != 2.
- The Koszul DGA is acyclic (the window reports truncated coboundaries).
- For a Lie algebra g, HC^n(g) = H^{n+1}(g; k), with H*(gl2) = L(x1, x3),
  H*(gl3) = L(x1, x3, x5) and H*(sl2 + sl2) = L(x3, y3).
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, replace
from pathlib import Path

from codiff.algfile import AlgebraFile, parse, serialize
from codiff.cochain import Cochain, InnerProduct, vec_add
from codiff.graded import GradedSpace, canonical_word

INPUTS = Path(__file__).resolve().parent / "inputs"
FP_FIELD_LINE = "field F 32003"

MIXED_NOTE = ("mixed arities: the complex does not split by degree; "
              "coboundary dimensions are truncated to sources in the window")
CYCLIC_DEFORM_NOTE = ("coboundary tested in the cyclic complex (inner "
                      "product supplied)")


@dataclass(frozen=True)
class Job:
    """One command on one base structure, with its expected report.

    ``expect`` is what ``read_report`` returns for a correct stdout.
    """

    command: str
    base: str
    window: str | None
    expect: tuple
    fp: bool = False

    def argv(self, path):
        argv = [self.command, str(path)]
        if self.window is not None:
            argv += ["--window", self.window]
        return argv

    @property
    def label(self):
        field = "F_32003" if self.fp else "Q"
        window = " " + self.window if self.window else ""
        return "%s %s%s over %s" % (self.command, self.base, window, field)


def _window_job(command, base, window, rows, exact=True, note=""):
    """``rows`` holds (cocycles, coboundaries, quotient) from the window's
    first degree on."""
    a, b = (int(x) for x in window.split(".."))
    if len(rows) != b - a + 1:
        raise ValueError("one expected row per degree of %s" % window)
    degrees = tuple((a + i,) + tuple(row) for i, row in enumerate(rows))
    expect = ("window", command, (a, b), exact, degrees, note)
    return Job(command, base, window, expect)


def _deform_job(base, *lines):
    """``lines`` holds (direction, cocycle, coboundary, preserves_ip, note)."""
    return Job("deform", base, None, ("deform", tuple(lines)))


HOCHSCHILD = (
    _window_job("cohomology", "m2", "0..2",
                [(1, 0, 1), (3, 3, 0), (13, 13, 0)]),
    _window_job("cohomology", "dual_numbers", "0..5",
                [(2, 0, 2), (1, 0, 1), (4, 3, 1), (5, 4, 1), (12, 11, 1),
                 (21, 20, 1)]),
    _window_job("cohomology", "koszul_dga", "0..4",
                [(1, 1, 0), (1, 1, 0), (2, 2, 0), (3, 3, 0), (6, 6, 0)],
                exact=False, note=MIXED_NOTE),
)

WORKLOADS = {
    "hochschild-q": HOCHSCHILD,
    # The same jobs over F_32003 must report the same rows as over Q: they
    # share one expected table.
    "hochschild-fp": tuple(replace(job, fp=True) for job in HOCHSCHILD),
    "cyclic-tensor": (
        _window_job("cyclic", "m2", "0..2",
                    [(1, 0, 1), (3, 3, 0), (4, 3, 1)]),
        _window_job("cyclic", "dual_numbers", "0..5",
                    [(2, 0, 2), (0, 0, 0), (3, 1, 2), (1, 1, 0), (5, 3, 2),
                     (3, 3, 0)]),
        _deform_job("m2", ("lam", "yes", "no", "yes", CYCLIC_DEFORM_NOTE)),
    ),
    "cyclic-lie": (
        _window_job("cyclic", "sl2_sl2", "0..5",
                    [(0, 0, 0), (6, 6, 0), (11, 9, 2), (9, 9, 0), (6, 6, 0),
                     (1, 0, 1)]),
        _window_job("cyclic", "gl3", "0..1", [(1, 0, 1), (8, 8, 0)]),
        _window_job("cyclic", "gl2", "0..6",
                    [(1, 0, 1), (3, 3, 0), (4, 3, 1), (1, 0, 1), (0, 0, 0),
                     (0, 0, 0), (0, 0, 0)]),
    ),
}


# --- seeded relabelling -----------------------------------------------------

def relabel(af, rng):
    """An isomorphic copy of a parsed structure: basis element i moves to
    position perm[i] and is multiplied by sign[i].  Structure maps,
    deformations and the inner product are transported along."""
    space = af.space
    n = space.dim
    perm = list(range(n))
    rng.shuffle(perm)
    sign = [rng.choice((1, -1)) for _ in range(n)]
    names, parities = [None] * n, [None] * n
    for i in range(n):
        names[perm[i]] = space.names[i]
        parities[perm[i]] = space.parities[i]
    new = GradedSpace(tuple(names), tuple(parities), space.field)

    def move(c):
        coeffs = {}
        for t, vec in c.coeffs.items():
            flip, canon = canonical_word(c.flavor, tuple(perm[i] for i in t),
                                         new.parities)
            factor = flip * math.prod(sign[i] for i in t)
            vec_add(coeffs.setdefault(canon, {}),
                    {perm[b]: sign[b] * x for b, x in vec.items()}, factor)
        return Cochain(new, c.flavor, c.degree, c.parity, coeffs)

    ip = None
    if af.inner_product is not None:
        matrix = [[space.field(0)] * n for _ in range(n)]
        for i, row in enumerate(af.inner_product.matrix):
            for j, x in enumerate(row):
                matrix[perm[i]][perm[j]] = sign[i] * sign[j] * x
        ip = InnerProduct(new, matrix)
    parts = {k: move(c) for k, c in af.parts.items()}
    defos = {name: (parity, {k: move(c) for k, c in fam.items()})
             for name, (parity, fam) in af.deformations.items()}
    return AlgebraFile(new, af.flavor, parts, dict(af.part_names), ip, defos)


def base_text(base):
    return (INPUTS / (base + ".alg")).read_text(encoding="utf-8")


def pass_text(base, seed, index, fp=False):
    """The input file one pass sees: the base structure relabelled by
    (seed, pass index), with the field line swapped for the F_p variant."""
    rng = random.Random("%s/%d/%s" % (seed, index, base))
    text = serialize(relabel(parse(base_text(base)), rng))
    if fp:
        head, rest = text.split("\n", 1)
        if head != "field Q":
            raise ValueError("%s is not a structure over Q" % base)
        text = FP_FIELD_LINE + "\n" + rest
    return text


def write_pass_inputs(jobs, seed, index, directory):
    """Write one pass's input files; returns [(job, path)]."""
    paths = {}
    out = []
    for job in jobs:
        key = (job.base, job.fp)
        if key not in paths:
            path = Path(directory) / ("%s%s-%d.alg" % (
                job.base, "-fp" if job.fp else "", index))
            path.write_text(pass_text(job.base, seed, index, job.fp),
                            encoding="utf-8")
            paths[key] = path
        out.append((job, paths[key]))
    return out


# --- answer checker ---------------------------------------------------------

_HEAD = re.compile(r"(cohomology|cyclic) window (\d+)\.\.(\d+) "
                   r"graded_exact=(yes|no)")
_ROW = re.compile(r"degree (\d+): cocycles=(\d+) coboundaries=(\d+) "
                  r"(?:H|HC)=(\d+)")
_DEFORM = re.compile(r"deform (\S+): cocycle=(\S+) coboundary=(\S+) "
                     r"preserves_ip=(\S+)(?:  # (.*))?")


def read_report(text):
    """Parse a text report of ``cohomology``, ``cyclic`` or ``deform`` into
    the shape of ``Job.expect``; raises ValueError on any other line."""
    lines = text.split("\n")
    if len(lines) < 2 or lines[-1] != "":
        raise ValueError("report does not end with a newline")
    lines = lines[:-1]
    head = _HEAD.fullmatch(lines[0])
    if head is None:
        deforms = []
        for line in lines:
            m = _DEFORM.fullmatch(line)
            if m is None:
                raise ValueError("unexpected line %r" % line)
            deforms.append(m.groups(default=""))
        return ("deform", tuple(deforms))
    rows, note = [], ""
    for line in lines[1:]:
        m = _ROW.fullmatch(line)
        if m is not None and not note:
            rows.append(tuple(int(x) for x in m.groups()))
        elif line.startswith("note: ") and not note:
            note = line[len("note: "):]
        else:
            raise ValueError("unexpected line %r" % line)
    kind, a, b, exact = head.groups()
    return ("window", kind, (int(a), int(b)), exact == "yes", tuple(rows),
            note)


def check(job, status, stdout):
    """None when the job exited 0 with its expected report, else the
    reason it failed."""
    if status != 0:
        return "exit status %r" % (status,)
    try:
        got = read_report(stdout)
    except ValueError as exc:
        return "unreadable report: %s" % exc
    if got != job.expect:
        return "wrong answer: got %r, expected %r" % (got, job.expect)
    return None
