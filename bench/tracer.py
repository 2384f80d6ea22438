"""Outside-in tracing of codiff for the benchmark's per-layer split.

``Tracer`` replaces public functions with timing wrappers at the module
attributes where callers look them up (``cli`` and ``homology`` import
names directly, ``homology`` reaches ``linalg`` through the module), records
one span per call (name, start, end, parent, job) and counters at the same
boundaries, and puts every attribute back when it is closed.

A span's self time is its duration minus the spans it called and minus the
tracer's own bookkeeping (counting nonzeros, coefficient sizes), so layer
times add up to the traced pass less that bookkeeping.  ``graded`` and
``cochain`` helpers are not wrapped: they run millions of times per pass and
a wrapper would swamp them, so their cost stays in their callers' self time.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from time import perf_counter

import codiff.cli
import codiff.homology
import codiff.linalg
import codiff.structures
from codiff.graded import TENSOR

# (module, attribute, layer).  A function imported by name into several
# modules is wrapped in each of them.
WRAPPED = (
    (codiff.linalg, "rref", "linalg"),
    (codiff.linalg, "echelon", "linalg"),
    (codiff.linalg, "kernel_basis", "linalg"),
    (codiff.linalg, "solve", "linalg"),
    (codiff.linalg, "in_span", "linalg"),
    (codiff.homology, "cyclic_scalar_basis", "homology.basis"),
    (codiff.homology, "cyclicize", "homology.basis"),
    (codiff.homology, "coboundary", "homology.assemble"),
    (codiff.homology, "cyclic_coboundary", "homology.assemble"),
    (codiff.homology, "family_bracket", "coderivation"),
    (codiff.homology, "deform_check", "structures.validate"),
    (codiff.homology, "tilde", "cochain.tilde"),
    (codiff.structures, "compose", "coderivation"),
    (codiff.structures, "family_bracket", "coderivation"),
    (codiff.cli, "main", "cli"),
    (codiff.cli, "parse", "algfile.parse"),
    (codiff.cli, "build_structure", "structures.build"),
    (codiff.cli, "validate", "structures.validate"),
    (codiff.cli, "family_bracket", "coderivation"),
    (codiff.cli, "cohomology", "homology.window"),
    (codiff.cli, "cyclic_cohomology", "homology.window"),
    (codiff.cli, "classify_deformation", "homology.window"),
)


def _span_name(module, attr):
    return "%s.%s" % (module.__name__.rsplit(".", 1)[-1], attr)


def _count_echelon(counts, args, result):
    matrix = args[0]
    rows, pivots = result
    counts["linalg.cells"] += len(matrix) * (len(matrix[0]) if matrix else 0)
    counts["linalg.nnz"] += sum(1 for row in matrix for x in row if x)
    counts["linalg.rank"] += len(pivots)
    bits = counts["linalg.max_coeff_bits"]
    for row in rows:
        for x in row:
            if isinstance(x, Fraction) and x:
                bits = max(bits, x.numerator.bit_length(),
                           x.denominator.bit_length())
    counts["linalg.max_coeff_bits"] = bits


def _count_basis(counts, args, result):
    basis = result[0]
    counts["homology.basis_dim"] += len(basis)
    if args[1] == TENSOR:
        counts["homology.tensor_basis_dim"] += len(basis)


HOOKS = {"linalg.echelon": _count_echelon,
         "homology.cyclic_scalar_basis": _count_basis}


class Tracer:
    """Spans and counters of traced calls; use as a context manager."""

    def __init__(self):
        self.spans = []        # (id, name, start, end, parent id, job, self_s)
        self.layer_s = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.job = None
        self._stack = []       # open spans: [id, layer, child seconds]
        self._next_id = 0
        self._saved = []

    def __enter__(self):
        for module, attr, layer in WRAPPED:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(_span_name(module, attr), layer,
                                             fn))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)
        return False

    def _wrap(self, name, layer, fn):
        hook = HOOKS.get(name)
        stack = self._stack

        def traced(*args, **kwargs):
            t0 = perf_counter()
            parent = stack[-1] if stack else None
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, layer, 0.0]
            stack.append(frame)
            t1 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = perf_counter()
                stack.pop()
            self.calls[name] += 1
            if parent is None or parent[1] != layer:
                self.calls[layer] += 1
            if hook is not None:
                hook(self.counts, args, result)
            t3 = perf_counter()
            book = (t1 - t0) + (t3 - t2)
            self_s = (t3 - t0) - book - frame[2]
            if parent is not None:
                parent[2] += t3 - t0
            self.layer_s[layer] += self_s
            self.spans.append((span_id, name, t0, t3,
                               parent[0] if parent else None, self.job,
                               self_s))
            return result

        traced.__wrapped__ = fn
        return traced

    def metrics(self):
        """Per-layer metrics of everything traced so far (one pass)."""
        c, calls, s = self.counts, self.calls, self.layer_s
        kept = c["homology.tensor_basis_dim"]
        cyclicized = calls["homology.cyclicize"]
        return {
            "linalg.self_s": (s["linalg"], "s"),
            "linalg.calls": (calls["linalg"], "count"),
            "linalg.in_span_calls": (calls["linalg.in_span"], "count"),
            "linalg.cells": (c["linalg.cells"], "count"),
            "linalg.nnz": (c["linalg.nnz"], "count"),
            "linalg.rank": (c["linalg.rank"], "count"),
            "linalg.max_coeff_bits": (c["linalg.max_coeff_bits"], "bits"),
            "homology.basis_s": (s["homology.basis"], "s"),
            "homology.basis_dim": (c["homology.basis_dim"], "count"),
            "homology.basis_yield": (kept / cyclicized if cyclicized else 0.0,
                                     "1"),
            "homology.assemble_s": (s["homology.assemble"], "s"),
            "homology.columns": (calls["homology.coboundary"]
                                 + calls["homology.cyclic_coboundary"],
                                 "count"),
            "homology.window_self_s": (s["homology.window"], "s"),
            "coderivation.bracket_s": (s["coderivation"], "s"),
            "coderivation.calls": (calls["coderivation"], "count"),
            "cochain.tilde_s": (s["cochain.tilde"], "s"),
            "structures.build_s": (s["structures.build"], "s"),
            "structures.validate_s": (s["structures.validate"], "s"),
            "algfile.parse_s": (s["algfile.parse"], "s"),
            "cli.self_s": (s["cli"], "s"),
        }
