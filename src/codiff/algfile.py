"""The line-oriented algebra definition format.

    field Q            # or: field F 5
    flavor tensor      # tensor | exterior
    space
      basis 1 even
      basis x even
    map m 2
      m(1,1) = 1
      m(1,x) = x
      m(x,1) = x
    inner_product
      <1,x> = 1
    deformation lam 2 odd_parameter
      lam(x,x) = 1

'#' starts a comment.  Scalars are integers, fractions a/b, or F_p
residues.  Values are linear combinations like ``2*e + 1/2*f - h``
(the ``*`` is optional); a value that ends in ``+`` or ``-``, or a ``*``
with no coefficient before it, is refused.  Exterior assignments list their
letters in basis order, and a repeated even letter is refused.  Diagnostics
carry a code and the line number.
"""

from __future__ import annotations

import re

from .cochain import Cochain, InnerProduct
from .fields import QQ, PrimeField
from .graded import (EXTERIOR, TENSOR, GradedSpace, canonical_word,
                     word_parity)

E_DIRECTIVE = "E_DIRECTIVE"     # unknown or misplaced directive
E_FIELD = "E_FIELD"             # bad field declaration (non-prime p, ...)
E_FLAVOR = "E_FLAVOR"           # unknown flavor, symmetric included
E_SPACE = "E_SPACE"             # bad space block
E_NAME = "E_NAME"               # undeclared basis name
E_SCALAR = "E_SCALAR"           # unparsable coefficient
E_ARITY = "E_ARITY"             # tuple arity mismatch or bad arity
E_DUPLICATE = "E_DUPLICATE"     # duplicate assignment or block
E_PARITY = "E_PARITY"           # parity-inconsistent assignments
E_STRUCTURE = "E_STRUCTURE"     # missing field/flavor/space, bad inner product


class ParseError(ValueError):
    def __init__(self, code, line, message):
        self.code = code
        self.line = line
        super().__init__("line %d: %s [%s]" % (line, message, code))


class AlgebraFile:
    def __init__(self, space, flavor, parts=None, part_names=None,
                 inner_product=None, deformations=None):
        self.space = space
        self.flavor = flavor
        # arity -> Cochain, arity -> name, name -> (parity, {arity: Cochain})
        self.parts = {} if parts is None else parts
        self.part_names = {} if part_names is None else part_names
        self.inner_product = inner_product
        self.deformations = {} if deformations is None else deformations

    def __eq__(self, other):
        if not isinstance(other, AlgebraFile):
            return NotImplemented
        ips = self.inner_product.matrix if self.inner_product else None
        ipo = other.inner_product.matrix if other.inner_product else None
        return (self.space == other.space and self.flavor == other.flavor
                and self.parts == other.parts
                and self.part_names == other.part_names
                and ips == ipo
                and self.deformations == other.deformations)


_assign_re = re.compile(r"^([A-Za-z_][\w']*)\(([^)]*)\)\s*=\s*(.+)$")
_pair_re = re.compile(r"^<\s*([^,<>]+?)\s*,\s*([^,<>]+?)\s*>\s*=\s*(.+)$")
_scalar_re = re.compile(r"^[+-]?\d+(/\d+)?$")


def _strip(line):
    if "#" in line:
        line = line[:line.index("#")]
    return line.strip()


class _Parser:
    def __init__(self, text):
        self.lines = text.splitlines()
        self.field = None
        self.flavor = None
        self.basis = []
        self.space = None
        self.maps = {}          # arity -> block
        self.defos = {}         # name -> [parity, {arity: block}]
        self.ip_entries = None  # {(i, j): scalar}
        self.ip_line = 0        # line of the inner_product header
        # the open block: "space", "ip", or a map or deformation block
        # (name, arity, {tuple: vec}, line of its header)
        self.block = None

    def err(self, code, lineno, message):
        raise ParseError(code, lineno, message)

    def end_block(self, lineno):
        if self.block == "space":
            if not self.basis:
                self.err(E_SPACE, lineno, "space block declares no basis")
            try:
                self.space = GradedSpace(tuple(n for n, _ in self.basis),
                                         tuple(p for _, p in self.basis),
                                         self.field)
            except ValueError as exc:
                self.err(E_SPACE, lineno, str(exc))
        self.block = None

    def run(self):
        for lineno, raw in enumerate(self.lines, start=1):
            line = _strip(raw)
            if not line:
                continue
            self.dispatch(line, lineno)
        self.end_block(len(self.lines))
        if self.field is None:
            self.err(E_STRUCTURE, 0, "missing field line")
        if self.flavor is None:
            self.err(E_STRUCTURE, 0, "missing flavor line")
        if self.space is None:
            self.err(E_STRUCTURE, 0, "missing space block")
        return self.build()

    def dispatch(self, line, lineno):
        tokens = line.split()
        head = tokens[0]
        if head in ("field", "flavor", "space", "map", "inner_product",
                    "deformation"):
            self.end_block(lineno)
        if head in ("map", "inner_product", "deformation") and (
                self.space is None or self.flavor is None):
            self.err(E_STRUCTURE, lineno,
                     "field, flavor and space must precede this block")
        if head == "field":
            if self.field is not None:
                self.err(E_DUPLICATE, lineno, "second field line")
            if tokens[1:] == ["Q"]:
                self.field = QQ
            elif len(tokens) == 3 and tokens[1] == "F":
                try:
                    self.field = PrimeField(int(tokens[2]))
                except ValueError as exc:
                    self.err(E_FIELD, lineno, str(exc))
            else:
                self.err(E_FIELD, lineno, "expected 'field Q' or 'field F p'")
        elif head == "flavor":
            if self.flavor is not None:
                self.err(E_DUPLICATE, lineno, "second flavor line")
            if tokens[1:] == ["symmetric"]:
                self.err(E_FLAVOR, lineno,
                         "no symmetric flavor: the library computes on "
                         "tensor and exterior structures only")
            if len(tokens) != 2 or tokens[1] not in (TENSOR, EXTERIOR):
                self.err(E_FLAVOR, lineno,
                         "expected 'flavor tensor' or 'flavor exterior'")
            self.flavor = tokens[1]
        elif head == "space":
            if self.space is not None:
                self.err(E_DUPLICATE, lineno, "second space block")
            if self.field is None:
                self.err(E_STRUCTURE, lineno, "field line must precede the space")
            self.block = "space"
        elif head == "basis":
            if self.block != "space":
                self.err(E_DIRECTIVE, lineno, "basis line outside a space block")
            if len(tokens) != 3 or tokens[2] not in ("even", "odd"):
                self.err(E_SPACE, lineno, "expected 'basis <name> even|odd'")
            if tokens[1] == "0" or set(tokens[1]) & set("+-*,)<>"):
                self.err(E_SPACE, lineno, "basis name %r: a name is not 0 and "
                         "holds none of + - * , ) < >" % tokens[1])
            if any(n == tokens[1] for n, _ in self.basis):
                self.err(E_DUPLICATE, lineno,
                         "duplicate basis name %r" % tokens[1])
            self.basis.append((tokens[1], 0 if tokens[2] == "even" else 1))
        elif head == "map":
            if len(tokens) != 3:
                self.err(E_DIRECTIVE, lineno, "expected 'map <name> <arity>'")
            arity = self.parse_arity(tokens[2], lineno)
            if arity in self.maps:
                self.err(E_DUPLICATE, lineno,
                         "second map block of arity %d" % arity)
            self.maps[arity] = self.block = (tokens[1], arity, {}, lineno)
        elif head == "inner_product":
            if self.ip_entries is not None:
                self.err(E_DUPLICATE, lineno, "second inner_product block")
            self.ip_entries = {}
            self.ip_line = lineno
            self.block = "ip"
        elif head == "deformation":
            if len(tokens) != 4 or tokens[3] not in ("odd_parameter",
                                                     "even_parameter"):
                self.err(E_DIRECTIVE, lineno,
                         "expected 'deformation <name> <arity> "
                         "odd_parameter|even_parameter'")
            arity = self.parse_arity(tokens[2], lineno)
            parity = 1 if tokens[3] == "odd_parameter" else 0
            slot = self.defos.setdefault(tokens[1], [parity, {}])
            if slot[0] != parity:
                self.err(E_PARITY, lineno,
                         "deformation %r declared with both parameter parities"
                         % tokens[1])
            if arity in slot[1]:
                self.err(E_DUPLICATE, lineno,
                         "second block for deformation %r arity %d"
                         % (tokens[1], arity))
            slot[1][arity] = self.block = (tokens[1], arity, {}, lineno)
        elif self.block == "ip":
            self.parse_ip_line(line, lineno)
        elif isinstance(self.block, tuple):
            self.parse_assignment(line, lineno)
        else:
            self.err(E_DIRECTIVE, lineno, "unknown directive %r" % head)

    def parse_arity(self, text, lineno):
        try:
            arity = int(text)
        except ValueError:
            self.err(E_ARITY, lineno, "bad arity %r" % text)
        if arity < 1:
            self.err(E_ARITY, lineno, "arity must be >= 1")
        return arity

    def parse_ip_line(self, line, lineno):
        m = _pair_re.match(line)
        if not m:
            self.err(E_DIRECTIVE, lineno, "expected '<a,b> = scalar'")
        try:
            i = self.space.index(m.group(1))
            j = self.space.index(m.group(2))
        except KeyError:
            self.err(E_NAME, lineno, "undeclared basis name in inner product")
        if (i, j) in self.ip_entries:
            self.err(E_DUPLICATE, lineno, "duplicate inner product entry")
        try:
            self.ip_entries[(i, j)] = self.space.field.parse(m.group(3).strip())
        except ValueError as exc:
            self.err(E_SCALAR, lineno, str(exc))

    def parse_assignment(self, line, lineno):
        m = _assign_re.match(line)
        if not m:
            self.err(E_DIRECTIVE, lineno, "unrecognized line %r" % line)
        name, args_s, value_s = m.groups()
        block_name, arity, entries, _ = self.block
        if name != block_name:
            self.err(E_DIRECTIVE, lineno,
                     "assignment to %r inside the block of %r"
                     % (name, block_name))
        args = [a.strip() for a in args_s.split(",")] if args_s.strip() else []
        if len(args) != arity:
            self.err(E_ARITY, lineno,
                     "%d arguments for a map of arity %d" % (len(args), arity))
        try:
            t = tuple(self.space.index(a) for a in args)
        except KeyError as exc:
            self.err(E_NAME, lineno, "undeclared basis name %s" % exc.args[0])
        if self.flavor == EXTERIOR:
            cw = canonical_word(EXTERIOR, t, self.space.parities)
            letters = "(%s)" % ",".join(args)
            if cw is None:
                self.err(E_ARITY, lineno, "exterior tuple %s repeats an even "
                         "letter, so it is zero" % letters)
            elif cw[1] != t:
                self.err(E_ARITY, lineno, "exterior tuple %s is not in basis "
                         "order, which is (%s)" % (letters, ",".join(
                             self.space.names[i] for i in cw[1])))
        if t in entries:
            self.err(E_DUPLICATE, lineno,
                     "duplicate assignment for (%s)" % args_s)
        vec = self.parse_value(value_s, lineno)
        if vec:
            entries[t] = vec

    def parse_value(self, text, lineno):
        text = text.strip()
        if text == "0":
            return {}
        vec = {}
        for sign, term in self.split_terms(text, lineno):
            if "*" in term:
                coeff_s, _, name = term.partition("*")
                coeff_s, name = coeff_s.strip(), name.strip()
            else:
                tokens = term.split()
                if len(tokens) == 1:
                    # a bare token is a basis name when declared (names may
                    # be numeric, like the unit of the dual numbers)
                    coeff_s, name = None, tokens[0]
                elif len(tokens) == 2:
                    coeff_s, name = tokens
                else:
                    self.err(E_SCALAR, lineno, "cannot read term %r" % term)
            if not name or coeff_s == "":
                self.err(E_SCALAR, lineno, "cannot read term %r" % term)
            try:
                idx = self.space.index(name)
            except KeyError:
                if coeff_s is None and _scalar_re.match(name):
                    try:
                        self.space.field.parse(name)
                    except ValueError as exc:
                        self.err(E_SCALAR, lineno, str(exc))
                    self.err(E_SCALAR, lineno,
                             "scalar %r without a basis name" % name)
                self.err(E_NAME, lineno, "undeclared basis name %r" % name)
            try:
                coeff = (self.space.field.parse(coeff_s) if coeff_s
                         else self.space.field(1))
            except ValueError as exc:
                self.err(E_SCALAR, lineno, str(exc))
            cur = vec.get(idx, self.space.field(0)) + sign * coeff
            if cur:
                vec[idx] = cur
            else:
                vec.pop(idx, None)
        return vec

    def split_terms(self, text, lineno):
        """Split a linear combination at top-level +/- signs."""
        out = []
        sign = 1
        cur = []
        started = False
        for ch in text:
            if ch in "+-" and started and cur and cur[-1] not in "*/":
                out.append((sign, "".join(cur).strip()))
                sign = -1 if ch == "-" else 1
                cur = []
                continue
            if ch == "-" and not started and not cur:
                sign = -sign
                continue
            if ch == "+" and not started and not cur:
                continue
            cur.append(ch)
            if not ch.isspace():
                started = True
        if started:
            # after a trailing + or - this is the empty term ''
            out.append((sign, "".join(cur).strip()))
        if not out:
            self.err(E_SCALAR, lineno, "empty value")
        return out

    def cochain_from_block(self, directive, block, declared_parity=None):
        name, arity, entries, lineno = block
        what = "%s %s of arity %d" % (directive, name, arity)
        space = self.space
        parity = None
        for t, vec in entries.items():
            for b in vec:
                p = word_parity(space, t + (b,))
                if parity is None:
                    parity = p
                elif parity != p:
                    self.err(E_PARITY, lineno,
                             "%s mixes output parities" % what)
        if parity is None:
            parity = declared_parity if declared_parity is not None else arity & 1
        if declared_parity is not None and parity != declared_parity:
            self.err(E_PARITY, lineno,
                     "%s has parity %d but the declared parameter parity "
                     "forces %d" % (what, parity, declared_parity))
        try:
            return Cochain(space, self.flavor, arity, parity, entries)
        except ValueError as exc:
            self.err(E_ARITY, lineno, "%s: %s" % (what, exc))

    def build(self):
        parts = {k: self.cochain_from_block("map", block)
                 for k, block in sorted(self.maps.items())}
        part_names = {k: block[0] for k, block in sorted(self.maps.items())}
        ip = None
        if self.ip_entries is not None:
            n = self.space.dim
            matrix = [[self.space.field(0)] * n for _ in range(n)]
            for (i, j), v in self.ip_entries.items():
                matrix[i][j] = v
            # absent mirror entries follow from graded symmetry
            for (i, j), v in self.ip_entries.items():
                if i != j and (j, i) not in self.ip_entries:
                    sign = -1 if (self.space.parities[i] &
                                  self.space.parities[j]) else 1
                    matrix[j][i] = sign * v
            try:
                ip = InnerProduct(self.space, matrix)
            except ValueError as exc:
                self.err(E_STRUCTURE, self.ip_line, "inner_product: %s" % exc)
        deformations = {}
        for name, (parity, blocks) in sorted(self.defos.items()):
            deformations[name] = (parity, {
                k: self.cochain_from_block("deformation", block,
                                           (parity + k) & 1)
                for k, block in sorted(blocks.items())})
        return AlgebraFile(self.space, self.flavor, parts, part_names, ip,
                           deformations)


def parse(text):
    """Parse the algebra format into an AlgebraFile, or raise ParseError."""
    return _Parser(text).run()


# --- serialization ----------------------------------------------------------

def render_vector(space, vec):
    if not vec:
        return "0"
    terms = []
    for b in sorted(vec):
        c = vec[b]
        s = space.field.render(c)
        if s == "1":
            terms.append(space.names[b])
        elif s == "-1":
            terms.append("-" + space.names[b])
        else:
            terms.append("%s*%s" % (s, space.names[b]))
    out = terms[0]
    for t in terms[1:]:
        if t.startswith("-"):
            out += " - " + t[1:]
        else:
            out += " + " + t
    return out


def serialize(af):
    """Canonical text form; parse(serialize(x)) == x."""
    space = af.space
    lines = []
    if space.field == QQ:
        lines.append("field Q")
    else:
        lines.append("field F %d" % space.field.p)
    lines.append("flavor %s" % af.flavor)
    lines.append("space")
    for name, parity in zip(space.names, space.parities):
        lines.append("  basis %s %s" % (name, "odd" if parity else "even"))

    def block(header, name, part):
        lines.append(header)
        for t in sorted(part.coeffs):
            args = ",".join(space.names[i] for i in t)
            lines.append("  %s(%s) = %s"
                         % (name, args, render_vector(space, part.coeffs[t])))
    for arity in sorted(af.parts):
        name = af.part_names.get(arity, "m")
        block("map %s %d" % (name, arity), name, af.parts[arity])
    if af.inner_product is not None:
        lines.append("inner_product")
        for i in range(space.dim):
            for j in range(space.dim):
                v = af.inner_product.matrix[i][j]
                if v:
                    lines.append("  <%s,%s> = %s"
                                 % (space.names[i], space.names[j],
                                    space.field.render(v)))
    for name in sorted(af.deformations):
        parity, fam = af.deformations[name]
        tag = "odd_parameter" if parity else "even_parameter"
        for arity in sorted(fam):
            block("deformation %s %d %s" % (name, arity, tag), name,
                  fam[arity])
    return "\n".join(lines) + "\n"
