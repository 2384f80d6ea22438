"""Exact scalar arithmetic: the rationals and prime fields F_p.

Every coefficient in the library is either a ``fractions.Fraction`` or an
``FpElement``; all arithmetic is exact and equality is decidable.  Integer
literals (in particular the signs +1/-1 produced by the combinatorics) mix
freely with both scalar kinds.
"""

from __future__ import annotations

from fractions import Fraction


# Miller-Rabin with the prime bases up to 41 decides primality exactly for
# every n below PRIME_BOUND, the least strong pseudoprime to all of them
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def is_prime(n):
    """Deterministic Miller-Rabin; ValueError for n >= PRIME_BOUND, where
    the fixed bases prove nothing."""
    if n >= PRIME_BOUND:
        raise ValueError("primality is decided only below %d, got %d"
                         % (PRIME_BOUND, n))
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FpElement:
    """A residue mod p.  Supports mixed arithmetic with ints."""

    __slots__ = ("value", "p")

    def __init__(self, value, p):
        self.value = value % p
        self.p = p

    def _lift(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise ValueError("mixed prime fields F_%d and F_%d" % (self.p, other.p))
            return other.value
        if isinstance(other, int):
            return other % self.p
        return NotImplemented

    def __add__(self, other):
        v = self._lift(other)
        if v is NotImplemented:
            return NotImplemented
        return FpElement(self.value + v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._lift(other)
        if v is NotImplemented:
            return NotImplemented
        return FpElement(self.value - v, self.p)

    def __rsub__(self, other):
        v = self._lift(other)
        if v is NotImplemented:
            return NotImplemented
        return FpElement(v - self.value, self.p)

    def __mul__(self, other):
        v = self._lift(other)
        if v is NotImplemented:
            return NotImplemented
        return FpElement(self.value * v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._lift(other)
        if v is NotImplemented:
            return NotImplemented
        if v % self.p == 0:
            raise ZeroDivisionError("division by zero in F_%d" % self.p)
        return FpElement(self.value * pow(v, -1, self.p), self.p)

    def __rtruediv__(self, other):
        v = self._lift(other)
        if v is NotImplemented:
            return NotImplemented
        if self.value == 0:
            raise ZeroDivisionError("division by zero in F_%d" % self.p)
        return FpElement(v * pow(self.value, -1, self.p), self.p)

    def __neg__(self):
        return FpElement(-self.value, self.p)

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.p))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return str(self.value)


class Rationals:
    """Field descriptor for Q; scalars are fractions.Fraction."""

    name = "Q"
    characteristic = 0

    def __call__(self, value=0):
        return Fraction(value)

    def parse(self, text):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise ValueError("bad rational scalar %r" % text)

    def render(self, value):
        return str(value)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField:
    """Field descriptor for F_p, p prime."""

    def __init__(self, p):
        if not is_prime(p):
            raise ValueError("F_p needs a prime p, got %d" % p)
        self.p = p
        self.name = "F_%d" % p
        self.characteristic = p

    def __call__(self, value=0):
        if isinstance(value, FpElement):
            if value.p != self.p:
                raise ValueError("element of F_%d used in F_%d" % (value.p, self.p))
            return value
        if isinstance(value, Fraction):
            return FpElement(value.numerator, self.p) / value.denominator
        return FpElement(int(value), self.p)

    def parse(self, text):
        # residues may be written as integers or a/b with b invertible
        try:
            q = Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise ValueError("bad scalar %r" % text)
        if q.denominator % self.p == 0:
            raise ValueError("scalar %r divides by zero in %s" % (text, self.name))
        return self(q)

    def render(self, value):
        return str(self(value).value)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))

    def __repr__(self):
        return self.name


QQ = Rationals()
