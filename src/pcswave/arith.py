"""Exact scalars: arbitrary-precision rationals and the cyclotomic field Q(zeta_p).

Rational values are plain :class:`fractions.Fraction` (always reduced, positive
denominator). Their text form is ``"num/den"`` with the denominator omitted
when it equals 1, which is exactly ``str(Fraction)``.

:class:`Cyclotomic` represents elements of Q(zeta_p) for a prime p, with
zeta_p = exp(-2*pi*i/p). Every mask evaluation at a lattice frequency lands in
this field, so zero tests there are exact rather than floating-point guesses.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import CompositeDilation, DomainError

Rational = Fraction


def is_prime(p: int) -> bool:
    """Trial-division primality test; dilations here stay small."""
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


_RATIONAL_TEXT = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text: str) -> Fraction:
    """Parse the "num/den" text form (denominator omitted when 1).

    Only that grammar is read: an optional sign, decimal digits, and
    optionally "/" and more digits, with surrounding whitespace ignored.
    Exponents and decimal points are refused, so no text can make the parser
    build a power of ten; neither part may exceed Python's int-string limit.
    """
    m = _RATIONAL_TEXT.fullmatch(str(text).strip())
    if m is None:
        raise DomainError(f"not a rational: {text!r}")
    num, den = m.groups()
    try:
        return Fraction(int(num), int(den) if den else 1)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"not a rational: {text!r}") from exc


def format_rational(x) -> str:
    return str(Fraction(x))


class Cyclotomic:
    """An element of Q(zeta_p), p prime, zeta_p = exp(-2*pi*i/p).

    Stored as p rational coordinates on the redundant basis 1, zeta, ...,
    zeta^(p-1). Since 1 + zeta + ... + zeta^(p-1) = 0, the constructor
    canonicalizes by subtracting the last coordinate from all of them; in
    canonical form the last coordinate is 0 and equality and zero tests are
    coordinate-wise.
    """

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs) -> None:
        if not is_prime(p):
            raise CompositeDilation(f"cyclotomic order must be prime, got {p}")
        cs = [Fraction(c) for c in coeffs]
        if len(cs) != p:
            raise DomainError(f"need {p} coordinates for Q(zeta_{p}), got {len(cs)}")
        last = cs[-1]
        if last:
            cs = [c - last for c in cs]
        self.p = p
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, p: int) -> "Cyclotomic":
        return cls(p, [0] * p)

    @classmethod
    def one(cls, p: int) -> "Cyclotomic":
        return cls.from_rational(p, 1)

    @classmethod
    def from_rational(cls, p: int, value) -> "Cyclotomic":
        cs = [Fraction(0)] * p
        cs[0] = Fraction(value)
        return cls(p, cs)

    @classmethod
    def root(cls, p: int, e: int) -> "Cyclotomic":
        """zeta_p ** e, reduced to canonical form."""
        if not is_prime(p):
            raise CompositeDilation(f"cyclotomic order must be prime, got {p}")
        cs = [Fraction(0)] * p
        cs[e % p] = Fraction(1)
        return cls(p, cs)

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.from_rational(self.p, other)
        if isinstance(other, Cyclotomic):
            if other.p != self.p:
                raise DomainError(f"mixed cyclotomic orders {self.p} and {other.p}")
            return other
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclotomic(self.p, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclotomic(self.p, [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Cyclotomic(self.p, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            s = Fraction(other)
            return Cyclotomic(self.p, [a * s for a in self.coeffs])
        if isinstance(other, Cyclotomic):
            if other.p != self.p:
                raise DomainError(f"mixed cyclotomic orders {self.p} and {other.p}")
            p = self.p
            out = [Fraction(0)] * p
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[(i + j) % p] += a * b
            return Cyclotomic(p, out)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise DomainError("negative cyclotomic powers are not supported")
        acc = Cyclotomic.one(self.p)
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other):
        o = self._coerce(other) if not isinstance(other, Cyclotomic) else other
        if o is None:
            return NotImplemented
        if isinstance(o, Cyclotomic) and o.p != self.p:
            return False
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __repr__(self):
        parts = ", ".join(str(c) for c in self.coeffs)
        return f"Cyclotomic({self.p}, [{parts}])"
