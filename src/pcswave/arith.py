"""Exact scalars and polynomials: rationals, Laurent polynomials over Q, and Q(zeta_p).

The text form of a rational is ``"num/den"``, the denominator omitted when
it is 1, which is exactly ``str(Fraction)``; :func:`split_rational` reads it
into integers and :func:`format_rational` writes it from integers.

A :class:`LaurentPoly` holds integer numerators over one positive
denominator, in lowest terms, so equality is a comparison of integers. It is
the one stored form of a filter (its mask) and of every polyphase component.

:class:`Cyclotomic` represents elements of Q(zeta_p) for a prime p, with
zeta_p = exp(-2*pi*i/p). Every mask evaluation at a lattice frequency lands in
this field, so zero tests there are exact rather than floating-point guesses.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import add
from types import MappingProxyType
from typing import Dict, Iterable, Mapping, Tuple

from .errors import CompositeDilation, DimensionMismatch, DomainError

MultiIndex = Tuple[int, ...]


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


def split_rational(text: str) -> Tuple[int, int]:
    """Read the "num/den" text form as (num, den), den > 0, not reduced.

    Only that grammar is read: an optional sign, decimal digits, and
    optionally "/" and more digits, with surrounding whitespace ignored.
    Exponents and decimal points are refused, so no text can make the parser
    build a power of ten; neither part may exceed Python's int-string limit.
    """
    m = _RATIONAL_TEXT.fullmatch(str(text).strip())
    try:
        num, den = int(m[1]), int(m[2] or 1)
    except (TypeError, ValueError) as exc:  # TypeError: no match
        raise DomainError(f"not a rational: {text!r}") from exc
    if not den:
        raise DomainError(f"not a rational: {text!r}")
    return num, den


def parse_rational(text: str) -> Fraction:
    """The value of the "num/den" text form, as read by :func:`split_rational`."""
    return Fraction(*split_rational(text))


def format_rational(num: int, den: int) -> str:
    """The text form of num/den (den > 0), which equals ``str(Fraction(num, den))``."""
    g = gcd(num, den)
    if g != 1:
        num //= g
        den //= g
    return str(num) if den == 1 else f"{num}/{den}"


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


class LaurentPoly:
    """Sparse Laurent polynomial over Q in n variables; exponent k <-> e^{-i k.w}.

    The coefficient at k is ``num[k] / den``: ``num`` maps exponents to
    nonzero integers and ``den`` is a positive integer with
    gcd(den, every numerator) == 1 (den is 1 for the zero polynomial). That
    form is unique, so equal polynomials have equal ``num`` and ``den``.
    Every operation returns a new polynomial; none changes its operands.
    ``terms`` is a read-only view of the coefficients as ``Fraction``.
    """

    __slots__ = ("n", "num", "den")

    def __init__(self, n: int, terms=None):
        values: Dict[MultiIndex, Fraction] = {}
        if terms:
            for k, v in dict(terms).items():
                k = tuple(int(x) for x in k)
                if len(k) != n:
                    raise DimensionMismatch(f"exponent {k} has length {len(k)}, expected {n}")
                v = Fraction(v)
                if v:
                    values[k] = v
        den = lcm(*(v.denominator for v in values.values()))
        # reduced fractions over their least common denominator are in lowest terms
        self.n = n
        self.num = {k: v.numerator * (den // v.denominator) for k, v in values.items()}
        self.den = den

    @classmethod
    def from_integers(cls, n: int, num: Dict[MultiIndex, int], den: int) -> "LaurentPoly":
        """The polynomial sum num[k]/den * x^k; drops zeros and reduces. den > 0."""
        num = {k: v for k, v in num.items() if v}
        g = gcd(den, *num.values())
        if g != 1:
            num = {k: v // g for k, v in num.items()}
            den //= g
        r = cls.__new__(cls)
        r.n = n
        r.num = num
        r.den = den
        return r

    @classmethod
    def zero(cls, n: int) -> "LaurentPoly":
        return cls(n)

    @classmethod
    def const(cls, n: int, value) -> "LaurentPoly":
        return cls(n, {(0,) * n: value})

    @classmethod
    def monomial(cls, exponent, value=1) -> "LaurentPoly":
        exponent = tuple(exponent)
        return cls(len(exponent), {exponent: value})

    @property
    def terms(self) -> Mapping[MultiIndex, Fraction]:
        """The coefficients as exponent -> Fraction, read-only."""
        den = self.den
        return MappingProxyType({k: Fraction(v, den) for k, v in self.num.items()})

    def is_zero(self) -> bool:
        return not self.num

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return LaurentPoly.const(self.n, other)
        if not isinstance(other, LaurentPoly):
            return None
        if self.n != other.n:
            raise DimensionMismatch(f"mixed variable counts {self.n} and {other.n}")
        return other

    def _combine(self, other: "LaurentPoly", sign: int) -> "LaurentPoly":
        """self + sign * other over the least common denominator."""
        den = lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)
        out = {k: v * a for k, v in self.num.items()}
        for k, v in other.num.items():
            out[k] = out.get(k, 0) + v * b
        return LaurentPoly.from_integers(self.n, out, den)

    def __add__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self._combine(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            s = Fraction(other)
            return LaurentPoly.from_integers(
                self.n, {k: v * s.numerator for k, v in self.num.items()},
                self.den * s.denominator)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: Dict[MultiIndex, int] = {}
        get = out.get
        right = list(other.num.items())
        for ka, va in self.num.items():
            for kb, vb in right:
                k = tuple(map(add, ka, kb))
                out[k] = get(k, 0) + va * vb
        return LaurentPoly.from_integers(self.n, out, self.den * other.den)

    __rmul__ = __mul__

    def conj(self) -> "LaurentPoly":
        """Complex conjugate; real coefficients make this exponent negation."""
        return self._rekey(lambda k: tuple(-x for x in k))

    def stretch(self, factor: int) -> "LaurentPoly":
        """Substitute w -> factor * w, i.e. multiply every exponent by factor."""
        if factor == 0:
            return LaurentPoly.from_integers(self.n, {(0,) * self.n: sum(self.num.values())},
                                             self.den)
        return self._rekey(lambda k: tuple(factor * x for x in k))

    def _rekey(self, f) -> "LaurentPoly":
        # an injective exponent map keeps the form reduced
        r = LaurentPoly.__new__(LaurentPoly)
        r.n = self.n
        r.num = {f(k): v for k, v in self.num.items()}
        r.den = self.den
        return r

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.n, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.n == other.n and self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.n, self.den, frozenset(self.num.items())))

    def __repr__(self):
        if not self.num:
            return "LaurentPoly(0)"
        body = " + ".join(f"({v})*x^{list(k)}" for k, v in sorted(self.terms.items()))
        return f"LaurentPoly({body})"


def poly_sum(n: int, polys: Iterable[LaurentPoly]) -> LaurentPoly:
    """The sum of some polynomials in n variables, over their common denominator."""
    polys = list(polys)
    den = lcm(*(f.den for f in polys))
    out: Dict[MultiIndex, int] = {}
    for f in polys:
        scale = den // f.den
        for k, v in f.num.items():
            out[k] = out.get(k, 0) + v * scale
    return LaurentPoly.from_integers(n, out, den)
