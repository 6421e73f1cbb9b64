"""Exact scalars and polynomials: rationals and Laurent polynomials over Q.

The text form of a rational is ``"num/den"``, the denominator omitted when
it is 1, which is exactly ``str(Fraction)``; :func:`split_rational` reads it
into integers and :func:`format_rational` writes it from integers.

:func:`integer_form` puts rationals over one positive denominator in lowest
terms. A :class:`LaurentPoly` holds that form, so equality compares integers;
it is the one stored form of a filter (its mask) and of each polyphase
component. Floats come from it by ``int / int``, which rounds correctly.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Tuple

from .errors import DimensionMismatch, DomainError

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


def split_rational(text: str, max_digits=None) -> Tuple[int, int]:
    """Read the "num/den" text form as (num, den), den > 0, not reduced.

    Only that grammar is read: an optional sign, decimal digits, and
    optionally "/" and more digits, with surrounding whitespace ignored.
    Exponents and decimal points are refused, so no text can make the parser
    build a power of ten; neither part may exceed Python's int-string limit.
    With max_digits, a part of more digits past its sign and leading zeros
    raises OverflowError unread: int() is quadratic in the digits.
    """
    m = _RATIONAL_TEXT.fullmatch(str(text).strip())
    if m and max_digits and max(len(part.lstrip("+-0")) for part in m.groups("")) > max_digits:
        raise OverflowError(f"a part of {text!r:.40} has more than {max_digits} digits")
    try:
        num, den = int(m[1]), int(m[2] or 1)
    except (TypeError, ValueError) as exc:  # TypeError: no match
        raise DomainError(f"not a rational: {text!r}") from exc
    if not den:
        raise DomainError(f"not a rational: {text!r}")
    return num, den


def format_rational(num: int, den: int) -> str:
    """The text form of num/den (den > 0), which equals ``str(Fraction(num, den))``."""
    g = gcd(num, den)
    if g != 1:
        num //= g
        den //= g
    return str(num) if den == 1 else f"{num}/{den}"


def integer_form(pairs: Iterable[Tuple[int, int]], max_bits=None) -> Tuple[List[int], int]:
    """The rationals n/d (d > 0) of pairs as (numerators, den), over one positive
    denominator in lowest terms; ([], 1) for none. With max_bits, a denominator
    or numerator of more bits over the lcm raises DomainError, before any gcd."""
    pairs = list(pairs)
    dens = {d for _, d in pairs}
    den = 1
    for d in dens:
        den = lcm(den, d)
        if max_bits and den.bit_length() > max_bits:
            raise DomainError(f"more than {max_bits} bits over one denominator")
    scale = {d: den // d for d in dens}
    nums = [n * scale[d] for n, d in pairs]
    if max_bits and max(map(abs, nums), default=0).bit_length() > max_bits:
        raise DomainError(f"more than {max_bits} bits over one denominator")
    g = gcd(den, *nums)
    return (nums, den) if g == 1 else ([v // g for v in nums], den // g)


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
        values: Dict[MultiIndex, Tuple[int, int]] = {}
        for k, v in dict(terms or ()).items():
            k = tuple(int(x) for x in k)
            if len(k) != n:
                raise DimensionMismatch(f"exponent {k} has length {len(k)}, expected {n}")
            v = Fraction(v)
            if v:
                values[k] = v.as_integer_ratio()
        nums, self.den = integer_form(values.values())
        self.n = n
        self.num = dict(zip(values, nums))

    @classmethod
    def from_integers(cls, n: int, num: Dict[MultiIndex, int], den: int) -> "LaurentPoly":
        """The polynomial sum num[k]/den * x^k; drops zeros and reduces. den > 0."""
        num = {k: v for k, v in num.items() if v}
        g = gcd(den, *num.values())
        if g != 1:
            num = {k: v // g for k, v in num.items()}
            den //= g
        return cls.reduced(n, num, den)

    @classmethod
    def reduced(cls, n: int, num: Dict[MultiIndex, int], den: int) -> "LaurentPoly":
        """The polynomial sum num[k]/den * x^k of a form already in lowest terms
        (nonzero numerators, den > 0, gcd 1), taken as it is."""
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

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self._combine(other, -1)

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
        accumulate_products(out, self.num.items(), list(zip(*other.num)),
                            list(other.num.values()))
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
        return LaurentPoly.reduced(self.n, {f(k): v for k, v in self.num.items()}, self.den)

    def __eq__(self, other):
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


def accumulate_products(acc: Dict[MultiIndex, int], left: Iterable[Tuple[MultiIndex, int]],
                        cols: List[Tuple[int, ...]], values: List[int]) -> None:
    """Add va * vb to acc at ka + kb for each term (ka, va) of left and each term
    (kb, vb) of the right operand, which is given as its exponent columns (one
    tuple per axis, as ``list(zip(*num))``) and its values in the same order."""
    get = acc.get
    for ka, va in left:
        # the right operand's exponents shifted by ka, axis by axis
        shifted = zip(*[[x + a for x in col] for col, a in zip(cols, ka)])
        for k, vb in zip(shifted, values):
            acc[k] = get(k, 0) + va * vb


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
