"""Laurent polynomial algebra and polyphase representations of filters.

A :class:`LaurentPoly` in n variables is a finite map from integer exponent
vectors to rationals, where the exponent k stands for the basis function
e^{-i k.w}. Under that convention, conjugating a real-coefficient polynomial
negates exponents, and substituting w -> p*w multiplies them by p; both are
exact exponent transforms, so the whole polyphase layer stays in Q.

All of that arithmetic runs on Python integers: a polynomial is a map from
exponents to integer numerators over one positive denominator, kept in lowest
terms, so equality is a comparison of integers. ``Fraction`` appears only at
the boundaries: ``LaurentPoly(n, terms)`` takes rationals, ``.terms`` reads
them back, and :func:`mask_poly`/:func:`filter_of_mask` convert from and to
the ``Fraction`` taps of a filter.

The polyphase decomposition splits a filter into q = p^n subfilters indexed by
Gamma. Synthesis components are (1/q) sum_k f(nu + p k) e^{-i k.w}; analysis
components conjugate, which for real taps means (1/q) sum_k f(nu - p k)
e^{-i k.w}. A filter bank becomes a pair of q x q matrices over this ring, and
perfect reconstruction is the exact identity S(w) A(w) = (1/q) I, which
:func:`matmul` and :func:`identity_residuals` decide over one common
denominator per matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Tuple

from .errors import DimensionMismatch, DomainError, NotInterpolatory
from .filters import Filter1D, FilterND, is_interpolatory
from .lattice import CosetSystem, eta_routes

MultiIndex = Tuple[int, ...]

SYNTHESIS = "synthesis"
ANALYSIS = "analysis"


def common_denominator(values: Iterable[Fraction]) -> int:
    """The least common denominator of some rationals (1 for none)."""
    return lcm(*(v.denominator for v in values))


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
        den = common_denominator(values.values())
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


def mask_poly(f: FilterND) -> LaurentPoly:
    """The mask of f as a Laurent polynomial: (1/q) sum h(k) e^{-i k.w}."""
    return LaurentPoly(f.dim, f.taps) * Fraction(1, f.q)


def filter_of_mask(poly: LaurentPoly, p: int) -> FilterND:
    """Inverse of :func:`mask_poly`: taps are q times the coefficients."""
    q, den = p ** poly.n, poly.den
    return FilterND(p=p, dim=poly.n, taps={k: Fraction(v * q, den) for k, v in poly.num.items()})


def polyphase_decompose(f: FilterND, sys: CosetSystem, side: str = SYNTHESIS) -> List[LaurentPoly]:
    """Polyphase components of f indexed by sys.gamma (zero class first).

    Synthesis side: component nu is (1/q) sum_k f(nu + p k) e^{-i k.w}.
    Analysis side: the conjugate, (1/q) sum_k f(nu - p k) e^{-i k.w}.
    """
    if side not in (SYNTHESIS, ANALYSIS):
        raise DomainError(f"side must be {SYNTHESIS!r} or {ANALYSIS!r}")
    if f.dim != sys.n or f.p != sys.p:
        raise DimensionMismatch("filter and coset system disagree on p or dimension")
    p, q = sys.p, sys.q
    den = common_denominator(f.taps.values())
    comps: List[Dict[MultiIndex, int]] = [{} for _ in range(q)]
    for x, v in f.taps.items():
        i = sys.index_of(x)
        r = sys.gamma[i]
        if side == SYNTHESIS:
            k = tuple((a - b) // p for a, b in zip(x, r))
        else:
            k = tuple((b - a) // p for a, b in zip(x, r))
        # x -> (coset, k) is one to one, so no two taps share a slot
        comps[i][k] = v.numerator * (den // v.denominator)
    return [LaurentPoly.from_integers(sys.n, c, den * q) for c in comps]


def coset_sum_polyphase(H: Filter1D, sys: CosetSystem, nu) -> LaurentPoly:
    """Synthesis polyphase component of the lifted filter, built from H alone.

    Returns, as a polynomial in w whose exponents are all multiples of p,

        (1/((p-1) p^(n-1))) * sum over l in F_p' of
            e^{i w.(nu - eta(l,nu) l)} * (H(l + p.))^ ( p w . eta(l,nu) )

    which equals the nu-component of the lifted filter's polyphase vector with
    its variable substituted w -> p w. Tap m = l + p m' of H lands at exponent
    eta(l,nu) m - nu, the negated route of :func:`pcswave.lattice.eta_routes`.
    """
    den = common_denominator(H.taps.values())
    out: Dict[MultiIndex, int] = {}
    for k, v in eta_routes(sys, H.taps, nu):
        k = tuple(-x for x in k)
        out[k] = out.get(k, 0) + v.numerator * (den // v.denominator)
    # scale 1/((p-1) p^(n-1)) times the 1/p of the 1-D polyphase component
    return LaurentPoly.from_integers(sys.n, out, den * (sys.p - 1) * sys.q)


@dataclass
class PolyphaseMatrix:
    rows: int
    cols: int
    entries: List[List[LaurentPoly]]

    def __getitem__(self, rc):
        return self.entries[rc[0]][rc[1]]


def _integer_entries(m: PolyphaseMatrix) -> Tuple[int, List[List[List[Tuple[MultiIndex, int]]]]]:
    """m over one common denominator D: (D, term lists of D * entry)."""
    den = lcm(*(e.den for row in m.entries for e in row))
    return den, [[[(k, v * (den // e.den)) for k, v in e.num.items()] for e in row]
                 for row in m.entries]


def matmul(left: PolyphaseMatrix, right: PolyphaseMatrix) -> PolyphaseMatrix:
    """Exact product; both factors go over one common denominator each first."""
    if left.cols != right.rows:
        raise DimensionMismatch(f"cannot multiply {left.rows}x{left.cols} by {right.rows}x{right.cols}")
    n = left.entries[0][0].n if left.rows and left.cols else 1
    dl, a = _integer_entries(left)
    dr, b = _integer_entries(right)
    acc: List[List[Dict[MultiIndex, int]]] = [
        [dict() for _ in range(right.cols)] for _ in range(left.rows)
    ]
    for k in range(left.cols):
        col = [(i, a[i][k]) for i in range(left.rows) if a[i][k]]
        row = [(j, b[k][j]) for j in range(right.cols) if b[k][j]]
        for i, ta in col:
            acc_i = acc[i]
            for j, tb in row:
                dst = acc_i[j]
                get = dst.get
                for ka, va in ta:
                    for kb, vb in tb:
                        kk = tuple(map(add, ka, kb))
                        dst[kk] = get(kk, 0) + va * vb
    den = dl * dr
    entries = [[LaurentPoly.from_integers(n, acc[i][j], den) for j in range(right.cols)]
               for i in range(left.rows)]
    return PolyphaseMatrix(rows=left.rows, cols=right.cols, entries=entries)


def identity_residuals(m: PolyphaseMatrix, q: int) -> List[Tuple[int, int, LaurentPoly]]:
    """Entries of m - (1/q) I that are nonzero, with their residual polynomials."""
    if m.rows != m.cols:
        raise DimensionMismatch("identity residual needs a square matrix")
    bad = []
    for i, row in enumerate(m.entries):
        for j, e in enumerate(row):
            if i != j:
                if e.num:
                    bad.append((i, j, e))
            elif e.den != q or e.num != {(0,) * e.n: 1}:
                bad.append((i, j, e - Fraction(1, q)))
    return bad


def build_A_S(g: FilterND, h: FilterND, sys: CosetSystem) -> Tuple[PolyphaseMatrix, PolyphaseMatrix]:
    """Analysis/synthesis polyphase matrix pair for the interpolatory completion.

    With Ga the analysis polyphase vector of g, Sh the synthesis vector of the
    interpolatory h, and B = 1/q - Ga.Sh, the pair is

        A = [[Ga_0 + q B,  Ga'], [-q Sh', I]]
        S = [[1/q, -(1/q) Ga'], [Sh', (1/q) I - Sh' Ga']]

    and satisfies S A = (1/q) I exactly. The sign on S's top-right block is
    forced by that identity (and by the synthesis polyphase of the actual
    highpass filters); the check is in :func:`matmul_check` and the tests.
    """
    if not is_interpolatory(h):
        raise NotInterpolatory("h must be interpolatory to build the matrix pair")
    if g.p != h.p or g.dim != h.dim or g.dim != sys.n or g.p != sys.p:
        raise DimensionMismatch("g, h, and the coset system must agree on p and dimension")
    q = sys.q
    ga = polyphase_decompose(g, sys, ANALYSIS)
    sh = polyphase_decompose(h, sys, SYNTHESIS)
    b = LaurentPoly.const(sys.n, Fraction(1, q))
    for i in range(q):
        b = b - ga[i] * sh[i]

    one = LaurentPoly.const(sys.n, 1)
    zero = LaurentPoly.zero(sys.n)

    a_rows = [[ga[0] + q * b] + [ga[j] for j in range(1, q)]]
    for i in range(1, q):
        row = [(-q) * sh[i]] + [one if i == j else zero for j in range(1, q)]
        a_rows.append(row)

    s_rows = [[LaurentPoly.const(sys.n, Fraction(1, q))] +
              [ga[j] * Fraction(-1, q) for j in range(1, q)]]
    for i in range(1, q):
        row = [sh[i]]
        for j in range(1, q):
            e = sh[i] * ga[j] * Fraction(-1)
            if i == j:
                e = e + Fraction(1, q)
            row.append(e)
        s_rows.append(row)

    A = PolyphaseMatrix(rows=q, cols=q, entries=a_rows)
    S = PolyphaseMatrix(rows=q, cols=q, entries=s_rows)
    return A, S


def triangular_factors(g: FilterND, h: FilterND, sys: CosetSystem) -> Tuple[PolyphaseMatrix, PolyphaseMatrix]:
    """The two triangular matrices whose product is A: [[1, Ga'],[0, I]] x [[1, 0],[-q Sh', I]]."""
    if not is_interpolatory(h):
        raise NotInterpolatory("h must be interpolatory")
    q = sys.q
    ga = polyphase_decompose(g, sys, ANALYSIS)
    sh = polyphase_decompose(h, sys, SYNTHESIS)
    one = LaurentPoly.const(sys.n, 1)
    zero = LaurentPoly.zero(sys.n)
    upper = [[one] + [ga[j] for j in range(1, q)]]
    lower = [[one] + [zero] * (q - 1)]
    for i in range(1, q):
        upper.append([zero] + [one if i == j else zero for j in range(1, q)])
        lower.append([(-q) * sh[i]] + [one if i == j else zero for j in range(1, q)])
    return (PolyphaseMatrix(q, q, upper), PolyphaseMatrix(q, q, lower))


def matmul_check(S: PolyphaseMatrix, A: PolyphaseMatrix, q: int) -> bool:
    """True iff S A equals (1/q) I as an exact Laurent identity."""
    return not identity_residuals(matmul(S, A), q)


def matrix_to_json(m: PolyphaseMatrix) -> dict:
    """Debug export: every entry as a sorted exponent -> coefficient list."""
    entries = [[[{"k": list(k), "v": str(v)} for k, v in sorted(e.terms.items())]
                for e in row] for row in m.entries]
    return {"rows": m.rows, "cols": m.cols, "entries": entries}
