"""Laurent polynomial algebra and polyphase representations of filters.

A :class:`LaurentPoly` in n variables is a finite map from integer exponent
vectors to rationals, where the exponent k stands for the basis function
e^{-i k.w}. Under that convention, conjugating a real-coefficient polynomial
negates exponents, and substituting w -> p*w multiplies them by p; both are
exact exponent transforms, so the whole polyphase layer stays in Q.

The polyphase decomposition splits a filter into q = p^n subfilters indexed by
Gamma. Synthesis components are (1/q) sum_k f(nu + p k) e^{-i k.w}; analysis
components conjugate, which for real taps means (1/q) sum_k f(nu - p k)
e^{-i k.w}. A filter bank becomes a pair of q x q matrices over this ring, and
perfect reconstruction is the exact identity S(w) A(w) = (1/q) I.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from .errors import DimensionMismatch, DomainError, NotInterpolatory, PcswaveError
from .filters import Filter1D, FilterND, filter_nd, is_interpolatory
from .lattice import CosetSystem, eta

MultiIndex = Tuple[int, ...]

SYNTHESIS = "synthesis"
ANALYSIS = "analysis"


class LaurentPoly:
    """Sparse Laurent polynomial over Q in n variables; exponent k <-> e^{-i k.w}."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        out: Dict[MultiIndex, Fraction] = {}
        if terms:
            for k, v in dict(terms).items():
                k = tuple(int(x) for x in k)
                if len(k) != n:
                    raise DimensionMismatch(f"exponent {k} has length {len(k)}, expected {n}")
                v = Fraction(v)
                if v:
                    out[k] = v
        self.terms = out

    @classmethod
    def zero(cls, n: int) -> "LaurentPoly":
        return cls(n)

    @classmethod
    def const(cls, n: int, value) -> "LaurentPoly":
        return cls(n, {(0,) * n: Fraction(value)})

    @classmethod
    def monomial(cls, exponent, value=1) -> "LaurentPoly":
        exponent = tuple(exponent)
        return cls(len(exponent), {exponent: Fraction(value)})

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "LaurentPoly") -> None:
        if self.n != other.n:
            raise DimensionMismatch(f"mixed variable counts {self.n} and {other.n}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.n, other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            s = out.get(k, Fraction(0)) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        r = LaurentPoly(self.n)
        r.terms = out
        return r

    __radd__ = __add__

    def __neg__(self):
        r = LaurentPoly(self.n)
        r.terms = {k: -v for k, v in self.terms.items()}
        return r

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.n, other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            s = Fraction(other)
            r = LaurentPoly(self.n)
            if s:
                r.terms = {k: v * s for k, v in self.terms.items()}
            return r
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        out: Dict[MultiIndex, Fraction] = {}
        for ka, va in self.terms.items():
            for kb, vb in other.terms.items():
                k = tuple(a + b for a, b in zip(ka, kb))
                s = out.get(k, Fraction(0)) + va * vb
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        r = LaurentPoly(self.n)
        r.terms = out
        return r

    __rmul__ = __mul__

    def conj(self) -> "LaurentPoly":
        """Complex conjugate; real coefficients make this exponent negation."""
        r = LaurentPoly(self.n)
        r.terms = {tuple(-x for x in k): v for k, v in self.terms.items()}
        return r

    def stretch(self, factor: int) -> "LaurentPoly":
        """Substitute w -> factor * w, i.e. multiply every exponent by factor."""
        r = LaurentPoly(self.n)
        r.terms = {tuple(factor * x for x in k): v for k, v in self.terms.items()}
        return r

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.n, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        if not self.terms:
            return "LaurentPoly(0)"
        body = " + ".join(f"({v})*x^{list(k)}" for k, v in sorted(self.terms.items()))
        return f"LaurentPoly({body})"


def mask_poly(f: FilterND) -> LaurentPoly:
    """The mask of f as a Laurent polynomial: (1/q) sum h(k) e^{-i k.w}."""
    q = f.q
    r = LaurentPoly(f.dim)
    r.terms = {k: v / q for k, v in f.taps.items()}
    return r


def filter_of_mask(poly: LaurentPoly, p: int) -> FilterND:
    """Inverse of :func:`mask_poly`: taps are q times the coefficients."""
    q = p ** poly.n
    return filter_nd(p, poly.n, {k: v * q for k, v in poly.terms.items()})


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
    comps = [LaurentPoly(sys.n) for _ in range(q)]
    for x, v in f.taps.items():
        i = sys.index_of(x)
        r = sys.gamma[i]
        if side == SYNTHESIS:
            k = tuple((a - b) // p for a, b in zip(x, r))
        else:
            k = tuple((b - a) // p for a, b in zip(x, r))
        comps[i].terms[k] = comps[i].terms.get(k, Fraction(0)) + Fraction(v, q)
    for c in comps:
        c.terms = {k: v for k, v in c.terms.items() if v}
    return comps


def coset_sum_polyphase(H: Filter1D, sys: CosetSystem, nu) -> LaurentPoly:
    """Synthesis polyphase component of the lifted filter, built from H alone.

    Returns, as a polynomial in w whose exponents are all multiples of p,

        (1/((p-1) p^(n-1))) * sum over l in F_p' of
            e^{i w.(nu - eta(l,nu) l)} * (H(l + p.))^ ( p w . eta(l,nu) )

    which equals the nu-component of the lifted filter's polyphase vector with
    its variable substituted w -> p w. The phase exponent nu - eta(l,nu)*l is
    divisible by p componentwise; anything else means a broken eta and raises.
    """
    nu = tuple(nu)
    if nu == sys.zero or nu not in sys.gamma:
        raise DomainError(f"nu={nu} is not in Gamma'")
    p, n = sys.p, sys.n
    scale = Fraction(1, (p - 1) * p ** (n - 1))
    out = LaurentPoly(n)
    for l in sys.fp[1:]:
        e = eta(sys, l, nu)
        base = tuple(ei * l - ni for ei, ni in zip(e, nu))  # exponent of e^{i w.(nu - e l)}
        if any(b % p for b in base):
            raise PcswaveError(f"eta broke the lattice congruence at l={l}, nu={nu}")
        for K, v in H.taps.items():
            if K % p != l:
                continue
            m = (K - l) // p
            k = tuple(b + m * p * ei for b, ei in zip(base, e))
            out.terms[k] = out.terms.get(k, Fraction(0)) + scale * Fraction(v, p)
    out.terms = {k: v for k, v in out.terms.items() if v}
    return out


@dataclass
class PolyphaseMatrix:
    rows: int
    cols: int
    entries: List[List[LaurentPoly]]

    def __getitem__(self, rc):
        return self.entries[rc[0]][rc[1]]


def matmul(left: PolyphaseMatrix, right: PolyphaseMatrix) -> PolyphaseMatrix:
    if left.cols != right.rows:
        raise DimensionMismatch(f"cannot multiply {left.rows}x{left.cols} by {right.rows}x{right.cols}")
    n = None
    acc: List[List[Dict[MultiIndex, Fraction]]] = [
        [dict() for _ in range(right.cols)] for _ in range(left.rows)
    ]
    for k in range(left.cols):
        col = [(i, left.entries[i][k]) for i in range(left.rows) if left.entries[i][k].terms]
        row = [(j, right.entries[k][j]) for j in range(right.cols) if right.entries[k][j].terms]
        for i, a in col:
            for j, b in row:
                if n is None:
                    n = a.n
                dst = acc[i][j]
                for ka, va in a.terms.items():
                    for kb, vb in b.terms.items():
                        kk = tuple(x + y for x, y in zip(ka, kb))
                        s = dst.get(kk, Fraction(0)) + va * vb
                        if s:
                            dst[kk] = s
                        else:
                            dst.pop(kk, None)
    if n is None:
        n = left.entries[0][0].n if left.rows and left.cols else 1
    out = []
    for i in range(left.rows):
        row_out = []
        for j in range(right.cols):
            poly = LaurentPoly(n)
            poly.terms = acc[i][j]
            row_out.append(poly)
        out.append(row_out)
    return PolyphaseMatrix(rows=left.rows, cols=right.cols, entries=out)


def identity_residuals(m: PolyphaseMatrix, q: int) -> List[Tuple[int, int, LaurentPoly]]:
    """Entries of m - (1/q) I that are nonzero, with their residual polynomials."""
    if m.rows != m.cols:
        raise DimensionMismatch("identity residual needs a square matrix")
    bad = []
    for i in range(m.rows):
        for j in range(m.cols):
            expect = Fraction(1, q) if i == j else Fraction(0)
            res = m.entries[i][j] - expect
            if not res.is_zero():
                bad.append((i, j, res))
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
