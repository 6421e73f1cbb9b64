"""Finitely supported rational-coefficient filters and their exact diagnostics.

A filter h with dilation p on Z^n is stored as its nonzero taps only. Its mask
is the normalized Fourier transform (1/q) * sum_k h(k) e^{-i k.w} with
q = p^n; the 1/q normalization is applied on evaluation and never stored, so
Haar-type filters keep integer taps.

All diagnostics are exact. Evaluation points are lattice frequencies
(2*pi/p) * g, so every value lives in Q(zeta_p) and zero tests are decided in
:class:`~pcswave.arith.Cyclotomic` with no tolerances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Dict, Tuple

from .arith import Cyclotomic, parse_rational
from .errors import DimensionMismatch, DomainError, FormatError

MultiIndex = Tuple[int, ...]

DEFAULT_MAX_ORDER = 20


@dataclass(frozen=True)
class FilterND:
    """Finitely supported filter on Z^dim with scalar dilation p."""

    p: int
    dim: int
    taps: Dict[MultiIndex, Fraction]

    @property
    def q(self) -> int:
        return self.p ** self.dim

    @property
    def support_size(self) -> int:
        return len(self.taps)

    @property
    def tap_sum(self) -> Fraction:
        return sum(self.taps.values(), Fraction(0))


@dataclass(frozen=True)
class Filter1D:
    """Thin 1-D facade; everything heavy runs on the FilterND view."""

    p: int
    taps: Dict[int, Fraction]

    @property
    def support_size(self) -> int:
        return len(self.taps)

    @property
    def tap_sum(self) -> Fraction:
        return sum(self.taps.values(), Fraction(0))

    def to_nd(self) -> FilterND:
        return filter_nd(self.p, 1, {(k,): v for k, v in self.taps.items()})


def filter_nd(p: int, dim: int, taps) -> FilterND:
    """Normalize a tap map: coerce to Fraction, drop exact zeros."""
    if dim < 1:
        raise DomainError(f"dimension must be >= 1, got {dim}")
    out: Dict[MultiIndex, Fraction] = {}
    for k, v in dict(taps).items():
        k = tuple(int(x) for x in k)
        if len(k) != dim:
            raise DimensionMismatch(f"tap index {k} has length {len(k)}, expected {dim}")
        v = Fraction(v)
        if v:
            out[k] = v
    return FilterND(p=p, dim=dim, taps=out)


def filter_1d(p: int, taps) -> Filter1D:
    out = {int(k): Fraction(v) for k, v in dict(taps).items() if Fraction(v)}
    return Filter1D(p=p, taps=out)


def to_1d(f: FilterND) -> Filter1D:
    if f.dim != 1:
        raise DimensionMismatch(f"expected a 1-D filter, got dim={f.dim}")
    return Filter1D(p=f.p, taps={k[0]: v for k, v in f.taps.items()})


def mask_eval(f: FilterND, g) -> Cyclotomic:
    """Mask value at the lattice frequency (2*pi/p) * g, exact in Q(zeta_p)."""
    g = tuple(g)
    if len(g) != f.dim:
        raise DimensionMismatch(f"g has length {len(g)}, expected {f.dim}")
    p = f.p
    coords = [Fraction(0)] * p
    for k, v in f.taps.items():
        coords[sum(a * b for a, b in zip(k, g)) % p] += v
    return Cyclotomic(p, coords) * Fraction(1, f.q)


def is_interpolatory(f: FilterND) -> bool:
    """h(0) = 1 and h vanishes on p Z^n away from the origin."""
    zero = (0,) * f.dim
    if f.taps.get(zero, Fraction(0)) != 1:
        return False
    for k in f.taps:
        if k != zero and all(x % f.p == 0 for x in k):
            return False
    return True


def is_biorthogonal(h: FilterND, g: FilterND) -> bool:
    """Exact check of sum_k h(k) g(k + p l) = q * delta_{l,0} over all l."""
    if h.p != g.p or h.dim != g.dim:
        raise DimensionMismatch("biorthogonality needs matching p and dimension")
    p = h.p
    buckets: Dict[MultiIndex, Fraction] = {}
    for k1, v1 in h.taps.items():
        for k2, v2 in g.taps.items():
            d = tuple(b - a for a, b in zip(k1, k2))
            if all(x % p == 0 for x in d):
                l = tuple(x // p for x in d)
                buckets[l] = buckets.get(l, Fraction(0)) + v1 * v2
    zero = (0,) * h.dim
    for l, s in buckets.items():
        if l == zero:
            if s != h.q:
                return False
        elif s:
            return False
    return buckets.get(zero, Fraction(0)) == h.q


@dataclass(frozen=True)
class MaskDiagnostics:
    is_lowpass: bool
    is_interpolatory: bool
    accuracy: int
    vanishing_moments: int
    flatness: int
    support_size: int
    max_order_searched: int


def _compositions(n: int, total: int):
    """All mu in N^n with |mu| = total."""
    if n == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(n - 1, total - first):
            yield (first,) + rest


def _zero_order(f: FilterND, frequencies, start: int, max_order: int) -> int:
    """Smallest order in [start, max_order) at which some derivative sum
    sum_k f(k) k^mu zeta_p^(k.g), |mu| = order, is nonzero at some frequency g
    of ``frequencies``; max_order if all of them vanish.

    The search stops at the first nonzero sum, and k.g mod p is worked out
    for a frequency only when the search first reaches it.
    """
    p = f.p
    taps = list(f.taps.items())
    dots = []
    for order in range(start, max_order):
        for mu in _compositions(f.dim, order):
            weights = [v * prod(x ** m for x, m in zip(k, mu)) for k, v in taps]
            for i, g in enumerate(frequencies):
                if i == len(dots):
                    dots.append([sum(a * b for a, b in zip(k, g)) % p for k, _ in taps])
                coords = [Fraction(0)] * p
                for w, d in zip(weights, dots[i]):
                    coords[d] += w
                if not Cyclotomic(p, coords).is_zero():
                    return order
    return max_order


def diagnostics(f: FilterND, max_order: int = DEFAULT_MAX_ORDER) -> MaskDiagnostics:
    """Exact accuracy / vanishing-moment / flatness orders of the mask of f.

    Accuracy is the order of zeros of the mask at the nonzero coset
    frequencies, vanishing moments the order of its zero at the origin, and
    flatness the order of the zero of (1 - mask) at the origin. Each order is
    searched up to ``max_order``; a reported value equal to ``max_order``
    means the search saturated, not that the order is exactly that.
    """
    if max_order < 1:
        raise DomainError("max_order must be >= 1")
    s = f.tap_sum
    # the moments are the derivative sums at g = 0; accuracy looks at g != 0
    moment_order = _zero_order(f, [(0,) * f.dim], 1, max_order)
    nonzero = [g for g in itertools.product(range(f.p), repeat=f.dim) if any(g)]
    return MaskDiagnostics(
        is_lowpass=(s == f.q),
        is_interpolatory=is_interpolatory(f),
        accuracy=_zero_order(f, nonzero, 0, max_order),
        vanishing_moments=0 if s else moment_order,
        flatness=moment_order if s == f.q else 0,
        support_size=f.support_size,
        max_order_searched=max_order,
    )


# --- JSON form: {"p": int, "dim": int, "taps": [{"k": [...], "v": "num/den"}]} ---

def filter_to_json(f: FilterND) -> dict:
    taps = [{"k": list(k), "v": str(v)} for k, v in sorted(f.taps.items())]
    return {"p": f.p, "dim": f.dim, "taps": taps}


def _tap_value(v, seen: Dict[str, Fraction]) -> Fraction:
    """A tap value: a JSON integer (not a boolean), or "num/den" text.

    ``seen`` caches parsed text; the filters of a bank repeat a few values.
    """
    if type(v) is int:
        return Fraction(v)
    if not isinstance(v, str):
        raise DomainError(f"tap value {v!r} is neither an integer nor num/den text")
    value = seen.get(v)
    if value is None:
        value = seen[v] = parse_rational(v)
    return value


def filter_from_json(data: dict) -> FilterND:
    try:
        p = int(data["p"])
        dim = int(data["dim"])
        raw = data["taps"]
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed filter JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise FormatError(f"filter taps must be a list, got {raw!r}")
    taps: Dict[MultiIndex, Fraction] = {}
    seen: Dict[str, Fraction] = {}
    for entry in raw:
        try:
            k = tuple(map(int, entry["k"]))
            v = _tap_value(entry["v"], seen)
        except (DomainError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise FormatError(f"malformed tap entry {entry!r}") from exc
        if len(k) != dim:
            raise FormatError(f"tap index {k} has length {len(k)}, expected {dim}")
        if v == 0:
            raise FormatError(f"explicit zero tap at {k} rejected")
        if k in taps:
            raise FormatError(f"duplicate tap at {k}")
        taps[k] = v
    return FilterND(p=p, dim=dim, taps=taps)
