"""Finitely supported rational-coefficient filters and their exact diagnostics.

A filter h with dilation p on Z^n is stored as its mask, the Laurent
polynomial (1/q) * sum_k h(k) e^{-i k.w} with q = p^n, in the integer form of
:class:`~pcswave.arith.LaurentPoly`: tap h(k) is q * mask.num[k] / mask.den.
That form is unique, so two filters are equal exactly when their p and masks
are, and the polyphase layer, the coset sum, the bank checks, the
diagnostics, the JSON form and the float64 taps (``q * num / den``, by
``int / int``) all read integers. ``.taps`` is a read-only ``Fraction`` view
for reports. The rules on a bank's lowpass filters and 1-D generators live here
alone: ``is_lowpass`` (read by ``require_lowpass`` and ``diagnostics``),
``require_interpolatory`` (whose scan ``is_interpolatory`` shares) and ``to_1d``.

All diagnostics are exact. Evaluation points are lattice frequencies
(2*pi/p) * g, so every value lives in Q(zeta_p); a sum of integer weights
times powers of zeta_p is decided by its p residue-class sums, with no
tolerances.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from operator import add, mul
from types import MappingProxyType
from typing import Dict, List, Mapping, NamedTuple, Tuple

from .arith import LaurentPoly, format_rational, integer_form, split_rational
from .errors import DimensionMismatch, DomainError, FormatError, NotInterpolatory, NotLowpass
from .lattice import MAX_COSETS, too_many_cosets

MultiIndex = Tuple[int, ...]

DEFAULT_MAX_ORDER = 20
# bits a filter document may need (see filter_from_json); real banks need about 25
MAX_FORM_BITS = 4096
MAX_FORM_DIGITS = len(str(1 << MAX_FORM_BITS))  # 1234, the digits of a 4096-bit integer
_TOO_BIG = f"filter taps need more than {MAX_FORM_BITS} bits over one denominator"


class FilterND:
    """Finitely supported filter on Z^dim with scalar dilation p, held as its mask.

    Frozen: its fields refuse assignment. Two filters of one class are equal,
    and hash equal, when their p and masks are; a FilterND never equals a
    Filter1D.
    """

    __slots__ = ("p", "mask")

    def __init__(self, p: int, mask: LaurentPoly):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "mask", mask)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot change field {name!r} of a frozen {type(self).__name__}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.p == other.p and self.mask == other.mask

    def __hash__(self):
        return hash((self.p, self.mask))

    def __repr__(self):
        return f"{type(self).__name__}(p={self.p!r}, mask={self.mask!r})"

    @property
    def dim(self) -> int:
        return self.mask.n

    @property
    def q(self) -> int:
        return self.p ** self.dim

    @property
    def taps(self) -> Mapping[MultiIndex, Fraction]:
        """The taps h(k) = q * mask.num[k] / mask.den, read-only."""
        q, den = self.q, self.mask.den
        return MappingProxyType({k: Fraction(q * v, den) for k, v in self.mask.num.items()})

    @property
    def support_size(self) -> int:
        return len(self.mask.num)

    @property
    def tap_sum(self) -> Fraction:
        return Fraction(self.q * sum(self.mask.num.values()), self.mask.den)


class Filter1D(FilterND):
    """A filter on Z: the same (p, mask) pair, with taps keyed by int."""

    __slots__ = ()

    @property
    def taps(self) -> Mapping[int, Fraction]:
        p, den = self.p, self.mask.den
        return MappingProxyType({k: Fraction(p * v, den) for (k,), v in self.mask.num.items()})

    def to_nd(self) -> FilterND:
        return FilterND(self.p, self.mask)


def filter_nd(p: int, dim: int, taps) -> FilterND:
    """The filter with these rational taps (index tuple -> value); zeros are dropped."""
    if dim < 1:
        raise DomainError(f"dimension must be >= 1, got {dim}")
    return FilterND(p, LaurentPoly(dim, taps) * Fraction(1, p ** dim))


def filter_1d(p: int, taps) -> Filter1D:
    """The 1-D filter with these rational taps (int -> value); zeros are dropped."""
    return Filter1D(p, LaurentPoly(1, {(k,): v for k, v in dict(taps).items()}) * Fraction(1, p))


def to_1d(f: FilterND) -> Filter1D:
    if f.dim != 1:
        raise DimensionMismatch(f"expected a 1-D filter, got dim={f.dim}")
    return Filter1D(f.p, f.mask)


def is_lowpass(f: FilterND) -> bool:
    """The taps sum to q, that is the mask is 1 at the origin."""
    return sum(f.mask.num.values()) == f.mask.den


def require_lowpass(f: FilterND, name: str) -> None:
    """Refuse f, called name in the message, unless :func:`is_lowpass`."""
    if not is_lowpass(f):
        raise NotLowpass(f"{name} tap sum is {f.tap_sum}, lowpass needs {f.q}")


def _interpolatory_break(f: FilterND):
    """The origin if h(0) != 1, else the least other index of p Z^n where h != 0, else None."""
    zero = (0,) * f.dim
    return zero if f.q * f.mask.num.get(zero, 0) != f.mask.den else min(
        (k for k in f.mask.num if k != zero and not any(x % f.p for x in k)), default=None)


def is_interpolatory(f: FilterND) -> bool:
    """h(0) = 1 and h vanishes on p Z^n away from the origin."""
    return _interpolatory_break(f) is None


def require_interpolatory(f: FilterND, name: str) -> None:
    """Refuse f, called name, unless interpolatory, naming the tap that breaks the rule."""
    k = _interpolatory_break(f)
    if k is not None:
        tap = Fraction(f.q * f.mask.num.get(k, 0), f.mask.den)
        raise NotInterpolatory(f"{name} is not interpolatory: "
                               f"{name}({k[0] if isinstance(f, Filter1D) else k}) = {tap} "
                               f"!= {int(not any(k))}")


def is_biorthogonal(h: FilterND, g: FilterND) -> bool:
    """Exact check of sum_k h(k) g(k + p l) = q * delta_{l,0} over all l."""
    if h.p != g.p or h.dim != g.dim:
        raise DimensionMismatch("biorthogonality needs matching p and dimension")
    p = h.p
    # only taps in one class mod p pair up, so g's taps are grouped by class
    classes: Dict[MultiIndex, List[Tuple[MultiIndex, int]]] = {}
    for k2, v2 in g.mask.num.items():
        classes.setdefault(tuple(x % p for x in k2), []).append((k2, v2))
    # the sum at l is q^2 / (den_h den_g) times the sum of numerator products
    buckets: Dict[MultiIndex, int] = {}
    for k1, v1 in h.mask.num.items():
        for k2, v2 in classes.get(tuple(x % p for x in k1), ()):
            l = tuple((b - a) // p for a, b in zip(k1, k2))
            buckets[l] = buckets.get(l, 0) + v1 * v2
    zero = (0,) * h.dim
    if h.q * buckets.pop(zero, 0) != h.mask.den * g.mask.den:
        return False
    return not any(buckets.values())


class MaskDiagnostics(NamedTuple):
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

    The sums run over the integer numerators of the mask, a positive multiple
    of the taps. A sum of integer weights w_k times zeta_p^(k.g) is zero
    exactly when its p class sums (the w_k with k.g = r mod p, for each r)
    are all equal, because 1 + x + ... + x^(p-1) is the minimal polynomial of
    zeta_p. The search stops at the first nonzero sum, and k.g mod p is
    worked out for a frequency only when the search first reaches it.

    The taps are held as one coordinate column per axis. The weights
    num_k * k^mu of a mu of order d + 1 are those of mu - e_a, kept from
    order d, times the column of a, the first axis where mu is nonzero.
    """
    p, n = f.p, f.dim
    cols = list(zip(*f.mask.num))
    level = {(0,) * n: list(f.mask.num.values())}   # the weights of one order, by mu
    dots = []
    # with no tap off the origin (the zero mask too) every weight of order >= 1 is 0
    for order in range(max_order if any(map(any, f.mask.num)) else 1):
        below, level = level, {}
        for mu in _compositions(n, order):
            if order:
                a = next(i for i, m in enumerate(mu) if m)
                weights = list(map(mul, below[mu[:a] + (mu[a] - 1,) + mu[a + 1:]], cols[a]))
            else:
                weights = below[mu]
            level[mu] = weights
            if order < start:
                continue
            for i, g in enumerate(frequencies):
                if i == len(dots):
                    dot = [0] * len(weights)
                    for x, col in zip(g, cols):
                        if x:
                            dot = list(map(add, dot, map(x.__mul__, col)))
                    dots.append([d % p for d in dot])
                sums = [0] * p
                for w, d in zip(weights, dots[i]):
                    sums[d] += w
                if sums.count(sums[0]) != p:
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
    lowpass = is_lowpass(f)
    # the derivative sums at g = 0 give the vanishing moments from order 0 and a
    # lowpass mask's flatness from order 1; accuracy looks at g != 0
    moments = _zero_order(f, [(0,) * f.dim], 1 if lowpass else 0, max_order)
    nonzero = [g for g in itertools.product(range(f.p), repeat=f.dim) if any(g)]
    return MaskDiagnostics(
        is_lowpass=lowpass,
        is_interpolatory=is_interpolatory(f),
        accuracy=_zero_order(f, nonzero, 0, max_order),
        vanishing_moments=0 if lowpass else moments,
        flatness=moments if lowpass else 0,
        support_size=f.support_size,
        max_order_searched=max_order,
    )


# --- JSON form: {"p": int, "dim": int, "taps": [{"k": [...], "v": "num/den"}]} ---

def filter_to_json(f: FilterND) -> dict:
    q, num, den = f.q, f.mask.num, f.mask.den
    # the filters of a bank repeat a few values, so each is formatted once
    text = {v: format_rational(q * v, den) for v in set(num.values())}
    # sorting the (unique) indices alone is faster than sorting the items
    taps = [{"k": list(k), "v": text[num[k]]} for k in sorted(num)]
    return {"p": f.p, "dim": f.dim, "taps": taps}


def filter_from_json(data: dict) -> FilterND:
    """The filter of a JSON document; p, dim and every tap index must be JSON integers.
    q times the lcm of the tap denominators, and each numerator over it, fit MAX_FORM_BITS bits."""
    try:
        p, dim, raw = data["p"], data["dim"], data["taps"]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed filter JSON: {exc}") from exc
    # q = p^dim is formed below, so its size is refused first
    if (type(p) is not int or type(dim) is not int or p < 2 or dim < 1
            or too_many_cosets(p, dim)):
        raise FormatError(f"filter p={p!r}, dim={dim!r} are not integers with p >= 2, "
                          f"dim >= 1 and p^dim <= {MAX_COSETS}")
    if not isinstance(raw, list):
        raise FormatError(f"filter taps must be a list, got {raw!r}")
    # the document is checked as a whole, by a few set tests over all taps
    try:
        taps = {tuple(e["k"]): e["v"] for e in raw}
        values = dict.fromkeys(taps.values())
    except (KeyError, TypeError):  # an entry no object, a key missing, an unhashable part
        raise _bad_tap(raw, dim) from None
    if (len(taps) != len(raw) or {len(k) for k in taps} - {dim}
            or set(map(type, itertools.chain.from_iterable(taps))) - {int}
            or set(map(type, taps.values())) - {int, str}):
        raise _bad_tap(raw, dim)
    try:
        # each distinct value is read once, in document order, so _bad_tap meets no long text
        parsed = {v: (v, 1) if type(v) is int else split_rational(v, MAX_FORM_DIGITS)
                  for v in values}
    except OverflowError:
        raise FormatError(_TOO_BIG) from None
    except DomainError:
        raise _bad_tap(raw, dim) from None
    if not all(n for n, _ in parsed.values()):
        raise _bad_tap(raw, dim)
    # tap num/den is the mask coefficient num/(q den)
    try:
        nums, den = integer_form([(n, p ** dim * d) for n, d in parsed.values()], MAX_FORM_BITS)
    except DomainError:
        raise FormatError(_TOO_BIG) from None
    scaled = dict(zip(parsed, nums))
    return FilterND(p, LaurentPoly.reduced(dim, {k: scaled[v] for k, v in taps.items()}, den))


def _bad_tap(raw: list, dim: int) -> FormatError:
    """The error naming the first entry of raw that is no tap of a filter in dim
    variables; entries are scanned one at a time only once a set test failed."""
    seen = set()
    for entry in raw:
        try:
            k, v = tuple(entry["k"]), entry["v"]
            # a tap value is a JSON integer (not a boolean) or "num/den" text
            if type(v) is str:
                v = split_rational(v)[0]
            elif type(v) is not int:
                raise DomainError(f"tap value {v!r} is neither an integer nor num/den text")
        except (DomainError, KeyError, TypeError):
            return FormatError(f"malformed tap entry {entry!r}")
        if len(k) != dim:
            return FormatError(f"tap index {k} has length {len(k)}, expected {dim}")
        if any(type(x) is not int for x in k):
            return FormatError(f"tap index of {entry!r} is not a list of integers")
        if k in seen:
            return FormatError(f"duplicate tap at {k}")
        if not v:
            return FormatError(f"explicit zero tap at {k} rejected")
        seen.add(k)
    return FormatError("malformed filter taps")
