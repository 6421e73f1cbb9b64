"""The per-level lifting steps of the fast transform, for every scalar type.

One level down is a predict/update pair: step (i) predicts each coset's
samples from the zero coset and keeps the residual as the detail w_nu, and
step (ii) updates the zero coset with the details into the coarse y0 (see
:mod:`pcswave.transform` for the formulas). One level up runs the inverses
(iii) and (iv) in the opposite order.

The same code runs on float64 arrays and on exact rationals; the scalar type
picks the tap tables and the scale factors. In float64 the taps are rounded
and each output sample is normalized once by 1/(p-1) or 1/((p-1) p^n). The
exact path runs on object arrays of Python ``int``: a level's input is put
over one common denominator D, the lcm of its values' denominators (for
reconstruction, of the coarse array and every detail together), the taps
are the integer numerators of G and H, and the normalizations become integer
factors on the sample kept, so no gcd runs inside a step. Each output value
is made a ``Fraction`` once, at the end of the level.

The steps work on the p^n phases y[r0::p, r1::p, ...] of the fine grid, each
of coarse size: y(pk + s) is phase s mod p rolled by -(s // p),
componentwise. Every tap of steps (i) and (iv) reads the zero phase, since
nu - eta(l,nu) m is in pZ^n, so reconstruction finishes the zero phase,
then each coset's phase, and interleaves them once. Tap sums accumulate in
table order and each output sample is normalized once, so float64 output
depends only on the input and the tables.

No step copies an array per tap. A level wrap-pads the zero phase once for
the taps of (i) and (iv), and each detail once for the taps of (ii) and
(iii), by the widest shift its table asks for on each axis; every tap then
reads a slice view of the padded array. A shift of a whole period or more
is first cut to its remainder, so no pad exceeds one period. A tap sum is
multiplied into one scratch array and added into one accumulator in place,
the normalization and the final add or subtract are done in place, and a
phase moves between its rolled place in the fine grid and its coset array by
block copies. So in float64 a level creates each of its outputs once, plus
two scratch arrays and one padded array of coarse size.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .lattice import eta_routes


def _wrap_pad(tables, n):
    """Per axis, the (before, after) wrap pad that turns every roll in tables into a slice."""
    shifts = [shift for taps in tables for shift, _ in taps] or [(0,) * n]
    return [(max(0, *(s[axis] for s in shifts)), max(0, *(-s[axis] for s in shifts)))
            for axis in range(n)]


def _reduced(tables, shape):
    """tables with each shift cut, axis by axis, to its remainder modulo the extent m.

    The remainder keeps the shift's sign, so a shift with |d| < m stays as it
    is. On the periodic grid a roll by d reads what a roll by d mod m reads.
    """
    def cut(d, m):
        return d % m if d >= 0 else -(-d % m)
    return [[(tuple(map(cut, d, shape)), v) for d, v in taps] for taps in tables]


class _Padded:
    """An array wrap-padded once, so that each of its rolls is a slice view.

    With no pad on any axis the array itself is read.
    """

    def __init__(self, a, pad):
        self.data = np.pad(a, pad, mode="wrap") if any(b or e for b, e in pad) else a
        self.shape = a.shape
        self.before = [b for b, _ in pad]

    def rolled(self, shift):
        """The array rolled by shift along every axis, as a view."""
        return self.data[tuple(slice(b - s, b - s + m)
                               for b, s, m in zip(self.before, shift, self.shape))]


def _accumulate(acc, tmp, a, taps):
    """acc += v * (a rolled by shift) for each (shift, v) in taps, in table order.

    ``a`` is a :class:`_Padded`; ``tmp`` is scratch of acc's shape and dtype.
    """
    for shift, v in taps:
        np.multiply(a.rolled(shift), v, out=tmp)
        acc += tmp


def _tap_sum(acc, tmp, a, taps):
    """Write the tap sum of a into acc, starting at the first term; False when there are no taps."""
    if not taps:
        return False
    (shift, v), *rest = taps
    np.multiply(a.rolled(shift), v, out=acc)
    _accumulate(acc, tmp, a, rest)
    return True


def _scale(s, a):
    """a *= s in place, unless s is None; returns a."""
    return a if s is None else np.multiply(a, s, out=a)


def _scaled(s, a, out):
    """s * a written into out, or a itself when s is None."""
    return a if s is None else np.multiply(a, s, out=out)


def _roll_into(out, a, shift):
    """out[...] = a rolled by shift along every axis, by at most 2^n block copies."""
    blocks = []
    for s, m in zip(shift, a.shape):
        s %= m
        blocks.append([(slice(s, None), slice(None, m - s)), (slice(None, s), slice(m - s, None))]
                      if s else [(slice(None), slice(None))])
    for parts in itertools.product(*blocks):
        dst, src = zip(*parts)
        out[dst] = a[src]


def _numerators(arrays):
    """Exact values as int numerators over their lcm denominator D: (arrays, D).

    The values may be ``Fraction`` or ``int``; both carry ``numerator`` and
    ``denominator``.
    """
    values = [a.ravel().tolist() for a in arrays]
    dens = {v.denominator for vals in values for v in vals}
    den = math.lcm(*dens)
    scale = {d: den // d for d in dens}
    return [np.array([v.numerator * scale[v.denominator] for v in vals],
                     dtype=object).reshape(a.shape)
            for a, vals in zip(arrays, values)], den


def _fractions(a, keep, den):
    """a / (keep * den) as an object array of ``Fraction``; a itself when den is None."""
    if den is None:
        return a
    den *= keep
    return np.array([Fraction(v, den) for v in a.ravel().tolist()],
                    dtype=object).reshape(a.shape)


class _Plan(NamedTuple):
    """The tap tables and scales of one scalar type.

    ``detail``, ``coarse``, ``even`` and ``phase`` are the (keep, corr) scale
    pairs of steps (i), (ii), (iii) and (iv): each step returns
    keep * sample -/+ corr * tap sum, a None scale multiplying by nothing. In
    the exact plan every corr is None, and an output over keep * D is the
    value over the input's denominator D.
    """

    hi: list
    lo: list
    detail: tuple
    coarse: tuple
    even: tuple
    phase: tuple


class LevelKernels:
    """Steps (i)-(iv) of one bank, planned from its coset system and G, H alone.

    For each nu in Gamma', the tap lists of H (predict) and G (update) are
    the routes of :func:`pcswave.lattice.eta_routes` divided by p, in
    increasing m: with d = (nu - eta(l,nu) m) / p, predict taps gather
    y0(k + d) and update taps w_nu(k - d).
    """

    def __init__(self, sys, G, H):
        p, n = sys.p, sys.n
        self.p = p
        self.n = n
        # each coset's phase slices and nu // p: y(pk + nu) is the phase rolled by -(nu // p)
        self._cosets = [(tuple(slice(x % p, None, p) for x in nu),
                         tuple(x // p for x in nu)) for nu in sys.gamma_prime]
        self._zero = (slice(None, None, p),) * n
        # (offset, mask numerator) per route, for tap m = p num[m] / den of G or H;
        # predict (H) offsets are negated
        hi, lo = ([[(tuple(sign * x // p for x in k), v)
                    for k, v in eta_routes(sys, F.mask.num, nu)] for nu in sys.gamma_prime]
                  for F, sign in ((H, -1), (G, 1)))
        d_g, d_h = G.mask.den, H.mask.den
        # predict taps all read the zero phase, padded once per level; each
        # detail is padded for its own update taps
        self._pads = (_wrap_pad(hi, n), [_wrap_pad([taps], n) for taps in lo])
        # the largest |offset| per axis: a level narrower than it reduces its tables
        self._reach = [max((abs(d[a]) for taps in hi + lo for d, _ in taps), default=0)
                       for a in range(n)]

        def floats(tables, den):
            return [[(d, float(Fraction(p * v, den))) for d, v in taps] for taps in tables]

        inv_pm1, inv_corr = float(Fraction(1, p - 1)), float(Fraction(1, (p - 1) * p ** n))
        # With y = Y/D, the detail (i) is ((p-1) d_H Y_nu - sum p h_m Y0) / ((p-1) d_H D)
        # and the coarse (ii) is ((p-1)^2 p^(n-1) d_G d_H Y0 + sum g_m W_nu) over that
        # factor times D. Steps (iii) and (iv) run the same algebra backwards: the
        # even samples come over (p-1) p^(n-1) d_G D, the others over the (ii) factor.
        keep_detail = (p - 1) * d_h
        keep_even = (p - 1) * p ** (n - 1) * d_g
        keep_coarse = keep_detail * keep_even
        self._plans = {
            False: _Plan(floats(hi, d_h), floats(lo, d_g), (None, inv_pm1),
                         (None, inv_corr), (None, inv_corr), (None, inv_pm1)),
            True: _Plan([[(d, p * v) for d, v in taps] for taps in hi], lo,
                        (keep_detail, None), (keep_coarse, None),
                        (keep_even, None), (keep_coarse, None)),
        }

    def _level(self, exact, shape):
        """The plan of a level of this coarse shape and its (predict, update) pads.

        Offsets that reach a whole period are reduced (see :func:`_reduced`);
        the tables of every other level are the bank's own.
        """
        plan = self._plans[exact]
        if all(r < m for r, m in zip(self._reach, shape)):
            return plan, self._pads
        hi, lo = _reduced(plan.hi, shape), _reduced(plan.lo, shape)
        return (plan._replace(hi=hi, lo=lo),
                (_wrap_pad(hi, self.n), [_wrap_pad([taps], self.n) for taps in lo]))

    @staticmethod
    def _update(acc, tmp, details, lo, pads):
        """Write the step (ii)/(iii) correction sum over every coset's detail into acc."""
        acc[...] = 0
        for w, taps, pad in zip(details, lo, pads):
            if taps:
                _accumulate(acc, tmp, _Padded(w, pad), taps)
        return acc

    def decompose_level(self, y: np.ndarray):
        """One level down: returns (coarse, [detail per nu]) as nd arrays."""
        den = None
        if y.dtype == object:
            (y,), den = _numerators([y])
        even = y[self._zero]
        plan, (pad_hi, pad_lo) = self._level(den is not None, even.shape)
        (keep_w, corr_w), (keep_c, corr_c) = plan.detail, plan.coarse
        acc, tmp = np.empty(even.shape, y.dtype), np.empty(even.shape, y.dtype)
        padded = _Padded(even, pad_hi)
        details = []
        for (phase, lift), taps in zip(self._cosets, plan.hi):
            w = np.empty(even.shape, y.dtype)
            _roll_into(w, y[phase], tuple(-x for x in lift))
            _scale(keep_w, w)
            if _tap_sum(acc, tmp, padded, taps):
                w -= _scale(corr_w, acc)
            details.append(w)
        del padded  # before the update pads the details
        upd = _scale(corr_c, self._update(acc, tmp, details, plan.lo, pad_lo))
        coarse = np.add(_scaled(keep_c, even, tmp), upd, out=upd)
        if den is None:
            return coarse, details
        return (_fractions(coarse, keep_c, den),
                [_fractions(w, keep_w, den) for w in details])

    def reconstruct_level(self, coarse: np.ndarray, details):
        """One level up: inverse of decompose_level."""
        den = None
        if coarse.dtype == object:
            (coarse, *details), den = _numerators([coarse, *details])
        plan, (pad_hi, pad_lo) = self._level(den is not None, coarse.shape)
        (keep_e, corr_e), (keep_o, corr_o) = plan.even, plan.phase
        acc, tmp = np.empty(coarse.shape, coarse.dtype), np.empty(coarse.shape, coarse.dtype)
        upd = _scale(corr_e, self._update(acc, tmp, details, plan.lo, pad_lo))
        even = np.subtract(_scaled(keep_e, coarse, tmp), upd, out=upd)
        out = np.empty(tuple(s * self.p for s in coarse.shape), dtype=even.dtype)
        out[self._zero] = _fractions(even, keep_e, den)
        padded = _Padded(even, pad_hi)
        # once even is copied into padded, its buffer takes the tap sums
        acc = np.empty_like(even) if padded.data is even else even
        for (phase, lift), taps, w in zip(self._cosets, plan.hi, details):
            if _tap_sum(acc, tmp, padded, taps):
                odd = np.add(_scaled(keep_o, w, tmp), _scale(corr_o, acc), out=acc)
            else:
                odd = _scaled(keep_o, w, acc)
            _roll_into(out[phase], _fractions(odd, keep_o, den), lift)
        return out

    def mults(self, coarse_samples: int) -> int:
        """Multiplies of one decompose_level and one reconstruct_level.

        ``coarse_samples`` is the size of the coarse array. The convention is
        that of :mod:`pcswave.transform`: one per tap, one per detail sample
        for 1/(p-1), and n + 1 per coarse sample for 1/((p-1) p^n).
        """
        plan = self._plans[False]
        per_sample = (sum(len(taps) + 1 for taps in plan.hi)
                      + sum(len(taps) for taps in plan.lo) + self.n + 1)
        return 2 * per_sample * coarse_samples
