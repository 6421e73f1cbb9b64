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
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .lattice import eta_routes


def _accumulate(acc, a, taps):
    """acc + sum of v * (a rolled by shift) over taps, added in table order.

    With acc None the sum starts at the first term; None comes back when there
    are no taps.
    """
    axes = tuple(range(a.ndim))
    for shift, v in taps:
        term = v * np.roll(a, shift, axis=axes)
        acc = term if acc is None else acc + term
    return acc


def _scaled(s, a):
    """s * a, or a itself when s is None."""
    return a if s is None else s * a


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
        self._axes = tuple(range(n))
        # (offset, mask numerator) per route, for tap m = p num[m] / den of G or H;
        # predict (H) offsets are negated
        hi, lo = ([[(tuple(sign * x // p for x in k), v)
                    for k, v in eta_routes(sys, F.mask.num, nu)] for nu in sys.gamma_prime]
                  for F, sign in ((H, -1), (G, 1)))
        d_g, d_h = G.mask.den, H.mask.den

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

    def _update(self, details, lo):
        """The step (ii)/(iii) correction sum over every coset's detail."""
        acc = np.zeros_like(details[0])
        for w, taps in zip(details, lo):
            acc = _accumulate(acc, w, taps)
        return acc

    def decompose_level(self, y: np.ndarray):
        """One level down: returns (coarse, [detail per nu]) as nd arrays."""
        den = None
        if y.dtype == object:
            (y,), den = _numerators([y])
        plan = self._plans[den is not None]
        (keep_w, corr_w), (keep_c, corr_c) = plan.detail, plan.coarse
        even = y[self._zero]
        details = []
        for (phase, lift), taps in zip(self._cosets, plan.hi):
            base = _scaled(keep_w, np.roll(y[phase], tuple(-x for x in lift), axis=self._axes))
            acc = _accumulate(None, even, taps)
            details.append(base if acc is None else base - _scaled(corr_w, acc))
        coarse = _scaled(keep_c, even) + _scaled(corr_c, self._update(details, plan.lo))
        if den is None:
            return coarse, details
        return (_fractions(coarse, keep_c, den),
                [_fractions(w, keep_w, den) for w in details])

    def reconstruct_level(self, coarse: np.ndarray, details):
        """One level up: inverse of decompose_level."""
        den = None
        if coarse.dtype == object:
            (coarse, *details), den = _numerators([coarse, *details])
        plan = self._plans[den is not None]
        (keep_e, corr_e), (keep_o, corr_o) = plan.even, plan.phase
        even = _scaled(keep_e, coarse) - _scaled(corr_e, self._update(details, plan.lo))
        out = np.empty(tuple(s * self.p for s in coarse.shape), dtype=even.dtype)
        out[self._zero] = _fractions(even, keep_e, den)
        for (phase, lift), taps, w in zip(self._cosets, plan.hi, details):
            w = _scaled(keep_o, w)
            acc = _accumulate(None, even, taps)
            odd = w if acc is None else w + _scaled(corr_o, acc)
            out[phase] = np.roll(_fractions(odd, keep_o, den), lift, axis=self._axes)
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
