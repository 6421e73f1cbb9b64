"""The per-level lifting steps of the fast transform, for every scalar type.

One level down is a predict/update pair: step (i) predicts each coset's
samples from the zero coset and keeps the residual as the detail w_nu, and
step (ii) updates the zero coset with the details into the coarse y0 (see
:mod:`pcswave.transform` for the formulas). One level up runs the inverses
(iii) and (iv) in the opposite order.

The same code runs on float64 arrays and on object arrays of ``Fraction``:
tap values and normalizations are taken exactly for object arrays and as
float64 otherwise.

The steps work on the p^n phases y[r0::p, r1::p, ...] of the fine grid, each
of coarse size: y(pk + s) is phase s mod p rolled by -(s // p),
componentwise. Every tap of steps (i) and (iv) reads the zero phase, since
nu - eta(l,nu) m is in pZ^n, so reconstruction finishes the zero phase,
then each coset's phase, and interleaves them once. Tap sums accumulate in
table order and each output sample is normalized once, so float64 output
depends only on the input and the tables.
"""

from __future__ import annotations

from fractions import Fraction

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
        # tap m of G or H is p num[m] / den; predict (H) offsets are negated
        hi, lo = ([[(tuple(sign * x // p for x in k), Fraction(p * v, F.mask.den))
                    for k, v in eta_routes(sys, F.mask.num, nu)] for nu in sys.gamma_prime]
                  for F, sign in ((H, -1), (G, 1)))

        def typed(scalar):
            return (scalar(Fraction(1, p - 1)), scalar(Fraction(1, (p - 1) * p ** n)),
                    [[(d, scalar(v)) for d, v in taps] for taps in hi],
                    [[(d, scalar(v)) for d, v in taps] for taps in lo])

        self._typed = {True: typed(Fraction), False: typed(float)}

    def _update(self, details, lo):
        """The step (ii)/(iii) correction sum over every coset's detail."""
        acc = np.zeros_like(details[0])
        for w, taps in zip(details, lo):
            acc = _accumulate(acc, w, taps)
        return acc

    def decompose_level(self, y: np.ndarray):
        """One level down: returns (coarse, [detail per nu]) as nd arrays."""
        inv_pm1, inv_corr, hi, lo = self._typed[y.dtype == object]
        even = y[self._zero]
        details = []
        for (phase, lift), taps in zip(self._cosets, hi):
            base = np.roll(y[phase], tuple(-x for x in lift), axis=self._axes)
            acc = _accumulate(None, even, taps)
            details.append(base if acc is None else base - inv_pm1 * acc)
        coarse = even + inv_corr * self._update(details, lo)
        return coarse, details

    def reconstruct_level(self, coarse: np.ndarray, details):
        """One level up: inverse of decompose_level."""
        inv_pm1, inv_corr, hi, lo = self._typed[coarse.dtype == object]
        even = coarse - inv_corr * self._update(details, lo)
        out = np.empty(tuple(s * self.p for s in coarse.shape), dtype=even.dtype)
        out[self._zero] = even
        for (phase, lift), taps, w in zip(self._cosets, hi, details):
            acc = _accumulate(None, even, taps)
            out[phase] = np.roll(w if acc is None else w + inv_pm1 * acc, lift,
                                 axis=self._axes)
        return out

    def mults(self, coarse_samples: int) -> int:
        """Multiplies of one decompose_level and one reconstruct_level.

        ``coarse_samples`` is the size of the coarse array. The convention is
        that of :mod:`pcswave.transform`: one per tap, one per detail sample
        for 1/(p-1), and n + 1 per coarse sample for 1/((p-1) p^n).
        """
        _, _, hi, lo = self._typed[True]
        per_sample = (sum(len(taps) + 1 for taps in hi) + sum(len(taps) for taps in lo)
                      + self.n + 1)
        return 2 * per_sample * coarse_samples
