"""The per-level lifting steps of the fast transform, for every scalar type.

One level down is a predict/update pair: step (i) predicts each coset's
samples from the zero coset and keeps the residual as the detail w_nu, and
step (ii) updates the zero coset with the details into the coarse y0 (see
:mod:`pcswave.transform` for the formulas). One level up runs the inverses
(iii) and (iv) in the opposite order.

The same code runs on float64 arrays and on exact rationals, with the tap
tables and scales of a :class:`pcswave.plan.LevelPlan`; the scalar type
picks the tables. The exact steps run on object arrays of Python ``int``
numerators over one denominator per array. Going down, the input's
numerators over D give the coarse and detail numerators over D times their
step's integer factor. Going up, the coarse array and the details are first
put over the lcm of their denominators. No gcd and no ``Fraction`` is made
inside a level or between levels.

The steps work on the p^n phases y[r0::p, r1::p, ...] of the fine grid, each
of coarse size: y(pk + s) is phase s mod p rolled by -(s // p),
componentwise. Every tap of steps (i) and (iv) reads the zero phase, since
nu - eta(l,nu) m is in pZ^n, so reconstruction finishes the zero phase,
then each coset's phase, and interleaves them once. Tap sums accumulate in
table order and each output sample is normalized once, so float64 output
depends only on the input and the tables.

Every tap of every step is read one way. Its roll of the array it reads is
block-copied (at most 2^n blocks, each shift taken modulo the extent) into
the accumulator for the first tap of a sum, or else into one scratch array,
multiplied there in place by the tap and added into the accumulator in
place, so no array is sized by a tap offset. Step (i) reads one contiguous
copy of the zero phase, made once per level and released before step (ii);
step (iv) reads the finished zero phase itself. The normalization and the
final add or subtract are done in place, and a phase moves between its
rolled place in the fine grid and its coset array by block copies. So in
float64 a level creates each of its outputs once, plus two scratch arrays
and at most one more array of coarse size.

A unit tap (1.0 in float64, 1 in the exact tables) is copied and added but
not multiplied: every tap of a box filter is one. :meth:`LevelPlan.mults` still
counts it, since that count is the paper's model of the transform, not a
tally of the multiplies a level runs.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .plan import LevelPlan


def _roll(out, a, shift, v=None):
    """out[...] = v * (a rolled by shift along every axis); returns out.

    Element k of the roll is a[k - shift], each axis taken modulo its extent,
    so a shift of any size is copied in at most 2^n blocks and sizes
    nothing. The product is then taken in place on the whole of out: with
    numpy 2.4 a ufunc on a block that splits rows allocates iteration buffers
    of up to 2 x 64 KiB, sized by the block and so by the shift, and a block
    copy allocates none. With v None or a unit tap (1 or 1.0) nothing is
    multiplied: x * 1.0 is x bit for bit, and a signalling NaN it would have
    quieted is quieted by the add or scale that follows.
    """
    blocks = []
    for s, m in zip(shift, a.shape):
        s %= m
        blocks.append([(slice(s, None), slice(None, m - s)), (slice(None, s), slice(m - s, None))]
                      if s else [(slice(None), slice(None))])
    for parts in itertools.product(*blocks):
        dst, src = zip(*parts)
        out[dst] = a[src]
    return out if v is None or v == 1 else np.multiply(out, v, out=out)


def _accumulate(acc, tmp, a, taps):
    """acc += v * (a rolled by shift) for each (shift, v) in taps, in table order.

    ``tmp`` is scratch of acc's shape and dtype.
    """
    for shift, v in taps:
        acc += _roll(tmp, a, shift, v)


def _tap_sum(acc, tmp, a, taps):
    """Write the tap sum of a into acc, starting at the first term; False when there are no taps."""
    if not taps:
        return False
    (shift, v), *rest = taps
    _roll(acc, a, shift, v)
    _accumulate(acc, tmp, a, rest)
    return True


def _scale(s, a):
    """a *= s in place, unless s is None; returns a."""
    return a if s is None else np.multiply(a, s, out=a)


def _scaled(s, a, out):
    """s * a written into out, or a itself when s is None."""
    return a if s is None else np.multiply(a, s, out=out)


class LevelKernels:
    """Steps (i)-(iv) of one bank, planned from its coset system and G, H alone.

    In float64 each method takes and returns float64 arrays, and every
    denominator is None. In exact mode each array holds int numerators, and
    the denominators are ints: ``decompose_level(y, den)`` returns the
    denominators of the coarse array and then of each detail, and
    ``reconstruct_level`` takes that list and returns the fine array's.
    """

    def __init__(self, sys, G, H):
        self.plan = LevelPlan(sys, G, H)
        p, n = self.p, self.n = sys.p, sys.n
        # each coset's phase slices and nu // p: y(pk + nu) is the phase rolled by -(nu // p)
        self._cosets = [(tuple(slice(x % p, None, p) for x in nu),
                         tuple(x // p for x in nu)) for nu in sys.gamma_prime]
        self._zero = (slice(None, None, p),) * n

    @staticmethod
    def _update(acc, tmp, details, lo):
        """Write the step (ii)/(iii) correction sum over every coset's detail into acc."""
        acc[...] = 0
        for w, taps in zip(details, lo):
            _accumulate(acc, tmp, w, taps)
        return acc

    def decompose_level(self, y: np.ndarray, den=None):
        """One level down: (coarse, [detail per nu], [denominator per output])."""
        tables = self.plan.tables[den is not None]
        (keep_w, corr_w), (keep_c, corr_c) = tables.detail, tables.coarse
        zero = y[self._zero]
        acc, tmp = np.empty_like(zero), np.empty_like(zero)
        # the predict taps read blocks of one contiguous copy of the zero phase,
        # which is faster than reading blocks of its strided view
        even = zero.copy()
        details = []
        for (phase, lift), taps in zip(self._cosets, tables.hi):
            w = _roll(np.empty_like(even), y[phase], tuple(-x for x in lift), keep_w)
            if _tap_sum(acc, tmp, even, taps):
                w -= _scale(corr_w, acc)
            details.append(w)
        del even  # before the update step
        upd = _scale(corr_c, self._update(acc, tmp, details, tables.lo))
        coarse = np.add(_scaled(keep_c, zero, tmp), upd, out=upd)
        if den is None:
            return coarse, details, [None] * (1 + len(details))
        return coarse, details, [den * keep_c] + [den * keep_w] * len(details)

    def reconstruct_level(self, coarse: np.ndarray, details, dens=None):
        """One level up, the inverse of decompose_level: (fine, its denominator).

        ``dens`` are the denominators of coarse and then of each detail.
        """
        den = None if dens is None or dens[0] is None else math.lcm(*dens)
        if den is not None:
            coarse, *details = [a if d == den else a * (den // d)
                                for a, d in zip((coarse, *details), dens)]
        tables = self.plan.tables[den is not None]
        (keep_e, corr_e), (keep_o, corr_o) = tables.even, tables.phase
        acc, tmp = np.empty(coarse.shape, coarse.dtype), np.empty(coarse.shape, coarse.dtype)
        upd = _scale(corr_e, self._update(acc, tmp, details, tables.lo))
        even = np.subtract(_scaled(keep_e, coarse, tmp), upd, out=upd)
        out = np.empty(tuple(s * self.p for s in coarse.shape), dtype=even.dtype)
        if den is None:
            out[self._zero] = even
        else:
            # even is over keep_e * den, the other phases over keep_o * den
            np.multiply(even, keep_o // keep_e, out=out[self._zero])
        acc = np.empty_like(even)
        for (phase, lift), taps, w in zip(self._cosets, tables.hi, details):
            if _tap_sum(acc, tmp, even, taps):
                odd = np.add(_scaled(keep_o, w, tmp), _scale(corr_o, acc), out=acc)
            else:
                odd = _scaled(keep_o, w, acc)
            _roll(out[phase], odd, lift)
        return out, None if den is None else den * keep_o
