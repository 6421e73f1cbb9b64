"""The per-level lifting steps of the fast transform, for every scalar type.

One level down is a predict/update pair: step (i) predicts each coset's
samples from the zero coset and keeps the residual as the detail w_nu, and
step (ii) updates the zero coset with the details into the coarse y0 (see
:mod:`pcswave.transform` for the formulas). One level up runs the inverses
(iii) and (iv) in the opposite order.

The same code runs on float64 arrays and on exact rationals, with the tap
tables, pads and scales of a :class:`pcswave.plan.LevelPlan`; the scalar type
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

No step copies an array per tap on a level wider than all its tap offsets.
Such a level wrap-pads the zero phase once for the taps of (i) and (iv), and
each detail once for the taps of (ii) and (iii), by the pads the plan gives;
every tap then reads a slice view of the padded array. A level that some
offset reaches a whole period of pads nothing instead: each of its taps is
block-copied into the scratch array it is multiplied in, so no array is
sized by a tap offset. A tap sum is multiplied into one scratch array and
added into one accumulator in place, the normalization and the final add or
subtract are done in place, and a phase moves between its rolled place in
the fine grid and its coset array by block copies. So in float64 a level
creates each of its outputs once, plus two scratch arrays and at most one
padded array of coarse size.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .plan import LevelPlan


class _Padded:
    """An array read at rolls: slice views of one wrap-padded copy of it.

    With no pad on any axis the array itself is sliced. With ``pad`` None it
    is not padded, and each roll is block-copied into the scratch array the
    caller passes.
    """

    def __init__(self, a, pad):
        self.shape = a.shape
        if pad is None:
            self.data, self.before = a, None
            return
        self.data = np.pad(a, pad, mode="wrap") if any(b or e for b, e in pad) else a
        self.before = [b for b, _ in pad]

    def rolled(self, shift, scratch):
        """The array rolled by shift along every axis: a view, or scratch holding it."""
        if self.before is None:
            _roll_into(scratch, self.data, shift)
            return scratch
        return self.data[tuple(slice(b - s, b - s + m)
                               for b, s, m in zip(self.before, shift, self.shape))]


def _accumulate(acc, tmp, a, taps):
    """acc += v * (a rolled by shift) for each (shift, v) in taps, in table order.

    ``a`` is a :class:`_Padded`; ``tmp`` is scratch of acc's shape and dtype.
    """
    for shift, v in taps:
        np.multiply(a.rolled(shift, tmp), v, out=tmp)
        acc += tmp


def _tap_sum(acc, tmp, a, taps):
    """Write the tap sum of a into acc, starting at the first term; False when there are no taps."""
    if not taps:
        return False
    (shift, v), *rest = taps
    np.multiply(a.rolled(shift, acc), v, out=acc)
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
    def _update(acc, tmp, details, lo, pads):
        """Write the step (ii)/(iii) correction sum over every coset's detail into acc."""
        acc[...] = 0
        for w, taps, pad in zip(details, lo, pads):
            if taps:
                _accumulate(acc, tmp, _Padded(w, pad), taps)
        return acc

    def decompose_level(self, y: np.ndarray, den=None):
        """One level down: (coarse, [detail per nu], [denominator per output])."""
        even = y[self._zero]
        plan, (pad_hi, pad_lo) = self.plan.level(den is not None, even.shape)
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
        plan, (pad_hi, pad_lo) = self.plan.level(den is not None, coarse.shape)
        (keep_e, corr_e), (keep_o, corr_o) = plan.even, plan.phase
        acc, tmp = np.empty(coarse.shape, coarse.dtype), np.empty(coarse.shape, coarse.dtype)
        upd = _scale(corr_e, self._update(acc, tmp, details, plan.lo, pad_lo))
        even = np.subtract(_scaled(keep_e, coarse, tmp), upd, out=upd)
        out = np.empty(tuple(s * self.p for s in coarse.shape), dtype=even.dtype)
        if den is None:
            out[self._zero] = even
        else:
            # even is over keep_e * den, the other phases over keep_o * den
            np.multiply(even, keep_o // keep_e, out=out[self._zero])
        padded = _Padded(even, pad_hi)
        # once even is copied into padded, its buffer takes the tap sums
        acc = np.empty_like(even) if padded.data is even else even
        for (phase, lift), taps, w in zip(self._cosets, plan.hi, details):
            if _tap_sum(acc, tmp, padded, taps):
                odd = np.add(_scaled(keep_o, w, tmp), _scale(corr_o, acc), out=acc)
            else:
                odd = _scaled(keep_o, w, acc)
            _roll_into(out[phase], odd, lift)
        return out, None if den is None else den * keep_o
