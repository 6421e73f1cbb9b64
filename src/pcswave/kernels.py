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
depends only on the input and the tables. No predict table is empty: the
plan takes only an interpolatory H, whose taps off pZ all reach every nu and
sum to p - 1 != 0, so even a merged exact table keeps a nonzero sum.

Every tap of every step is read one way. A level runs in tiles of
leading-axis rows of at most TILE_BYTES (256 KiB) of a phase, so that a tap
sum's accumulator and scratch stay in cache while all of its taps are added;
a phase of at most 256 KiB is one tile. Over a tile, a tap's roll of the
array it reads splits into at most 2^n blocks, each shift taken modulo the
extent, so no array is sized by a tap offset. The blocks are copied into the
accumulator for the first tap of a sum, or else into one scratch tile,
multiplied there in place and added into the accumulator. A unit tap (1.0 or
1) is never multiplied (box p=5 n=3 on 25^3 and p=7 n=2 on 49^2 once made
480 and 392 such multiplies a round trip); if it moves whole rows, its blocks
are added straight into the accumulator. x * 1.0 is x bit for bit, and the
add or scale that follows quiets a signalling NaN it would have quieted.
Each sample keeps its tap order whatever the tiles, so float64 output does
not depend on them. A tiled level splits each (shift, tile) once.

Step (i) reads one contiguous copy of the zero phase, made once per level
and released before step (ii); step (iv) reads the finished zero phase
itself. The normalization and the final add or subtract are done tile by
tile, and each coset's tile moves between its rolled place in the fine grid
and its coset array by block copies. No ufunc runs on a strided view or on a
block that splits rows: numpy 2.4 runs those through iteration buffers of
up to 64 KiB per operand, which allocate and are slower than a copy. So in
float64 a level creates each of its outputs once, two scratch tiles and at
most one more array of coarse size.

:meth:`LevelPlan.mults` still counts unit taps, since that count is the
paper's model of the transform, not a tally of the multiplies a level runs.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .plan import LevelPlan

# The most bytes of a tile's rows; a larger row is a tile of its own. On a
# 2-CPU x86 host with 4 MiB of L2 per core, 128 KiB and 512 KiB tiles were
# both slower than 256 KiB on deg4 2187^2.
TILE_BYTES = 256 << 10


def _tile_rows(shape, itemsize):
    """Leading-axis rows per tile of a phase of this shape and item size."""
    return max(1, TILE_BYTES // (itemsize * math.prod(shape[1:])))


def _blocks(shape, shift, rows):
    """Yield the (dst, src) index pairs of a roll by shift, over the output rows ``rows``.

    Element k of the roll of an array a of ``shape`` is a[k - shift], each axis
    taken modulo its extent. ``dst`` indexes the tile, whose row 0 is output
    row ``rows.start``, and ``src`` indexes a. A shift of any size splits a
    tile into at most 2^n blocks and sizes nothing.
    """
    m, size = shape[0], rows.stop - rows.start
    s = (rows.start - shift[0]) % m  # the row of a that the tile's row 0 reads
    head = min(size, m - s)
    axes = [[(slice(0, head), slice(s, s + head))]
            + ([(slice(head, size), slice(0, size - head))] if head < size else [])]
    for s, m in zip(shift[1:], shape[1:]):
        s %= m
        axes.append([(slice(s, None), slice(None, m - s)), (slice(None, s), slice(m - s, None))]
                    if s else [(slice(None), slice(None))])
    for parts in itertools.product(*axes):
        dst, src = zip(*parts)
        yield dst, src


class _Tiles:
    """The row tiles of one level's phases, and each (shift, tile) block split, made once."""

    __slots__ = ("shape", "dtype", "rows", "_splits")

    def __init__(self, shape, dtype):
        step = _tile_rows(shape, dtype.itemsize)
        self.shape, self.dtype = shape, dtype
        self.rows = [slice(r, min(r + step, shape[0])) for r in range(0, shape[0], step)]
        self._splits = {}

    def scratch(self):
        """An uninitialized array of one tile's shape."""
        return np.empty((self.rows[0].stop,) + self.shape[1:], self.dtype)

    def split(self, shift, rows):
        """:func:`_blocks` of this level's phase shape.

        A tiled level computes each (shift, tile) split once: cosets share
        few distinct shifts, and every tap is read once per tile. A level of
        one tile splits each tap as it reads it and holds no split.
        """
        if len(self.rows) == 1:
            return _blocks(self.shape, shift, rows)
        key = shift, rows.start
        pairs = self._splits.get(key)
        if pairs is None:
            pairs = self._splits[key] = list(_blocks(self.shape, shift, rows))
        return pairs

    def tap_sum(self, acc, tmp, a, taps, rows, start=True):
        """acc = the tap sum of a over one tile, or acc += it when not ``start``.

        The sum is of v * (a rolled by shift) over (shift, v) in taps, in table
        order; acc and tmp hold the tile's rows. A first term is copied into acc;
        a unit tap whose roll moves whole rows (contiguous blocks) adds a's blocks
        into acc in place; any other is copied into tmp, multiplied there unless 1, and added.
        """
        for shift, v in taps:
            pairs = self.split(shift, rows)
            if start:
                for dst, src in pairs:
                    acc[dst] = a[src]
                if v != 1:
                    np.multiply(acc, v, out=acc)
                start = False
            elif v == 1 and all(s % m == 0 for s, m in zip(shift[1:], self.shape[1:])):
                for dst, src in pairs:
                    part = acc[dst]
                    np.add(part, a[src], out=part)
            else:
                for dst, src in pairs:
                    tmp[dst] = a[src]
                acc += tmp if v == 1 else np.multiply(tmp, v, out=tmp)


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
    Axes past the first n are batch axes: each level runs on the first n
    axes of every batch entry alike.
    """

    def __init__(self, sys, G, H):
        self.plan = LevelPlan(sys, G, H)
        p, n = self.p, self.n = sys.p, sys.n
        # each coset's phase slices and -(nu // p): y(pk + nu) is element k of
        # the phase rolled by that shift
        self._cosets = [(tuple(slice(x % p, None, p) for x in nu),
                         tuple(-(x // p) for x in nu)) for nu in sys.gamma_prime]
        self._zero = (slice(None, None, p),) * n

    @staticmethod
    def _update(tiles, acc, tmp, details, lo, rows):
        """Write the step (ii)/(iii) correction sum over every coset's detail into acc."""
        acc[...] = 0
        for w, taps in zip(details, lo):
            tiles.tap_sum(acc, tmp, w, taps, rows, start=False)
        return acc

    def decompose_level(self, y: np.ndarray, den=None):
        """One level down: (coarse, [detail per nu], [denominator per output])."""
        tables = self.plan.tables[den is not None]
        (keep_w, corr_w), (keep_c, corr_c) = tables.detail, tables.coarse
        zero = y[self._zero]
        tiles = _Tiles(zero.shape, zero.dtype)
        acc, tmp = tiles.scratch(), tiles.scratch()
        # the predict taps read blocks of one contiguous copy of the zero phase,
        # which is faster than reading blocks of its strided view
        even = zero.copy()
        details = [np.empty_like(even) for _ in self._cosets]
        for rows in tiles.rows:
            size = rows.stop - rows.start
            a, t = acc[:size], tmp[:size]
            for (phase, back), taps, w in zip(self._cosets, tables.hi, details):
                w, src_phase = w[rows], y[phase]
                for dst, src in tiles.split(back, rows):
                    w[dst] = src_phase[src]
                _scale(keep_w, w)
                tiles.tap_sum(a, t, even, taps, rows)
                w -= _scale(corr_w, a)
        del even, acc, a  # before the update step
        coarse = np.empty_like(zero)
        for rows in tiles.rows:
            c, t = coarse[rows], tmp[:rows.stop - rows.start]
            _scale(corr_c, self._update(tiles, c, t, details, tables.lo, rows))
            # a block copy first: a ufunc on the strided zero phase would
            # run through numpy's iteration buffers
            t[...] = zero[rows]
            np.add(_scale(keep_c, t), c, out=c)
        if den is None:
            return coarse, details, [None] * (1 + len(details))
        return coarse, details, [den * keep_c] + [den * keep_w] * len(details)

    def reconstruct_level(self, coarse: np.ndarray, details, dens):
        """One level up, the inverse of decompose_level: (fine, its denominator).

        ``dens`` are the denominators decompose_level returned (None in float64).
        """
        den = None if dens[0] is None else math.lcm(*dens)
        if den is not None:
            coarse, *details = [a if d == den else a * (den // d)
                                for a, d in zip((coarse, *details), dens)]
        tables = self.plan.tables[den is not None]
        (keep_e, corr_e), (keep_o, corr_o) = tables.even, tables.phase
        tiles = _Tiles(coarse.shape, coarse.dtype)
        acc, tmp = tiles.scratch(), tiles.scratch()
        even = np.empty(coarse.shape, coarse.dtype)
        out = np.empty(tuple(s * self.p for s in coarse.shape[:self.n]) + coarse.shape[self.n:],
                       dtype=coarse.dtype)
        out_zero = out[self._zero]
        for rows in tiles.rows:
            e, t = even[rows], tmp[:rows.stop - rows.start]
            _scale(corr_e, self._update(tiles, e, t, details, tables.lo, rows))
            np.subtract(_scaled(keep_e, coarse[rows], t), e, out=e)
            # even is over keep_e * den, the other phases over keep_o * den
            out_zero[rows] = e if den is None else np.multiply(e, keep_o // keep_e, out=t)
        for rows in tiles.rows:
            size = rows.stop - rows.start
            a, t = acc[:size], tmp[:size]
            for (phase, back), taps, w in zip(self._cosets, tables.hi, details):
                w, dst_phase = w[rows], out[phase]
                tiles.tap_sum(a, t, even, taps, rows)
                odd = np.add(_scaled(keep_o, w, t), _scale(corr_o, a), out=a)
                # each tile goes straight to its rolled place in the fine grid
                for dst, src in tiles.split(back, rows):
                    dst_phase[src] = odd[dst]
        return out, None if den is None else den * keep_o
