"""The plan of the fast transform: tap tables, scales and multiply counts.

A plan is built from the coset system and the two 1-D generators alone and
holds no array, so it needs no numpy. It holds the transform's whole contract
on the bank, and refuses a bank without G and H, with generators of another
dilation than the system, or with generators that are not lowpass with H
interpolatory (:func:`pcswave.filterbank.require_generators`).
:class:`pcswave.kernels.LevelKernels` runs its tables on arrays, and
:func:`pcswave.transform.count_ops` counts the multiplies of the same tables.

For each nu in Gamma', the tap lists of H (predict) and G (update) are the
routes of :func:`pcswave.lattice.eta_routes` divided by p, in increasing m:
with d = (nu - eta(l,nu) m) / p, predict taps gather y0(k + d) and update
taps w_nu(k - d). The float64 tables hold the taps rounded, p * num / den by
``int / int``, and each output sample is normalized once by 1/(p-1) or
1/((p-1) p^n), made alike. The exact tables hold the integer mask numerators
of G and H, and the normalizations become integer factors on the sample
kept, so an exact step runs on integers alone: its output is over its
input's denominator times that factor. The exact tables sum the taps that
share a shift, which the float64 tables cannot do without changing how their
sums round.

A shift is kept as the tap gives it, however far it reaches: the steps read
it modulo the level's extent, so the plan sizes nothing by a tap offset.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DimensionMismatch, WrongProvenance
from .filterbank import require_generators
from .lattice import eta_routes


def _merged(tables, scale):
    """tables with each value times scale and the taps that share a shift summed.

    A zero sum is dropped. Integer sums do not round, so an exact step reads
    each shift once; the float64 tables keep every tap, in order.
    """
    out = []
    for taps in tables:
        sums = {}
        for d, v in taps:
            sums[d] = sums.get(d, 0) + scale * v
        out.append([(d, v) for d, v in sums.items() if v])
    return out


class Tables(NamedTuple):
    """The tap tables and scales of one scalar type.

    ``detail``, ``coarse``, ``even`` and ``phase`` are the (keep, corr) scale
    pairs of steps (i), (ii), (iii) and (iv): each step returns
    keep * sample -/+ corr * tap sum, a None scale multiplying by nothing. In
    the exact tables every corr is None, and an output over keep * D is the
    value over the input's denominator D.
    """

    hi: list
    lo: list
    detail: tuple
    coarse: tuple
    even: tuple
    phase: tuple


class LevelPlan:
    """Steps (i)-(iv) of one bank as tap tables, from its coset system and G, H alone."""

    def __init__(self, sys, G, H):
        if G is None or H is None:
            raise WrongProvenance("the fast transform needs a bank built from 1-D generators")
        if G.p != sys.p:
            raise DimensionMismatch(f"G has dilation {G.p}, the coset system has {sys.p}")
        require_generators(G, H)
        p, n = sys.p, sys.n
        self.n = n
        # (offset, mask numerator) per route, for tap m = p num[m] / den of G or H;
        # predict (H) offsets are negated
        hi, lo = ([[(tuple(sign * x // p for x in k), v)
                    for k, v in eta_routes(sys, F.mask.num, nu)] for nu in sys.gamma_prime]
                  for F, sign in ((H, -1), (G, 1)))
        d_g, d_h = G.mask.den, H.mask.den

        def floats(tables, den):
            return [[(d, p * v / den) for d, v in taps] for taps in tables]

        inv_pm1, inv_corr = 1 / (p - 1), 1 / ((p - 1) * p ** n)
        # With y = Y/D, the detail (i) is ((p-1) d_H Y_nu - sum p h_m Y0) / ((p-1) d_H D)
        # and the coarse (ii) is ((p-1)^2 p^(n-1) d_G d_H Y0 + sum g_m W_nu) over that
        # factor times D. Steps (iii) and (iv) run the same algebra backwards: the
        # even samples come over (p-1) p^(n-1) d_G D, the others over the (ii) factor.
        keep_detail = (p - 1) * d_h
        keep_even = (p - 1) * p ** (n - 1) * d_g
        keep_coarse = keep_detail * keep_even
        self.tables = {
            False: Tables(floats(hi, d_h), floats(lo, d_g), (None, inv_pm1),
                          (None, inv_corr), (None, inv_corr), (None, inv_pm1)),
            True: Tables(_merged(hi, p), _merged(lo, 1),
                         (keep_detail, None), (keep_coarse, None),
                         (keep_even, None), (keep_coarse, None)),
        }

    def mults(self, coarse_samples: int) -> int:
        """Multiplies of one level down and one level up.

        ``coarse_samples`` is the size of the coarse array. The convention is
        that of :mod:`pcswave.transform`: one per tap of the float64 tables,
        one per detail sample for 1/(p-1), and n + 1 per coarse sample for
        1/((p-1) p^n).
        """
        tables = self.tables[False]
        per_sample = (sum(len(taps) + 1 for taps in tables.hi)
                      + sum(len(taps) for taps in tables.lo) + self.n + 1)
        return 2 * per_sample * coarse_samples
