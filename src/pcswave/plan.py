"""The plan of the fast transform: the bank's generators, tap tables, scales and
multiply counts.

A plan is built from the coset system and the two 1-D generators alone and
holds no array, so it needs no numpy. It holds the transform's whole contract
on the bank, and refuses a bank without G and H, with generators of another
dilation than the system, or with generators that are not lowpass with H
interpolatory (:func:`require_generators`, which the bank's constructions
run too). :class:`pcswave.kernels.LevelKernels` runs its tables on arrays,
and :func:`pcswave.transform.count_ops` counts the multiplies of the same
tables.

:class:`Generators` is that part of a bank, all that the plan reads of it.
:func:`bank_generators` reads it from a bank document's header, with the
dilation check of every bank load. :func:`header_text` writes a checked
bank's header (p, dim, convention, G and H) as one line of JSON, and
:func:`header_generators` reads it back with the same checks plus
:func:`require_generators`: the command line keeps this text as the marker of
a bank that passed the checked load, and a later load of the same bytes reads
it in place of the bank. So neither needs the bank's algebra
(:mod:`pcswave.filterbank`).

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

import json
from typing import NamedTuple, Optional

from .errors import DimensionMismatch, FormatError, WrongProvenance
from .filters import (Filter1D, filter_from_json, filter_to_json, require_interpolatory,
                      require_lowpass, to_1d)
from .lattice import CosetSystem, eta_routes, make_coset_system


class Generators(NamedTuple):
    """The coset system and 1-D generators of a bank: all that a plan reads of it."""

    sys: CosetSystem
    g1d: Optional[Filter1D]
    h1d: Optional[Filter1D]


def require_generators(G: Filter1D, H: Filter1D) -> None:
    """G and H share p, both are lowpass and H is interpolatory (rules of :mod:`.filters`)."""
    if G.p != H.p:
        raise DimensionMismatch(f"G has dilation {G.p}, H has dilation {H.p}")
    require_lowpass(G, "G")
    require_lowpass(H, "H")
    require_interpolatory(H, "H")


def bank_generators(sys: CosetSystem, g_doc, h_doc) -> Generators:
    """The generators of a bank document over its coset system sys, from their
    documents: none when g_doc is None, else G and H of the bank's dilation."""
    if g_doc is None:
        return Generators(sys, None, None)
    g1d, h1d = to_1d(filter_from_json(g_doc)), to_1d(filter_from_json(h_doc))
    if g1d.p != sys.p or h1d.p != sys.p:
        raise FormatError(f"generators have dilations {g1d.p} and {h1d.p}, "
                          f"the bank has p={sys.p}")
    return Generators(sys, g1d, h1d)


_HEADER_KEYS = ("p", "dim", "convention", "G", "H")


def header_text(bank) -> str:
    """The header of a bank with generators, its p, dim, convention, G and H, as
    ``json.dumps`` writes it with sorted keys on one line."""
    sys = bank.sys
    values = (sys.p, sys.n, sys.convention, filter_to_json(bank.g1d), filter_to_json(bank.h1d))
    # the C encoder of json.dumps leaves no reference cycle, which json.dump's would
    return json.dumps(dict(zip(_HEADER_KEYS, values)), sort_keys=True, separators=(",", ":"))


def header_generators(header) -> Generators:
    """The Generators of a header that :func:`header_text` wrote, read with the
    checks of a bank load and :func:`require_generators`; anything else raises
    a :class:`pcswave.errors.PcswaveError`."""
    try:
        p, n, convention, g_doc, h_doc = (header[key] for key in _HEADER_KEYS)
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed bank header: {exc!r}") from exc
    if type(p) is not int or type(n) is not int or g_doc is None or h_doc is None:
        raise FormatError("malformed bank header")
    gens = bank_generators(make_coset_system(p, n, convention), g_doc, h_doc)
    require_generators(gens.g1d, gens.h1d)
    return gens


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
