"""Stock 1-D generator filters and the banks built from them.

Each generator is a p-adic interpolatory filter of G. Deslauriers and
S. Dubuc ("Symmetric iterative interpolation processes", Constructive
Approximation 5, 1989), of accuracy and flatness 2r for any prime p.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .arith import is_prime
from .errors import CompositeDilation, DomainError
from .filterbank import WaveletFilterBank, build_pcs_bank
from .filters import Filter1D, filter_1d
from .lattice import CENTERED, STANDARD


def interp_filter_1d(p: int, r: int, centered: bool = True) -> Filter1D:
    """Interpolatory lowpass filter with prime dilation p and accuracy 2r: for
    each residue s (-(p-1)/2 .. (p-1)/2 when centered, odd p only, else
    0 .. p-1), tap s - p*j is the Lagrange weight at s/p of node j among
    1-r .. r (s > 0), -r .. r-1 (s < 0), or the one node 0 (s = 0 or r = 0)."""
    if not is_prime(p):
        raise CompositeDilation(f"dilation must be prime, got {p}")
    if r < 0:
        raise DomainError(f"interpolation order must be >= 0, got {r}")
    if centered and p % 2 == 0:
        raise DomainError("a centered generator needs an odd p")
    half = (p - 1) // 2 if centered else 0
    taps = {}
    for s in range(-half, p - half):
        nodes = (0,) if s == 0 or r == 0 else range(1 - r, r + 1) if s > 0 else range(-r, r)
        for j in nodes:
            taps[s - p * j] = prod(Fraction(s - p * i, p * (j - i)) for i in nodes if i != j)
    return filter_1d(p, taps)


def box_filter_1d(p: int, centered: bool = True) -> Filter1D:
    """All-ones lowpass filter with dilation p (the Haar-type generator): the
    order-0 :func:`interp_filter_1d`, on -(p-1)/2 .. (p-1)/2 or on 0 .. p-1."""
    return interp_filter_1d(p, 0, centered)


def interp_deg4_filter_1d() -> Filter1D:
    """Interpolatory dilation-3 lowpass filter with accuracy (and flatness) 4."""
    return interp_filter_1d(3, 2)


def box_bank(p: int, n: int) -> WaveletFilterBank:
    """Bank generated by the box filter on both sides (centered when p is odd)."""
    centered = p % 2 == 1
    H = box_filter_1d(p, centered=centered)
    return build_pcs_bank(H, H, n, CENTERED if centered else STANDARD)


def deg4_bank(n: int = 2) -> WaveletFilterBank:
    """Bank pairing the centered box filter with the accuracy-4 interpolatory one."""
    return build_pcs_bank(box_filter_1d(3), interp_deg4_filter_1d(), n, CENTERED)
