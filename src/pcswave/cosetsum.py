"""The prime coset sum: 1-D lowpass filters lifted to n-D non-separable ones.

The n-D filter h built from a 1-D lowpass filter H with prime dilation p, for
the dimension n of the coset system it is given, is

    h(0) = (p - p^n + (p^n - 1) H(0)) / (p - 1)
    h(k) = (1/(p-1)) * sum of H(l) over all l != 0 with k = l * nu, nu in Gamma'

for k != 0. The l-sum is never materialized as a set: iterating over pairs
(nu, l) in Gamma' x (supp H \\ 0) and accumulating at k = l * nu reproduces it
exactly, because for a fixed l there is at most one nu with k = l * nu. Taps
that cancel to zero are dropped. The sums run on the integer numerators of
H's mask, and the result is the mask of h over one denominator.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .arith import LaurentPoly
from .errors import DimensionMismatch
from .filters import Filter1D, FilterND, require_lowpass
from .lattice import CosetSystem

MultiIndex = Tuple[int, ...]


def prime_coset_sum(H: Filter1D, sys: CosetSystem) -> FilterND:
    """Lift the 1-D lowpass filter H to a sys.n-D lowpass filter with dilation p*I_n."""
    if sys.p != H.p:
        raise DimensionMismatch(f"filter dilation {H.p} != coset system dilation {sys.p}")
    require_lowpass(H, "1-D filter")
    p, n, q = sys.p, sys.n, sys.q
    num, den = H.mask.num, H.mask.den
    # H(l) = p num[l] / den, so over D = den (p-1) p^(n-1) the mask h(k) / q has
    # numerator (1 - p^(n-1)) den + (q-1) num[0] at 0 and the sum of num[l] at k
    out: Dict[MultiIndex, int] = {(0,) * n: (1 - p ** (n - 1)) * den + (q - 1) * num.get((0,), 0)}
    for nu in sys.gamma_prime:
        for (l,), v in num.items():
            if l:
                k = tuple(l * x for x in nu)
                out[k] = out.get(k, 0) + v
    return FilterND(p, LaurentPoly.from_integers(n, out, den * (p - 1) * p ** (n - 1)))
