"""Polyphase representations of filters.

Masks are :class:`~pcswave.arith.LaurentPoly` values, where the exponent k
stands for the basis function e^{-i k.w}. Under that convention, conjugating
a real-coefficient polynomial negates exponents, and substituting w -> p*w
multiplies them by p; both are exact exponent transforms, so the whole
polyphase layer stays in Q. It runs on integer numerators over one
denominator: a filter is its mask (see :mod:`pcswave.filters`), so no tap is
converted.

The polyphase decomposition splits a filter into q = p^n subfilters indexed by
Gamma. Synthesis components are (1/q) sum_k f(nu + p k) e^{-i k.w}. An
analysis component is the conjugate of the synthesis one, which for real taps
is (1/q) sum_k f(nu - p k) e^{-i k.w}, so only the synthesis side is split. A
filter bank becomes a pair of q x q matrices over this ring, and perfect
reconstruction is the exact identity S(w) A(w) = (1/q) I. The pair of
a bank is built in one place, from its filters, for the ``--dump-polyphase``
file: :func:`pcswave.filterbank.bank_polyphase_matrices`. The identity itself
is decided in the filter domain, with no matrix built
(:func:`pcswave.filterbank.verify_combined_biorthogonality`); the matrix
product that decides it entry by entry is the test suite's oracle, in
``tests/conftest.py``.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

from .arith import LaurentPoly
from .errors import DimensionMismatch
from .filters import Filter1D, FilterND
from .lattice import CosetSystem, eta_routes

MultiIndex = Tuple[int, ...]


def polyphase_decompose(f: FilterND, sys: CosetSystem) -> List[LaurentPoly]:
    """Synthesis polyphase components of f indexed by sys.gamma (zero class first).

    Component nu is (1/q) sum_k f(nu + p k) e^{-i k.w}; the analysis component
    is its ``.conj()``.
    """
    if f.dim != sys.n or f.p != sys.p:
        raise DimensionMismatch("filter and coset system disagree on p or dimension")
    p, num = sys.p, f.mask.num
    cols = list(zip(*num))
    # residues and lattice quotients axis by axis, the Gamma position once per class
    classes = list(zip(*[[x % p for x in col] for col in cols]))
    position = {r: sys.index_of(r) for r in set(classes)}
    index = [position[r] for r in classes]
    reps = list(zip(*[sys.gamma[i] for i in index]))
    quotients = [[(x - r) // p for x, r in zip(col, rep)] for col, rep in zip(cols, reps)]
    comps: List[Dict[MultiIndex, int]] = [{} for _ in range(sys.q)]
    # x -> (coset, k) is one to one, so no two taps share a slot
    for i, k, v in zip(index, zip(*quotients), num.values()):
        comps[i][k] = v
    # f(x) / q is the mask coefficient num[x] / den; the polynomials are
    # immutable, so every empty component is one zero
    zero = LaurentPoly.zero(sys.n)
    return [LaurentPoly.from_integers(sys.n, c, f.mask.den) if c else zero for c in comps]


def eta_sum(F: Filter1D, sys: CosetSystem, nu) -> LaurentPoly:
    """(1/(p-1)) sum over the taps m of F off pZ of F(m) e^{-i w.(nu - m eta(m mod p, nu))}.

    The exponents are the routes of :func:`pcswave.lattice.eta_routes`.
    """
    out: Dict[MultiIndex, int] = {}
    for k, v in eta_routes(sys, F.mask.num, nu):
        out[k] = out.get(k, 0) + v
    # F(m) = p num[m] / den
    return LaurentPoly.from_integers(sys.n, out, F.mask.den * (sys.p - 1)) * sys.p


class PolyphaseMatrix(NamedTuple):
    rows: int
    cols: int
    entries: List[List[LaurentPoly]]
