"""Coset representative systems for Z^n / p Z^n and the index maps they induce.

A :class:`CosetSystem` holds the representative set Gamma of Z^n / p Z^n, with
0 first. Frequencies gamma in Gamma* are never materialized as angles: a
frequency is an integer vector g standing for (2*pi/p) * g, which keeps every
mask evaluation inside Q(zeta_p).
"""

from __future__ import annotations

import itertools
from typing import Tuple

from .arith import is_prime
from .errors import CompositeDilation, DomainError, InvalidConvention, PcswaveError

MultiIndex = Tuple[int, ...]

STANDARD = "standard"
CENTERED = "centered"

# the most cosets a PCSC record's u16 coset index can address
MAX_COSETS = 1 << 16


class CosetSystem:
    """Immutable representative system for a scalar dilation p on Z^n.

    Two systems are equal, and hash equal, when p, n, the convention and
    Gamma (gamma[0] == 0) are; ``_index`` maps each standard residue vector to
    its position in Gamma.
    """

    __slots__ = ("p", "n", "convention", "gamma", "_index")

    def __init__(self, p: int, n: int, convention: str, gamma: Tuple[MultiIndex, ...],
                 _index: dict = None):
        fields = (p, n, convention, gamma, {} if _index is None else _index)
        for name, value in zip(CosetSystem.__slots__, fields):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot change field {name!r} of a frozen CosetSystem")

    __delattr__ = __setattr__

    def _key(self):
        return self.p, self.n, self.convention, self.gamma

    def __eq__(self, other):
        if other.__class__ is not CosetSystem:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def q(self) -> int:
        return self.p ** self.n

    @property
    def gamma_prime(self) -> Tuple[MultiIndex, ...]:
        return self.gamma[1:]

    @property
    def zero(self) -> MultiIndex:
        return self.gamma[0]

    def rep(self, v) -> MultiIndex:
        """Representative in Gamma of the residue class of v."""
        return self.gamma[self._index[tuple(x % self.p for x in v)]]

    def index_of(self, v) -> int:
        """Position in the Gamma ordering of v's residue class."""
        return self._index[tuple(x % self.p for x in v)]


def too_many_cosets(p: int, n: int) -> bool:
    """p^n > MAX_COSETS for p >= 2, decided without forming p^n for a huge n."""
    # p^17 > 2^16 for every p >= 2
    return p >= 2 and p ** min(n, 17) > MAX_COSETS


def _center(r: int, p: int) -> int:
    return r if r <= (p - 1) // 2 else r - p


def make_coset_system(p: int, n: int, convention: str = STANDARD) -> CosetSystem:
    """Build the coset system for dilation p * I_n.

    Gamma is ordered lexicographically by standard residue vector, so the zero
    class always comes first. Systems of more than MAX_COSETS cosets are
    refused before p is tested.
    """
    if n < 1:
        raise DomainError(f"dimension must be >= 1, got {n}")
    if too_many_cosets(p, n):
        raise DomainError(f"p^n = {p}^{n} exceeds {MAX_COSETS} cosets")
    if not is_prime(p):
        raise CompositeDilation(f"dilation must be prime, got {p}")
    if convention not in (STANDARD, CENTERED):
        raise InvalidConvention(f"unknown convention {convention!r}")
    if convention == CENTERED and p % 2 == 0:
        raise InvalidConvention("centered representatives need an odd p")

    residues = list(itertools.product(range(p), repeat=n))
    if convention == STANDARD:
        gamma = tuple(residues)
    else:
        gamma = tuple(tuple(_center(r, p) for r in res) for res in residues)
    index = {res: i for i, res in enumerate(residues)}
    return CosetSystem(p=p, n=n, convention=convention, gamma=gamma, _index=index)


def eta(sys: CosetSystem, l: int, nu: MultiIndex) -> MultiIndex:
    """The element of Gamma' congruent to rho(l) * nu modulo p, componentwise,
    where rho(l) in F_p' = {1, ..., p-1} is the inverse of l modulo p."""
    if not 0 < l < sys.p:
        raise DomainError(f"l={l} is not in F_p' for p={sys.p}")
    nu = tuple(nu)
    i = sys._index.get(tuple(x % sys.p for x in nu))
    if not i or sys.gamma[i] != nu:
        raise DomainError(f"nu={nu} is not in Gamma'")
    r = pow(l, -1, sys.p)
    return sys.rep(r * x for x in nu)


def eta_routes(sys: CosetSystem, num, nu: MultiIndex):
    """(nu - eta(m mod p, nu) * m, value) for each 1-D tap m off pZ, by increasing m.

    ``num`` maps each tap (m,) of G or H to a value, e.g. its mask numerator.
    This routing gives the closed-form highpass masks, the coset-sum
    polyphase components and the tap tables of the fast steps. Every exponent
    lies in pZ^n; one that does not means a broken eta and raises.
    """
    p, nu = sys.p, tuple(nu)
    etas = {l: eta(sys, l, nu) for l in {m % p for (m,) in num} - {0}}
    out = []
    for (m,), v in sorted(num.items()):
        if m % p:
            k = tuple(a - m * b for a, b in zip(nu, etas[m % p]))
            if any(x % p for x in k):
                raise PcswaveError(f"lattice congruence violated at nu={nu}, "
                                   f"m={m}: {k} not in pZ^n")
            out.append((k, v))
    return out
