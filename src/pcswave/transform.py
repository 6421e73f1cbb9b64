"""Fast multiresolution transforms, the direct analysis oracle, and op accounting.

The fast route never touches the materialized n-D filters. One level down:

  (i)  w_nu(k)  = y(pk+nu) - (1/(p-1)) * sum over 1-D taps H(m), m != 0 mod p,
                  of H(m) * y(pk + nu - eta(l,nu) m),        l = m mod p
  (ii) y0(k)    = y(pk) + (1/((p-1) p^n)) * sum over nu and taps G(m) of
                  G(m) * w_nu(k - (nu - eta(l,nu) m)/p)

and one level up reverses them: (iii) recovers y(pk) from y0 by subtracting
the step-(ii) correction, then (iv) recovers y(pk+nu) from w_nu by adding back
the step-(i) correction, reading only the already-final y(pk) values. The
divisions by p in the tap shifts are exact: nu - eta(l,nu) m is congruent to
0 mod p componentwise, and :func:`pcswave.lattice.eta_routes` refuses to
proceed otherwise. :class:`pcswave.plan.LevelPlan` plans the four steps from
the coset system and G, H alone, and :class:`pcswave.kernels.LevelKernels`
runs them in both modes: on float64 arrays, and in rational mode on integer
numerators, each array over one denominator, from the input tensor's to the
output tensors'. No ``Fraction`` is made on the way.

The direct route, the oracle of ``analyze --oracle``, filters and
resamples with the materialized analysis filters:

    subband_f(k) = (1/q) * sum over taps f(t) * y(pk + t)

It runs that sum tap by tap on whole arrays, each read through ``np.roll``,
so it shares no indexing code with the fast route's kernels. Its rational
mode also runs on integers: the taps are the filters' mask numerators, and
no ``Fraction`` is made.

Both routes are exact in rational mode and must agree everywhere; that
equivalence, and the direct inverse in the tests, are the oracles the test
suite leans on.

Operation counting convention (documented, matched by the closed form):
multiplying by a stored filter tap costs 1 (unit taps included); the
1/(p-1) normalization of steps (i)/(iv) costs 1 division per output sample;
the 1/((p-1) p^n) normalization of steps (ii)/(iii) costs n+1 divisions per
output sample (n by p, one by p-1). Under this convention a full 1-level
decompose+reconstruct cycle on N samples costs exactly

    (2 (p^n - 1) beta + 2 (p^n - 1) alpha~ + 2n + 2) / p^n * N

with alpha, beta the 1-D support sizes and alpha~ the number of G taps away
from the zero residue class. :func:`count_ops` counts over the plan's tables
alone, and the transforms import the kernels and tensors, and with them
numpy, when they run, so counting needs no numpy. The count is that model:
when a level runs, a unit tap is added without a multiply (see
:mod:`pcswave.kernels`), so the update steps of a box G bank multiply by
no tap.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, List, NamedTuple

from .errors import DimensionMismatch, DomainError, ShapeMismatch, ShapeNotDivisible
from .filterbank import WaveletFilterBank
from .plan import LevelPlan

if TYPE_CHECKING:
    from .tensor import MultiresCoeffs, Tensor


def _check_shape(shape, bank: WaveletFilterBank, levels: int) -> None:
    if len(shape) != bank.n:
        raise DimensionMismatch(f"tensor is {len(shape)}-D, bank is {bank.n}-D")
    if levels < 1:
        raise DomainError(f"levels must be >= 1, got {levels}")
    p = bank.p
    for axis, s in enumerate(shape):
        # one level at a time: a huge levels never forms p^levels
        for _ in range(levels):
            s, r = divmod(s, p)
            if r:
                raise ShapeNotDivisible(f"axis {axis} has extent {shape[axis]}, "
                                        f"not divisible by p^levels = {p}^{levels}")


def decompose_fast(y: Tensor, bank: WaveletFilterBank, levels: int) -> MultiresCoeffs:
    """J-level decomposition by the fast per-coset steps; each level's
    details are the Gamma'-ordered list that ``decompose_level`` returns."""
    from .kernels import LevelKernels
    from .tensor import MultiresCoeffs, Tensor
    kern = LevelKernels(bank.sys, bank.g1d, bank.h1d)
    _check_shape(y.shape, bank, levels)
    details: List[List[Tensor]] = []
    cur, den = y.data, y.den
    for _ in range(levels):
        cur, dets, (den, *dens) = kern.decompose_level(cur, den)
        details.append([Tensor(w.shape, y.mode, w, d) for w, d in zip(dets, dens)])
    return MultiresCoeffs(bank.sys, Tensor(cur.shape, y.mode, cur, den), details[::-1])


def reconstruct_fast(c: MultiresCoeffs, bank: WaveletFilterBank) -> Tensor:
    """Inverse of :func:`decompose_fast`; exact in rational mode."""
    from .kernels import LevelKernels
    from .tensor import Tensor
    kern = LevelKernels(bank.sys, bank.g1d, bank.h1d)
    if c.sys != bank.sys:
        raise ShapeMismatch("coefficients were produced for a different coset system")
    c.check_layout()
    cur, den = c.coarse.data, c.coarse.den
    for dets in c.details:
        cur, den = kern.reconstruct_level(cur, [t.data for t in dets],
                                          [den] + [t.den for t in dets])
    return Tensor(cur.shape, c.mode, cur, den)


# --- direct (filter + resample) oracle --------------------------------------

def decompose_direct(y: Tensor, bank: WaveletFilterBank, levels: int) -> MultiresCoeffs:
    """Reference decomposition: correlate with each analysis filter, decimate.

    Works for any provenance since it only needs the materialized filters.
    subband_f(k) = (1/q) sum_t f(t) y(pk + t), periodic in every axis, is
    computed on whole arrays: for each tap t in index order, y rolled by -t
    (reduced modulo the extent) and sampled at every p-th point is added
    times the tap, read from the mask numerators of f (its mask is f/q). In
    float64 the tap is float(f(t)), q * num / den by ``int / int``, and the sum
    is then multiplied by 1 / q; in rational mode it is the numerator, and a
    subband is an int array over the input's denominator times the mask's. Each
    level lists its subbands in Gamma' order, as :func:`decompose_fast` does.
    """
    import numpy as np

    from .tensor import MultiresCoeffs, Tensor
    _check_shape(y.shape, bank, levels)
    p, n = bank.p, bank.n
    exact = y.den is not None

    def subband(x, f):
        s = 0
        for t, v in sorted(f.mask.num.items()):
            rolled = np.roll(x.data, [-(a % e) for a, e in zip(t, x.shape)], axis=tuple(range(n)))
            s = s + (v if exact else f.q * v / f.mask.den) * rolled[(slice(None, None, p),) * n]
        if exact:
            return Tensor(s.shape, y.mode, s, x.den * f.mask.den)
        return Tensor(s.shape, y.mode, 1 / bank.q * s)

    details: List[List[Tensor]] = []
    cur = y
    for _ in range(levels):
        details.append([subband(cur, bank.t[nu]) for nu in bank.sys.gamma_prime])
        cur = subband(cur, bank.tau)
    return MultiresCoeffs(bank.sys, cur, details[::-1])


# --- operation accounting ----------------------------------------------------

class OpCount(NamedTuple):
    """Counted and predicted multiplicative work for decompose+reconstruct."""

    multiplicative_ops: int
    predicted: Fraction          # closed-form total over all levels
    alpha: int                   # |supp G|
    beta: int                    # |supp H|
    alpha_tilde: int             # G taps with m != 0 mod p
    pcs_constant: Fraction       # per-sample constant of one full cycle
    tensor_model: Fraction       # (alpha + beta) * n, per sample
    data_points: int
    levels: int


def pcs_complexity_constant(alpha_tilde: int, beta: int, p: int, n: int) -> Fraction:
    q = p ** n
    return Fraction(2 * (q - 1) * beta + 2 * (q - 1) * alpha_tilde + 2 * n + 2, q)


def count_ops(bank: WaveletFilterBank, shape, levels: int) -> OpCount:
    """Count the multiplies of a decompose+reconstruct and compare with the model.

    The count is structural and runs no transform: level by level, it sums
    the multiplies per output sample of each step (one per tap plus the
    normalization, as the module docstring counts them) times the samples the
    step produces, over the float64 tap tables the fast steps loop over
    (:meth:`pcswave.plan.LevelPlan.mults`). The closed form is computed
    separately from the 1-D generators, and the two must agree exactly.
    """
    plan = LevelPlan(bank.sys, bank.g1d, bank.h1d)
    shape = tuple(int(s) for s in shape)
    _check_shape(shape, bank, levels)
    p, n = bank.p, bank.n
    q = p ** n

    alpha = bank.g1d.support_size
    beta = bank.h1d.support_size
    alpha_tilde = sum(1 for (m,) in bank.g1d.mask.num if m % p)
    constant = pcs_complexity_constant(alpha_tilde, beta, p, n)

    size = 1
    for s in shape:
        size *= s
    predicted = sum((constant * Fraction(size, q ** j) for j in range(levels)),
                    Fraction(0))

    mults = sum(plan.mults(size // q ** j) for j in range(1, levels + 1))

    return OpCount(multiplicative_ops=mults, predicted=predicted,
                   alpha=alpha, beta=beta, alpha_tilde=alpha_tilde,
                   pcs_constant=constant,
                   tensor_model=Fraction((alpha + beta) * n),
                   data_points=size, levels=levels)
