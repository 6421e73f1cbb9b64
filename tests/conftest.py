import functools
import itertools
import random
from fractions import Fraction
from math import lcm
from operator import add, mul

import pytest

from pcswave.errors import DimensionMismatch
from pcswave.filterbank import VerificationReport, build_pcs_bank
from pcswave.filters import Filter1D, filter_1d
from pcswave.polyphase import LaurentPoly, PolyphaseMatrix
from pcswave.presets import interp_filter_1d

# (p, r, n) of the interpolatory banks the guarantee is checked on; p = 5 with
# n = 3 is left out, since its report alone takes seconds
INTERP_BANKS = [(2, 2, 3), (2, 3, 2), (3, 2, 2), (3, 2, 3), (3, 3, 2), (5, 2, 2),
                (7, 2, 2), (11, 2, 1), (13, 2, 1)]


@functools.cache
def interp_bank(p: int, r: int, n: int):
    """The bank with G = H = the order-r interpolatory filter, centered for an
    odd p. It is built once per session, since the p=7 n=2 one takes about half
    a second, so callers must not change it."""
    centered = p % 2 == 1
    H = interp_filter_1d(p, r, centered)
    return build_pcs_bank(H, H, n, "centered" if centered else "standard")


def random_lowpass_1d(rng: random.Random, p: int, max_taps: int = 5) -> Filter1D:
    """Random rational lowpass filter: tap sum forced to p."""
    while True:
        positions = rng.sample(range(-6, 7), k=rng.randint(2, max_taps))
        taps = {k: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for k in positions}
        taps = {k: v for k, v in taps.items() if v}
        if len(taps) < 2:
            continue
        k0 = sorted(taps)[0]
        rest = sum(v for k, v in taps.items() if k != k0)
        taps[k0] = p - rest
        if taps[k0]:
            return filter_1d(p, taps)


def random_interpolatory_1d(rng: random.Random, p: int, max_taps: int = 5) -> Filter1D:
    """Random rational interpolatory lowpass filter: H(0)=1, support off pZ, sum p."""
    while True:
        pool = [k for k in range(-8, 9) if k % p]
        positions = rng.sample(pool, k=rng.randint(1, max_taps))
        taps = {k: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for k in positions}
        taps = {k: v for k, v in taps.items() if v}
        if not taps:
            continue
        total = sum(taps.values())
        if not total:
            continue
        scale = Fraction(p - 1) / total
        taps = {k: v * scale for k, v in taps.items()}
        taps[0] = Fraction(1)
        return filter_1d(p, taps)


def zeta_sum(p, terms):
    """The sum of c * zeta_p^e over (e, c) in terms, an element of Q(zeta_p).

    It is held as its coordinates on 1, zeta_p, ..., zeta_p^(p-1) minus the
    last one. 1 + zeta_p + ... + zeta_p^(p-1) = 0 is their only relation, so
    the form is unique, and it is all zero exactly when the sum is 0.
    """
    coords = [Fraction(0)] * p
    for e, c in terms:
        coords[e % p] += c
    return tuple(c - coords[-1] for c in coords)


def mask_eval(f, g):
    """The mask of f at the lattice frequency (2*pi/p) * g, as a zeta_sum."""
    den = f.mask.den
    return zeta_sum(f.p, [(sum(map(mul, k, g)), Fraction(v, den))
                          for k, v in f.mask.num.items()])


def coset_sum_mask_eval(H, n, sys, g):
    """The mask of prime_coset_sum(H, sys) at (2*pi/p) * g, from H's mask alone."""
    p, den = sys.p, H.mask.den
    scale = Fraction(1, (p - 1) * p ** (n - 1))
    terms = [(0, (1 - p ** (n - 1)) * scale)]
    for nu in sys.gamma_prime:
        m = sum(map(mul, g, nu))
        terms += [(k * m, Fraction(v, den) * scale) for (k,), v in H.mask.num.items()]
    return zeta_sum(p, terms)


# far taps m of far_tap_1d, one in each nonzero class mod 3
FAR_TAPS = (30000001, -30000001, 2 ** 70)


def far_tap_1d(m=FAR_TAPS[0]):
    """The p = 3 generator {0: 1, 2: 1, m: 1}, lowpass and, for m off 3Z, interpolatory.

    Its tap m lies far beyond the extent of any grid the tests transform.
    """
    return filter_1d(3, {0: 1, 2: 1, m: 1})


def prime_taps_doc(count=4000, dim=1):
    """A p = 3 filter document of count taps "1/r", one per prime r from 10007 up,
    at (0, ..., 0, i) for i = 0, 1, ...: the lcm of its denominators has about
    14 count bits, which the parser refuses (filters.MAX_FORM_BITS)."""
    sieve = bytearray([1]) * 60000
    for d in range(2, 245):
        sieve[d * d::d] = bytes(len(sieve[d * d::d]))
    primes = [r for r in range(10007, len(sieve)) if sieve[r]][:count]
    assert len(primes) == count
    return {"p": 3, "dim": dim,
            "taps": [{"k": [0] * (dim - 1) + [i], "v": f"1/{r}"} for i, r in enumerate(primes)]}


def reconstruct_direct(c, bank):
    """The inverse of transform.decompose_direct: upsample each subband, filter, and sum.

    y(x) = sum over synthesis filters f and subband samples s_f(j) of
    f(t) s_f(j) scattered to x = pj + t, periodic in every axis. It is the
    exact inverse of the direct analysis whenever the bank satisfies the
    combined biorthogonality identity.
    """
    from pcswave.tensor import Tensor
    p = bank.p
    cur, oshape = c.coarse.values(), c.coarse.shape
    for dets in c.details:
        shape = tuple(s * p for s in oshape)
        out = dict.fromkeys(itertools.product(*map(range, shape)), 0)
        pairs = [(bank.tau_d, cur)] + [
            (bank.t_d[nu], t.values()) for nu, t in zip(bank.sys.gamma_prime, dets, strict=True)]
        for f, sub in pairs:
            taps = sorted(f.taps.items())
            for k in itertools.product(*map(range, oshape)):
                for t, v in taps:
                    x = tuple((p * a + b) % s for a, b, s in zip(k, t, shape))
                    out[x] = out[x] + v * sub[k]
        cur, oshape = out, shape
    return Tensor(oshape, c.mode, list(cur.values()))


def _integer_entries(m):
    """m over one common denominator D: (D, term lists of D * entry)."""
    den = lcm(*(e.den for row in m.entries for e in row))
    return den, [[[(k, v * (den // e.den)) for k, v in e.num.items()] for e in row]
                 for row in m.entries]


def matmul(left, right):
    """The exact product of two polyphase matrices, over one common denominator each."""
    if left.cols != right.rows:
        raise DimensionMismatch(f"cannot multiply {left.rows}x{left.cols} by {right.rows}x{right.cols}")
    n = left.entries[0][0].n if left.rows and left.cols else 1
    zero = (0,) * n
    dl, a = _integer_entries(left)
    dr, b = _integer_entries(right)
    acc = [[dict() for _ in range(right.cols)] for _ in range(left.rows)]
    for k in range(left.cols):
        col = [(i, a[i][k]) for i in range(left.rows) if a[i][k]]
        row = [(j, b[k][j]) for j in range(right.cols) if b[k][j]]
        for i, ta in col:
            acc_i = acc[i]
            for j, tb in row:
                dst = acc_i[j]
                get = dst.get
                for kb, vb in tb:
                    if kb == zero:  # the constant terms, such as all of A's diagonal
                        for ka, va in ta:
                            dst[ka] = get(ka, 0) + va * vb
                        continue
                    for ka, va in ta:
                        kk = tuple(map(add, ka, kb))
                        dst[kk] = get(kk, 0) + va * vb
    den = dl * dr
    entries = [[LaurentPoly.from_integers(n, acc[i][j], den) for j in range(right.cols)]
               for i in range(left.rows)]
    return PolyphaseMatrix(rows=left.rows, cols=right.cols, entries=entries)


def identity_residuals(m, q):
    """Entries of m - (1/q) I that are nonzero, with their residual polynomials."""
    if m.rows != m.cols:
        raise DimensionMismatch("identity residual needs a square matrix")
    bad = []
    for i, row in enumerate(m.entries):
        for j, e in enumerate(row):
            if i != j:
                if e.num:
                    bad.append((i, j, e))
            elif e.den != q or e.num != {(0,) * e.n: 1}:
                bad.append((i, j, e - Fraction(1, q)))
    return bad


def verify_polyphase_matrices(A, S, q):
    """The oracle of filterbank.verify_combined_biorthogonality: S A = (1/q) I
    decided entry by entry on the bank's polyphase matrices (A, S)."""
    bad = identity_residuals(matmul(S, A), q)
    return VerificationReport(passed=not bad, q=q, failures=bad)


def zero_count(reps, p, g):
    """#{nu in reps : g . nu == 0 (mod p)}."""
    return sum(1 for nu in reps if sum(map(mul, g, nu)) % p == 0)


@pytest.fixture
def rng():
    return random.Random(20260809)


@pytest.fixture(autouse=True)
def cache_home(tmp_path_factory, monkeypatch):
    """An empty cache directory of the test's own, so that no test reads or writes
    the user's checked-bank markers; subprocesses inherit it."""
    path = tmp_path_factory.mktemp("cache")
    monkeypatch.setenv("XDG_CACHE_HOME", str(path))
    return path
