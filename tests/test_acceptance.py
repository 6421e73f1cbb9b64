"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every assertion is exact (rational or cyclotomic) except the float64
round-trip bounds, whose tolerances are stated inline. Run with -s to see the
per-criterion lines.
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np

from pcswave.cosetsum import prime_coset_sum
from pcswave.filterbank import build_pcs_bank, verify_combined_biorthogonality
from pcswave.filters import diagnostics, filter_1d, is_biorthogonal
from pcswave.lattice import make_coset_system
from pcswave.polyphase import LaurentPoly
from pcswave.presets import (box_bank, box_filter_1d, deg4_bank,
                             interp_deg4_filter_1d)
from pcswave.tensor import Tensor
from pcswave.transform import (count_ops, decompose_direct, decompose_fast,
                               reconstruct_fast)

from conftest import (random_interpolatory_1d, random_lowpass_1d, reconstruct_direct,
                      zero_count)


def report(num, text):
    print(f"[acceptance] criterion {num:2d}: PASS - {text}")


def test_criterion_01_box_lift():
    H = box_filter_1d(3)
    sys = make_coset_system(3, 2, "centered")
    best = min(_timed(lambda: prime_coset_sum(H, sys)) for _ in range(5))
    h = prime_coset_sum(H, sys)
    expected = {(a, b): Fraction(1) for a in (-1, 0, 1) for b in (-1, 0, 1)}
    assert h.taps == expected
    assert best < 1e-3
    report(1, f"centered box lift is the 3x3 all-ones filter ({best * 1e6:.0f} us)")


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


# the 11x11 grid of the lifted accuracy-4 filter, row index -5..5, frozen
DEG4_GRID = """
-4/81    0    0     0     0 -4/81     0     0    0    0 -4/81
    0 -5/81   0     0     0 -5/81     0     0    0 -5/81    0
    0    0    0     0     0     0     0     0    0    0     0
    0    0    0 30/81     0 30/81     0 30/81    0    0     0
    0    0    0     0 60/81 60/81 60/81     0    0    0     0
-4/81 -5/81   0 30/81 60/81     1 60/81 30/81    0 -5/81 -4/81
    0    0    0     0 60/81 60/81 60/81     0    0    0     0
    0    0    0 30/81     0 30/81     0 30/81    0    0     0
    0    0    0     0     0     0     0     0    0    0     0
    0 -5/81   0     0     0 -5/81     0     0    0 -5/81    0
-4/81    0    0     0     0 -4/81     0     0    0    0 -4/81
"""


def test_criterion_02_deg4_lift_tap_for_tap():
    expected = {}
    rows = [r.split() for r in DEG4_GRID.strip().splitlines()]
    assert len(rows) == 11 and all(len(r) == 11 for r in rows)
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            v = Fraction(cell)
            if v:
                expected[(i - 5, j - 5)] = v
    sys = make_coset_system(3, 2, "centered")
    h = prime_coset_sum(interp_deg4_filter_1d(), sys)
    assert h.taps == expected
    report(2, f"accuracy-4 lift matches the 11x11 grid tap-for-tap "
              f"({len(expected)} nonzero taps, corners -4/81)")


def test_criterion_03_zero_count_law():
    t0 = time.perf_counter()
    checked = 0
    for p in (2, 3, 5, 7):
        for n in (1, 2, 3):
            sys = make_coset_system(p, n, "standard")
            for g in itertools.product(range(p), repeat=n):
                if any(g):
                    assert zero_count(sys.gamma, p, g) == p ** (n - 1)
                    checked += 1
    reps4 = [(r,) for r in range(4)]
    assert [zero_count(reps4, 4, (g,)) for g in (1, 2, 3)] == [1, 2, 1]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(3, f"zero-count p^(n-1) law on {checked} frequencies, modulus-4 "
              f"counterexample counts (1,2,1) ({elapsed:.2f} s)")


def test_criterion_04_biorthogonality_dichotomy():
    cen = prime_coset_sum(box_filter_1d(3), make_coset_system(3, 2, "centered"))
    std = prime_coset_sum(box_filter_1d(3, centered=False), make_coset_system(3, 2, "standard"))
    assert is_biorthogonal(cen, cen)
    assert not is_biorthogonal(std, std)
    report(4, "box-lift self-biorthogonality holds centered, fails on {0,1,2}^2")


def test_criterion_05_combined_biorthogonality():
    t0 = time.perf_counter()
    count = 0
    for p in (2, 3, 5):
        for n in (1, 2, 3):
            assert verify_combined_biorthogonality(box_bank(p, n)).passed
            count += 1
    assert verify_combined_biorthogonality(deg4_bank(2)).passed
    count += 1
    rng = random.Random(515151)
    cases = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2)]
    for i in range(20):
        p, n = cases[i % len(cases)]
        bank = build_pcs_bank(random_lowpass_1d(rng, p),
                              random_interpolatory_1d(rng, p), n,
                              "standard" if p == 2 else "centered")
        assert verify_combined_biorthogonality(bank).passed
        count += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(5, f"S.A = (1/q) I holds exactly for {count} banks ({elapsed:.1f} s)")


def test_criterion_06_diagnostics_match_expected_orders():
    b5 = deg4_bank(2)
    assert diagnostics(b5.tau, 6).accuracy == 1
    assert diagnostics(b5.tau_d, 6).accuracy == 4
    for nu in b5.sys.gamma_prime:
        dt = diagnostics(b5.t[nu], 6)
        assert dt.vanishing_moments == 4
        assert dt.support_size == 5
        assert diagnostics(b5.t_d[nu], 6).vanishing_moments == 1
    b4 = box_bank(3, 2)
    for nu in b4.sys.gamma_prime:
        assert diagnostics(b4.t[nu], 4).vanishing_moments == 1
        assert b4.t[nu].support_size == 2
        assert diagnostics(b4.t_d[nu], 4).vanishing_moments == 1
    report(6, "accuracy (1,4), vanishing moments (4,1), supports (5,2) as expected")


def test_criterion_07_preservation_properties():
    rng = random.Random(77)
    sys_cache = {}

    def lifted(H, n):
        key = (H.p, n)
        if key not in sys_cache:
            sys_cache[key] = make_coset_system(H.p, n, "standard")
        return prime_coset_sum(H, sys_cache[key])

    lowpass_checked = 0
    for i in range(100):
        p = (2, 3, 5)[i % 3]
        n = 2 if p == 5 else (2, 3)[i % 2]
        H = random_lowpass_1d(rng, p)
        d1 = diagnostics(H.to_nd(), max_order=5)
        h = lifted(H, n)
        d2 = diagnostics(h, max_order=5)
        assert d2.accuracy >= min(d1.accuracy, d1.flatness)
        assert d2.flatness >= d1.flatness
        lowpass_checked += 1
    interp_checked = 0
    for i in range(40):
        p = (2, 3, 5)[i % 3]
        H = random_interpolatory_1d(rng, p)
        from pcswave.filters import is_interpolatory
        assert is_interpolatory(lifted(H, 2))
        interp_checked += 1
    report(7, f"accuracy/flatness bounds on {lowpass_checked} random lowpass "
              f"filters, interpolatory preservation on {interp_checked}")


def test_criterion_08_fast_equals_direct_and_roundtrips():
    banks = {"box(3,2)": box_bank(3, 2), "deg4": deg4_bank(2)}
    for name, bank in banks.items():
        for i in range(9):
            for j in range(9):
                y = Tensor.impulse((9, 9), at=(i, j), mode="rational")
                cf = decompose_fast(y, bank, 1)
                cd = decompose_direct(y, bank, 1)
                assert cf.coarse == cd.coarse
                assert cf.details == cd.details
    rng = random.Random(99)
    for bank in banks.values():
        for levels in (1, 2):
            vals = [Fraction(rng.randint(-60, 60), rng.randint(1, 11))
                    for _ in range(81)]
            y = Tensor((9, 9), "rational", vals)
            assert reconstruct_fast(decompose_fast(y, bank, levels), bank) == y
            assert reconstruct_direct(decompose_direct(y, bank, levels), bank) == y
    nprng = np.random.default_rng(2026)
    data = nprng.standard_normal((81, 81))
    worst = 0.0
    for bank in banks.values():
        r = reconstruct_fast(decompose_fast(Tensor.from_numpy(data), bank, 2), bank)
        worst = max(worst, float(np.max(np.abs(r.data - data))))
    bound = 1e-12 * float(np.max(np.abs(data)))
    assert worst <= bound
    report(8, f"fast = direct on all 162 impulses, exact round trips, float64 "
              f"error {worst:.2e} <= {bound:.2e}")


def test_criterion_09_complexity_accounting():
    cases = {(2, 2): (4, 4), (3, 2): (9, 9), (3, 3): (3, 3, 3), (5, 2): (5, 5)}
    for (p, n), shape in cases.items():
        oc = count_ops(box_bank(p, n), shape, 1)
        assert oc.multiplicative_ops == oc.predicted
    for p in (2, 3, 5):
        oc = count_ops(box_bank(p, 2), (p, p), 1)
        assert oc.pcs_constant <= 4 * p - 1
    oc5 = count_ops(deg4_bank(2), (9, 9), 1)
    assert oc5.multiplicative_ops == oc5.predicted
    assert oc5.pcs_constant <= 21
    for alpha in range(2, 9):
        for beta in range(1, 9):
            for n in range(2, 6):
                assert alpha + 2 * beta + 2 <= (alpha + beta) * n
    report(9, "instrumented counts equal the closed form; constants <= 4p-1, "
              "<= 21; dyadic C_PCS <= C_TP on the whole grid")


def test_criterion_10_dyadic_reduction():
    H = box_filter_1d(2, centered=False)
    assert is_biorthogonal(H.to_nd(), H.to_nd())
    checked = 0
    for n in (2, 3):
        bank = build_pcs_bank(H, H, n, "standard")
        for nu in bank.sys.gamma_prime:
            cs = LaurentPoly.zero(n)   # e^{-i w.nu} conj(U(w.nu + pi)) as terms
            for K, v in H.taps.items():
                sign = -1 if K % 2 else 1
                cs = cs + LaurentPoly.monomial(tuple((1 - K) * x for x in nu),
                                               Fraction(sign * v, 2))
            assert bank.t[nu].mask * Fraction(1, 2) == cs
            checked += 1
    report(10, f"dyadic highpass masks equal the classical coset-sum masks "
               f"after dividing by 2 ({checked} cosets)")
