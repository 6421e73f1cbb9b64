import itertools
from fractions import Fraction

import pytest

from pcswave.cosetsum import prime_coset_sum
from pcswave.errors import DimensionMismatch, NotLowpass
from pcswave.filters import diagnostics, filter_1d, is_interpolatory
from pcswave.lattice import make_coset_system
from pcswave.presets import box_filter_1d, interp_deg4_filter_1d

from conftest import (coset_sum_mask_eval, mask_eval, random_interpolatory_1d,
                      random_lowpass_1d, zeta_sum)


def test_box_lift_is_all_ones():
    sys = make_coset_system(3, 2, "centered")
    h = prime_coset_sum(box_filter_1d(3), sys)
    expected = {(a, b): Fraction(1) for a in (-1, 0, 1) for b in (-1, 0, 1)}
    assert h.taps == expected


def test_interpolatory_input_keeps_unit_center(rng):
    sys = make_coset_system(3, 2, "centered")
    for _ in range(5):
        h = prime_coset_sum(random_interpolatory_1d(rng, 3), sys)
        assert h.taps[(0, 0)] == 1


def test_deg4_lift_center_row_and_corners():
    sys = make_coset_system(3, 2, "centered")
    H = interp_deg4_filter_1d()
    h = prime_coset_sum(H, sys)
    for k, v in H.taps.items():
        assert h.taps.get((k, 0), Fraction(0)) == v
    assert h.taps[(5, 5)] == Fraction(-4, 81)
    assert h.taps[(-5, 5)] == Fraction(-4, 81)
    assert h.taps[(5, -5)] == Fraction(-4, 81)
    assert h.taps[(-5, -5)] == Fraction(-4, 81)
    assert h.support_size == 33


def test_not_lowpass_rejected():
    sys = make_coset_system(3, 2, "centered")
    with pytest.raises(NotLowpass):
        prime_coset_sum(filter_1d(3, {0: 1, 1: 1}), sys)


def test_dimension_mismatch_rejected():
    sys = make_coset_system(3, 2, "centered")
    with pytest.raises(DimensionMismatch):
        prime_coset_sum(box_filter_1d(5), sys)


def test_mask_eval_at_zero_is_one():
    sys = make_coset_system(3, 2, "centered")
    assert coset_sum_mask_eval(box_filter_1d(3), 2, sys, (0, 0)) == zeta_sum(3, [(0, 1)])


def test_mask_eval_box_vanishes_off_zero():
    sys = make_coset_system(3, 2, "centered")
    for g in itertools.product(range(3), repeat=2):
        if any(g):
            assert not any(coset_sum_mask_eval(box_filter_1d(3), 2, sys, g))


def test_mask_routes_agree(rng):
    sys = make_coset_system(3, 2, "centered")
    for _ in range(6):
        H = random_lowpass_1d(rng, 3)
        h = prime_coset_sum(H, sys)
        for g in itertools.product(range(3), repeat=2):
            assert coset_sum_mask_eval(H, 2, sys, g) == mask_eval(h, g)


def test_dyadic_case_matches_original_formula(rng):
    # for p=2 the lift is (1/2^(n-1)) (1 - 2^(n-1) + sum_nu R(w.nu)); evaluate
    # that expression independently and compare at every lattice frequency
    n = 3
    sys = make_coset_system(2, n, "standard")
    for _ in range(5):
        H = random_lowpass_1d(rng, 2)
        for g in itertools.product(range(2), repeat=n):
            scale = Fraction(1, 2 ** (n - 1))
            direct = [(0, (1 - 2 ** (n - 1)) * scale)]
            for nu in sys.gamma_prime:
                m = sum(a * b for a, b in zip(g, nu))
                direct += [(k * m, v / 2 * scale) for k, v in H.taps.items()]
            assert coset_sum_mask_eval(H, n, sys, g) == zeta_sum(2, direct)


@pytest.mark.parametrize("p,n,convention", [(2, 2, "standard"), (3, 2, "centered"),
                                            (3, 2, "standard"), (5, 2, "centered")])
def test_interpolatory_preservation(rng, p, n, convention):
    sys = make_coset_system(p, n, convention)
    for _ in range(8):
        H = random_interpolatory_1d(rng, p)
        assert is_interpolatory(H.to_nd())
        assert is_interpolatory(prime_coset_sum(H, sys))


def test_accuracy_and_flatness_bounds(rng):
    sys = make_coset_system(3, 2, "centered")
    for _ in range(10):
        H = random_lowpass_1d(rng, 3)
        d1 = diagnostics(H.to_nd(), max_order=6)
        d2 = diagnostics(prime_coset_sum(H, sys), max_order=6)
        assert d2.accuracy >= min(d1.accuracy, d1.flatness)
        assert d2.flatness >= d1.flatness


def test_support_bound(rng):
    # every nonzero tap of h lies on a ray l * nu with l a nonzero tap of H;
    # when H(0) != 0 this is the 1 + (|supp H| - 1)(p^n - 1) bound
    sys = make_coset_system(3, 2, "centered")
    for _ in range(10):
        H = random_lowpass_1d(rng, 3)
        h = prime_coset_sum(H, sys)
        off_center = sum(1 for k in H.taps if k != 0)
        assert h.support_size <= 1 + off_center * (3 ** 2 - 1)
        if 0 in H.taps:
            assert h.support_size <= 1 + (H.support_size - 1) * (3 ** 2 - 1)


def test_ray_collision_accumulates():
    # taps at 1 and 2 both reach k = (2,2): via l=2, nu=(1,1) and l=1, nu=(2,2)
    sys = make_coset_system(3, 2, "standard")
    H = filter_1d(3, {0: 1, 1: 1, 2: 1})
    h = prime_coset_sum(H, sys)
    assert h.taps[(2, 2)] == Fraction(1, 2) * (H.taps[1] + H.taps[2])
