from fractions import Fraction

import pytest

from pcswave.arith import format_rational, is_prime, split_rational
from pcswave.errors import DomainError

from conftest import zeta_sum


def test_is_prime_small():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-3)


# the zeta_sum form the mask oracles of the tests compare

def test_root_power_is_one():
    assert zeta_sum(3, [(3, 1)]) == zeta_sum(3, [(0, 1)])


def test_roots_sum_to_zero():
    assert not any(zeta_sum(3, [(1, 1), (0, 1), (2, 1)]))


def test_is_zero_cases():
    p = 5
    assert not any(zeta_sum(p, [(j, 1) for j in range(p)]))
    assert any(zeta_sum(3, [(1, 1), (2, -1)]))
    assert not any(zeta_sum(3, [(1, Fraction(1, 3)), (0, Fraction(1, 3)), (2, Fraction(1, 3))]))


def test_canonicalization_idempotent():
    a = zeta_sum(3, enumerate([5, 7, 2]))          # non-canonical input
    assert zeta_sum(3, enumerate(a)) == a
    assert a[-1] == 0


def test_rational_text_form():
    assert format_rational(3, 4) == "3/4"
    assert format_rational(5, 1) == "5"
    assert format_rational(-60, 81) == "-20/27"
    assert split_rational("3/4") == (3, 4)
    assert split_rational("7") == (7, 1)
    with pytest.raises(DomainError):
        split_rational("x/y")
    with pytest.raises(DomainError):
        split_rational("1/0")
