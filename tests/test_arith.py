import math
import random
from fractions import Fraction

import pytest

from pcswave.arith import format_rational, integer_form, is_prime, split_rational
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


def test_integer_form_cases():
    # unreduced pairs, as a file may write them, come out in lowest terms
    assert integer_form([(2, 4), (6, 8)]) == ([2, 3], 4)
    assert integer_form([(3, 9), (6, 9)]) == ([1, 2], 3)
    assert integer_form([(-1, 6), (1, 3)]) == ([-1, 2], 6)
    assert integer_form([(5, 1), (-7, 1)]) == ([5, -7], 1)
    assert integer_form([(4, 2), (0, 3)]) == ([2, 0], 1)
    assert integer_form([]) == ([], 1)


def test_integer_form_agrees_with_fraction_sums():
    rng = random.Random(29)
    for _ in range(200):
        pairs = [(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 4))
                 for _ in range(rng.randint(1, 8))]
        nums, den = integer_form(pairs)
        want = [Fraction(n, d) for n, d in pairs]
        assert [Fraction(v, den) for v in nums] == want
        assert den == math.lcm(*(w.denominator for w in want))
        assert sum(Fraction(v, den) for v in nums) == sum(want)


def test_integer_form_bound():
    # 4096 bits pass, 4097 do not, for the denominator and for a numerator
    assert integer_form([(1, 2 ** 4095)], 4096) == ([1], 2 ** 4095)
    assert integer_form([(2 ** 4096 - 1, 1)], 4096) == ([2 ** 4096 - 1], 1)
    for pairs in ([(1, 2 ** 4096)], [(-2 ** 4096, 1)], [(1, 3), (1, 2 ** 4095)]):
        with pytest.raises(DomainError, match="more than 4096 bits"):
            integer_form(pairs, 4096)
    # the bound holds for the pairs over their lcm, before any gcd
    with pytest.raises(DomainError):
        integer_form([(2 ** 4096, 2 ** 4096)], 4096)
