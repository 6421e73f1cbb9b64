from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcswave.arith import Cyclotomic, format_rational, is_prime, parse_rational
from pcswave.errors import CompositeDilation, DomainError

PRIMES = [2, 3, 5, 7]


def rationals():
    return st.fractions(min_value=-10, max_value=10, max_denominator=12)


def cyclotomics(p):
    return st.lists(rationals(), min_size=p, max_size=p).map(lambda cs: Cyclotomic(p, cs))


def test_is_prime_small():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-3)


def test_root_power_is_one():
    assert Cyclotomic.root(3, 3) == 1


def test_roots_sum_to_zero():
    s = Cyclotomic.root(3, 1) + Cyclotomic.root(3, 0) + Cyclotomic.root(3, 2)
    assert s.is_zero()


def test_root_exponent_addition():
    assert Cyclotomic.root(5, 2) * Cyclotomic.root(5, 4) == Cyclotomic.root(5, 1)


def test_mul_identity():
    b = Cyclotomic(7, [1, 2, Fraction(1, 3), 0, 0, -1, 4])
    assert Cyclotomic.one(7) * b == b


def test_mul_roots():
    z = Cyclotomic.root(3, 1)
    assert z * z == Cyclotomic.root(3, 2)


def test_mul_expansion_by_hand():
    # (1 + z)(1 + z^2) = 1 + z + z^2 + z^3 = 0 + 1 = 1 for p = 3
    a = Cyclotomic.one(3) + Cyclotomic.root(3, 1)
    b = Cyclotomic.one(3) + Cyclotomic.root(3, 2)
    assert a * b == 1


def test_is_zero_cases():
    p = 5
    total = Cyclotomic.zero(p)
    for j in range(p):
        total = total + Cyclotomic.root(p, j)
    assert total.is_zero()
    assert not (Cyclotomic.root(3, 1) - Cyclotomic.root(3, 2)).is_zero()
    scaled = (Cyclotomic.root(3, 1) + 1 + Cyclotomic.root(3, 2)) * Fraction(1, 3)
    assert scaled.is_zero()


def test_nonprime_order_rejected():
    with pytest.raises(CompositeDilation):
        Cyclotomic.root(4, 1)
    with pytest.raises(CompositeDilation):
        Cyclotomic(6, [0] * 6)


def test_mixed_orders_rejected():
    with pytest.raises(DomainError):
        Cyclotomic.root(3, 1) + Cyclotomic.root(5, 1)
    with pytest.raises(DomainError):
        Cyclotomic.root(3, 1) * Cyclotomic.root(5, 1)


def test_canonicalization_idempotent():
    a = Cyclotomic(3, [5, 7, 2])          # non-canonical input
    again = Cyclotomic(3, a.coeffs)
    assert a.coeffs == again.coeffs
    assert a.coeffs[-1] == 0


@pytest.mark.parametrize("p", PRIMES)
def test_root_pth_power_and_full_product(p):
    for e in range(p):
        assert Cyclotomic.root(p, e) ** p == 1
    prod = Cyclotomic.one(p)
    for e in range(p):
        prod = prod * Cyclotomic.root(p, e)
    assert prod == (-1 if p == 2 else 1)


@pytest.mark.parametrize("p", [2, 3, 5])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_field_axioms(p, data):
    a = data.draw(cyclotomics(p))
    b = data.draw(cyclotomics(p))
    c = data.draw(cyclotomics(p))
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert a + (-a) == Cyclotomic.zero(p)


def test_rational_text_form():
    assert format_rational(3, 4) == "3/4"
    assert format_rational(5, 1) == "5"
    assert format_rational(-60, 81) == "-20/27"
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("7") == 7
    with pytest.raises(DomainError):
        parse_rational("x/y")
    with pytest.raises(DomainError):
        parse_rational("1/0")
