import itertools

import pytest

from pcswave.errors import CompositeDilation, DomainError, InvalidConvention
from pcswave.lattice import eta, make_coset_system

from conftest import zero_count


def test_standard_system_p3_n2():
    sys = make_coset_system(3, 2, "standard")
    assert len(sys.gamma) == 9
    assert set(sys.gamma) == set(itertools.product(range(3), repeat=2))
    assert sys.gamma[0] == (0, 0)


def test_centered_system_p3_n2():
    sys = make_coset_system(3, 2, "centered")
    assert set(sys.gamma) == set(itertools.product((-1, 0, 1), repeat=2))
    assert sys.gamma[0] == (0, 0)


def test_composite_dilation_rejected():
    with pytest.raises(CompositeDilation):
        make_coset_system(4, 2, "standard")


def test_centered_needs_odd_p():
    with pytest.raises(InvalidConvention):
        make_coset_system(2, 2, "centered")
    with pytest.raises(InvalidConvention):
        make_coset_system(3, 2, "diagonal")


def test_eta_worked_examples():
    sys = make_coset_system(3, 2, "standard")
    assert eta(sys, 2, (1, 1)) == (2, 2)
    assert eta(sys, 2, (2, 2)) == (1, 1)
    for nu in sys.gamma_prime:
        assert eta(sys, 1, nu) == nu


def test_eta_domain_checks():
    sys = make_coset_system(3, 2, "standard")
    with pytest.raises(DomainError):
        eta(sys, 0, (1, 1))
    with pytest.raises(DomainError):
        eta(sys, 3, (1, 1))
    with pytest.raises(DomainError):
        eta(sys, 1, (0, 0))
    with pytest.raises(DomainError):
        eta(sys, 1, (4, 1))  # not a stored representative
    for nu in [(1,), (1, 1, 0)]:  # one coordinate too short, one too long
        with pytest.raises(DomainError):
            eta(sys, 1, nu)


@pytest.mark.parametrize("p,n", [(2, 1), (2, 3), (3, 2), (5, 2), (7, 1)])
def test_eta_is_bijection_with_inverse(p, n):
    sys = make_coset_system(p, n, "standard")
    for l in range(1, p):
        image = [eta(sys, l, nu) for nu in sys.gamma_prime]
        assert sorted(image) == sorted(sys.gamma_prime)
        rho = pow(l, -1, p)  # the inverse of l modulo p, in F_p'
        assert 1 <= rho < p and (l * rho) % p == 1
        for nu in sys.gamma_prime:
            assert eta(sys, l, eta(sys, rho, nu)) == nu
            # the congruence that makes the fast steps' division by p exact
            e = eta(sys, l, nu)
            assert all((e_i * l - nu_i) % p == 0 for e_i, nu_i in zip(e, nu))


def test_count_example_p3():
    sys = make_coset_system(3, 2, "standard")
    # independent enumeration of {nu : (1,1).nu == 0 mod 3}
    members = [nu for nu in itertools.product(range(3), repeat=2)
               if (nu[0] + nu[1]) % 3 == 0]
    assert sorted(members) == [(0, 0), (1, 2), (2, 1)]
    assert zero_count(sys.gamma, 3, (1, 1)) == len(members) == 3


def test_count_p2_n3():
    sys = make_coset_system(2, 3, "standard")
    for g in itertools.product(range(2), repeat=3):
        if any(g):
            assert zero_count(sys.gamma, 2, g) == 4


def test_count_fails_for_modulus_four():
    reps = [(r,) for r in range(4)]
    assert [zero_count(reps, 4, (g,)) for g in (1, 2, 3)] == [1, 2, 1]


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("convention", ["standard", "centered"])
def test_count_is_p_power_for_primes(p, n, convention):
    if convention == "centered" and p == 2:
        pytest.skip("no centered representatives for p=2")
    sys = make_coset_system(p, n, convention)
    for g in itertools.product(range(p), repeat=n):
        if any(g):
            assert zero_count(sys.gamma, p, g) == p ** (n - 1)
    # a position is read from the residues alone: p * k shifts keep it
    for i, nu in enumerate(sys.gamma):
        assert sys.index_of(nu) == i
        for k in (-2, -1, 1, 3):
            assert sys.index_of([x + p * k * (j + 1) for j, x in enumerate(nu)]) == i


def test_conventions_agree_through_residues():
    std = make_coset_system(5, 2, "standard")
    cen = make_coset_system(5, 2, "centered")
    mapped = {tuple(x % 5 for x in nu) for nu in cen.gamma}
    assert mapped == set(std.gamma)
    for nu in cen.gamma:
        assert cen.rep(nu) == nu
        assert std.rep(nu) == tuple(x % 5 for x in nu)
