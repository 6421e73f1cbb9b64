import itertools
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcswave.cosetsum import prime_coset_sum
from pcswave.errors import DomainError
from pcswave.filterbank import bank_polyphase_matrices, build_general
from pcswave.filters import FilterND, diagnostics, filter_nd
from pcswave.lattice import make_coset_system
from pcswave.polyphase import LaurentPoly, PolyphaseMatrix, eta_sum, polyphase_decompose
from pcswave.presets import box_filter_1d, interp_deg4_filter_1d

from conftest import (identity_residuals, matmul, random_interpolatory_1d, random_lowpass_1d,
                      verify_polyphase_matrices, zeta_sum)


def coset_sum_polyphase(H, sys, nu):
    """The synthesis component nu of H's lift, with w -> p w, built from H alone."""
    return eta_sum(H, sys, nu).conj() * Fraction(1, sys.q)


def test_laurent_ring_basics():
    x = LaurentPoly.monomial((1, 0))
    y = LaurentPoly.monomial((0, -2), Fraction(1, 3))
    assert (x + y) - y == x
    assert x * y == LaurentPoly.monomial((1, -2), Fraction(1, 3))
    assert (x + 1) * (x - 1) == x * x - 1
    assert x.conj() == LaurentPoly.monomial((-1, 0))
    assert x.stretch(3) == LaurentPoly.monomial((3, 0))
    assert LaurentPoly.zero(2).is_zero()
    assert (x - x).is_zero()


def laurent_polys(n=2):
    exps = st.tuples(*(st.integers(-4, 4) for _ in range(n)))
    coeffs = st.fractions(min_value=-8, max_value=8, max_denominator=9)
    return st.dictionaries(exps, coeffs, max_size=5).map(lambda t: LaurentPoly(n, t))


@settings(max_examples=40, deadline=None)
@given(a=laurent_polys(), b=laurent_polys(), c=laurent_polys())
def test_laurent_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a * b).conj() == a.conj() * b.conj()
    assert (a * b).stretch(3) == a.stretch(3) * b.stretch(3)
    assert a.conj().conj() == a
    assert a.stretch(1) == a


def _ref_combine(a, b, sign):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, Fraction(0)) + sign * v
    return {k: v for k, v in out.items() if v}


def _ref_mul(a, b):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            out[k] = out.get(k, Fraction(0)) + va * vb
    return {k: v for k, v in out.items() if v}


def _ref_rekey(a, f):
    out = {}
    for k, v in a.items():
        out[f(k)] = out.get(f(k), Fraction(0)) + v
    return {k: v for k, v in out.items() if v}


SPARSE = st.dictionaries(st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
                         st.fractions(min_value=-20, max_value=20, max_denominator=60),
                         max_size=6)
SCALARS = st.integers(-5, 5) | st.fractions(min_value=-5, max_value=5, max_denominator=12)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(a=SPARSE, b=SPARSE, s=SCALARS, factor=st.integers(-3, 3))
def test_integer_laurent_matches_fraction_reference(a, b, s, factor):
    # the reference is a plain exponent -> Fraction dict without zeros
    ra = {k: Fraction(v) for k, v in a.items() if v}
    rb = {k: Fraction(v) for k, v in b.items() if v}
    pa, pb = LaurentPoly(2, a), LaurentPoly(2, b)
    for poly in (pa, pb, pa * pb, pa - pb):
        assert poly.den > 0 and gcd(poly.den, *poly.num.values()) == 1
    assert dict(pa.terms) == ra
    assert dict((pa + pb).terms) == _ref_combine(ra, rb, 1)
    assert dict((pa - pb).terms) == _ref_combine(ra, rb, -1)
    assert dict((pa * pb).terms) == _ref_mul(ra, rb)
    scaled = {k: v * s for k, v in ra.items() if v * s}
    assert dict((pa * s).terms) == scaled and dict((s * pa).terms) == scaled
    assert dict((pa + s).terms) == _ref_combine(ra, {(0, 0): Fraction(s)}, 1)
    assert dict(pa.conj().terms) == _ref_rekey(ra, lambda k: (-k[0], -k[1]))
    assert dict(pa.stretch(factor).terms) == _ref_rekey(ra, lambda k: (factor * k[0],
                                                                       factor * k[1]))
    assert (pa == pb) == (ra == rb)
    # the same polynomial reached over other denominators is equal, hash included
    for same in ((pa + pb) - pb, (pa * 6) * Fraction(1, 6), LaurentPoly(2, ra)):
        assert same == pa and hash(same) == hash(pa)


FAR = 2 ** 70


@st.composite
def far_operands(draw):
    """Two term dicts in n = 1, 2 or 3 variables, either possibly empty, whose
    exponents sit near 0, +2^70 or -2^70."""
    n = draw(st.integers(1, 3))
    exps = st.tuples(*[st.sampled_from([-FAR, 0, FAR]).flatmap(
        lambda c: st.integers(c - 3, c + 3))] * n)
    coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=60)
    return n, draw(st.dictionaries(exps, coeffs, max_size=5)), \
        draw(st.dictionaries(exps, coeffs, max_size=5))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(far_operands())
def test_laurent_product_matches_fraction_reference_far_and_empty(case):
    # the one column-wise product, in 1 to 3 variables, at exponents past
    # 64 bits and with an empty operand on either side
    n, a, b = case
    ra = {k: v for k, v in a.items() if v}
    rb = {k: v for k, v in b.items() if v}
    pa, pb = LaurentPoly(n, a), LaurentPoly(n, b)
    for prod in (pa * pb, pb * pa):
        assert dict(prod.terms) == _ref_mul(ra, rb)
        assert prod.den > 0 and gcd(prod.den, *prod.num.values()) == 1
    assert (pa * LaurentPoly.zero(n)).is_zero() and (LaurentPoly.zero(n) * pb).is_zero()


def test_laurent_terms_are_read_only():
    poly = LaurentPoly.monomial((1, 0), Fraction(1, 3))
    with pytest.raises(TypeError):
        poly.terms[(0, 0)] = Fraction(1)
    assert poly.terms == {(1, 0): Fraction(1, 3)}


def test_mask_filter_roundtrip():
    f = prime_coset_sum(box_filter_1d(3), make_coset_system(3, 2, "centered"))
    assert FilterND(3, f.mask) == f
    # the frozen records: equal ones hash equal, and no field can be assigned
    same, one = FilterND(3, f.mask), box_filter_1d(3)
    sys, diag = make_coset_system(3, 2, "centered"), diagnostics(f)
    for a, b in [(same, f), (sys, make_coset_system(3, 2, "centered")),
                 (diag, diagnostics(same))]:
        assert a == b and hash(a) == hash(b)
    assert sys != make_coset_system(3, 2, "standard")
    # one (p, mask) pair as a 1-D filter and as an n-D filter: never equal
    assert one != one.to_nd() and one.to_nd() != one
    for record, field in [(f, "p"), (one, "mask"), (sys, "gamma"), (diag, "accuracy")]:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_zero_component_of_interpolatory_is_constant():
    sys = make_coset_system(3, 2, "centered")
    h = prime_coset_sum(interp_deg4_filter_1d(), sys)
    comps = polyphase_decompose(h, sys)
    assert comps[0] == LaurentPoly.const(2, Fraction(1, 9))


def test_recomposition_identity(rng):
    # sum_nu e^{-i w.nu} H_nu(p w) rebuilds the mask exactly
    sys = make_coset_system(3, 2, "centered")
    for _ in range(5):
        f = prime_coset_sum(random_lowpass_1d(rng, 3), sys)
        comps = polyphase_decompose(f, sys)
        acc = LaurentPoly.zero(2)
        for nu, comp in zip(sys.gamma, comps):
            acc = acc + LaurentPoly.monomial(nu) * comp.stretch(3)
        assert acc == f.mask


def test_box_1d_components_are_thirds():
    sys = make_coset_system(3, 1, "centered")
    comps = polyphase_decompose(box_filter_1d(3).to_nd(), sys)
    assert all(c == LaurentPoly.const(1, Fraction(1, 3)) for c in comps)


def test_analysis_components_conjugate_synthesis(rng):
    sys = make_coset_system(3, 2, "centered")
    f = prime_coset_sum(random_lowpass_1d(rng, 3), sys)
    # analysis component nu holds (1/q) f(x) at k = (nu - x) / p for each tap x
    # of coset nu: the synthesis component conjugated
    ana = [{} for _ in sys.gamma]
    for x, v in f.taps.items():
        nu = sys.gamma[sys.index_of(x)]
        ana[sys.index_of(x)][tuple((a - b) // 3 for a, b in zip(nu, x))] = v / 9
    assert [dict(c.conj().terms) for c in polyphase_decompose(f, sys)] == ana


@st.composite
def random_filters(draw):
    """A filter with random rational taps on [-9, 9]^n, far outside Gamma, and its system."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 3))
    convention = draw(st.sampled_from(["standard"] + (["centered"] if p % 2 else [])))
    keys = draw(st.lists(st.tuples(*[st.integers(-9, 9)] * n), min_size=1, max_size=12,
                         unique=True))
    taps = {k: Fraction(draw(st.integers(-9, 9).filter(bool)), draw(st.integers(1, 6)))
            for k in keys}
    return filter_nd(p, n, taps), make_coset_system(p, n, convention)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(random_filters())
def test_polyphase_decompose_matches_per_tap_definition(case):
    # tap x = nu + p k of coset nu lands in synthesis component nu at k and in
    # analysis component nu, its conjugate, at -k, with value f(x)/q
    f, sys = case
    syn = polyphase_decompose(f, sys)
    for sign, comps in ((1, syn), (-1, [c.conj() for c in syn])):
        want = [{} for _ in sys.gamma]
        for x, v in f.taps.items():
            i = sys.index_of(x)
            k = tuple(sign * (a - r) // sys.p for a, r in zip(x, sys.gamma[i]))
            want[i][k] = v / sys.q
        assert comps == [LaurentPoly(sys.n, w) for w in want]


def test_coset_sum_polyphase_box_explicit():
    sys = make_coset_system(3, 2, "centered")
    H = box_filter_1d(3)
    h = prime_coset_sum(H, sys)
    direct = polyphase_decompose(h, sys)
    nu = (1, 0)
    lhs = direct[sys.index_of(nu)].stretch(3)
    assert coset_sum_polyphase(H, sys, nu) == lhs


@pytest.mark.parametrize("p,n,convention", [(2, 2, "standard"), (2, 3, "standard"),
                                            (3, 2, "centered"), (3, 2, "standard"),
                                            (5, 1, "centered"), (2, 1, "standard"),
                                            (3, 3, "centered"), (5, 2, "standard"),
                                            (5, 3, "centered")])
def test_coset_sum_polyphase_identity_on_corpus(rng, p, n, convention):
    # the eta routing every construction uses, against the polyphase split of h
    sys = make_coset_system(p, n, convention)
    for _ in range(4):
        H = random_lowpass_1d(rng, p)
        h = prime_coset_sum(H, sys)
        direct = polyphase_decompose(h, sys)
        for i, nu in enumerate(sys.gamma):
            if i == 0:
                continue
            assert coset_sum_polyphase(H, sys, nu) == direct[i].stretch(p)


def test_coset_sum_polyphase_dyadic_single_term():
    sys = make_coset_system(2, 2, "standard")
    H = box_filter_1d(2, centered=False)
    poly = coset_sum_polyphase(H, sys, (1, 1))
    # only l=1 contributes; H has a single odd tap, so one term survives
    assert len(poly.terms) == 1


def test_coset_sum_polyphase_rejects_zero():
    sys = make_coset_system(3, 2, "centered")
    with pytest.raises(DomainError):
        coset_sum_polyphase(box_filter_1d(3), sys, (0, 0))


def test_coset_sum_polyphase_value_at_zero(rng):
    # substituting w=0 (summing all coefficients) must match the mask identity
    sys = make_coset_system(3, 2, "centered")
    for _ in range(4):
        H = random_interpolatory_1d(rng, 3)
        h = prime_coset_sum(H, sys)
        direct = polyphase_decompose(h, sys)
        for i, nu in enumerate(sys.gamma):
            if i == 0:
                continue
            got = sum(coset_sum_polyphase(H, sys, nu).terms.values(), Fraction(0))
            want = sum(direct[i].terms.values(), Fraction(0))
            assert got == want


def test_stretch_exponents_are_multiples():
    sys = make_coset_system(3, 2, "centered")
    f = prime_coset_sum(box_filter_1d(3), sys)
    for comp in polyphase_decompose(f, sys):
        for k in comp.stretch(3).terms:
            assert all(x % 3 == 0 for x in k)


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2)])
def test_character_sums(p, n):
    sys = make_coset_system(p, n, "standard")
    for g in itertools.product(range(p), repeat=n):
        s = zeta_sum(p, [(sum(a * b for a, b in zip(g, nu)), 1) for nu in sys.gamma])
        if any(x % p for x in g):
            assert not any(s)
        else:
            assert s == zeta_sum(p, [(0, p ** n)])
        # dual form over Gamma*: e^{i gamma.nu} = zeta^{-g.nu}, same enumeration
        for nu in sys.gamma:
            d = zeta_sum(p, [(-sum(a * b for a, b in zip(gg, nu)), 1)
                             for gg in itertools.product(range(p), repeat=n)])
            assert (d == zeta_sum(p, [(0, p ** n)])) if nu == sys.zero else not any(d)


def _box_pair(p, n):
    convention = "centered" if p % 2 else "standard"
    sys = make_coset_system(p, n, convention)
    H = box_filter_1d(p, centered=p % 2 == 1)
    h = prime_coset_sum(H, sys)
    return h, h, sys


def _bank_pair(g, h, sys):
    """(A, S) of the bank that completes (g, h)."""
    return bank_polyphase_matrices(build_general(g, h, sys))


def test_build_A_S_box_banks():
    for p, n in [(2, 2), (3, 2), (5, 1)]:
        g, h, sys = _box_pair(p, n)
        A, S = _bank_pair(g, h, sys)
        assert verify_polyphase_matrices(A, S, sys.q).passed


def _deg4_pair():
    sys = make_coset_system(3, 2, "centered")
    g = prime_coset_sum(box_filter_1d(3), sys)
    h = prime_coset_sum(interp_deg4_filter_1d(), sys)
    return g, h, sys


def test_build_A_S_deg4_pair():
    g, h, sys = _deg4_pair()
    A, S = _bank_pair(g, h, sys)
    assert verify_polyphase_matrices(A, S, sys.q).passed


def _random_pairs(rng):
    """Random (g, h) prime-coset-sum pairs over a few dilations, dimensions and conventions."""
    for p, n, convention in [(2, 3, "standard"), (3, 2, "standard"),
                             (3, 2, "centered"), (5, 2, "centered")]:
        sys = make_coset_system(p, n, convention)
        for _ in range(2):
            g = prime_coset_sum(random_lowpass_1d(rng, p), sys)
            h = prime_coset_sum(random_interpolatory_1d(rng, p), sys)
            yield g, h, sys


def test_build_A_S_random_pairs(rng):
    for g, h, sys in _random_pairs(rng):
        A, S = _bank_pair(g, h, sys)
        assert verify_polyphase_matrices(A, S, sys.q).passed


def test_A_factors_into_triangulars(rng):
    # A is the lifting product [[1, Ga'], [0, I]] x [[1, 0], [-q Sh', I]]: its
    # lower-right block is I, and A_00 = 1 + sum over j >= 1 of A_0j A_j0
    for g, h, sys in [_deg4_pair(), *_random_pairs(rng)]:
        a = _bank_pair(g, h, sys)[0].entries
        one, zero = LaurentPoly.const(sys.n, 1), LaurentPoly.zero(sys.n)
        for i in range(1, sys.q):
            for j in range(1, sys.q):
                assert a[i][j] == (one if i == j else zero)
        corner = one
        for j in range(1, sys.q):
            corner = corner + a[0][j] * a[j][0]
        assert a[0][0] == corner


def test_biorthogonal_pair_gives_zero_correction():
    g, h, sys = _box_pair(3, 2)
    A, _ = _bank_pair(g, h, sys)
    assert A.entries[0][0] == polyphase_decompose(g, sys)[0].conj()


def test_perturbed_pair_fails():
    g, h, sys = _deg4_pair()
    # moving 1/1000 between two taps keeps g lowpass
    taps = dict(g.taps)
    taps[(0, 1)] = taps[(0, 1)] - Fraction(1, 1000)
    taps[(1, 0)] = taps[(1, 0)] + Fraction(1, 1000)
    g_bad = filter_nd(3, 2, taps)
    A, S = _bank_pair(g, h, sys)
    A_bad, S_bad = _bank_pair(g_bad, h, sys)
    # S built for g must not invert the A of the perturbed g
    assert not verify_polyphase_matrices(A_bad, S, sys.q).passed
    assert verify_polyphase_matrices(A_bad, S_bad, sys.q).passed
    bad = identity_residuals(matmul(S, A_bad), sys.q)
    assert bad and all(not r.is_zero() for _, _, r in bad)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_matmul_matches_reference_product(data):
    # a term at the zero exponent adds the other factor's terms where they are;
    # the reference multiplies exponent -> Fraction dicts term by term
    n, rows, inner, cols = (data.draw(st.integers(1, 3)) for _ in range(4))
    coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=7)
    terms = st.dictionaries(st.tuples(*[st.integers(-2, 2)] * n), coeffs, max_size=4)
    if data.draw(st.booleans(), label="zero_terms"):
        terms = st.builds(lambda t, c: {**t, (0,) * n: c}, terms, coeffs.filter(bool))
    left = [[data.draw(terms) for _ in range(inner)] for _ in range(rows)]
    right = [[data.draw(terms) for _ in range(cols)] for _ in range(inner)]
    product = matmul(PolyphaseMatrix(rows, inner, [[LaurentPoly(n, t) for t in r] for r in left]),
                     PolyphaseMatrix(inner, cols, [[LaurentPoly(n, t) for t in r] for r in right]))
    assert (product.rows, product.cols) == (rows, cols)
    for i in range(rows):
        for j in range(cols):
            expected = {}
            for k in range(inner):
                expected = _ref_combine(expected, _ref_mul(left[i][k], right[k][j]), 1)
            assert dict(product.entries[i][j].terms) == expected
