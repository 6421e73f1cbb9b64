import hashlib
import io
import math
import os
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcswave.dataio import write_coeffs, write_tensor
from pcswave.filters import filter_1d
from pcswave import kernels, lattice
from pcswave.errors import (DimensionMismatch, DomainError, PcswaveError, ShapeMismatch,
                            ShapeNotDivisible, WrongProvenance)
from pcswave.filterbank import (build_general, build_pcs_bank, pcs_bank_masks,
                                write_bank_json)
from pcswave.kernels import LevelKernels
from pcswave.lattice import eta_routes, make_coset_system
from pcswave.polyphase import eta_sum
from pcswave.presets import (box_bank, box_filter_1d, deg4_bank,
                             interp_deg4_filter_1d)
from pcswave.cosetsum import prime_coset_sum
from pcswave.tensor import MultiresCoeffs, Tensor
from pcswave.transform import (count_ops, decompose_direct, decompose_fast,
                               pcs_complexity_constant, reconstruct_fast)

from conftest import (FAR_TAPS, far_tap_1d, interp_bank, random_interpolatory_1d,
                      random_lowpass_1d, reconstruct_direct)


def rational_tensor(rng, shape):
    size = 1
    for s in shape:
        size *= s
    vals = [Fraction(rng.randint(-40, 40), rng.randint(1, 7)) for _ in range(size)]
    return Tensor(shape, "rational", vals)


def coeffs_equal(a, b):
    # list == compares the levels, and within them the tensors, entry by entry
    return a.coarse == b.coarse and a.details == b.details


def all_details(c):
    """Every detail tensor of c, level 0 first, each level in Gamma' order."""
    return [t for level in c.details for t in level]


def test_constant_signal_has_zero_details():
    bank = box_bank(3, 2)
    y = Tensor((9, 9), "rational", [Fraction(7, 3)] * 81)
    c = decompose_fast(y, bank, 1)
    for t in all_details(c):
        assert all(v == 0 for v in t.values().flat)
    assert all(v == Fraction(7, 3) for v in c.coarse.values().flat)
    assert coeffs_equal(c, decompose_direct(y, bank, 1))


@pytest.mark.parametrize("values", [np.full((9, 9), 0.5, dtype=object),
                                    np.arange(81, dtype=object).reshape(9, 9) - 40],
                         ids=["floats", "ints"])
def test_rational_object_array_becomes_fractions(values):
    # an object array of other numbers is converted like a list, not taken as it is
    y = Tensor((9, 9), "rational", values)
    assert all(type(v) is Fraction for v in y.values().flat)
    assert y == Tensor((9, 9), "rational", values.ravel().tolist())
    bank = box_bank(3, 2)
    fast = decompose_fast(y, bank, 1)
    assert all(type(v) is Fraction for v in fast.coarse.values().flat)
    assert coeffs_equal(fast, decompose_direct(y, bank, 1))


def test_rational_equality_is_by_value():
    half = Tensor((2,), "rational", [Fraction(2, 4), 3])
    assert half == Tensor((2,), "rational", [Fraction(1, 2), Fraction(6, 2)])
    assert Tensor((1,), "rational", [3]) == Tensor((1,), "rational", [Fraction(3)])
    assert half != Tensor((2,), "rational", [Fraction(1, 2), Fraction(7, 2)])
    assert half != Tensor((2,), "float64", [0.5, 3.0])


def test_rational_values_view_returns_the_given_values(rng):
    vals = [Fraction(rng.randint(-40, 40), rng.randint(1, 7)) for _ in range(12)] + [0, -5, 7]
    y = Tensor((3, 5), "rational", vals)
    view = y.values()
    assert view.shape == (3, 5)
    assert view.ravel().tolist() == vals
    assert all(type(v) is Fraction for v in view.flat)


@pytest.mark.parametrize("data,den", [
    (np.array([1, 0.5], dtype=object), 3),     # a float numerator
    (np.array([1, np.int64(2)], dtype=object), 3),
    (np.array([1, 2], dtype=object), 0),
    (np.array([1, 2], dtype=object), -3),
    ([1, 2], 3),                               # numerators must be an array
], ids=["float", "numpy_int", "den_0", "den_negative", "list"])
def test_rational_numerators_are_checked(data, den):
    with pytest.raises(DomainError):
        Tensor((2,), "rational", data, den)


def test_float64_tensor_has_no_denominator():
    with pytest.raises(DomainError):
        Tensor((2,), "float64", [0.5, 1.0], 2)


def test_two_level_exact_roundtrip_q27(rng):
    bank = box_bank(3, 3)
    y = rational_tensor(rng, (9, 9, 9))
    assert reconstruct_fast(decompose_fast(y, bank, 2), bank) == y


def test_impulse_fast_equals_direct():
    for bank in (box_bank(3, 2), deg4_bank(2)):
        y = Tensor.impulse((9, 9), at=(4, 7), mode="rational")
        assert coeffs_equal(decompose_fast(y, bank, 1), decompose_direct(y, bank, 1))


def test_origin_impulse_27x27_deg4():
    bank = deg4_bank(2)
    y = Tensor.impulse((27, 27), mode="rational")
    assert coeffs_equal(decompose_fast(y, bank, 1), decompose_direct(y, bank, 1))


def test_fast_roundtrip_exact_rational(rng):
    bank = box_bank(3, 2)
    y = rational_tensor(rng, (9, 9))
    c = decompose_fast(y, bank, 2)
    assert reconstruct_fast(c, bank) == y


def test_direct_roundtrip_exact_rational(rng):
    for bank in (box_bank(3, 2), deg4_bank(2)):
        y = rational_tensor(rng, (9, 9))
        c = decompose_direct(y, bank, 1)
        assert reconstruct_direct(c, bank) == y


def test_direct_roundtrip_general_provenance(rng):
    # the direct route works for banks without 1-D generators
    sys = make_coset_system(3, 2, "standard")
    g = prime_coset_sum(random_lowpass_1d(rng, 3), sys)
    h = prime_coset_sum(random_interpolatory_1d(rng, 3), sys)
    bank = build_general(g, h, sys)
    y = rational_tensor(rng, (9, 9))
    c = decompose_direct(y, bank, 1)
    assert reconstruct_direct(c, bank) == y
    with pytest.raises(WrongProvenance):
        decompose_fast(y, bank, 1)


# a valid bank whose stored generators break the fast algorithm's contract
BAD_GENERATORS = {
    "h_not_interpolatory": {"h1d": filter_1d(3, {-1: 1, 0: 1, 3: 1})},
    "h_all_taps_on_pZ": {"h1d": filter_1d(3, {0: 2, 3: 1})},
    "g_other_dilation": {"g1d": box_filter_1d(5)},
    "g_missing": {"g1d": None},
    # G and H agree, so only their fit to the bank's p refuses them
    "both_other_dilation": {"g1d": box_filter_1d(5), "h1d": box_filter_1d(5)},
}


@pytest.mark.parametrize("case", sorted(BAD_GENERATORS))
def test_plan_refuses_bad_generators(case):
    # the plan checks the generators, so no transform, count or kernel runs
    # on taps that are not those of the bank's filters
    bank = box_bank(3, 2)
    for name, value in BAD_GENERATORS[case].items():
        setattr(bank, name, value)
    y = Tensor.from_numpy(np.ones((9, 9)))
    with pytest.raises(PcswaveError):
        decompose_fast(y, bank, 1)
    c = decompose_fast(y, box_bank(3, 2), 1)
    with pytest.raises(PcswaveError):
        reconstruct_fast(c, bank)
    with pytest.raises(PcswaveError):
        count_ops(bank, (9, 9), 1)
    with pytest.raises(PcswaveError):
        LevelKernels(bank.sys, bank.g1d, bank.h1d)


def test_cross_route_roundtrips(rng):
    # the two routes compute the same linear maps, so they invert each other
    bank = deg4_bank(2)
    y = rational_tensor(rng, (9, 9))
    c = decompose_fast(y, bank, 1)
    assert reconstruct_direct(c, bank) == y
    assert reconstruct_fast(decompose_direct(y, bank, 1), bank) == y


def test_zero_detail_reconstruction_matches_direct():
    bank = box_bank(3, 2)
    c = decompose_fast(Tensor((9, 9), "rational",
                              [Fraction(1)] * 81), bank, 1)
    c.details = [[Tensor.zeros(t.shape, "rational") for t in level] for level in c.details]
    assert reconstruct_fast(c, bank) == reconstruct_direct(c, bank)


def test_lowpass_branch_keeps_constants():
    bank = box_bank(3, 2)
    y = Tensor((9, 9), "rational", [Fraction(5)] * 81)
    c = decompose_direct(y, bank, 2)
    assert all(v == 5 for v in c.coarse.values().flat)


def test_1d_and_3d_transforms(rng):
    b1 = box_bank(3, 1)
    y1 = rational_tensor(rng, (27,))
    assert reconstruct_fast(decompose_fast(y1, b1, 2), b1) == y1
    b3 = box_bank(3, 3)
    y3 = rational_tensor(rng, (9, 3, 3))
    c3 = decompose_fast(y3, b3, 1)
    assert coeffs_equal(c3, decompose_direct(y3, b3, 1))
    assert reconstruct_fast(c3, b3) == y3


def test_dyadic_transforms(rng):
    for n, shape in ((1, (16,)), (2, (8, 8)), (3, (4, 4, 4))):
        bank = box_bank(2, n)
        y = rational_tensor(rng, shape)
        c = decompose_fast(y, bank, 2)
        assert coeffs_equal(c, decompose_direct(y, bank, 2))
        assert reconstruct_fast(c, bank) == y


def test_nonsquare_shapes(rng):
    bank = deg4_bank(2)
    y = rational_tensor(rng, (3, 9))
    c = decompose_fast(y, bank, 1)
    assert coeffs_equal(c, decompose_direct(y, bank, 1))
    assert reconstruct_fast(c, bank) == y
    data = np.random.default_rng(8).standard_normal((9, 27))
    r = reconstruct_fast(decompose_fast(Tensor.from_numpy(data), bank, 1), bank)
    assert np.max(np.abs(r.data - data)) <= 1e-12 * np.max(np.abs(data))


def test_p7_bank_roundtrip(rng):
    bank = box_bank(7, 1)
    y = rational_tensor(rng, (49,))
    c = decompose_fast(y, bank, 2)
    assert coeffs_equal(c, decompose_direct(y, bank, 2))
    assert reconstruct_fast(c, bank) == y


@pytest.mark.parametrize("p, r, n, shape", [
    pytest.param(p, r, n, shape, id=f"p{p}-r{r}-n{n}") for p, r, n, shape in [
        (2, 2, 3, (8, 8, 8)), (2, 3, 2, (16, 16)), (3, 2, 2, (27, 27)), (3, 2, 3, (9, 9, 9)),
        (3, 3, 2, (27, 27)), (5, 2, 2, (25, 25)), (7, 2, 2, (49, 49))]])
def test_interp_bank_transforms(p, r, n, shape, rng):
    # the order-4 and order-6 banks of the guarantee have non-unit taps in
    # every phase: exact fast == direct, and both round trips, over two levels
    bank = interp_bank(p, r, n)
    y = rational_tensor(rng, shape)
    c = decompose_fast(y, bank, 2)
    assert coeffs_equal(c, decompose_direct(y, bank, 2))
    assert reconstruct_fast(c, bank) == y
    data = np.random.default_rng(0).integers(-50, 51, shape).astype(np.float64)
    back = reconstruct_fast(decompose_fast(Tensor.from_numpy(data), bank, 2), bank)
    assert np.max(np.abs(back.data - data)) <= 1e-12 * np.max(np.abs(data))


EXACT_VALUES = st.one_of(
    st.just(0), st.integers(-10 ** 6, 10 ** 6),
    st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6)))


@st.composite
def exact_transform_cases(draw, p, n):
    """A bank from random generators and a rational input of 1-2 levels' extent."""
    # two levels only where the direct oracle stays quick
    levels = draw(st.integers(1, 2 if p ** (2 * n) <= 81 else 1))
    convention = draw(st.sampled_from(["standard", "centered"] if p % 2 else ["standard"]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    bank = build_pcs_bank(random_lowpass_1d(rng, p), random_interpolatory_1d(rng, p),
                          n, convention)
    size = p ** (levels * n)
    if draw(st.booleans()):
        # plain Python ints in an object array, as a Tensor takes it
        data = np.array(draw(st.lists(st.integers(-10 ** 6, 10 ** 6),
                                      min_size=size, max_size=size)), dtype=object)
    else:
        data = draw(st.lists(EXACT_VALUES, min_size=size, max_size=size))
    return bank, Tensor((p ** levels,) * n, "rational", data), levels


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3),
                                 (5, 1), (5, 2), (7, 1), (7, 2)])
def test_exact_fast_equals_direct_on_random_banks(p, n):
    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(exact_transform_cases(p, n))
    def check(case):
        bank, y, levels = case
        c = decompose_fast(y, bank, levels)
        assert coeffs_equal(c, decompose_direct(y, bank, levels))
        back = reconstruct_fast(c, bank)
        assert back == y
        # Fractions of Python ints: a numpy integer inside would overflow silently
        for t in (c.coarse, back, *all_details(c)):
            assert all(type(v) is Fraction and type(v.numerator) is int
                       and type(v.denominator) is int for v in t.values().flat)

    check()


@pytest.mark.parametrize("m", FAR_TAPS)
def test_far_tap_fast_equals_direct_exactly(rng, m):
    # a tap offset of a whole period or more reads what its remainder reads
    bank = build_pcs_bank(far_tap_1d(m), far_tap_1d(-m), 2, "standard")
    y = rational_tensor(rng, (27, 27))
    c = decompose_fast(y, bank, 3)
    assert coeffs_equal(c, decompose_direct(y, bank, 3))
    assert reconstruct_fast(c, bank) == y


# per axis: none, negative, a whole extent, many periods (the far taps of
# FAR_TAPS that fit numpy's index type, and 10^7), and a mix of them
ROLL_SHAPES = {1: (7,), 2: (5, 4), 3: (5, 4, 3)}
ROLL_SHIFTS = {
    "zero": lambda shape: (0,) * len(shape),
    "negative": lambda shape: (-1, -6, -2)[:len(shape)],
    "extent": lambda shape: shape,
    "periods": lambda shape: (10 ** 7, FAR_TAPS[0], FAR_TAPS[1])[:len(shape)],
    "mixed": lambda shape: (-(10 ** 7) - 1, 0, shape[-1])[:len(shape)],
}


@pytest.mark.parametrize("n", sorted(ROLL_SHAPES))
@pytest.mark.parametrize("dtype", [np.float64, object])
@pytest.mark.parametrize("shift", sorted(ROLL_SHIFTS))
def test_roll_matches_np_roll(n, dtype, shift):
    # every tap of the fast steps is read through kernels._blocks: a roll by
    # shift, assembled over tiles of 1, 2 or all leading-axis rows, is np.roll
    shape = ROLL_SHAPES[n]
    shift = ROLL_SHIFTS[shift](shape)
    size = math.prod(shape)
    # a unit tap, as the tables of a box G hold it, is added without a multiply
    if dtype is object:
        a = np.array([10 ** 20 + 7 * i - size for i in range(size)], dtype=object).reshape(shape)
        taps = (-(3 ** 40), 1)
    else:
        a = np.random.default_rng(n).standard_normal(shape)
        taps = (0.3, 1.0)
    want = np.roll(a, shift, axis=tuple(range(n)))
    for step in (1, 2, shape[0]):
        got = np.empty_like(a)
        for r in range(0, shape[0], step):
            rows = slice(r, min(r + step, shape[0]))
            tile = got[rows]
            for dst, src in kernels._blocks(shape, shift, rows):
                tile[dst] = a[src]
        assert np.array_equal(got, want)
    tiles = kernels._Tiles(shape, a.dtype)
    (rows,) = tiles.rows
    zero = (0,) * n
    for v in taps:
        acc, tmp = tiles.scratch(), tiles.scratch()
        tiles.tap_sum(acc, tmp, a, [(shift, v)], rows)
        assert acc.dtype == a.dtype and np.array_equal(acc, v * want)
        # a sum in table order: the first term written, a unit tap added in place
        tiles.tap_sum(acc, tmp, a, [(zero, 1), (shift, v)], rows, start=False)
        assert np.array_equal(acc, v * want + a + v * want)
        if dtype is object:
            assert all(type(x) is int for x in acc.flat)
    # an empty sum writes nothing: a G with no taps off pZ has empty update tables
    before = acc.copy()
    tiles.tap_sum(acc, tmp, a, [], rows)
    assert np.array_equal(acc, before)


def test_float64_roundtrip_error_bound():
    rng = np.random.default_rng(42)
    data = rng.standard_normal((81, 81))
    for bank in (box_bank(3, 2), deg4_bank(2)):
        y = Tensor.from_numpy(data)
        c = decompose_fast(y, bank, 2)
        r = reconstruct_fast(c, bank)
        assert np.max(np.abs(r.data - data)) <= 1e-12 * np.max(np.abs(data))


def test_float64_fast_matches_direct():
    rng = np.random.default_rng(3)
    data = rng.standard_normal((9, 9))
    bank = box_bank(3, 2)
    cf = decompose_fast(Tensor.from_numpy(data), bank, 1)
    cd = decompose_direct(Tensor.from_numpy(data), bank, 1)
    assert cf.coarse.max_abs_diff(cd.coarse) <= 1e-12
    for t, r in zip(all_details(cf), all_details(cd), strict=True):
        assert t.max_abs_diff(r) <= 1e-12


ORACLE_PINS = [
    (lambda: deg4_bank(2), (81, 81), 2,
     "f73611ec207373f4d6ab46125fead35ee3919e669a9c75ab087b54c323dd90cb"),
    (lambda: box_bank(3, 3), (27, 27, 27), 1,
     "586a99e1a505ef65fc8a59c2c8ec27670d136f94babcf09f62db74564d1123a8"),
    (lambda: box_bank(2, 2), (16, 16), 3,
     "418b0c67a61194d0d58686e153c0cd3f7be1d7b2e6271f0e9c7350046fa94106"),
    (lambda: build_pcs_bank(far_tap_1d(), far_tap_1d(), 2, "standard"), (27, 27), 2,
     "a9128f513e8d5f5904688b0793fc7225feec71392375c44de3b9c3a1aa5c9a20"),
]


@pytest.mark.parametrize("bank_fn,shape,levels,digest", ORACLE_PINS,
                         ids=["deg4_n2", "box_p3_n3", "box_p2_n2", "far_tap"])
def test_float64_oracle_bits_pinned(bank_fn, shape, levels, digest):
    # the direct route's float64 output: its tap order, its one 1/q multiply
    # per sample and the sign of a zero sample (the input starts with -0.0)
    data = np.random.default_rng(0).standard_normal(shape)
    data.flat[0] = -0.0
    c = decompose_direct(Tensor.from_numpy(data), bank_fn(), levels)
    h = hashlib.sha256(c.coarse.data.tobytes())
    # the details in sorted (nu, level) order, the order these digests were taken in
    keyed = {(nu, j): t for j, level in enumerate(c.details)
             for nu, t in zip(c.sys.gamma_prime, level, strict=True)}
    for key in sorted(keyed):
        h.update(keyed[key].data.tobytes())
    assert h.hexdigest() == digest


def _drawer(kind):
    """A seeded source of float64 arrays by shape: normal values, zeros of either
    sign, or normal values whose first samples are -0.0, NaN, inf and -inf."""
    rng = np.random.default_rng(0)
    if kind == "normal":
        return rng.standard_normal
    if kind == "specials":
        def draw(shape):
            a = rng.standard_normal(shape)
            a.flat[:4] = [-0.0, np.nan, np.inf, -np.inf][:a.size]
            return a
        return draw
    return lambda shape: rng.choice([-0.0, 0.0], size=shape)


# deg4 on 9x9 over 2 levels has a 1x1 coarse array, narrower than its tap reach.
# Box p=5 n=3 and p=7 n=2 have unit taps whose rolls split rows, which are
# added from a scratch copy. The order-4 p=7 n=2 bank has non-unit taps on
# all 48 cosets, 1152 predict taps over 49-sample phases. Analysis inputs of
# p >= 5 hold -0.0, NaN and +-inf; their synthesis inputs do not, since their
# taps span the whole 5^3 or 7^2 coarse grid and one NaN among the
# coefficients would reach every output sample.
PIN_IDS = ["deg4_n2", "box_p3_n3", "deg4_9x9", "signed_zeros", "box_p5_n3", "box_p7_n2",
           "interp_p7_n2"]
OUTPUT_PINS = [
    (lambda: deg4_bank(2), (81, 81), "normal",
     "ed2c71ac1b2c33dde65b008a75455feffbe5b3a46ced5c4d87ebd3ebfeab7c3b"),
    (lambda: box_bank(3, 3), (27, 27, 27), "normal",
     "5955687fccf92104dbb671cccb03a03d5818be741b7527a46af4c50c9bdffa14"),
    (lambda: deg4_bank(2), (9, 9), "normal",
     "59b00f7364dd5fbd69f56862b40210a2913ca36d1163678194bc8a789d038cdc"),
    (lambda: deg4_bank(2), (27, 27), "signed_zeros",
     "dc9e7623218b17c783c3f3f8ba23838055803dcbb7655ff2ff375f72b2089152"),
    (lambda: box_bank(5, 3), (25, 25, 25), "specials",
     "083ec2b0772b3cffedb55102aabb06f7288edfdde72796f3182edf7464c34b27"),
    (lambda: box_bank(7, 2), (49, 49), "specials",
     "f9e8850521bce17963d3e57ad802a4f3bd03883f5cbdc6ae2810b13167b1469e"),
    (lambda: interp_bank(7, 2, 2), (49, 49), "specials",
     "52ab040c04b7bb11c1fd2758b7cb1930840b97824f8299be620c87f23207eb92"),
]
SYNTHESIS_PINS = [
    (lambda: deg4_bank(2), (81, 81), "normal",
     "9756cebf1713980d775cadf197b1704e4eb18b00a5e3a3b3baa05b9f4cb0db28"),
    (lambda: box_bank(3, 3), (27, 27, 27), "normal",
     "e5f6132da28345fefd11ac4ecfee5c917134cfdf05b5e5170f5b3452fb66d8a9"),
    (lambda: deg4_bank(2), (9, 9), "normal",
     "23b59c394cd281f9b4c575ba16cd6501bb0d26395e1c0df7c8a6667fe1f33973"),
    (lambda: deg4_bank(2), (27, 27), "signed_zeros",
     "06175630b2a14297daadf457f8f80b4947a395460d351e1fc4cd842526e72911"),
    (lambda: box_bank(5, 3), (25, 25, 25), "normal",
     "bc2295019adeb22b8ba2ae52e8eb0f21bbad45b5d8110ddc2d9ccb248b27b2a7"),
    (lambda: box_bank(7, 2), (49, 49), "normal",
     "971638cc90990fd3da011417fa694b13b6ed33a5368a3d1150cb979b7f23b2df"),
    (lambda: interp_bank(7, 2, 2), (49, 49), "normal",
     "fe70dc996d8b5c4b8ebf7ee79a39bb155e3294cb08ce5ecfd2cd365acbb89f9f"),
]


def _analysis_digest(path, bank_fn, shape, kind):
    """SHA-256 of the PCSC written to path from a fixed input, decomposed over 2 levels."""
    with np.errstate(invalid="ignore"):  # inf - inf in the "specials" inputs
        write_coeffs(path, decompose_fast(Tensor.from_numpy(_drawer(kind)(shape)), bank_fn(), 2))
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _synthesis_digest(path, bank_fn, shape, kind):
    """SHA-256 of the PCST written to path from fixed 2-level coefficients,
    drawn coarse first, then by level and coset."""
    bank, levels, draw = bank_fn(), 2, _drawer(kind)
    p = bank.p
    coarse = Tensor.from_numpy(draw(tuple(s // p ** levels for s in shape)))
    details = [[Tensor.from_numpy(draw(tuple(s // p ** (levels - j) for s in shape)))
                for nu in bank.sys.gamma_prime] for j in range(levels)]
    coeffs = MultiresCoeffs(bank.sys, coarse, details)
    write_tensor(path, reconstruct_fast(coeffs, bank))
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("bank_fn,shape,kind,digest", OUTPUT_PINS, ids=PIN_IDS)
def test_float64_output_bits_pinned(bank_fn, shape, kind, digest, tmp_path):
    # any change to a float64 output bit (tap order, accumulation order,
    # normalization, sign of a zero) shows up here
    assert _analysis_digest(tmp_path / "probe.pcsc", bank_fn, shape, kind) == digest


@pytest.mark.parametrize("bank_fn,shape,kind,digest", SYNTHESIS_PINS, ids=PIN_IDS)
def test_float64_synthesis_bits_pinned(bank_fn, shape, kind, digest, tmp_path):
    # the signed-zero case comes out with 25 of its 729 samples -0.0
    assert _synthesis_digest(tmp_path / "probe.pcst", bank_fn, shape, kind) == digest


@pytest.mark.parametrize("rows", [1, 2, 5])
def test_float64_bits_pinned_under_forced_tiles(rows, tmp_path):
    # No pinned probe has a phase large enough to be tiled, so force tiles of
    # a few leading-axis rows: they need not divide the extent, a tap reaches
    # past one tile, and tiles wrap at both ends. Every digest stays the same.
    with mock.patch.object(kernels, "_tile_rows", lambda shape, itemsize: rows):
        for pins, digest_fn, path in ((OUTPUT_PINS, _analysis_digest, tmp_path / "probe.pcsc"),
                                      (SYNTHESIS_PINS, _synthesis_digest, tmp_path / "probe.pcst")):
            for (bank_fn, shape, kind, digest), pin in zip(pins, PIN_IDS):
                assert digest_fn(path, bank_fn, shape, kind) == digest, (pin, rows)


class _MultiplySpy:
    """numpy as the kernels see it, counting their multiplies by a scalar and
    those of them by a unit scalar."""

    def __init__(self):
        self.scalars = self.units = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def multiply(self, a, b, *args, **kwargs):
        if np.ndim(b) == 0:
            self.scalars += 1
            self.units += b == 1
        return np.multiply(a, b, *args, **kwargs)


@pytest.mark.parametrize("bank_fn,shape", [(lambda: box_bank(5, 3), (25, 25, 25)),
                                           (lambda: box_bank(7, 2), (49, 49))],
                         ids=["box_p5_n3", "box_p7_n2"])
def test_float64_round_trip_multiplies_no_unit_tap(bank_fn, shape):
    # every tap of a box bank is 1, and some of these banks' rolls split rows;
    # such unit taps were once multiplied by 1.0 in their scratch copy, 480
    # and 392 times in these round trips
    bank, spy = bank_fn(), _MultiplySpy()
    data = np.random.default_rng(0).standard_normal(shape)
    with mock.patch.object(kernels, "np", spy):
        back = reconstruct_fast(decompose_fast(Tensor.from_numpy(data), bank, 2), bank)
    assert spy.scalars and not spy.units
    assert np.max(np.abs(back.data - data)) <= 1e-12 * np.max(np.abs(data))


@st.composite
def tiled_level_cases(draw):
    """Level kernels of random or far-tap generators, an input of a few phases
    per axis, and a tile of 1-3 rows."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 3))
    sys = make_coset_system(p, n, draw(st.sampled_from(["standard", "centered"] if p % 2
                                                       else ["standard"])))
    if p == 3 and draw(st.booleans()):
        G = H = far_tap_1d(draw(st.sampled_from(FAR_TAPS)))
    else:
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        G, H = random_lowpass_1d(rng, p), random_interpolatory_1d(rng, p)
    shape = tuple(p * draw(st.integers(1, 9 if n < 3 else 4)) for _ in range(n))
    return LevelKernels(sys, G, H), shape, draw(st.integers(1, 3)), draw(st.integers(0, 2 ** 32))


def _level_round_trip(kern, y, den):
    coarse, details, dens = kern.decompose_level(y, den)
    return (coarse, *details), kern.reconstruct_level(coarse, details, dens), dens


@settings(max_examples=60, deadline=None, derandomize=True)
@given(tiled_level_cases())
def test_tiled_steps_equal_one_tile_steps(case):
    # Tiles keep each sample's tap order, so float64 outputs match one-tile
    # steps bit for bit, and the exact round trip on int numerators stays exact.
    kern, shape, rows, seed = case
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(shape)
    exact = np.array([int(v) for v in rng.integers(-10 ** 6, 10 ** 6, size=y.size)],
                     dtype=object).reshape(shape)
    whole = _level_round_trip(kern, y, None)
    whole_exact = _level_round_trip(kern, exact, 7)
    with mock.patch.object(kernels, "_tile_rows", lambda shape, itemsize: rows):
        tiled = _level_round_trip(kern, y, None)
        tiled_exact = _level_round_trip(kern, exact, 7)
    for a, b in zip((*whole[0], whole[1][0]), (*tiled[0], tiled[1][0])):
        assert a.dtype == b.dtype == np.float64 and a.tobytes() == b.tobytes()
    assert tiled_exact[2] == whole_exact[2]
    for a, b in zip((*whole_exact[0], whole_exact[1][0]), (*tiled_exact[0], tiled_exact[1][0])):
        assert np.array_equal(a, b) and all(type(v) is int for v in b.flat)
    back, den = tiled_exact[1]
    assert np.array_equal(back * 7, exact * den)


def test_level_runs_over_trailing_batch_axes():
    # an n = 1 level on a 243x17 array is the 17 per-column levels, both ways
    kern = LevelKernels(make_coset_system(3, 1, "centered"), box_filter_1d(3),
                        interp_deg4_filter_1d())
    y = np.random.default_rng(5).standard_normal((243, 17))
    coarse, details, dens = kern.decompose_level(y)
    fine, _ = kern.reconstruct_level(coarse, details, dens)
    for col in range(y.shape[1]):
        c, ds, _ = kern.decompose_level(np.ascontiguousarray(y[:, col]))
        for got, want in zip((coarse, *details), (c, *ds)):
            assert np.ascontiguousarray(got[:, col]).tobytes() == want.tobytes()
        back, _ = kern.reconstruct_level(c, ds, dens)
        assert np.ascontiguousarray(fine[:, col]).tobytes() == back.tobytes()
    # and an exact batched round trip on int numerators is exact
    exact = np.array([int(v) for v in range(-54, 54)], dtype=object).reshape(27, 4)
    coarse, details, dens = kern.decompose_level(exact, 5)
    back, den = kern.reconstruct_level(coarse, details, dens)
    assert back.shape == exact.shape and np.array_equal(back * 5, exact * den)


@pytest.mark.parametrize("bank_fn,digest", [
    (lambda: box_bank(3, 2), "db88133b502dbdc9665694986bcfcffe10e1ee58ccbfaecfe12ab73cb0d001b3"),
    (lambda: deg4_bank(2), "4d2f45b72a4397f852438dfb08887622583d9cde2dfe21f54327b5ca246865f3"),
    (lambda: box_bank(7, 2), "860f0439e3755e4fd5252b423d1304a5a838250476fda1c9f247371a787cb9c8"),
    (lambda: deg4_bank(3), "9a56a64b77d8a86c9100a7c94582fe14a5cba4cb6e76ae9d196c6902c59b37ff"),
], ids=["box_p3_n2", "deg4_p3_n2", "box_p7_n2", "deg4_p3_n3"])
def test_bank_json_bytes_pinned(bank_fn, digest):
    # SHA-256 of the bank file `design` writes: any change to a tap's text,
    # the tap order or the document layout shows up here
    fh = io.StringIO()
    write_bank_json(fh, bank_fn())
    assert hashlib.sha256(fh.getvalue().encode()).hexdigest() == digest


def test_float64_matches_rational_ground_truth():
    rng = np.random.default_rng(11)
    ints = rng.integers(-8, 9, size=(9, 9))
    bank = deg4_bank(2)
    cf = decompose_fast(Tensor.from_numpy(ints.astype(float)), bank, 1)
    cr = decompose_fast(Tensor((9, 9), "rational",
                               [Fraction(int(v)) for v in ints.ravel()]), bank, 1)
    assert cf.coarse.max_abs_diff(cr.coarse) <= 1e-12
    for t, r in zip(all_details(cf), all_details(cr), strict=True):
        assert t.max_abs_diff(r) <= 1e-12


def test_shape_validation():
    bank = box_bank(3, 2)
    with pytest.raises(ShapeNotDivisible):
        decompose_fast(Tensor.zeros((10, 9)), bank, 1)
    with pytest.raises(ShapeNotDivisible):
        decompose_fast(Tensor.zeros((9, 9)), bank, 3)
    with pytest.raises(DomainError):
        decompose_fast(Tensor.zeros((9, 9)), bank, 0)
    with pytest.raises(DimensionMismatch):
        decompose_direct(Tensor.zeros((9, 9, 9)), bank, 1)
    # a count over a shape of another dimension would match a closed form of it
    with pytest.raises(DimensionMismatch, match="tensor is 3-D, bank is 2-D"):
        count_ops(deg4_bank(2), (81, 81, 81), 1)


def test_coeffs_bank_consistency(rng):
    bank = box_bank(3, 2)
    y = rational_tensor(rng, (9, 9))
    c = decompose_fast(y, bank, 1)
    other = box_bank(2, 2)
    with pytest.raises(ShapeMismatch):
        reconstruct_fast(c, other)
    nu = (1, 0)
    i = bank.sys.gamma_prime.index(nu)
    c.details[0][i] = Tensor.zeros((9, 9), "rational")
    with pytest.raises(ShapeMismatch, match=r"detail \(nu=\(1, 0\), level=0\) has shape"):
        reconstruct_fast(c, bank)
    del c.details[0][i]
    with pytest.raises(ShapeMismatch, match="level 0 holds 7 details, not 8"):
        reconstruct_fast(c, bank)


def test_tables_respect_lattice_congruence():
    for p in (2, 3, 5, 7):
        taps = {(m,): Fraction(m, p) for m in range(-2 * p, 2 * p + 1) if m}
        off = [m for (m,) in sorted(taps) if m % p]
        for n in (1, 2, 3):
            for convention in ("standard", "centered") if p > 2 else ("standard",):
                sys = make_coset_system(p, n, convention)
                for nu in sys.gamma_prime:
                    routes = eta_routes(sys, taps, nu)
                    # one route per tap off pZ, in increasing m, every exponent in pZ^n
                    assert [v for _, v in routes] == [taps[(m,)] for m in off]
                    for k, _ in routes:
                        assert len(k) == n and all(x % p == 0 for x in k)


def test_wrong_eta_is_refused_everywhere(monkeypatch):
    sys = make_coset_system(3, 2, "centered")
    G, H = box_filter_1d(3), interp_deg4_filter_1d()
    # eta(l, nu) = nu drops rho(l), so nu - m nu leaves pZ^n for m = 2 mod 3
    monkeypatch.setattr(lattice, "eta", lambda sys, l, nu: tuple(nu))
    with pytest.raises(PcswaveError, match="lattice congruence"):
        eta_routes(sys, G.mask.num, (1, 0))
    with pytest.raises(PcswaveError, match="lattice congruence"):
        LevelKernels(sys, G, H)
    with pytest.raises(PcswaveError, match="lattice congruence"):
        eta_sum(H, sys, (1, 0))
    with pytest.raises(PcswaveError, match="lattice congruence"):
        list(pcs_bank_masks(G, H, sys))


@pytest.mark.parametrize("p,n,shape", [(2, 2, (8, 8)), (3, 2, (27, 27)),
                                       (3, 3, (9, 9, 9)), (5, 2, (25, 25))])
def test_count_matches_closed_form(p, n, shape):
    oc = count_ops(box_bank(p, n), shape, 1)
    assert oc.multiplicative_ops == oc.predicted


def test_count_deg4_bank():
    oc = count_ops(deg4_bank(2), (27, 27), 1)
    assert oc.multiplicative_ops == oc.predicted
    assert (oc.alpha, oc.beta, oc.alpha_tilde) == (3, 9, 2)
    assert oc.pcs_constant == Fraction(18 * 8 + 4 * 8 + 6, 9)
    assert oc.pcs_constant <= 21


def test_count_levels_additive():
    bank = box_bank(3, 2)
    one = count_ops(bank, (27, 27), 1)
    two = count_ops(bank, (27, 27), 2)
    inner = count_ops(bank, (9, 9), 1)
    assert two.multiplicative_ops == one.multiplicative_ops + inner.multiplicative_ops
    assert two.predicted == one.predicted + inner.predicted


def test_box_bank_constants_bounded():
    for p in (2, 3, 5):
        bank = box_bank(p, 2)
        oc = count_ops(bank, (p * p, p * p), 1)
        assert (oc.alpha, oc.beta, oc.alpha_tilde) == (p, p, p - 1)
        assert oc.pcs_constant <= 4 * p - 1


def test_dyadic_constant_beats_tensor_model():
    # C_PCS = alpha + 2 beta + 2 <= (alpha + beta) n whenever alpha >= 2, n >= 2
    for alpha in range(2, 9):
        for beta in range(1, 9):
            for n in range(2, 6):
                assert alpha + 2 * beta + 2 <= (alpha + beta) * n
    # and the closed-form per-sample constant is below the dyadic bound
    for n in (2, 3):
        bank = box_bank(2, n)
        oc = count_ops(bank, (4,) * n, 1)
        assert oc.pcs_constant <= oc.alpha + 2 * oc.beta + 2
        assert pcs_complexity_constant(oc.alpha_tilde, oc.beta, 2, n) == oc.pcs_constant
