import contextlib
import itertools
import re
import signal
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcswave import arith
from pcswave.arith import LaurentPoly
from pcswave.cosetsum import prime_coset_sum
from pcswave.errors import DimensionMismatch, FormatError
from pcswave.filters import (MAX_FORM_BITS, FilterND, diagnostics, filter_1d, filter_from_json,
                             filter_nd, filter_to_json, is_biorthogonal,
                             is_interpolatory, to_1d)
from pcswave.lattice import make_coset_system
from pcswave.presets import box_filter_1d, interp_deg4_filter_1d

from conftest import (mask_eval, prime_taps_doc, random_interpolatory_1d, random_lowpass_1d,
                      zeta_sum)


def box2d_centered():
    sys = make_coset_system(3, 2, "centered")
    return prime_coset_sum(box_filter_1d(3), sys)


def test_mask_eval_at_zero_is_one_for_box():
    h = box2d_centered()
    assert mask_eval(h, (0, 0)) == zeta_sum(3, [(0, 1)])


def test_mask_eval_haar_zero_at_nonzero_frequency():
    H = box_filter_1d(3).to_nd()
    assert not any(mask_eval(H, (1,)))
    assert not any(mask_eval(H, (2,)))


def test_mask_eval_deg4_zero_at_nonzero_frequency():
    U = interp_deg4_filter_1d().to_nd()
    assert not any(mask_eval(U, (1,)))


def test_mask_eval_matches_tap_sum_at_zero():
    f = filter_nd(3, 2, {(0, 0): Fraction(5, 2), (1, 2): Fraction(7, 3)})
    assert mask_eval(f, (0, 0)) == zeta_sum(3, [(0, f.tap_sum / 9)])


def test_interpolatory_box2d():
    assert is_interpolatory(box2d_centered())


def test_interpolatory_lifted_deg4():
    sys = make_coset_system(3, 2, "centered")
    h = prime_coset_sum(interp_deg4_filter_1d(), sys)
    assert is_interpolatory(h)


def test_interpolatory_fails_for_shifted_box():
    # all-ones on {0,1,2}^2 shifted by (1,0): tap at (3,0) lands on 3Z^2 \ 0
    shifted = filter_nd(3, 2, {(k1 + 1, k2): 1 for k1 in range(3) for k2 in range(3)})
    assert shifted.taps[(3, 0)] == 1
    assert not is_interpolatory(shifted)


def test_biorthogonality_centered_vs_standard_box():
    cen = box2d_centered()
    assert is_biorthogonal(cen, cen)
    sys = make_coset_system(3, 2, "standard")
    std = prime_coset_sum(box_filter_1d(3, centered=False), sys)
    assert not is_biorthogonal(std, std)


def _biorthogonal_oracle(h, g):
    """Direct summation over an explicit l-box, independent of the library route."""
    p, n = h.p, h.dim
    lo = [min(k[a] for k in list(h.taps) + list(g.taps)) for a in range(n)]
    hi = [max(k[a] for k in list(h.taps) + list(g.taps)) for a in range(n)]
    import itertools
    rngs = [range((lo[a] - hi[a]) // p - 1, (hi[a] - lo[a]) // p + 2) for a in range(n)]
    for l in itertools.product(*rngs):
        s = sum((v * g.taps.get(tuple(k[a] + p * l[a] for a in range(n)), Fraction(0))
                 for k, v in h.taps.items()), Fraction(0))
        if l == (0,) * n:
            if s != p ** n:
                return False
        elif s:
            return False
    return True


def test_biorthogonality_against_bruteforce_oracle(rng):
    sys = make_coset_system(3, 2, "centered")
    for _ in range(10):
        h = prime_coset_sum(random_interpolatory_1d(rng, 3), sys)
        g = prime_coset_sum(random_lowpass_1d(rng, 3), sys)
        assert is_biorthogonal(h, g) == _biorthogonal_oracle(h, g)
        assert is_biorthogonal(h, g) == is_biorthogonal(g, h)


def test_biorthogonality_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        is_biorthogonal(box2d_centered(), box_filter_1d(3).to_nd())


def test_diagnostics_box_1d():
    d = diagnostics(box_filter_1d(3).to_nd())
    assert d.accuracy == 1
    assert d.is_lowpass
    assert d.is_interpolatory
    assert d.vanishing_moments == 0
    assert d.flatness == 2
    assert d.support_size == 3


def test_diagnostics_deg4():
    d = diagnostics(interp_deg4_filter_1d().to_nd(), max_order=8)
    assert d.accuracy == 4
    assert d.flatness == 4
    assert d.is_lowpass and d.is_interpolatory


def test_diagnostics_wavelet_tap_pair():
    # +1 at nu, -1 at 0: tap sum 0, so one vanishing moment at least; exactly 1
    f = filter_nd(3, 2, {(1, 1): 1, (0, 0): -1})
    d = diagnostics(f)
    assert not d.is_lowpass
    assert d.vanishing_moments == 1
    assert d.flatness == 0


def test_wavelet_mask_criterion(rng):
    for _ in range(20):
        f = random_lowpass_1d(rng, 3).to_nd()
        assert diagnostics(f, max_order=3).vanishing_moments == 0
        taps = dict(f.taps)
        k0 = sorted(taps)[0]
        taps[k0] = taps[k0] - f.tap_sum          # force the sum to zero
        g = filter_nd(3, 1, taps)
        if g.taps:
            assert diagnostics(g, max_order=3).vanishing_moments >= 1


def test_interpolatory_flatness_dominates_accuracy(rng):
    # interpolatory masks satisfy 1 - R(w) = sum of R(w + gamma) over the
    # nonzero coset shifts, so flatness >= accuracy always; for p = 2 the sum
    # has a single term and the two orders coincide exactly
    for _ in range(15):
        f = random_interpolatory_1d(rng, 3).to_nd()
        d = diagnostics(f, max_order=6)
        assert d.flatness >= d.accuracy
    for _ in range(15):
        f = random_interpolatory_1d(rng, 2).to_nd()
        d = diagnostics(f, max_order=6)
        assert d.accuracy == d.flatness


def test_centered_box_p3_orders():
    # the canonical case where flatness strictly exceeds accuracy
    d = diagnostics(box_filter_1d(3).to_nd())
    assert (d.accuracy, d.flatness) == (1, 2)


def test_max_order_saturation():
    # the zero-sum filter with all moments zero up to the bound reports the bound
    d = diagnostics(box_filter_1d(3).to_nd(), max_order=1)
    assert d.accuracy == 1
    assert d.max_order_searched == 1


def _brute_force_orders(f, max_order):
    """(accuracy, vanishing moments, flatness) with no early exit: every
    derivative sum sum_k f(k) k^mu zeta^(k.g), |mu| < max_order, at every
    lattice frequency g, summed in Q(zeta_p) from powers of zeta."""
    p, n = f.p, f.dim
    nonzero = {}          # (order, g == 0) -> some derivative sum is nonzero
    for g in itertools.product(range(p), repeat=n):
        for mu in itertools.product(range(max_order), repeat=n):
            if sum(mu) >= max_order:
                continue
            at = [Fraction(0)] * p       # the sum's coefficient of zeta^r
            for k, v in f.taps.items():
                w = v
                for x, m in zip(k, mu):
                    w *= x ** m
                at[sum(a * b for a, b in zip(k, g)) % p] += w
            total = zeta_sum(p, enumerate(at))
            key = (sum(mu), not any(g))
            nonzero[key] = nonzero.get(key, False) or any(total)
    accuracy = min((o for o in range(max_order) if nonzero[(o, False)]), default=max_order)
    moments = min((o for o in range(1, max_order) if nonzero[(o, True)]), default=max_order)
    s = f.tap_sum
    return accuracy, 0 if s else moments, moments if s == f.q else 0


@st.composite
def small_filters(draw):
    """A random n-D filter of tap sum 0, q or anything, convolved with up to
    two box factors so that zeros of higher order occur: the coset-summed box
    vanishes at every nonzero frequency, a 1-D box along one axis only where
    that axis's frequency is nonzero."""
    p, n = draw(st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2)]))
    keys = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n), min_size=1, max_size=5,
                         unique=True))
    taps = {k: Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3))) for k in keys}
    target = draw(st.sampled_from([0, p ** n, None]))
    if target is not None:
        taps[keys[0]] += target - sum(taps.values())
    box = box_filter_1d(p, centered=False)
    for axis in draw(st.lists(st.sampled_from([None] + list(range(n))),
                              max_size=2 if n == 1 else 1)):
        if axis is None:
            factor = prime_coset_sum(box, make_coset_system(p, n, "standard")).taps
        else:
            factor = {tuple(m if a == axis else 0 for a in range(n)): v * p ** (n - 1)
                      for m, v in box.taps.items()}
        conv = {}
        for a, v in taps.items():
            for b, u in factor.items():
                k = tuple(x + y for x, y in zip(a, b))
                conv[k] = conv.get(k, 0) + v * u / p ** n
        taps = conv
    return filter_nd(p, n, taps), draw(st.integers(1, 4))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(small_filters())
def test_diagnostics_match_brute_force(case):
    f, max_order = case
    if f.taps:
        d = diagnostics(f, max_order)
        assert (d.accuracy, d.vanishing_moments, d.flatness) == \
            _brute_force_orders(f, max_order)


def test_diagnostics_of_the_zero_mask_return_at_once():
    # the zero mask vanishes to every order, so each search saturates at
    # max_order without running: 10^6 orders in n = 3 would take hours
    zero = FilterND(3, LaurentPoly.zero(3))
    want = _brute_force_orders(zero, 4)
    d = diagnostics(zero, 4)
    assert (d.accuracy, d.vanishing_moments, d.flatness) == want == (4, 4, 0)

    with _alarm(1.0):
        d = diagnostics(zero, 10 ** 6)
    assert d == (False, False, 10 ** 6, 10 ** 6, 0, 0, 10 ** 6)


@contextlib.contextmanager
def _alarm(seconds):
    """Raise TimeoutError in the block once it has run for seconds."""
    def stop(signum, frame):
        raise TimeoutError(f"ran for {seconds} s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("value", [1, 3, -2])
def test_diagnostics_of_a_delta_mask_return_at_once(n, value):
    # every weight of order >= 1 is 0 when all taps sit at the origin, so a
    # huge max_order costs what max_order = 20 does; flatness saturates
    f = filter_nd(3, n, {(0,) * n: value * 3 ** (n - 1)})
    d = diagnostics(f, 4)
    assert (d.accuracy, d.vanishing_moments, d.flatness) == _brute_force_orders(f, 4)
    small = diagnostics(f, 20)
    with _alarm(1.0):
        big = diagnostics(f, 10 ** 7)
    assert (big.accuracy, big.vanishing_moments) == (small.accuracy, small.vanishing_moments)
    assert (big.flatness, small.flatness) == ((10 ** 7, 20) if value == 3 else (0, 0))


def test_filter_json_refuses_a_form_past_the_bound():
    # 4000 taps 1/r, r prime: the lcm grows past MAX_FORM_BITS after ~300 of
    # them, and the parse stops there instead of running for seconds
    doc = prime_taps_doc()
    with _alarm(1.0), pytest.raises(FormatError, match=f"more than {MAX_FORM_BITS} bits"):
        filter_from_json(doc)
    # the bound is on q times the lcm of the denominators as written, and on
    # each numerator over it: 2e/2e is refused though it is 1
    edge = 2 ** (MAX_FORM_BITS - 2)               # 3 * edge has MAX_FORM_BITS bits
    for v, ok in [(f"1/{edge}", True), (f"1/{2 * edge}", False),
                  (str(2 ** MAX_FORM_BITS - 1), True), (str(2 ** MAX_FORM_BITS), False),
                  (f"{2 * edge}/{2 * edge}", False)]:
        doc = {"p": 3, "dim": 1, "taps": [{"k": [0], "v": v}]}
        if ok:
            assert filter_to_json(filter_from_json(doc))["taps"][0]["v"] == v
        else:
            with pytest.raises(FormatError, match=f"more than {MAX_FORM_BITS} bits"):
                filter_from_json(doc)


def test_filter_json_refuses_an_oversize_text_unread():
    # a MAX_FORM_BITS integer has at most 1234 digits; a part of a tap text with
    # more is refused before the text-to-int step, whose time is quadratic in
    # the digits. A sign and leading zeros do not count.
    def doc(v):
        return {"p": 3, "dim": 1, "taps": [{"k": [0], "v": v}, {"k": [1], "v": 2}]}
    for v in ["1" * 1235, "-0000" + "1" * 1235, "1/" + "7" * 1235, " +" + "9" * 4000 + "/2 "]:
        with mock.patch.object(arith, "int", wraps=int, create=True) as read, \
                pytest.raises(FormatError, match=re.escape(
                    f"filter taps need more than {MAX_FORM_BITS} bits over one denominator")):
            filter_from_json(doc(v))
        assert not read.called
    # what the bound lets through is read as before: 10^1233 has 4096 bits
    for v, tap in [("0" * 3000 + "1", 1), ("-" + "0" * 3000 + "1", -1),
                   ("1" + "0" * 1233, 10 ** 1233)]:
        with mock.patch.object(arith, "int", wraps=int, create=True) as read:
            assert filter_from_json(doc(v)).taps[(0,)] == tap
        assert read.called


def test_filter_json_roundtrip():
    f = interp_deg4_filter_1d().to_nd()
    doc = filter_to_json(f)
    assert doc["taps"][0]["v"] == "-4/81"
    back = filter_from_json(doc)
    assert back == f
    assert to_1d(back).taps == interp_deg4_filter_1d().taps


def test_filter_json_rejects_zero_tap():
    doc = {"p": 3, "dim": 1, "taps": [{"k": [0], "v": "0"}]}
    with pytest.raises(FormatError):
        filter_from_json(doc)


def _box_doc(**edits):
    doc = {"p": 3, "dim": 1, "taps": [{"k": [k], "v": 1} for k in (-1, 0, 1)]}
    doc.update(edits)
    return doc


def test_filter_json_rejects_bad_entries():
    for doc in [
        {"p": 3, "dim": 1, "taps": [{"k": [0, 1], "v": "1"}]},
        {"p": 3, "dim": 1, "taps": [{"k": [0], "v": "a"}]},
        {"p": 3, "taps": []},
        # p, dim and tap indices must be JSON integers: nothing is truncated
        _box_doc(p=3.9), _box_doc(dim=1.5), _box_doc(p=3.5, dim=2.2), _box_doc(p=True),
        _box_doc(taps=[{"k": [-1.5], "v": 1}, {"k": [0.2], "v": 1}, {"k": [1.7], "v": 1}]),
        _box_doc(taps=[{"k": "12", "v": 1}]), _box_doc(dim=2, taps=[{"k": "12", "v": 1}]),
        _box_doc(taps=[{"k": [True], "v": 1}]),
        # q = p^dim is refused before it is formed
        {"p": 3, "dim": 10 ** 9, "taps": []}, _box_doc(p=1), _box_doc(dim=0),
        # a boolean tap value stays refused after an equal integer one
        _box_doc(taps=[{"k": [0], "v": 1}, {"k": [1], "v": True}]),
    ]:
        with pytest.raises(FormatError):
            filter_from_json(doc)
    # after good taps, the error names the one bad entry
    good = [{"k": [k], "v": "1/3"} for k in (-1, 0, 1)]
    for bad, named in [({"k": [2], "v": "0"}, "(2,)"), ({"k": [0], "v": 2}, "(0,)"),
                       ({"k": [2.0], "v": 1}, "2.0"), ({"k": [2], "v": 1.5}, "1.5"),
                       ({"k": [2, 0], "v": 1}, "(2, 0)"), ({"k": [2]}, "[2]"),
                       ({"k": [[2]], "v": 1}, "[[2]]"), ({"k": [2], "v": "1/0"}, "1/0")]:
        with pytest.raises(FormatError, match=re.escape(named)):
            filter_from_json({"p": 3, "dim": 1, "taps": good + [bad]})


@st.composite
def integer_masks(draw):
    """A filter from a random integer mask: signs, reducible and integer-valued taps."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 3))
    keys = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), max_size=6, unique=True))
    num = {k: draw(st.integers(-50, 50).filter(bool)) for k in keys}
    den = draw(st.sampled_from([1, 2, 6, p ** n, 4 * p ** n, 105]))
    return FilterND(p, LaurentPoly.from_integers(n, num, den))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(integer_masks())
def test_filter_json_tap_text_is_exact(f):
    # the text of each tap is that of its Fraction, taken from the .taps view
    doc = filter_to_json(f)
    assert [tap["v"] for tap in doc["taps"]] == \
        [str(f.taps[tuple(tap["k"])]) for tap in doc["taps"]]
    assert filter_from_json(doc) == f
