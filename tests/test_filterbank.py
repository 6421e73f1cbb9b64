import hashlib
import io
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcswave.cosetsum import prime_coset_sum
from pcswave.errors import (CompositeDilation, DimensionMismatch, DomainError, FormatError,
                            NotInterpolatory, NotLowpass, PcswaveError)
from pcswave.filterbank import (WaveletFilterBank, bank_from_json, bank_polyphase_matrices,
                                bank_report, bank_to_json, build_general, build_pcs_bank,
                                pcs_bank_masks, verify_combined_biorthogonality,
                                write_bank_json)
from pcswave.filters import (FilterND, filter_1d, filter_from_json, filter_nd, header_text,
                             is_biorthogonal, is_interpolatory, read_header, to_1d,
                             write_json)
from pcswave.lattice import make_coset_system
from pcswave.polyphase import LaurentPoly, eta_sum
from pcswave.presets import (box_bank, box_filter_1d, deg4_bank, interp_deg4_filter_1d,
                             interp_filter_1d)

from conftest import (FAR_TAPS, INTERP_BANKS, far_tap_1d, interp_bank,
                      random_interpolatory_1d, random_lowpass_1d, verify_polyphase_matrices)

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def test_box_bank_structure():
    bank = box_bank(3, 2)
    q = 9
    all_ones = {(a, b): Fraction(1) for a in (-1, 0, 1) for b in (-1, 0, 1)}
    assert bank.tau.taps == all_ones
    assert bank.tau_d.taps == all_ones
    for nu in bank.sys.gamma_prime:
        assert bank.t[nu].taps == {nu: Fraction(q), (0, 0): Fraction(-q)}
        want = {mu: Fraction(-1, q) for mu in bank.sys.gamma}
        want[nu] = want[nu] + 1
        assert bank.t_d[nu].taps == want


def test_tau_equals_g_for_biorthogonal_inputs():
    sys = make_coset_system(3, 2, "centered")
    g = prime_coset_sum(box_filter_1d(3), sys)
    bank = build_general(g, g, sys)
    assert bank.tau == g
    assert bank.tau_d == g


def test_tau_d_is_always_h(rng):
    sys = make_coset_system(3, 2, "standard")
    for _ in range(4):
        g = prime_coset_sum(random_lowpass_1d(rng, 3), sys)
        h = prime_coset_sum(random_interpolatory_1d(rng, 3), sys)
        assert build_general(g, h, sys).tau_d == h


def test_build_general_preconditions():
    sys = make_coset_system(3, 2, "centered")
    g = prime_coset_sum(box_filter_1d(3), sys)
    # the message names the tap that breaks the rule: the origin first, then
    # the least index of 3Z^2
    with pytest.raises(NotInterpolatory, match=r"^h is not interpolatory: h\(\(0, 0\)\) = 5 != 1$"):
        build_general(g, filter_nd(3, 2, {(0, 0): 5, (1, 1): 4}), sys)
    with pytest.raises(NotInterpolatory,
                       match=r"^h is not interpolatory: h\(\(0, -3\)\) = 1/2 != 0$"):
        build_general(g, filter_nd(3, 2, {(0, 0): 1, (3, 0): 2, (0, -3): Fraction(1, 2),
                                          (1, 1): Fraction(11, 2)}), sys)
    with pytest.raises(NotLowpass):
        build_general(filter_nd(3, 2, {(0, 0): 1}), g, sys)
    with pytest.raises(DimensionMismatch):
        build_general(box_filter_1d(3).to_nd(), g, sys)


def _deg4_expected_masks(sys):
    """Closed-form masks of the accuracy-4 bank, frozen as reference values."""
    c81 = Fraction(1, 81)
    tau = {(0, 0): Fraction(83, 243)}
    tau_d = {(0, 0): Fraction(1, 9)}
    t = {}
    t_d = {}
    for nu in sys.gamma_prime:
        for m, v in ((1, Fraction(1, 9)), (3, Fraction(-25, 729)), (6, Fraction(4, 729))):
            k = (m * nu[0], m * nu[1])
            tau[k] = tau.get(k, Fraction(0)) + v
        for m, v in ((1, 60 * c81 / 9), (2, 30 * c81 / 9), (4, -5 * c81 / 9),
                     (5, -4 * c81 / 9)):
            k = (m * nu[0], m * nu[1])
            tau_d[k] = tau_d.get(k, Fraction(0)) + v
    for nu in sys.gamma_prime:
        t[nu] = {nu: Fraction(1), (-3 * nu[0], -3 * nu[1]): 5 * c81,
                 (0, 0): -60 * c81, (3 * nu[0], 3 * nu[1]): -30 * c81,
                 (6 * nu[0], 6 * nu[1]): 4 * c81}
        t_d[nu] = {k: -v / 9 for k, v in tau_d.items()}
        t_d[nu][nu] = t_d[nu].get(nu, Fraction(0)) + Fraction(1, 9)
    return tau, tau_d, t, t_d


def test_deg4_bank_matches_expected_masks():
    bank = deg4_bank(2)
    sys = bank.sys
    tau, tau_d, t, t_d = _deg4_expected_masks(sys)
    assert bank.tau.mask == LaurentPoly(2, tau)
    assert bank.tau_d.mask == LaurentPoly(2, tau_d)
    for nu in sys.gamma_prime:
        assert bank.t[nu].mask == LaurentPoly(2, t[nu])
        assert bank.t_d[nu].mask == LaurentPoly(2, t_d[nu])
        assert bank.t[nu].support_size == 5


def test_deg4_report_orders():
    bank = deg4_bank(2)
    rep = bank_report(bank, max_order=6)
    by_name = {}
    for fr in rep.filters:
        by_name.setdefault(fr.name, []).append(fr.diag)
    assert by_name["tau"][0].accuracy == 1
    assert by_name["tau_d"][0].accuracy == 4
    assert all(d.vanishing_moments == 4 for d in by_name["t"])
    assert all(d.vanishing_moments == 1 for d in by_name["t_d"])
    assert rep.guarantee_floor == 1
    assert not rep.floor_violations


def test_box_bank_report():
    rep = bank_report(box_bank(3, 2), max_order=4)
    for fr in rep.filters:
        if fr.name in ("t", "t_d"):
            assert fr.diag.vanishing_moments == 1
            if fr.name == "t":
                assert fr.diag.support_size == 2
    assert rep.guarantee_floor == 1
    assert not rep.floor_violations


@pytest.mark.parametrize("bank_fn, max_order, digest", [
    (lambda: box_bank(7, 2), 1,
     "7322c4e94e0efbf13bb40909190e03390b7d790e1712b70957f14bebd773a8c9"),
    (lambda: box_bank(7, 2), 3,
     "89d0d4c077bfd1e39e6809478ff47e5327b7ede256f028390828bef3a2459483"),
    (lambda: box_bank(7, 2), 20,
     "8ce49bb933252b7814d533be452e2141ce0adacaa0ce4198159b2eb840454c3f"),
    (lambda: deg4_bank(3), 1,
     "be6048df6bcf53fd93d18a31cd1b3c88ade2780798cacc00cbca5ba937027662"),
    (lambda: deg4_bank(3), 3,
     "ac7c1cdb44d24840c39176578480138a68ce032d576c07aa08308f1e00e0995a"),
    (lambda: deg4_bank(3), 20,
     "0045b05425514b00275049776859efe08c8b1a0d731525168e2af33428b06ba8"),
], ids=["box_p7_n2-1", "box_p7_n2-3", "box_p7_n2-20", "deg4_p3_n3-1", "deg4_p3_n3-3",
        "deg4_p3_n3-20"])
def test_bank_report_rows_pinned(bank_fn, max_order, digest):
    # SHA-256 of (name, nu, accuracy, vanishing moments, flatness) of every row
    rows = [[r.name, r.nu and list(r.nu), r.diag.accuracy, r.diag.vanishing_moments,
             r.diag.flatness] for r in bank_report(bank_fn(), max_order).filters]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == digest


def _composed_wavelet_masks(G, H, sys, tau_d):
    """The closed highpass forms of pcs_bank_masks as composed polynomial algebra."""
    t, t_d = {}, {}
    for nu in sys.gamma_prime:
        e_nu = LaurentPoly.monomial(nu, 1)
        t[nu] = e_nu - eta_sum(H, sys, nu)
        t_d[nu] = Fraction(1, sys.q) * (e_nu - eta_sum(G, sys, nu) * tau_d)
    return t, t_d


FAR_TAP = to_1d(filter_from_json(json.loads((FIXTURE_DIR / "far_tap_p3.json").read_text())))
CLOSED_FORM_GRID = [(p, n) for p in (2, 3, 5) for n in (1, 2, 3)]


@settings(max_examples=5, deadline=None, derandomize=True)
@given(seeds=st.lists(st.integers(0, 2 ** 32 - 1), min_size=len(CLOSED_FORM_GRID),
                      max_size=len(CLOSED_FORM_GRID)))
def test_closed_form_routes_agree(seeds):
    # the one-pass closed forms equal the composed algebra and the polyphase route
    # the fixed far-tap cases first, so a failure there fails every shrink step at once
    cases = [(FAR_TAP, FAR_TAP, n) for n in (1, 2, 3)]
    cases += [(random_lowpass_1d(rng, p), random_interpolatory_1d(rng, p), n)
              for (p, n), rng in zip(CLOSED_FORM_GRID, map(random.Random, seeds))]
    for G, H, n in cases:
        p = G.p
        sys = make_coset_system(p, n, "centered" if p % 2 and n % 2 else "standard")
        g, h = prime_coset_sum(G, sys), prime_coset_sum(H, sys)
        derived = {}
        for name, nu, mask in pcs_bank_masks(G, H, sys):
            derived.setdefault(name, {})[nu] = mask
        t_masks, td_masks = derived["t"], derived["t_d"]
        assert (t_masks, td_masks) == _composed_wavelet_masks(G, H, sys, h.mask)
        bank = build_general(g, h, sys)
        assert derived["tau"] == {None: bank.tau.mask}
        assert derived["tau_d"] == {None: h.mask}
        for nu in sys.gamma_prime:
            assert FilterND(p, t_masks[nu]) == bank.t[nu]
            assert FilterND(p, td_masks[nu]) == bank.t_d[nu]


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (5, 1)])
def test_verify_box_banks(p, n):
    rep = verify_combined_biorthogonality(box_bank(p, n))
    assert rep.passed
    assert "holds exactly" in rep.describe()


def test_verify_deg4_bank():
    assert verify_combined_biorthogonality(deg4_bank(2)).passed


def test_verify_random_banks(rng):
    for _ in range(5):
        bank = build_pcs_bank(random_lowpass_1d(rng, 3),
                              random_interpolatory_1d(rng, 3), 2, "standard")
        assert verify_combined_biorthogonality(bank).passed


def _random_lowpass_nd(rng, p, n, interpolatory=False):
    """Genuinely 2-D random filter, not a coset-sum lift."""
    import itertools
    while True:
        pool = [k for k in itertools.product(range(-4, 5), repeat=n)
                if not interpolatory or any(x % p for x in k)]
        taps = {k: Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                for k in rng.sample(pool, k=rng.randint(3, 7))}
        taps = {k: v for k, v in taps.items() if v}
        if not taps:
            continue
        if interpolatory:
            total = sum(taps.values())
            if not total:
                continue
            scale = Fraction(p ** n - 1) / total
            taps = {k: v * scale for k, v in taps.items()}
            taps[(0,) * n] = Fraction(1)
        else:
            k0 = sorted(taps)[0]
            rest = sum(v for k, v in taps.items() if k != k0)
            taps[k0] = p ** n - rest
            if not taps[k0]:
                continue
        return filter_nd(p, n, taps)


def test_verify_general_banks_from_raw_nd_filters(rng):
    # the interpolatory completion works for arbitrary n-D pairs, not just
    # coset-sum lifts
    sys = make_coset_system(3, 2, "standard")
    for _ in range(5):
        g = _random_lowpass_nd(rng, 3, 2)
        h = _random_lowpass_nd(rng, 3, 2, interpolatory=True)
        bank = build_general(g, h, sys)
        assert verify_combined_biorthogonality(bank).passed
        assert is_biorthogonal(bank.tau, bank.tau_d)


def test_verify_fails_for_mismatched_lowpass():
    # non-biorthogonal standard-box lowpass pair forced onto box-bank wavelets
    sys = make_coset_system(3, 2, "standard")
    std = prime_coset_sum(box_filter_1d(3, centered=False), sys)
    q = sys.q
    t = {nu: filter_nd(3, 2, {nu: q, (0, 0): -q}) for nu in sys.gamma_prime}
    t_d = {}
    for nu in sys.gamma_prime:
        taps = {mu: Fraction(-1, q) for mu in sys.gamma}
        taps[nu] = taps[nu] + 1
        t_d[nu] = filter_nd(3, 2, taps)
    frankenstein = WaveletFilterBank(sys=sys, tau=std, tau_d=std, t=t, t_d=t_d)
    rep = verify_combined_biorthogonality(frankenstein)
    assert not rep.passed
    assert rep.failures
    i, j, res = rep.failures[0]
    assert not res.is_zero()
    assert "row" in rep.describe()


def _with_filter(bank, name, nu, f):
    """bank with its filter name (name[nu] for a highpass one) replaced by f."""
    fields = {"tau": bank.tau, "tau_d": bank.tau_d, "t": dict(bank.t), "t_d": dict(bank.t_d)}
    if nu is None:
        fields[name] = f
    else:
        fields[name][nu] = f
    return WaveletFilterBank(sys=bank.sys, g1d=bank.g1d, h1d=bank.h1d, **fields)


def _drawn_bank(data):
    kind = data.draw(st.sampled_from(["pcs", "general", "far"]), label="kind")
    if kind == "far":
        m = data.draw(st.sampled_from(FAR_TAPS), label="far tap")
        return build_pcs_bank(far_tap_1d(m), far_tap_1d(m), data.draw(st.integers(1, 2)),
                              "standard")
    p = data.draw(st.sampled_from([2, 3, 5]), label="p")
    # _random_lowpass_nd samples more taps than a line at p = 2 offers
    n = data.draw(st.integers(1 if kind == "pcs" else 2, 3), label="n")
    convention = data.draw(st.sampled_from(["standard", "centered"] if p % 2 else ["standard"]),
                           label="convention")
    rng = random.Random(data.draw(st.integers(0, 2 ** 32), label="seed"))
    if kind == "pcs":
        return build_pcs_bank(random_lowpass_1d(rng, p), random_interpolatory_1d(rng, p), n,
                              convention)
    return build_general(_random_lowpass_nd(rng, p, n),
                         _random_lowpass_nd(rng, p, n, interpolatory=True),
                         make_coset_system(p, n, convention))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_verify_matches_polyphase_matrix_oracle(data):
    # the filter-domain check against S A formed entry by entry, on a bank as
    # built, with one tap changed and with one tap removed; A is invertible,
    # so either damage breaks the identity
    bank = _drawn_bank(data)
    name = data.draw(st.sampled_from(["tau", "tau_d", "t", "t_d"]), label="filter")
    nu = None if name in ("tau", "tau_d") else data.draw(st.sampled_from(bank.sys.gamma_prime))
    f = getattr(bank, name) if nu is None else getattr(bank, name)[nu]
    key = data.draw(st.sampled_from(sorted(f.mask.num)), label="tap")
    delta = data.draw(st.fractions(-5, 5, max_denominator=9).filter(bool), label="delta")
    kept = {k: v for k, v in f.mask.num.items() if k != key}
    passed = []
    for case in (bank,
                 _with_filter(bank, name, nu, FilterND(f.p, f.mask + LaurentPoly.monomial(key, delta))),
                 _with_filter(bank, name, nu, FilterND(f.p, LaurentPoly.from_integers(
                     bank.n, kept, f.mask.den)))):
        got = verify_combined_biorthogonality(case)
        want = verify_polyphase_matrices(*bank_polyphase_matrices(case), case.q)
        assert (got.passed, got.q) == (want.passed, want.q) and got.q == bank.q
        assert got.failures == want.failures
        assert got.describe() == want.describe()
        passed.append(got.passed)
    assert passed == [True, False, False]


def test_corollary_biorthogonality(rng):
    for bank in (box_bank(3, 2), deg4_bank(2),
                 build_pcs_bank(random_lowpass_1d(rng, 3),
                                random_interpolatory_1d(rng, 3), 2, "centered")):
        assert is_biorthogonal(bank.tau, bank.tau_d)
        assert is_interpolatory(bank.tau_d)


def _moved_tap(f):
    """f with 1/100 moved between two of its taps of residue class 1: still
    lowpass and interpolatory, but of accuracy and flatness 1."""
    taps = dict(f.taps)
    a, b = sorted(k for k in taps if k % f.p == 1)[:2]
    taps[a] += Fraction(1, 100)
    taps[b] -= Fraction(1, 100)
    return filter_1d(f.p, taps)


@pytest.mark.parametrize("p, r, n, moved", [
    pytest.param(p, r, n, False, id=f"p{p}-r{r}-n{n}") for p, r, n in INTERP_BANKS] + [
    pytest.param(p, r, 2, True, id=f"p{p}-r{r}-n2-moved") for p, r in [(5, 2), (2, 3), (7, 2)]])
def test_vanishing_moment_floor(p, r, n, moved):
    # the paper's guarantee: with G = H = the order-r interpolatory filter,
    # of accuracy and flatness 2r, every t and t_d vanishes to order 2r and
    # no further, and the bank passes S.A; a tap moved within its residue
    # class drops the floor, and the least moment with it, to 1
    bank = interp_bank(p, r, n)
    if moved:
        H = _moved_tap(bank.h1d)
        bank = build_pcs_bank(H, H, n, bank.sys.convention)
    floor = 1 if moved else 2 * r
    rep = bank_report(bank, max_order=8)
    assert rep.guarantee_floor == floor
    assert not rep.floor_violations
    assert min(f.diag.vanishing_moments for f in rep.filters if f.nu is not None) == floor
    assert verify_combined_biorthogonality(bank).passed


def test_build_pcs_bank_preconditions():
    with pytest.raises(NotInterpolatory) as err:
        build_pcs_bank(box_filter_1d(3), filter_1d(3, {0: 1, 3: Fraction(1, 3),
                                                       1: Fraction(5, 3)}), 2)
    assert "H(3) = 1/3" in str(err.value)
    with pytest.raises(NotInterpolatory) as err:
        build_pcs_bank(box_filter_1d(3), filter_1d(3, {0: 2, 1: Fraction(1, 2),
                                                       -1: Fraction(1, 2)}), 2)
    assert "H(0) = 2 != 1" in str(err.value)
    with pytest.raises(NotLowpass):
        build_pcs_bank(filter_1d(3, {0: 1}), box_filter_1d(3), 2)
    with pytest.raises(DimensionMismatch):
        build_pcs_bank(box_filter_1d(5), box_filter_1d(3), 2)
    # the stock generators exist for a prime p and an order r >= 0 only
    for p in (-3, 1, 9):
        with pytest.raises(CompositeDilation, match=f"^dilation must be prime, got {p}$"):
            box_filter_1d(p)
    with pytest.raises(CompositeDilation, match="^dilation must be prime, got 9$"):
        interp_filter_1d(9, 2, centered=False)
    with pytest.raises(DomainError):
        interp_filter_1d(3, -1)
    with pytest.raises(DomainError):
        box_filter_1d(2)


def test_build_pcs_bank_refuses_disagreeing_routes(monkeypatch):
    import pcswave.filterbank as fb
    closed_forms = fb._synthesis_highpass_masks

    def skewed(G, sys, tau_d_mask):
        for nu, t_d in closed_forms(G, sys, tau_d_mask):
            if nu == sys.gamma_prime[-1]:
                t_d = t_d + LaurentPoly.monomial(nu, Fraction(1, 7))
            yield nu, t_d

    monkeypatch.setattr(fb, "_synthesis_highpass_masks", skewed)
    with pytest.raises(PcswaveError, match=r"routes disagree at t_d\[-1,-1\]"):
        build_pcs_bank(box_filter_1d(3), box_filter_1d(3), 2)


def test_build_pcs_bank_derives_each_mask_once(monkeypatch):
    # tau and tau_d are one derivation on both routes: one coset sum per
    # generator, one generator check, one lowpass correction; the checked
    # load still derives all 2q masks and compares them
    import pcswave.filterbank as fb
    calls = {"prime_coset_sum": 0, "require_generators": 0, "_lowpass_mask": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(fb, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(fb, name, counted)
    bank = build_pcs_bank(box_filter_1d(3), interp_deg4_filter_1d(), 2)
    assert calls == {"prime_coset_sum": 2, "require_generators": 1, "_lowpass_mask": 1}
    calls.update(dict.fromkeys(calls, 0))
    bank_from_json(bank_to_json(bank))
    assert calls == {"prime_coset_sum": 2, "require_generators": 1, "_lowpass_mask": 1}


def test_dyadic_reduction_to_coset_sum_masks():
    # for p=2 the analysis wavelet masks collapse to twice the classical
    # coset-sum masks e^{-i w.nu} conj(U(w.nu + pi))
    H = box_filter_1d(2, centered=False)
    for n in (2, 3):
        bank = build_pcs_bank(H, H, n, "standard")
        for nu in bank.sys.gamma_prime:
            cs = LaurentPoly.zero(n)
            for K, v in H.taps.items():
                sign = -1 if K % 2 else 1
                k = tuple((1 - K) * x for x in nu)
                cs = cs + LaurentPoly.monomial(k, Fraction(sign * v, 2))
            assert bank.t[nu].mask == 2 * cs


def _assert_one_header(bank):
    # the bank document and the marker's header are read by one reader, to the bank's own
    gens = (bank.sys, bank.g1d, bank.h1d)
    assert read_header(bank_to_json(bank)) == gens
    assert read_header(json.loads(header_text(bank))) == gens


def test_bank_json_roundtrip():
    bank = deg4_bank(2)
    doc = bank_to_json(bank)
    back = bank_from_json(doc)
    assert back.tau == bank.tau
    assert back.tau_d == bank.tau_d
    assert back.t == bank.t
    assert back.t_d == bank.t_d
    assert back.g1d == bank.g1d
    assert back.h1d == bank.h1d
    assert back.provenance == bank.provenance
    _assert_one_header(bank)


def test_provenance_follows_generators():
    bank = deg4_bank(2)
    assert bank.provenance == "prime_coset_sum"
    with pytest.raises(AttributeError):
        bank.provenance = "general"
    general = build_general(bank.tau_d, bank.tau_d, bank.sys)
    assert general.provenance == "general"
    doc = bank_to_json(general)
    assert (doc["provenance"], doc["G"], doc["H"]) == ("general", None, None)
    assert bank_from_json(doc).provenance == "general"
    assert read_header(doc) == (general.sys, None, None)
    # a document without the key takes the provenance its generators imply
    for source in (bank, general):
        doc = bank_to_json(source)
        del doc["provenance"]
        assert bank_from_json(doc).provenance == source.provenance


def test_bank_json_cross_check_catches_corruption():
    doc = bank_to_json(box_bank(3, 2))
    doc["filters"]["tau"]["taps"][0]["v"] = "7/5"
    with pytest.raises(FormatError):
        bank_from_json(doc)
    # verification tools still load it and report the broken identity instead
    bank = bank_from_json(doc, cross_check=False)
    assert not verify_combined_biorthogonality(bank).passed


def _damage_tap(fdoc, delta=Fraction(1, 7)):
    """Add delta to the first tap of a filter document."""
    tap = fdoc["taps"][0]
    tap["v"] = str(Fraction(tap["v"]) + delta)


@pytest.mark.parametrize("damage", ["tau", "tau_d", "t", "t_d", "G"])
def test_bank_json_cross_check_catches_each_filter(damage):
    doc = bank_to_json(deg4_bank(2))
    filters = doc["filters"]
    if damage in ("tau", "tau_d"):
        _damage_tap(filters[damage])
    elif damage in ("t", "t_d"):
        _damage_tap(filters[damage][sorted(filters[damage])[-1]])
    else:
        # move weight from G(0) to G(1): G stays lowpass, but its lift changes
        # (moving it between G(1) and G(-1) would not: the lift sums over l nu)
        taps = {tuple(t["k"]): t for t in doc["G"]["taps"]}
        taps[(0,)]["v"] = str(Fraction(taps[(0,)]["v"]) - Fraction(1, 2))
        taps[(1,)]["v"] = str(Fraction(taps[(1,)]["v"]) + Fraction(1, 2))
    with pytest.raises(FormatError) as err:
        bank_from_json(doc)
    if damage != "G":
        assert f"{damage} differs" in str(err.value) or f"{damage}[" in str(err.value)
    bank_from_json(doc, cross_check=False)


def test_bank_json_cross_check_names_the_first_damaged_filter():
    # filters are compared as derived: tau, tau_d, every t, then every t_d, in Gamma' order
    bank = deg4_bank(2)
    doc = bank_to_json(bank)
    filters = doc["filters"]
    keys = [",".join(map(str, nu)) for nu in bank.sys.gamma_prime]
    for name, damaged in [("t_d", keys[0]), ("t", keys[-1]), ("t", keys[1]), ("tau_d", None)]:
        _damage_tap(filters[name] if damaged is None else filters[name][damaged])
        label = re.escape(name if damaged is None else f"{name}[{damaged}]")
        with pytest.raises(FormatError, match=f"{label} differs"):
            bank_from_json(doc)


def test_bank_json_cross_check_refuses_generators_of_another_dilation():
    doc = bank_to_json(deg4_bank(2))
    doc["G"] = bank_to_json(box_bank(5, 1))["G"]
    with pytest.raises(FormatError):
        bank_from_json(doc)




def _fixture_banks():
    """(G, H, n, convention) for fixture generators sharing a dilation, q <= 125.

    Box p=7 n=3 (q=343, 0.8M taps) is left out: it takes seconds per build.
    """
    gens = {}
    for path in sorted(FIXTURE_DIR.glob("*.json")):
        f = to_1d(filter_from_json(json.loads(path.read_text())))
        gens.setdefault(f.p, []).append((path.stem, f))
    return [pytest.param(G, H, n, convention, id=f"{g_name}-{h_name}-n{n}-{convention}")
            for p, fs in sorted(gens.items())
            for g_name, G in fs for h_name, H in fs
            for n in (1, 2, 3) if p ** n <= 125
            for convention in ["standard"] + (["centered"] if p % 2 else [])]


def test_fixture_generators_are_interp_filters():
    # every stock fixture is a case (p, r, centered) of the one formula
    cases = {"box_p2": (2, 0, False), "box_p3_centered": (3, 0, True),
             "box_p3_standard": (3, 0, False), "box_p5_centered": (5, 0, True),
             "box_p7_centered": (7, 0, True), "interp_p3_deg4": (3, 2, True)}
    stems = {path.stem for path in FIXTURE_DIR.glob("*.json")}
    assert stems - set(cases) == {"far_tap_p3"}
    for stem, (p, r, centered) in cases.items():
        f = to_1d(filter_from_json(json.loads((FIXTURE_DIR / f"{stem}.json").read_text())))
        assert f == interp_filter_1d(p, r, centered), stem


@pytest.mark.parametrize("G, H, n, convention", _fixture_banks())
def test_fixture_banks_load_with_cross_check(G, H, n, convention):
    bank = build_pcs_bank(G, H, n, convention)
    back = bank_from_json(bank_to_json(bank))
    assert back.tau == bank.tau and back.t_d == bank.t_d
    _assert_one_header(bank)


def test_bank_json_requires_full_gamma():
    doc = bank_to_json(box_bank(3, 2))
    key = next(iter(doc["filters"]["t"]))
    del doc["filters"]["t"][key]
    with pytest.raises(FormatError):
        bank_from_json(doc, cross_check=False)


def _writer_banks():
    """Box banks with q <= 125 in both conventions, deg4, random and general banks.

    Box p=5 n=3 is left out in the standard convention: its 178k taps take
    seconds to compare and pass through the same templates as its 49k
    centered ones.
    """
    cases = []
    for p in (2, 3, 5, 7):
        box = box_filter_1d(p, centered=p % 2 == 1)
        for n in (1, 2, 3):
            for convention in ["standard"] + (["centered"] if p % 2 else []):
                if p ** n <= 125 and (p, n, convention) != (5, 3, "standard"):
                    cases.append(pytest.param(
                        lambda box=box, n=n, c=convention: build_pcs_bank(box, box, n, c),
                        id=f"box_p{p}_n{n}_{convention}"))
    for n in (2, 3):
        cases.append(pytest.param(lambda n=n: deg4_bank(n), id=f"deg4_n{n}"))
    for p, n in ((2, 2), (3, 2), (5, 1), (3, 3)):
        def random_bank(p=p, n=n):
            rng = random.Random(p * 10 + n)
            return build_pcs_bank(random_lowpass_1d(rng, p), random_interpolatory_1d(rng, p),
                                  n, "standard")
        cases.append(pytest.param(random_bank, id=f"random_p{p}_n{n}"))

    def general_bank():
        sys = make_coset_system(3, 2, "centered")
        return build_general(prime_coset_sum(box_filter_1d(3), sys),
                             prime_coset_sum(interp_deg4_filter_1d(), sys), sys)
    cases.append(pytest.param(general_bank, id="general"))
    return cases


def _report_docs():
    """Documents shaped like the --json reports and the --dump-polyphase matrices."""
    far = 2 ** 70
    polys = [LaurentPoly.zero(2), LaurentPoly.const(2, Fraction(-1, 9)),
             LaurentPoly(2, {(far, -far): Fraction(3, 7), (0, 1): 5, (-1, 0): Fraction(-2, 21)}),
             LaurentPoly(1, {(-far,): Fraction(1, 3 ** 50)})]
    report = {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"),
              "floats": [-0.0, 0.1, 1e300, 5e-324],
              "flags": [True, False, None],
              "ints": [2 ** 70, -(3 ** 50), 0],
              "text": "h\u00e9llo \u2603 \n\t\x00\x1f\"\\/",
              "caf\u00e9": "",
              "empty": {}, "none": [],
              "nested": {"a": [1, [2, []], {"b": {}}], "z": [[[]]]}}
    matrices = {"A": {"rows": 2, "cols": 2, "entries": [polys[:2], polys[2:]]},
                "S": [polys[0]], "p": polys[3]}
    return [pytest.param(lambda: report, id="report"),
            pytest.param(lambda: {}, id="report_empty"),
            pytest.param(lambda: [[report]], id="report_in_lists"),
            pytest.param(lambda: matrices, id="polyphase_terms")]


def _plain(value):
    """value with every LaurentPoly replaced by its term list, written independently."""
    if isinstance(value, LaurentPoly):
        return [{"k": list(k), "v": str(Fraction(v, value.den))}
                for k, v in sorted(value.num.items())]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_plain(v) for v in value]
    return value


@pytest.mark.parametrize("make", _writer_banks() + _report_docs())
def test_bank_writer_bytes_equal_json_dumps(make):
    value, fh = make(), io.StringIO()
    if isinstance(value, WaveletFilterBank):
        doc = bank_to_json(value)
        if value.g1d is None:
            assert doc["G"] is None and doc["H"] is None
        write_bank_json(fh, value)
    else:
        doc = _plain(value)
        write_json(fh, value)
    text, want = fh.getvalue(), json.dumps(doc, indent=2, sort_keys=True) + "\n"
    same = text == want  # a bare comparison would make pytest diff megabytes of text
    assert same, _first_difference(text, want)


def _first_difference(text: str, want: str) -> str:
    for i, (got, expected) in enumerate(zip(text.splitlines(True), want.splitlines(True))):
        if got != expected:
            return f"line {i + 1}: {got!r} != {expected!r}"
    return f"{len(text)} characters != {len(want)}"
