"""Wavelet filter banks: construction, verification, and per-filter reports.

Two construction routes are implemented and cross-checked against each other.

``build_general`` completes any pair of n-D lowpass filters (g, h), with h
interpolatory, into a perfect-reconstruction wavelet filter bank:

    tau   = g^ + (1 - sum over coset shifts of g^ conj(h^))   (analysis lowpass)
    tau_d = h^                                                 (synthesis lowpass)
    t_nu   = e^{-i w.nu} - q conj((h(nu + p.))^ (p w))         (analysis highpass)
    t_nu_d = (1/q) e^{-i w.nu} - conj((g(nu + p.))^ (p w)) h^  (synthesis highpass)

The correction term in tau is computed by polyphase products, never by summing
masks over the frequency cosets numerically.

``build_pcs_bank`` feeds two 1-D lowpass filters through the prime coset sum
and then through ``build_general``; it additionally rebuilds every highpass
filter from the closed forms in terms of the 1-D polyphase components routed
through eta, and refuses to return a bank where the two routes disagree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .cosetsum import prime_coset_sum
from .errors import (DimensionMismatch, FormatError, NotInterpolatory,
                     NotLowpass, PcswaveError)
from .filters import (DEFAULT_MAX_ORDER, Filter1D, FilterND, MaskDiagnostics,
                      diagnostics, filter_from_json, filter_to_json,
                      is_interpolatory, to_1d)
from .lattice import CosetSystem, eta, make_coset_system
from .polyphase import (ANALYSIS, SYNTHESIS, LaurentPoly, PolyphaseMatrix,
                        filter_of_mask, identity_residuals, mask_poly, matmul,
                        polyphase_decompose)

MultiIndex = Tuple[int, ...]

GENERAL = "general"
PRIME_COSET_SUM = "prime_coset_sum"


@dataclass
class WaveletFilterBank:
    """The 2q filters of a perfect-reconstruction bank, plus their provenance."""

    sys: CosetSystem
    tau: FilterND
    tau_d: FilterND
    t: Dict[MultiIndex, FilterND]
    t_d: Dict[MultiIndex, FilterND]
    provenance: str
    g1d: Optional[Filter1D] = None
    h1d: Optional[Filter1D] = None

    @property
    def p(self) -> int:
        return self.sys.p

    @property
    def n(self) -> int:
        return self.sys.n

    @property
    def q(self) -> int:
        return self.sys.q

    def analysis_filters(self) -> List[FilterND]:
        return [self.tau] + [self.t[nu] for nu in self.sys.gamma_prime]

    def synthesis_filters(self) -> List[FilterND]:
        return [self.tau_d] + [self.t_d[nu] for nu in self.sys.gamma_prime]


def _require_lowpass_nd(f: FilterND, name: str) -> None:
    if f.tap_sum != f.q:
        raise NotLowpass(f"{name} tap sum is {f.tap_sum}, lowpass needs {f.q}")


def _require_interpolatory_1d(H: Filter1D, name: str) -> None:
    if H.taps.get(0, Fraction(0)) != 1:
        raise NotInterpolatory(f"{name} is not interpolatory: {name}(0) = "
                               f"{H.taps.get(0, Fraction(0))} != 1")
    for k, v in sorted(H.taps.items()):
        if k != 0 and k % H.p == 0:
            raise NotInterpolatory(f"{name} is not interpolatory: {name}({k}) = {v} != 0")


def build_general(g: FilterND, h: FilterND, sys: CosetSystem) -> WaveletFilterBank:
    """Complete (g, h) into a bank; h must be interpolatory, both lowpass."""
    if g.p != sys.p or h.p != sys.p or g.dim != sys.n or h.dim != sys.n:
        raise DimensionMismatch("g, h, and the coset system must agree on p and dimension")
    _require_lowpass_nd(g, "g")
    _require_lowpass_nd(h, "h")
    if not is_interpolatory(h):
        raise NotInterpolatory("h is not interpolatory")

    p, q = sys.p, sys.q
    sg = polyphase_decompose(g, sys, SYNTHESIS)
    sh = polyphase_decompose(h, sys, SYNTHESIS)

    # 1 - sum_gamma g^(w+gamma) conj(h^(w+gamma)) == 1 - q sum_nu Sg_nu conj(Sh_nu)
    # evaluated at p*w; the conjugate sits on the h side.
    corr = LaurentPoly.const(sys.n, 1)
    for i in range(q):
        corr = corr - q * (sg[i] * sh[i].conj())

    tau_mask = mask_poly(g) + corr.stretch(p)
    h_mask = mask_poly(h)

    t: Dict[MultiIndex, FilterND] = {}
    t_d: Dict[MultiIndex, FilterND] = {}
    for idx, nu in enumerate(sys.gamma, start=0):
        if idx == 0:
            continue
        e_nu = LaurentPoly.monomial(nu, 1)
        t_mask = e_nu - q * sh[idx].conj().stretch(p)
        td_mask = Fraction(1, q) * e_nu - sg[idx].conj().stretch(p) * h_mask
        t[nu] = filter_of_mask(t_mask, p)
        t_d[nu] = filter_of_mask(td_mask, p)

    return WaveletFilterBank(sys=sys, tau=filter_of_mask(tau_mask, p), tau_d=h,
                             t=t, t_d=t_d, provenance=GENERAL)


def _residue_groups(F: Filter1D, p: int) -> Dict[int, List[Tuple[int, Fraction]]]:
    """Taps of F grouped by nonzero residue class modulo p."""
    groups: Dict[int, List[Tuple[int, Fraction]]] = {}
    for m, v in sorted(F.taps.items()):
        l = m % p
        if l:
            groups.setdefault(l, []).append((m, v))
    return groups


def pcs_wavelet_masks(G: Filter1D, H: Filter1D, sys: CosetSystem,
                      tau_d_mask: LaurentPoly) -> Tuple[Dict[MultiIndex, LaurentPoly],
                                                        Dict[MultiIndex, LaurentPoly]]:
    """Closed forms of the highpass masks straight from the 1-D filters.

        t_nu   = e^{-i w.nu} (1 - (p/(p-1)) sum_l e^{i (w.eta(l,nu)) l} conj(U_l(p w.eta(l,nu))))
        t_nu_d = (1/q) e^{-i w.nu} (1 - (p/(p-1)) sum_l e^{...} conj(S_l(...)) tau_d(w))

    expanded into term maps: grouping taps by residue turns each sum over
    (l, U_l) into a sum over the taps m of H (resp. G) with m != 0 mod p,
    contributing coefficient H(m)/(p-1) at exponent nu - m * eta(l, nu).
    """
    p, q = sys.p, sys.q
    invp = Fraction(1, p - 1)
    hg = _residue_groups(H, p)
    gg = _residue_groups(G, p)
    t_masks: Dict[MultiIndex, LaurentPoly] = {}
    td_masks: Dict[MultiIndex, LaurentPoly] = {}
    for nu in sys.gamma_prime:
        t_mask = LaurentPoly.monomial(nu, 1)
        g_sum = LaurentPoly.zero(sys.n)
        for l, taps in hg.items():
            e = eta(sys, l, nu)
            for m, v in taps:
                k = tuple(a - m * b for a, b in zip(nu, e))
                t_mask = t_mask - LaurentPoly.monomial(k, invp * v)
        for l, taps in gg.items():
            e = eta(sys, l, nu)
            for m, v in taps:
                k = tuple(a - m * b for a, b in zip(nu, e))
                g_sum = g_sum + LaurentPoly.monomial(k, invp * v)
        td_mask = Fraction(1, q) * (LaurentPoly.monomial(nu, 1) - g_sum * tau_d_mask)
        t_masks[nu] = t_mask
        td_masks[nu] = td_mask
    return t_masks, td_masks


def build_pcs_bank(G: Filter1D, H: Filter1D, n: int,
                   convention: str = "centered") -> WaveletFilterBank:
    """Bank from two 1-D lowpass filters via the prime coset sum; H interpolatory."""
    if G.p != H.p:
        raise DimensionMismatch(f"G has dilation {G.p}, H has dilation {H.p}")
    if G.tap_sum != G.p:
        raise NotLowpass(f"G tap sum is {G.tap_sum}, lowpass needs {G.p}")
    if H.tap_sum != H.p:
        raise NotLowpass(f"H tap sum is {H.tap_sum}, lowpass needs {H.p}")
    _require_interpolatory_1d(H, "H")

    sys = make_coset_system(G.p, n, convention)
    g = prime_coset_sum(G, n, sys)
    h = prime_coset_sum(H, n, sys)
    bank = build_general(g, h, sys)
    bank.provenance = PRIME_COSET_SUM
    bank.g1d = G
    bank.h1d = H

    # Construction cross-check: the polyphase route above and the eta-routed
    # 1-D closed forms must produce identical term maps.
    t_masks, td_masks = pcs_wavelet_masks(G, H, sys, mask_poly(h))
    for nu in sys.gamma_prime:
        if filter_of_mask(t_masks[nu], sys.p) != bank.t[nu]:
            raise PcswaveError(f"highpass construction routes disagree at nu={nu}")
        if filter_of_mask(td_masks[nu], sys.p) != bank.t_d[nu]:
            raise PcswaveError(f"dual highpass construction routes disagree at nu={nu}")
    return bank


@dataclass
class VerificationReport:
    passed: bool
    q: int
    failures: List[Tuple[int, int, LaurentPoly]] = field(default_factory=list)

    def describe(self) -> str:
        if self.passed:
            return "S(w) A(w) = (1/q) I holds exactly"
        i, j, res = self.failures[0]
        return (f"{len(self.failures)} of {self.q * self.q} entries violate "
                f"S(w) A(w) = (1/q) I; first at row {i}, col {j}: residual {res}")


def bank_polyphase_matrices(bank: WaveletFilterBank) -> Tuple[PolyphaseMatrix, PolyphaseMatrix]:
    """(A, S) built from the bank's materialized filters.

    Rows of A are the analysis polyphase representations of (tau, t_nu...),
    columns of S the synthesis representations of (tau_d, t_nu_d...), both in
    the Gamma ordering.
    """
    sys = bank.sys
    q = sys.q
    a_rows = [polyphase_decompose(f, sys, ANALYSIS) for f in bank.analysis_filters()]
    s_cols = [polyphase_decompose(f, sys, SYNTHESIS) for f in bank.synthesis_filters()]
    s_rows = [[s_cols[j][i] for j in range(q)] for i in range(q)]
    return (PolyphaseMatrix(q, q, a_rows), PolyphaseMatrix(q, q, s_rows))


def verify_combined_biorthogonality(bank: WaveletFilterBank) -> VerificationReport:
    """Exact perfect-reconstruction check of the bank via its polyphase matrices."""
    A, S = bank_polyphase_matrices(bank)
    bad = identity_residuals(matmul(S, A), bank.q)
    return VerificationReport(passed=not bad, q=bank.q, failures=bad)


@dataclass
class FilterReport:
    name: str
    nu: Optional[MultiIndex]
    diag: MaskDiagnostics


@dataclass
class BankReport:
    filters: List[FilterReport]
    guarantee_floor: Optional[int]
    floor_violations: List[str]
    max_order: int


def bank_report(bank: WaveletFilterBank, max_order: int = DEFAULT_MAX_ORDER) -> BankReport:
    """Diagnostics for all 2q filters, plus the vanishing-moment floor.

    For generator-backed banks the floor is min(accuracy of H's mask,
    accuracy of G's mask, flatness of G's mask), computed from the 1-D
    generators; the analysis lowpass must meet it in accuracy and every
    highpass filter in vanishing moments.
    """
    reports = [FilterReport("tau", None, diagnostics(bank.tau, max_order)),
               FilterReport("tau_d", None, diagnostics(bank.tau_d, max_order))]
    for nu in bank.sys.gamma_prime:
        reports.append(FilterReport("t", nu, diagnostics(bank.t[nu], max_order)))
    for nu in bank.sys.gamma_prime:
        reports.append(FilterReport("t_d", nu, diagnostics(bank.t_d[nu], max_order)))

    floor = None
    violations: List[str] = []
    if bank.g1d is not None and bank.h1d is not None:
        dh = diagnostics(bank.h1d.to_nd(), max_order)
        dg = diagnostics(bank.g1d.to_nd(), max_order)
        floor = min(dh.accuracy, dg.accuracy, dg.flatness)
        for r in reports:
            if r.name == "tau" and r.diag.accuracy < floor:
                violations.append(f"tau accuracy {r.diag.accuracy} < floor {floor}")
            if r.name in ("t", "t_d") and r.diag.vanishing_moments < floor:
                violations.append(f"{r.name}[{r.nu}] vanishing moments "
                                  f"{r.diag.vanishing_moments} < floor {floor}")
    return BankReport(filters=reports, guarantee_floor=floor,
                      floor_violations=violations, max_order=max_order)


# --- JSON serialization -----------------------------------------------------

def _nu_key(nu: MultiIndex) -> str:
    return ",".join(str(x) for x in nu)


def _parse_nu(key: str, n: int) -> MultiIndex:
    try:
        nu = tuple(int(x) for x in key.split(","))
    except ValueError as exc:
        raise FormatError(f"bad coset key {key!r}") from exc
    if len(nu) != n:
        raise FormatError(f"coset key {key!r} has length {len(nu)}, expected {n}")
    return nu


def bank_to_json(bank: WaveletFilterBank) -> dict:
    doc = {
        "p": bank.p,
        "dim": bank.n,
        "convention": bank.sys.convention,
        "provenance": bank.provenance,
        "G": None if bank.g1d is None else filter_to_json(bank.g1d.to_nd()),
        "H": None if bank.h1d is None else filter_to_json(bank.h1d.to_nd()),
        "filters": {
            "tau": filter_to_json(bank.tau),
            "tau_d": filter_to_json(bank.tau_d),
            "t": {_nu_key(nu): filter_to_json(bank.t[nu]) for nu in bank.sys.gamma_prime},
            "t_d": {_nu_key(nu): filter_to_json(bank.t_d[nu]) for nu in bank.sys.gamma_prime},
        },
    }
    return doc


def bank_from_json(doc: dict, *, cross_check: bool = True) -> WaveletFilterBank:
    """Rebuild a bank from its JSON form.

    When the document carries 1-D generators and ``cross_check`` is true, the
    bank is re-derived from them and every materialized filter compared
    tap-for-tap; a mismatch raises :class:`FormatError`. Verification tools
    pass ``cross_check=False`` so they can report exactly which identity a
    corrupted bank violates instead of refusing to load it.
    """
    try:
        p = int(doc["p"])
        n = int(doc["dim"])
        convention = doc["convention"]
        provenance = doc.get("provenance", GENERAL)
        filters = doc["filters"]
        tau_doc, tau_d_doc = filters["tau"], filters["tau_d"]
        t_docs, t_d_docs = filters["t"].items(), filters["t_d"].items()
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed bank JSON: {exc}") from exc

    sys = make_coset_system(p, n, convention)
    tau = filter_from_json(tau_doc)
    tau_d = filter_from_json(tau_d_doc)
    t = {_parse_nu(key, n): filter_from_json(fj) for key, fj in t_docs}
    t_d = {_parse_nu(key, n): filter_from_json(fj) for key, fj in t_d_docs}
    expected = set(sys.gamma_prime)
    if set(t) != expected or set(t_d) != expected:
        raise FormatError("bank JSON does not cover Gamma' exactly")

    g1d = h1d = None
    if doc.get("G") is not None:
        g1d = to_1d(filter_from_json(doc["G"]))
    if doc.get("H") is not None:
        h1d = to_1d(filter_from_json(doc["H"]))

    bank = WaveletFilterBank(sys=sys, tau=tau, tau_d=tau_d, t=t, t_d=t_d,
                             provenance=provenance, g1d=g1d, h1d=h1d)

    if cross_check and g1d is not None and h1d is not None:
        rebuilt = build_pcs_bank(g1d, h1d, n, convention)
        same = (rebuilt.tau == tau and rebuilt.tau_d == tau_d and
                all(rebuilt.t[nu] == t[nu] for nu in sys.gamma_prime) and
                all(rebuilt.t_d[nu] == t_d[nu] for nu in sys.gamma_prime))
        if not same:
            raise FormatError("bank filters do not match re-derivation from generators")
    return bank
