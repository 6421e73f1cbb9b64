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
and then through ``build_general``. Its second route, ``pcs_bank_masks``,
re-derives the 2q masks from G and H one at a time: tau_d as the prime coset
sum of H, tau as above, and every highpass mask from the closed forms in
terms of the 1-D polyphase components routed through eta. Both routes derive
tau and tau_d by the same functions, so ``build_pcs_bank`` derives them once
and refuses a bank where the routes disagree on any of the 2(q-1) highpass
filters.

``WaveletFilterBank`` refuses any of its 2q filters of another p or dim than
its coset system, so every load does. The checked load then runs only the
second route: ``bank_from_json`` compares each stored filter with
``pcs_bank_masks`` of the stored generators as that mask is derived, holding
one re-derived mask at a time. A filter is held as its mask (see
:mod:`pcswave.filters`, where the rules on generators and taps live), so all
of this algebra runs on integer numerators over common denominators, and a
stored filter matches a derived mask when the two integer forms are equal.
A document's header and generators are read by
:func:`pcswave.filters.read_header`, so a load whose check is cached reads
them without this module.

``verify_combined_biorthogonality`` decides S(w) A(w) = (1/q) I in the filter
domain, building neither polyphase matrix; ``bank_polyphase_matrices`` builds
(A, S) for the ``--dump-polyphase`` file only. The matrix product that decides
the identity entry by entry is the tests' oracle, in ``tests/conftest.py``.

``write_bank_json`` writes the bank through :func:`pcswave.filters.write_json`,
the writer of every JSON file of pcswave, with the bytes of
``json.dumps(doc, indent=2, sort_keys=True)``, each filter formatted from its
integer numerators. ``bank_to_json`` gives the same bank document as plain
dicts.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import lcm
from operator import mul
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from .arith import LaurentPoly, accumulate_products, poly_sum
from .cosetsum import prime_coset_sum
from .errors import DimensionMismatch, FormatError, PcswaveError
from .filters import (DEFAULT_MAX_ORDER, GENERAL, MAX_FORM_BITS, PRIME_COSET_SUM, Filter1D,
                      FilterND, MaskDiagnostics, diagnostics, filter_from_json, filter_to_json,
                      read_header, require_generators, require_interpolatory, require_lowpass,
                      write_json)
from .lattice import CosetSystem, make_coset_system
from .polyphase import PolyphaseMatrix, eta_sum, polyphase_decompose

MultiIndex = Tuple[int, ...]


class WaveletFilterBank:
    """The 2q filters of a perfect-reconstruction bank, each of the p and dim of ``sys``,
    plus its 1-D generators if any; a filter of another raises :class:`DimensionMismatch`."""

    __slots__ = ("sys", "tau", "tau_d", "t", "t_d", "g1d", "h1d")

    def __init__(self, sys: CosetSystem, tau: FilterND, tau_d: FilterND,
                 t: Dict[MultiIndex, FilterND], t_d: Dict[MultiIndex, FilterND],
                 g1d: Optional[Filter1D] = None, h1d: Optional[Filter1D] = None):
        for name, fs in (("tau", {None: tau}), ("tau_d", {None: tau_d}), ("t", t), ("t_d", t_d)):
            for nu, f in fs.items():
                if (f.p, f.dim) != (sys.p, sys.n):
                    raise DimensionMismatch(f"{_label(name, nu)} has p={f.p}, dim={f.dim}; "
                                            f"the coset system has p={sys.p}, dim={sys.n}")
        self.sys, self.tau, self.tau_d, self.t, self.t_d = sys, tau, tau_d, t, t_d
        self.g1d, self.h1d = g1d, h1d

    @property
    def provenance(self) -> str:
        """``prime_coset_sum`` exactly when both 1-D generators are present."""
        if self.g1d is not None and self.h1d is not None:
            return PRIME_COSET_SUM
        return GENERAL

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


def _lowpass_mask(g: FilterND, sg: List[LaurentPoly], sh: List[LaurentPoly],
                  sys: CosetSystem) -> LaurentPoly:
    """tau = g^ + 1 - q sum_nu Sg_nu conj(Sh_nu), the correction taken at p w.

    1 - sum over the coset shifts gamma of g^(w+gamma) conj(h^(w+gamma)) equals
    1 - q sum_nu Sg_nu(p w) conj(Sh_nu(p w)), from the synthesis polyphase
    components Sg of g and Sh of h; the conjugate sits on the h side.
    """
    products = poly_sum(sys.n, (a * b.conj() for a, b in zip(sg, sh)))
    corr = LaurentPoly.const(sys.n, 1) - products * sys.q
    return g.mask + corr.stretch(sys.p)


def build_general(g: FilterND, h: FilterND, sys: CosetSystem) -> WaveletFilterBank:
    """Complete (g, h) into a bank; both lowpass, h interpolatory (rules of :mod:`.filters`)."""
    require_lowpass(g, "g")
    require_lowpass(h, "h")
    require_interpolatory(h, "h")

    p, q = sys.p, sys.q
    sg = polyphase_decompose(g, sys)
    sh = polyphase_decompose(h, sys)

    t: Dict[MultiIndex, FilterND] = {}
    t_d: Dict[MultiIndex, FilterND] = {}
    for idx, nu in enumerate(sys.gamma_prime, 1):
        e_nu = LaurentPoly.monomial(nu, 1)
        t[nu] = FilterND(p, e_nu - q * sh[idx].conj().stretch(p))
        t_d[nu] = FilterND(p, Fraction(1, q) * e_nu - sg[idx].conj().stretch(p) * h.mask)

    return WaveletFilterBank(sys=sys, tau=FilterND(p, _lowpass_mask(g, sg, sh, sys)), tau_d=h,
                             t=t, t_d=t_d)


def _synthesis_highpass_masks(G: Filter1D, sys: CosetSystem, tau_d_mask: LaurentPoly
                              ) -> Iterator[Tuple[MultiIndex, LaurentPoly]]:
    """(nu, t_nu_d) for each nu of Gamma', each t_nu_d in one integer pass.

    With E = eta_sum(G, sys, nu), q t_nu_d = x^nu - E tau_d is accumulated
    over den(E) den(tau_d) and reduced once.
    """
    td_cols = list(zip(*tau_d_mask.num))
    minus_td = [-v for v in tau_d_mask.num.values()]
    for nu in sys.gamma_prime:
        e_g = eta_sum(G, sys, nu)
        den = e_g.den * tau_d_mask.den
        acc: Dict[MultiIndex, int] = {nu: den}
        accumulate_products(acc, e_g.num.items(), td_cols, minus_td)
        yield nu, LaurentPoly.from_integers(sys.n, acc, sys.q * den)


def _pcs_lowpass_mask(G: Filter1D, h: FilterND, sys: CosetSystem) -> LaurentPoly:
    """tau of the prime-coset-sum bank of (G, H), given h, the prime coset sum of H.

    A function of its own, so that g and the polyphase components are freed
    before :func:`pcs_bank_masks` goes on to the highpass masks.
    """
    g = prime_coset_sum(G, sys)
    return _lowpass_mask(g, polyphase_decompose(g, sys), polyphase_decompose(h, sys), sys)


def pcs_bank_masks(G: Filter1D, H: Filter1D, sys: CosetSystem
                   ) -> Iterator[Tuple[str, Optional[MultiIndex], LaurentPoly]]:
    """Every mask of the prime-coset-sum bank of (G, H), re-derived from G and H.

    Yields (name, nu, mask) in bank order: tau and tau_d with nu None, then
    t and then t_d for each nu of Gamma'. Each mask is derived when it is
    asked for, so a caller that compares and drops each one holds only
    tau_d beside it. tau_d is the prime coset sum of H; tau is the prime
    coset sum g of G plus the stretched polyphase correction. The highpass
    masks are the closed forms from the 1-D filters,

        t_nu   = e^{-i w.nu} (1 - (p/(p-1)) sum_l e^{i (w.eta(l,nu)) l} conj(U_l(p w.eta(l,nu))))
        t_nu_d = (1/q) e^{-i w.nu} (1 - (p/(p-1)) sum_l e^{...} conj(S_l(...)) tau_d(w))

    expanded into term maps: each sum over (l, U_l) becomes a sum over the
    taps m of H (resp. G) with m != 0 mod p, contributing coefficient
    H(m)/(p-1) at exponent nu - m * eta(l, nu) (:func:`~pcswave.polyphase.eta_sum`).
    All 2q masks are the check :func:`bank_from_json` runs; the highpass ones
    are the second construction route of :func:`build_pcs_bank`.
    """
    require_generators(sys, G, H)
    h = prime_coset_sum(H, sys)
    yield "tau", None, _pcs_lowpass_mask(G, h, sys)
    yield "tau_d", None, h.mask
    yield from _pcs_highpass_masks(G, H, sys, h.mask)


def _pcs_highpass_masks(G: Filter1D, H: Filter1D, sys: CosetSystem, tau_d_mask: LaurentPoly
                        ) -> Iterator[Tuple[str, Optional[MultiIndex], LaurentPoly]]:
    """The t and then the t_d masks of :func:`pcs_bank_masks`, given tau_d's mask."""
    for nu in sys.gamma_prime:
        yield "t", nu, LaurentPoly.monomial(nu, 1) - eta_sum(H, sys, nu)
    for nu, mask in _synthesis_highpass_masks(G, sys, tau_d_mask):
        yield "t_d", nu, mask


def _first_mismatch(bank: WaveletFilterBank,
                    masks: Iterable[Tuple[str, Optional[MultiIndex], LaurentPoly]]
                    ) -> Optional[str]:
    """Name of the first filter of bank whose (unique, integer) mask differs from
    the one masks gives for it, in the order masks gives them: that of
    :func:`pcs_bank_masks` for a load, t and then t_d for a design."""
    for name, nu, mask in masks:
        f = getattr(bank, name) if nu is None else getattr(bank, name)[nu]
        if f.mask != mask:
            return _label(name, nu)
    return None


def build_pcs_bank(G: Filter1D, H: Filter1D, n: int,
                   convention: str = "centered") -> WaveletFilterBank:
    """Bank from two 1-D lowpass filters via the prime coset sum; H interpolatory."""
    sys = make_coset_system(G.p, n, convention)
    require_generators(sys, G, H)
    general = build_general(prime_coset_sum(G, sys), prime_coset_sum(H, sys), sys)
    bank = WaveletFilterBank(sys, general.tau, general.tau_d, general.t, general.t_d, G, H)
    # no bank that bank_from_json refuses: it forms a mask over at most q den
    for f in bank.analysis_filters() + bank.synthesis_filters():
        if (f.q * max(f.mask.den, *map(abs, f.mask.num.values()))).bit_length() > MAX_FORM_BITS:
            raise PcswaveError(f"a filter of the bank needs more than {MAX_FORM_BITS} bits")

    # Construction cross-check: the polyphase route above and the closed
    # forms from G and H must give the same 2(q-1) highpass filters; tau and
    # tau_d are one derivation on both routes, so they are not compared.
    bad = _first_mismatch(bank, _pcs_highpass_masks(G, H, sys, bank.tau_d.mask))
    if bad is not None:
        raise PcswaveError(f"construction routes disagree at {bad}")
    return bank


class VerificationReport(NamedTuple):
    passed: bool
    q: int
    failures: List[Tuple[int, int, LaurentPoly]] = ()

    def describe(self) -> str:
        if self.passed:
            return "S(w) A(w) = (1/q) I holds exactly"
        i, j, res = self.failures[0]
        return (f"{len(self.failures)} of {self.q * self.q} entries violate "
                f"S(w) A(w) = (1/q) I; first at row {i}, col {j}: residual {res}")


def bank_polyphase_matrices(bank: WaveletFilterBank) -> Tuple[PolyphaseMatrix, PolyphaseMatrix]:
    """(A, S) built from the bank's materialized filters.

    Rows of A are the analysis polyphase representations of (tau, t_nu...),
    the conjugates of their synthesis components, and columns of S the
    synthesis representations of (tau_d, t_nu_d...), both in the Gamma ordering.
    """
    sys = bank.sys
    q = sys.q
    a_rows = [[c.conj() for c in polyphase_decompose(f, sys)] for f in bank.analysis_filters()]
    s_cols = [polyphase_decompose(f, sys) for f in bank.synthesis_filters()]
    s_rows = [[s_cols[j][i] for j in range(q)] for i in range(q)]
    return (PolyphaseMatrix(q, q, a_rows), PolyphaseMatrix(q, q, s_rows))


def _packed(keys: List[MultiIndex], base: int) -> List[int]:
    """Each exponent k of keys as the int k[0] base^(n-1) + ... + k[n-2] base + k[n-1]."""
    cols = list(zip(*keys)) or [()]
    packed = cols[0]
    for col in cols[1:]:
        packed = [base * v + x for v, x in zip(packed, col)]
    return list(packed)


def _unpacked(key: int, base: int, n: int) -> MultiIndex:
    """The exponent that :func:`_packed` packed into key, read in balanced digits."""
    out = []
    for _ in range(n):
        d = key % base
        if 2 * d > base:
            d -= base
        out.append(d)
        key = (key - d) // base
    return tuple(out[::-1])


def verify_combined_biorthogonality(bank: WaveletFilterBank) -> VerificationReport:
    """Exact check of S(w) A(w) = (1/q) I in the filter domain, one column at a time.

    P_j(x) = sum_k s_k(x) A_kj(x^p), over the synthesis masks s_k, equals
    sum_i (S A)_ij(x^p) x^{gamma_i}. The classes gamma_i + pZ^n are disjoint, so
    S A = (1/q) I exactly when every P_j is x^{gamma_j} / q, and the term of P_j
    at t in class gamma_i is the coefficient of (S A)_ij at (t - gamma_i) / p.
    A_kj(x^p) holds the analysis taps x of class j at exponent gamma_j - x. Each
    side goes over one denominator and each exponent is one int in balanced base
    4M + 4p + 1 (M the largest |tap exponent|); only failing columns are unpacked.
    """
    sys = bank.sys
    p, n, q, gamma = sys.p, sys.n, sys.q, sys.gamma
    ana, syn = bank.analysis_filters(), bank.synthesis_filters()
    far = max((max(max(c), -min(c)) for f in ana + syn for c in zip(*f.mask.num)), default=0)
    base = 4 * far + 4 * p + 1
    d_syn, d_ana = lcm(*(f.mask.den for f in syn)), lcm(*(f.mask.den for f in ana))
    den, origin = d_syn * d_ana, _packed(list(gamma), base)
    s_keys = [_packed(list(f.mask.num), base) for f in syn]
    s_values = [list(map(mul, f.mask.num.values(), repeat(d_syn // f.mask.den))) for f in syn]
    # column j: (k, gamma_j - x, value) for each analysis tap x of filter k in class j
    columns: List[List[Tuple[int, int, int]]] = [[] for _ in range(q)]
    for k, f in enumerate(ana):
        keys, scale = list(f.mask.num), d_ana // f.mask.den
        for j, x, v in zip(map(sys.index_of, keys), _packed(keys, base), f.mask.num.values()):
            columns[j].append((k, origin[j] - x, v * scale))
    failures = []
    for j, column in enumerate(columns):
        acc: Dict[int, int] = {}
        get = acc.get
        for k, shift, a in column:
            for s, v in zip(s_keys[k], s_values[k]):
                t = s + shift
                acc[t] = get(t, 0) + v * a
        diagonal = acc.pop(origin[j], 0)
        if q * diagonal == den and not any(acc.values()):
            continue
        # the entries of column j: (S A)_ij at m from the term at gamma_i + p m
        entries: Dict[int, Dict[MultiIndex, int]] = {j: {(0,) * n: q * diagonal - den}}
        for t, v in acc.items():
            if v:
                x = _unpacked(t, base, n)
                i = sys.index_of(x)
                entries.setdefault(i, {})[tuple((a - b) // p for a, b in zip(x, gamma[i]))] = q * v
        for i, num in entries.items():
            res = LaurentPoly.from_integers(n, num, q * den)
            if res.num:
                failures.append((i, j, res))
    failures.sort(key=lambda f: f[:2])
    return VerificationReport(passed=not failures, q=q, failures=failures)


class FilterReport(NamedTuple):
    name: str
    nu: Optional[MultiIndex]
    diag: MaskDiagnostics


class BankReport(NamedTuple):
    filters: List[FilterReport]
    guarantee_floor: Optional[int]
    floor_violations: List[str]
    max_order: int


def guarantee_floor(bank: WaveletFilterBank,
                    max_order: int = DEFAULT_MAX_ORDER) -> Optional[int]:
    """The vanishing-moment floor of a generator-backed bank, None for another.

    It is min(accuracy of H's mask, accuracy of G's mask, flatness of G's
    mask), read from the 1-D generators alone.
    """
    if bank.g1d is None or bank.h1d is None:
        return None
    dh = diagnostics(bank.h1d, max_order)
    dg = diagnostics(bank.g1d, max_order)
    return min(dh.accuracy, dg.accuracy, dg.flatness)


def bank_report(bank: WaveletFilterBank, max_order: int = DEFAULT_MAX_ORDER) -> BankReport:
    """Diagnostics for all 2q filters, plus the vanishing-moment floor.

    The analysis lowpass must meet :func:`guarantee_floor` in accuracy and
    every highpass filter in vanishing moments.
    """
    reports = [FilterReport("tau", None, diagnostics(bank.tau, max_order)),
               FilterReport("tau_d", None, diagnostics(bank.tau_d, max_order))]
    for nu in bank.sys.gamma_prime:
        reports.append(FilterReport("t", nu, diagnostics(bank.t[nu], max_order)))
    for nu in bank.sys.gamma_prime:
        reports.append(FilterReport("t_d", nu, diagnostics(bank.t_d[nu], max_order)))

    floor = guarantee_floor(bank, max_order)
    violations: List[str] = []
    if floor is not None:
        for r in reports:
            if r.name == "tau" and r.diag.accuracy < floor:
                violations.append(f"tau accuracy {r.diag.accuracy} < floor {floor}")
            if r.name in ("t", "t_d") and r.diag.vanishing_moments < floor:
                violations.append(f"{_label(r.name, r.nu)} vanishing moments "
                                  f"{r.diag.vanishing_moments} < floor {floor}")
    return BankReport(filters=reports, guarantee_floor=floor,
                      floor_violations=violations, max_order=max_order)


# --- JSON serialization -----------------------------------------------------

def _nu_key(nu: MultiIndex) -> str:
    return ",".join(str(x) for x in nu)


def _label(name: str, nu: Optional[MultiIndex]) -> str:
    return name if nu is None else f"{name}[{_nu_key(nu)}]"


def _parse_nu(key: str, n: int) -> MultiIndex:
    try:
        nu = tuple(int(x) for x in key.split(","))
    except ValueError as exc:
        raise FormatError(f"bad coset key {key!r}") from exc
    if len(nu) != n:
        raise FormatError(f"coset key {key!r} has length {len(nu)}, expected {n}")
    # one spelling per coset, or a second spelling would replace its filter
    if key != _nu_key(nu):
        raise FormatError(f"coset key {key!r} is not written as {_nu_key(nu)!r}")
    return nu


def _bank_doc(bank: WaveletFilterBank, leaf) -> dict:
    """The bank's document, with each filter f given as leaf(f)."""
    gp = bank.sys.gamma_prime
    return {"p": bank.p, "dim": bank.n, "convention": bank.sys.convention,
            "provenance": bank.provenance,
            "G": None if bank.g1d is None else leaf(bank.g1d),
            "H": None if bank.h1d is None else leaf(bank.h1d),
            "filters": {"tau": leaf(bank.tau), "tau_d": leaf(bank.tau_d),
                        "t": {_nu_key(nu): leaf(bank.t[nu]) for nu in gp},
                        "t_d": {_nu_key(nu): leaf(bank.t_d[nu]) for nu in gp}}}


def bank_to_json(bank: WaveletFilterBank) -> dict:
    return _bank_doc(bank, filter_to_json)


def write_bank_json(fh, bank: WaveletFilterBank) -> None:
    """Write the bytes of ``json.dumps(bank_to_json(bank), indent=2, sort_keys=True) + "\\n"``."""
    write_json(fh, _bank_doc(bank, lambda f: f))


def bank_from_json(doc: dict, *, cross_check: bool = True) -> WaveletFilterBank:
    """Rebuild a bank from its JSON form.

    The header is read by :func:`pcswave.filters.read_header`, with its checks,
    and a filter of another p or dim raises :class:`DimensionMismatch`. When
    the document carries 1-D generators and ``cross_check`` is true, every one
    of the 2q materialized filters is also compared tap-for-tap with one exact
    re-derivation from the generators (:func:`pcs_bank_masks`), and a
    mismatch raises :class:`FormatError`. Verification tools pass
    ``cross_check=False`` so they can report exactly which identity a
    corrupted bank violates instead of refusing to load it.
    """
    sys, g1d, h1d = read_header(doc)
    try:
        filters = doc["filters"]
        tau_doc, tau_d_doc, t_docs, t_d_docs = (filters["tau"], filters["tau_d"],
                                                filters["t"].items(), filters["t_d"].items())
    except (AttributeError, KeyError, TypeError) as exc:
        raise FormatError(f"malformed bank JSON: {exc}") from exc
    tau = filter_from_json(tau_doc)
    tau_d = filter_from_json(tau_d_doc)
    t = {_parse_nu(key, sys.n): filter_from_json(fj) for key, fj in t_docs}
    t_d = {_parse_nu(key, sys.n): filter_from_json(fj) for key, fj in t_d_docs}
    expected = set(sys.gamma_prime)
    if set(t) != expected or set(t_d) != expected:
        raise FormatError("bank JSON does not cover Gamma' exactly")

    bank = WaveletFilterBank(sys=sys, tau=tau, tau_d=tau_d, t=t, t_d=t_d, g1d=g1d, h1d=h1d)

    if cross_check and g1d is not None:
        bad = _first_mismatch(bank, pcs_bank_masks(g1d, h1d, sys))
        if bad is not None:
            raise FormatError(f"bank filters do not match re-derivation from "
                              f"generators: {bad} differs")
    return bank
