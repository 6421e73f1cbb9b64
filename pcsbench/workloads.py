"""Workloads of the pcswave benchmark: seeded inputs, operations and their gates.

A workload is a set of banks, each built from two 1-D generators, and a list
of operations. An operation is one ``pcswave`` subcommand, run as a user runs
it, or one in-process call where the package has no command (the rational
round trip). Every operation carries a gate that decides whether its output
is correct. A non-zero exit or a failed gate counts the operation as failed.

Set-up writes what the operations read: the generator files, the reference
bank JSON and the seeded PCST tensors. The reference PCSC is then written by
the library in this process, once per run. The CLI's bank JSON and PCSC must match these
byte for byte. ``golden.json`` pins what does not depend on the seed: the
SHA-256 of every bank JSON, of the PCSC of a fixed probe tensor per bank,
and the exact work counts of every workload. To print the values for the
current program, from the repository root::

    PYTHONPATH=src python3 -c "import sys; sys.path.insert(0, 'pcsbench'); \\
        import json, workloads; print(json.dumps(workloads.golden_values(), indent=2))"
"""

from __future__ import annotations

import filecmp
import hashlib
import io
import json
import random
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from pcswave import cli, dataio, transform
from pcswave.filterbank import bank_to_json, build_pcs_bank
from pcswave.filters import filter_to_json
from pcswave.presets import box_filter_1d, interp_deg4_filter_1d
from pcswave.tensor import RATIONAL, Tensor

WORKLOADS = ("design_verify", "bulk_f64", "exact_check")

# Float64 round trips must stay within this share of the input's peak, the
# bound the test suite uses.
ROUNDTRIP_BOUND = 1e-12
MAX_ORDER = "20"

GENERATORS = {
    "box3": lambda: box_filter_1d(3),
    "box5": lambda: box_filter_1d(5),
    "box7": lambda: box_filter_1d(7),
    "deg4": interp_deg4_filter_1d,
}


@dataclass(frozen=True)
class BankSpec:
    name: str
    p: int
    dim: int
    g: str
    h: str


@dataclass(frozen=True)
class TransformSpec:
    bank: BankSpec
    shape: Tuple[int, ...]
    levels: int


@dataclass(frozen=True)
class Spec:
    design: Tuple[BankSpec, ...] = ()       # design, then verify, through the CLI
    bulk: Tuple[TransformSpec, ...] = ()    # analyze, then synthesize --check-against
    exact: Optional[TransformSpec] = None   # analyze, bench, rational round trip

    def banks(self) -> List[BankSpec]:
        out = list(self.design) + [t.bank for t in self.bulk]
        if self.exact is not None:
            out.append(self.exact.bank)
        return out


BOX7_N2 = BankSpec("box_p7_n2", 7, 2, "box7", "box7")
BOX5_N3 = BankSpec("box_p5_n3", 5, 3, "box5", "box5")
BOX3_N3 = BankSpec("box_p3_n3", 3, 3, "box3", "box3")
BOX3_N2 = BankSpec("box_p3_n2", 3, 2, "box3", "box3")
DEG4_N3 = BankSpec("deg4_p3_n3", 3, 3, "box3", "deg4")
DEG4_N2 = BankSpec("deg4_p3_n2", 3, 2, "box3", "deg4")

SPECS: Dict[Tuple[str, bool], Spec] = {
    ("design_verify", False): Spec(design=(BOX7_N2, DEG4_N3)),
    ("design_verify", True): Spec(design=(BOX3_N2, DEG4_N2)),
    ("bulk_f64", False): Spec(bulk=(TransformSpec(DEG4_N2, (2187, 2187), 2),
                                    TransformSpec(BOX3_N3, (162, 162, 162), 2))),
    ("bulk_f64", True): Spec(bulk=(TransformSpec(DEG4_N2, (81, 81), 2),
                                   TransformSpec(BOX3_N3, (27, 27, 27), 2))),
    ("exact_check", False): Spec(exact=TransformSpec(BOX5_N3, (25, 25, 25), 1)),
    ("exact_check", True): Spec(exact=TransformSpec(BOX3_N3, (9, 9, 9), 1)),
}

# Fixed inputs whose PCSC digests are pinned in golden.json, per bank.
PROBES = {
    "deg4_p3_n2": ((81, 81), 2),
    "box_p3_n3": ((27, 27, 27), 2),
    "box_p5_n3": ((25, 25, 25), 1),
}


@dataclass
class Op:
    """One timed operation and the gate on its result.

    ``argv`` is a pcswave command line; ``call`` an in-process alternative.
    ``check`` maps the result ((exit code, stdout) for a command) to a
    failure reason, or None when the output is correct. ``io`` lists the
    PCST/PCSC files the operation reads or writes.
    """

    metric: str
    check: Callable[[object], Optional[str]]
    argv: Optional[List[str]] = None
    call: Optional[Callable[[], object]] = None
    io: List[Path] = field(default_factory=list)


def dump_json(path: Path, doc) -> None:
    """The CLI's JSON layout: two-space indent, sorted keys, final newline."""
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_pcst(path: Path, arr: np.ndarray) -> None:
    """PCST by its documented layout, independent of the package's writer."""
    header = b"PCST" + np.array([1], "<u2").tobytes() + bytes([0, arr.ndim])
    with open(path, "wb") as fh:
        fh.write(header + np.array(arr.shape, "<u8").tobytes())
        fh.write(np.ascontiguousarray(arr, "<f8").tobytes())


def read_pcst(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    if raw[:4] != b"PCST" or raw[6] != 0:
        raise ValueError(f"{path.name}: not a float64 PCST file")
    ndim = raw[7]
    shape = tuple(int(s) for s in np.frombuffer(raw, "<u8", ndim, 8))
    return np.frombuffer(raw, "<f8", offset=8 + 8 * ndim).reshape(shape)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _generator(key: str):
    return GENERATORS[key]()


def _build(b: BankSpec):
    return build_pcs_bank(_generator(b.g), _generator(b.h), b.dim, "centered")


def cycle_mults(b: BankSpec, shape, levels: int) -> Fraction:
    """Closed-form multiplies of one decompose+reconstruct cycle (paper's model).

    Per cycle on N samples: (2(q-1)beta + 2(q-1)alpha~ + 2n + 2) / q * N at
    each level, with beta = |supp H| and alpha~ the G taps off the zero
    residue class. Decompose and reconstruct each cost half.
    """
    G, H = _generator(b.g), _generator(b.h)
    q = b.p ** b.dim
    alpha_t = sum(1 for m in G.taps if m % b.p)
    const = Fraction(2 * (q - 1) * len(H.taps) + 2 * (q - 1) * alpha_t + 2 * b.dim + 2, q)
    library = getattr(transform, "pcs_complexity_constant", None)
    if library is not None and library(alpha_t, len(H.taps), b.p, b.dim) != const:
        raise AssertionError(f"{b.name}: pcs_complexity_constant disagrees with the closed form")
    n = int(np.prod(shape))
    return sum((const * Fraction(n, q ** j) for j in range(levels)), Fraction(0))


def _level_samples(t: TransformSpec) -> int:
    q = t.bank.p ** t.bank.dim
    n = int(np.prod(t.shape))
    return sum(n // q ** j for j in range(t.levels))


def _exit_ok(res) -> Optional[str]:
    code, out = res
    return None if code == 0 else f"exit code {code}"


class Workload:
    """One workload's files, operations and gates, under a work directory."""

    def __init__(self, name: str, smoke: bool, work: Path, seed: int):
        self.name = name
        self.key = name + ("/smoke" if smoke else "")
        self.spec = SPECS[(name, smoke)]
        self.work = work
        self.seed = seed
        self.banks: Dict[str, object] = {}
        self.arrays: Dict[str, np.ndarray] = {}
        self.rational: Optional[Tensor] = None

    def path(self, name: str) -> Path:
        return self.work / name

    # --- set-up ---------------------------------------------------------

    def setup(self) -> None:
        """Write the inputs and reference banks the operations need."""
        rng = np.random.default_rng(self.seed)
        order = random.Random(self.seed)
        for b in self.spec.banks():
            if b in self.spec.design:
                # Generators with their taps in seeded order: the designed bank
                # must not depend on it.
                for side in ("g", "h"):
                    doc = filter_to_json(_generator(getattr(b, side)).to_nd())
                    order.shuffle(doc["taps"])
                    dump_json(self.path(f"{b.name}.{side}.json"), doc)
            bank = _build(b)
            self.banks[b.name] = bank
            dump_json(self.path(f"{b.name}.ref.json"), bank_to_json(bank))
        for t in self._transforms():
            arr = rng.standard_normal(t.shape)
            self.arrays[t.bank.name] = arr
            write_pcst(self.path(f"{t.bank.name}.pcst"), arr)
        if self.spec.exact is not None:
            t = self.spec.exact
            size = int(np.prod(t.shape))
            nums = rng.integers(-1000, 1001, size)
            dens = rng.integers(1, 100, size)
            self.rational = Tensor(t.shape, RATIONAL,
                                   [Fraction(int(a), int(d)) for a, d in zip(nums, dens)])

    def write_references(self) -> None:
        """The PCSC each ``analyze`` must reproduce, written by the library here."""
        for t in self._transforms():
            coeffs = transform.decompose_fast(Tensor.from_numpy(self.arrays[t.bank.name]),
                                              self.banks[t.bank.name], t.levels)
            dataio.write_coeffs(self.path(f"{t.bank.name}.ref.pcsc"), coeffs)

    def _transforms(self) -> List[TransformSpec]:
        return list(self.spec.bulk) + ([self.spec.exact] if self.spec.exact else [])

    # --- operations -----------------------------------------------------

    def ops(self) -> List[Op]:
        out: List[Op] = []
        for b in self.spec.design:
            out += self._design_ops(b)
        for t in self.spec.bulk:
            out += self._bulk_ops(t)
        if self.spec.exact is not None:
            out += self._exact_ops(self.spec.exact)
        return out

    def _same_file(self, produced: Path, reference: Path):
        def check(res):
            failure = _exit_ok(res)
            if failure or not produced.exists():
                return failure or f"{produced.name} was not written"
            return None if filecmp.cmp(produced, reference, shallow=False) else \
                f"{produced.name} differs from {reference.name}"
        return check

    def _design_ops(self, b: BankSpec) -> List[Op]:
        out_path = self.path(f"{b.name}.out.json")
        design = Op("design", self._same_file(out_path, self.path(f"{b.name}.ref.json")),
                    argv=["design", "--p", str(b.p), "--dim", str(b.dim),
                          "--g", str(self.path(f"{b.name}.g.json")),
                          "--h", str(self.path(f"{b.name}.h.json")),
                          "--gamma", "centered", "--max-order", MAX_ORDER,
                          "-o", str(out_path)])
        verify = Op("verify", check_verify_output,
                    argv=["verify", str(out_path), "--max-order", MAX_ORDER])
        return [design, verify]

    def _analyze_op(self, t: TransformSpec) -> Op:
        src = self.path(f"{t.bank.name}.pcst")
        dst = self.path(f"{t.bank.name}.out.pcsc")
        return Op("analyze", self._same_file(dst, self.path(f"{t.bank.name}.ref.pcsc")),
                  argv=["analyze", "--bank", str(self.path(f"{t.bank.name}.ref.json")),
                        "--levels", str(t.levels), str(src), "-o", str(dst)],
                  io=[src, dst])

    def _bulk_ops(self, t: TransformSpec) -> List[Op]:
        src = self.path(f"{t.bank.name}.pcst")
        coeffs = self.path(f"{t.bank.name}.out.pcsc")
        back = self.path(f"{t.bank.name}.back.pcst")
        arr = self.arrays[t.bank.name]

        def check(res):
            failure = _exit_ok(res)
            if failure:
                return failure
            if "max abs error" not in res[1]:
                return "synthesize printed no round-trip check"
            err = float(np.max(np.abs(read_pcst(back) - arr)))
            bound = ROUNDTRIP_BOUND * float(np.max(np.abs(arr)))
            return None if err <= bound else f"round-trip error {err:.3e} > {bound:.3e}"

        synth = Op("synthesize", check,
                   argv=["synthesize", "--bank", str(self.path(f"{t.bank.name}.ref.json")),
                         str(coeffs), "-o", str(back), "--check-against", str(src)],
                   io=[coeffs, back, src])
        return [self._analyze_op(t), synth]

    def _exact_ops(self, t: TransformSpec) -> List[Op]:
        shape = "x".join(str(s) for s in t.shape)
        want = cycle_mults(t.bank, t.shape, t.levels)

        def check_bench(res):
            failure = _exit_ok(res)
            if failure:
                return failure
            m = re.search(r"measured multiplicative ops: (\d+)", res[1])
            if "[match]" not in res[1] or m is None:
                return "bench did not report a match with the closed form"
            return None if int(m.group(1)) == want else \
                f"bench measured {m.group(1)} multiplies, closed form {want}"

        bench = Op("bench", check_bench,
                   argv=["bench", "--bank", str(self.path(f"{t.bank.name}.ref.json")),
                         "--shape", shape, "--levels", str(t.levels)])
        bank = self.banks[t.bank.name]

        def roundtrip():
            return transform.reconstruct_fast(
                transform.decompose_fast(self.rational, bank, t.levels), bank)

        def check_roundtrip(back):
            return None if back == self.rational else "rational round trip is not exact"

        exact = Op("exact_roundtrip", check_roundtrip, call=roundtrip)
        return [self._analyze_op(t), bench, exact]

    # --- checks against golden.json ---------------------------------------

    def golden_failures(self, golden: dict) -> List[str]:
        """Bank JSON and probe PCSC digests that differ from golden.json."""
        failures = []
        for b in self.spec.banks():
            got = sha256(self.path(f"{b.name}.ref.json"))
            if golden["banks"].get(b.name) != got:
                failures.append(f"{b.name}: bank JSON digest {got[:12]} is not the golden one")
        for name, got in probe_digests(self.banks, self.work).items():
            if golden["probes"].get(name) != got:
                failures.append(f"{name}: probe PCSC digest {got[:12]} is not the golden one")
        return failures

    def counts(self, ops: List[Op]) -> Dict[str, int]:
        """Exact work counts; they depend on the workload, never on the seed.

        Run after the operations, since dataio.bytes sums the sizes of the
        PCST/PCSC files they read and wrote.
        """
        mults = Fraction(0)
        f64_mults = Fraction(0)
        samples = 0
        kernel_bytes = 0
        for t in self.spec.bulk:          # analyze + synthesize: one full cycle
            cyc = cycle_mults(t.bank, t.shape, t.levels)
            mults += cyc
            f64_mults += cyc
            samples += 2 * int(np.prod(t.shape))
            kernel_bytes += 2 * 16 * _level_samples(t)
        if self.spec.exact is not None:   # analyze (half) + bench + round trip
            t = self.spec.exact
            cyc = cycle_mults(t.bank, t.shape, t.levels)
            mults += cyc / 2 + 2 * cyc
            f64_mults += cyc / 2
            samples += 5 * int(np.prod(t.shape))
            kernel_bytes += 16 * _level_samples(t)
        taps = 0
        for bank in self.banks.values():
            taps += sum(f.support_size for f in bank.analysis_filters())
            taps += sum(f.support_size for f in bank.synthesis_filters())
        # Term products of S.A: sum over filter pairs of |analysis| * |synthesis|.
        sa_terms = sum(a.support_size * s.support_size
                       for b in self.spec.design
                       for a, s in zip(self.banks[b.name].analysis_filters(),
                                       self.banks[b.name].synthesis_filters()))
        io_bytes = sum(p.stat().st_size for op in ops for p in op.io if p.exists())
        return {
            "transform.mults": int(mults),
            "transform.samples": samples,
            "filterbank.taps_total": taps,
            "polyphase.sa_terms": sa_terms,
            "dataio.bytes": io_bytes,
            "kernels.bytes_computed": kernel_bytes,
            "kernels.f64_mults": int(f64_mults),
        }


def check_verify_output(res) -> Optional[str]:
    """``verify`` must exit 0 and report every check as PASS."""
    failure = _exit_ok(res)
    if failure:
        return failure
    lines = [ln for ln in res[1].splitlines() if ln.startswith(("PASS", "FAIL"))]
    if not lines or any(ln.startswith("FAIL") for ln in lines):
        return "verify reported a failed check"
    return None


def probe_digests(banks: Dict[str, object], work: Path) -> Dict[str, str]:
    """SHA-256 of the PCSC of a fixed seed-0 tensor, for each probed bank."""
    out = {}
    for name, bank in banks.items():
        if name not in PROBES:
            continue
        shape, levels = PROBES[name]
        arr = np.random.default_rng(0).standard_normal(shape)
        path = work / f"{name}.probe.pcsc"
        dataio.write_coeffs(path, transform.decompose_fast(Tensor.from_numpy(arr), bank, levels))
        out[name] = sha256(path)
    return out


def run_inprocess(op: Op):
    """Run an operation in this process: ``cli.main`` for a command line."""
    if op.call is not None:
        return op.call()
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(op.argv)
        except SystemExit as exc:    # argparse rejects a command line this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def golden_values() -> dict:
    """The values golden.json pins, computed from the current program."""
    banks, probes, counts = {}, {}, {}
    for (name, smoke) in SPECS:
        with tempfile.TemporaryDirectory() as tmp:
            wl = Workload(name, smoke, Path(tmp), seed=0)
            wl.setup()
            wl.write_references()
            ops = wl.ops()
            for op in ops:
                failure = op.check(run_inprocess(op))
                if failure:
                    raise AssertionError(f"{wl.key}: {failure}")
            for b in wl.spec.banks():
                banks[b.name] = sha256(wl.path(f"{b.name}.ref.json"))
            probes.update(probe_digests(wl.banks, wl.work))
            counts[wl.key] = wl.counts(ops)
    return {"banks": banks, "probes": probes, "counts": counts}
