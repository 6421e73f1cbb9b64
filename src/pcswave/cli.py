"""Command-line front end: bank design, verification, transforms, benchmarks.

Exit codes: 0 success, 1 a mathematical verification failed, 2 bad input
(parse errors, violated preconditions, I/O, running out of memory). A command
prints its report to stdout as text and returns it with its exit code;
:func:`main` writes it to ``--json PATH``, on exit 0 and 1 alike, through
:func:`pcswave.filterbank.write_json` like the bank and the polyphase dump.
The reports of ``design`` and ``verify`` carry ``timings``, the wall seconds
of each stage of that run.

A command imports only what it runs, inside the command: ``--help`` loads
argparse and no module of the exact algebra. ``design``, ``verify`` and
``bench`` load the exact modules alone; ``bench`` counts multiplies over the
transform's numpy-free plan and exits 1 when the count differs from the
closed form. ``analyze`` and ``synthesize`` add the kernels, the tensors and
the PCST/PCSC codecs, and with them numpy. The package's records are
``__slots__`` classes and ``NamedTuple``s, so no command imports
``dataclasses`` or, before numpy, ``inspect``.

:func:`main` runs the command with CPython's cyclic collector disabled and
restores its previous state on every exit, so in-process callers keep theirs.
The exact layers build only acyclic dicts, tuples and ints, which reference
counting frees; a command leaves the same few hundred cyclic objects
(argparse's, json's encoder closures, numpy's first import) whatever the
bank's size, and the full collector passes over ~10^5 live containers that a
large bank load would otherwise trigger cost time and find nothing.
``tests/test_collector.py::test_commands_leave_no_cycles_that_grow_with_the_bank``
guards this.

The ``pcswave`` script and ``python -m pcswave.cli`` run :func:`run`,
which calls :func:`main`, then ``gc.freeze()``, then ``sys.exit`` with its
code. Interpreter finalization runs full collections over every live object
whether or not the collector is enabled, and frozen objects are out of their
reach: they took about 20 ms of every process with numpy and pcswave
loaded, and would find nothing to free. ``os._exit`` would skip flushing the
streams and the atexit handlers, so it is not used. :func:`main` itself
freezes nothing.

``synthesize --check-against`` checks the reference before it reconstructs,
then reads it in chunks (:func:`pcswave.dataio.compare_tensor`), never whole.

No command calls BLAS: the float64 steps are numpy ufuncs and block copies,
and the exact ones are pure Python. :func:`run` sets
``OPENBLAS_NUM_THREADS=1`` for its process unless the variable is already
set, before any command imports numpy, so that the import starts no OpenBLAS
thread pool. A user's own value is kept. Starting the pool cost about 0.07 s
of each ``analyze`` and ``synthesize`` on a 2-CPU host, and no output depends
on it. :func:`main` sets nothing, so an in-process caller keeps its own
environment.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

from .errors import DimensionMismatch, FormatError, PcswaveError

# read by OpenBLAS, which numpy loads, once when numpy is imported
BLAS_THREADS = "OPENBLAS_NUM_THREADS"


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            # ValueError covers bad syntax, bad UTF-8 and over-long integers
            raise FormatError(f"{path}: not valid JSON ({exc})") from exc


def _dump_json(path, doc) -> None:
    from .filterbank import write_json
    with open(path, "w", encoding="utf-8") as fh:
        write_json(fh, doc)


def _load_filter_1d(path, p: int):
    from .filters import filter_from_json, to_1d
    try:
        f = to_1d(filter_from_json(_load_json(path)))
    except DimensionMismatch as exc:  # the refusal of to_1d, which does not name the file
        raise DimensionMismatch(f"{path}: {exc}") from exc
    if f.p != p:
        raise PcswaveError(f"{path}: filter dilation {f.p} does not match --p {p}")
    return f


def _require_max_order(max_order: int) -> None:
    """Refuse --max-order before anything is built or written."""
    if max_order < 1:
        raise PcswaveError(f"--max-order must be >= 1, got {max_order}")


def _stages(clock, *names) -> dict:
    """Seconds between consecutive perf_counter readings, by stage name."""
    return {name: b - a for name, a, b in zip(names, clock, clock[1:])}


def cmd_design(args) -> tuple[int, dict]:
    from .filterbank import build_pcs_bank, guarantee_floor, write_bank_json
    _require_max_order(args.max_order)
    clock = [time.perf_counter()]
    G = _load_filter_1d(args.g, args.p)
    H = _load_filter_1d(args.h, args.p)
    bank = build_pcs_bank(G, H, args.dim, args.gamma)
    clock.append(time.perf_counter())
    with open(args.output, "w", encoding="utf-8") as fh:
        write_bank_json(fh, bank)
    clock.append(time.perf_counter())
    floor = guarantee_floor(bank, args.max_order)
    clock.append(time.perf_counter())

    sizes = {"tau": bank.tau.support_size, "tau_d": bank.tau_d.support_size,
             "t": sorted({f.support_size for f in bank.t.values()}),
             "t_d": sorted({f.support_size for f in bank.t_d.values()})}
    print(f"bank written to {args.output}")
    print(f"p={bank.p} dim={bank.n} convention={bank.sys.convention} q={bank.q}")
    print(f"support sizes: tau={sizes['tau']} tau_d={sizes['tau_d']} "
          f"t={sizes['t']} t_d={sizes['t_d']}")
    print(f"vanishing-moment guarantee floor: {floor}")
    return 0, {"output": args.output, "p": bank.p, "dim": bank.n,
               "convention": bank.sys.convention, "support_sizes": sizes,
               "guarantee_floor": floor,
               "timings": _stages(clock, "build_s", "write_s", "report_s")}


def _diag_row(name, nu, d) -> str:
    label = name if nu is None else f"{name}({','.join(map(str, nu))})"
    return (f"  {label:<16} support={d.support_size:<4} accuracy={d.accuracy:<3} "
            f"vmoments={d.vanishing_moments:<3} flatness={d.flatness:<3} "
            f"lowpass={'y' if d.is_lowpass else 'n'} "
            f"interpolatory={'y' if d.is_interpolatory else 'n'}")


def cmd_verify(args) -> tuple[int, dict]:
    from .filterbank import (bank_from_json, bank_polyphase_matrices, bank_report,
                             verify_combined_biorthogonality)
    from .filters import is_biorthogonal, is_interpolatory
    _require_max_order(args.max_order)
    clock = [time.perf_counter()]
    bank = bank_from_json(_load_json(args.bank), cross_check=False)
    clock.append(time.perf_counter())
    if args.dump_polyphase:
        _dump_json(args.dump_polyphase, {
            name: {"rows": m.rows, "cols": m.cols, "entries": m.entries}
            for name, m in zip("AS", bank_polyphase_matrices(bank))})
    ver = verify_combined_biorthogonality(bank)
    clock.append(time.perf_counter())
    interp = is_interpolatory(bank.tau_d)
    biorth = is_biorthogonal(bank.tau, bank.tau_d)
    rep = bank_report(bank, args.max_order)
    clock.append(time.perf_counter())

    checks = [
        ("combined biorthogonality (S.A = (1/q) I)", ver.passed, ver.describe()),
        ("tau_d interpolatory", interp, ""),
        ("(tau, tau_d) biorthogonal", biorth, ""),
        ("vanishing-moment floor respected", not rep.floor_violations,
         "; ".join(rep.floor_violations)),
    ]
    ok = all(passed for _, passed, _ in checks)
    for label, passed, detail in checks:
        line = f"{'PASS' if passed else 'FAIL'}  {label}"
        if detail and not passed:
            line += f"  [{detail}]"
        print(line)
    print(f"guarantee floor: {rep.guarantee_floor}")
    print("diagnostics:")
    for fr in rep.filters:
        print(_diag_row(fr.name, fr.nu, fr.diag))
    return 0 if ok else 1, {
        "checks": {label: passed for label, passed, _ in checks},
        "guarantee_floor": rep.guarantee_floor,
        "floor_violations": rep.floor_violations,
        "diagnostics": [{
            "name": fr.name,
            "nu": None if fr.nu is None else list(fr.nu),
            "support": fr.diag.support_size,
            "accuracy": fr.diag.accuracy,
            "vanishing_moments": fr.diag.vanishing_moments,
            "flatness": fr.diag.flatness,
            "lowpass": fr.diag.is_lowpass,
            "interpolatory": fr.diag.is_interpolatory,
        } for fr in rep.filters],
        "passed": ok,
        "timings": _stages(clock, "load_s", "sa_check_s", "report_s"),
    }


def cmd_analyze(args) -> tuple[int, dict]:
    from . import dataio
    from .filterbank import bank_from_json
    from .transform import decompose_direct, decompose_fast
    bank = bank_from_json(_load_json(args.bank))
    y = dataio.read_tensor(args.input)
    coeffs = decompose_fast(y, bank, args.levels)
    dataio.write_coeffs(args.output, coeffs)
    print(f"analyzed {args.input} shape={'x'.join(map(str, y.shape))} "
          f"levels={args.levels} -> {args.output}")
    report = {"input": args.input, "output": args.output,
              "shape": list(y.shape), "levels": args.levels}
    if args.oracle:
        ref = decompose_direct(y, bank, args.levels)
        dev = coeffs.coarse.max_abs_diff(ref.coarse)
        for fast, direct in zip(coeffs.details, ref.details):
            dev = max(dev, *(t.max_abs_diff(r) for t, r in zip(fast, direct)))
        print(f"oracle cross-check: max abs deviation from direct transform = {dev:.3e}")
        report["oracle_max_abs_deviation"] = dev
    return 0, report


def cmd_synthesize(args) -> tuple[int, dict]:
    from . import dataio
    from .filterbank import bank_from_json
    from .transform import reconstruct_fast
    bank = bank_from_json(_load_json(args.bank))
    coeffs = dataio.read_coeffs(args.input, bank.sys)
    levels = len(coeffs.details)
    if args.levels is not None and args.levels != levels:
        raise PcswaveError(f"--levels {args.levels} does not match file ({levels})")
    if args.check_against:
        dataio.check_reference(args.check_against, coeffs.input_shape())
        if os.path.exists(args.output) and os.path.samefile(args.output, args.check_against):
            raise PcswaveError(f"-o {args.output} is the --check-against reference")
    y = reconstruct_fast(coeffs, bank)
    del coeffs  # before the reference is read
    dataio.write_tensor(args.output, y)
    print(f"synthesized {args.input} levels={levels} -> {args.output} "
          f"shape={'x'.join(map(str, y.shape))}")
    report = {"input": args.input, "output": args.output,
              "shape": list(y.shape), "levels": levels}
    if args.check_against:
        err, peak = dataio.compare_tensor(args.check_against, y)
        scale = peak or 1.0
        print(f"round-trip check vs {args.check_against}: max abs error = {err:.3e} "
              f"({err / scale:.3e} of peak)")
        report["max_abs_error"] = err
    return 0, report


def _parse_shape(text: str):
    try:
        shape = tuple(int(s) for s in text.lower().replace(",", "x").split("x"))
    except ValueError as exc:
        raise PcswaveError(f"bad shape {text!r}; use e.g. 81x81") from exc
    if not shape or any(s < 1 for s in shape):
        raise PcswaveError(f"bad shape {text!r}")
    return shape


def cmd_bench(args) -> tuple[int, dict]:
    from fractions import Fraction

    from .filterbank import bank_from_json
    from .transform import count_ops
    bank = bank_from_json(_load_json(args.bank))
    shape = _parse_shape(args.shape)
    oc = count_ops(bank, shape, args.levels)
    per_sample = Fraction(oc.multiplicative_ops, oc.data_points)
    match = oc.predicted == oc.multiplicative_ops
    print(f"shape={'x'.join(map(str, shape))} levels={oc.levels} "
          f"alpha={oc.alpha} beta={oc.beta} alpha_tilde={oc.alpha_tilde}")
    print(f"measured multiplicative ops: {oc.multiplicative_ops}")
    print(f"predicted (closed form):     {oc.predicted} "
          f"[{'match' if match else 'MISMATCH'}]")
    print(f"per-sample constant (1 cycle): {oc.pcs_constant} "
          f"~= {float(oc.pcs_constant):.3f}")
    report = {"shape": list(shape), "levels": oc.levels,
              "alpha": oc.alpha, "beta": oc.beta, "alpha_tilde": oc.alpha_tilde,
              "measured": oc.multiplicative_ops, "predicted": str(oc.predicted),
              "per_sample_measured": str(per_sample),
              "pcs_constant": str(oc.pcs_constant)}
    if args.compare_tensor_model:
        print(f"tensor-product model per sample: (alpha+beta)*n = {oc.tensor_model}")
        report["tensor_model"] = str(oc.tensor_model)
        if bank.p == 2:
            c_pcs = oc.alpha + 2 * oc.beta + 2
            c_tp = (oc.alpha + oc.beta) * bank.n
            rel = "<=" if c_pcs <= c_tp else ">"
            print(f"dyadic bound: C_PCS = alpha+2*beta+2 = {c_pcs} {rel} "
                  f"C_TP = (alpha+beta)*n = {c_tp}")
            report.update(c_pcs=c_pcs, c_tp=c_tp)
    return 0 if match else 1, report


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pcswave",
        description="Non-separable wavelet filter banks from 1-D filters via "
                    "the prime coset sum, with exact verification and fast "
                    "n-D transforms.")
    sub = ap.add_subparsers(dest="command", required=True)

    d = sub.add_parser("design", help="build a bank from two 1-D lowpass filters")
    d.add_argument("--p", type=int, required=True, help="prime dilation")
    d.add_argument("--dim", type=int, required=True, help="spatial dimension n")
    d.add_argument("--g", required=True, help="path to the 1-D filter G (JSON)")
    d.add_argument("--h", required=True, help="path to the interpolatory 1-D filter H (JSON)")
    d.add_argument("--gamma", choices=["standard", "centered"], default="standard")
    d.add_argument("-o", "--output", required=True, help="bank JSON output path")
    d.add_argument("--max-order", type=int, default=20, dest="max_order")
    d.set_defaults(func=cmd_design)

    v = sub.add_parser("verify", help="verify a bank's exact identities")
    v.add_argument("bank", help="bank JSON path")
    v.add_argument("--max-order", type=int, default=20, dest="max_order")
    v.add_argument("--dump-polyphase", dest="dump_polyphase",
                   help="write the bank's A and S term maps to this path")
    v.set_defaults(func=cmd_verify)

    a = sub.add_parser("analyze", help="decompose a PCST tensor into PCSC subbands")
    a.add_argument("--bank", required=True)
    a.add_argument("--levels", type=int, required=True)
    a.add_argument("input", help="PCST input path")
    a.add_argument("-o", "--output", required=True, help="PCSC output path")
    a.add_argument("--oracle", action="store_true",
                   help="cross-check against the direct filter-and-resample transform")
    a.set_defaults(func=cmd_analyze)

    s = sub.add_parser("synthesize", help="reconstruct a PCST tensor from PCSC subbands")
    s.add_argument("--bank", required=True)
    s.add_argument("--levels", type=int, default=None,
                   help="optional consistency check against the file header")
    s.add_argument("input", help="PCSC input path")
    s.add_argument("-o", "--output", required=True, help="PCST output path")
    s.add_argument("--check-against", dest="check_against",
                   help="PCST reference to compare the reconstruction with")
    s.set_defaults(func=cmd_synthesize)

    b = sub.add_parser("bench", help="count multiplicative ops against the closed form")
    b.add_argument("--bank", required=True)
    b.add_argument("--shape", required=True, help="e.g. 81x81")
    b.add_argument("--levels", type=int, default=1)
    b.add_argument("--compare-tensor-model", action="store_true")
    b.set_defaults(func=cmd_bench)
    for command in sub.choices.values():
        command.add_argument("--json", help="write the JSON report to this path")
    return ap


def main(argv=None) -> int:
    """Run one command with the cyclic collector off, then restore its state."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        code, report = args.func(args)
        if args.json:
            _dump_json(args.json, report)
        return code
    except (PcswaveError, OSError, MemoryError) as exc:
        print("error:", str(exc) or "out of memory", file=sys.stderr)
        return 2
    finally:
        if was_enabled:
            gc.enable()


def run() -> None:
    """The ``pcswave`` script: one OpenBLAS thread unless the user set a
    count, then :func:`main`, then exit with its code, its live objects
    frozen out of the finalizer's collections."""
    os.environ.setdefault(BLAS_THREADS, "1")
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
