#!/usr/bin/env python3
"""pcswave benchmark: CLI wall times end to end, per-module times from a traced run.

Usage, from the repository root (the program is taken from ``src/``):

    python3 pcsbench/run.py --workload design_verify|bulk_f64|exact_check \\
        --seed N --seconds S --trace 0|1 [--smoke]

``--trace 0`` sets the workload up three times (``setup_s`` is the median)
and then runs passes of its operations until S seconds have gone. Each
pcswave command runs as a subprocess, one at a time, as a user runs it.
``--trace 1`` sets up once, then replays one pass in this process twice:
untraced, then traced. It reports per-layer metrics and the tracing
overhead. Every operation's output is checked in both modes (see
workloads.py). ``--smoke`` runs reduced sizes for pcsbench/test_smoke.py.

End-to-end metrics: ``setup_s``; ``pass_s``, the sum over the pass's
operations of each one's median wall time; ``peak_rss_mb``, the largest
resident set of any child process; ``ok_share``, the share of operations
and checks that passed (1 - failed share). The wall time of each kind of
command is reported beside them. Every workload runs only some commands,
and a bounded metric must exist on every workload, so these are not bounded.

The last line of stdout is the JSON result. The lines above it give the
environment and every metric, and each wall time as median, tail percentile
and sample count. A fuller report and the spans go to .pcsbench/results/.
Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".pcsbench"
SETUPS = 3
STARTUP_PROBES = 5
DEADLINE_S = 165.0
# Settings that would pick another backend or a thread count than the default.
ENV_KNOBS = ("PCSWAVE_BACKEND", "PCSWAVE_THREADS")
# Wall times per operation kind, as the report names them.
OP_METRICS = ("design_s", "verify_s", "analyze_s", "synthesize_s", "bench_s",
              "exact_roundtrip_s")


def summary(samples):
    """Median, and the highest percentile with at least 10 samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    tail = None
    if n >= 11:
        k = n - 11
        tail = {"percentile": 100.0 * (k + 1) / n, "value": xs[k]}
    return {"median": statistics.median(xs), "tail": tail, "n": n}


def l3_bytes():
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                size = (index / "size").read_text().strip()
                scale = {"K": 1024, "M": 1024 ** 2}.get(size[-1], 1)
                return int(size.rstrip("KM")) * scale
        except (OSError, ValueError):
            return None
    return None


def environment(removed):
    import numpy
    from pcswave import kernels
    try:
        import numba
        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    backend = getattr(kernels, "default_backend", None)
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "numba": numba_version, "backend": backend() if backend else None,
            "nproc": os.cpu_count(), "l3_bytes": l3_bytes(),
            "env_removed": removed}


class Runner:
    """Runs pcswave commands as subprocesses against the checkout's sources."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")

    def python(self, args):
        """(exit code, stdout) and wall seconds; a child past the deadline is killed."""
        t0 = time.perf_counter()
        try:
            p = subprocess.run([sys.executable, *args], cwd=self.work, env=self.env,
                               capture_output=True, text=True,
                               timeout=max(1.0, self.deadline - time.monotonic()))
            res = (p.returncode, p.stdout)
        except subprocess.TimeoutExpired:
            res = (-9, "")
        return res, time.perf_counter() - t0

    def cli(self, argv):
        return self.python(["-m", "pcswave.cli", *argv])


def clear(work: Path) -> None:
    for path in work.iterdir():
        path.unlink()


class Gates:
    """Counts attempted and failed operations, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, what: str, reason) -> None:
        self.attempted += 1
        if reason:
            self.failures.append(f"{what}: {reason}")

    def check(self, op, res) -> None:
        try:
            reason = op.check(res)
        except Exception as exc:    # a broken output must count, not crash the run
            reason = f"check raised {exc!r}"
        self.record(op.metric, reason)

    def counts(self, wl, ops, golden):
        counts = wl.counts(ops)
        want = golden["counts"].get(wl.key)
        pinned = {k: counts[k] for k in want or {}}
        self.record("counts", None if want == pinned else
                    f"work counts {pinned} differ from golden.json {want}")
        return counts


def run_call(op):
    """An in-process operation, timed; an exception is its result."""
    t0 = time.perf_counter()
    try:
        res = op.call()
    except Exception as exc:    # reported by the operation's gate
        res = exc
    return res, time.perf_counter() - t0


def measure(args, work, golden, deadline, gates):
    """Untraced run: end-to-end metrics."""
    from workloads import Workload
    runner = Runner(work, deadline)
    setup_times = []
    for _ in range(SETUPS):
        clear(work)
        t0 = time.perf_counter()
        wl = Workload(args.workload, args.smoke, work, args.seed)
        wl.setup()
        runner.cli(["--help"])          # warm-up
        setup_times.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    wl.write_references()
    reference_s = time.perf_counter() - t0
    for reason in wl.golden_failures(golden) or [None]:
        gates.record("golden", reason)

    ops = wl.ops()
    samples = defaultdict(list)     # per kind of operation, summed over a pass
    per_op = [[] for _ in ops]      # per operation of the pass
    passes = []
    counts = None
    start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        walls = defaultdict(float)
        for op, times in zip(ops, per_op):
            res, wall = runner.cli(op.argv) if op.argv else run_call(op)
            times.append(wall)
            walls[op.metric + "_s"] += wall
            gates.check(op, res)
        passes.append(sum(walls.values()))
        for key, wall in walls.items():
            samples[key].append(wall)
        if counts is None:
            counts = gates.counts(wl, ops, golden)
        now = time.perf_counter()
        if now - start >= args.seconds or \
                time.monotonic() + 1.5 * (now - t_pass) > deadline:
            break

    failed = len(gates.failures)
    metrics = {
        "setup_s": statistics.median(setup_times),
        # A typical pass: each operation at its median, which damps a slow
        # spell that hits different operations in different passes.
        "pass_s": sum(statistics.median(times) for times in per_op),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "ok_share": 1.0 - failed / gates.attempted,
    }
    report = {"setup_s": summary(setup_times), "reference_s": reference_s,
              "pass_s": summary(passes)}
    for key in OP_METRICS:
        report[key] = summary(samples[key]) if key in samples else None
    if "analyze_s" in samples and "synthesize_s" in samples:
        n = sum(math.prod(t.shape) for t in wl.spec.bulk)
        report["f64_msamples_per_s"] = n / (report["analyze_s"]["median"]
                                            + report["synthesize_s"]["median"]) / 1e6
    report["peak_rss_mb"] = metrics["peak_rss_mb"]
    report["failed_share"] = failed / gates.attempted
    return metrics, {"wall_times": report, "counts": counts,
                     "samples": {"setup_s": setup_times, "pass_s": passes, **samples}}


def trace(args, work, golden, deadline, gates):
    """Traced run: per-layer metrics and the tracing overhead."""
    import tracing
    from pcswave import filterbank
    from workloads import Workload, run_inprocess
    runner = Runner(work, deadline)
    wl = Workload(args.workload, args.smoke, work, args.seed)
    wl.setup()
    wl.write_references()
    for reason in wl.golden_failures(golden) or [None]:
        gates.record("golden", reason)
    startup = [runner.python(["-c", "import pcswave.cli"])[1] for _ in range(STARTUP_PROBES)]

    ops = wl.ops()
    docs = [(b.name, wl.path(f"{b.name}.ref.json").read_text()) for b in wl.spec.banks()]

    def replay(tracer):
        def span(name):
            return tracer.span(name) if tracer else nullcontext()
        t0 = time.perf_counter()
        for i, op in enumerate(ops):
            if tracer:
                tracer.request = i
            with span(f"op.{op.metric}"):
                res = run_inprocess(op) if op.argv else run_call(op)[0]
            gates.check(op, res)
        for i, (name, text) in enumerate(docs):
            if tracer:
                tracer.request = len(ops) + i
            with span("bench.load_probe"):
                filterbank.bank_from_json(json.loads(text))
                filterbank.bank_from_json(json.loads(text), cross_check=False)
        return time.perf_counter() - t0

    plain = replay(None)
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        traced = replay(tracer)
    records = tracer.records()
    counts = gates.counts(wl, ops, golden)

    metrics = tracing.layer_metrics(records)
    metrics.update({k: v for k, v in counts.items() if k != "kernels.f64_mults"})
    kbytes = counts["kernels.bytes_computed"]
    metrics["kernels.ops_per_byte_computed"] = counts["kernels.f64_mults"] / kbytes if kbytes else 0.0
    metrics["cli.startup_s"] = statistics.median(startup)
    metrics["trace.replay_s"] = plain
    metrics["trace.overhead_s"] = traced - plain
    metrics["trace.overhead_share"] = (traced - plain) / plain
    metrics["trace.spans"] = len(records)
    return metrics, {"counts": counts, "replay_s": plain, "traced_replay_s": traced,
                     "spans": records}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["design_verify", "bulk_f64", "exact_check"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="reduced sizes, for the smoke test")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    # On SIGTERM, unwind: subprocess.run kills and reaps the running child,
    # and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "pcswave" / "__init__.py").is_file():
        print(f"error: no pcswave sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    removed = [k for k in ENV_KNOBS if os.environ.pop(k, None) is not None]
    sys.path.insert(0, str(SRC))
    import pcswave
    if Path(pcswave.__file__).resolve().parent != SRC / "pcswave":
        print(f"error: imported pcswave from {pcswave.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    golden = json.loads((HERE / "golden.json").read_text())

    OUT.mkdir(exist_ok=True)
    (OUT / "results").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    gates = Gates()
    try:
        metrics, detail = (trace if args.trace else measure)(args, work, golden, deadline, gates)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    result = {"correct": not gates.failures, "attempted": gates.attempted,
              "failed": len(gates.failures),
              "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
                          for m in wanted}}
    stem = f"{args.workload}{'-smoke' if args.smoke else ''}-seed{args.seed}"
    env = environment(removed)
    spans = detail.pop("spans", None)
    if spans is not None:
        (OUT / "results" / f"{stem}-spans.json").write_text(json.dumps(spans))
    (OUT / "results" / f"{stem}-trace{args.trace}.json").write_text(json.dumps(
        {"args": vars(args), "environment": env, "result": result,
         "failures": gates.failures, **detail}, indent=1))

    print(f"environment: {json.dumps(env)}")
    for reason in gates.failures:
        print(f"FAILED {reason}")
    for key, entry in detail.get("wall_times", {}).items():
        print(f"{key:<22} {json.dumps(entry) if entry is not None else 'not run in this workload'}")
    for name, m in result["metrics"].items():
        print(f"{name:<40} {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
