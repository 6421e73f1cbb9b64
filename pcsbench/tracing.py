"""In-memory spans around calls into pcswave's modules, for the traced run.

The traced run replays each operation in this process. While it runs,
selected public functions of the package are replaced, in every pcswave
module namespace that binds them, by wrappers that record one span per call:
name, start, end, parent span and the operation (request) it belongs to.
Nothing inside the package changes, and the wrappers are removed when the
replay ends. Spans stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List


class Tracer:
    def __init__(self):
        self.spans: List[dict] = []
        self.request = 0
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "request": self.request, "name": name,
               "parent": self._stack[-1] if self._stack else None, "attrs": attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def ancestor_attr(self, key: str):
        for sid in reversed(self._stack):
            if key in self.spans[sid]["attrs"]:
                return self.spans[sid]["attrs"][key]
        return None

    def records(self) -> List[dict]:
        """Spans with duration and self time (duration minus child spans)."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return [dict(s, duration=s["end"] - s["start"],
                     self_time=s["end"] - s["start"] - child[s["id"]]) for s in self.spans]


def _size(shape) -> int:
    return math.prod(int(s) for s in shape)


def _load(args, kwargs):
    nocheck = kwargs.get("cross_check", True) is False
    return "filterbank.bank_from_json" + ("_nocheck" if nocheck else ""), {}


def _decompose(args, kwargs):
    y = args[0]
    kind = "rational_decompose" if y.mode == "rational" else "decompose_fast"
    return f"transform.{kind}", {"samples": _size(y.shape)}


def _reconstruct(args, kwargs):
    c = args[0]
    kind = "rational_reconstruct" if c.mode == "rational" else "reconstruct_fast"
    return f"transform.{kind}", {"samples": _size(c.input_shape())}


# (module, function, span name or namer(args, kwargs) -> (name, attrs))
FUNCTIONS = [
    ("cli", "_load_json", "cli.json_parse"),
    ("cosetsum", "prime_coset_sum", "cosetsum.prime_coset_sum"),
    ("filterbank", "build_general", "filterbank.build_general"),
    ("filterbank", "pcs_wavelet_masks", "filterbank.pcs_wavelet_masks"),
    ("filterbank", "build_pcs_bank", "filterbank.build_pcs_bank"),
    ("filterbank", "bank_to_json", "filterbank.bank_to_json"),
    ("filterbank", "bank_from_json", _load),
    ("filterbank", "verify_combined_biorthogonality",
     "filterbank.verify_combined_biorthogonality"),
    ("filterbank", "bank_polyphase_matrices", "filterbank.bank_polyphase_matrices"),
    ("filterbank", "bank_report", "filters.bank_report"),
    ("polyphase", "matmul", "polyphase.matmul"),
    ("polyphase", "identity_residuals", "polyphase.identity_residuals"),
    ("filters", "is_interpolatory", "filters.is_interpolatory"),
    ("filters", "is_biorthogonal", "filters.is_biorthogonal"),
    ("transform", "bank_tables", "transform.bank_tables"),
    ("transform", "decompose_fast", _decompose),
    ("transform", "reconstruct_fast", _reconstruct),
    ("transform", "count_ops", "transform.count_ops"),
    ("dataio", "read_tensor", "dataio.read_tensor"),
    ("dataio", "write_tensor", "dataio.write_tensor"),
    ("dataio", "read_coeffs", "dataio.read_coeffs"),
    ("dataio", "write_coeffs", "dataio.write_coeffs"),
]


def _wrap(tracer: Tracer, fn, label):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name, attrs = label(args, kwargs) if callable(label) else (label, {})
        with tracer.span(name, **attrs):
            return fn(*args, **kwargs)
    return wrapper


def _level_namer(tracer: Tracer, kind: str, fine_size):
    """Kernel spans are named by level: j1 is the finest, j2 the next coarser."""
    def namer(args, kwargs):
        kern = args[0]
        fine = fine_size(kern, args)
        full = tracer.ancestor_attr("samples") or fine
        level = 1 + round(math.log(full / fine, kern.p ** kern.n))
        return f"kernels.{kind}.j{level}", {"samples": fine}
    return namer


@contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "pcswave" or name.startswith("pcswave.")]
    undo = []
    for mod, attr, label in FUNCTIONS:
        home = sys.modules.get(f"pcswave.{mod}")
        orig = getattr(home, attr, None)
        if orig is None:
            continue
        wrapped = _wrap(tracer, orig, label)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapped)
                    undo.append((m, key, orig))
    kernels = sys.modules.get("pcswave.kernels")
    cls = getattr(kernels, "LevelKernels", None)
    methods = {"decompose_level": lambda k, a: _size(a[1].shape),
               "reconstruct_level": lambda k, a: _size(a[1].shape) * k.p ** k.n}
    for attr, fine_size in methods.items():
        orig = getattr(cls, attr, None)
        if orig is not None:
            setattr(cls, attr, _wrap(tracer, orig, _level_namer(tracer, attr, fine_size)))
            undo.append((cls, attr, orig))
    try:
        yield tracer
    finally:
        for target, key, orig in reversed(undo):
            setattr(target, key, orig)


def layer_metrics(records: List[dict], levels=(1, 2)) -> Dict[str, float]:
    """Per-layer times from the spans of one traced replay.

    ``<name>_s`` is the summed duration of the spans of that name;
    kernel spans ``kernels.<step>.j<J>`` become ``kernels.<step>_s.j<J>``.
    ``kernels.msamples_per_s.j<J>`` is the level's samples, both directions,
    over its time in both directions. ``filterbank.load_rebuild_share`` is
    1 - nocheck/check, from the load probes only.
    """
    total = defaultdict(float)
    samples = defaultdict(int)
    for r in records:
        total[r["name"]] += r["duration"]
        samples[r["name"]] += r["attrs"].get("samples", 0)
    out: Dict[str, float] = {}
    for name, t in total.items():
        if name.startswith("kernels."):
            step, level = name.rsplit(".", 1)
            out[f"{step}_s.{level}"] = t
        else:
            out[f"{name}_s"] = t
    for j in levels:
        names = [f"kernels.decompose_level.j{j}", f"kernels.reconstruct_level.j{j}"]
        t = sum(total[n] for n in names)
        out[f"kernels.msamples_per_s.j{j}"] = sum(samples[n] for n in names) / t / 1e6 if t else 0.0
    probe_ids = {r["id"] for r in records if r["name"] == "bench.load_probe"}
    probe = defaultdict(float)
    for r in records:
        if r["parent"] in probe_ids:
            probe[r["name"]] += r["duration"]
    check = probe["filterbank.bank_from_json"]
    out["filterbank.load_rebuild_share"] = (
        1.0 - probe["filterbank.bank_from_json_nocheck"] / check if check else 0.0)
    return out
