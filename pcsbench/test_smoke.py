"""Smoke test of the benchmark: every workload at reduced size, untraced and traced.

Run from the repository root:

    python3 -m pytest -q pcsbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
COUNTS = ("transform.mults", "transform.samples", "filterbank.taps_total",
          "polyphase.sa_terms", "dataio.bytes", "kernels.bytes_computed")


def run(cwd, workload, seed, trace):
    return subprocess.run(
        [sys.executable, "pcsbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result(workload, seed, trace):
    proc = run(ROOT, workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, proc.stdout
    return res


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    res = result(workload, 1, 0)
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_counts_repeat_across_seeds(workload):
    first, second = result(workload, 1, 1), result(workload, 2, 1)
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == want
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["trace.replay_s"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "pcsbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, WORKLOADS[0], 1, 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_gates_reject_wrong_outputs(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    good = "PASS  a\nPASS  b\nguarantee floor: 1\n"
    assert workloads.check_verify_output((0, good)) is None
    assert workloads.check_verify_output((0, good + "FAIL  c\n"))
    assert workloads.check_verify_output((1, good))

    wl = workloads.Workload("bulk_f64", True, tmp_path, seed=1)
    wl.setup()
    wl.write_references()
    analyze = wl.ops()[0]
    assert analyze.check((0, "")) is not None        # no output written yet
    out = tmp_path / "deg4_p3_n2.out.pcsc"
    ref = (tmp_path / "deg4_p3_n2.ref.pcsc").read_bytes()
    out.write_bytes(ref)
    assert analyze.check((0, "")) is None
    out.write_bytes(ref[:-1] + bytes([ref[-1] ^ 1]))  # one flipped bit
    assert analyze.check((0, "")) is not None
