"""The exact layers build no reference cycles, so ``cli.main`` can run with
CPython's cyclic collector off: whatever a command leaves for the collector
must not grow with the bank, and ``main`` must hand the collector back in
the state it found it, and the environment unchanged."""

import gc
import json
import os
from fractions import Fraction

import numpy as np
import pytest

from pcswave.cli import main
from pcswave.dataio import write_tensor
from pcswave.filterbank import (bank_from_json, bank_report, bank_to_json, build_pcs_bank,
                                verify_combined_biorthogonality, write_bank_json)
from pcswave.filters import filter_to_json
from pcswave.presets import box_bank, box_filter_1d, interp_deg4_filter_1d
from pcswave.tensor import Tensor
from pcswave.transform import count_ops, decompose_fast, reconstruct_fast


@pytest.fixture
def collector_off():
    was_enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    yield
    if was_enabled:
        gc.enable()


def test_exact_layers_leave_no_cycles(collector_off):
    bank = build_pcs_bank(box_filter_1d(3), interp_deg4_filter_1d(), 2, "centered")
    assert gc.collect() == 0
    doc = json.loads(json.dumps(bank_to_json(bank)))
    assert gc.collect() == 0
    steps = [
        ("checked load", lambda: bank_from_json(doc)),
        ("unchecked load", lambda: bank_from_json(doc, cross_check=False)),
        ("S.A check", lambda: verify_combined_biorthogonality(bank)),
        ("report", lambda: bank_report(bank)),
        ("op count", lambda: count_ops(bank, (27, 27), 2)),
        ("float64 round trip", lambda: reconstruct_fast(decompose_fast(
            Tensor.from_numpy(np.random.default_rng(0).standard_normal((27, 27))), bank, 2),
            bank)),
        ("rational round trip", lambda: reconstruct_fast(decompose_fast(
            Tensor((9, 9), "rational", [Fraction(k, 7) for k in range(81)]), bank, 2),
            bank)),
    ]
    for name, step in steps:
        step()
        assert gc.collect() == 0, name


@pytest.fixture(scope="module")
def command_inputs(tmp_path_factory):
    """Per size, a bank file and the inputs every command needs."""
    work = tmp_path_factory.mktemp("collector")
    rng = np.random.default_rng(0)
    inputs = {}
    for size, (p, n) in {"small": (3, 2), "large": (5, 3)}.items():
        box = work / f"box_{size}.json"
        box.write_text(json.dumps(filter_to_json(box_filter_1d(p).to_nd())))
        bank = work / f"bank_{size}.json"
        with open(bank, "w", encoding="utf-8") as fh:
            write_bank_json(fh, box_bank(p, n))
        shape = (p * p,) * n
        pcst, pcsc = work / f"in_{size}.pcst", work / f"out_{size}.pcsc"
        write_tensor(pcst, Tensor.from_numpy(rng.standard_normal(shape)))
        design = ["design", "--p", p, "--dim", n, "--g", box, "--h", box, "--gamma", "centered",
                  "-o", work / f"designed_{size}.json"]
        analyze = ["analyze", "--bank", bank, "--levels", 1, pcst, "-o", pcsc]
        inputs[size] = {
            "design": design,
            "verify": ["verify", bank],
            "analyze": analyze,
            "synthesize": ["synthesize", "--bank", bank, pcsc, "-o", work / f"back_{size}.pcst"],
            "bench": ["bench", "--bank", bank, "--shape", "x".join(map(str, shape))],
        }
    return inputs


def _left_for_collector(argv):
    gc.collect()
    assert main([str(a) for a in argv]) == 0
    return gc.collect()


@pytest.mark.parametrize("command", ["design", "verify", "analyze", "synthesize", "bench"])
def test_commands_leave_no_cycles_that_grow_with_the_bank(command_inputs, command, capsys,
                                                          collector_off):
    small, large = command_inputs["small"], command_inputs["large"]
    if command == "synthesize":
        # its input is what analyze writes
        for size in (small, large):
            assert main([str(a) for a in size["analyze"]]) == 0
    _left_for_collector(small[command])  # imports and caches of the first run
    assert _left_for_collector(small[command]) == _left_for_collector(large[command])


@pytest.fixture
def box_bank_file(tmp_path):
    path = tmp_path / "bank.json"
    with open(path, "w", encoding="utf-8") as fh:
        write_bank_json(fh, box_bank(3, 2))
    return path


def _corrupted(bank_file):
    doc = json.loads(bank_file.read_text())
    doc["filters"]["t"]["0,1"]["taps"][0]["v"] = "17/2"
    bad = bank_file.with_name("bad.json")
    bad.write_text(json.dumps(doc))
    return bad


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("case, code", [("ok", 0), ("failed_check", 1), ("bad_input", 2),
                                        ("argparse", SystemExit)])
def test_main_restores_collector_state(box_bank_file, capsys, monkeypatch, enabled, case,
                                       code):
    argv = {"ok": ["verify", box_bank_file],
            "failed_check": ["verify", _corrupted(box_bank_file)],
            "bad_input": ["bench", "--bank", box_bank_file, "--shape", "9x0"],
            "argparse": ["verify", "--no-such-option"]}[case]
    # main sets no BLAS default: that is run()'s, before numpy is imported
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    before = dict(os.environ)
    was_enabled = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        if code is SystemExit:
            with pytest.raises(SystemExit):
                main([str(a) for a in argv])
        else:
            assert main([str(a) for a in argv]) == code
        assert gc.isenabled() is enabled
        assert dict(os.environ) == before
    finally:
        (gc.enable if was_enabled else gc.disable)()
