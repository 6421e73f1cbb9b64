import gc
import hashlib
import json
import os
import struct
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from pcswave.cli import main
from pcswave.dataio import read_tensor, write_tensor
from pcswave.tensor import Tensor

from conftest import prime_taps_doc

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def box_bank_path(tmp_path, capsys):
    path = tmp_path / "bank.json"
    code, _, _ = run(capsys, "design", "--p", 3, "--dim", 2,
                     "--g", FIXTURES / "box_p3_centered.json",
                     "--h", FIXTURES / "box_p3_centered.json",
                     "--gamma", "centered", "-o", path)
    assert code == 0
    return path


def test_design_box_bank(tmp_path, capsys):
    out_path = tmp_path / "bank.json"
    code, out, _ = run(capsys, "design", "--p", 3, "--dim", 2,
                       "--g", FIXTURES / "box_p3_centered.json",
                       "--h", FIXTURES / "box_p3_centered.json",
                       "--gamma", "centered", "-o", out_path)
    assert code == 0
    assert "tau=9" in out
    assert "t=[2]" in out
    doc = json.loads(out_path.read_text())
    assert len(doc["filters"]["tau"]["taps"]) == 9


def test_design_deg4_bank(tmp_path, capsys):
    out_path = tmp_path / "bank.json"
    code, out, _ = run(capsys, "design", "--p", 3, "--dim", 2,
                       "--g", FIXTURES / "box_p3_centered.json",
                       "--h", FIXTURES / "interp_p3_deg4.json",
                       "--gamma", "centered", "-o", out_path,
                       "--json", tmp_path / "design.json")
    assert code == 0
    assert "t=[5]" in out
    summary = json.loads((tmp_path / "design.json").read_text())
    assert summary["support_sizes"]["t"] == [5]
    assert summary["guarantee_floor"] == 1


def test_design_rejects_composite_dilation(tmp_path, capsys):
    code, _, err = run(capsys, "design", "--p", 4, "--dim", 2,
                       "--g", FIXTURES / "box_p3_centered.json",
                       "--h", FIXTURES / "box_p3_centered.json",
                       "-o", tmp_path / "bank.json")
    assert code == 2
    assert "does not match --p" in err or "prime" in err


def test_design_rejects_composite_dilation_matching_filter(tmp_path, capsys):
    # a 1-D filter that claims dilation 4 trips the primality check itself
    bad = tmp_path / "f.json"
    bad.write_text(json.dumps({"p": 4, "dim": 1, "taps": [
        {"k": [0], "v": "1"}, {"k": [1], "v": "1"},
        {"k": [2], "v": "1"}, {"k": [3], "v": "1"}]}))
    code, _, err = run(capsys, "design", "--p", 4, "--dim", 2,
                       "--g", bad, "--h", bad, "-o", tmp_path / "bank.json")
    assert code == 2
    assert "prime" in err


def test_design_rejects_noninterpolatory_h(tmp_path, capsys):
    bad = tmp_path / "h.json"
    bad.write_text(json.dumps({"p": 3, "dim": 1, "taps": [
        {"k": [0], "v": "1"}, {"k": [1], "v": "5/3"}, {"k": [3], "v": "1/3"}]}))
    code, _, err = run(capsys, "design", "--p", 3, "--dim", 2,
                       "--g", FIXTURES / "box_p3_centered.json",
                       "--h", bad, "-o", tmp_path / "bank.json")
    assert code == 2
    assert "H is not interpolatory: H(3) = 1/3 != 0" in err


def test_design_names_the_generator_file_it_refuses(tmp_path, capsys):
    # a duplicated tap in --h and a --g tap past the 4096-bit bound: each
    # refusal names the file at fault
    box, dup, big = FIXTURES / "box_p3_centered.json", tmp_path / "dup.json", tmp_path / "big.json"
    dup.write_text(json.dumps({"p": 3, "dim": 1, "taps": [{"k": [0], "v": "1"},
                                                           {"k": [0], "v": "1"}]}))
    big.write_text(json.dumps({"p": 3, "dim": 1, "taps": [{"k": [0], "v": f"1/{2 ** 4097}"}]}))
    for g, h, message in [(box, dup, f"{dup}: duplicate tap at (0,)"),
                          (big, box, f"{big}: filter taps need more than 4096 bits "
                                     "over one denominator")]:
        code, _, err = run(capsys, "design", "--p", 3, "--dim", 2, "--g", g, "--h", h,
                           "-o", tmp_path / "bank.json")
        assert code == 2
        assert err == f"error: {message}\n"
    assert not (tmp_path / "bank.json").exists()


def test_verify_good_bank(box_bank_path, capsys, tmp_path):
    # the p=3 centered box bank and the p=2 standard-convention one
    p2_bank, box = tmp_path / "p2.json", FIXTURES / "box_p2.json"
    assert run(capsys, "design", "--p", 2, "--dim", 2, "--g", box, "--h", box,
               "--gamma", "standard", "-o", p2_bank)[0] == 0
    for bank in (box_bank_path, p2_bank):
        code, out, _ = run(capsys, "verify", bank, "--json", tmp_path / "verify.json")
        assert code == 0
        assert "PASS  combined biorthogonality (S.A = (1/q) I)" in out.splitlines()
        assert "FAIL" not in out
        rep = json.loads((tmp_path / "verify.json").read_text())
        assert rep["passed"] is True


def test_verify_corrupted_bank(box_bank_path, tmp_path, capsys):
    doc = json.loads(box_bank_path.read_text())
    doc["filters"]["t"]["0,1"]["taps"][0]["v"] = "17/2"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", bad, "--json", tmp_path / "verify.json")
    assert code == 1
    assert "FAIL  combined biorthogonality" in out
    assert "row" in out and "col" in out
    # the report is written on exit 1 too
    assert json.loads((tmp_path / "verify.json").read_text())["passed"] is False


def test_verify_general_bank(tmp_path, capsys):
    # a bank completed from n-D filters carries no generators, so no floor
    from pcswave.cosetsum import prime_coset_sum
    from pcswave.filterbank import build_general, write_bank_json
    from pcswave.lattice import make_coset_system
    from pcswave.presets import box_filter_1d, interp_deg4_filter_1d
    sys_ = make_coset_system(3, 2, "centered")
    bank = build_general(prime_coset_sum(box_filter_1d(3), sys_),
                         prime_coset_sum(interp_deg4_filter_1d(), sys_), sys_)
    path = tmp_path / "general.json"
    with open(path, "w", encoding="utf-8") as fh:
        write_bank_json(fh, bank)
    doc = json.loads(path.read_text())
    assert (doc["G"], doc["H"], doc["provenance"]) == (None, None, "general")
    code, out, _ = run(capsys, "verify", path)
    assert code == 0
    assert "guarantee floor: None" in out.splitlines()
    # nor a fast transform or op count, which the plan refuses
    from pcswave.dataio import write_coeffs
    from pcswave.transform import decompose_direct
    y = Tensor.from_numpy(np.ones((9, 9)))
    write_tensor(tmp_path / "in.pcst", y)
    write_coeffs(tmp_path / "in.pcsc", decompose_direct(y, bank, 1))
    for argv in (("analyze", "--bank", path, "--levels", 1, tmp_path / "in.pcst",
                  "-o", tmp_path / "out.pcsc"),
                 ("synthesize", "--bank", path, tmp_path / "in.pcsc", "-o", tmp_path / "out.pcst"),
                 ("bench", "--bank", path, "--shape", "9x9")):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "needs a bank built from 1-D generators" in err


def test_verify_tau_below_floor(box_bank_path, tmp_path, capsys):
    # tau = q delta has accuracy 0, under the box generators' floor of 1
    doc = json.loads(box_bank_path.read_text())
    doc["filters"]["tau"]["taps"] = [{"k": [0, 0], "v": "9"}]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", bad)
    assert code == 1
    assert ("FAIL  vanishing-moment floor respected  [tau accuracy 0 < floor 1]"
            in out.splitlines())


def test_verify_highpass_below_floor_is_named_as_in_load_errors(box_bank_path, tmp_path,
                                                                capsys):
    # t[1,0] = q delta has no vanishing moment, under the floor of 1; the
    # violation spells the filter as load and design errors do
    doc = json.loads(box_bank_path.read_text())
    doc["filters"]["t"]["1,0"]["taps"] = [{"k": [0, 0], "v": "9"}]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", bad, "--json", tmp_path / "verify.json")
    assert code == 1
    assert ("FAIL  vanishing-moment floor respected  [t[1,0] vanishing moments 0 < floor 1]"
            in out.splitlines())
    assert any(line.startswith("  t(1,0) ") for line in out.splitlines())
    rep = json.loads((tmp_path / "verify.json").read_text())
    assert rep["floor_violations"] == ["t[1,0] vanishing moments 0 < floor 1"]


def test_verify_dump_builds_polyphase_once(box_bank_path, tmp_path, capsys, monkeypatch):
    # the S.A check builds no (A, S) and the dump builds one; the report does
    # not change
    from pcswave import cli, filterbank
    doc = json.loads(box_bank_path.read_text())
    doc["filters"]["t"]["0,1"]["taps"][0]["v"] = "17/2"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, plain, _ = run(capsys, "verify", bad)
    build, calls = filterbank.bank_polyphase_matrices, []

    def counted(bank):
        calls.append(bank)
        return build(bank)
    monkeypatch.setattr(filterbank, "bank_polyphase_matrices", counted)
    monkeypatch.setattr(cli, "bank_polyphase_matrices", counted, raising=False)
    dumped_code, dumped, _ = run(capsys, "verify", bad, "--dump-polyphase", tmp_path / "poly.json")
    assert code == dumped_code == 1
    assert dumped == plain
    assert len(calls) == 1


@pytest.mark.parametrize("emptied, count, digest", [
    ("t_d", 54, "89a9405be0289dca69cf2afda6c976d604a7997874b2d0500525f42cfd250ff6"),
    ("tau", 729, "cbd6fc86ff28c87c9b2d99ff5f6d5bb3efc08c40887f6c8028e4c6f88e6077f8"),
])
def test_verify_general_bank_with_an_empty_filter(tmp_path, capsys, emptied, count, digest):
    # an empty mask adds no terms to any column of S.A; the report names the
    # entries it leaves wrong and is pinned byte for byte (SHA-256 of stdout)
    from pcswave.cosetsum import prime_coset_sum
    from pcswave.filterbank import bank_to_json, build_general
    from pcswave.lattice import make_coset_system
    from pcswave.presets import box_filter_1d, interp_deg4_filter_1d
    sys_ = make_coset_system(3, 3, "centered")
    doc = bank_to_json(build_general(prime_coset_sum(box_filter_1d(3), sys_),
                                     prime_coset_sum(interp_deg4_filter_1d(), sys_), sys_))
    filters = doc["filters"]
    (filters["tau"] if emptied == "tau" else filters["t_d"]["-1,-1,-1"])["taps"] = []
    path = tmp_path / "general.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", path)
    assert code == 1
    assert out.startswith("FAIL  combined biorthogonality (S.A = (1/q) I)  "
                          f"[{count} of 729 entries violate S(w) A(w) = (1/q) I; first at row 0, col 0")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    # the empty filter's diagnostics saturate at once, at any --max-order
    proc = subprocess.run([sys.executable, "-m", "pcswave.cli", "verify", str(path),
                           "--max-order", "1000000"], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[0] == out.splitlines()[0]


def test_verify_far_tap_bank_sizes_nothing_by_its_offset(tmp_path, capsys):
    # the tap at 30000001 only lengthens the packed exponents: the check
    # passes and peaks where it does for the tap at 301, whose bank has as
    # many taps (48.7 kB against 47.9 kB traced)
    import tracemalloc
    from pcswave.filterbank import build_pcs_bank, verify_combined_biorthogonality
    from conftest import far_tap_1d
    far, bank = FIXTURES / "far_tap_p3.json", tmp_path / "far.json"
    assert run(capsys, "design", "--p", 3, "--dim", 2, "--g", far, "--h", far, "-o", bank)[0] == 0
    code, out, _ = run(capsys, "verify", bank)
    assert code == 0 and "FAIL" not in out
    peaks = []
    for m in (30000001, 301):
        near = build_pcs_bank(far_tap_1d(m), far_tap_1d(m), 2, "standard")
        verify_combined_biorthogonality(near)
        tracemalloc.start()
        try:
            assert verify_combined_biorthogonality(near).passed
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1] + 4096, peaks


def test_verify_reports_orders(tmp_path, capsys):
    bank_path = tmp_path / "bank.json"
    run(capsys, "design", "--p", 3, "--dim", 2,
        "--g", FIXTURES / "box_p3_centered.json",
        "--h", FIXTURES / "interp_p3_deg4.json",
        "--gamma", "centered", "-o", bank_path)
    code, out, _ = run(capsys, "verify", bank_path, "--max-order", 6)
    assert code == 0
    lines = out.splitlines()
    tau_line = next(l for l in lines if l.strip().startswith("tau "))
    tau_d_line = next(l for l in lines if l.strip().startswith("tau_d "))
    assert "accuracy=1" in tau_line
    assert "accuracy=4" in tau_d_line
    assert any("t(" in l and "vmoments=4" in l for l in lines)
    assert any("t_d(" in l and "vmoments=1" in l for l in lines)


def test_analyze_synthesize_roundtrip(box_bank_path, tmp_path, capsys):
    rng = np.random.default_rng(0)
    data = rng.standard_normal((27, 27))
    write_tensor(tmp_path / "y.pcst", Tensor.from_numpy(data))
    code, out, _ = run(capsys, "analyze", "--bank", box_bank_path, "--levels", 3,
                       tmp_path / "y.pcst", "-o", tmp_path / "y.pcsc", "--oracle",
                       "--json", tmp_path / "analyze.json")
    assert code == 0
    assert "oracle cross-check" in out
    rep = json.loads((tmp_path / "analyze.json").read_text())
    assert rep["shape"] == [27, 27] and rep["levels"] == 3
    assert rep["output"] == str(tmp_path / "y.pcsc")
    assert 0 <= rep["oracle_max_abs_deviation"] <= 1e-12 * np.max(np.abs(data))
    code, out, _ = run(capsys, "synthesize", "--bank", box_bank_path,
                       tmp_path / "y.pcsc", "-o", tmp_path / "back.pcst",
                       "--check-against", tmp_path / "y.pcst",
                       "--json", tmp_path / "synthesize.json")
    assert code == 0
    back = read_tensor(tmp_path / "back.pcst")
    err = np.max(np.abs(back.data - data))
    assert err <= 1e-12 * np.max(np.abs(data))
    assert "round-trip check" in out
    rep = json.loads((tmp_path / "synthesize.json").read_text())
    assert rep["shape"] == [27, 27] and rep["levels"] == 3
    assert rep["max_abs_error"] == err


def test_far_tap_bank_runs_every_transform_command(tmp_path, capsys):
    # a generator tap at 30000001 must not size an array of a 27x27 transform
    far = FIXTURES / "far_tap_p3.json"
    bank, src = tmp_path / "bank.json", tmp_path / "in.pcst"
    coeffs, back = tmp_path / "c.pcsc", tmp_path / "back.pcst"
    write_tensor(src, Tensor.from_numpy(np.random.default_rng(0).standard_normal((27, 27))))
    assert run(capsys, "design", "--p", 3, "--dim", 2, "--g", far, "--h", far, "-o", bank)[0] == 0
    assert run(capsys, "analyze", "--bank", bank, "--levels", 3, src, "-o", coeffs)[0] == 0
    code, _, err = run(capsys, "analyze", "--bank", bank, "--levels", 3, src, "-o", coeffs,
                       "--oracle", "--json", tmp_path / "analyze.json")
    assert (code, err) == (0, "")
    assert json.loads((tmp_path / "analyze.json").read_text())["oracle_max_abs_deviation"] < 1e-12
    code, _, err = run(capsys, "synthesize", "--bank", bank, coeffs, "-o", back,
                       "--check-against", src, "--json", tmp_path / "synth.json")
    assert (code, err) == (0, "")
    assert json.loads((tmp_path / "synth.json").read_text())["max_abs_error"] < 1e-12


def test_analyze_rejects_indivisible_shape(box_bank_path, tmp_path, capsys):
    write_tensor(tmp_path / "y.pcst", Tensor.from_numpy(np.zeros((10, 10))))
    code, _, err = run(capsys, "analyze", "--bank", box_bank_path, "--levels", 1,
                       tmp_path / "y.pcst", "-o", tmp_path / "y.pcsc")
    assert code == 2
    assert "axis 0" in err


def _pcst_header(extent):
    """A 1-D PCST header that claims `extent` samples and carries no payload."""
    return b"PCST" + struct.pack("<HBBQ", 1, 0, 1, extent)


@pytest.mark.parametrize("header, message", [
    pytest.param(_pcst_header(2 ** 40), "payload bytes", id=str(2 ** 40)),
    pytest.param(_pcst_header(2 ** 62), "payload bytes", id=str(2 ** 62)),
    pytest.param(b"PCST" + struct.pack("<HBB", 1, 0, 0), "ndim 0", id="ndim0"),
    pytest.param(b"PCST" + struct.pack("<HBB", 1, 0, 65) + bytes(8 * 65), "ndim 65",
                 id="ndim65"),
    pytest.param(b"PCST" + struct.pack("<HBBQQ", 1, 0, 2, 0, 2 ** 62), "zero extent",
                 id="zero_extent"),
])
def test_analyze_rejects_oversized_pcst_header(box_bank_path, tmp_path, capsys,
                                               header, message):
    src = tmp_path / "huge.pcst"
    src.write_bytes(header)
    code, _, err = run(capsys, "analyze", "--bank", box_bank_path, "--levels", 1,
                       src, "-o", tmp_path / "y.pcsc")
    assert code == 2
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("extent", [2 ** 40, 2 ** 62])
def test_synthesize_rejects_oversized_pcsc_record(box_bank_path, tmp_path, capsys, extent):
    # PCSC header for p=3, n=2, one level, 9x9, then the coarse record's tag
    src = tmp_path / "huge.pcsc"
    src.write_bytes(b"PCSC" + struct.pack("<HBBBQQHH", 1, 3, 2, 1, 9, 9, 0, 0)
                    + _pcst_header(extent))
    code, _, err = run(capsys, "synthesize", "--bank", box_bank_path,
                       src, "-o", tmp_path / "back.pcst")
    assert code == 2
    assert err.startswith("error:") and "payload bytes" in err


@pytest.mark.parametrize("damage", ["t_is_list", "no_t_d", "taps_5", "taps_null",
                                    "taps_1.5", "not_utf8", "p_float",
                                    "key_+1, 00", "key_1,00", "key_a,0", "key_1",
                                    "provenance_general",
                                    "provenance_pcs_no_generators",
                                    "provenance_unknown", "G_without_H", "G_p5",
                                    "G_2d", "t_dim3", "t_p5"])
@pytest.mark.parametrize("command", ["verify", "bench"])
def test_malformed_bank_filters_exit_2(box_bank_path, tmp_path, capsys, damage, command):
    doc = json.loads(box_bank_path.read_text())
    bad = tmp_path / "bad.json"
    prefix = "error: malformed bank JSON"
    if damage == "t_is_list":
        doc["filters"]["t"] = list(doc["filters"]["t"].values())
    elif damage == "no_t_d":
        del doc["filters"]["t_d"]
    elif damage == "p_float":
        doc["p"] = 3.5
    elif damage.startswith("taps_"):
        doc["filters"]["tau"]["taps"] = json.loads(damage[5:])
        prefix = "error: filter taps must be a list"
    elif damage.startswith("key_"):
        # a second spelling of coset (1, 0), a key that is not integers, or one of
        # the wrong length, each holding another coset's filter
        key = damage[4:]
        doc["filters"]["t"][key] = doc["filters"]["t"]["-1,0"]
        prefix = f"error: {'bad ' if key == 'a,0' else ''}coset key {key!r}"
    elif damage == "provenance_general":
        doc["provenance"] = "general"
    elif damage == "provenance_pcs_no_generators":
        del doc["G"], doc["H"]
    elif damage == "provenance_unknown":
        doc["provenance"] = "lifting"
    elif damage == "G_without_H":
        doc["H"] = None
    elif damage == "G_p5":
        doc["G"] = json.loads((FIXTURES / "box_p5_centered.json").read_text())
        prefix = "error: generators have dilations 5 and 3, the bank has p=3"
    elif damage == "G_2d":
        doc["G"] = doc["filters"]["tau"]
        prefix = "error: expected a 1-D filter, got dim=2"
    elif damage.startswith("t_"):
        # a stored filter of another dim or p than the coset system, refused at
        # load whether or not the load re-derives the bank
        f = doc["filters"]["t"]["1,0"]
        if damage == "t_dim3":
            f["dim"] = 3
            for tap in f["taps"]:
                tap["k"].append(0)
        else:
            f["p"] = 5
        prefix = (f"error: t[1,0] has p={f['p']}, dim={f['dim']}; "
                  "the coset system has p=3, dim=2\n")
    if damage == "not_utf8":
        bad.write_bytes(b"\xff\xfe" + json.dumps(doc).encode())
        prefix = f"error: {bad}: not valid JSON"
    else:
        bad.write_text(json.dumps(doc))
    argv = [bad] if command == "verify" else ["--bank", bad, "--shape", "9x9"]
    code, _, err = run(capsys, command, *argv)
    assert code == 2
    assert err.startswith(prefix)


HOSTILE_BANK_EDITS = {"dim40": {"dim": 40}, "p_huge": {"p": 1000000000000000003},
                      "p_infinity": {"p": float("inf")}}


def _hostile_size(case, bank_path, tmp_path):
    """argv for one oversized or unparsable request, built in tmp_path from a q = 9 bank."""
    box = FIXTURES / "box_p3_centered.json"
    if case in HOSTILE_BANK_EDITS or case.startswith("tap_"):
        doc = json.loads(bank_path.read_text())
        doc.update(HOSTILE_BANK_EDITS.get(case, {}))
        tap = doc["filters"]["tau"]["taps"][0]
        if case == "tap_exponent":
            tap["v"] = "1e999999999"
        elif case == "tap_index_infinity":
            tap["k"][0] = float("inf")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        return ["verify", bad]
    if case == "design_dim30":
        return ["design", "--p", 3, "--dim", 30, "--g", box, "--h", box,
                "-o", tmp_path / "big.json"]
    if case in ("design_tap_exponent", "design_filter_dim_huge", "design_prime_taps",
                "design_long_digits"):
        if case == "design_tap_exponent":
            doc = json.loads(box.read_text())
            doc["taps"][0]["v"] = "1e999999999"
        elif case == "design_prime_taps":
            doc = prime_taps_doc()
        elif case == "design_long_digits":
            # 4000 distinct 4000-digit numerators, each past the 1234 digits of
            # a 4096-bit integer: refused unread, not after 4000 slow int() calls
            doc = {"p": 3, "dim": 1, "taps": [{"k": [i], "v": f"1{i:03999d}"} for i in range(4000)]}
        else:
            doc = {"p": 3, "dim": 10 ** 9, "taps": []}
        gen = tmp_path / "g.json"
        gen.write_text(json.dumps(doc))
        return ["design", "--p", 3, "--dim", 2, "--g", gen, "--h", box,
                "-o", tmp_path / "out.json"]
    if case == "analyze_levels":
        write_tensor(tmp_path / "y.pcst", Tensor.from_numpy(np.zeros((9, 9))))
        return ["analyze", "--bank", bank_path, "--levels", 100000000,
                tmp_path / "y.pcst", "-o", tmp_path / "y.pcsc"]
    return ["bench", "--bank", bank_path, "--shape", "9x9", "--levels", 100000000]


@pytest.mark.parametrize("case", ["dim40", "p_huge", "design_dim30", "analyze_levels",
                                  "bench_levels", "p_infinity", "tap_exponent",
                                  "tap_index_infinity", "design_tap_exponent",
                                  "design_filter_dim_huge", "design_prime_taps",
                                  "design_long_digits"])
def test_hostile_sizes_exit_2_quickly(box_bank_path, tmp_path, capsys, case):
    argv = _hostile_size(case, box_bank_path, tmp_path)
    start = time.perf_counter()
    code, _, err = run(capsys, *argv)
    assert time.perf_counter() - start < 2.0
    assert code == 2
    assert err.startswith("error:")


def test_out_of_memory_exits_2(tmp_path):
    # the box p=2 n=12 bank outgrows a 300 MB address space while it is built,
    # before its file is opened: one error line and exit 2, not a traceback
    import resource
    limit = 300 * 2 ** 20
    box, out = FIXTURES / "box_p2.json", tmp_path / "big.json"
    proc = subprocess.run(
        [sys.executable, "-m", "pcswave.cli", "design", "--p", "2", "--dim", "12",
         "--g", str(box), "--h", str(box), "-o", str(out)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def _cli(*argv):
    """pcswave run as a script under a 30 s timeout, so a command that runs away
    fails its test instead of stalling the suite."""
    return subprocess.run([sys.executable, "-m", "pcswave.cli", *map(str, argv)],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=30)


@pytest.mark.parametrize("command", ["verify", "analyze"])
def test_bank_filter_past_the_form_bound_exits_2(tmp_path, capsys, command):
    # a deg4 bank whose first t filter holds 4000 taps 1/r, r prime: its parse
    # stops at the bound, so neither command builds the 56000-bit lcm
    bank = tmp_path / "bank.json"
    assert run(capsys, "design", "--p", 3, "--dim", 2,
               "--g", FIXTURES / "box_p3_centered.json",
               "--h", FIXTURES / "interp_p3_deg4.json", "--gamma", "centered",
               "-o", bank)[0] == 0
    doc = json.loads(bank.read_text())
    next(iter(doc["filters"]["t"].values()))["taps"] = prime_taps_doc(dim=2)["taps"]
    bank.write_text(json.dumps(doc))
    write_tensor(tmp_path / "y.pcst", Tensor.from_numpy(np.zeros((9, 9))))
    argv = ([bank] if command == "verify" else
            ["--bank", bank, "--levels", 1, tmp_path / "y.pcst", "-o", tmp_path / "y.pcsc"])
    proc = _cli(command, *argv)
    assert proc.returncode == 2
    assert proc.stderr == "error: filter taps need more than 4096 bits over one denominator\n"


def test_verify_origin_generator_bank_at_a_huge_max_order(tmp_path, capsys):
    # G = {0: 3} makes tau a delta at the origin: its flatness search saturates
    # at once, where a walk over every order would take time growing as max_order^3
    g, bank = tmp_path / "g.json", tmp_path / "bank.json"
    g.write_text(json.dumps({"p": 3, "dim": 1, "taps": [{"k": [0], "v": 3}]}))
    assert run(capsys, "design", "--p", 3, "--dim", 3, "--g", g,
               "--h", FIXTURES / "box_p3_centered.json", "-o", bank)[0] == 0
    proc = _cli("verify", bank, "--max-order", 1000000)
    assert proc.returncode == 0
    tau = next(l for l in proc.stdout.splitlines() if l.strip().startswith("tau "))
    assert "flatness=1000000 " in tau


@pytest.mark.parametrize("via", ["same_path", "symlink"])
def test_synthesize_refuses_its_reference_as_output(box_bank_path, tmp_path, capsys, via):
    ref, coeffs = tmp_path / "y.pcst", tmp_path / "y.pcsc"
    write_tensor(ref, Tensor.from_numpy(np.arange(81.0).reshape(9, 9)))
    assert run(capsys, "analyze", "--bank", box_bank_path, "--levels", 1, ref,
               "-o", coeffs)[0] == 0
    before = ref.read_bytes()
    out = ref
    if via == "symlink":
        out = tmp_path / "link.pcst"
        out.symlink_to(ref)
    code, _, err = run(capsys, "synthesize", "--bank", box_bank_path, coeffs,
                       "-o", out, "--check-against", ref)
    assert code == 2
    assert err == f"error: -o {out} is the --check-against reference\n"
    assert ref.read_bytes() == before


def _pcst(shape):
    """PCST bytes of a float64 zero tensor."""
    size = int(np.prod(shape))
    return (b"PCST" + struct.pack(f"<HBB{len(shape)}Q", 1, 0, len(shape), *shape)
            + bytes(8 * size))


def _pcsc_9x9(records):
    """A one-level PCSC file for the p=3, n=2 bank on 9x9 data: the coarse
    record, then one detail record per (level, index, shape)."""
    raw = b"PCSC" + struct.pack("<HBBBQQHH", 1, 3, 2, 1, 9, 9, 0, 0) + _pcst((3, 3))
    for level, idx, shape in records:
        raw += struct.pack("<HH", level, idx) + _pcst(shape)
    return raw


def _bad_input(case, bank_path, tmp_path):
    """argv for one malformed request whose output would go to tmp_path/out."""
    out = tmp_path / "out"
    if case == "missing_input":
        return ["analyze", "--bank", bank_path, "--levels", 1, tmp_path / "none.pcst",
                "-o", out]
    if case == "missing_bank":
        return ["bench", "--bank", tmp_path / "none.json", "--shape", "9x9"]
    if case == "design_g_2d":
        g2d = tmp_path / "g2d.json"
        g2d.write_text(json.dumps({"p": 3, "dim": 2, "taps": [{"k": [0, 0], "v": "9"}]}))
        return ["design", "--p", 3, "--dim", 2, "--g", g2d,
                "--h", FIXTURES / "box_p3_centered.json", "-o", out]
    if case == "design_bank_bits":
        # generators of about 2100 bits, under the bound, whose bank multiplies
        # their coprime denominators past it
        gens = []
        for name, r in (("g", 2 ** 2100 - 1), ("h", 2 ** 2100 + 1)):
            gens.append(tmp_path / f"{name}.json")
            gens[-1].write_text(json.dumps({"p": 3, "dim": 1, "taps": [
                {"k": [-1], "v": f"{r - 1}/{r}"}, {"k": [0], "v": "1"},
                {"k": [1], "v": f"{r + 1}/{r}"}]}))
        return ["design", "--p", 3, "--dim", 2, "--g", gens[0], "--h", gens[1], "-o", out]
    if case.startswith("shape_"):
        return ["bench", "--bank", bank_path, "--shape", case[6:], "--json", out]
    if case == "pcst_3d":
        (tmp_path / "y.pcst").write_bytes(_pcst((9, 9, 9)))
        return ["analyze", "--bank", bank_path, "--levels", 1, tmp_path / "y.pcst",
                "-o", out]
    if case.startswith("reference_"):
        # a valid set, and a reference that is refused before out is written
        records = [(0, idx, (3, 3)) for idx in range(1, 9)]
        (tmp_path / "ref.pcst").write_bytes(_pcst((27, 27)))
        check = ["--check-against", tmp_path / ("ref.pcst" if case == "reference_shape"
                                                else "none.pcst")]
    else:
        records = ([(0, 1, (3, 3))] * 2 if case == "pcsc_duplicate"
                   else [(0, 1, (3, 4))])
        check = []
    (tmp_path / "y.pcsc").write_bytes(_pcsc_9x9(records))
    return ["synthesize", "--bank", bank_path, tmp_path / "y.pcsc", "-o", out, *check]


@pytest.mark.parametrize("case, message", [
    ("missing_input", "No such file"), ("missing_bank", "No such file"),
    ("design_g_2d", "g2d.json: expected a 1-D filter, got dim=2"),
    ("design_bank_bits", "a filter of the bank needs more than 4096 bits"),
    ("shape_81", "is 1-D, bank is 2-D"), ("shape_abc", "bad shape 'abc'"),
    ("shape_0x9", "bad shape '0x9'"), ("pcst_3d", "tensor is 3-D, bank is 2-D"),
    ("pcsc_duplicate", "record (level=0, index=1) where (level=0, index=2) belongs"),
    ("pcsc_detail_shape", "shape (3, 4), expected (3, 3)"),
    ("reference_shape", "shapes (9, 9) and (27, 27) differ"),
    ("reference_missing", "No such file"),
])
def test_bad_input_exits_2(box_bank_path, tmp_path, capsys, case, message):
    code, out, err = run(capsys, *_bad_input(case, box_bank_path, tmp_path))
    assert code == 2
    assert err.startswith("error:") and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("data, extra", [
    (_pcst((9, 9)) + bytes(5), 5),
    (_pcst((3, 9)) + bytes(8 * 54), 8 * 54),
], ids=["appended", "smaller_header"])
def test_pcst_with_trailing_bytes_exits_2(box_bank_path, tmp_path, capsys, data, extra):
    # a PCST file ends with its payload, as an input and as a reference
    bad, good, coeffs = tmp_path / "bad.pcst", tmp_path / "good.pcst", tmp_path / "c.pcsc"
    bad.write_bytes(data)
    good.write_bytes(_pcst((9, 9)))
    message = f"{extra} trailing bytes after the payload"
    code, _, err = run(capsys, "analyze", "--bank", box_bank_path, "--levels", 1, bad,
                       "-o", coeffs)
    assert code == 2
    assert err.startswith("error:") and message in err
    assert not coeffs.exists()
    assert run(capsys, "analyze", "--bank", box_bank_path, "--levels", 1, good,
               "-o", coeffs)[0] == 0
    code, _, err = run(capsys, "synthesize", "--bank", box_bank_path, coeffs,
                       "-o", tmp_path / "back.pcst", "--check-against", bad)
    assert code == 2
    assert err.startswith("error:") and message in err
    assert not (tmp_path / "back.pcst").exists()


@pytest.mark.parametrize("command", ["design", "verify"])
def test_max_order_refused_before_writing(box_bank_path, tmp_path, capsys, command):
    box = FIXTURES / "box_p3_centered.json"
    out = tmp_path / "out.json"
    if command == "design":
        argv = ["design", "--p", 3, "--dim", 2, "--g", box, "--h", box, "-o", out]
    else:
        argv = ["verify", box_bank_path, "--dump-polyphase", out]
    code, _, err = run(capsys, *argv, "--max-order", 0)
    assert code == 2
    assert err.startswith("error:") and "--max-order" in err
    assert not out.exists()


def test_verify_dump_polyphase(box_bank_path, tmp_path, capsys):
    dump = tmp_path / "poly.json"
    code, _, _ = run(capsys, "verify", box_bank_path, "--dump-polyphase", dump)
    assert code == 0
    doc = json.loads(dump.read_text())
    assert set(doc) == {"A", "S"}
    q = 9
    for m in doc.values():
        assert m["rows"] == m["cols"] == q
        assert len(m["entries"]) == q and all(len(row) == q for row in m["entries"])
        for row in m["entries"]:
            for entry in row:
                for term in entry:
                    Fraction(term["v"])


@pytest.mark.parametrize("h, digest", [
    ("box_p3_centered.json", "eca9352c17e8e9a755994210b06d934a5a2696087c338f92d40910cbf1130537"),
    ("interp_p3_deg4.json", "419434d388809e1357a6a80b0d18ef0bcc1894c4981ea56ab4df261294ea279c"),
], ids=["box_p3_n2", "deg4_p3_n2"])
def test_dump_polyphase_bytes_pinned(tmp_path, capsys, h, digest):
    # SHA-256 of the A and S term maps: any change to how (A, S) is built
    # from the bank's filters, or to their order or text, shows up here
    bank, dump = tmp_path / "bank.json", tmp_path / "poly.json"
    code, _, _ = run(capsys, "design", "--p", 3, "--dim", 2,
                     "--g", FIXTURES / "box_p3_centered.json", "--h", FIXTURES / h,
                     "--gamma", "centered", "-o", bank)
    assert code == 0
    code, _, _ = run(capsys, "verify", bank, "--dump-polyphase", dump)
    assert code == 0
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == digest


# runs the CLI in a fresh interpreter, then reports whether numpy, dataclasses,
# inspect and the transform's plan got imported
NUMPY_PROBE = """
import sys
from pcswave.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:  # --help exits from argparse
    code = exc.code
print(*(name in sys.modules for name in ("numpy", "dataclasses", "inspect", "pcswave.plan")))
sys.exit(code)
"""


@pytest.mark.parametrize("command", ["help", "design", "verify", "bench",
                                     "bench_tensor_model", "bench_json", "bench_cached"])
def test_exact_commands_do_not_import_numpy(box_bank_path, tmp_path, capsys, command):
    box = FIXTURES / "box_p3_centered.json"
    bench = ["bench", "--bank", box_bank_path, "--shape", "81x81", "--levels", 2]
    argv = {"help": ["--help"],
            "design": ["design", "--p", 3, "--dim", 2, "--g", box, "--h", box,
                       "-o", tmp_path / "out.json"],
            "verify": ["verify", box_bank_path],
            "bench": bench,
            "bench_tensor_model": bench + ["--compare-tensor-model"],
            "bench_json": bench + ["--json", tmp_path / "bench.json"],
            "bench_cached": bench + ["--json", tmp_path / "bench.json"]}[command]
    if command == "bench_cached":
        assert run(capsys, *bench)[0] == 0  # leaves the bank's marker
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", NUMPY_PROBE, *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    # the records are no dataclasses, so neither dataclasses nor its inspect loads;
    # the generator rules live in filters, so only bench, which counts, plans
    plans = command.startswith("bench")
    assert proc.stdout.splitlines()[-1] == f"False False False {plans}"
    if command == "bench_cached":
        assert json.loads((tmp_path / "bench.json").read_text())["bank_check"] == "cached"


THREADS_PROBE = """
import sys
from pcswave.cli import run
sys.argv[0] = "pcswave"
try:
    run()
finally:
    print("dataclasses" in sys.modules)
    with open("/proc/self/status") as fh:
        print(next(line for line in fh if line.startswith("Threads:")).split()[1])
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
@pytest.mark.parametrize("preset", [None, "2"], ids=["default", "user_value"])
@pytest.mark.parametrize("command", ["analyze", "synthesize"])
def test_transform_commands_start_no_blas_thread_pool(box_bank_path, tmp_path, capsys,
                                                      command, preset):
    # numpy's OpenBLAS starts one thread per CPU on import unless told otherwise;
    # the pcswave script tells it 1 when the user has not set a value
    if preset is not None and len(os.sched_getaffinity(0)) < 2:
        pytest.skip("OpenBLAS starts at most one thread per usable CPU")
    y, coeffs = tmp_path / "y.pcst", tmp_path / "y.pcsc"
    write_tensor(y, Tensor.from_numpy(np.zeros((9, 9))))
    assert run(capsys, "analyze", "--bank", box_bank_path, "--levels", 1, y, "-o", coeffs)[0] == 0
    argv = {"analyze": ["analyze", "--bank", box_bank_path, "--levels", 1, y,
                        "-o", tmp_path / "again.pcsc"],
            "synthesize": ["synthesize", "--bank", box_bank_path, coeffs,
                           "-o", tmp_path / "back.pcst"]}[command]
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run([sys.executable, "-c", THREADS_PROBE, *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    # numpy imports inspect, but nothing imports dataclasses
    assert proc.stdout.splitlines()[-2:] == ["False", preset or "1"]


def _damaged_bank(bank_path):
    doc = json.loads(bank_path.read_text())
    next(iter(doc["filters"]["t"].values()))["taps"][0]["v"] = "17/2"
    bad = bank_path.with_name("bad.json")
    bad.write_text(json.dumps(doc))
    return bad


ATEXIT_PROBE = """
import atexit, gc, sys
from pcswave.cli import run
atexit.register(lambda: print("atexit", gc.get_freeze_count() > 0))
sys.argv[0] = "pcswave"
run()
"""


@pytest.mark.parametrize("case, code", [("ok", 0), ("failed_check", 1), ("missing_input", 2)])
def test_script_entry_exits_with_main_code_and_output(box_bank_path, tmp_path, capsys,
                                                      case, code):
    # python -m pcswave.cli and the pcswave script run main, freeze the live
    # objects and exit with main's code, printing what main prints in process
    argv = [str(a) for a in {
        "ok": ["verify", box_bank_path],
        "failed_check": ["verify", _damaged_bank(box_bank_path)],
        "missing_input": ["analyze", "--bank", box_bank_path, "--levels", 1,
                          tmp_path / "missing.pcst", "-o", tmp_path / "out.pcsc"]}[case]]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "pcswave.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, *argv)
    assert proc.returncode == code
    # in process, main leaves the collector's objects where they were
    assert gc.get_freeze_count() == 0
    # the exit flushes stdout and runs atexit handlers, after the freeze
    proc = subprocess.run([sys.executable, "-c", ATEXIT_PROBE, *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == code
    assert proc.stdout.splitlines()[-1] == "atexit True"


def test_synthesize_levels_mismatch(box_bank_path, tmp_path, capsys):
    write_tensor(tmp_path / "y.pcst", Tensor.from_numpy(np.zeros((9, 9))))
    run(capsys, "analyze", "--bank", box_bank_path, "--levels", 1,
        tmp_path / "y.pcst", "-o", tmp_path / "y.pcsc")
    code, _, err = run(capsys, "synthesize", "--bank", box_bank_path,
                       "--levels", 2, tmp_path / "y.pcsc",
                       "-o", tmp_path / "out.pcst")
    assert code == 2
    assert "does not match" in err


def test_bench_box_bank(box_bank_path, capsys, tmp_path):
    code, out, _ = run(capsys, "bench", "--bank", box_bank_path,
                       "--shape", "81x81", "--levels", 1,
                       "--json", tmp_path / "bench.json")
    assert code == 0
    assert "[match]" in out
    rep = json.loads((tmp_path / "bench.json").read_text())
    assert rep["measured"] == int(rep["predicted"])


def test_bench_count_mismatch_exits_1(box_bank_path, capsys, monkeypatch):
    # a closed form that disagrees with the counted multiplies is a failed check
    from pcswave import transform
    closed_form = transform.pcs_complexity_constant
    monkeypatch.setattr(transform, "pcs_complexity_constant",
                        lambda *args: closed_form(*args) + 1)
    code, out, _ = run(capsys, "bench", "--bank", box_bank_path,
                       "--shape", "81x81", "--levels", 1)
    assert code == 1
    assert "[MISMATCH]" in out


def test_bench_dyadic_comparison_line(tmp_path, capsys):
    bank_path = tmp_path / "bank2.json"
    code, _, _ = run(capsys, "design", "--p", 2, "--dim", 3,
                     "--g", FIXTURES / "box_p2.json",
                     "--h", FIXTURES / "box_p2.json",
                     "--gamma", "standard", "-o", bank_path)
    assert code == 0
    code, out, _ = run(capsys, "bench", "--bank", bank_path, "--shape", "8x8x8",
                       "--levels", 1, "--compare-tensor-model")
    assert code == 0
    assert "C_PCS" in out and "<=" in out and "C_TP" in out


def test_bench_rejects_bad_shape(box_bank_path, capsys):
    code, _, err = run(capsys, "bench", "--bank", box_bank_path,
                       "--shape", "80x81", "--levels", 1)
    assert code == 2
    assert "axis 0" in err


def test_outputs_byte_identical_across_runs(tmp_path, capsys):
    out1, out2 = tmp_path / "b1.json", tmp_path / "b2.json"
    argv = ["design", "--p", "3", "--dim", "2",
            "--g", str(FIXTURES / "interp_p3_deg4.json"),
            "--h", str(FIXTURES / "interp_p3_deg4.json"),
            "--gamma", "centered"]
    c1 = main(argv + ["-o", str(out1)])
    text1 = capsys.readouterr().out
    c2 = main(argv + ["-o", str(out2)])
    text2 = capsys.readouterr().out
    assert c1 == c2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert text1.replace("b1", "") == text2.replace("b2", "")


def test_design_and_verify_json_report_stage_timings(tmp_path, capsys):
    bank_path = tmp_path / "bank.json"
    argv = ["design", "--p", 3, "--dim", 2, "--g", FIXTURES / "box_p3_centered.json",
            "--h", FIXTURES / "interp_p3_deg4.json", "--gamma", "centered", "-o", bank_path]
    code, plain, _ = run(capsys, *argv)
    assert code == 0
    code, out, _ = run(capsys, *argv, "--json", tmp_path / "design.json")
    assert code == 0 and out == plain
    timings = json.loads((tmp_path / "design.json").read_text())["timings"]
    assert set(timings) == {"build_s", "report_s", "write_s"}
    assert all(v >= 0 for v in timings.values())

    code, plain, _ = run(capsys, "verify", bank_path)
    assert code == 0
    code, out, _ = run(capsys, "verify", bank_path, "--json", tmp_path / "verify.json")
    assert code == 0 and out == plain
    timings = json.loads((tmp_path / "verify.json").read_text())["timings"]
    assert set(timings) == {"load_s", "sa_check_s", "report_s"}
    assert all(v >= 0 for v in timings.values())
