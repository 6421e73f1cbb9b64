import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pcswave import dataio
from pcswave.dataio import (compare_tensor, read_coeffs, read_tensor, write_coeffs,
                            write_tensor)
from pcswave.errors import DomainError, FormatError, PcswaveError, ShapeMismatch
from pcswave.filterbank import build_pcs_bank
from pcswave.filters import filter_1d
from pcswave.presets import box_bank
from pcswave.tensor import Tensor
from pcswave.transform import decompose_fast, reconstruct_fast

SRC = Path(__file__).resolve().parent.parent / "src"


def test_tensor_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    t = Tensor.from_numpy(rng.standard_normal((6, 4, 2)))
    path = tmp_path / "t.pcst"
    write_tensor(path, t)
    back = read_tensor(path)
    assert back.shape == (6, 4, 2)
    assert np.array_equal(back.data, t.data)


def test_tensor_header_layout(tmp_path):
    t = Tensor.from_numpy(np.arange(6.0).reshape(2, 3))
    path = tmp_path / "t.pcst"
    write_tensor(path, t)
    raw = path.read_bytes()
    assert raw[:4] == b"PCST"
    assert raw[4:6] == (1).to_bytes(2, "little")      # version
    assert raw[6] == 0                                 # float64 scalar code
    assert raw[7] == 2                                 # ndim
    assert int.from_bytes(raw[8:16], "little") == 2
    assert int.from_bytes(raw[16:24], "little") == 3
    assert len(raw) == 24 + 6 * 8


def test_tensor_bad_magic(tmp_path):
    path = tmp_path / "bad.pcst"
    path.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(FormatError):
        read_tensor(path)


def test_tensor_truncated(tmp_path):
    t = Tensor.from_numpy(np.zeros((3, 3)))
    path = tmp_path / "t.pcst"
    write_tensor(path, t)
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(FormatError):
        read_tensor(path)


@pytest.mark.parametrize("chunk", [1, 7, 81, 1 << 15])
@pytest.mark.parametrize("nan", [None, "ours", "reference"])
def test_compare_tensor_streams_what_a_whole_read_gives(tmp_path, monkeypatch, chunk, nan):
    # chunks that divide the payload, that leave a tail, and one larger than it
    rng = np.random.default_rng(2)
    ours = rng.standard_normal((9, 9))
    ref = ours + 1e-9 * rng.standard_normal((9, 9))
    ref[4, 4] = -7.5  # the peak is the largest magnitude, from the minimum
    if nan is not None:
        (ours if nan == "ours" else ref)[2, 3] = np.nan
    path = tmp_path / "ref.pcst"
    write_tensor(path, Tensor.from_numpy(ref))
    monkeypatch.setattr(dataio, "CHUNK", chunk)
    err, peak = compare_tensor(path, Tensor.from_numpy(ours))
    whole = read_tensor(path)
    assert np.array_equal([err], [Tensor.from_numpy(ours).max_abs_diff(whole)], equal_nan=True)
    assert bool(np.isnan(err)) is (nan is not None)
    assert bool(np.isnan(peak)) is (nan == "reference")
    if nan != "reference":
        assert peak == 7.5


def test_compare_tensor_refuses_what_read_tensor_refuses(tmp_path):
    good = tmp_path / "good.pcst"
    write_tensor(good, Tensor.from_numpy(np.zeros((3, 3))))
    raw = good.read_bytes()
    ours = Tensor.from_numpy(np.zeros((3, 3)))
    # the header ends at byte 24; a file holds its payload and nothing more
    for name, data, message in (
            ("magic", b"NOPE" + raw[4:], "bad tensor magic"),
            ("truncated", raw[:-8], "needs 72 payload bytes"),
            ("zero_extent", raw[:8] + bytes(8) + raw[16:], "zero extent"),
            ("appended", raw + bytes(5), "5 trailing bytes after the payload"),
            ("smaller_header", raw[:8] + struct.pack("<QQ", 3, 2) + raw[24:],
             "24 trailing bytes after the payload")):
        path = tmp_path / f"{name}.pcst"
        path.write_bytes(data)
        with pytest.raises(FormatError, match=message) as want:
            read_tensor(path)
        with pytest.raises(FormatError) as got:
            compare_tensor(path, ours)
        assert str(got.value) == str(want.value)
    with pytest.raises(ShapeMismatch):
        compare_tensor(good, Tensor.from_numpy(np.zeros((3, 1))))


def test_rational_tensor_not_serializable(tmp_path):
    with pytest.raises(DomainError):
        write_tensor(tmp_path / "r.pcst", Tensor.zeros((3,), "rational"))
    exact = decompose_fast(Tensor.zeros((9, 9), "rational"), box_bank(3, 2), 1)
    with pytest.raises(DomainError):
        write_coeffs(tmp_path / "r.pcsc", exact)


def test_coeffs_roundtrip(tmp_path):
    bank = box_bank(3, 2)
    rng = np.random.default_rng(2)
    y = Tensor.from_numpy(rng.standard_normal((27, 27)))
    c = decompose_fast(y, bank, 2)
    path = tmp_path / "c.pcsc"
    write_coeffs(path, c)
    back = read_coeffs(path, bank.sys)
    assert [len(level) for level in back.details] == [8, 8]
    assert np.array_equal(back.coarse.data, c.coarse.data)
    for level, want in zip(back.details, c.details, strict=True):
        for t, w in zip(level, want, strict=True):
            assert np.array_equal(t.data, w.data)
    r = reconstruct_fast(back, bank)
    assert np.max(np.abs(r.data - y.data)) <= 1e-12 * np.max(np.abs(y.data))
    # a set missing one detail tensor has no PCSC form
    c.details[0].pop()
    with pytest.raises(ShapeMismatch):
        write_coeffs(tmp_path / "short.pcsc", c)


def test_coeffs_deterministic_bytes(tmp_path):
    bank = box_bank(3, 2)
    y = Tensor.from_numpy(np.random.default_rng(3).standard_normal((9, 9)))
    c = decompose_fast(y, bank, 1)
    p1, p2 = tmp_path / "a.pcsc", tmp_path / "b.pcsc"
    write_coeffs(p1, c)
    write_coeffs(p2, decompose_fast(y, bank, 1))
    assert p1.read_bytes() == p2.read_bytes()


def test_coeffs_wrong_bank(tmp_path):
    bank = box_bank(3, 2)
    y = Tensor.from_numpy(np.zeros((9, 9)))
    path = tmp_path / "c.pcsc"
    write_coeffs(path, decompose_fast(y, bank, 1))
    with pytest.raises(ShapeMismatch):
        read_coeffs(path, box_bank(2, 2).sys)


def test_coeffs_trailing_garbage(tmp_path):
    bank = box_bank(3, 2)
    path = tmp_path / "c.pcsc"
    write_coeffs(path, decompose_fast(Tensor.from_numpy(np.zeros((9, 9))), bank, 1))
    path.write_bytes(path.read_bytes() + b"x")
    with pytest.raises(FormatError):
        read_coeffs(path, bank.sys)


@pytest.mark.parametrize("damage, error, message", [
    ("extra_detail", ShapeMismatch, "level 1 holds 9 details, not 8"),
    ("detail_shape", ShapeMismatch,
     r"detail \(nu=\(0, 1\), level=1\) has shape \(2, 2\), expected \(9, 9\)"),
    ("rational_detail", DomainError,
     r"detail \(nu=\(0, 1\), level=1\) is rational, not float64"),
], ids=["extra_detail", "detail_shape", "rational_detail"])
def test_write_coeffs_refuses_a_malformed_set(tmp_path, damage, error, message):
    # the layout check reconstruct_fast runs, before the file is opened
    bank = box_bank(3, 2)
    c = decompose_fast(Tensor.from_numpy(np.zeros((27, 27))), bank, 2)
    if damage == "extra_detail":
        c.details[1].append(c.details[1][0])
    elif damage == "detail_shape":
        c.details[1][0] = Tensor.from_numpy(np.zeros((2, 2)))
    else:
        c.details[1][0] = Tensor.zeros((9, 9), "rational")
    path = tmp_path / "c.pcsc"
    with pytest.raises(error, match=message):
        write_coeffs(path, c)
    assert not path.exists()
    with pytest.raises(error, match=message):
        reconstruct_fast(c, bank)


def test_reconstruct_refuses_a_float64_detail_in_a_rational_set():
    bank = box_bank(3, 2)
    c = decompose_fast(Tensor.zeros((9, 9), "rational"), bank, 1)
    c.details[0][3] = Tensor.from_numpy(np.zeros((3, 3)))
    with pytest.raises(DomainError, match=r"\(nu=\(1, 1\), level=0\) is float64"):
        reconstruct_fast(c, bank)


def test_coeffs_records_are_read_in_the_written_order(tmp_path):
    # a 25-byte header, then 9 records of 100 bytes: the coarse one, then
    # level 0's details by coset index
    bank = box_bank(3, 2)
    path = tmp_path / "c.pcsc"
    write_coeffs(path, decompose_fast(Tensor.from_numpy(np.zeros((9, 9))), bank, 1))
    raw = path.read_bytes()
    assert len(raw) == 25 + 9 * 100
    second, third = raw[225:325], raw[325:425]
    path.write_bytes(raw[:225] + third + second + raw[425:])
    with pytest.raises(FormatError,
                       match=r"record \(level=0, index=3\) where \(level=0, index=2\) belongs"):
        read_coeffs(path, bank.sys)


def test_codecs_load_no_bank_module():
    # a coefficient set and its file format need the coset system alone
    probe = "import sys, pcswave.dataio, pcswave.tensor; print('pcswave.filterbank' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_coeffs_refuse_p_beyond_header_byte(tmp_path):
    # a valid p = 257 bank: its coefficients cannot be written, and no file is left
    H = filter_1d(257, {-1: 128, 0: 1, 1: 128})
    bank = build_pcs_bank(H, H, 1, "standard")
    c = decompose_fast(Tensor.from_numpy(np.zeros(257)), bank, 1)
    path = tmp_path / "c.pcsc"
    with pytest.raises(PcswaveError, match="one byte"):
        write_coeffs(path, c)
    assert not path.exists()
