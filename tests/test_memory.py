"""Allocation bounds of the float64 transform path and of the bank writer, as
tracemalloc traces them.

numpy reports its data buffers to tracemalloc, so a traced peak counts every
full-size array a step creates. The bounds are multiples of the input's bytes,
set just above what the transform needs: its outputs, the zero phase the taps
read (a contiguous copy of it going down), and two scratch tiles per level. A
per-tap copy of a phase, or a phase-sized scratch array where a tile would
do, pushes the peak over its bound. The round-trip check of ``synthesize``
reads its reference in chunks, so it holds one chunk beside the output.

The bank writer holds the text of one filter at a time, so its peak is a
small share of the file it writes, and the checked bank load holds one
re-derived mask at a time beside the bank it parsed. The S.A check holds the
bank's taps as packed ints and one column of the product at a time, far less
than the polyphase matrices and their product that its oracle builds.
"""

import json
import tracemalloc
from pathlib import Path

import numpy as np

from pcswave import cli
from pcswave.dataio import compare_tensor, write_tensor
from pcswave.filterbank import (bank_from_json, bank_polyphase_matrices, bank_to_json,
                                build_pcs_bank, verify_combined_biorthogonality,
                                write_bank_json)
from pcswave.filters import filter_from_json, to_1d
from pcswave.kernels import LevelKernels
from pcswave.presets import box_bank, box_filter_1d, deg4_bank
from pcswave.tensor import Tensor
from pcswave.transform import decompose_fast

from conftest import far_tap_1d, verify_polyphase_matrices

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
# deg4 (q = 9) on 729x729: a phase (243x243, 472 kB) is 1/9 of the input and
# runs as two tiles of at most 256 KiB
SHAPE = (729, 729)
# one level down and up keeps the coefficients (1) and the output (1) and
# needs the zero phase the taps read (0.11) and two scratch tiles (0.12).
# 2.24 input sizes traced with numpy 2.4; phase-sized scratch read 2.34, and
# one more phase-sized array reads 2.35
LEVEL_BOUND = 2.30
# synthesize peaks while the last level is reconstructed, at 2.38 input sizes
# (2.47 with phase-sized scratch); one more phase-sized array reads 2.49
SYNTHESIZE_BOUND = 2.45
# the round-trip check holds one chunk of the reference (256 KiB, 0.06 input
# sizes); reading the whole reference reads 1
CHECK_BOUND = 0.1
# box p=5 n=3 writes 6.7 MB of text; its largest filter, a t_d of 444 taps,
# takes 61 kB, and the writer peaks at 182 kB (a whole-document string: 43 MB)
WRITER_BOUND = 1 / 20
# the far-tap bank's tap tables beside those of the box bank, in bytes
FAR_TABLES_ALLOWANCE = 16 * 1024
# CPython's free-list churn moves a traced peak by a few hundred bytes; the
# far-tap and box levels on 243x243 both peak at 581 360 B, and a wrap pad
# adds about 113 kB
FREE_LIST_ALLOWANCE = 1024
# box p=5 n=3: the checked load peaks at 1.05 times the unchecked one, which
# is the parsed bank (5.0 MiB traced); holding all 2q re-derived masks at once
# read 2.07
CHECKED_LOAD_BOUND = 1.25
# box p=5 n=3: the S.A check peaks at 0.13 times the oracle's (A, S) and
# product (2.8 against 20.8 MB traced)
SA_CHECK_BOUND = 0.4


def traced_peak(fn):
    """fn()'s result and the peak of traced memory while it ran, in bytes."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_float64_level_allocation_bound():
    bank = deg4_bank(2)
    kern = LevelKernels(bank.sys, bank.g1d, bank.h1d)
    y = np.random.default_rng(0).standard_normal(SHAPE)
    kern.reconstruct_level(*kern.decompose_level(y))
    (back, _), peak = traced_peak(lambda: kern.reconstruct_level(*kern.decompose_level(y)))
    assert np.max(np.abs(back - y)) < 1e-12
    assert peak <= LEVEL_BOUND * y.nbytes, peak / y.nbytes


def test_synthesize_check_allocation_bound_and_line(tmp_path, capsys):
    bank_path, src = tmp_path / "bank.json", tmp_path / "in.pcst"
    coeffs, back = tmp_path / "c.pcsc", tmp_path / "back.pcst"
    bank_path.write_text(json.dumps(bank_to_json(deg4_bank(2))))
    y = np.random.default_rng(0).standard_normal(SHAPE)
    write_tensor(src, Tensor.from_numpy(y))
    assert cli.main(["analyze", "--bank", str(bank_path), "--levels", "2",
                     str(src), "-o", str(coeffs)]) == 0
    argv = ["synthesize", "--bank", str(bank_path), str(coeffs), "-o", str(back),
            "--check-against", str(src)]
    code, peak = traced_peak(lambda: cli.main(argv))
    assert code == 0
    assert peak <= SYNTHESIZE_BOUND * y.nbytes, peak / y.nbytes
    line = capsys.readouterr().out.splitlines()[-1]
    assert line == (f"round-trip check vs {src}: max abs error = 1.110e-15 "
                    "(2.346e-16 of peak)")

    # the check alone, beside an output it does not copy
    _, peak = traced_peak(lambda: compare_tensor(src, Tensor.from_numpy(y)))
    assert peak <= CHECK_BOUND * y.nbytes, peak / y.nbytes

    # a NaN in the reference makes both the error and the peak NaN
    y[5, 7] = np.nan
    write_tensor(src, Tensor.from_numpy(y))
    assert cli.main(argv) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    assert line == f"round-trip check vs {src}: max abs error = nan (nan of peak)"


def test_far_tap_analysis_allocation_bound():
    # A generator tap at 30000001 sizes no array: the full analysis of 27x27
    # allocates what it does with the standard box generator {0, 1, 2}, plus
    # the far bank's tap tables, which hold its offsets as 8-digit ints (4 kB
    # more traced); the steps read each offset modulo the level's extent. An
    # array as wide as the tap would take 2.84 PiB.
    y = Tensor.from_numpy(np.random.default_rng(0).standard_normal((27, 27)))
    peaks = []
    for G in (far_tap_1d(), box_filter_1d(3, centered=False)):
        bank = build_pcs_bank(G, G, 2, "standard")
        decompose_fast(y, bank, 3)
        peaks.append(traced_peak(lambda: decompose_fast(y, bank, 3))[1])
    far, box = peaks
    assert far <= box + FAR_TABLES_ALLOWANCE, (far, box)


def test_far_tap_level_peaks_no_higher_than_box():
    # On 243x243 the far-tap bank's level-1 offsets are whole multiples of the
    # 81-wide phase and more. Both banks read every tap by block copies, so
    # one level down peaks at 1.23 input sizes for each; a wrap pad to the
    # offsets' remainders nearest zero (up to 34) peaked at 1.47. Both kernels
    # are planned and run once before either is traced: a plan freed or kept
    # changes how many tuples CPython's free list holds, and that alone moves
    # a traced peak by up to a few hundred bytes (FREE_LIST_ALLOWANCE).
    far = to_1d(filter_from_json(json.loads((FIXTURES / "far_tap_p3.json").read_text())))
    y = np.random.default_rng(0).standard_normal((243, 243))
    kerns = []
    for G in (far, box_filter_1d(3, centered=False)):
        bank = build_pcs_bank(G, G, 2, "standard")
        kerns.append(LevelKernels(bank.sys, bank.g1d, bank.h1d))
        kerns[-1].decompose_level(y)
    far_peak, box_peak = (traced_peak(lambda: kern.decompose_level(y))[1] for kern in kerns)
    assert far_peak <= box_peak + FREE_LIST_ALLOWANCE, (far_peak, box_peak)


def test_bank_writer_streams(tmp_path):
    bank = box_bank(5, 3)
    path = tmp_path / "bank.json"

    def write():
        with open(path, "w", encoding="utf-8") as fh:
            write_bank_json(fh, bank)
    _, peak = traced_peak(write)
    size = path.stat().st_size
    assert size > 6_000_000
    assert peak <= WRITER_BOUND * size, peak / size


def test_checked_load_compares_each_mask_as_it_is_derived():
    doc = json.loads(json.dumps(bank_to_json(box_bank(5, 3))))
    bank_from_json(doc)
    _, unchecked = traced_peak(lambda: bank_from_json(doc, cross_check=False))
    _, checked = traced_peak(lambda: bank_from_json(doc))
    assert checked <= CHECKED_LOAD_BOUND * unchecked, checked / unchecked


def test_sa_check_builds_no_polyphase_matrix():
    bank = box_bank(5, 3)
    report, peak = traced_peak(lambda: verify_combined_biorthogonality(bank))
    oracle, oracle_peak = traced_peak(
        lambda: verify_polyphase_matrices(*bank_polyphase_matrices(bank), bank.q))
    assert report.passed and oracle.passed
    assert peak <= SA_CHECK_BOUND * oracle_peak, peak / oracle_peak
