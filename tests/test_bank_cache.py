"""The checked-bank cache of analyze, synthesize and bench: a bank whose bytes
passed the checked load under this package's code is not checked again, and
nothing a command prints or writes depends on whether it was."""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pcswave import cli
from pcswave.dataio import write_coeffs, write_tensor
from pcswave.filterbank import bank_from_json
from pcswave.tensor import Tensor
from pcswave.transform import decompose_fast

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"
MISMATCH = "error: bank filters do not match re-derivation from generators: t_d[-1,-1] differs"


def run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def markers(cache_home):
    path = cache_home / "pcswave" / "checked-banks"
    return sorted(os.listdir(path)) if path.is_dir() else []


def marker_path(cache_home):
    """The path of the one marker in cache_home."""
    names = markers(cache_home)
    assert len(names) == 1, names
    return cache_home / "pcswave" / "checked-banks" / names[0]


@pytest.fixture
def work(tmp_path, capsys):
    """A box p=3 n=2 bank, a 27x27 input and its one-level PCSC, written without the CLI."""
    box = FIXTURES / "box_p3_centered.json"
    bank = tmp_path / "bank.json"
    assert run(capsys, "design", "--p", 3, "--dim", 2, "--g", box,
               "--h", FIXTURES / "interp_p3_deg4.json", "--gamma", "centered",
               "-o", bank)[0] == 0
    y = Tensor.from_numpy(np.random.default_rng(5).standard_normal((27, 27)))
    write_tensor(tmp_path / "in.pcst", y)
    write_coeffs(tmp_path / "in.pcsc", decompose_fast(y, bank_from_json(json.loads(
        bank.read_text())), 1))
    return tmp_path


def commands(work, json_path=None):
    """argv of each cached command on work's bank, and the files it writes."""
    bank, out = work / "bank.json", work / "out"
    extra = [] if json_path is None else ["--json", json_path]
    return {
        "analyze": (["analyze", "--bank", bank, "--levels", 2, work / "in.pcst",
                     "-o", out, *extra], out),
        "analyze_oracle": (["analyze", "--bank", bank, "--levels", 2, work / "in.pcst",
                            "-o", out, "--oracle", *extra], out),
        "synthesize": (["synthesize", "--bank", bank, work / "in.pcsc", "-o", out,
                        "--check-against", work / "in.pcst", *extra], out),
        "bench": (["bench", "--bank", bank, "--shape", "27x27", "--levels", 2,
                   "--compare-tensor-model", *extra], None),
    }


def outcome(capsys, argv, written):
    """(exit code, stdout, stderr, bytes written) of one command run in process."""
    if written is not None and written.exists():
        written.unlink()
    code, out, err = run(capsys, *argv)
    return code, out, err, written.read_bytes() if written is not None and written.exists() else None


def test_bench_json_reports_check_ran_then_cached(work, capsys, cache_home):
    report = work / "bench.json"
    argv = ["bench", "--bank", work / "bank.json", "--shape", "27x27", "--json", report]
    seen = []
    for _ in range(2):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        rep = json.loads(report.read_text())
        assert rep["timings"]["load_s"] >= 0
        seen.append((rep.pop("bank_check"), out, {k: v for k, v in rep.items() if k != "timings"}))
    assert [check for check, _, _ in seen] == ["ran", "cached"]
    assert seen[0][1:] == seen[1][1:]
    assert len(markers(cache_home)) == 1


@pytest.mark.parametrize("with_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("command", ["analyze", "analyze_oracle", "synthesize", "bench"])
def test_hit_equals_miss(work, capsys, cache_home, command, with_json):
    report = work / "report.json" if with_json else None
    argv, written = commands(work, report)[command]
    runs, reports = [], []
    for _ in range(2):
        runs.append(outcome(capsys, argv, written))
        if with_json:
            rep = json.loads(report.read_text())
            assert set(rep.pop("timings")) == {"load_s"}
            reports.append(rep)
    assert runs[0][0] == 0 and runs[0][2] == ""
    assert runs[0] == runs[1]
    if with_json:
        assert [rep.pop("bank_check") for rep in reports] == ["ran", "cached"]
        assert reports[0] == reports[1]
    assert len(markers(cache_home)) == 1


def _tampered(work):
    """A copy of work's bank with one t_d tap changed."""
    doc = json.loads((work / "bank.json").read_text())
    doc["filters"]["t_d"]["-1,-1"]["taps"][0]["v"] = "17/2"
    bad = work / "tampered.json"
    bad.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return bad


@pytest.mark.parametrize("command", ["analyze", "analyze_oracle", "synthesize", "bench"])
def test_tampered_copy_of_a_cached_bank_is_refused(work, capsys, cache_home, command):
    argv, written = commands(work)[command]
    assert outcome(capsys, argv, written)[0] == 0
    cached = markers(cache_home)
    assert len(cached) == 1
    bad = _tampered(work)
    argv = [bad if a == work / "bank.json" else a for a in argv]
    for _ in range(2):
        code, out, err, data = outcome(capsys, argv, written)
        assert (code, out, data) == (2, "", None)
        assert err == MISMATCH + "\n"
    assert markers(cache_home) == cached


def test_general_bank_leaves_no_marker(work, capsys, cache_home):
    doc = json.loads((work / "bank.json").read_text())
    doc.update(G=None, H=None, provenance="general")
    general = work / "general.json"
    general.write_text(json.dumps(doc))
    for _ in range(2):
        code, _, err = run(capsys, "bench", "--bank", general, "--shape", "27x27")
        assert code == 2 and "needs a bank built from 1-D generators" in err
    assert markers(cache_home) == []


def _break(cache_home, how):
    if how == "file":
        # a regular file where the cache's directory should be
        (cache_home / "pcswave").write_text("")
    else:
        (cache_home / "pcswave" / "checked-banks").mkdir(parents=True)
        os.chmod(cache_home / "pcswave" / "checked-banks", 0o500)


@pytest.mark.parametrize("how", ["file", "unwritable"])
def test_broken_cache_directory_changes_no_output(work, capsys, cache_home, tmp_path_factory,
                                                  monkeypatch, how):
    cases = dict(commands(work))
    cases["missing_input"] = (["analyze", "--bank", work / "bank.json", "--levels", 1,
                               work / "missing.pcst", "-o", work / "out"], work / "out")
    cases["tampered"] = (["bench", "--bank", _tampered(work), "--shape", "27x27"], None)
    want = {name: outcome(capsys, *case) for name, case in cases.items()}
    assert [want[name][0] for name in cases] == [0, 0, 0, 0, 2, 2]

    broken = tmp_path_factory.mktemp("broken")
    monkeypatch.setenv("XDG_CACHE_HOME", str(broken))
    _break(broken, how)
    if how == "unwritable":
        # root writes through the mode bits, so the refusal is also raised here
        real = os.makedirs

        def refused(name, *args, **kwargs):
            if str(name).startswith(str(broken)):
                raise PermissionError(13, "Permission denied", name)
            return real(name, *args, **kwargs)
        monkeypatch.setattr(os, "makedirs", refused)
    for name, case in cases.items():
        for _ in range(2):
            assert outcome(capsys, *case) == want[name], name
    if how == "unwritable":
        assert markers(broken) == []
    else:
        assert (broken / "pcswave").is_file()

    # the script itself: the same output, and no traceback
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for name, (argv, written) in cases.items():
        proc = subprocess.run([sys.executable, "-m", "pcswave.cli", *map(str, argv)],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == want[name][:3], name
        assert "Traceback" not in proc.stderr


def test_changed_code_is_a_miss(work, capsys, cache_home, monkeypatch):
    report = work / "bench.json"
    argv = ["bench", "--bank", work / "bank.json", "--shape", "27x27", "--json", report]

    def check():
        assert run(capsys, *argv)[0] == 0
        return json.loads(report.read_text())["bank_check"]
    assert [check(), check()] == ["ran", "cached"]
    sources = cli._package_sources()
    name, text = sources[-1]
    changed = sources[:-1] + [(name, text[:-1] + bytes([text[-1] ^ 1]))]
    monkeypatch.setattr(cli, "_code_hash", None)
    monkeypatch.setattr(cli, "_package_sources", lambda: changed)
    assert [check(), check()] == ["ran", "cached"]
    assert len(markers(cache_home)) == 2


def _header(work):
    """The header that the marker of work's bank holds: its p, dim, convention, G and H."""
    doc = json.loads((work / "bank.json").read_text())
    return {key: doc[key] for key in ("p", "dim", "convention", "G", "H")}


def _bad_marker(work, header_text, how):
    """The bytes of a marker that must count as a miss."""
    text = header_text.encode()
    size = (work / "bank.json").stat().st_size
    header = _header(work)
    if how == "empty":  # as a marker of the first cache format was left
        return b""
    if how == "truncated":
        return text[:len(text) // 2]
    if how == "not_utf8":
        return text.replace(b'"G"', b'"\xff"')
    if how == "deeply_nested":
        assert 2 * 4000 < size
        return b"[" * 4000 + b"]" * 4000
    if how == "larger_than_bank":
        # the header itself, padded with JSON whitespace past the bank's size
        return text + b" " * size
    if how == "not_lowpass":
        header["G"]["taps"][0]["v"] = "7/2"
    elif how == "other_dilation":
        header["G"]["p"] = 5
    elif how == "no_h":
        del header["H"]
    elif how == "no_generators":
        header.update(G=None, H=None)
    return json.dumps(header).encode()


BAD_MARKERS = ["empty", "truncated", "not_utf8", "deeply_nested", "larger_than_bank",
               "not_lowpass", "other_dilation", "no_h", "no_generators"]


@pytest.mark.parametrize("how", BAD_MARKERS)
@pytest.mark.parametrize("command", ["analyze", "analyze_oracle", "synthesize", "bench"])
def test_bad_marker_is_a_miss(work, capsys, cache_home, command, how):
    report = work / "report.json"
    argv, written = commands(work, report)[command]
    cold = outcome(capsys, argv, written)
    assert cold[0] == 0
    assert json.loads(report.read_text())["bank_check"] == "ran"
    marker = marker_path(cache_home)
    header_text = marker.read_text(encoding="ascii")
    assert json.loads(header_text) == _header(work)
    marker.write_bytes(_bad_marker(work, header_text, how))
    assert outcome(capsys, argv, written) == cold
    assert json.loads(report.read_text())["bank_check"] == "ran"
    # the miss wrote the header back, and the next load is a hit
    assert marker_path(cache_home) == marker
    assert marker.read_text(encoding="ascii") == header_text
    assert outcome(capsys, argv, written) == cold
    assert json.loads(report.read_text())["bank_check"] == "cached"


def test_marker_holds_the_header_on_one_line(work, capsys, cache_home):
    argv, written = commands(work)["bench"]
    assert outcome(capsys, argv, written)[0] == 0
    text = marker_path(cache_home).read_text(encoding="ascii")
    assert text == json.dumps(_header(work), sort_keys=True, separators=(",", ":"))
    assert len(text) < 1000


def _cold_outcomes(work, capsys, tmp_path_factory, monkeypatch, names):
    """What each command of names gives with a cache of its own, marker written."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cold")))
    return {name: outcome(capsys, *commands(work)[name]) for name in names}


@pytest.mark.parametrize("command", ["analyze", "synthesize", "bench"])
def test_failed_marker_replace_leaves_no_file(work, capsys, cache_home, tmp_path_factory,
                                              monkeypatch, command):
    want = _cold_outcomes(work, capsys, tmp_path_factory, monkeypatch, [command])[command]
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache_home))

    def refused(src, dst):
        raise OSError(28, "No space left on device", dst)
    monkeypatch.setattr(os, "replace", refused)
    for _ in range(2):
        assert outcome(capsys, *commands(work)[command]) == want
        assert markers(cache_home) == []


def test_marker_write_past_file_size_limit_leaves_no_file(work, capsys, cache_home,
                                                          tmp_path_factory, monkeypatch):
    # bench writes no file, so only the marker meets the limit; CPython ignores
    # SIGXFSZ, so the write fails with EFBIG after its first 64 bytes
    want = _cold_outcomes(work, capsys, tmp_path_factory, monkeypatch, ["bench"])["bench"]
    argv, _ = commands(work)["bench"]
    env = dict(os.environ, PYTHONPATH=str(SRC), XDG_CACHE_HOME=str(cache_home),
               PYTHONDONTWRITEBYTECODE="1")

    def limit():
        resource.setrlimit(resource.RLIMIT_FSIZE, (64, 64))
    for _ in range(2):
        proc = subprocess.run([sys.executable, "-m", "pcswave.cli", *map(str, argv)],
                              capture_output=True, text=True, env=env, timeout=60,
                              preexec_fn=limit)
        assert (proc.returncode, proc.stdout, proc.stderr) == want[:3]
        assert (cache_home / "pcswave" / "checked-banks").is_dir()
        assert markers(cache_home) == []


# runs the CLI in a fresh interpreter, then names the bank-algebra modules it imported
ALGEBRA_PROBE = """
import sys
from pcswave.cli import main
code = main(sys.argv[1:])
print(*sorted(name for name in ("pcswave.filterbank", "pcswave.cosetsum", "pcswave.polyphase")
              if name in sys.modules))
sys.exit(code)
"""


@pytest.mark.parametrize("with_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("command", ["analyze", "synthesize", "bench"])
def test_cached_command_imports_no_bank_algebra(work, capsys, cache_home, command, with_json):
    # the report is written by pcswave.filters.write_json, not by the bank's module
    argv, written = commands(work, work / "report.json" if with_json else None)[command]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    imported = []
    for _ in range(2):
        if written is not None and written.exists():
            written.unlink()
        proc = subprocess.run([sys.executable, "-c", ALGEBRA_PROBE, *map(str, argv)],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        imported.append(proc.stdout.splitlines()[-1])
    assert imported == ["pcswave.cosetsum pcswave.filterbank pcswave.polyphase", ""]
