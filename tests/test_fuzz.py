"""Mutation fuzzing of every input decoder: a damaged PCST, PCSC or bank JSON
document must load or raise a PcswaveError, never any other exception, and a
damaged checked-bank marker must be read or be a miss."""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcswave import cli
from pcswave.dataio import read_coeffs, read_tensor, write_coeffs, write_tensor
from pcswave.errors import PcswaveError
from pcswave.filterbank import bank_from_json, bank_to_json, build_pcs_bank
from pcswave.filters import Generators, header_text, read_header, require_generators
from pcswave.plan import LevelPlan
from pcswave.presets import box_bank
from pcswave.tensor import Tensor
from pcswave.transform import decompose_fast

from conftest import FAR_TAPS, far_tap_1d

FUZZ = settings(max_examples=150, deadline=None, derandomize=True)

BANK = box_bank(3, 2)
BANK_DOC = bank_to_json(BANK)
REPLACEMENTS = [None, [], {}, "x", 0, -1, 2 ** 70, 1.5, True]
# the sample PCSC: a 25-byte header, then 9 records of 100 bytes each (a
# u16 level, a u16 index and a 3x3 PCST)
PCSC_HEADER, PCSC_RECORD = 25, 100
# mutants that hold bytes no header gives a meaning to, or records out of the
# written order, which a reader must refuse
REFUSED = ("append", "splice", "swap")


@pytest.fixture(scope="module")
def samples(tmp_path_factory):
    """Valid PCST and PCSC bytes, and a scratch path to write mutants to."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    y = Tensor.from_numpy(rng.standard_normal((9, 9)))
    write_tensor(root / "y.pcst", y)
    write_coeffs(root / "y.pcsc", decompose_fast(y, BANK, 1))
    assert (root / "y.pcsc").stat().st_size == PCSC_HEADER + 9 * PCSC_RECORD
    return {"pcst": (root / "y.pcst").read_bytes(),
            "pcsc": (root / "y.pcsc").read_bytes(),
            "scratch": root / "mutant"}


@st.composite
def mutations(draw, raw, fmt):
    """(kind, mutant) of the valid bytes raw; a PCSC may have a record spliced
    in twice, or two records exchanged."""
    kind = draw(st.sampled_from(["truncate", "flip", "header_byte", "append"]
                                + (["splice", "swap"] if fmt == "pcsc" else [])))
    buf = bytearray(raw)
    if kind == "truncate":
        del buf[draw(st.integers(0, len(buf) - 1)):]
    elif kind == "flip":
        bit = draw(st.integers(0, 8 * len(buf) - 1))
        buf[bit // 8] ^= 1 << (bit % 8)
    elif kind == "header_byte":
        buf[draw(st.integers(0, 39))] = draw(st.integers(0, 255))
    elif kind == "append":
        buf += draw(st.binary(min_size=1, max_size=64))
    else:
        records = (len(raw) - PCSC_HEADER) // PCSC_RECORD
        if kind == "splice":
            start = PCSC_HEADER + PCSC_RECORD * draw(st.integers(0, records - 1))
            at = PCSC_HEADER + PCSC_RECORD * draw(st.integers(0, records))
            buf[at:at] = raw[start:start + PCSC_RECORD]
        else:
            pair = draw(st.lists(st.integers(0, records - 1), min_size=2, max_size=2,
                                 unique=True))
            a, b = (slice(PCSC_HEADER + PCSC_RECORD * i, PCSC_HEADER + PCSC_RECORD * (i + 1))
                    for i in pair)
            buf[a], buf[b] = raw[b], raw[a]
    return kind, bytes(buf)


def _load_or_pcswave_error(load, *args, **kwargs):
    try:
        load(*args, **kwargs)
    except PcswaveError:
        pass


@FUZZ
@given(data=st.data(), fmt=st.sampled_from(["pcst", "pcsc"]))
def test_damaged_binary_files(samples, data, fmt):
    path = samples["scratch"]
    kind, mutant = data.draw(mutations(samples[fmt], fmt))
    path.write_bytes(mutant)
    load = (lambda: read_tensor(path)) if fmt == "pcst" else (lambda: read_coeffs(path, BANK.sys))
    if kind in REFUSED:
        with pytest.raises(PcswaveError):
            load()
    else:
        _load_or_pcswave_error(load)


def _node_paths(node, path=()):
    """The key path of every node below the root of a JSON document."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from _node_paths(child, path + (key,))


# the box bank, and banks designed from generators whose third tap lies far
# beyond any grid
DOCS = [BANK_DOC] + [bank_to_json(build_pcs_bank(far_tap_1d(m), far_tap_1d(m), 2, "standard"))
                     for m in FAR_TAPS]
NODE_PATHS = [list(_node_paths(doc)) for doc in DOCS]


@settings(FUZZ, max_examples=150 * len(DOCS))
@given(data=st.data(), value=st.sampled_from(REPLACEMENTS), cross_check=st.booleans())
def test_damaged_bank_json(data, value, cross_check):
    # a bank that loads must also run the fast transform
    i = data.draw(st.integers(0, len(DOCS) - 1))
    doc = copy.deepcopy(DOCS[i])
    path = data.draw(st.sampled_from(NODE_PATHS[i]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    # the document must still be expressible as JSON text
    doc = json.loads(json.dumps(doc))
    y = Tensor.from_numpy(np.random.default_rng(0).standard_normal((9, 9)))
    _load_or_pcswave_error(
        lambda: decompose_fast(y, bank_from_json(doc, cross_check=cross_check), 2))


HEADER = header_text(BANK)
HEADER_PATHS = list(_node_paths(json.loads(HEADER)))


@FUZZ
@given(data=st.data(), value=st.sampled_from(REPLACEMENTS))
def test_damaged_bank_header(data, value):
    # a header that loads must also plan the fast transform
    doc = json.loads(HEADER)
    path = data.draw(st.sampled_from(HEADER_PATHS))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    doc = json.loads(json.dumps(doc))

    def read_and_plan():
        gens = read_header(doc)
        require_generators(*gens)
        LevelPlan(*gens)

    _load_or_pcswave_error(read_and_plan)


@FUZZ
@given(data=st.data())
def test_damaged_marker_is_read_or_a_miss(samples, data):
    _, mutant = data.draw(mutations(HEADER.encode(), "marker"))
    samples["scratch"].write_bytes(mutant)
    gens = cli._cached(str(samples["scratch"]), 1 << 20)
    if gens is not None:
        assert isinstance(gens, Generators)
        LevelPlan(*gens)
