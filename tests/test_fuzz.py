"""Mutation fuzzing of every input decoder: a damaged PCST, PCSC or bank JSON
document must load or raise a PcswaveError, never any other exception."""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcswave.dataio import read_coeffs, read_tensor, write_coeffs, write_tensor
from pcswave.errors import PcswaveError
from pcswave.filterbank import bank_from_json, bank_to_json
from pcswave.presets import box_bank
from pcswave.tensor import Tensor
from pcswave.transform import decompose_fast

FUZZ = settings(max_examples=150, deadline=None, derandomize=True)

BANK = box_bank(3, 2)
BANK_DOC = bank_to_json(BANK)
REPLACEMENTS = [None, [], {}, "x", 0, -1, 2 ** 70, 1.5, True]


@pytest.fixture(scope="module")
def samples(tmp_path_factory):
    """Valid PCST and PCSC bytes, and a scratch path to write mutants to."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    y = Tensor.from_numpy(rng.standard_normal((9, 9)))
    write_tensor(root / "y.pcst", y)
    write_coeffs(root / "y.pcsc", decompose_fast(y, BANK, 1))
    return {"pcst": (root / "y.pcst").read_bytes(),
            "pcsc": (root / "y.pcsc").read_bytes(),
            "scratch": root / "mutant"}


@st.composite
def mutations(draw, raw):
    kind = draw(st.sampled_from(["truncate", "flip", "header_byte"]))
    buf = bytearray(raw)
    if kind == "truncate":
        return bytes(buf[:draw(st.integers(0, len(buf) - 1))])
    if kind == "flip":
        bit = draw(st.integers(0, 8 * len(buf) - 1))
        buf[bit // 8] ^= 1 << (bit % 8)
    else:
        buf[draw(st.integers(0, 39))] = draw(st.integers(0, 255))
    return bytes(buf)


def _load_or_pcswave_error(load, *args, **kwargs):
    try:
        load(*args, **kwargs)
    except PcswaveError:
        pass


@FUZZ
@given(data=st.data(), fmt=st.sampled_from(["pcst", "pcsc"]))
def test_damaged_binary_files(samples, data, fmt):
    path = samples["scratch"]
    path.write_bytes(data.draw(mutations(samples[fmt])))
    if fmt == "pcst":
        _load_or_pcswave_error(read_tensor, path)
    else:
        _load_or_pcswave_error(read_coeffs, path, BANK)


def _node_paths(node, path=()):
    """The key path of every node below the root of a JSON document."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from _node_paths(child, path + (key,))


NODE_PATHS = list(_node_paths(BANK_DOC))


@FUZZ
@given(path=st.sampled_from(NODE_PATHS), value=st.sampled_from(REPLACEMENTS),
       cross_check=st.booleans())
def test_damaged_bank_json(path, value, cross_check):
    doc = copy.deepcopy(BANK_DOC)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    # the document must still be expressible as JSON text
    doc = json.loads(json.dumps(doc))
    _load_or_pcswave_error(bank_from_json, doc, cross_check=cross_check)
