"""Binary formats for tensors (PCST) and multiresolution coefficients (PCSC).

PCST: magic b"PCST", u16 version = 1, u8 scalar code (0 = float64
little-endian), u8 n, then n x u64 shape, then the row-major payload.

PCSC: magic b"PCSC", u16 version = 1, u8 p, u8 n, u8 levels, then n x u64
input shape, then one record per subband. Each record is a u16 level and a
u16 coset index (position in the coset system's Gamma ordering; 0 is the
coarse tensor at level 0) followed by a complete PCST block. Records are
written, and must be read, coarse first, then level 0 up, each level's
details in Gamma' order, so identical inputs serialize byte-identically. A
PCST file ends with its payload and a PCSC file with its last record; a
reader refuses a byte more, and a record out of place.

All integers are little-endian. Only float64 tensors are serialized; rational
tensors are a verification device, not an interchange format.
"""

from __future__ import annotations

import itertools
import math
import os
import struct

import numpy as np

from .errors import DomainError, FormatError, ShapeMismatch
from .lattice import CosetSystem
from .tensor import FLOAT64, MultiresCoeffs, Tensor

TENSOR_MAGIC = b"PCST"
COEFFS_MAGIC = b"PCSC"
VERSION = 1
SCALAR_FLOAT64 = 0
MAX_NDIM = 32   # numpy 1.x's array rank limit
CHUNK = 1 << 15  # samples per read of compare_tensor


def _write_tensor(fh, t: Tensor) -> None:
    if t.mode != FLOAT64:
        raise DomainError("only float64 tensors have a binary form")
    fh.write(TENSOR_MAGIC)
    fh.write(struct.pack("<HBB", VERSION, SCALAR_FLOAT64, t.ndim))
    fh.write(struct.pack("<" + "Q" * t.ndim, *t.shape))
    fh.write(np.ascontiguousarray(t.data, dtype="<f8"))


def _read_exact(fh, count: int) -> bytes:
    buf = fh.read(count)
    if len(buf) != count:
        raise FormatError(f"truncated stream: wanted {count} bytes, got {len(buf)}")
    return buf


def _read_header(fh):
    """Read and check a PCST header; returns the shape, whose payload the file holds."""
    magic = _read_exact(fh, 4)
    if magic != TENSOR_MAGIC:
        raise FormatError(f"bad tensor magic {magic!r}")
    version, scalar, ndim = struct.unpack("<HBB", _read_exact(fh, 4))
    if version != VERSION:
        raise FormatError(f"unsupported tensor version {version}")
    if scalar != SCALAR_FLOAT64:
        raise FormatError(f"unsupported scalar code {scalar}")
    if not 1 <= ndim <= MAX_NDIM:
        raise FormatError(f"tensor ndim {ndim} is outside 1..{MAX_NDIM}")
    shape = struct.unpack("<" + "Q" * ndim, _read_exact(fh, 8 * ndim))
    if 0 in shape:
        raise FormatError(f"tensor shape {shape} has a zero extent")
    # a hostile header may claim any shape: check it before allocating
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    wanted = 8 * math.prod(shape)
    if wanted > left:
        raise FormatError(f"shape {shape} needs {wanted} payload bytes, "
                          f"the file has {left} left")
    return shape


def _read_lone_header(fh):
    """:func:`_read_header` for a file that holds one PCST and nothing after it."""
    shape = _read_header(fh)
    extra = os.fstat(fh.fileno()).st_size - fh.tell() - 8 * math.prod(shape)
    if extra:
        raise FormatError(f"{extra} trailing bytes after the payload")
    return shape


def _read_payload(fh, out) -> None:
    """Fill the float64 array out from fh."""
    got = fh.readinto(out)
    if got != out.nbytes:
        raise FormatError(f"truncated stream: wanted {out.nbytes} bytes, got {got}")


def _read_tensor(fh, shape) -> Tensor:
    data = np.empty(shape, dtype="<f8")
    _read_payload(fh, data)
    return Tensor(shape, FLOAT64, data)


def write_tensor(path, t: Tensor) -> None:
    with open(path, "wb") as fh:
        _write_tensor(fh, t)


def read_tensor(path) -> Tensor:
    with open(path, "rb") as fh:
        return _read_tensor(fh, _read_lone_header(fh))


def check_reference(path, shape) -> None:
    """Refuse the PCST at path unless it holds one tensor of this shape and nothing more."""
    with open(path, "rb") as fh:
        ref = _read_lone_header(fh)
    if shape != ref:
        raise ShapeMismatch(f"shapes {shape} and {ref} differ")


def compare_tensor(path, t: Tensor):
    """(max |t - ref|, max(|min ref|, |max ref|)) for the PCST ref at path.

    The reference is read in chunks of CHUNK samples through one buffer and
    never held whole; it is first checked by :func:`check_reference`, as
    :func:`read_tensor` checks a file. Both values are NaN when ref holds a
    NaN, and the first is NaN when t does.
    """
    check_reference(path, t.shape)
    with open(path, "rb") as fh:
        _read_header(fh)
        a = t.to_numpy().reshape(-1)
        buf = np.empty(min(a.size, CHUNK), dtype="<f8")
        lows, highs, errs = [], [], []
        for i in range(0, a.size, CHUNK):
            ref = buf[:min(CHUNK, a.size - i)]
            _read_payload(fh, ref)
            lows.append(ref.min())
            highs.append(ref.max())
            d = np.subtract(a[i:i + ref.size], ref, out=ref)
            errs.append(np.abs(d, out=d).max())
    # np.min and np.max keep a NaN
    return float(np.max(errs)), max(abs(float(np.min(lows))), abs(float(np.max(highs))))


def write_coeffs(path, c: MultiresCoeffs) -> None:
    if c.mode != FLOAT64:
        raise DomainError("only float64 coefficients have a binary form")
    c.check_layout()
    p, n, levels = c.sys.p, c.sys.n, len(c.details)
    if not all(0 <= x <= 255 for x in (p, n, levels)):
        raise DomainError(f"a PCSC header holds p, n and levels in one byte each, "
                          f"got p={p}, n={n}, levels={levels}")
    with open(path, "wb") as fh:
        fh.write(COEFFS_MAGIC)
        fh.write(struct.pack("<HBBB", VERSION, p, n, levels))
        fh.write(struct.pack("<" + "Q" * n, *c.input_shape()))
        fh.write(struct.pack("<HH", 0, 0))
        _write_tensor(fh, c.coarse)
        for level, dets in enumerate(c.details):
            for idx, t in enumerate(dets, 1):
                fh.write(struct.pack("<HH", level, idx))
                _write_tensor(fh, t)


def read_coeffs(path, sys: CosetSystem) -> MultiresCoeffs:
    """Load a PCSC file as a set that holds sys, the coset system that gives
    its coset indices their meaning. The records must come in the order
    :func:`write_coeffs` writes them: each tag is checked against the one
    expected there before its tensor is read.
    """
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4)
        if magic != COEFFS_MAGIC:
            raise FormatError(f"bad coefficient magic {magic!r}")
        version, p, n, levels = struct.unpack("<HBBB", _read_exact(fh, 5))
        if version != VERSION:
            raise FormatError(f"unsupported coefficient version {version}")
        if p != sys.p or n != sys.n:
            raise ShapeMismatch(f"file is for p={p}, n={n}; bank has p={sys.p}, n={sys.n}")
        shape = struct.unpack("<" + "Q" * n, _read_exact(fh, 8 * n))
        for axis, s in enumerate(shape):
            if s % p ** levels:
                raise FormatError(f"axis {axis} extent {s} not divisible by p^levels")

        tensors = []
        tags = ((level, idx) for level in range(levels) for idx in range(1, sys.q))
        for level, idx in itertools.chain([(0, 0)], tags):
            tag = struct.unpack("<HH", _read_exact(fh, 4))
            if tag != (level, idx):
                raise FormatError(f"record (level={tag[0]}, index={tag[1]}) "
                                  f"where (level={level}, index={idx}) belongs")
            got = _read_header(fh)
            want = tuple(s // p ** (levels - level) for s in shape)
            if got != want:
                what = f"detail (nu={sys.gamma[idx]}, level={level})" if idx else "coarse"
                raise ShapeMismatch(f"{what} shape {got}, expected {want}")
            tensors.append(_read_tensor(fh, got))
        if fh.read(1):
            raise FormatError("trailing bytes after the last record")
    k = sys.q - 1
    return MultiresCoeffs(sys, tensors[0], [tensors[i:i + k] for i in range(1, len(tensors), k)])
