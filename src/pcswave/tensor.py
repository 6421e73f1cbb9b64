"""Dense n-D signals with periodic indexing, in float64 or exact-rational mode.

Rational mode exists for verification: every transform identity holds exactly
there, so it is the ground truth the float64 path is judged against. The data
is an ndarray in both modes, float64 or object holding ``Fraction``, and the
mode is read from its dtype. Coordinates of an impulse are reduced modulo the
shape, matching the Z^n periodization the transforms assume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple

import numpy as np

from .errors import DomainError, ShapeMismatch

FLOAT64 = "float64"
RATIONAL = "rational"
# samples per block of Tensor.max_abs_diff
_DIFF_BLOCK = 1 << 14


def _shape(shape) -> Tuple[int, ...]:
    shape = tuple(int(s) for s in shape)
    if not shape or any(s < 1 for s in shape):
        raise DomainError(f"bad shape {shape}")
    return shape


class Tensor:
    """Dense ndarray over float64 or Fraction scalars.

    ``data`` has dtype float64 in float64 mode and dtype object, holding
    ``Fraction``, in rational mode. The constructor takes the values as a
    flat row-major sequence or as an array. In rational mode every value is
    made a ``Fraction``; an object array that holds only ``Fraction`` values,
    as the kernels return, is taken as it is.
    """

    __slots__ = ("data",)

    def __init__(self, shape, mode: str, data):
        shape = _shape(shape)
        if mode == RATIONAL:
            if not (isinstance(data, np.ndarray) and data.dtype == object
                    and all(type(v) is Fraction for v in data.flat)):
                vals = data.ravel().tolist() if isinstance(data, np.ndarray) else data
                data = [Fraction(v) for v in vals]
            arr = np.ascontiguousarray(data, dtype=object)
        elif mode == FLOAT64:
            arr = np.ascontiguousarray(data, dtype=np.float64)
        else:
            raise DomainError(f"unknown scalar mode {mode!r}")
        if arr.size != math.prod(shape):
            raise ShapeMismatch(f"{arr.size} values for shape {shape}")
        self.data = arr.reshape(shape)

    @property
    def mode(self) -> str:
        return RATIONAL if self.data.dtype == object else FLOAT64

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @classmethod
    def zeros(cls, shape, mode: str = FLOAT64) -> "Tensor":
        shape = _shape(shape)
        return cls(shape, mode, np.zeros(shape))

    @classmethod
    def from_numpy(cls, arr) -> "Tensor":
        return cls(np.asarray(arr).shape, FLOAT64, arr)

    @classmethod
    def impulse(cls, shape, at=None, mode: str = RATIONAL) -> "Tensor":
        t = cls.zeros(shape, mode)
        at = tuple(at) if at is not None else (0,) * t.ndim
        t.data[tuple(i % s for i, s in zip(at, t.shape))] = Fraction(1)
        return t

    def to_numpy(self) -> np.ndarray:
        return np.asarray(self.data, dtype=np.float64)

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return (self.shape == other.shape and self.mode == other.mode
                and bool(np.array_equal(self.data, other.data)))

    def max_abs_diff(self, other: "Tensor") -> float:
        if self.shape != other.shape:
            raise ShapeMismatch(f"shapes {self.shape} and {other.shape} differ")
        a, b = self.to_numpy().reshape(-1), other.to_numpy().reshape(-1)
        # block by block through one scratch buffer; np.max keeps a NaN
        buf = np.empty(min(a.size, _DIFF_BLOCK))
        peaks = []
        for i in range(0, a.size, _DIFF_BLOCK):
            x = a[i:i + _DIFF_BLOCK]
            d = np.subtract(x, b[i:i + _DIFF_BLOCK], out=buf[:x.size])
            peaks.append(np.abs(d, out=d).max())
        return float(np.max(peaks)) if peaks else 0.0

    def __repr__(self):
        return f"Tensor(shape={self.shape}, mode={self.mode})"


@dataclass
class MultiresCoeffs:
    """Coarse tensor y_0 plus detail tensors w_{nu,j} for a J-level transform.

    Level j tensors have shape input_shape / p^(J-j); the coarse tensor sits
    at level 0, details at levels 0 .. J-1 keyed by (nu, level).
    """

    p: int
    n: int
    gamma: Tuple[Tuple[int, ...], ...]
    levels: int
    coarse: Tensor
    details: Dict[Tuple[Tuple[int, ...], int], Tensor]

    @property
    def mode(self) -> str:
        return self.coarse.mode

    def input_shape(self) -> Tuple[int, ...]:
        scale = self.p ** self.levels
        return tuple(s * scale for s in self.coarse.shape)
