"""Dense n-D signals with periodic indexing, in float64 or exact-rational mode.

Rational mode exists for verification: every transform identity holds exactly
there, so it is the ground truth the float64 path is judged against. The data
is an ndarray in both modes: float64, or in rational mode an object array of
Python ``int`` numerators over one positive denominator ``den``. The mode is
read from the dtype. ``Fraction`` appears only in :meth:`Tensor.values`, the
element view. Coordinates of an impulse are reduced modulo the shape,
matching the Z^n periodization the transforms assume.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Tuple

import numpy as np

from .arith import integer_form
from .errors import DomainError, ShapeMismatch
from .lattice import CosetSystem

FLOAT64 = "float64"
RATIONAL = "rational"


def _shape(shape) -> Tuple[int, ...]:
    shape = tuple(int(s) for s in shape)
    if not shape or any(s < 1 for s in shape):
        raise DomainError(f"bad shape {shape}")
    return shape


class Tensor:
    """Dense ndarray over float64, or over int numerators of one denominator.

    In float64 mode ``data`` has dtype float64 and ``den`` is None. In
    rational mode ``data`` has dtype object and holds Python ``int``
    numerators, and ``den`` is their positive ``int`` denominator: an element
    is data[k] / den. The constructor takes the values as a flat row-major
    sequence or as an array. In rational mode they may be ``Fraction``,
    ``int`` or anything ``Fraction`` takes, put in :func:`pcswave.arith.integer_form`;
    with ``den`` given, ``data`` is an object array of ``int`` numerators over
    it, as the kernels return them. ``==`` compares values, whatever the
    denominators. An element's float64 is ``data[k] / den``, by ``int / int``.
    """

    __slots__ = ("data", "den")

    def __init__(self, shape, mode: str, data, den=None):
        shape = _shape(shape)
        if mode == RATIONAL:
            if den is None:
                data, den = integer_form((v, 1) if type(v) is int else (
                    v if type(v) is Fraction else Fraction(v)).as_integer_ratio()
                    for v in (data.ravel().tolist() if isinstance(data, np.ndarray) else data))
            elif not (type(den) is int and den > 0 and isinstance(data, np.ndarray)
                      and data.dtype == object
                      and set(map(type, data.ravel().tolist())) <= {int}):
                raise DomainError("rational numerators must be an object array of int "
                                  "over a positive int denominator")
            arr = np.ascontiguousarray(data, dtype=object)
        elif mode == FLOAT64:
            if den is not None:
                raise DomainError("a float64 tensor has no denominator")
            arr = np.ascontiguousarray(data, dtype=np.float64)
        else:
            raise DomainError(f"unknown scalar mode {mode!r}")
        if arr.size != math.prod(shape):
            raise ShapeMismatch(f"{arr.size} values for shape {shape}")
        self.data = arr.reshape(shape)
        self.den = den

    @property
    def mode(self) -> str:
        return RATIONAL if self.data.dtype == object else FLOAT64

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @classmethod
    def zeros(cls, shape, mode: str = FLOAT64) -> "Tensor":
        shape = _shape(shape)
        return cls(shape, mode, np.zeros(shape, dtype=object if mode == RATIONAL else float))

    @classmethod
    def from_numpy(cls, arr) -> "Tensor":
        return cls(np.asarray(arr).shape, FLOAT64, arr)

    @classmethod
    def impulse(cls, shape, at=None, mode: str = RATIONAL) -> "Tensor":
        t = cls.zeros(shape, mode)
        at = tuple(at) if at is not None else (0,) * t.ndim
        t.data[tuple(i % s for i, s in zip(at, t.shape))] = 1
        return t

    def values(self) -> np.ndarray:
        """The elements: the float64 data itself, or a new object array of ``Fraction``."""
        if self.den is None:
            return self.data
        den = self.den
        return np.array([Fraction(v, den) for v in self.data.ravel().tolist()],
                        dtype=object).reshape(self.shape)

    def to_numpy(self) -> np.ndarray:
        if self.den is None:
            return self.data
        # int / int rounds correctly, as float(Fraction) does
        return (self.data / self.den).astype(np.float64)

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        if self.shape != other.shape or self.mode != other.mode:
            return False
        if self.den == other.den:
            return bool(np.array_equal(self.data, other.data))
        return bool(np.array_equal(self.data * other.den, other.data * self.den))

    def max_abs_diff(self, other: "Tensor") -> float:
        """The largest |self - other| over all elements, in float64, in one
        pass; NaN when any difference is NaN."""
        if self.shape != other.shape:
            raise ShapeMismatch(f"shapes {self.shape} and {other.shape} differ")
        return float(np.max(np.abs(self.to_numpy() - other.to_numpy())))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, mode={self.mode})"


class MultiresCoeffs:
    """Coarse tensor y_0 plus the detail tensors w_{nu,j} of a J-level transform.

    It holds ``sys``, its bank's CosetSystem, and ``details[j]``: level j's
    q - 1 detail tensors in the kernels' Gamma' order, entry i - 1 being coset
    sys.gamma[i], its PCSC record's coset index. Level j tensors have shape
    input_shape / p^(J-j); the coarse tensor sits at level 0, so J is ``len(details)``.
    """

    __slots__ = ("sys", "coarse", "details")

    def __init__(self, sys: CosetSystem, coarse: Tensor, details: List[List[Tensor]]):
        self.sys, self.coarse, self.details = sys, coarse, details

    @property
    def mode(self) -> str:
        return self.coarse.mode

    def input_shape(self) -> Tuple[int, ...]:
        scale = self.sys.p ** len(self.details)
        return tuple(s * scale for s in self.coarse.shape)

    def check_layout(self) -> None:
        """Refuse a level that does not hold q - 1 details of its shape and mode."""
        cosets = self.sys.gamma_prime
        for j, dets in enumerate(self.details):
            if len(dets) != len(cosets):
                raise ShapeMismatch(f"level {j} holds {len(dets)} details, not {len(cosets)}")
            want = tuple(s * self.sys.p ** j for s in self.coarse.shape)
            for nu, t in zip(cosets, dets):
                if t.mode != self.mode:
                    raise DomainError(f"detail (nu={nu}, level={j}) is {t.mode}, not {self.mode}")
                if t.shape != want:
                    raise ShapeMismatch(
                        f"detail (nu={nu}, level={j}) has shape {t.shape}, expected {want}")
