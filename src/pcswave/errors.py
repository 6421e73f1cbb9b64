"""Exception types shared across the package."""


class PcswaveError(Exception):
    """Base class for every error this package raises on purpose."""


class CompositeDilation(PcswaveError):
    """The dilation must be a prime number."""


class InvalidConvention(PcswaveError):
    """Unknown coset convention, or one that does not exist for this p."""


class DomainError(PcswaveError):
    """An argument lies outside the domain the operation is defined on."""


class NotLowpass(PcswaveError):
    """Filter tap sum differs from the lowpass normalization."""


class NotInterpolatory(PcswaveError):
    """Filter violates the interpolatory condition."""


class DimensionMismatch(PcswaveError):
    """Operands disagree on dilation or spatial dimension."""


class ShapeNotDivisible(PcswaveError):
    """Tensor shape is not divisible by p**levels along every axis."""


class WrongProvenance(PcswaveError):
    """Operation needs a bank built from 1-D generators."""


class ShapeMismatch(PcswaveError):
    """Coefficient shapes are inconsistent with each other or the bank."""


class FormatError(PcswaveError):
    """Malformed or inconsistent serialized data (JSON, PCST, PCSC)."""
