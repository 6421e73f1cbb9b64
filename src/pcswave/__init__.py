"""Non-separable n-D wavelet filter banks from 1-D filters via the prime coset sum.

The package builds perfect-reconstruction wavelet filter banks for any prime
scalar dilation and any spatial dimension from two 1-D lowpass filters,
verifies every algebraic identity in exact rational/cyclotomic arithmetic,
and runs the associated fast decomposition/reconstruction on periodic n-D
data with operation accounting.
"""

from .arith import Cyclotomic, LaurentPoly, format_rational, is_prime, parse_rational
from .cosetsum import coset_sum_mask_eval, prime_coset_sum
from .errors import (CompositeDilation, DimensionMismatch, DomainError,
                     FormatError, InvalidConvention, NotInterpolatory,
                     NotLowpass, PcswaveError, ShapeMismatch,
                     ShapeNotDivisible, WrongProvenance, ZeroResidue)
from .filterbank import (WaveletFilterBank, bank_from_json, bank_report,
                         bank_to_json, build_general, build_pcs_bank,
                         verify_combined_biorthogonality)
from .filters import (Filter1D, FilterND, MaskDiagnostics, diagnostics,
                      filter_1d, filter_from_json, filter_nd, filter_to_json,
                      is_biorthogonal, is_interpolatory, mask_eval, to_1d)
from .lattice import (CENTERED, STANDARD, CosetSystem, coset_zero_count, eta,
                      make_coset_system, mult_inverse)
from .polyphase import (PolyphaseMatrix, build_A_S, coset_sum_polyphase,
                        matmul_check, polyphase_decompose)
from .tensor import MultiresCoeffs, Tensor
from .transform import (OpCount, count_ops, decompose_direct, decompose_fast,
                        reconstruct_direct, reconstruct_fast)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
