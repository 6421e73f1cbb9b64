"""Non-separable n-D wavelet filter banks from 1-D filters via the prime coset sum.

The package builds perfect-reconstruction wavelet filter banks for any prime
scalar dilation and any spatial dimension from two 1-D lowpass filters,
verifies every algebraic identity in exact rational arithmetic, and runs the
associated fast decomposition/reconstruction on periodic n-D data with
operation accounting.

There is no top-level API: import from the module that defines a name, e.g.
``from pcswave.presets import box_bank``. Importing the package therefore
loads nothing else, and the exact-algebra commands never load numpy.
"""

__version__ = "0.1.0"
