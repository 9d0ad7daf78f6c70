"""Dense linear-algebra kernels written against the compute contexts.

The Krylov-Schur restart of the Arnoldi method repeatedly factorises a small
projected matrix (a few dozen rows).  ARPACK and ``ArnoldiMethod.jl`` carry
out this step in the working precision; to reproduce that behaviour without
LAPACK the kernels here are written directly on top of the
:class:`~repro.arithmetic.context.ComputeContext` interface, so they run in
*any* of the emulated arithmetics (bfloat16, OFP8, posits, takums, ...).

Provided kernels:

* symmetric (Householder) tridiagonalisation and the implicit-shift QL
  eigensolver (:mod:`repro.linalg.tridiagonal`, compiled in the rounding
  kernel), the default spectral-decomposition path for the symmetric
  matrices studied in the paper;
* eigenvalue ordering rules used for selecting wanted Ritz values
  (:mod:`repro.linalg.ordering`);
* the Hungarian algorithm used to match computed eigenvectors to reference
  eigenvectors (:mod:`repro.linalg.hungarian`).
"""

from .tridiagonal import (
    tridiagonalize,
    tridiagonal_eigen,
    symmetric_eigen,
    EigenConvergenceError,
)
from .ordering import ordering_key, select_order, WHICH_RULES
from .hungarian import hungarian

__all__ = [
    "tridiagonalize",
    "tridiagonal_eigen",
    "symmetric_eigen",
    "EigenConvergenceError",
    "ordering_key",
    "select_order",
    "WHICH_RULES",
    "hungarian",
]
