"""repro — reproduction of "Numerical Performance of the Implicitly Restarted
Arnoldi Method in OFP8, Bfloat16, Posit, and Takum Arithmetics" (SC '25).

The package is organised as:

* :mod:`repro.arithmetic` — machine-number formats (OFP8, bfloat16, posits,
  takums, IEEE), their rounding kernels (integer bit kernels compiled on
  first use, :mod:`repro.arithmetic.bitkernels`, over the pure-Python
  analytic kernels), and per-operation rounding compute contexts;
* :mod:`repro.sparse` — CSR/COO sparse-matrix substrate, Matrix Market and
  edge-list I/O, graph-Laplacian preparation;
* :mod:`repro.linalg` — dense kernels (symmetric Householder
  tridiagonalisation and QL, compiled in the rounding kernel) run in the
  compute contexts, plus the Hungarian assignment algorithm;
* :mod:`repro.core` — the implicitly restarted Arnoldi method with
  Krylov-Schur restarts (``partialschur``);
* :mod:`repro.datasets` — synthetic stand-ins for the SuiteSparse Matrix
  Collection and the Network Repository graph classes;
* :mod:`repro.experiments` — the experiment harness (tolerances, reference
  solves, eigenvector matching, error metrics, aggregation into the paper's
  cumulative error distributions).

Quickstart::

    from repro import partialschur, get_context
    from repro.datasets import graph_suite

    laplacian = graph_suite(classes="social", scale=0.002)[0].matrix
    result = partialschur(laplacian, nev=10, tol=1e-4, ctx="takum16")
    print(result.eigenvalues_float64())
"""

from . import arithmetic, core, datasets, experiments, linalg, sparse, utils
from .arithmetic import (
    ContextSpec,
    available_formats,
    get_context,
    get_format,
    precision,
)
from .core import partialschur

__version__ = "1.0.0"

__all__ = [
    "arithmetic",
    "core",
    "datasets",
    "experiments",
    "linalg",
    "sparse",
    "utils",
    "get_context",
    "get_format",
    "available_formats",
    "ContextSpec",
    "precision",
    "partialschur",
    "__version__",
]
