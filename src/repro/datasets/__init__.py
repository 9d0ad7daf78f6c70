"""Synthetic stand-ins for the paper's matrix collections.

The paper evaluates two data sources that cannot be downloaded in this
environment (see docs/experiments.md, "Substitutions", items 1 and 2):

* 302 general symmetric matrices from the SuiteSparse Matrix Collection
  (``<= 20 000`` non-zeros) — replaced by :func:`suitesparse_like`;
* graph Laplacians derived from Network-Repository graphs, organised in 31
  categories that aggregate into four classes (Table 1) — replaced by
  :func:`graph_suite` with seeded random-graph generators per category.

Both suites return :class:`TestMatrix` objects carrying the matrix plus
metadata, exactly like MuFoLAB's ``TestMatrices`` layer.
"""

from .testmatrix import TestMatrix, CATEGORY_TO_CLASS, CLASS_NAMES, classify_category
from .suitesparse import suitesparse_like, GENERAL_FAMILIES
from .graphs import (
    graph_suite,
    generate_graph,
    category_counts,
    table1_counts,
    GRAPH_CATEGORIES,
)
from .registry import get_suite, available_suites

__all__ = [
    "TestMatrix",
    "CATEGORY_TO_CLASS",
    "CLASS_NAMES",
    "classify_category",
    "suitesparse_like",
    "GENERAL_FAMILIES",
    "graph_suite",
    "generate_graph",
    "category_counts",
    "table1_counts",
    "GRAPH_CATEGORIES",
    "get_suite",
    "available_suites",
]
