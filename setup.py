"""Setuptools shim.

The project has no ``pyproject.toml`` and needs no installation: the
package runs from the source tree with ``PYTHONPATH=src``.  This file
exists so that a legacy (non-PEP-517) editable install —
``pip install -e . --no-use-pep517`` — works in offline environments that
lack the ``wheel`` package.  It declares the package under ``src/`` and
ships the C source of the compiled rounding kernel
(``repro/arithmetic/_rounding.c``), which the package compiles on first
use; nothing is compiled at install time.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro.arithmetic": ["_rounding.c"]},
)
