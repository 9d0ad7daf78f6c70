"""The benchmark's workloads: one seeded suite × formats grid each.

Matrix orders are fixed and only the values depend on the seed, so the
work per figure varies little from seed to seed.  The orders exceed the
solver's default Krylov dimension (25 for the paper's 10 + 2 eigenpairs),
so solves restart as in the paper, under the paper's restart budget of 25.
"""

from __future__ import annotations

import dataclasses

import repro.datasets
from repro.experiments import ExperimentConfig

from .layers import PAPER_FORMATS

SIXTEEN_BIT = ("float16", "bfloat16", "posit16", "takum16")


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    suite: str
    count: int
    size: int
    formats: tuple
    batch_formats: bool
    #: workloads that must produce the same records share a reference key
    reference: str
    #: graph suites: the Network-Repository categories kept from the suite
    categories: tuple = ()
    restarts: int = 25

    def build_suite(self, seed: int) -> list:
        # get_suite is looked up at call time, so the traced run sees its
        # wrapper; graph suites yield one graph per category at this scale
        kwargs = {"count": self.count} if self.suite == "general" else {"scale": 1e-4}
        suite = repro.datasets.get_suite(
            self.suite, size_range=(self.size, self.size), seed=seed, **kwargs
        )
        if self.categories:
            suite = [m for m in suite if m.category in self.categories]
        return suite[: self.count]

    def config(self) -> ExperimentConfig:
        return ExperimentConfig(restarts=self.restarts)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig1_seq", "general", 3, 32, PAPER_FORMATS, False, "fig1"),
        Workload("fig1_batched", "general", 3, 32, PAPER_FORMATS, True, "fig1"),
        Workload(
            "graphs_large", "infrastructure", 2, 300, SIXTEEN_BIT, False, "graphs_large",
            categories=("inf", "road"),
        ),
    )
}  # fmt: skip
