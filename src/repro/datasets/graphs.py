"""Synthetic stand-in for the Network Repository graph collection.

The paper scrapes ~3 300 graphs (archives below 500 kB) from 31 categories
and aggregates them into four classes (Table 1).  Offline, each category is
emulated with a seeded random-graph model whose structure matches the kind of
network the category contains (duplication-divergence for protein interaction
networks, lattice-like graphs for road/power networks, preferential attachment
for social/web graphs, Erdős–Rényi for the ``rand``/``misc`` categories, ...).

The per-category *counts* follow Table 1, scaled down by a configurable
factor so that the full pipeline runs in minutes; ``scale=1.0`` reproduces
the paper's population sizes.

Each graph model imports ``networkx`` itself: importing it takes about as
long as the rest of the package, and only the graph suites need it.
"""

from __future__ import annotations

import math
import zlib
from typing import Callable

import numpy as np

from ..sparse import COOMatrix, CSRMatrix, laplacian_from_adjacency
from .testmatrix import CATEGORY_TO_CLASS, TestMatrix

__all__ = [
    "GRAPH_CATEGORIES",
    "TABLE1_COUNTS",
    "generate_graph",
    "graph_suite",
    "category_counts",
    "table1_counts",
]


#: Table 1 of the paper: number of graphs per Network-Repository category
#: after the 500 kB archive-size filter.
TABLE1_COUNTS: dict[str, int] = {
    "bio": 24,
    "eco": 6,
    "protein": 1178,
    "bn": 11,
    "inf": 4,
    "massive": 0,
    "power": 8,
    "road": 3,
    "tech": 5,
    "web": 9,
    "ca": 7,
    "cit": 1,
    "dynamic": 43,
    "econ": 12,
    "email": 6,
    "ia": 17,
    "proximity": 6,
    "rec": 2,
    "retweet_graphs": 28,
    "rt": 31,
    "soc": 21,
    "socfb": 27,
    "tscc": 33,
    "dimacs": 62,
    "dimacs10": 17,
    "graph500": 0,
    "heter": 0,
    "labeled": 47,
    "misc": 1555,
    "rand": 139,
    "sc": 0,
}

#: all known categories, in Table-1 order
GRAPH_CATEGORIES: tuple[str, ...] = tuple(TABLE1_COUNTS)


# --------------------------------------------------------------------------- #
# per-category graph models
# --------------------------------------------------------------------------- #
def _seed_int(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _duplication(n, rng):
    import networkx as nx
    return nx.duplication_divergence_graph(n, float(rng.uniform(0.2, 0.5)), seed=_seed_int(rng))


def _small_world(n, rng, k=6, p=0.3):
    import networkx as nx
    k = min(k, max(2, n - 1))
    if k % 2:
        k -= 1
    return nx.watts_strogatz_graph(n, max(k, 2), p, seed=_seed_int(rng))


def _power_grid(n, rng):
    import networkx as nx
    return nx.newman_watts_strogatz_graph(n, 2, 0.08, seed=_seed_int(rng))


def _grid_like(n, rng):
    import networkx as nx
    side = max(2, int(math.sqrt(n)))
    g = nx.grid_2d_graph(side, max(2, n // side))
    g = nx.convert_node_labels_to_integers(g)
    # drop a few edges to break the perfect lattice
    rs = np.random.default_rng(_seed_int(rng))
    edges = list(g.edges())
    drop = rs.choice(len(edges), size=max(1, len(edges) // 20), replace=False)
    g.remove_edges_from([edges[i] for i in drop])
    return g


def _preferential(n, rng, m=2):
    import networkx as nx
    return nx.barabasi_albert_graph(n, min(m, max(1, n - 1)), seed=_seed_int(rng))


def _powerlaw_cluster(n, rng, m=2, p=0.3):
    import networkx as nx
    return nx.powerlaw_cluster_graph(n, min(m, max(1, n - 1)), p, seed=_seed_int(rng))


def _gnp(n, rng, avg_degree=6.0):
    import networkx as nx
    p = min(1.0, avg_degree / max(n - 1, 1))
    return nx.gnp_random_graph(n, p, seed=_seed_int(rng))


def _geometric(n, rng):
    import networkx as nx
    radius = math.sqrt(4.0 / max(n, 4))
    return nx.random_geometric_graph(n, radius, seed=_seed_int(rng))


def _blocks(n, rng):
    import networkx as nx
    n_blocks = int(rng.integers(2, 5))
    sizes = [max(2, n // n_blocks)] * n_blocks
    p_in, p_out = 0.25, 0.02
    probs = [[p_in if i == j else p_out for j in range(n_blocks)] for i in range(n_blocks)]
    return nx.stochastic_block_model(sizes, probs, seed=_seed_int(rng))


def _regular(n, rng, d=3):
    import networkx as nx
    d = min(d, n - 1)
    if (n * d) % 2:
        d += 1
        d = min(d, n - 1)
    if d < 1:
        d = 1
    try:
        return nx.random_regular_graph(d, n, seed=_seed_int(rng))
    except nx.NetworkXError:
        return _gnp(n, rng, avg_degree=d)


def _tree_like(n, rng):
    import networkx as nx
    branching = int(rng.integers(2, 4))
    height = max(1, int(math.log(max(n, 2), branching)))
    g = nx.balanced_tree(branching, height)
    return nx.convert_node_labels_to_integers(g)


def _bipartite(n, rng):
    import networkx as nx
    a = max(2, n // 3)
    b = max(2, n - a)
    return nx.bipartite.random_graph(a, b, 0.1, seed=_seed_int(rng))


def _star_bursts(n, rng):
    import networkx as nx
    # retweet cascades: a few hubs with many leaves
    g = nx.barabasi_albert_graph(n, 1, seed=_seed_int(rng))
    return g


#: category -> graph model
_CATEGORY_MODELS: dict[str, Callable] = {
    "bio": lambda n, rng: _duplication(n, rng),
    "eco": lambda n, rng: _gnp(n, rng, avg_degree=8.0),
    "protein": lambda n, rng: _duplication(n, rng),
    "bn": lambda n, rng: _small_world(n, rng, k=8, p=0.2),
    "inf": lambda n, rng: _small_world(n, rng, k=4, p=0.1),
    "massive": lambda n, rng: _preferential(n, rng, m=3),
    "power": _power_grid,
    "road": _grid_like,
    "tech": lambda n, rng: _preferential(n, rng, m=2),
    "web": lambda n, rng: _preferential(n, rng, m=1),
    "ca": lambda n, rng: _powerlaw_cluster(n, rng, m=2, p=0.4),
    "cit": lambda n, rng: _preferential(n, rng, m=3),
    "dynamic": lambda n, rng: _gnp(n, rng, avg_degree=4.0),
    "econ": lambda n, rng: _gnp(n, rng, avg_degree=5.0),
    "email": lambda n, rng: _powerlaw_cluster(n, rng, m=2, p=0.1),
    "ia": lambda n, rng: _gnp(n, rng, avg_degree=4.0),
    "proximity": _geometric,
    "rec": _bipartite,
    "retweet_graphs": _star_bursts,
    "rt": _star_bursts,
    "soc": _blocks,
    "socfb": lambda n, rng: _powerlaw_cluster(n, rng, m=3, p=0.2),
    "tscc": lambda n, rng: _gnp(n, rng, avg_degree=3.0),
    "dimacs": lambda n, rng: _regular(n, rng, d=int(rng.integers(3, 6))),
    "dimacs10": _grid_like,
    "graph500": lambda n, rng: _preferential(n, rng, m=4),
    "heter": lambda n, rng: _gnp(n, rng, avg_degree=5.0),
    "labeled": _tree_like,
    "misc": lambda n, rng: _gnp(n, rng, avg_degree=float(rng.uniform(2.0, 10.0))),
    "rand": lambda n, rng: _gnp(n, rng, avg_degree=float(rng.uniform(3.0, 8.0))),
    "sc": _grid_like,
}

#: categories whose graphs get random edge weights (exercises the weighted
#: Laplacian path; most Network-Repository graphs are unweighted)
_WEIGHTED_CATEGORIES = {"econ", "rec", "retweet_graphs", "rt"}


def _adjacency_from_graph(graph, rng: np.random.Generator, weighted: bool) -> CSRMatrix:
    n = graph.number_of_nodes()
    rows, cols, vals = [], [], []
    for u, v in graph.edges():
        if u == v:
            continue
        w = float(rng.uniform(0.2, 5.0)) if weighted else 1.0
        rows += [u, v]
        cols += [v, u]
        vals += [w, w]
    if not rows:
        # completely disconnected graph: return the empty adjacency
        return CSRMatrix(
            np.zeros(0), np.zeros(0, dtype=np.int64), np.zeros(n + 1, dtype=np.int64), (n, n)
        )
    return COOMatrix(rows, cols, vals, (n, n)).tocsr()


def _category_key(category: str) -> int:
    """Deterministic per-category RNG seed component.

    ``hash(str)`` is randomised per process (PYTHONHASHSEED), which used to
    make the "seeded" workloads differ between runs — rare marginal
    matrices then flip solver convergence and flake the test/benchmark
    suites.  CRC32 is stable across processes and platforms.
    """
    return zlib.crc32(category.encode("utf-8")) % (2**31)


def generate_graph(
    category: str, index: int, size: int, seed: int = 0
) -> tuple[CSRMatrix, str]:
    """Generate one synthetic graph adjacency for a category.

    Returns ``(adjacency, model_name)``; the adjacency is symmetric with zero
    diagonal (self-loops are dropped).
    """
    if category not in _CATEGORY_MODELS:
        raise KeyError(f"unknown graph category {category!r}")
    rng = np.random.default_rng([seed, _category_key(category), index])
    size = max(8, int(size))
    graph = _CATEGORY_MODELS[category](size, rng)
    adjacency = _adjacency_from_graph(graph, rng, category in _WEIGHTED_CATEGORIES)
    return adjacency, type(graph).__name__


def table1_counts() -> dict[str, int]:
    """The paper's Table-1 per-category graph counts."""
    return dict(TABLE1_COUNTS)


def category_counts(scale: float = 1.0, min_count: int = 1) -> dict[str, int]:
    """Per-category counts scaled down from Table 1.

    Categories that are empty in the paper stay empty; non-empty categories
    keep at least ``min_count`` graphs so every model is represented.
    """
    counts = {}
    for category, full in TABLE1_COUNTS.items():
        if full == 0:
            counts[category] = 0
        else:
            counts[category] = max(min_count, int(round(full * scale)))
    return counts


def graph_suite(
    classes: str | tuple[str, ...] = "all",
    scale: float = 0.01,
    size_range: tuple[int, int] = (24, 96),
    seed: int = 0,
) -> list[TestMatrix]:
    """Generate the synthetic graph-Laplacian suite.

    Parameters
    ----------
    classes:
        ``"all"`` or one/more of ``"biological"``, ``"infrastructure"``,
        ``"social"``, ``"miscellaneous"``.
    scale:
        Fraction of the Table-1 counts to generate per category.
    size_range:
        Range of vertex counts to draw from.
    seed:
        Base seed (suite is deterministic).

    Returns
    -------
    list[TestMatrix]
        One entry per graph; ``matrix`` is the symmetrically normalised
        Laplacian, ``group`` the aggregate class and ``category`` the
        Network-Repository category.
    """
    if isinstance(classes, str):
        wanted = None if classes == "all" else {classes}
    else:
        wanted = set(classes)
    counts = category_counts(scale)
    suite: list[TestMatrix] = []
    for category, count in counts.items():
        cls = CATEGORY_TO_CLASS[category]
        if wanted is not None and cls not in wanted:
            continue
        for index in range(count):
            rng = np.random.default_rng([seed, 7919, _category_key(category), index])
            size = int(rng.integers(size_range[0], size_range[1] + 1))
            adjacency, model = generate_graph(category, index, size, seed=seed)
            laplacian = laplacian_from_adjacency(adjacency)
            suite.append(
                TestMatrix(
                    name=f"{category}/{category}_{index:04d}",
                    matrix=laplacian,
                    group=cls,
                    category=category,
                    kind=f"normalised Laplacian of synthetic {model}",
                )
            )
    return suite
