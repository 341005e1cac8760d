"""Synthetic graphs and datasets for tests, demos, and timing runs."""

import numpy as np

from .data import Dataset
from .graph import Graph, build_graph


def path_graph(n: int) -> Graph:
    return build_graph([(i, i + 1) for i in range(n - 1)], n)


def star_graph(leaves: int) -> Graph:
    return build_graph([(0, i) for i in range(1, leaves + 1)], leaves + 1)


def complete_graph(n: int) -> Graph:
    return build_graph([(i, j) for i in range(n) for j in range(i + 1, n)], n)


def er_graph(n: int, p: float, seed: int = 0) -> Graph:
    """Erdos-Renyi graph: each unordered pair is an edge with probability p."""
    rng = np.random.default_rng(seed)
    ii, jj = np.triu_indices(n, k=1)
    keep = rng.random(ii.size) < p
    return build_graph(np.column_stack([ii[keep], jj[keep]]), n)


def random_tree(n: int, seed: int = 0) -> Graph:
    """Uniform random attachment tree on n nodes."""
    rng = np.random.default_rng(seed)
    edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    return build_graph(edges, n)


def planted_partition_dataset(n: int = 200, classes: int = 3,
                              p_in: float = 0.08, p_out: float = 0.01,
                              feature_dim: int = 16, noise: float = 0.5,
                              seed: int = 0,
                              name: str = "synthetic") -> Dataset:
    """Stochastic block model with class-prototype features.

    ``p_in > p_out`` gives a homophilic graph, the reverse a heterophilic
    one. Features are a per-class prototype plus Gaussian noise, so the
    labels are learnable from features alone and easier with the graph.
    """
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, classes, size=n)
    ii, jj = np.triu_indices(n, k=1)
    prob = np.where(labels[ii] == labels[jj], p_in, p_out)
    keep = rng.random(ii.size) < prob
    graph = build_graph(np.column_stack([ii[keep], jj[keep]]), n)
    prototypes = rng.standard_normal((classes, feature_dim))
    features = prototypes[labels] + noise * rng.standard_normal((n, feature_dim))
    return Dataset(graph=graph, features=features, labels=labels,
                   class_count=classes, name=name)
