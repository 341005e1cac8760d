"""Experiment metrics: accuracy summaries, homophily-binned accuracy, and
coefficient-distance analysis of the learned per-node filters."""

from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .homophily import (JACCARD_BLOCK_PAIRS, jaccard_neighbor_distances,
                        per_node_homophily)


@dataclass
class RunSummary:
    """Accuracy over repeated runs with a normal-approximation 95% interval."""

    accuracies: list
    seeds: list
    mean: float
    ci_half_width: float


@dataclass
class BinReport:
    """Per-bin mean accuracy over a unit-interval statistic (right-inclusive
    last bin); nodes with an undefined statistic are excluded."""

    edges: np.ndarray
    counts: np.ndarray
    accuracy: np.ndarray  # NaN where a bin is empty


@dataclass
class CoefficientDistanceReport:
    """Mean distance between per-node coefficient rows, binned by the Jaccard
    distance of the endpoints' neighborhoods and split by label agreement."""

    edges: np.ndarray
    same_label_count: np.ndarray
    same_label_mean: np.ndarray
    diff_label_count: np.ndarray
    diff_label_mean: np.ndarray
    pairs_evaluated: int


def accuracy(predictions, labels, index_set) -> float:
    """The fraction of the nodes in ``index_set``, an integer array of node
    ids, whose prediction equals their label. A bool mask or float ids
    raise ValueError: cast to int64 they would be read as other ids."""
    index = np.asarray(index_set)
    if index.size == 0:
        raise ValueError("accuracy over an empty index set")
    if not np.issubdtype(index.dtype, np.integer):
        raise ValueError(f"index set must hold integer node ids, got "
                         f"{index.dtype}")
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    return float(np.mean(predictions[index] == labels[index]))


def summarize_runs(accuracies, seeds=None) -> RunSummary:
    accs = [float(a) for a in accuracies]
    if not accs:
        raise ValueError("no runs to summarize")
    mean = float(np.mean(accs))
    if len(accs) >= 2:
        half = float(1.96 * np.std(accs, ddof=1) / np.sqrt(len(accs)))
    else:
        half = 0.0
    return RunSummary(accuracies=accs,
                      seeds=[] if seeds is None else list(seeds), mean=mean,
                      ci_half_width=half)


def _binned_means(stat: np.ndarray, values: np.ndarray, bins: int):
    """Counts and mean ``values`` per equal-width bin of ``stat`` over
    [0, 1] (the value 1.0 lands in the last bin), NaN where a bin is
    empty."""
    which = np.clip(np.floor(stat * bins).astype(np.int64), 0, bins - 1)
    counts = np.bincount(which, minlength=bins)
    sums = np.bincount(which, weights=values, minlength=bins)
    means = np.full(bins, np.nan)
    nonzero = counts > 0
    means[nonzero] = sums[nonzero] / counts[nonzero]
    return counts, means


def homophily_binned_accuracy(predictions, labels, graph: Graph, test_set,
                              bins: int = 5) -> BinReport:
    if bins < 1:
        raise ValueError("bin_count must be at least 1")
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    test = np.asarray(test_set, dtype=np.int64)
    ratios = per_node_homophily(graph, labels)[test]
    valid = ~np.isnan(ratios)
    test, ratios = test[valid], ratios[valid]
    correct = (predictions[test] == labels[test]).astype(np.float64)
    counts, acc = _binned_means(ratios, correct, bins)
    return BinReport(edges=np.linspace(0.0, 1.0, bins + 1), counts=counts,
                     accuracy=acc)


def coefficient_distance_report(psi: np.ndarray, graph: Graph, labels,
                                pair_sample: int = 200_000,
                                jaccard_bins: int = 5,
                                seed: int = 0,
                                all_pairs_limit: int = 2000,
                                ) -> CoefficientDistanceReport:
    """Euclidean distance between coefficient rows vs neighborhood overlap.

    All node pairs are used up to ``all_pairs_limit`` nodes; beyond that,
    ``pair_sample`` pairs are drawn uniformly (with a fixed seed).
    """
    if pair_sample < 1:
        raise ValueError("pair_sample must be positive")
    # rows are gathered per pair, so each should be contiguous
    psi = np.ascontiguousarray(psi, dtype=np.float64)
    labels = np.asarray(labels)
    n = graph.n
    if psi.shape[0] != n:
        raise ValueError("psi rows must match node count")

    if n <= all_pairs_limit:
        ii, jj = np.triu_indices(n, k=1)
    else:
        rng = np.random.default_rng(seed)
        ii = rng.integers(0, n, size=pair_sample)
        jj = rng.integers(0, n, size=pair_sample)
        keep = ii != jj
        ii, jj = ii[keep], jj[keep]

    jac = jaccard_neighbor_distances(graph, ii, jj)
    # pair blocks bound the two gathered pairs x (K+1) row copies
    dist = np.empty(ii.size)
    for lo in range(0, ii.size, JACCARD_BLOCK_PAIRS):
        block = slice(lo, lo + JACCARD_BLOCK_PAIRS)
        dist[block] = np.linalg.norm(psi[ii[block]] - psi[jj[block]], axis=1)
    same = labels[ii] == labels[jj]
    same_count, same_mean = _binned_means(jac[same], dist[same], jaccard_bins)
    diff_count, diff_mean = _binned_means(jac[~same], dist[~same],
                                          jaccard_bins)
    return CoefficientDistanceReport(
        edges=np.linspace(0.0, 1.0, jaccard_bins + 1),
        same_label_count=same_count, same_label_mean=same_mean,
        diff_label_count=diff_count, diff_label_mean=diff_mean,
        pairs_evaluated=int(ii.size))
