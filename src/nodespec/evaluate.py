"""Experiment metrics: accuracy summaries, homophily-binned accuracy, and
coefficient-distance analysis of the learned per-node filters."""

from dataclasses import dataclass

import numpy as np

from .graph import Graph, node_ids
from .homophily import (JACCARD_BLOCK_PAIRS, equal_width_bins,
                        jaccard_neighbor_distances, per_node_homophily)

PAIR_SEED = 0  # the seed of coefficient_distance_report's pair sample
JACCARD_BINS = 5


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
    """The fraction of the nodes in ``index_set``, read by
    ``graph.node_ids``, whose prediction equals their label. A bool mask,
    float ids or an id outside the label array raise ValueError."""
    predictions, labels = np.asarray(predictions), np.asarray(labels)
    index = node_ids(index_set, len(labels))
    if index.size == 0:
        raise ValueError("accuracy over an empty index set")
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
    """Edges, counts and mean ``values`` per ``equal_width_bins`` bin of
    ``stat`` over [0, 1], NaN where a bin is empty."""
    edges, which = equal_width_bins(stat, bins)
    counts = np.bincount(which, minlength=bins + 1)[:-1]
    sums = np.bincount(which, weights=values, minlength=bins + 1)[:-1]
    means = np.full(bins, np.nan)
    nonzero = counts > 0
    means[nonzero] = sums[nonzero] / counts[nonzero]
    return edges, counts, means


def homophily_binned_accuracy(predictions, labels, graph: Graph, test_set,
                              bins: int = 5) -> BinReport:
    """Accuracy over ``test_set``, read by ``graph.node_ids``, binned by
    each node's one-hop homophily; nodes without neighbours are left out."""
    predictions, labels = np.asarray(predictions), np.asarray(labels)
    test = node_ids(test_set, graph.n)
    ratios = per_node_homophily(graph, labels)[test]
    valid = ~np.isnan(ratios)
    test, ratios = test[valid], ratios[valid]
    correct = (predictions[test] == labels[test]).astype(np.float64)
    edges, counts, acc = _binned_means(ratios, correct, bins)
    return BinReport(edges=edges, counts=counts, accuracy=acc)


def coefficient_distance_report(psi: np.ndarray, graph: Graph, labels,
                                pair_sample: int = 200_000,
                                ) -> CoefficientDistanceReport:
    """Euclidean distance between coefficient rows vs neighborhood overlap.

    All n(n-1)/2 node pairs are read, in ``np.triu_indices`` order, when
    there are at most ``pair_sample`` of them; otherwise ``pair_sample``
    ordered pairs are drawn uniformly with PAIR_SEED and the self-pairs
    among them dropped, so ``pairs_evaluated <= pair_sample`` at every n.
    """
    if pair_sample < 1:
        raise ValueError("pair_sample must be positive")
    # rows are gathered per pair, so each should be contiguous
    psi = np.ascontiguousarray(psi, dtype=np.float64)
    labels = np.asarray(labels)
    n = graph.n
    if psi.shape[0] != n:
        raise ValueError("psi rows must match node count")

    if n * (n - 1) // 2 <= pair_sample:
        ii, jj = np.triu_indices(n, k=1)
    else:
        rng = np.random.default_rng(PAIR_SEED)
        ii = rng.integers(0, n, size=pair_sample)
        jj = rng.integers(0, n, size=pair_sample)
        keep = ii != jj
        ii, jj = ii[keep], jj[keep]

    jac = jaccard_neighbor_distances(graph, ii, jj)
    # pair blocks bound the two gathered pairs x (K+1) row copies, which
    # every block writes into the same two buffers
    dist = np.empty(ii.size)
    rows_i = np.empty((min(ii.size, JACCARD_BLOCK_PAIRS), psi.shape[1]))
    rows_j = np.empty_like(rows_i)
    for lo in range(0, ii.size, JACCARD_BLOCK_PAIRS):
        block = slice(lo, lo + JACCARD_BLOCK_PAIRS)
        size = len(ii[block])
        # ids lie in [0, n), so "clip" changes none; it lets take write
        # into out, where "raise" gathers into a copy first
        d = np.take(psi, ii[block], axis=0, out=rows_i[:size], mode="clip")
        d -= np.take(psi, jj[block], axis=0, out=rows_j[:size], mode="clip")
        d *= d
        # np.linalg.norm(..., axis=1), bit for bit
        np.sqrt(np.add.reduce(d, axis=1), out=dist[block])
    same = labels[ii] == labels[jj]
    edges, same_count, same_mean = _binned_means(jac[same], dist[same],
                                                 JACCARD_BINS)
    _, diff_count, diff_mean = _binned_means(jac[~same], dist[~same],
                                             JACCARD_BINS)
    return CoefficientDistanceReport(
        edges=edges,
        same_label_count=same_count, same_label_mean=same_mean,
        diff_label_count=diff_count, diff_label_mean=diff_mean,
        pairs_evaluated=int(ii.size))
