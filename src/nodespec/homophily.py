"""Neighborhood label statistics and the two-step label-chain propositions.

Per-node metrics treat an empty neighborhood as "absent" (NaN) rather than
zero, and the graph-level homophily ratio averages only over nodes that have
neighbors. Label entropy is -sum p log p (natural log) over the classes
present, clamped at ln C: a one-class neighborhood scores exactly 0 and a
C-class uniform neighborhood scores ln C, so both fall inside the entropy
histograms' range [0, ln C].

``homophily_report`` counts labels once per scope, an n x C matrix (1-hop
from A, within-2 from the pattern of (A + I)^2 less the node itself), and
reads both statistics from it: homophily as counts[i, y_i] / size_i and
entropy from counts / size.

The proposition checks quantify a two-step Markov chain on labels: each hop
keeps the label with probability alpha and otherwise moves uniformly to one
of the other C-1 labels. Closed forms for the two-hop statistics are checked
against a direct Monte-Carlo simulation of the same chain.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .graph import Graph, adjacency, node_ids

# Pairs per sparse row-intersection block in jaccard_neighbor_distances. The
# two gathered adjacency row blocks hold block * mean degree entries each;
# gathering all pairs at once took 7x the report's memory at 2e6 pairs.
JACCARD_BLOCK_PAIRS = 16384

HOP1 = "hop1"
WITHIN2 = "within2"


@dataclass
class HomophilyReport:
    per_node_h1: np.ndarray
    per_node_h_within2: np.ndarray
    per_node_s1: np.ndarray
    per_node_s_within2: np.ndarray
    graph_ratio: float
    histogram_h1: tuple
    histogram_h_within2: tuple
    histogram_s1: tuple
    histogram_s_within2: tuple


@dataclass
class PropositionCheck:
    """Closed-form two-hop label-chain quantities, plus optional MC estimates.

    epsilon_same_vs_diff: P(y_o = y_v) - P(y_o != y_v) at two hops.
    epsilon_two_vs_one:   P(y_o = y_v) - P(y_m = y_v), two hops minus one.
    p_same_two_hop:       P(y_o = y_v) = alpha^2 + (1 - alpha)^2 / (C - 1).
    """

    alpha: float
    class_count: int
    epsilon_same_vs_diff: float
    epsilon_two_vs_one: float
    p_same_two_hop: float
    samples: Optional[int] = None
    mc_epsilon_same_vs_diff: Optional[float] = None
    mc_epsilon_two_vs_one: Optional[float] = None
    se_epsilon_same_vs_diff: Optional[float] = None
    se_epsilon_two_vs_one: Optional[float] = None


def graph_homophily(g: Graph, labels) -> float:
    """Mean 1-hop homophily over nodes that have at least one neighbor."""
    return _graph_ratio(per_node_homophily(g, labels, HOP1))


def _graph_ratio(h1: np.ndarray) -> float:
    valid = ~np.isnan(h1)
    if not np.any(valid):
        raise ValueError("graph has no edges; homophily ratio undefined")
    return float(np.mean(h1[valid]))


def per_node_homophily(g: Graph, labels, scope: str = HOP1) -> np.ndarray:
    """Per node, the fraction of its scoped neighbors (1-hop, or within two
    hops) that share its label; NaN for a node without any."""
    _, codes = np.unique(np.asarray(labels), return_inverse=True)
    (counts, sizes), = _scoped_label_counts(g, codes, (scope,))
    return _homophily(counts, sizes, codes)


def _homophily(counts: np.ndarray, sizes: np.ndarray,
               labels: np.ndarray) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        return counts[np.arange(labels.size), labels] / sizes


def _entropy(counts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """-sum p log p over each row's p > 0, at most ln C for C columns, where
    a uniform row can land an ulp above; NaN for an empty neighborhood.
    0.0 - s, not -s, so a one-class row reads 0.0 rather than -0.0."""
    with np.errstate(invalid="ignore"):
        p = counts / sizes[:, None]
    plogp = p * np.log(p, out=np.zeros_like(p), where=p > 0)
    return np.minimum(0.0 - plogp.sum(axis=1), np.log(p.shape[1]))


def _within2_pattern(a: sp.csr_array) -> sp.csr_array:
    """0/1 pattern of (A + I)^2: every node within two hops, itself included.
    Each stored entry of the product is a sum of positive terms, so none is
    zero and its values are overwritten with ones in place."""
    loops = a + sp.eye_array(a.shape[0])
    p = loops @ loops
    p.data[:] = 1.0
    return p


def _scoped_label_counts(g: Graph, labels: np.ndarray, scopes,
                         class_count: int = 0) -> list:
    """(n x C label counts over each node's scoped neighborhood, sizes) for
    each scope in turn, from one adjacency.

    C is class_count or one more than the largest label, if that is larger.
    The within-2 counts are those of (A + I)^2's pattern less the node itself.
    """
    a = adjacency(g)
    width = max(class_count, int(labels.max(initial=-1)) + 1)
    onehot = (labels[:, None] == np.arange(width)).astype(np.float64)
    out = []
    for scope in scopes:
        if scope == HOP1:
            counts = a @ onehot
        elif scope == WITHIN2:
            counts = _within2_pattern(a) @ onehot
            counts -= onehot
        else:
            raise ValueError(f"unknown scope {scope!r}")
        out.append((counts, counts.sum(axis=1)))
    return out


def equal_width_bins(values, bin_count: int, value_range=(0.0, 1.0)):
    """The edges lo + (hi - lo) k / bin_count, k = 0..bin_count, and the bin
    of each value: k with edges[k] <= v < edges[k + 1], the top edge in the
    last bin. NaN and values outside the range get bin_count, one past the
    last, so ``np.bincount(which, minlength=bin_count + 1)[:-1]`` counts."""
    if bin_count < 1:
        raise ValueError("bin_count must be at least 1")
    lo, hi = value_range
    edges = lo + (hi - lo) * np.arange(bin_count + 1) / bin_count
    values = np.asarray(values, dtype=np.float64)
    which = np.searchsorted(edges, values, "right") - 1
    which[values == edges[-1]] = bin_count - 1
    which[which < 0] = bin_count
    return edges, which


def histogram(values, bin_count: int = 10, value_range=(0.0, 1.0)):
    """The edges of ``equal_width_bins`` and the count in each bin.

    NaN entries (absent per-node values) and values outside the range are
    dropped; an empty input yields all-zero counts.
    """
    edges, which = equal_width_bins(values, bin_count, value_range)
    return edges, np.bincount(which, minlength=bin_count + 1)[:-1]


def homophily_report(g: Graph, labels, class_count: int,
                     bins: int = 10) -> HomophilyReport:
    """Per-node 1-hop and within-2 homophily and label entropy, the graph
    ratio, and their histograms, from one label count matrix per scope.

    Labels are the non-negative class ids the entropy is taken over.
    """
    labels = np.asarray(labels)
    if labels.min(initial=0) < 0:
        raise ValueError("labels must be non-negative class ids")
    (c1, n1), (c2, n2) = _scoped_label_counts(g, labels, (HOP1, WITHIN2),
                                              class_count)
    h1, h2 = _homophily(c1, n1, labels), _homophily(c2, n2, labels)
    s1, s2 = _entropy(c1, n1), _entropy(c2, n2)
    top = float(np.log(class_count))
    return HomophilyReport(
        per_node_h1=h1,
        per_node_h_within2=h2,
        per_node_s1=s1,
        per_node_s_within2=s2,
        graph_ratio=_graph_ratio(h1),
        histogram_h1=histogram(h1, bins, (0.0, 1.0)),
        histogram_h_within2=histogram(h2, bins, (0.0, 1.0)),
        histogram_s1=histogram(s1, bins, (0.0, top)),
        histogram_s_within2=histogram(s2, bins, (0.0, top)),
    )


# The report under its former entropy-only name, which the benchmark's traced
# targets (perfbench/layers.py) still list and its tests require to exist;
# nothing in the package calls it. Drop it when that list drops the name.
entropy_report = homophily_report


def proposition_closed_forms(alpha: float, class_count: int) -> PropositionCheck:
    """Closed-form two-hop quantities of the label chain.

    With C classes and per-hop retention alpha:
      P(y_o = y_v) - P(y_o != y_v) = (2a(aC - 2) + (3 - C)) / (C - 1)
      P(y_o = y_v) - P(y_m = y_v) = (a - 1)(aC - 1) / (C - 1)
    The first is <= 0 whenever alpha <= 2/C (for C >= 3); the second changes
    sign exactly at alpha = 1/C.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if class_count < 2:
        raise ValueError("class_count must be at least 2")
    a, c = float(alpha), float(class_count)
    tau = (1.0 - a) ** 2 / (c - 1.0)
    return PropositionCheck(
        alpha=alpha,
        class_count=class_count,
        epsilon_same_vs_diff=(2.0 * a * (a * c - 2.0) + (3.0 - c)) / (c - 1.0),
        epsilon_two_vs_one=(a - 1.0) * (a * c - 1.0) / (c - 1.0),
        p_same_two_hop=a * a + tau,
    )


def _chain_step(y: np.ndarray, alpha: float, class_count: int, rng) -> np.ndarray:
    stay = rng.random(y.size) < alpha
    shift = rng.integers(1, class_count, size=y.size)
    return np.where(stay, y, (y + shift) % class_count)


def proposition_monte_carlo(alpha: float, class_count: int, samples: int,
                            seed: int = 0) -> PropositionCheck:
    """Simulate the two-step label chain and attach empirical estimates.

    Labels are drawn conditionally on y_v (fixed to class 0 by symmetry):
    y_v -> y_m -> y_o with the retention kernel. Standard errors come from
    the per-sample indicator differences.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    check = proposition_closed_forms(alpha, class_count)
    rng = np.random.default_rng(seed)
    y_v = np.zeros(samples, dtype=np.int64)
    y_m = _chain_step(y_v, alpha, class_count, rng)
    y_o = _chain_step(y_m, alpha, class_count, rng)

    same_o = (y_o == y_v).astype(np.float64)
    same_m = (y_m == y_v).astype(np.float64)
    d1 = 2.0 * same_o - 1.0           # P(same) - P(different) at two hops
    d2 = same_o - same_m              # two-hop minus one-hop retention
    check.samples = samples
    check.mc_epsilon_same_vs_diff = float(np.mean(d1))
    check.mc_epsilon_two_vs_one = float(np.mean(d2))
    denom = np.sqrt(samples)
    check.se_epsilon_same_vs_diff = float(np.std(d1, ddof=1) / denom) if samples > 1 else 0.0
    check.se_epsilon_two_vs_one = float(np.std(d2, ddof=1) / denom) if samples > 1 else 0.0
    return check


def jaccard_neighbor_distances(g: Graph, ii, jj) -> np.ndarray:
    """1 - |N1(i) & N1(j)| / |N1(i) | N1(j)| for every pair (i, j) =
    (ii[k], jj[k]), 0 where both neighborhoods are empty.

    Intersections are counted as row products of the adjacency, a block of
    JACCARD_BLOCK_PAIRS pairs at a time, so memory stays bounded however many
    pairs are asked for.
    """
    ii, jj = node_ids(ii, g.n), node_ids(jj, g.n)
    if ii.shape != jj.shape or ii.ndim != 1:
        raise ValueError("pair index arrays must be 1-D and of equal length")
    a = adjacency(g)
    inter = np.empty(ii.size)
    for lo in range(0, ii.size, JACCARD_BLOCK_PAIRS):
        block = slice(lo, lo + JACCARD_BLOCK_PAIRS)
        inter[block] = a[ii[block]].multiply(a[jj[block]]).sum(axis=1)
    deg = g.degrees()
    union = deg[ii] + deg[jj] - inter
    out = np.zeros(ii.size)
    nonempty = union > 0
    out[nonempty] = 1.0 - inter[nonempty] / union[nonempty]
    return out
