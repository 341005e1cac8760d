from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nodespec import homophily
from nodespec.graph import Graph, build_graph, hop_distances
from nodespec.homophily import (HOP1, WITHIN2, graph_homophily,
                                histogram, homophily_report,
                                jaccard_neighbor_distances,
                                per_node_homophily,
                                proposition_closed_forms,
                                proposition_monte_carlo)
from nodespec.synthetic import er_graph, star_graph


# Per-node and per-pair references for the batched statistics, from a
# breadth-first search and set operations.

def _scope_neighbors(g: Graph, v: int, scope: str) -> np.ndarray:
    if scope == HOP1:
        return g.neighbors(v)
    if scope == WITHIN2:
        dist = hop_distances(g, v)
        return np.flatnonzero((dist > 0) & (dist <= 2))
    raise ValueError(f"unknown scope {scope!r}")


def node_homophily(g: Graph, labels, v: int, scope: str = HOP1) -> float:
    """Fraction of scoped neighbors sharing v's label; NaN if none."""
    labels = np.asarray(labels)
    hood = _scope_neighbors(g, v, scope)
    if hood.size == 0:
        return float("nan")
    return float(np.mean(labels[hood] == labels[v]))


def label_entropy(g: Graph, labels, v: int, scope: str,
                  class_count: int) -> float:
    """Entropy of the scoped neighborhood's label distribution.

    -sum_y p_y log p_y over the labels with p_y > 0, at most
    log(class_count); NaN for an empty neighborhood.
    """
    labels = np.asarray(labels)
    hood = _scope_neighbors(g, v, scope)
    if hood.size == 0:
        return float("nan")
    counts = np.bincount(labels[hood], minlength=class_count).astype(np.float64)
    p = counts / hood.size
    plogp = np.zeros_like(p)
    plogp[p > 0] = p[p > 0] * np.log(p[p > 0])
    return float(min(0.0 - plogp.sum(), np.log(class_count)))


def jaccard_neighbor_distance(g: Graph, i: int, j: int) -> float:
    """1 - |N1(i) & N1(j)| / |N1(i) | N1(j)|; 0 when both are empty."""
    if not (0 <= i < g.n and 0 <= j < g.n):
        raise ValueError("node id out of range")
    a = g.neighbors(i)
    b = g.neighbors(j)
    union = np.union1d(a, b).size
    if union == 0:
        return 0.0
    inter = np.intersect1d(a, b).size
    return 1.0 - inter / union


def two_hop_chain_epsilons(alpha, classes):
    """Independent oracle: exact transition-matrix power of the label chain.

    One hop keeps the label with probability alpha, otherwise moves uniformly
    to one of the other classes; two hops is the matrix square.
    """
    kernel = np.full((classes, classes), (1 - alpha) / (classes - 1))
    np.fill_diagonal(kernel, alpha)
    two = kernel @ kernel
    p_same = two[0, 0]
    return 2 * p_same - 1, p_same - alpha


class TestNodeHomophily:
    def test_star_all_same(self):
        g = star_graph(4)
        labels = [0, 0, 0, 0, 0]
        assert node_homophily(g, labels, 0) == 1.0

    def test_star_none_same(self):
        g = star_graph(4)
        labels = [0, 1, 1, 1, 1]
        assert node_homophily(g, labels, 0) == 0.0

    def test_path_middle_half(self):
        g = build_graph([(0, 1), (1, 2)], 3)
        assert node_homophily(g, [0, 0, 1], 1) == 0.5

    def test_isolated_is_nan(self):
        g = build_graph([], 2)
        assert np.isnan(node_homophily(g, [0, 1], 0))

    def test_within_two_hops(self):
        g = build_graph([(0, 1), (1, 2)], 3)
        # scope of node 0 is {1, 2}
        assert node_homophily(g, [0, 0, 1], 0, scope="within2") == 0.5


def _graph_with_isolated_nodes():
    g = er_graph(40, 0.08, seed=21)
    edges = [(i, int(j)) for i in range(g.n) for j in g.neighbors(i) if i < j]
    return build_graph(edges, g.n + 3)


@pytest.mark.parametrize("scope", ["hop1", "within2"])
@pytest.mark.parametrize("g", [_graph_with_isolated_nodes(), build_graph([], 4)],
                         ids=["er_plus_isolated", "edgeless"])
def test_per_node_metrics_match_single_node_api(g, scope):
    labels = np.random.default_rng(5).integers(0, 3, size=g.n)
    h_want = [node_homophily(g, labels, v, scope) for v in range(g.n)]
    s_want = [label_entropy(g, labels, v, scope, 3) for v in range(g.n)]
    np.testing.assert_array_equal(per_node_homophily(g, labels, scope), h_want)
    if g.edge_count == 0:  # the report has no graph ratio to give
        with pytest.raises(ValueError, match="no edges"):
            homophily_report(g, labels, class_count=3)
        return
    rep = homophily_report(g, labels, class_count=3)
    h, s = ((rep.per_node_h1, rep.per_node_s1) if scope == "hop1" else
            (rep.per_node_h_within2, rep.per_node_s_within2))
    np.testing.assert_array_equal(h, h_want)
    np.testing.assert_array_equal(s, s_want)


def test_report_builds_adjacency_and_within2_pattern_once():
    g = _graph_with_isolated_nodes()
    labels = np.random.default_rng(6).integers(0, 3, size=g.n)
    with mock.patch.object(homophily, "adjacency",
                           wraps=homophily.adjacency) as adj, \
            mock.patch.object(homophily, "_within2_pattern",
                              wraps=homophily._within2_pattern) as within2:
        homophily_report(g, labels, class_count=3)
    assert adj.call_count == 1
    assert within2.call_count == 1


def test_report_rejects_negative_labels(triangle):
    # a negative id would count nowhere and read another class's column
    with pytest.raises(ValueError, match="non-negative"):
        homophily_report(triangle, [-1, 0, 0], class_count=2)


class TestGraphHomophily:
    def test_fully_homophilic(self, triangle):
        assert graph_homophily(triangle, [1, 1, 1]) == 1.0

    def test_matches_mean_of_node_values(self):
        rng = np.random.default_rng(3)
        g = er_graph(40, 0.15, seed=12)
        labels = rng.integers(0, 3, size=40)
        ratios = per_node_homophily(g, labels)
        valid = ~np.isnan(ratios)
        expected = float(np.mean(ratios[valid]))
        assert abs(graph_homophily(g, labels) - expected) <= 1e-12

    def test_all_isolated_is_error(self):
        with pytest.raises(ValueError):
            graph_homophily(build_graph([], 4), [0, 1, 0, 1])


class TestLabelEntropy:
    def test_degenerate_distribution(self):
        g = star_graph(6)
        labels = [1, 0, 0, 0, 0, 0, 0]
        value = label_entropy(g, labels, 0, "hop1", class_count=5)
        assert value == 0.0

    def test_uniform_five_classes(self):
        g = star_graph(5)
        labels = [0, 0, 1, 2, 3, 4]
        value = label_entropy(g, labels, 0, "hop1", class_count=5)
        assert abs(value - 1.6094) < 1e-3

    def test_uniform_two_classes(self):
        g = star_graph(2)
        labels = [0, 0, 1]
        value = label_entropy(g, labels, 0, "hop1", class_count=2)
        assert abs(value - float(np.log(2))) < 1e-3

    def test_empty_neighborhood_is_nan(self):
        g = build_graph([], 2)
        assert np.isnan(label_entropy(g, [0, 1], 0, "hop1", class_count=2))

    def test_uniform_maximizes(self):
        # perturbing the neighbor label counts away from uniform lowers entropy
        rng = np.random.default_rng(7)
        uniform = star_graph(8)
        labels_uniform = [0] + [0, 0, 1, 1, 2, 2, 3, 3]
        top = label_entropy(uniform, labels_uniform, 0, "hop1", class_count=4)
        for _ in range(20):
            labels = [0] + rng.integers(0, 4, size=8).tolist()
            value = label_entropy(uniform, labels, 0, "hop1", class_count=4)
            assert value <= top + 1e-6


@pytest.mark.parametrize("classes", [3, 5, 12, 13])
def test_star_entropies_lie_in_the_histogram_range(classes):
    # the hub's neighbours are uniform over the classes and each leaf has
    # one neighbour; at 5, 12 and 13 classes the unclamped -sum p log p of
    # the hub lands an ulp above ln C, the top of the histogram range
    g = star_graph(classes)
    rep = homophily_report(g, [0, *range(classes)], class_count=classes)
    assert rep.per_node_s1[0] <= np.log(classes)
    assert np.array_equal(rep.per_node_s1[1:], np.zeros(classes))
    assert str(rep.per_node_s1[1]) == "0.0"  # not -0.0
    assert rep.histogram_s1[1].sum() == g.n
    assert rep.histogram_s_within2[1].sum() == g.n


class TestHistogram:
    def test_endpoints(self):
        edges, counts = histogram([0.0, 1.0], 2, (0.0, 1.0))
        assert counts.tolist() == [1, 1]
        np.testing.assert_allclose(edges, [0.0, 0.5, 1.0])

    def test_single_value(self):
        _, counts = histogram([0.5] * 9, 10, (0.0, 1.0))
        assert counts.sum() == 9
        assert np.count_nonzero(counts) == 1

    def test_empty(self):
        _, counts = histogram([], 10, (0.0, 1.0))
        assert counts.tolist() == [0] * 10

    def test_nan_dropped(self):
        _, counts = histogram([0.5, float("nan")], 2, (0.0, 1.0))
        assert counts.sum() == 1

    def test_values_outside_the_range_dropped(self):
        edges, counts = histogram([-0.1, 1.1, 1.0, 0.0], 2, (0.0, 1.0))
        assert counts.tolist() == [1, 1]

    def test_bad_bin_count(self):
        with pytest.raises(ValueError):
            histogram([0.5], 0)


class TestPropositionClosedForms:
    def test_reference_point(self):
        check = proposition_closed_forms(0.4, 5)
        assert abs(check.epsilon_same_vs_diff - (-0.5)) < 1e-12
        oracle = two_hop_chain_epsilons(0.4, 5)
        assert abs(check.epsilon_same_vs_diff - oracle[0]) < 1e-12
        assert abs(check.epsilon_two_vs_one - oracle[1]) < 1e-12

    def test_two_vs_one_zero_at_reciprocal(self):
        check = proposition_closed_forms(1.0 / 5.0, 5)
        assert check.epsilon_two_vs_one == 0.0

    def test_two_vs_one_reference_value(self):
        check = proposition_closed_forms(0.1, 5)
        assert abs(check.epsilon_two_vs_one - 0.1125) < 1e-12

    def test_matches_matrix_oracle_on_grid(self):
        for classes in range(2, 8):
            for alpha in np.linspace(0.0, 1.0, 21):
                check = proposition_closed_forms(float(alpha), classes)
                e1, e2 = two_hop_chain_epsilons(float(alpha), classes)
                assert abs(check.epsilon_same_vs_diff - e1) < 1e-12
                assert abs(check.epsilon_two_vs_one - e2) < 1e-12
                p_same = (check.epsilon_same_vs_diff + 1) / 2
                assert abs(check.p_same_two_hop - p_same) < 1e-12

    def test_nonpositive_below_two_over_c(self):
        for classes in range(3, 11):
            alphas = np.arange(0.0, 2.0 / classes + 1e-12, 0.01)
            for alpha in alphas:
                check = proposition_closed_forms(float(alpha), classes)
                assert check.epsilon_same_vs_diff <= 1e-12

    def test_sign_flip_exactly_at_one_over_c(self):
        for classes in range(2, 11):
            boundary = 1.0 / classes
            for alpha in np.arange(0.01, 1.0, 0.01):
                check = proposition_closed_forms(float(alpha), classes)
                if alpha < boundary - 1e-12:
                    assert check.epsilon_two_vs_one > 0
                elif alpha > boundary + 1e-12:
                    assert check.epsilon_two_vs_one < 0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            proposition_closed_forms(1.5, 5)
        with pytest.raises(ValueError):
            proposition_closed_forms(0.5, 1)


class TestPropositionMonteCarlo:
    def test_matches_closed_form_within_three_se(self):
        check = proposition_monte_carlo(0.4, 5, samples=1_000_000, seed=1)
        assert abs(check.mc_epsilon_same_vs_diff - check.epsilon_same_vs_diff) \
            <= 3 * check.se_epsilon_same_vs_diff
        assert abs(check.mc_epsilon_same_vs_diff - (-0.5)) \
            <= 3 * check.se_epsilon_same_vs_diff

    def test_decay_above_reciprocal(self):
        check = proposition_monte_carlo(0.9, 5, samples=200_000, seed=2)
        assert check.epsilon_two_vs_one < 0
        assert check.mc_epsilon_two_vs_one < 0

    def test_boundary_is_zero_within_three_se(self):
        check = proposition_monte_carlo(0.2, 5, samples=200_000, seed=3)
        assert abs(check.mc_epsilon_two_vs_one) <= 3 * check.se_epsilon_two_vs_one

    def test_deterministic_given_seed(self):
        a = proposition_monte_carlo(0.3, 4, samples=10_000, seed=9)
        b = proposition_monte_carlo(0.3, 4, samples=10_000, seed=9)
        assert a.mc_epsilon_same_vs_diff == b.mc_epsilon_same_vs_diff


class TestJaccard:
    def test_identical_neighborhoods(self):
        g = build_graph([(0, 2), (1, 2)], 3)
        assert jaccard_neighbor_distance(g, 0, 1) == 0.0

    def test_disjoint_neighborhoods(self):
        g = build_graph([(0, 1), (2, 3)], 4)
        assert jaccard_neighbor_distance(g, 0, 2) == 1.0

    def test_partial_overlap(self):
        g = build_graph([(4, 1), (4, 2), (5, 2), (5, 3)], 6)
        assert abs(jaccard_neighbor_distance(g, 4, 5) - (1 - 1 / 3)) < 1e-12

    def test_both_empty(self):
        g = build_graph([], 2)
        assert jaccard_neighbor_distance(g, 0, 1) == 0.0


@st.composite
def graphs_with_pairs(draw):
    """A graph on 1..24 nodes (self-loops and duplicate edges in the input,
    isolated nodes and edgeless graphs allowed), pairs over it, and a block
    size small enough that the pairs usually span several blocks."""
    n = draw(st.integers(1, 24))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    pairs = draw(st.lists(st.tuples(node, node), max_size=120))
    block = draw(st.integers(1, 40))
    return build_graph(edges, n), pairs, block


def assert_batch_matches_single_pairs(g, pairs,
                                      block=homophily.JACCARD_BLOCK_PAIRS):
    ii = np.array([a for a, _ in pairs], dtype=np.int64)
    jj = np.array([b for _, b in pairs], dtype=np.int64)
    expected = np.array([jaccard_neighbor_distance(g, a, b) for a, b in pairs],
                        dtype=np.float64)
    with mock.patch.object(homophily, "JACCARD_BLOCK_PAIRS", block):
        got = jaccard_neighbor_distances(g, ii, jj)
    np.testing.assert_array_equal(got, expected)


@settings(max_examples=150, deadline=None)
@given(graphs_with_pairs())
# always cover the edgeless graph, and isolated nodes next to edges
@example((build_graph([], 5), [(0, 1), (2, 2), (4, 3)], 2))
@example((build_graph([(0, 1), (1, 2)], 6), [(3, 4), (0, 5), (0, 2)], 1))
def test_batch_jaccard_matches_single_pair(case):
    g, pairs, block = case
    assert_batch_matches_single_pairs(g, pairs, block)


def test_batch_jaccard_spans_blocks_at_the_shipped_size():
    g = er_graph(40, 0.15, seed=3)
    rng = np.random.default_rng(4)
    count = homophily.JACCARD_BLOCK_PAIRS + 7
    pairs = list(zip(rng.integers(0, g.n, count).tolist(),
                     rng.integers(0, g.n, count).tolist()))
    assert_batch_matches_single_pairs(g, pairs)


def test_batch_jaccard_rejects_bad_pairs():
    g = build_graph([(0, 1)], 3)
    with pytest.raises(ValueError, match="out of range"):
        jaccard_neighbor_distances(g, [0, 3], [1, 1])
    with pytest.raises(ValueError, match="out of range"):
        jaccard_neighbor_distances(g, [-1], [1])
    with pytest.raises(ValueError, match="equal length"):
        jaccard_neighbor_distances(g, [0, 1], [1])


def test_reports_have_consistent_shapes(triangle):
    rep = homophily_report(triangle, [0, 0, 1], class_count=2, bins=4)
    assert rep.per_node_h1.size == 3
    assert rep.histogram_h1[1].sum() == 3
    assert rep.per_node_s1.size == 3
    assert rep.histogram_s_within2[1].sum() == 3
    assert rep.graph_ratio == graph_homophily(triangle, [0, 0, 1])
    top = np.log(2) + 1e-6
    valid = rep.per_node_s1[~np.isnan(rep.per_node_s1)]
    assert np.all((valid >= -1e-6) & (valid <= top))
