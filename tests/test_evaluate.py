from unittest import mock

import numpy as np
import pytest

from nodespec import evaluate
from nodespec.evaluate import (accuracy, coefficient_distance_report,
                               homophily_binned_accuracy, summarize_runs)
from nodespec.graph import build_graph
from nodespec.homophily import homophily_report
from nodespec.synthetic import complete_graph, er_graph


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy([0, 1, 2], [0, 1, 2], [0, 1, 2]) == 1.0

    def test_none_correct(self):
        assert accuracy([1, 2, 0], [0, 1, 2], [0, 1, 2]) == 0.0

    def test_three_of_four(self):
        assert accuracy([0, 1, 2, 2], [0, 1, 2, 0], [0, 1, 2, 3]) == 0.75

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy([0], [0], [])

    @pytest.mark.parametrize("index", [[False, False, True, True],
                                       np.array([2.0, 3.0])],
                             ids=["bool-mask", "float-ids"])
    def test_non_integer_index_rejected(self, index):
        # as ids, the mask [F, F, T, T] would score nodes 0 and 1 (right)
        # in place of nodes 2 and 3 (both wrong)
        with pytest.raises(ValueError, match="node ids must be integers"):
            accuracy([0, 1, 1, 1], [0, 1, 0, 0], index)

    def test_integer_index_of_any_width(self):
        for dtype in (np.int32, np.uint16, np.int64):
            index = np.array([2, 3], dtype=dtype)
            assert accuracy([0, 1, 1, 1], [0, 1, 0, 0], index) == 0.0


class TestRunSummary:
    def test_mean_and_ci_recomputable(self):
        accs = [0.8, 0.85, 0.9, 0.82, 0.88]
        summary = summarize_runs(accs, seeds=range(5))
        assert abs(summary.mean - np.mean(accs)) <= 1e-12
        expected = 1.96 * np.std(accs, ddof=1) / np.sqrt(5)
        assert abs(summary.ci_half_width - expected) <= 1e-12

    def test_seeds_may_be_an_array(self):
        summary = summarize_runs([0.5, 0.7], seeds=np.array([1, 2]))
        assert summary.seeds == [1, 2]
        assert summarize_runs([0.5]).seeds == []

    def test_single_run_zero_width(self):
        assert summarize_runs([0.5]).ci_half_width == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize_runs([])


class TestBinnedAccuracy:
    def test_all_homophilic_and_correct(self):
        g = complete_graph(6)
        labels = np.zeros(6, dtype=int)
        # single-class labels are fine for the metric itself
        report = homophily_binned_accuracy(labels, labels, g, np.arange(6))
        assert np.isnan(report.accuracy[:4]).all()
        assert report.accuracy[4] == 1.0
        assert report.counts.tolist() == [0, 0, 0, 0, 6]

    def test_counts_sum_to_evaluated_nodes(self):
        rng = np.random.default_rng(3)
        g = er_graph(50, 0.1, seed=2)
        labels = rng.integers(0, 3, size=50)
        preds = rng.integers(0, 3, size=50)
        test = np.arange(50)
        report = homophily_binned_accuracy(preds, labels, g, test)
        isolated = int(np.sum(g.degrees() == 0))
        assert report.counts.sum() == 50 - isolated

    def test_random_predictions_near_chance(self):
        rng = np.random.default_rng(4)
        classes = 4
        g = er_graph(4000, 0.004, seed=5)
        labels = rng.integers(0, classes, size=4000)
        preds = rng.integers(0, classes, size=4000)
        report = homophily_binned_accuracy(preds, labels, g, np.arange(4000))
        total = report.counts.sum()
        overall = np.nansum(report.accuracy * report.counts) / total
        sigma = np.sqrt(0.25 * 0.75 / total)
        assert abs(overall - 1.0 / classes) <= 3 * sigma

    def test_empty_bin_reported_absent(self):
        g = complete_graph(4)
        labels = np.zeros(4, dtype=int)
        report = homophily_binned_accuracy(labels, labels, g, np.arange(4))
        assert report.counts[0] == 0
        assert np.isnan(report.accuracy[0])

    @pytest.mark.parametrize("bins", [0, -2])
    def test_fewer_than_one_bin_rejected(self, bins):
        g = complete_graph(4)
        labels = np.zeros(4, dtype=int)
        with pytest.raises(ValueError, match="bin_count must be at least 1"):
            homophily_binned_accuracy(labels, labels, g, np.arange(4), bins)


@pytest.mark.parametrize("matches, leaves", [((3, 6, 7), 10), ((1,), 49)],
                         ids=["tenths", "one-49th"])
def test_a_value_on_an_interior_edge_starts_its_bin(matches, leaves):
    # one star per entry of matches: its centre has `leaves` neighbours, m of
    # them of its label, so h1 = m / leaves, the interior edge m at `leaves`
    # bins; the leaves sit at h1 = 0 and 1, in the outer bins
    edges, labels = [], []
    for m in matches:
        centre = len(labels)
        labels += [0] * (m + 1) + [1] * (leaves - m)
        edges += [(centre, centre + i) for i in range(1, leaves + 1)]
    g = build_graph(edges, len(labels))
    labels = np.array(labels)
    centres = np.arange(len(matches)) * (leaves + 1)
    want = np.zeros(leaves, dtype=np.int64)
    want[list(matches)] = 1

    bin_edges, counts = homophily_report(g, labels, 2, leaves).histogram_h1
    np.testing.assert_array_equal(counts[1:-1], want[1:-1])
    report = homophily_binned_accuracy(labels, labels, g, centres, leaves)
    np.testing.assert_array_equal(report.counts, want)
    for edge_list in (bin_edges, report.edges):
        # the CSVs print these edges: m / leaves, not a rounded neighbour
        assert [edge_list[m] for m in matches] == [m / leaves
                                                   for m in matches]


class TestCoefficientDistance:
    def test_identical_rows_zero_everywhere(self):
        g = er_graph(12, 0.3, seed=6)
        psi = np.ones((12, 5))
        labels = np.zeros(12, dtype=int)
        report = coefficient_distance_report(psi, g, labels)
        present = report.same_label_count > 0
        np.testing.assert_allclose(report.same_label_mean[present], 0.0)

    def test_two_cluster_alignment(self):
        g = complete_graph(6)
        labels = np.array([0, 0, 0, 1, 1, 1])
        psi = np.zeros((6, 3))
        psi[labels == 1, 0] = 2.0
        report = coefficient_distance_report(psi, g, labels)
        both = (report.same_label_count > 0) & (report.diff_label_count > 0)
        assert np.any(both)
        assert np.all(report.same_label_mean[both] <
                      report.diff_label_mean[both])

    def test_single_pair_unit_distance_in_first_bin(self):
        # nodes 0 and 1 share the neighborhood {2}: Jaccard distance 0
        g = build_graph([(0, 2), (1, 2)], 3)
        labels = np.array([0, 0, 1])
        psi = np.zeros((3, 4))
        psi[0, 0] = 1.0
        report = coefficient_distance_report(psi, g, labels)
        assert report.same_label_count[0] == 1
        assert report.same_label_mean[0] == 1.0

    def test_sampling_path_is_deterministic(self):
        # 60 nodes have 1,770 pairs, more than 500, so the report samples
        g = er_graph(60, 0.1, seed=7)
        labels = np.random.default_rng(8).integers(0, 2, size=60)
        psi = np.random.default_rng(9).standard_normal((60, 4))
        with mock.patch.object(evaluate, "PAIR_SEED", 1):
            a = coefficient_distance_report(psi, g, labels, pair_sample=500)
            b = coefficient_distance_report(psi, g, labels, pair_sample=500)
        np.testing.assert_array_equal(a.same_label_count, b.same_label_count)
        np.testing.assert_allclose(a.same_label_mean, b.same_label_mean,
                                   equal_nan=True)

    def test_all_pairs_exactly_when_pair_sample_covers_them(self):
        # 20 nodes have 190 pairs: a sample of 190 reads each once, one
        # fewer draws the PAIR_SEED sample instead
        g = er_graph(20, 0.3, seed=14)
        labels = np.random.default_rng(15).integers(0, 2, size=20)
        psi = np.random.default_rng(16).standard_normal((20, 3))
        every = coefficient_distance_report(psi, g, labels, pair_sample=190)
        assert every.pairs_evaluated == 190
        assert (every.same_label_count.sum()
                + every.diff_label_count.sum()) == 190
        ii, jj = np.triu_indices(20, k=1)
        same = labels[ii] == labels[jj]
        assert every.same_label_count.sum() == same.sum()
        wide = coefficient_distance_report(psi, g, labels, pair_sample=10**9)
        for name in ("same_label_count", "same_label_mean",
                     "diff_label_count", "diff_label_mean"):
            np.testing.assert_array_equal(getattr(wide, name),
                                          getattr(every, name))

        sampled = coefficient_distance_report(psi, g, labels, pair_sample=189)
        rng = np.random.default_rng(evaluate.PAIR_SEED)
        ii, jj = rng.integers(0, 20, size=189), rng.integers(0, 20, size=189)
        assert sampled.pairs_evaluated == np.sum(ii != jj)
        assert sampled.pairs_evaluated <= 189

    def test_pair_sample_bounds_the_pairs_on_a_2000_node_graph(self):
        g = er_graph(2000, 0.002, seed=17)
        labels = np.random.default_rng(18).integers(0, 3, size=2000)
        psi = np.random.default_rng(19).standard_normal((2000, 4))
        report = coefficient_distance_report(psi, g, labels,
                                             pair_sample=30_000)
        assert 0 < report.pairs_evaluated <= 30_000
        assert (report.same_label_count.sum()
                + report.diff_label_count.sum()) == report.pairs_evaluated

    def test_pair_blocks_do_not_change_the_report(self):
        g = er_graph(40, 0.2, seed=11)
        labels = np.random.default_rng(12).integers(0, 3, size=40)
        psi = np.random.default_rng(13).standard_normal((40, 6))
        whole = coefficient_distance_report(psi, g, labels)
        with mock.patch.object(evaluate, "JACCARD_BLOCK_PAIRS", 7):
            blocked = coefficient_distance_report(psi, g, labels)
        for name in ("same_label_count", "same_label_mean",
                     "diff_label_count", "diff_label_mean"):
            np.testing.assert_array_equal(getattr(blocked, name),
                                          getattr(whole, name))

    def test_pair_sample_validated(self):
        g = er_graph(10, 0.3, seed=10)
        with pytest.raises(ValueError):
            coefficient_distance_report(np.zeros((10, 2)), g,
                                        np.zeros(10, dtype=int), pair_sample=0)
