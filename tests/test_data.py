import json

import numpy as np
import pytest

from nodespec.data import (DataFormatError, Dataset, Split, load_dataset,
                           load_named_dataset, load_split, make_split,
                           save_dataset, save_split, subset)
from nodespec.synthetic import planted_partition_dataset


@pytest.fixture
def toy_files(tmp_path):
    (tmp_path / "edges.tsv").write_text("0\t1\n1\t2\n# comment line\n\n2\t0\n")
    (tmp_path / "features.csv").write_text("1.0,0.5\n-2.0,0.25\n0.0,3.5\n")
    (tmp_path / "labels.txt").write_text("0\n1\n1\n")
    return tmp_path


class TestLoadDataset:
    def test_toy_fixture_values(self, toy_files):
        ds = load_dataset(toy_files / "edges.tsv", toy_files / "features.csv",
                          toy_files / "labels.txt", name="toy")
        assert ds.n == 3
        assert ds.graph.edge_count == 3
        assert ds.class_count == 2
        np.testing.assert_allclose(ds.features,
                                   [[1.0, 0.5], [-2.0, 0.25], [0.0, 3.5]])
        assert ds.labels.tolist() == [0, 1, 1]

    def test_bad_edge_line_reports_location(self, toy_files):
        (toy_files / "edges.tsv").write_text("0\t1\n0 1 2\n")
        with pytest.raises(DataFormatError, match="edges.tsv:2"):
            load_dataset(toy_files / "edges.tsv", toy_files / "features.csv",
                         toy_files / "labels.txt")

    def test_bad_feature_cell_reports_location(self, toy_files):
        (toy_files / "features.csv").write_text("1.0,2.0\n1.0,oops\n3.0,4.0\n")
        with pytest.raises(DataFormatError, match="features.csv:2:2"):
            load_dataset(toy_files / "edges.tsv", toy_files / "features.csv",
                         toy_files / "labels.txt")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_feature_reports_location(self, toy_files, cell):
        (toy_files / "features.csv").write_text(f"1.0,2.0\n3.0,4.0\n{cell},5.0\n")
        with pytest.raises(DataFormatError,
                           match="features.csv:3:1: non-finite feature value"):
            load_dataset(toy_files / "edges.tsv", toy_files / "features.csv",
                         toy_files / "labels.txt")

    def test_row_count_mismatch(self, toy_files):
        (toy_files / "labels.txt").write_text("0\n1\n")
        with pytest.raises(DataFormatError, match="row-count mismatch"):
            load_dataset(toy_files / "edges.tsv", toy_files / "features.csv",
                         toy_files / "labels.txt")

    def test_edge_out_of_range(self, toy_files):
        (toy_files / "edges.tsv").write_text("0\t9\n")
        with pytest.raises(DataFormatError, match="out of range"):
            load_dataset(toy_files / "edges.tsv", toy_files / "features.csv",
                         toy_files / "labels.txt")

    def test_negative_label_rejected(self, toy_files):
        (toy_files / "labels.txt").write_text("0\n-1\n1\n")
        with pytest.raises(DataFormatError, match="negative label"):
            load_dataset(toy_files / "edges.tsv", toy_files / "features.csv",
                         toy_files / "labels.txt")

    def test_roundtrip_through_save(self, tmp_path):
        ds = planted_partition_dataset(n=40, seed=1, name="round")
        save_dataset(ds, tmp_path)
        back = load_named_dataset(tmp_path, "round")
        assert back.graph.edge_count == ds.graph.edge_count
        np.testing.assert_array_equal(back.labels, ds.labels)
        np.testing.assert_allclose(back.features, ds.features)


class TestDatasetValidation:
    def test_single_class_rejected(self, toy_files):
        (toy_files / "labels.txt").write_text("0\n0\n0\n")
        with pytest.raises(ValueError, match="at least 2 classes"):
            load_dataset(toy_files / "edges.tsv", toy_files / "features.csv",
                         toy_files / "labels.txt")

    def test_label_out_of_class_range(self):
        ds = planted_partition_dataset(n=20, seed=0)
        with pytest.raises(ValueError):
            Dataset(graph=ds.graph, features=ds.features, labels=ds.labels,
                    class_count=int(ds.labels.max()))  # one too small


class TestMakeSplit:
    def test_sparse_counts(self):
        split = make_split(1000, "sparse", seed=0)
        assert (split.train.size, split.validation.size, split.test.size) == (25, 25, 950)

    def test_dense_counts(self):
        split = make_split(100, "dense", seed=0)
        assert (split.train.size, split.validation.size, split.test.size) == (60, 20, 20)

    def test_inductive_counts(self):
        split = make_split(1000, "inductive", seed=0)
        assert split.observed_test.size == 760
        assert split.unobserved_test.size == 190

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown split mode"):
            make_split(100, "tiny", seed=0)

    def test_too_few_nodes(self):
        with pytest.raises(ValueError):
            make_split(5, "dense", seed=0)

    def test_deterministic_across_calls(self):
        a = make_split(512, "sparse", seed=99)
        b = make_split(512, "sparse", seed=99)
        for lhs, rhs in ((a.train, b.train), (a.validation, b.validation),
                         (a.test, b.test)):
            np.testing.assert_array_equal(lhs, rhs)

    def test_disjoint_and_in_range_property(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(10, 400))
            mode = ("sparse", "dense", "inductive")[int(rng.integers(3))]
            split = make_split(n, mode, seed=int(rng.integers(1 << 32)))
            merged = np.concatenate([split.train, split.validation, split.test])
            assert np.unique(merged).size == merged.size == n
            assert merged.min() >= 0 and merged.max() < n

    def test_stratified_quotas(self):
        labels = np.repeat(np.arange(4), 25)
        split = make_split(100, "dense", seed=3, stratified=True, labels=labels)
        for cls in range(4):
            assert np.sum(labels[split.train] == cls) == 15
            assert np.sum(labels[split.validation] == cls) == 5

    def test_stratified_requires_labels(self):
        with pytest.raises(ValueError, match="requires labels"):
            make_split(100, "dense", seed=0, stratified=True)


class TestSplitSerialization:
    def test_roundtrip(self, tmp_path):
        split = make_split(200, "inductive", seed=17)
        path = tmp_path / "split.json"
        save_split(split, path)
        back = load_split(path)
        assert back.seed == 17 and back.mode == "inductive"
        for lhs, rhs in ((split.train, back.train),
                         (split.validation, back.validation),
                         (split.test, back.test),
                         (split.observed_test, back.observed_test),
                         (split.unobserved_test, back.unobserved_test)):
            np.testing.assert_array_equal(lhs, rhs)

    def test_sorted_arrays_in_file(self, tmp_path):
        split = make_split(64, "dense", seed=1)
        path = tmp_path / "split.json"
        save_split(split, path)
        payload = json.loads(path.read_text())
        for key in ("train", "validation", "test"):
            assert payload[key] == sorted(payload[key])

    def test_overlapping_sets_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"seed": 0, "mode": "custom",
                                    "train": [0, 1], "validation": [1],
                                    "test": [2]}))
        with pytest.raises(DataFormatError, match="disjoint"):
            load_split(path)

    def test_missing_seed_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"mode": "custom", "train": [0],
                                    "validation": [1], "test": [2]}))
        with pytest.raises(DataFormatError, match="seed"):
            load_split(path)

    def test_partial_inductive_fields_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"seed": 0, "mode": "inductive",
                                    "train": [0], "validation": [1],
                                    "test": [2, 3], "observed_test": [2]}))
        with pytest.raises(DataFormatError, match="together"):
            load_split(path)


def test_split_post_init_validates():
    with pytest.raises(DataFormatError):
        Split(train=[0, 1], validation=[1], test=[2], seed=0, mode="custom")


def test_subset_remaps_everything():
    ds = planted_partition_dataset(n=30, seed=2)
    sub, ids = subset(ds, np.arange(0, 30, 2))
    assert sub.n == 15
    np.testing.assert_array_equal(sub.labels, ds.labels[ids])
    np.testing.assert_allclose(sub.features, ds.features[ids])
