import io
import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nodespec.data import (DataFormatError, Dataset, Split, dataset_dir_paths,
                           load_dataset, load_edge_list, load_features,
                           load_labels,
                           load_named_dataset, load_split, make_split,
                           save_dataset, save_split, subset)
from nodespec.graph import build_graph
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
        # float() reads "1_0" and Arabic-Indic digits; numpy's parser does not
        for cell in ["oops", "1_0", "\u0661", "\u0661.5"]:
            (toy_files / "features.csv").write_text(
                f"1.0,2.0\n1.0,{cell}\n3.0,4.0\n", encoding="utf-8")
            with pytest.raises(DataFormatError, match=re.escape(
                    f"features.csv:2:2: not a decimal float: {cell!r}")):
                load_dataset(toy_files / "edges.tsv",
                             toy_files / "features.csv",
                             toy_files / "labels.txt")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_feature_reports_location(self, toy_files, cell):
        (toy_files / "features.csv").write_text(f"1.0,2.0\n3.0,4.0\n{cell},5.0\n")
        with pytest.raises(DataFormatError,
                           match="features.csv:3:1: non-finite feature value"):
            load_dataset(toy_files / "edges.tsv", toy_files / "features.csv",
                         toy_files / "labels.txt")

    def test_peak_is_what_it_keeps_plus_one_and_a_half_graphs(
            self, tmp_path, traced_peak):
        # saved with each edge once, so the edge array read and the build's
        # keys are about 1.3 graphs
        n = 20_000
        rng = np.random.default_rng(2)
        ds = Dataset(graph=build_graph(rng.integers(0, n, size=(5 * n, 2)), n),
                     features=rng.standard_normal((n, 8)),
                     labels=rng.integers(0, 4, size=n), class_count=4,
                     name="large")
        save_dataset(ds, tmp_path)
        back, peak = traced_peak(lambda: load_dataset(
            *dataset_dir_paths(tmp_path, "large")))
        graph = back.graph.row_offsets.nbytes + back.graph.col_indices.nbytes
        kept = graph + back.features.nbytes + back.labels.nbytes
        assert peak < kept + 1.5 * graph

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

    @pytest.mark.parametrize("line", [
        "0\t1.0",           # not an integer
        "0\tx",             # a letter
        "2\t# 1",           # the second id is commented out
        "1_000\t2",         # int() accepts underscores; the format does not
        "\u0663\t2",        # a non-ASCII digit
        "0\t99999999999999999999",  # beyond int64
        "-9223372036854775809\t0",
    ])
    def test_bad_edge_field_reports_line(self, toy_files, line):
        (toy_files / "edges.tsv").write_text(f"0\t1\n# c\n{line}\n1\t2\n")
        with pytest.raises(DataFormatError, match="edges.tsv:3: "):
            load_dataset(toy_files / "edges.tsv", toy_files / "features.csv",
                         toy_files / "labels.txt")

    @pytest.mark.parametrize("name, text", [
        ("edges.tsv", b"0\t1\n\xff\t2\n"),
        ("features.csv", b"1.0,2.0\n\xff,0\n3.0,4.0\n"),
        ("labels.txt", b"0\n\xff\n1\n")])
    def test_undecodable_byte_reports_line(self, toy_files, name, text):
        (toy_files / name).write_bytes(text)
        with pytest.raises(DataFormatError, match=f"{name}:2:"):
            load_dataset(toy_files / "edges.tsv", toy_files / "features.csv",
                         toy_files / "labels.txt")

    def test_single_column_edge_list_reports_line(self, toy_files):
        (toy_files / "edges.tsv").write_text("\n0\n1\n")
        with pytest.raises(DataFormatError, match="edges.tsv:2: "):
            load_edge_list(toy_files / "edges.tsv")

    @pytest.mark.parametrize("text", ["", "# only a comment\n\n  \n"])
    def test_edge_list_without_pairs(self, toy_files, text):
        (toy_files / "edges.tsv").write_text(text)
        edges = load_edge_list(toy_files / "edges.tsv")
        assert edges.shape == (0, 2) and edges.dtype == np.int64
        ds = load_dataset(toy_files / "edges.tsv", toy_files / "features.csv",
                          toy_files / "labels.txt")
        assert ds.graph.edge_count == 0

    @pytest.mark.parametrize("label", [
        "99999999999999999999", "1.0", "x", "1 # a comment", "1 2", "1_000",
        "\u0663", "#"])
    def test_bad_label_reports_line(self, toy_files, label):
        (toy_files / "labels.txt").write_text(f"0\n{label}\n1\n")
        with pytest.raises(DataFormatError,
                           match="labels.txt:2: not an integer label"):
            load_dataset(toy_files / "edges.tsv", toy_files / "features.csv",
                         toy_files / "labels.txt")

    def test_roundtrip_through_save(self, tmp_path):
        ds = planted_partition_dataset(n=40, seed=1, name="round")
        save_dataset(ds, tmp_path)
        back = load_named_dataset(tmp_path, "round")
        assert back.graph.edge_count == ds.graph.edge_count
        np.testing.assert_array_equal(back.labels, ds.labels)
        np.testing.assert_allclose(back.features, ds.features)

    @pytest.mark.parametrize("edges", [[], [(0, 3), (3, 1), (1, 0), (5, 3)]])
    def test_saved_files_match_the_per_node_writer(self, tmp_path, edges):
        # isolated nodes 2, 4 and 6, or no edge at all
        rng = np.random.default_rng(3)
        features = rng.standard_normal((7, 3)) * 10.0 ** rng.integers(
            -300, 300, size=(7, 3))
        features[0, 0] = -0.0
        ds = Dataset(graph=build_graph(edges, 7), features=features,
                     labels=np.array([0, 2, 1, 1, 0, 2, 1]), class_count=3,
                     name="saved")
        save_dataset(ds, tmp_path)
        g = ds.graph
        want = {
            "edges.tsv": "".join(f"{i}\t{j}\n" for i in range(g.n)
                                 for j in g.neighbors(i) if i < j),
            "features.csv": "".join(",".join(f"{x:.17g}" for x in row) + "\n"
                                    for row in features),
            "labels.txt": "".join(f"{int(y)}\n" for y in ds.labels),
        }
        for name, text in want.items():
            assert (tmp_path / "saved" / name).read_bytes() == text.encode()


def reference_edge_list(path) -> np.ndarray:
    """The per-line edge-list parse the loader must agree with."""
    edges = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            parts = line.split("#", 1)[0].split()
            if parts:
                assert len(parts) == 2
                edges.append((int(parts[0]), int(parts[1])))
    return np.array(edges, dtype=np.int64).reshape(-1, 2)


def reference_labels(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return np.array([int(line) for line in fh if line.strip()],
                        dtype=np.int64)


INT64 = st.integers(-2**63, 2**63 - 1)
BLANK = st.sampled_from(["", " ", "\t", "  \t "])
SEP = st.sampled_from(["\t", " ", "   ", " \t", "\t\t"])
EOL = st.sampled_from(["\n", "\r\n"])


@st.composite
def int_text(draw, values=INT64):
    """A decimal int, perhaps with a '+' sign or leading zeros."""
    value = draw(values)
    sign = "-" if value < 0 else draw(st.sampled_from(["", "+"]))
    return f"{sign}{'0' * draw(st.integers(0, 2))}{abs(value)}"


@st.composite
def edge_line(draw):
    kind = draw(st.sampled_from(["pair", "pair", "pair", "comment", "blank"]))
    if kind == "comment":
        return draw(BLANK) + "# " + draw(st.text("ab 12\t#", max_size=8))
    if kind == "blank":
        return draw(BLANK)
    line = (draw(BLANK) + draw(int_text()) + draw(SEP) + draw(int_text())
            + draw(BLANK))
    if draw(st.booleans()):
        line += "#" + draw(st.text("xy 3\t", max_size=5))
    return line


@st.composite
def label_line(draw):
    if draw(st.integers(0, 4)) == 0:
        return draw(BLANK)
    return draw(BLANK) + draw(int_text(st.integers(0, 2**63 - 1))) + draw(BLANK)


@st.composite
def text_files(draw, line, bad_lines):
    """Lines of a valid file, perhaps with one bad line at a random place,
    written with random line endings and perhaps none after the last line.
    Returns the file's text and the 1-based bad line, or None."""
    lines = draw(st.lists(line(), max_size=12))
    bad = None
    if draw(st.booleans()):
        bad = draw(st.integers(0, len(lines)))
        lines.insert(bad, draw(st.sampled_from(bad_lines)))
        bad += 1
    text = "".join(line + draw(EOL) for line in lines)
    if draw(st.booleans()):
        text = text.removesuffix("\n").removesuffix("\r")
    return text, bad


def assert_loader_matches_reference(loader, reference, path, case):
    text, bad = case
    path.write_bytes(text.encode())
    if bad is not None:
        with pytest.raises(DataFormatError, match=re.escape(f"{path}:{bad}: ")):
            loader(path)
    else:
        np.testing.assert_array_equal(loader(path), reference(path),
                                      strict=True)


BAD_EDGE_LINES = ["0 1 2", "0\t1.0", "x 1", "3 # 4", "1_000 2",
                  "0 99999999999999999999"]
BAD_LABEL_LINES = ["1.0", "x", "1 2", "1 # 2", "-1", "1_000",
                   "99999999999999999999"]
LOADER_SETTINGS = settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture])


@LOADER_SETTINGS
@given(text_files(edge_line, BAD_EDGE_LINES))
def test_edge_list_matches_per_line_parse(tmp_path, case):
    assert_loader_matches_reference(load_edge_list, reference_edge_list,
                                    tmp_path / "edges.tsv", case)


@LOADER_SETTINGS
@given(text_files(label_line, BAD_LABEL_LINES))
def test_labels_match_per_line_parse(tmp_path, case):
    assert_loader_matches_reference(load_labels, reference_labels,
                                    tmp_path / "labels.txt", case)


# Feature cells: well-formed floats, or soup from the characters numpy and
# Python's float() disagree on or reject.
FLOAT_TEXT = st.floats(allow_nan=False, allow_infinity=False).map(repr)
CELL_PARTS = ["0", "1", "9", "-", "+", ".", "e", "_", "inf", "nan", " ",
              "\u0663"]
FEATURE_CELL = FLOAT_TEXT | st.lists(st.sampled_from(CELL_PARTS), max_size=4
                                     ).map("".join)


@st.composite
def feature_files(draw):
    """Rows of one width, perhaps one of another width, and empty lines or
    lines of spaces, which numpy reads as a row of one blank cell."""
    width = draw(st.integers(1, 3))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "", " ", "  "])))
            continue
        cells = width if draw(st.integers(0, 7)) else draw(st.integers(1, 4))
        lines.append(",".join(draw(st.lists(FEATURE_CELL, min_size=cells,
                                            max_size=cells))))
    return lines, draw(EOL)


def first_bad_feature_line(lines):
    """The first line numpy rejects on its own, or that is ragged or
    non-finite; None if there is none."""
    width = None
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        try:
            row = np.loadtxt(io.StringIO(line), delimiter=",", ndmin=2)
        except ValueError:
            return lineno
        width = width or row.shape[1]
        if row.shape[1] != width or not np.isfinite(row).all():
            return lineno
    return None


@LOADER_SETTINGS
@given(feature_files())
def test_features_fail_where_numpy_does(tmp_path, case):
    lines, eol = case
    path = tmp_path / "features.csv"
    path.write_bytes("".join(line + eol for line in lines).encode())
    bad = first_bad_feature_line(lines)
    if bad is not None:
        with pytest.raises(DataFormatError,
                           match="^" + re.escape(f"{path}:{bad}:")):
            load_features(path)
    else:
        rows = [[float(cell) for cell in line.split(",")]
                for line in lines if line]
        want = np.array(rows, dtype=np.float64).reshape(len(rows), -1) \
            if rows else np.empty((0, 1))
        np.testing.assert_array_equal(load_features(path), want, strict=True)


class TestDatasetValidation:
    def test_single_class_rejected(self, toy_files):
        (toy_files / "labels.txt").write_text("0\n0\n0\n")
        # the label file is at fault, so the message names it
        message = f"{toy_files / 'labels.txt'}: need at least 2 classes"
        with pytest.raises(DataFormatError, match=f"^{re.escape(message)}"):
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

    def test_stratified_quotas(self):
        labels = np.repeat(np.arange(4), 25)
        split = make_split(100, "dense", seed=3, stratified=True, labels=labels)
        for cls in range(4):
            assert np.sum(labels[split.train] == cls) == 15
            assert np.sum(labels[split.validation] == cls) == 5

    def test_stratified_requires_labels(self):
        with pytest.raises(ValueError, match="requires labels"):
            make_split(100, "dense", seed=0, stratified=True)


# mode -> (train numerator, validation numerator, denominator)
PINNED_RATIOS = {"sparse": (1, 1, 40), "dense": (24, 8, 40),
                 "inductive": (1, 1, 40)}


@settings(max_examples=150, deadline=None)
@given(n=st.integers(10, 300), mode=st.sampled_from(sorted(PINNED_RATIOS)),
       seed=st.integers(0, (1 << 64) - 1), classes=st.none() | st.integers(1, 6),
       label_seed=st.integers(0, 1 << 32))
def test_make_split_invariants(n, mode, seed, classes, label_seed):
    # classes=None: a global split; otherwise stratified over drawn labels
    labels = (None if classes is None else
              np.random.default_rng(label_seed).integers(0, classes, size=n))
    split = make_split(n, mode, seed, stratified=labels is not None,
                       labels=labels)
    merged = np.concatenate([split.train, split.validation, split.test])
    np.testing.assert_array_equal(np.sort(merged), np.arange(n))

    tr_num, va_num, den = PINNED_RATIOS[mode]
    groups = [np.arange(n)] if labels is None else [
        np.flatnonzero(labels == c) for c in np.unique(labels)]
    for members in groups:
        assert np.isin(split.train, members).sum() == members.size * tr_num // den
        assert (np.isin(split.validation, members).sum()
                == members.size * va_num // den)

    if mode == "inductive":
        np.testing.assert_array_equal(
            np.sort(np.concatenate([split.observed_test,
                                    split.unobserved_test])), split.test)
        assert split.observed_test.size == split.test.size * 4 // 5
    else:
        assert split.observed_test is None and split.unobserved_test is None

    again = make_split(n, mode, seed, stratified=labels is not None,
                       labels=labels)
    for name in ("train", "validation", "test", "observed_test",
                 "unobserved_test"):
        np.testing.assert_array_equal(getattr(again, name),
                                      getattr(split, name))


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

    @pytest.mark.parametrize("mode", ["dense", "sparse", "inductive"])
    def test_file_bytes_match_per_item_formatting(self, tmp_path, mode):
        split = make_split(5000, mode, seed=4)
        path = tmp_path / "split.json"
        save_split(split, path)
        names = ["train", "validation", "test"]
        if mode == "inductive":
            names += ["observed_test", "unobserved_test"]
        payload = {"seed": 4, "mode": mode}
        payload.update({k: [int(i) for i in getattr(split, k)] for k in names})
        want = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert path.read_bytes() == (want + "\n").encode("utf-8")

    def test_overlapping_observed_and_unobserved_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"seed": 0, "mode": "inductive",
                                    "train": [0], "validation": [1],
                                    "test": [2, 3], "observed_test": [2, 3],
                                    "unobserved_test": [3]}))
        with pytest.raises(DataFormatError, match="partition"):
            load_split(path)

    def test_overlapping_sets_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"seed": 0, "mode": "custom",
                                    "train": [0, 1], "validation": [1],
                                    "test": [2]}))
        with pytest.raises(DataFormatError, match="disjoint"):
            load_split(path)

    @pytest.mark.parametrize("key", ["train", "unobserved_test"])
    @pytest.mark.parametrize("ids", [
        [0.5, 1.7],         # numpy would truncate these to 0 and 1
        ["3", "4"], [True, 2], [[1, 2], [3]], "3", 3, None, [2**63]],
        ids=["floats", "strings", "bool", "nested", "string", "number",
             "null", "beyond-int64"])
    def test_non_integer_ids_rejected(self, tmp_path, key, ids):
        payload = {"seed": 0, "mode": "inductive", "train": [0],
                   "validation": [1], "test": [2, 3], "observed_test": [2],
                   "unobserved_test": [3], key: ids}
        with pytest.raises(DataFormatError, match=re.escape(
                f"split.json: {key} must be a list of integer node ids")):
            load_split_from(tmp_path, payload)

    @pytest.mark.parametrize("payload", [5, [0, 1], "split"])
    def test_non_object_rejected(self, tmp_path, payload):
        with pytest.raises(DataFormatError,
                           match="split.json: expected a JSON object"):
            load_split_from(tmp_path, payload)

    def test_boolean_seed_rejected(self, tmp_path):
        with pytest.raises(DataFormatError, match="seed must be an integer"):
            load_split_from(tmp_path, {"seed": True, "mode": "custom",
                                       "train": [0], "validation": [1],
                                       "test": [2]})

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


def load_split_from(tmp_path, payload) -> Split:
    path = tmp_path / "split.json"
    path.write_text(json.dumps(payload))
    return load_split(path)


def test_split_post_init_validates():
    with pytest.raises(DataFormatError):
        Split(train=[0, 1], validation=[1], test=[2], seed=0, mode="custom")


@pytest.mark.parametrize("train", [
    [0.5, 1.7], np.array([0.0, 1.0]), [True, False], np.array([0, 1], dtype=object)])
def test_split_rejects_non_integer_ids(train):
    # casting would truncate 0.5 and 1.7 to a train set [0 1]
    with pytest.raises(DataFormatError, match="must be integers"):
        Split(train=train, validation=[2], test=[3], seed=0, mode="custom")


@pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int32, np.uint64])
def test_split_accepts_integer_ids_of_any_width_and_empty_lists(dtype):
    split = Split(train=np.array([3, 1], dtype=dtype), validation=[],
                  test=np.array([], dtype=dtype), seed=0, mode="custom")
    assert split.train.dtype == np.int64 and split.train.tolist() == [1, 3]
    assert split.validation.dtype == np.int64 and split.validation.size == 0


def test_subset_remaps_everything():
    ds = planted_partition_dataset(n=30, seed=2)
    sub, ids = subset(ds, np.arange(0, 30, 2))
    assert sub.n == 15
    np.testing.assert_array_equal(sub.labels, ds.labels[ids])
    np.testing.assert_allclose(sub.features, ds.features[ids])
