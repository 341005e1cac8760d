"""Dataset loading, text formats, and reproducible node splits.

File formats (all UTF-8 text):

* edge list  - one ``i<TAB>j`` pair per line (any run of whitespace
  separates), 0-based ids, ``#`` comments and blank lines ignored;
  orientation and duplicates are irrelevant.
* features   - CSV, one row per node, no header, decimal floats.
* labels     - one non-negative integer per line, blank lines ignored, no
  comments; the class count is max label + 1.
* split JSON - ``{"seed": int, "mode": str, "train": [...], "validation":
  [...], "test": [...]}`` plus ``observed_test``/``unobserved_test`` for
  inductive splits; all index arrays sorted ascending.

Node ids and labels are ASCII decimal integers with an optional sign, within
int64. Edge lists and labels are parsed by ``numpy.loadtxt``; when it fails, a
Python re-scan names the first bad ``path:line``.

Split generation is pinned to a SplitMix64-driven Fisher-Yates permutation
with exact rational ratio arithmetic, so a (n, mode, seed) triple produces
identical splits on every platform and in any reimplementation.
"""

import json
import math
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .graph import Graph, build_graph, induced_subgraph
from .rng import permutation

# mode -> (train numerator, validation numerator, denominator)
SPLIT_RATIOS = {
    "sparse": (1, 1, 40),    # 2.5% / 2.5% / 95%
    "dense": (24, 8, 40),    # 60% / 20% / 20%
}
INDUCTIVE_BASE = "sparse"
OBSERVED_NUM, OBSERVED_DEN = 4, 5   # observed:unobserved = 8:2 of the test set

MODES = ("sparse", "dense", "inductive", "custom")

# An id or label: ASCII digits with an optional sign; at most 19 significant
# digits keeps int() cheap before the int64 range check.
_INT_FIELD = re.compile(r"[+-]?0*[0-9]{1,19}")
_INT64_MIN, _INT64_MAX = -2**63, 2**63 - 1


class DataFormatError(ValueError):
    """Malformed input file; message carries file and line context."""


@dataclass
class Dataset:
    graph: Graph
    features: np.ndarray
    labels: np.ndarray
    class_count: int
    name: str = "dataset"

    def __post_init__(self):
        n = self.graph.n
        if self.features.shape[0] != n or self.labels.shape[0] != n:
            raise ValueError(
                f"row mismatch: graph n={n}, features {self.features.shape[0]}, "
                f"labels {self.labels.shape[0]}")
        if self.class_count < 2:
            raise ValueError("need at least 2 classes")
        if self.labels.size and (self.labels.min() < 0
                                 or self.labels.max() >= self.class_count):
            raise ValueError("labels must lie in [0, class_count)")

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


@dataclass
class Split:
    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray
    seed: int
    mode: str
    observed_test: Optional[np.ndarray] = None
    unobserved_test: Optional[np.ndarray] = None

    def __post_init__(self):
        self.train = _as_sorted_index(self.train)
        self.validation = _as_sorted_index(self.validation)
        self.test = _as_sorted_index(self.test)
        if self.observed_test is not None:
            self.observed_test = _as_sorted_index(self.observed_test)
        if self.unobserved_test is not None:
            self.unobserved_test = _as_sorted_index(self.unobserved_test)
        validate_split(self)

    def observed_nodes(self) -> np.ndarray:
        """Nodes visible at training time (everything except unobserved test)."""
        parts = [self.train, self.validation]
        if self.observed_test is not None:
            parts.append(self.observed_test)
        else:
            parts.append(self.test)
        return np.sort(np.concatenate(parts))


def _as_sorted_index(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.int64).ravel()
    return np.sort(arr)


def validate_split(split: Split, n: Optional[int] = None) -> None:
    groups = [split.train, split.validation, split.test]
    total = np.concatenate(groups) if groups else np.empty(0, dtype=np.int64)
    if np.unique(total).size != total.size:
        raise DataFormatError("split sets are not pairwise disjoint")
    if total.size and total.min() < 0:
        raise DataFormatError("split contains negative node ids")
    if n is not None and total.size and total.max() >= n:
        raise DataFormatError(f"split references node {total.max()} >= n={n}")
    has_obs = split.observed_test is not None
    has_unobs = split.unobserved_test is not None
    if has_obs != has_unobs:
        raise DataFormatError("observed_test and unobserved_test must appear together")
    if has_obs:
        merged = np.sort(np.concatenate([split.observed_test,
                                         split.unobserved_test]))
        if merged.size != split.test.size or not np.array_equal(merged, split.test):
            raise DataFormatError("observed/unobserved must partition the test set")
        if np.intersect1d(split.observed_test, split.unobserved_test).size:
            raise DataFormatError("observed and unobserved test sets overlap")
    if split.mode not in MODES:
        raise DataFormatError(f"unknown split mode {split.mode!r}")


def _is_int64(field: str) -> bool:
    return (_INT_FIELD.fullmatch(field) is not None
            and _INT64_MIN <= int(field) <= _INT64_MAX)


def _loadtxt_int64(path, comments) -> np.ndarray:
    """Whitespace-separated int64 rows as a 2-D array; a file without data
    rows gives a (0, 1) array, without loadtxt's warning."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                UserWarning)
        return np.loadtxt(path, dtype=np.int64, comments=comments, ndmin=2,
                          encoding="utf-8")


def load_edge_list(path) -> np.ndarray:
    """The file's pairs, in file order, as an (m, 2) int64 array."""
    try:
        edges = _loadtxt_int64(path, comments="#")
    except ValueError as exc:
        problem = str(exc)
    else:
        if edges.size == 0:
            return edges.reshape(0, 2)
        if edges.shape[1] == 2:
            return edges
        problem = f"expected 2 columns, got {edges.shape[1]}"
    _locate_edge_error(path)
    raise DataFormatError(f"{path}: {problem}")


def _locate_edge_error(path) -> None:
    """Re-scan the file in Python to report the first bad line: not two
    fields, or a field that is not a decimal int64."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split("#", 1)[0].split()
            if not parts:
                continue
            if len(parts) != 2:
                raise DataFormatError(
                    f"{path}:{lineno}: expected 'i<TAB>j', got {line.rstrip()!r}")
            for part in parts:
                if not _is_int64(part):
                    raise DataFormatError(
                        f"{path}:{lineno}: not a decimal int64 node id: {part!r}")


def load_features(path) -> np.ndarray:
    try:
        feats = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError:
        _locate_feature_error(path)
        raise
    if not np.isfinite(feats).all():
        _locate_feature_error(path)
        raise DataFormatError(f"{path}: non-finite feature value")
    return feats


def _locate_feature_error(path) -> None:
    """Re-scan the file in Python to report the first bad cell precisely:
    a ragged row, a cell that is not a decimal float, or NaN/inf."""
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            cells = line.rstrip("\n").split(",")
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise DataFormatError(
                    f"{path}:{lineno}: expected {width} columns, got {len(cells)}")
            for col, cell in enumerate(cells, start=1):
                try:
                    value = float(cell)
                except ValueError:
                    raise DataFormatError(
                        f"{path}:{lineno}:{col}: not a decimal float: {cell!r}"
                    ) from None
                if not math.isfinite(value):
                    raise DataFormatError(
                        f"{path}:{lineno}:{col}: non-finite feature value: "
                        f"{cell!r}")


def load_labels(path) -> np.ndarray:
    """One non-negative int64 label per non-blank line."""
    try:
        labels = _loadtxt_int64(path, comments=None)
    except ValueError as exc:
        problem = str(exc)
    else:
        if labels.shape[1] != 1:
            problem = f"expected one label per line, got {labels.shape[1]} fields"
        elif labels.size and labels.min() < 0:
            problem = f"negative label {labels.min()}"
        else:
            return labels.ravel()
    _locate_label_error(path)
    raise DataFormatError(f"{path}: {problem}")


def _locate_label_error(path) -> None:
    """Re-scan the file in Python to report the first line that is not a
    decimal int64, or is negative."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.strip()
            if not body:
                continue
            if not _is_int64(body):
                raise DataFormatError(
                    f"{path}:{lineno}: not an integer label: {body!r}")
            if int(body) < 0:
                raise DataFormatError(
                    f"{path}:{lineno}: negative label {int(body)}")


def load_dataset(edge_path, feature_path, label_path,
                 name: str = "dataset") -> Dataset:
    """Load and validate a dataset from the three text files."""
    labels = load_labels(label_path)
    if labels.size == 0:
        raise DataFormatError(f"{label_path}: no labels found")
    features = load_features(feature_path)
    if features.shape[0] != labels.size:
        raise DataFormatError(
            f"row-count mismatch: {feature_path} has {features.shape[0]} rows, "
            f"{label_path} has {labels.size}")
    edges = load_edge_list(edge_path)
    try:
        graph = build_graph(edges, labels.size)
    except ValueError as exc:
        raise DataFormatError(f"{edge_path}: {exc}") from None
    class_count = int(labels.max()) + 1
    return Dataset(graph=graph, features=features, labels=labels,
                   class_count=class_count, name=name)


def dataset_dir_paths(root, name: str):
    base = Path(root) / name
    return base / "edges.tsv", base / "features.csv", base / "labels.txt"


def load_named_dataset(root, name: str) -> Dataset:
    edge_path, feat_path, label_path = dataset_dir_paths(root, name)
    return load_dataset(edge_path, feat_path, label_path, name=name)


def make_split(n: int, mode: str, seed: int, stratified: bool = False,
               labels=None) -> Split:
    """Random node split under the pinned permutation scheme.

    Train/validation counts are floor(n * ratio) with the remainder to test;
    inductive mode further partitions the test set 8:2 into observed and
    unobserved (floor on observed). ``stratified`` draws the train/validation
    quotas per class instead of globally (requires labels).
    """
    if n < 10:
        raise ValueError("need at least 10 nodes to split")
    base = INDUCTIVE_BASE if mode == "inductive" else mode
    if base not in SPLIT_RATIOS:
        raise ValueError(f"unknown split mode {mode!r}")
    tr_num, va_num, den = SPLIT_RATIOS[base]
    perm = permutation(n, seed)

    if stratified:
        if labels is None:
            raise ValueError("stratified split requires labels")
        labels = np.asarray(labels)
        train_parts, val_parts, test_parts = [], [], []
        for cls in np.unique(labels):
            members = perm[labels[perm] == cls]
            n_tr = (members.size * tr_num) // den
            n_va = (members.size * va_num) // den
            train_parts.append(members[:n_tr])
            val_parts.append(members[n_tr:n_tr + n_va])
            test_parts.append(members[n_tr + n_va:])
        train = np.concatenate(train_parts)
        val = np.concatenate(val_parts)
        test_perm = np.concatenate(test_parts)
    else:
        n_tr = (n * tr_num) // den
        n_va = (n * va_num) // den
        train = perm[:n_tr]
        val = perm[n_tr:n_tr + n_va]
        test_perm = perm[n_tr + n_va:]

    observed = unobserved = None
    if mode == "inductive":
        n_obs = (test_perm.size * OBSERVED_NUM) // OBSERVED_DEN
        observed = test_perm[:n_obs]
        unobserved = test_perm[n_obs:]
    return Split(train=train, validation=val, test=test_perm, seed=seed,
                 mode=mode, observed_test=observed, unobserved_test=unobserved)


def save_split(split: Split, path) -> None:
    payload = {
        "seed": int(split.seed),
        "mode": split.mode,
        "train": [int(i) for i in split.train],
        "validation": [int(i) for i in split.validation],
        "test": [int(i) for i in split.test],
    }
    if split.observed_test is not None:
        payload["observed_test"] = [int(i) for i in split.observed_test]
        payload["unobserved_test"] = [int(i) for i in split.unobserved_test]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_split(path) -> Split:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: invalid JSON: {exc}") from None
    for key in ("seed", "mode", "train", "validation", "test"):
        if key not in payload:
            raise DataFormatError(f"{path}: missing required field {key!r}")
    if not isinstance(payload["seed"], int):
        raise DataFormatError(f"{path}: seed must be an integer")
    try:
        return Split(
            train=payload["train"],
            validation=payload["validation"],
            test=payload["test"],
            seed=payload["seed"],
            mode=payload["mode"],
            observed_test=payload.get("observed_test"),
            unobserved_test=payload.get("unobserved_test"),
        )
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def save_dataset(dataset: Dataset, root, name: Optional[str] = None) -> None:
    """Write a dataset to <root>/<name>/ in the three text formats."""
    edge_path, feat_path, label_path = dataset_dir_paths(
        root, name or dataset.name)
    edge_path.parent.mkdir(parents=True, exist_ok=True)
    g = dataset.graph
    # each edge once, as (i, j) with i < j, in CSR order
    rows = np.repeat(np.arange(g.n), g.degrees())
    upper = rows < g.col_indices
    np.savetxt(edge_path, np.column_stack([rows[upper], g.col_indices[upper]]),
               fmt="%d\t%d")
    np.savetxt(feat_path, dataset.features, fmt="%.17g", delimiter=",")
    np.savetxt(label_path, dataset.labels, fmt="%d")


def subset(dataset: Dataset, nodes) -> tuple[Dataset, np.ndarray]:
    """Dataset induced on a node set; returns it with the original ids.

    Position k of the id array is node k of the sub-dataset, which is how
    training indices are remapped for inductive runs.
    """
    sub_graph, ids = induced_subgraph(dataset.graph, nodes)
    return Dataset(graph=sub_graph,
                   features=dataset.features[ids],
                   labels=dataset.labels[ids],
                   class_count=dataset.class_count,
                   name=dataset.name), ids
