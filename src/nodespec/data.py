"""Dataset loading, text formats, and reproducible node splits.

File formats (all UTF-8 text):

* edge list  - one ``i<TAB>j`` pair per line (any run of whitespace
  separates), 0-based ids, ``#`` comments and blank lines ignored;
  orientation and duplicates are irrelevant.
* features   - CSV, one row per node, no header, ASCII decimal floats,
  all finite; ``#`` comments and empty lines ignored.
* labels     - one non-negative integer per line, blank lines ignored, no
  comments; the class count is max label + 1.
* split JSON - ``{"seed": int, "mode": str, "train": [...], "validation":
  [...], "test": [...]}`` plus ``observed_test``/``unobserved_test`` for
  inductive splits; every index array is a list of JSON integers, sorted
  ascending when saved.

Node ids and labels are ASCII decimal integers with an optional sign, within
int64. One reader parses the three text formats: a single ``numpy.loadtxt``
call and a check of the whole table (two columns; one non-negative column;
all finite). Only when either fails does a Python re-scan apply the format's
line rule to name the first bad ``path:line`` (``path:line:col`` for a
feature cell), or the path alone when no one line is at fault.

Split generation is pinned to a SplitMix64-driven Fisher-Yates permutation
with exact rational ratio arithmetic, so a (n, mode, seed) triple produces
identical splits on every platform and in any reimplementation. The
SplitMix64 stream is counter-based, so ``rng.splitmix64`` computes all its
draws in closed form as one wrapping uint64 array, exactly the numbers of the
one-at-a-time definition; only the Fisher-Yates swaps run as a Python loop.
"""

import json
import math
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .graph import Graph, build_graph, induced_subgraph, node_ids
from .rng import permutation

# mode -> (train numerator, validation numerator, denominator)
SPLIT_RATIOS = {
    "sparse": (1, 1, 40),    # 2.5% / 2.5% / 95%
    "dense": (24, 8, 40),    # 60% / 20% / 20%
}
INDUCTIVE_BASE = "sparse"
OBSERVED_NUM, OBSERVED_DEN = 4, 5   # observed:unobserved = 8:2 of the test set

DRAWN_MODES = ("sparse", "dense", "inductive")   # the modes make_split draws
MODES = (*DRAWN_MODES, "custom")
_SPLIT_INDEX_FIELDS = ("train", "validation", "test", "observed_test",
                       "unobserved_test")

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
        try:
            for key in _SPLIT_INDEX_FIELDS:
                value = getattr(self, key)
                # only the two inductive halves of the test set may be absent
                if value is not None or key in ("train", "validation", "test"):
                    setattr(self, key, np.sort(node_ids(value).ravel()))
        except ValueError as exc:
            raise DataFormatError(f"split {exc}") from None
        validate_split(self)

    def observed_nodes(self) -> np.ndarray:
        """Nodes visible at training time (everything except unobserved test)."""
        parts = [self.train, self.validation]
        if self.observed_test is not None:
            parts.append(self.observed_test)
        else:
            parts.append(self.test)
        return np.sort(np.concatenate(parts))


def validate_split(split: Split, n: Optional[int] = None) -> None:
    total = np.sort(np.concatenate([split.train, split.validation,
                                    split.test]))
    if (total[1:] == total[:-1]).any():
        raise DataFormatError("split sets are not pairwise disjoint")
    if total.size and total[0] < 0:
        raise DataFormatError("split contains negative node ids")
    if n is not None and total.size and total[-1] >= n:
        raise DataFormatError(f"split references node {total[-1]} >= n={n}")
    has_obs = split.observed_test is not None
    has_unobs = split.unobserved_test is not None
    if has_obs != has_unobs:
        raise DataFormatError("observed_test and unobserved_test must appear together")
    if has_obs:
        merged = np.sort(np.concatenate([split.observed_test,
                                         split.unobserved_test]))
        # the test set has no repeats, so equal to it means no overlap too
        if merged.size != split.test.size or not np.array_equal(merged, split.test):
            raise DataFormatError("observed/unobserved must partition the test set")
    if split.mode not in MODES:
        raise DataFormatError(f"unknown split mode {split.mode!r}")


def _is_int64(field: str) -> bool:
    return (_INT_FIELD.fullmatch(field) is not None
            and _INT64_MIN <= int(field) <= _INT64_MAX)


def _feature_cell_problem(cell: str) -> Optional[str]:
    """What numpy's float64 parser rejects, or NaN/inf. After surrounding
    whitespace is stripped it reads only ASCII; Python's float() would also
    take underscores and non-ASCII digits."""
    body = cell.strip()
    try:
        if not body.isascii() or "_" in body:
            raise ValueError
        value = float(body)
    except ValueError:
        return f"not a decimal float: {cell!r}"
    if not math.isfinite(value):
        return f"non-finite feature value: {cell!r}"
    return None


def _read_table(path, loadtxt_args: dict, table_problem, split, width,
                field_problem, cell_location=False) -> np.ndarray:
    """The file as a 2-D array: one ``np.loadtxt`` call, then the table
    check ``table_problem``. Only if either fails does a Python re-scan
    apply the format's line rule: ``split`` a line into fields (none: skip
    it), expect ``width`` of them (None: as many as the first line) and
    check each with ``field_problem``. The first bad line raises a
    DataFormatError at ``path:line`` (``path:line:col`` with
    ``cell_location``); if no line is bad, the error is at ``path``. A file
    without data rows gives a (0, 1) array, without loadtxt's warning."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                    UserWarning)
            table = np.loadtxt(path, ndmin=2, **loadtxt_args)
    except ValueError as exc:
        problem = str(exc)
    else:
        problem = table_problem(table)
        if problem is None:
            return table
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = split(line)
            if not fields:
                continue
            width = width or len(fields)
            if len(fields) != width:
                raise DataFormatError(f"{path}:{lineno}: expected {width} "
                                      f"columns, got {len(fields)}")
            for col, field in enumerate(fields, start=1):
                bad = field_problem(field)
                if bad:
                    where = f"{lineno}:{col}" if cell_location else lineno
                    raise DataFormatError(f"{path}:{where}: {bad}")
    raise DataFormatError(f"{path}: {problem}")


def load_edge_list(path) -> np.ndarray:
    """The file's pairs, in file order, as an (m, 2) int64 array."""
    return _read_table(
        path, dict(dtype=np.int64, comments="#", encoding="utf-8"),
        table_problem=lambda t: (f"expected 2 columns, got {t.shape[1]}"
                                 if t.size and t.shape[1] != 2 else None),
        split=lambda line: line.split("#", 1)[0].split(), width=2,
        field_problem=lambda f: (None if _is_int64(f) else
                                 f"not a decimal int64 node id: {f!r}"),
    ).reshape(-1, 2)


def load_features(path) -> np.ndarray:
    """One float64 row per line that is not empty, as an (n, f) array."""
    def split(line):
        # numpy skips only a line that is empty once its comment is cut, so
        # a line of spaces is a row of one blank cell
        body = line.split("#", 1)[0].rstrip("\n")
        return body.split(",") if body else []
    return _read_table(
        path, dict(delimiter=",", dtype=np.float64),
        table_problem=lambda t: (None if np.isfinite(t).all()
                                 else "non-finite feature value"),
        split=split, width=None, field_problem=_feature_cell_problem,
        cell_location=True)


def load_labels(path) -> np.ndarray:
    """One non-negative int64 label per non-blank line. The whole line is
    one field, so ``1 2`` is not an integer label."""
    def table_problem(t):
        if t.shape[1] != 1:
            return f"expected one label per line, got {t.shape[1]} fields"
        return f"negative label {t.min()}" if t.size and t.min() < 0 else None

    def label_problem(field):
        if not _is_int64(field):
            return f"not an integer label: {field!r}"
        return f"negative label {int(field)}" if int(field) < 0 else None
    return _read_table(
        path, dict(dtype=np.int64, comments=None, encoding="utf-8"),
        table_problem=table_problem,
        split=lambda line: [line.strip()] if line.strip() else [], width=1,
        field_problem=label_problem).ravel()


def load_dataset(edge_path, feature_path, label_path,
                 name: str = "dataset") -> Dataset:
    """Load and validate a dataset from the three text files."""
    labels = load_labels(label_path)
    if labels.size == 0:
        raise DataFormatError(f"{label_path}: no labels found")
    class_count = int(labels.max()) + 1
    if class_count < 2:
        raise DataFormatError(f"{label_path}: need at least 2 classes, "
                              "every label is 0")
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
    groups = [perm]
    if stratified:
        if labels is None:
            raise ValueError("stratified split requires labels")
        labels = np.asarray(labels)
        groups = [perm[labels[perm] == cls] for cls in np.unique(labels)]

    # each group's quotas, in the group's permuted order
    parts = []
    for members in groups:
        n_tr = (members.size * tr_num) // den
        n_va = (members.size * va_num) // den
        parts.append(np.split(members, [n_tr, n_tr + n_va]))
    train, val, test_perm = (np.concatenate(sets) for sets in zip(*parts))

    observed = unobserved = None
    if mode == "inductive":
        n_obs = (test_perm.size * OBSERVED_NUM) // OBSERVED_DEN
        observed = test_perm[:n_obs]
        unobserved = test_perm[n_obs:]
    return Split(train=train, validation=val, test=test_perm, seed=seed,
                 mode=mode, observed_test=observed, unobserved_test=unobserved)


def save_split(split: Split, path) -> None:
    payload = {"seed": int(split.seed), "mode": split.mode}
    payload.update((key, getattr(split, key).tolist())
                   for key in _SPLIT_INDEX_FIELDS
                   if getattr(split, key) is not None)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_split(path) -> Split:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise DataFormatError(f"{path}: expected a JSON object")
    for key in ("seed", "mode", "train", "validation", "test"):
        if key not in payload:
            raise DataFormatError(f"{path}: missing required field {key!r}")
    if type(payload["seed"]) is not int:
        raise DataFormatError(f"{path}: seed must be an integer")
    ids = {key: payload[key] for key in _SPLIT_INDEX_FIELDS if key in payload}
    for key, values in ids.items():
        # np.asarray would truncate a float and read a string or bool as an id
        if not (isinstance(values, list) and all(
                type(v) is int and _INT64_MIN <= v <= _INT64_MAX
                for v in values)):
            raise DataFormatError(
                f"{path}: {key} must be a list of integer node ids")
    try:
        return Split(seed=payload["seed"], mode=payload["mode"], **ids)
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
