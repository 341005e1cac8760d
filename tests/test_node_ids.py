"""Every public function that takes node ids reads them through
``graph.node_ids``, so one table of bad inputs fails each of them alike and
one table of good ones passes each of them alike."""

import dataclasses

import numpy as np
import pytest

from nodespec import graph, model
from nodespec.data import DataFormatError, Split, subset
from nodespec.evaluate import accuracy, homophily_binned_accuracy
from nodespec.graph import (build_graph, hop_distances, induced_subgraph,
                            normalized_laplacian)
from nodespec.homophily import jaccard_neighbor_distances
from nodespec.oracle import (SpectralFilter, eigendecompose, filter_at_node,
                             localization_check, translate_filter)
from nodespec.polyfilter import propagate
from nodespec.synthetic import planted_partition_dataset

DS = planted_partition_dataset(n=12, classes=2, p_in=0.4, p_out=0.1,
                               feature_dim=4, seed=3)
N = DS.n
G = DS.graph
CFG = model.TrainConfig(mode="sgc_like", order=2, hidden=4, dp_l=0.0,
                        dp_p=0.0)
PARAMS = model.init_params(CFG, DS.feature_dim, DS.class_count,
                           np.random.default_rng(0))
STACK = propagate(CFG.basis, model.build_operator(G, CFG), DS.features,
                  CFG.order)
LOGITS = model.forward_sgc_like(PARAMS, STACK, CFG).logits
ES = eigendecompose(normalized_laplacian(G))
PREDS = np.argmax(LOGITS, axis=1)


def _attach_loss(ids):
    trace = model.forward_sgc_like(PARAMS, STACK, CFG)
    return model.attach_loss(trace, DS.labels, ids, 0.0)


# name -> a call of the entry point on a set of node ids
MANY = {
    "node_ids": lambda ids: graph.node_ids(ids, N),
    "build_graph": lambda ids: build_graph(list(zip(ids, ids[::-1])), N),
    "Split": lambda ids: Split(train=ids, validation=[], test=[], seed=0,
                               mode="custom"),
    "accuracy": lambda ids: accuracy(PREDS, DS.labels, ids),
    "homophily_binned_accuracy": lambda ids: homophily_binned_accuracy(
        PREDS, DS.labels, G, ids),
    "jaccard-ii": lambda ids: jaccard_neighbor_distances(
        G, ids, [0] * len(ids)),
    "jaccard-jj": lambda ids: jaccard_neighbor_distances(
        G, [0] * len(ids), ids),
    "induced_subgraph": lambda ids: induced_subgraph(G, ids),
    "subset": lambda ids: subset(DS, ids),
    "predict": lambda ids: model.predict(PARAMS, DS, CFG, index_set=ids),
    "forward_sgc_like": lambda ids: model.forward_sgc_like(
        PARAMS, STACK, CFG, rows=ids).logits,
    "loss": lambda ids: model.loss(LOGITS, DS.labels, ids, PARAMS, 0.0),
    "attach_loss": _attach_loss,
}

# name -> a call of the entry point on one node id
ONE = {
    "neighbors": lambda v: G.neighbors(v),
    "hop_distances": lambda v: hop_distances(G, v),
    "translate_filter": lambda v: translate_filter(
        ES, SpectralFilter(np.ones(N)), v),
    "filter_at_node": lambda v: filter_at_node(
        ES, SpectralFilter(np.ones(N)), np.ones(N), v),
    "localization_check": lambda v: localization_check(
        G, "monomial", [1.0, 0.5], v),
}

BAD_MANY = {
    # as ids, a mask reads as the nodes 0 and 1
    "bool-mask": np.arange(N) % 5 == 2,
    "float-ids": np.array([1.0, 2.5]),
    "negative-id": [0, -1],
    "id-n": [0, N],
    # np.asarray reads [0, True, 2] as the int64 ids [0, 1, 2]
    "listed-bool": [0, True, 2],
}
BAD_ONE = {"true": True, "float": 1.5, "negative": -1, "n": N}


@pytest.mark.parametrize("site, case", [
    (site, case) for site in MANY for case in BAD_MANY
    # a Split does not know n; validate_split(split, n) checks the range
    if (site, case) != ("Split", "id-n")])
def test_bad_node_ids_raise(site, case):
    error = DataFormatError if site == "Split" else ValueError
    with pytest.raises(error):
        MANY[site](BAD_MANY[case])


@pytest.mark.parametrize("case", BAD_ONE)
@pytest.mark.parametrize("site", ONE)
def test_bad_single_node_id_raises(site, case):
    with pytest.raises(ValueError):
        ONE[site](BAD_ONE[case])


def _arrays(out):
    """The arrays of a result, in order, through tuples and dataclasses."""
    if isinstance(out, tuple):
        return [a for part in out for a in _arrays(part)]
    if dataclasses.is_dataclass(out):
        return [a for f in dataclasses.fields(out)
                for a in _arrays(getattr(out, f.name))]
    return [np.asarray(out)]


GOOD = {
    **{np.dtype(t).name: np.array([1, 3, 5], dtype=t)
       for t in (np.int8, np.uint8, np.int16, np.uint16, np.int32,
                 np.uint32, np.uint64)},
    "list": [1, 3, 5], "tuple": (1, 3, 5), "numpy-ints": [np.int32(1), 3, 5],
    "range": range(1, 6, 2),
}
# these average over the ids, so no ids is an error of their own
EMPTY_IS_AN_ERROR = ("accuracy", "loss", "attach_loss")


@pytest.mark.parametrize("form", GOOD)
@pytest.mark.parametrize("site", MANY)
def test_integer_ids_of_any_form_read_alike(site, form):
    want = _arrays(MANY[site](np.array([1, 3, 5])))
    got = _arrays(MANY[site](GOOD[form]))
    assert len(got) == len(want)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("empty", [[], (), range(0), np.empty(0),
                                   np.empty(0, dtype=np.int32)],
                         ids=["list", "tuple", "range", "float-array",
                              "int32-array"])
@pytest.mark.parametrize("site", MANY)
def test_empty_ids_pass(site, empty):
    if site in EMPTY_IS_AN_ERROR:
        with pytest.raises(ValueError, match="empty index set"):
            MANY[site](empty)
    else:
        MANY[site](empty)


@pytest.mark.parametrize("v", [3, np.int8(3), np.uint64(3), np.array(3),
                               np.int64(3)],
                         ids=["int", "int8", "uint64", "0-d-array", "int64"])
@pytest.mark.parametrize("site", ONE)
def test_single_integer_id_of_any_form(site, v):
    np.testing.assert_array_equal(ONE[site](v), ONE[site](3))


def test_int64_ids_are_not_copied():
    ids = np.array([1, 3, 5])
    assert graph.node_ids(ids, N) is ids
    assert graph.node_ids(ids[::2]).base is ids


@pytest.mark.parametrize("values, message", [
    ([2, 0, 7, -1], "node 7 out of range for a graph with n = 6 nodes"),
    (np.array([-3, 9]), "node -3 out of range for a graph with n = 6 nodes"),
    ([1.5], "node ids must be integers, got float64"),
    ([0, True], "node ids must be integers, got True"),
    (False, "node ids must be integers, got bool")],
    ids=["first-of-two", "negative", "float", "listed-bool", "single-bool"])
def test_messages_name_the_first_bad_id(values, message):
    with pytest.raises(ValueError) as exc:
        graph.node_ids(values, 6)
    assert str(exc.value) == message
