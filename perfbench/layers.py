"""Which package attributes the traced run wraps, and the per-layer metrics.

Each target is an attribute the package itself calls at run time, so the
wrapper sees every call: ``spmm`` is imported by name into ``autodiff`` and
``polyfilter``, and ``model`` looks up ``build_operator``, ``propagate`` and
the forwards as module globals.
"""

from tracer import (children_of, duration, has_ancestor, outermost,
                    self_time)


def _operator_arrays(op):
    """(nnz, bytes held by the CSR arrays) of an spmm operator; (0, 0) when
    it is neither the package's SparseOperator nor a scipy CSR matrix."""
    for names in (("values", "col_indices", "row_offsets"),
                  ("data", "indices", "indptr")):
        parts = [getattr(op, name, None) for name in names]
        if all(p is not None for p in parts):
            return int(parts[0].size), int(sum(p.nbytes for p in parts))
    return 0, 0


def _describe_spmm(args, result):
    op, x = args["op"], args["x"]
    nnz, op_bytes = _operator_arrays(op)
    width = 1 if x.ndim == 1 else x.shape[1]
    # Computed from array sizes: the CSR arrays, the operand and the result
    # each move once. Cache misses are not counted.
    moved = op_bytes + x.nbytes + result.nbytes
    return None, {"madds": nnz * width, "bytes": moved}


def _describe_forward(args, result):
    name = "model.forward_train" if args["training"] else "model.forward_eval"
    return name, {"rows": int(result.logits.data.shape[0])}


def _describe_train(args, result):
    split = args["split"]
    useful = int(split.train.size + split.validation.size)
    return None, {"epochs": int(result.epochs_run), "useful_rows": useful}


def _describe_pairs(args, result):
    return None, {"pairs": int(result.pairs_evaluated)}


TARGETS = (
    ("nodespec.graph", "spmm", "graph.spmm", _describe_spmm),
    ("nodespec.autodiff", "spmm", "graph.spmm", _describe_spmm),
    ("nodespec.polyfilter", "spmm", "graph.spmm", _describe_spmm),
    ("nodespec.data", "build_graph", "graph.build_graph", None),
    ("nodespec.graph", "build_graph", "graph.build_graph", None),
    ("nodespec.data", "load_dataset", "data.load_dataset", None),
    ("nodespec.cli", "load_dataset", "data.load_dataset", None),
    ("nodespec.data", "make_split", "data.make_split", None),
    ("nodespec.cli", "make_split", "data.make_split", None),
    ("nodespec.model", "normalized_laplacian", "graph.normalized_laplacian",
     None),
    ("nodespec.model", "build_operator", "model.build_operator", None),
    ("nodespec.model", "propagate", "polyfilter.propagate", None),
    ("nodespec.model", "forward_appnp_like", "model.forward",
     _describe_forward),
    ("nodespec.model", "forward_sgc_like", "model.forward", _describe_forward),
    ("nodespec.model", "attach_loss", "model.attach_loss", None),
    ("nodespec.model", "loss", "model.loss", None),
    ("nodespec.model", "adam_step", "model.adam_step", None),
    ("nodespec.model", "backward", "model.backward", None),
    ("nodespec.model", "train", "model.train", _describe_train),
    ("nodespec.model", "predict", "model.predict", None),
    ("nodespec.model", "node_coefficients", "model.node_coefficients", None),
    ("nodespec.homophily", "homophily_report", "homophily.homophily_report",
     None),
    ("nodespec.homophily", "entropy_report", "homophily.entropy_report", None),
    ("nodespec.evaluate", "coefficient_distance_report",
     "evaluate.coefficient_distance_report", _describe_pairs),
    ("nodespec.evaluate", "homophily_binned_accuracy",
     "evaluate.homophily_binned_accuracy", None),
)

# Per-layer metrics that are the total time of one span name.
SPAN_TOTALS = (
    "graph.spmm", "graph.build_graph", "data.load_dataset", "data.make_split",
    "graph.normalized_laplacian", "model.build_operator",
    "polyfilter.propagate", "model.forward_train", "model.forward_eval",
    "model.attach_loss", "model.loss", "model.adam_step", "model.backward",
    "model.predict", "model.node_coefficients", "homophily.homophily_report",
    "homophily.entropy_report", "evaluate.coefficient_distance_report",
    "evaluate.homophily_binned_accuracy",
)

# name -> unit of every per-layer metric, in report order.
UNITS = {
    **{f"{name}.s": "s" for name in SPAN_TOTALS},
    "graph.spmm.calls": "count",
    "graph.spmm.madds": "count",
    "graph.spmm.gbytes_computed": "GB",
    "polyfilter.propagate.spmm_calls": "count",
    "model.eval_rows_useful_ratio": "ratio",
    "model.adam_step.calls": "count",
    "model.backward.self_s": "s",
    "model.epoch_ms": "ms",
    "evaluate.coefficient_distance_report.pairs": "count",
    "trace.overhead_ratio": "ratio",
}


def install(tracer) -> None:
    for module_name, attr, name, describe in TARGETS:
        tracer.wrap(module_name, attr, name, describe)


def layer_metrics(spans: list, overhead_ratio: float) -> dict:
    """Per-layer values from a finished span list; absent layers read 0."""
    by_id = {s["id"]: s for s in spans}
    kids = children_of(spans)

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(duration(s) for s in outermost(spans, name, by_id))

    def ratio(num, den):
        return num / den if den else 0.0

    out = {f"{name}.s": total(name) for name in SPAN_TOTALS}
    spmm = named("graph.spmm")
    out["graph.spmm.calls"] = len(spmm)
    out["graph.spmm.madds"] = sum(s["attrs"].get("madds", 0) for s in spmm)
    out["graph.spmm.gbytes_computed"] = sum(
        s["attrs"].get("bytes", 0) for s in spmm) / 1e9

    inside_propagate = [s for s in spmm
                        if has_ancestor(s, by_id, {"polyfilter.propagate"})]
    out["polyfilter.propagate.spmm_calls"] = ratio(
        len(inside_propagate), len(named("polyfilter.propagate")))

    trains = named("model.train")
    useful = forwarded = 0
    for s in named("model.forward_eval"):
        parent = s["parent"]
        while parent is not None and by_id[parent]["name"] != "model.train":
            parent = by_id[parent]["parent"]
        if parent is not None:
            useful += by_id[parent]["attrs"].get("useful_rows", 0)
            forwarded += s["attrs"].get("rows", 0)
    out["model.eval_rows_useful_ratio"] = ratio(useful, forwarded)

    out["model.adam_step.calls"] = len(named("model.adam_step"))
    out["model.backward.self_s"] = sum(self_time(s, kids)
                                       for s in named("model.backward"))

    # Epoch time: train span minus the one-off operator build and precompute.
    one_off = {"model.build_operator", "polyfilter.propagate"}
    epoch_s = sum(duration(s) for s in trains) - sum(
        duration(s) for s in spans
        if s["name"] in one_off and has_ancestor(s, by_id, {"model.train"})
        and not has_ancestor(s, by_id, one_off))
    out["model.epoch_ms"] = 1000.0 * ratio(
        epoch_s, sum(s["attrs"].get("epochs", 0) for s in trains))

    out["evaluate.coefficient_distance_report.pairs"] = sum(
        s["attrs"].get("pairs", 0)
        for s in named("evaluate.coefficient_distance_report"))
    out["trace.overhead_ratio"] = overhead_ratio
    return out
