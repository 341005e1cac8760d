import importlib

import pytest

import layers
import session
import speed
from csbm import GraphSpec, ensure_inputs
from tracer import Tracer, children_of, self_time
from workloads import Workload


def _span(i, name, parent, start, end, **attrs):
    return {"run": "t", "id": i, "name": name, "parent": parent,
            "start": start, "end": end, "attrs": attrs}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, "root", None, 0.0, 10.0),
        _span(1, "a", 0, 1.0, 3.0),
        _span(2, "b", 0, 2.5, 4.0),      # overlaps a by 0.5
        _span(3, "leaf", 1, 1.5, 2.0),   # grandchild: not subtracted again
        _span(4, "c", 0, 9.0, 12.0),     # sticks out past the parent
    ]
    kids = children_of(spans)
    assert self_time(spans[0], kids) == pytest.approx(10.0 - 3.0 - 1.0)
    assert self_time(spans[1], kids) == pytest.approx(1.5)
    assert self_time(spans[3], kids) == pytest.approx(0.5)


def test_layer_metrics_on_a_synthetic_tree():
    spans = [
        _span(0, "model.train", None, 0.0, 10.0, epochs=4, useful_rows=80),
        _span(1, "model.build_operator", 0, 0.0, 1.0),
        _span(2, "polyfilter.propagate", 0, 1.0, 2.0),
        _span(3, "graph.spmm", 2, 1.0, 1.5, madds=10, bytes=100),
        _span(4, "graph.spmm", 2, 1.5, 2.0, madds=10, bytes=100),
        _span(5, "model.backward", 0, 3.0, 5.0),
        _span(6, "graph.spmm", 5, 3.0, 4.5, madds=5, bytes=50),
        _span(7, "model.forward_eval", 0, 6.0, 7.0, rows=100),
        _span(8, "model.forward_eval", None, 11.0, 12.0, rows=100),
    ]
    m = layers.layer_metrics(spans, overhead_ratio=1.1)
    assert set(m) == set(layers.UNITS)
    assert m["graph.spmm.calls"] == 3
    assert m["graph.spmm.madds"] == 25
    assert m["graph.spmm.gbytes_computed"] == pytest.approx(250e-9)
    assert m["polyfilter.propagate.spmm_calls"] == 2
    assert m["model.backward.self_s"] == pytest.approx(0.5)
    assert m["model.epoch_ms"] == pytest.approx(1000.0 * 8.0 / 4)
    # Only the eval forward inside train counts toward the useful-row ratio.
    assert m["model.eval_rows_useful_ratio"] == pytest.approx(0.8)
    assert m["model.forward_eval.s"] == pytest.approx(2.0)
    assert m["trace.overhead_ratio"] == 1.1


def test_missing_attribute_is_recorded_absent():
    tracer = Tracer("t")
    tracer.wrap("nodespec.model", "no_such_function", "x.y")
    tracer.wrap("nodespec.no_such_module", "f", "x.z")
    assert tracer.absent == ["nodespec.model.no_such_function",
                             "nodespec.no_such_module.f"]
    tracer.restore()


def test_traced_session_restores_wrappers(tmp_path):
    originals = {(mod, attr): getattr(importlib.import_module(mod), attr)
                 for mod, attr, _, _ in layers.TARGETS}
    tiny = Workload(
        name="tiny", why="test", graphs={"train": GraphSpec(n=300,
                                                            feature_dim=8)},
        train=dict(mode="appnp_like", basis="chebyshev", order=3,
                   hidden=16, lr_l=0.05, lr_p=0.05), epochs=50,
        predict_calls=1, pair_sample=100)
    ensure_inputs(tiny.graphs, 1, str(tmp_path / "in"))
    correct, attempted, failed, metrics, units = session.run(
        tiny, 1, 0.0, True, str(tmp_path / "in"))
    assert correct and failed == 0 and attempted > 0
    assert set(metrics) == set(units) == set(layers.UNITS)
    assert metrics["graph.spmm.calls"] > 0
    assert metrics["model.predict.s"] > 0
    for (mod, attr), fn in originals.items():
        assert getattr(importlib.import_module(mod), attr) is fn


def test_paused_tracer_records_no_spans():
    tracer = Tracer("t")
    tracer.wrap("nodespec.synthetic", "path_graph", "synthetic.path_graph")
    synthetic = importlib.import_module("nodespec.synthetic")
    try:
        synthetic.path_graph(3)
        with tracer.paused():
            synthetic.path_graph(3)
    finally:
        tracer.restore()
    assert [s["name"] for s in tracer.spans] == ["synthetic.path_graph"]


def test_scaled_time_cancels_host_speed():
    # The same call on a host running at half speed takes twice as long and
    # so do the probes around it: the reference time does not change.
    fast = speed.scaled(0.5, speed.REFERENCE_S, speed.REFERENCE_S)
    slow = speed.scaled(1.0, 2 * speed.REFERENCE_S, 2 * speed.REFERENCE_S)
    assert fast == pytest.approx(0.5)
    assert slow == pytest.approx(fast)
