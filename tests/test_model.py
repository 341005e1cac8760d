import dataclasses
import json
import math
import os
import re
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import nodespec
from nodespec import autodiff, graph, model, polyfilter
from nodespec.autodiff import log_softmax_nll, log_softmax_nll_grad
from nodespec.data import Split, make_split
from nodespec.evaluate import accuracy
from nodespec.graph import (build_graph, chebyshev_operator, hop_distances,
                            normalized_laplacian)
from nodespec.polyfilter import propagate
from nodespec.synthetic import path_graph, planted_partition_dataset


@pytest.fixture(scope="module")
def toy():
    return planted_partition_dataset(n=20, classes=3, feature_dim=8,
                                     p_in=0.25, p_out=0.05, seed=5)


def base_config(**kw):
    defaults = dict(order=4, rank=2, hidden=8, dp_l=0.0, dp_p=0.0, l2=1e-3,
                    seed=1, epochs=50, patience=20)
    defaults.update(kw)
    return model.TrainConfig(**defaults)


def eval_loss(params, ds, cfg, idx, dropout_seed=None):
    # with a dropout seed the forward is a training one, and a fresh rng
    # draws the same masks on every call
    training = dropout_seed is not None
    rng = np.random.default_rng(dropout_seed) if training else None
    op = model.build_operator(ds.graph, cfg)
    if cfg.mode == "sgc_like":
        stack = propagate(cfg.basis, op, ds.features, cfg.order)
        trace = model.forward_sgc_like(params, stack, cfg, training, rng)
    else:
        trace = model.forward_appnp_like(params, ds.features, op, cfg,
                                         training, rng)
    return trace, model.attach_loss(trace, ds.labels, idx, cfg.l2)


def finite_difference_check(ds, cfg, idx, h=1e-5, tol=1e-5,
                            dropout_seed=None, params=None):
    if params is None:
        params = model.init_params(cfg, ds.feature_dim, ds.class_count,
                                   np.random.default_rng(cfg.seed))
    trace, _ = eval_loss(params, ds, cfg, idx, dropout_seed)
    grads = model.backward(trace)
    failures = {}
    for name, arr in params.items():
        numeric = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            ix = it.multi_index
            keep = arr[ix]
            arr[ix] = keep + h
            _, up = eval_loss(params, ds, cfg, idx, dropout_seed)
            arr[ix] = keep - h
            _, down = eval_loss(params, ds, cfg, idx, dropout_seed)
            arr[ix] = keep
            numeric[ix] = (up - down) / (2 * h)
            it.iternext()
        scale = max(np.max(np.abs(grads[name])), np.max(np.abs(numeric)), 1e-12)
        rel = float(np.max(np.abs(grads[name] - numeric)) / scale)
        if rel > tol:
            failures[name] = rel
    return failures


class TestForward:
    def test_zero_gamma_zeroes_appnp_logits(self, toy):
        cfg = base_config(mode="appnp_like")
        params = model.init_params(cfg, toy.feature_dim, toy.class_count,
                                   np.random.default_rng(0))
        params["filter.gamma"][:] = 0.0
        op = model.build_operator(toy.graph, cfg)
        trace = model.forward_appnp_like(params, toy.features, op, cfg)
        np.testing.assert_array_equal(trace.logits, 0.0)

    def test_zero_gamma_sgc_gives_mlp_of_zero(self, toy):
        cfg = base_config(mode="sgc_like")
        params = model.init_params(cfg, toy.feature_dim, toy.class_count,
                                   np.random.default_rng(0))
        params["filter.gamma"][:] = 0.0
        op = model.build_operator(toy.graph, cfg)
        stack = propagate(cfg.basis, op, toy.features, cfg.order)
        trace = model.forward_sgc_like(params, stack, cfg)
        # every row must be the MLP applied to the zero vector
        zeros = np.zeros((1, toy.feature_dim))
        h = np.maximum(zeros @ params["mlp.w1"] + params["mlp.b1"], 0.0)
        expected = h @ params["mlp.w2"] + params["mlp.b2"]
        np.testing.assert_allclose(trace.logits,
                                   np.tile(expected, (toy.n, 1)), atol=1e-12)

    def test_zero_projection_reduces_to_global_half_gamma(self, toy):
        cfg = base_config(mode="appnp_like", rank=1)
        params = model.init_params(cfg, toy.feature_dim, toy.class_count,
                                   np.random.default_rng(3))
        params["filter.w"][:] = 0.0
        cfg_g = base_config(mode="global_only")
        params_g = model.ModelParams(
            (name, params[name])
            for name in ("mlp.w1", "mlp.b1", "mlp.w2", "mlp.b2"))
        params_g["filter.gamma"] = 0.5 * params["filter.gamma"].copy()
        op = model.build_operator(toy.graph, cfg)
        za = model.forward_appnp_like(params, toy.features, op, cfg)
        zg = model.forward_appnp_like(params_g, toy.features, op, cfg_g)
        np.testing.assert_allclose(za.logits, zg.logits, atol=1e-12)

    def test_hand_computed_toy_logits(self):
        # 4-node path, K=1, chebyshev: fully scripted dense computation
        g = build_graph([(0, 1), (1, 2), (2, 3)], 4)
        features = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, -0.5]])
        ds_cfg = base_config(order=1, rank=1, hidden=3, mode="appnp_like")
        rng = np.random.default_rng(9)
        params = model.init_params(ds_cfg, 2, 2, rng)
        op = model.build_operator(g, ds_cfg)
        trace = model.forward_appnp_like(params, features, op, ds_cfg)

        # independent dense script
        x0 = (np.maximum(features @ params["mlp.w1"] + params["mlp.b1"], 0.0)
              @ params["mlp.w2"] + params["mlp.b2"])
        dense = op.to_dense()
        layers = [x0, dense @ x0]
        z = np.zeros_like(x0)
        for k, layer in enumerate(layers):
            h = 1.0 / (1.0 + np.exp(-(layer @ params["filter.w"])))
            eta = h @ params["filter.gamma"][k]
            z += eta[:, None] * layer
        np.testing.assert_allclose(trace.logits, z, atol=1e-12)

    def test_sgc_identical_across_calls(self, toy):
        cfg = base_config(mode="sgc_like")
        params = model.init_params(cfg, toy.feature_dim, toy.class_count,
                                   np.random.default_rng(1))
        op = model.build_operator(toy.graph, cfg)
        stack = propagate(cfg.basis, op, toy.features, cfg.order)
        a = model.forward_sgc_like(params, stack, cfg).logits
        b = model.forward_sgc_like(params, stack, cfg).logits
        np.testing.assert_array_equal(a, b)

    def test_sgc_minibatch_concatenates_to_full(self, toy):
        cfg = base_config(mode="sgc_like")
        params = model.init_params(cfg, toy.feature_dim, toy.class_count,
                                   np.random.default_rng(2))
        op = model.build_operator(toy.graph, cfg)
        stack = propagate(cfg.basis, op, toy.features, cfg.order)
        full = model.forward_sgc_like(params, stack, cfg).logits
        pieces = [model.forward_sgc_like(params, stack, cfg, rows=r).logits
                  for r in np.array_split(np.arange(toy.n), 4)]
        np.testing.assert_allclose(np.concatenate(pieces), full, atol=1e-12)

    def test_static_coefficient_flag_shares_mixing_weights(self, toy):
        # static flag: one mixing row per node, so eta[:, k] / gamma_k is the
        # same column for every order k; per-order mixing breaks that
        cfg = base_config(mode="appnp_like", static_coefficients=True, rank=1)
        rng = np.random.default_rng(4)
        params = model.init_params(cfg, toy.feature_dim, toy.class_count, rng)
        params["filter.w"][:] = rng.standard_normal(
            params["filter.w"].shape)
        op = model.build_operator(toy.graph, cfg)
        eta = model.forward_appnp_like(params, toy.features, op, cfg).coefficients
        ratio = eta / params["filter.gamma"][:, 0]
        np.testing.assert_allclose(ratio, np.tile(ratio[:, [0]], (1, 5)),
                                   atol=1e-10)

        cfg_dyn = base_config(mode="appnp_like", rank=1)
        eta_dyn = model.forward_appnp_like(params, toy.features, op,
                                           cfg_dyn).coefficients
        ratio_dyn = eta_dyn / params["filter.gamma"][:, 0]
        assert np.max(np.abs(ratio_dyn - ratio_dyn[:, [0]])) > 1e-6

    @pytest.mark.parametrize("basis", polyfilter.BASES)
    def test_static_coefficients_read_layer_zero(self, toy, basis,
                                                 monkeypatch):
        # static: eta = Gamma sigmoid(Z_0 W)^T for every order, with Z_0
        # layer 0 of the stack, built here by hand from polynomial_layers
        cfg = base_config(mode="appnp_like", basis=basis, rank=3,
                          static_coefficients=True)
        rng = np.random.default_rng(8)
        params = model.init_params(cfg, toy.feature_dim, toy.class_count,
                                   rng)
        params["filter.w"][:] = rng.standard_normal(params["filter.w"].shape)
        params["filter.gamma"][:] = rng.standard_normal(
            params["filter.gamma"].shape)
        op = model.build_operator(toy.graph, cfg)
        x0 = (np.maximum(toy.features @ params["mlp.w1"] + params["mlp.b1"],
                         0.0) @ params["mlp.w2"] + params["mlp.b2"])
        stack = polyfilter.polynomial_layers(basis, op, x0, cfg.order)
        if basis == "bernstein":
            # layer 0 is (I - L/2)^K x, not x
            half = np.eye(toy.n) - normalized_laplacian(
                toy.graph).to_dense() / 2.0
            np.testing.assert_allclose(
                stack[0], np.linalg.matrix_power(half, cfg.order) @ x0,
                rtol=0.0, atol=1e-12)
            assert np.abs(stack[0] - x0).max() > 0.1
        else:
            np.testing.assert_array_equal(stack[0], x0)
        eta = params["filter.gamma"] @ (
            1.0 / (1.0 + np.exp(-(stack[0] @ params["filter.w"])))).T
        logits = np.einsum("kic,ki->ic", stack, eta)

        trace = model.forward_appnp_like(params, toy.features, op, cfg)
        np.testing.assert_allclose(trace.coefficients, eta.T, rtol=1e-12,
                                   atol=1e-14)
        np.testing.assert_allclose(trace.logits, logits, rtol=1e-12,
                                   atol=1e-14)
        monkeypatch.setattr(model, "EVAL_BLOCK_ROWS", 7)
        got_logits, got_eta = model.eval_outputs(params, toy, cfg)
        np.testing.assert_allclose(got_eta, eta.T, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(got_logits, logits, rtol=1e-12,
                                   atol=1e-14)

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    @pytest.mark.parametrize("basis", polyfilter.BASES)
    @pytest.mark.parametrize("mode, static", [("appnp_like", False),
                                              ("appnp_like", True),
                                              ("global_only", False)])
    def test_eval_outputs_match_the_training_forward(
            self, toy, mode, static, basis, precision, monkeypatch):
        # in one block of rows the streamed evaluation gives the forward's
        # bytes; blocks of 7 rows split the toy's 20 into three, one of them
        # short, whose MLP products BLAS may round otherwise
        cfg = base_config(mode=mode, basis=basis, precision=precision,
                          static_coefficients=static,
                          lambda_max=1.8 if basis == "chebyshev" else 2.0)
        params = model.init_params(cfg, toy.feature_dim, toy.class_count,
                                   np.random.default_rng(6))
        op = model.build_operator(toy.graph, cfg)
        want = model.forward_appnp_like(params, toy.features, op, cfg)
        whole = model.eval_outputs(params, toy, cfg)
        monkeypatch.setattr(model, "EVAL_BLOCK_ROWS", 7)
        got = model.eval_outputs(params, toy, cfg)
        atol = 1e-12 if precision == "float64" else 1e-5
        for name, a, b, c in zip(("logits", "coefficients"), got,
                                 (want.logits, want.coefficients), whole):
            assert a.dtype == b.dtype == cfg.dtype and a.shape == b.shape
            np.testing.assert_allclose(a, b, rtol=0.0, atol=atol, err_msg=name)
            assert c.dtype == b.dtype and c.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("block_rows, blocks", [(8, [8, 8, 4]),
                                                    (None, [20])],
                             ids=["blocks-of-8", "one-block"])
    @pytest.mark.parametrize("basis", ["monomial", "chebyshev"])
    def test_predict_holds_no_stack_and_no_whole_hidden_array(
            self, toy, basis, block_rows, blocks, monkeypatch):
        # at every graph size: the 20-node toy, one block of the MLP at the
        # default EVAL_BLOCK_ROWS, streams its layers as a large graph does
        cfg = base_config(mode="appnp_like", basis=basis)
        params = model.init_params(cfg, toy.feature_dim, toy.class_count,
                                   np.random.default_rng(0))
        want = model.forward_appnp_like(params, toy.features,
                                        model.build_operator(toy.graph, cfg),
                                        cfg).logits
        rows = []

        def no_stack(*args):
            raise AssertionError("the evaluation built the whole stack")

        def watched_mlp(x, *args, **kwargs):
            rows.append(len(x))
            return mlp(x, *args, **kwargs)

        mlp = model._mlp
        monkeypatch.setattr(model, "polynomial_layers", no_stack)
        monkeypatch.setattr(polyfilter, "polynomial_layers", no_stack)
        monkeypatch.setattr(model, "_mlp", watched_mlp)
        if block_rows is not None:
            monkeypatch.setattr(model, "EVAL_BLOCK_ROWS", block_rows)
        got = model.predict(params, toy, cfg)[1]
        assert rows == blocks
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    def test_nan_features_raise_divergence(self, toy):
        cfg = base_config()
        params = model.init_params(cfg, toy.feature_dim, toy.class_count,
                                   np.random.default_rng(0))
        bad = toy.features.copy()
        bad[0, 0] = np.nan
        op = model.build_operator(toy.graph, cfg)
        with pytest.raises(model.DivergenceError):
            model.forward_appnp_like(params, bad, op, cfg)

    def test_forward_rejects_another_basis_operator(self, toy):
        cfg = base_config(basis="bernstein")
        params = model.init_params(cfg, toy.feature_dim, toy.class_count,
                                   np.random.default_rng(0))
        for op in (normalized_laplacian(toy.graph),
                   chebyshev_operator(toy.graph, 1.8)):
            with pytest.raises(ValueError, match="bernstein propagation"):
                model.forward_appnp_like(params, toy.features, op, cfg)

    def test_sgc_forward_rejects_a_stack_of_another_order_or_basis(self, toy):
        cfg = base_config(mode="sgc_like", basis="bernstein")
        params = model.init_params(cfg, toy.feature_dim, toy.class_count,
                                   np.random.default_rng(0))
        op = model.build_operator(toy.graph, cfg)
        short = propagate("bernstein", op, toy.features, cfg.order - 1)
        with pytest.raises(ValueError, match="stack order 3 != config order 4"):
            model.forward_sgc_like(params, short, cfg)
        # the Chebyshev operator at 2.0 is the Bernstein one, so only the
        # stack's basis tells
        cheb = propagate("chebyshev", op, toy.features, cfg.order)
        with pytest.raises(ValueError, match="a chebyshev stack given to a "
                                             "bernstein model"):
            model.forward_sgc_like(params, cheb, cfg)


@pytest.mark.parametrize("basis, estimate, builds", [
    ("monomial", False, 1), ("chebyshev", False, 1), ("bernstein", False, 1),
    ("chebyshev", True, 2)])
def test_build_operator_assembles_one_matrix_per_basis(
        basis, estimate, builds, monkeypatch):
    # an estimated Chebyshev operator also builds L to run the estimate on
    calls = []
    assemble = graph._shifted_laplacian

    def counting(g, scale, shift):
        calls.append((scale, shift))
        return assemble(g, scale, shift)

    monkeypatch.setattr(graph, "_shifted_laplacian", counting)
    cfg = base_config(basis=basis, estimate_spectrum=estimate)
    op = model.build_operator(path_graph(30), cfg)
    assert len(calls) == builds
    assert (op.lambda_max is None) == (basis == "monomial")


def test_estimated_operator_spectrum_lies_in_unit_interval():
    # the estimate bounds L's spectrum, so the scaled one stays in [-1, 1];
    # on the denser graph the estimate is below the fixed bound 2
    cfg = base_config(basis="chebyshev", estimate_spectrum=True)
    dense = planted_partition_dataset(n=120, p_in=0.3, p_out=0.05, seed=4)
    for g in (path_graph(200), dense.graph):
        op = model.build_operator(g, cfg)
        eig = np.linalg.eigvalsh(op.to_dense())
        assert eig.min() >= -1.0 - 1e-10 and eig.max() <= 1.0 + 1e-10
    assert op.lambda_max < 1.9


def test_import_and_train_leave_dense_scipy_unloaded():
    # scipy.linalg (pulled in by scipy.sparse.linalg and csgraph) costs
    # memory on every run and nothing here needs it
    script = (
        "import sys\n"
        "from nodespec import data, model, oracle, synthetic\n"
        "ds = synthetic.planted_partition_dataset(n=30, seed=1)\n"
        "split = data.make_split(ds.n, 'dense', seed=0)\n"
        "model.train(ds, split, model.TrainConfig(epochs=1, order=3))\n"
        "model.train(ds, split, model.TrainConfig(\n"
        "    epochs=1, order=3, basis='chebyshev', estimate_spectrum=True))\n"
        "oracle.eigendecompose(model.build_operator(ds.graph,\n"
        "                                           model.TrainConfig()))\n"
        "print(sorted(m for m in sys.modules if m.startswith(\n"
        "    ('scipy.linalg', 'scipy.sparse.linalg', 'scipy.sparse.csgraph'))))\n"
    )
    src = str(Path(nodespec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"


class TestGradients:
    def test_appnp_gradcheck(self, toy):
        failures = finite_difference_check(
            toy, base_config(mode="appnp_like"), np.arange(12))
        assert not failures, failures

    def test_sgc_gradcheck(self, toy):
        failures = finite_difference_check(
            toy, base_config(mode="sgc_like"), np.arange(12))
        assert not failures, failures

    def test_global_gradcheck(self, toy):
        failures = finite_difference_check(
            toy, base_config(mode="global_only"), np.arange(12))
        assert not failures, failures

    def test_bernstein_appnp_gradcheck(self, toy):
        failures = finite_difference_check(
            toy, base_config(mode="appnp_like", basis="bernstein", order=3),
            np.arange(10))
        assert not failures, failures

    def test_bernstein_appnp_gradcheck_order_ten(self, toy):
        failures = finite_difference_check(
            toy, base_config(mode="appnp_like", basis="bernstein", order=10),
            np.arange(10))
        assert not failures, failures

    @pytest.mark.parametrize("basis", ["monomial", "chebyshev", "bernstein"])
    def test_appnp_forward_costs_k_products(self, toy, basis, monkeypatch):
        # K spmm in the forward and K in the adjoint backward
        calls = []
        spmm = polyfilter.spmm

        def counting_spmm(op, x):
            calls.append(op)
            return spmm(op, x)

        monkeypatch.setattr(polyfilter, "spmm", counting_spmm)
        monkeypatch.setattr(autodiff, "spmm", counting_spmm)
        cfg = base_config(mode="appnp_like", basis=basis, order=10)
        params = model.init_params(cfg, toy.feature_dim, toy.class_count,
                                   np.random.default_rng(0))
        trace = model.forward_appnp_like(
            params, toy.features, model.build_operator(toy.graph, cfg), cfg)
        assert len(calls) == 10
        model.attach_loss(trace, toy.labels, np.arange(10), cfg.l2)
        model.backward(trace)
        assert len(calls) == 20

    @pytest.mark.parametrize("mode", ["appnp_like", "sgc_like",
                                      "global_only"])
    def test_dropout_gradcheck(self, toy, mode):
        # a training forward: the backward applies the MLP's and the
        # filtering layer's dropout masks
        cfg = base_config(mode=mode, dp_l=0.3, dp_p=0.3)
        params = model.init_params(cfg, toy.feature_dim, toy.class_count,
                                   np.random.default_rng(cfg.seed))
        # with b1 = 0 a fully dropped input row sits on ReLU's kink, where
        # the subgradient 0 and a central difference (1/2) disagree
        params["mlp.b1"][:] = 0.1
        failures = finite_difference_check(toy, cfg, np.arange(12),
                                           dropout_seed=7, params=params)
        assert not failures, failures

    @pytest.mark.parametrize("mode", ["appnp_like", "sgc_like"])
    def test_static_coefficients_gradcheck(self, toy, mode):
        failures = finite_difference_check(
            toy, base_config(mode=mode, static_coefficients=True),
            np.arange(12))
        assert not failures, failures

    def test_bernstein_global_gradcheck(self, toy):
        failures = finite_difference_check(
            toy, base_config(mode="global_only", basis="bernstein"),
            np.arange(12))
        assert not failures, failures

    @pytest.mark.parametrize("mode, static", [
        ("appnp_like", False), ("appnp_like", True), ("global_only", False)])
    def test_combine_gradients_float32_match_float64(self, toy, mode, static):
        # the combine backward keeps float32 and agrees with float64
        z = np.random.default_rng(3).standard_normal((5, toy.n,
                                                      toy.class_count))
        grads = {}
        for precision in ("float64", "float32"):
            cfg = base_config(mode=mode, static_coefficients=static,
                              precision=precision)
            params = model.init_params(cfg, toy.feature_dim, toy.class_count,
                                       np.random.default_rng(2))
            out, saved = model._combine_layers(z.astype(cfg.dtype), params,
                                               cfg)
            got = {}
            # 2 out is the gradient of sum(out ** 2)
            layer_grad = model._combine_backward(2.0 * out, saved, params,
                                                 got, z_grad=True)
            got["stack"] = np.stack([layer_grad(k) for k in range(len(z))])
            filters = {"filter.gamma"} | (set() if mode == "global_only"
                                          else {"filter.w"})
            assert got.keys() == filters | {"stack"}
            assert all(g.dtype == cfg.dtype for g in got.values())
            grads[precision] = got
        for name, g64 in grads["float64"].items():
            np.testing.assert_allclose(grads["float32"][name], g64,
                                       rtol=1e-4, atol=1e-5 * np.abs(g64).max())

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("variant", [dict(static_coefficients=True),
                                         dict(rank=3),
                                         dict(mode="global_only")],
                             ids=["static", "rank3", "global"])
    @pytest.mark.parametrize("basis", polyfilter.BASES)
    def test_streamed_adjoint_equals_the_stacked_one(self, basis, variant,
                                                     dtype):
        # one layer gradient at a time gives the bytes of the whole
        # (K+1, n, c) gradient stack, and the same filter gradients
        ds = planted_partition_dataset(n=300, classes=4, feature_dim=8)
        cfg = base_config(basis=basis, precision=dtype, order=6, dp_l=0.2,
                          dp_p=0.2, **variant)
        params = model.init_params(cfg, ds.feature_dim, ds.class_count,
                                   np.random.default_rng(4))
        op = model.build_operator(ds.graph, cfg)
        trace = model.forward_appnp_like(params, ds.features, op, cfg, True,
                                         np.random.default_rng(5))
        g = np.random.default_rng(6).standard_normal(
            trace.logits.shape).astype(cfg.dtype)
        got, want = {}, {}
        streamed = autodiff.polynomial_adjoint(
            basis, op, model._combine_backward(g, trace.combine, params, got,
                                               z_grad=True), cfg.order)
        stacked = stacked_combine_adjoint(g, trace.combine, params, want,
                                          basis, op)
        assert streamed.dtype == stacked.dtype == cfg.dtype
        assert streamed.tobytes() == stacked.tobytes()
        assert got.keys() == want.keys()
        for name, arr in want.items():
            assert got[name].tobytes() == arr.tobytes(), name

    @pytest.mark.parametrize("mode", ["appnp_like", "sgc_like"])
    def test_backward_consumes_its_trace(self, toy, mode):
        # the backward writes the hidden gradient over the trace's hidden
        # array, so a second one would read it as activations
        cfg = base_config(mode=mode, dp_l=0.3, dp_p=0.3)
        params = model.init_params(cfg, toy.feature_dim, toy.class_count,
                                   np.random.default_rng(0))
        trace, _ = eval_loss(params, toy, cfg, np.arange(10), dropout_seed=1)
        model.backward(trace)
        assert trace.logits_grad is None
        with pytest.raises(ValueError, match="attach_loss must run before"):
            model.backward(trace)

    def test_monomial_appnp_gradcheck(self, toy):
        failures = finite_difference_check(
            toy, base_config(mode="appnp_like", basis="monomial", order=3),
            np.arange(10))
        assert not failures, failures

    def test_zero_gamma_kills_w_gradient_in_sgc(self, toy):
        cfg = base_config(mode="sgc_like")
        params = model.init_params(cfg, toy.feature_dim, toy.class_count,
                                   np.random.default_rng(1))
        params["filter.gamma"][:] = 0.0
        trace, _ = eval_loss(params, toy, cfg, np.arange(10))
        grads = model.backward(trace)
        np.testing.assert_allclose(
            grads["filter.w"],
            2 * cfg.l2 * params["filter.w"], atol=1e-12)


def stacked_combine_adjoint(g, saved, params, grads, basis, op):
    """The combine and propagation backward through one whole (K+1, n, c)
    layer-gradient stack, eta_k g + dA_k W^T, summed by Clenshaw over the
    stack: the reference the streamed backward must reproduce bit for bit.
    Puts the filter gradients in ``grads`` and returns the input gradient."""
    z, h, eta = saved.z, saved.h, saved.eta
    gamma, w = params["filter.gamma"], params.get("filter.w")
    d_eta = np.einsum("kic,ic->ki", z, g)
    d_z = eta[:, :, None] * g
    if w is None:
        grads["filter.gamma"] = d_eta.sum(axis=1, keepdims=True)
    else:
        grads["filter.gamma"] = np.matmul(d_eta[:, None, :], h)[:, 0, :]
        d_a = d_eta[:, :, None] * gamma[:, None, :]
        if len(h) < len(eta):
            d_a = d_a.sum(axis=0, keepdims=True)
        d_a *= h
        d_a *= 1.0 - h
        z_a = z[:len(h)]
        grads["filter.w"] = (z_a.reshape(-1, z_a.shape[-1]).T
                             @ d_a.reshape(-1, d_a.shape[-1]))
        d_z[:len(h)] += d_a @ w.T
    order = len(d_z) - 1
    if basis == "bernstein":
        d_z = np.tensordot(
            polyfilter.bernstein_change(order).astype(d_z.dtype), d_z, (1, 0))
    steps = polyfilter.recurrence(basis, order) + [(0.0, 0.0)]
    b1, b2 = d_z[order].copy(), None
    for k in range(order - 1, -1, -1):
        (a, _), (_, c) = steps[k], steps[k + 1]
        b = graph.spmm(op, b1)
        b *= a
        b += d_z[k]
        if c:
            b -= b2 if c == 1.0 else c * b2
        b1, b2 = b, b1
    return b1


def generic_op_mlp(x, params, rate, training, rng, x_grad):
    """The MLP as separate out-of-place numpy ops, forward and backward,
    each result a new array: the reference the in-place forward and the
    closed-form backward must reproduce bit for bit. Returns the logits and
    a function from their gradient to the gradients of the weights, and of
    x when ``x_grad``."""

    def mask(shape):
        if not training or rate <= 0.0:
            return None
        # one whole draw: four little-endian uint16 to each raw uint64
        size = math.prod(shape)
        raw = rng.bit_generator.random_raw(-(-size // 4)).astype("<u8")
        bits = raw.view("<u2")[:size].reshape(shape)
        t = round(rate * 65536)
        keep = (bits >= t).astype(x.dtype)
        return keep * (x.dtype.type(65536) / x.dtype.type(65536 - t))

    x_mask = mask(x.shape)
    x_d = x if x_mask is None else x * x_mask
    pre = x_d @ params["mlp.w1"] + params["mlp.b1"]
    h = np.maximum(pre, 0.0)
    h_mask = mask(h.shape)
    h_d = h if h_mask is None else h * h_mask
    out = h_d @ params["mlp.w2"] + params["mlp.b2"]

    def backward(g):
        grads = {"mlp.b2": g.sum(axis=0), "mlp.w2": h_d.T @ g}
        g_h = g @ params["mlp.w2"].T
        if h_mask is not None:
            g_h = g_h * h_mask
        g_pre = g_h * (pre > 0.0)
        grads["mlp.w1"] = x_d.T @ g_pre
        grads["mlp.b1"] = g_pre.sum(axis=0)
        if x_grad:
            g_x = g_pre @ params["mlp.w1"].T
            grads["x"] = g_x if x_mask is None else g_x * x_mask
        return grads

    return out, backward


def fused_mlp(x, params, rate, training, rng, x_grad):
    """model._mlp and model._mlp_backward in generic_op_mlp's shape."""
    out, saved = model._mlp(x, params, base_config(dp_l=rate), training, rng,
                            x_grad)

    def backward(g):
        grads = {}
        g_x = model._mlp_backward(g, saved, params, grads, x_grad)
        if x_grad:
            grads["x"] = g_x
        return grads

    return out, backward


class TestFusedMLP:
    LABELS = np.array([0, 1, 2, 2, 1, 0, 0, 1, 2])
    INDEX = np.arange(7)
    # the appnp pipelines' ways of reading coefficients: (mode, static)
    COEFFICIENT_READS = [("appnp_like", False), ("appnp_like", True),
                         ("global_only", False)]

    @staticmethod
    def setup(dtype=np.float64, hidden=6, rows=9):
        rng = np.random.default_rng(11)
        params = model.ModelParams({
            "mlp.w1": rng.standard_normal((5, hidden)).astype(dtype),
            "mlp.b1": (rng.standard_normal(hidden) * 0.3).astype(dtype),
            "mlp.w2": rng.standard_normal((hidden, 3)).astype(dtype),
            "mlp.b2": rng.standard_normal(3).astype(dtype)})
        x = rng.standard_normal((rows, 5)).astype(dtype)
        return x, params

    @classmethod
    def run(cls, build, x, params, rate, x_grad, training=True, rng=None):
        """Logits, the mean NLL over INDEX, and its gradients."""
        # a fresh rng with one seed draws the same dropout masks every call
        out, backward = build(x, params, rate, training,
                              rng or np.random.default_rng(4), x_grad)
        value, log_probs = log_softmax_nll(out, cls.LABELS, cls.INDEX)
        grads = backward(log_softmax_nll_grad(out, cls.LABELS, cls.INDEX,
                                              log_probs))
        return out, float(value), grads

    @pytest.mark.parametrize("x_grad", [False, True])
    @pytest.mark.parametrize("rate", [0.0, 0.4])
    def test_gradcheck(self, x_grad, rate, h=1e-6):
        # x constant as in appnp_like, or needing a gradient as in sgc_like
        x, params = self.setup()
        _, _, grads = self.run(fused_mlp, x, params, rate, x_grad)
        targets = {"mlp.w1": params["mlp.w1"], "mlp.b1": params["mlp.b1"],
                   "mlp.w2": params["mlp.w2"], "mlp.b2": params["mlp.b2"]}
        if x_grad:
            targets["x"] = x
        assert grads.keys() == targets.keys()
        for name, arr in targets.items():
            numeric = np.zeros_like(arr)
            for ix in np.ndindex(arr.shape):
                keep = arr[ix]
                arr[ix] = keep + h
                up = self.run(fused_mlp, x, params, rate, x_grad)[1]
                arr[ix] = keep - h
                down = self.run(fused_mlp, x, params, rate, x_grad)[1]
                arr[ix] = keep
                numeric[ix] = (up - down) / (2 * h)
            np.testing.assert_allclose(grads[name], numeric, atol=1e-7,
                                       err_msg=name)

    @pytest.mark.parametrize("x_grad", [False, True])
    @pytest.mark.parametrize("training, rate",
                             [(False, 0.3), (True, 0.0), (True, 0.3)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bit_equal_to_generic_ops(self, dtype, training, rate, x_grad):
        # the larger x spans two whole input-mask blocks and a ragged third,
        # and its hidden array many blocks; both draw what whole masks draw
        for rows in (9, 2 * (model.MASK_BLOCK // 5) + 17):
            x, params = self.setup(dtype, hidden=33, rows=rows)
            want_rng = np.random.default_rng(4)
            got_rng = np.random.default_rng(4)
            want_out, _, want = self.run(generic_op_mlp, x, params, rate,
                                         x_grad, training, want_rng)
            got_out, _, got = self.run(fused_mlp, x, params, rate, x_grad,
                                       training, got_rng)
            assert (got_rng.bit_generator.state
                    == want_rng.bit_generator.state)
            assert got_out.dtype == dtype
            assert got_out.tobytes() == want_out.tobytes()
            assert got.keys() == want.keys()
            for name, g in want.items():
                assert got[name].dtype == dtype, name
                assert got[name].tobytes() == g.tobytes(), name

    def test_training_trace_keeps_only_the_masks_its_backward_reads(self,
                                                                     toy):
        # appnp's constant features need no input mask, and h > 0 stands in
        # for the hidden mask; sgc's input gradient reads its mask. Every
        # kept mask is bool, with its 0-d keep-scale beside it
        for mode in ("appnp_like", "sgc_like"):
            cfg = base_config(mode=mode, dp_l=0.4, dp_p=0.3)
            params = model.init_params(cfg, toy.feature_dim, toy.class_count,
                                       np.random.default_rng(0))
            trace, _ = eval_loss(params, toy, cfg, np.arange(10),
                                 dropout_seed=2)
            if mode == "appnp_like":
                assert trace.mlp.x_mask is None
            else:
                assert trace.mlp.x_mask.dtype == bool
                assert trace.mlp.x_mask.shape == trace.mlp.x_d.shape
            assert trace.dropout.dtype == bool
            assert trace.dropout.shape == trace.logits.shape[:1] + (
                trace.combine.z.shape[2],)
            for scale, rate in ((trace.mlp.scale, cfg.dp_l),
                                (trace.dropout_scale, cfg.dp_p)):
                assert np.ndim(scale) == 0
                assert scale.dtype == np.float64
                t = round(rate * 65536)
                assert scale == 65536 / (65536 - t)

    def test_sgc_training_trace_keeps_bool_masks(self):
        # full-batch sgc keeps the dp_p mask and the dp_l input mask, each
        # (n, F): as bool they are two eighths of the float64 features,
        # where two float masks were twice the features
        ds = planted_partition_dataset(n=2000, classes=4, feature_dim=64)
        cfg = model.TrainConfig(mode="sgc_like", hidden=64, order=2)
        params = model.init_params(cfg, ds.feature_dim, ds.class_count,
                                   np.random.default_rng(0))
        stack = propagate(cfg.basis, model.build_operator(ds.graph, cfg),
                          ds.features, cfg.order)
        trace = model.forward_sgc_like(params, stack, cfg, True,
                                       np.random.default_rng(1))
        masks = (trace.dropout, trace.mlp.x_mask)
        assert all(m.dtype == bool for m in masks)
        assert sum(m.nbytes for m in masks) <= ds.features.nbytes / 4

    def test_appnp_training_step_holds_no_whole_dropout_mask(self,
                                                             traced_peak):
        # at hidden = F = 64 every whole (n, F) or (n, hidden) array is as
        # large as the features. The step (forward, loss, backward) peaked
        # at about 6.9 feature sizes with both masks whole and kept, and is
        # about 4.9 without them; the MLP alone holds x_d and h, plus one
        # quarter-size mask block, where a transient whole mask makes it 3
        ds = planted_partition_dataset(n=2000, classes=4, feature_dim=64)
        cfg = model.TrainConfig(hidden=64, dp_l=0.5)
        params = model.init_params(cfg, ds.feature_dim, ds.class_count,
                                   np.random.default_rng(0))
        op = model.build_operator(ds.graph, cfg)
        rng = np.random.default_rng(1)

        def peak(step):
            return traced_peak(step)[1]

        def train_step():
            trace = model.forward_appnp_like(params, ds.features, op, cfg,
                                             True, rng)
            model.attach_loss(trace, ds.labels, np.arange(0, ds.n, 2),
                              cfg.l2)
            model.backward(trace)

        assert peak(train_step) < 6.0 * ds.features.nbytes
        assert (peak(lambda: model._mlp(ds.features, params, cfg, True, rng))
                < 2.5 * ds.features.nbytes)

    @pytest.mark.parametrize("basis", polyfilter.BASES)
    def test_a_training_run_holds_one_trace(self, traced_peak, basis):
        # each epoch's forward writes its stack, hidden array and dropped
        # input into the run's one workspace. With the previous epoch's
        # arrays held while the next forward allocated its own, a run
        # peaked at 8.3 to 8.6 feature sizes; with one workspace the
        # backward sets it, below 7
        ds = planted_partition_dataset(n=2000, classes=4, feature_dim=64)
        cfg = model.TrainConfig(hidden=64, dp_l=0.5, epochs=6, basis=basis)
        split = make_split(ds.n, "dense", seed=0)
        peak = traced_peak(lambda: model.train(ds, split, cfg))[1]
        assert peak < 7.5 * ds.features.nbytes

    @pytest.mark.parametrize("basis", ["chebyshev", "monomial"])
    def test_a_training_run_streams_its_backward(self, traced_peak, basis):
        # the backward hands the adjoint one layer gradient at a time and
        # writes the hidden gradient over the workspace's hidden array,
        # where the evaluation then runs. With the (K+1, n, c) gradient
        # stack and a fresh hidden gradient, a run at this setting peaked
        # at 6.85 to 6.91 feature sizes; the bound was fixed before
        # measuring the streamed backward
        ds = planted_partition_dataset(n=2000, classes=4, feature_dim=64)
        cfg = model.TrainConfig(hidden=64, dp_l=0.5, epochs=6, basis=basis)
        split = make_split(ds.n, "dense", seed=0)
        peak = traced_peak(lambda: model.train(ds, split, cfg))[1]
        assert peak < 6.2 * ds.features.nbytes

    @staticmethod
    def workspace_step(toy, basis, mode, static, dtype, seed, workspace=None,
                       training=True):
        # one forward, loss and backward, into workspace if given; without
        # training, the forward is training's per-epoch check
        cfg = base_config(basis=basis, mode=mode, static_coefficients=static,
                          precision=dtype, dp_l=0.4, dp_p=0.3)
        params = model.init_params(cfg, toy.feature_dim, toy.class_count,
                                   np.random.default_rng(0))
        trace = model.forward_appnp_like(
            params, toy.features, model.build_operator(toy.graph, cfg), cfg,
            training, np.random.default_rng(seed), workspace=workspace)
        model.attach_loss(trace, toy.labels, np.arange(10), cfg.l2)
        return cfg, trace, model.backward(trace)

    @staticmethod
    def assert_same_bytes(got, want):
        (trace, grads), (fresh, fresh_grads) = got, want
        for a, b in ((trace.logits, fresh.logits),
                     (trace.coefficients, fresh.coefficients)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert grads.keys() == fresh_grads.keys()
        for name, g in fresh_grads.items():
            assert grads[name].tobytes() == g.tobytes(), name

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("mode, static", COEFFICIENT_READS)
    @pytest.mark.parametrize("writer", COEFFICIENT_READS)
    @pytest.mark.parametrize("basis", polyfilter.BASES)
    def test_a_written_workspace_changes_no_byte(self, toy, basis, writer,
                                                 mode, static, dtype):
        # a forward into a workspace that an earlier forward and backward
        # wrote gives the bytes of a forward into a new one, and keeps its
        # stack, hidden array and dropped input there. The writer may read
        # its coefficients another way, so its backward leaves other bytes
        # in the hidden array
        cfg, *want = self.workspace_step(toy, basis, mode, static, dtype, 2)
        workspace = model.appnp_workspace(cfg, toy.n, toy.feature_dim,
                                          toy.class_count, training=True)
        self.workspace_step(toy, basis, *writer, dtype, 1, workspace)
        _, trace, got = self.workspace_step(toy, basis, mode, static, dtype,
                                            2, workspace)
        self.assert_same_bytes((trace, got), want)
        assert trace.combine.z is workspace.stack
        assert trace.mlp.h is workspace.h
        assert trace.mlp.x_d is workspace.x_d

    @pytest.mark.parametrize("other", [dict(order=3), dict(hidden=5),
                                       dict(precision="float32")])
    def test_a_workspace_follows_its_config(self, toy, other):
        # the stack, hidden array and dropped input take cfg's order,
        # widths and precision, and a forward into them matches one with
        # none; x_d exists only for a training forward that dp_l drops
        cfg = base_config(dp_l=0.4, dp_p=0.3, **other)
        workspace = model.appnp_workspace(cfg, toy.n, toy.feature_dim,
                                          toy.class_count, training=True)
        assert workspace.stack.shape == (cfg.order + 1, toy.n,
                                         toy.class_count)
        assert workspace.h.shape == (toy.n, cfg.hidden)
        assert workspace.x_d.shape == (toy.n, toy.feature_dim)
        for arr in workspace:
            assert arr.dtype == cfg.dtype
        params = model.init_params(cfg, toy.feature_dim, toy.class_count,
                                   np.random.default_rng(0))
        op = model.build_operator(toy.graph, cfg)
        want = model.forward_appnp_like(params, toy.features, op, cfg, True,
                                        np.random.default_rng(2))
        got = model.forward_appnp_like(params, toy.features, op, cfg, True,
                                       np.random.default_rng(2), workspace)
        assert got.logits.tobytes() == want.logits.tobytes()
        for training, dp_l in ((False, cfg.dp_l), (True, 0.0)):
            undropped = model.appnp_workspace(
                dataclasses.replace(cfg, dp_l=dp_l), toy.n, toy.feature_dim,
                toy.class_count, training)
            assert undropped.x_d is None

    def test_a_nan_workspace_changes_no_byte(self, toy):
        # a forward reads no byte of its workspace before writing it: a
        # training step, or the per-epoch check, which leaves the training
        # run's dropped input unread
        for training in (True, False):
            cfg, *want = self.workspace_step(toy, "chebyshev", "appnp_like",
                                             False, "float64", 2,
                                             training=training)
            workspace = model.appnp_workspace(cfg, toy.n, toy.feature_dim,
                                              toy.class_count, training=True)
            for arr in workspace:
                arr.fill(np.nan)
            _, *got = self.workspace_step(toy, "chebyshev", "appnp_like",
                                          False, "float64", 2, workspace,
                                          training)
            self.assert_same_bytes(got, want)
            assert got[0].combine.z is workspace.stack
            assert got[0].mlp.h is workspace.h
            assert np.isnan(workspace.x_d).all() != training

    def test_training_never_writes_into_the_features(self, toy):
        # with dp_l the dropped input is the workspace's array, not x
        cfg = base_config(dp_l=0.4, dp_p=0.3, epochs=3)
        dataset = dataclasses.replace(toy, features=toy.features.copy())
        model.train(dataset, make_split(toy.n, "dense", seed=0), cfg)
        assert dataset.features.tobytes() == toy.features.tobytes()

    def test_float32_stays_float32(self):
        x, params = self.setup(np.float32)
        out, _, grads = self.run(fused_mlp, x, params, 0.3, x_grad=True)
        assert out.dtype == np.float32
        assert all(g.dtype == np.float32 for g in grads.values())

    @pytest.mark.parametrize("mode, products", [("appnp_like", 0),
                                                ("sgc_like", 1)])
    def test_constant_features_skip_the_w1_product(self, toy, mode, products):
        # the appnp features need no gradient, so the backward never reads
        # W1^T; sgc_like's input does, once
        reads = []

        class WatchedT(np.ndarray):
            @property
            def T(self):
                reads.append(self.shape)
                return self.view(np.ndarray).T

            def __array_wrap__(self, arr, context=None, return_scalar=False):
                return arr.view(np.ndarray)

        cfg = base_config(mode=mode, dp_l=0.5, dp_p=0.5)
        params = model.init_params(cfg, toy.feature_dim, toy.class_count,
                                   np.random.default_rng(0))
        params["mlp.w1"] = params["mlp.w1"].view(WatchedT)
        op = model.build_operator(toy.graph, cfg)
        rng = np.random.default_rng(1)
        if mode == "sgc_like":
            stack = propagate(cfg.basis, op, toy.features, cfg.order)
            trace = model.forward_sgc_like(params, stack, cfg, True, rng)
        else:
            trace = model.forward_appnp_like(params, toy.features, op, cfg,
                                             True, rng)
        model.attach_loss(trace, toy.labels, np.arange(12), cfg.l2)
        assert reads == []
        grads = model.backward(trace)
        assert len(reads) == products
        assert np.any(grads["mlp.w1"] != 0.0)


class TestDropoutRates:
    # a rate is drawn as t = round(rate * 65536) out of 65536 uint16 levels
    @pytest.mark.parametrize("rate", [1e-9, 2.0 ** -17, 1 - 2.0 ** -17,
                                      0.9999999])
    @pytest.mark.parametrize("name", ["dp_l", "dp_p"])
    def test_rates_that_round_to_no_or_every_drop_are_rejected(self, name,
                                                               rate):
        with pytest.raises(ValueError, match="1/65536") as err:
            model.TrainConfig(**{name: rate})
        assert name in str(err.value)

    @pytest.mark.parametrize("rate, t", [
        (0.0, 0), (2.0 ** -17 + 2.0 ** -40, 1), (0.5, 32768),
        (1 - 2.0 ** -17 - 2.0 ** -40, 65535)])
    def test_rates_inside_the_steps_pass(self, rate, t):
        model.TrainConfig(dp_l=rate, dp_p=rate)
        assert model.dropout_threshold(rate) == t

    def test_rate_zero_draws_nothing(self):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        x = np.ones((5, 4))
        assert model._dropout(x, 0.0, rng, x, keep_mask=True) == (None, None)
        assert rng.bit_generator.state == state

    def test_one_step_drops_only_the_zero_draw(self):
        # t = 1 drops an element exactly when its uint16 draw is 0
        rate = 1 / 65536
        x = np.ones((1 << 16, 4))
        bits = np.random.default_rng(5).bit_generator.random_raw(x.size // 4)
        bits = bits.astype("<u8").view("<u2").reshape(x.shape)
        out = np.empty_like(x)
        mask, scale = model._dropout(x, rate, np.random.default_rng(5), out,
                                     keep_mask=True)
        np.testing.assert_array_equal(mask, bits != 0)
        assert scale == 65536 / 65535
        np.testing.assert_array_equal(out, np.where(bits != 0, scale, 0.0))


class TestLoss:
    def test_confident_correct_logits(self, toy):
        cfg = base_config()
        params = model.init_params(cfg, toy.feature_dim, toy.class_count,
                                   np.random.default_rng(1))
        logits = np.full((toy.n, toy.class_count), -50.0)
        logits[np.arange(toy.n), toy.labels] = 50.0
        value = model.loss(logits, toy.labels, np.arange(toy.n), params, 0.0)
        assert value < 1e-12

    def test_uniform_logits_log_c(self, toy):
        cfg = base_config()
        params = model.init_params(cfg, toy.feature_dim, 7,
                                   np.random.default_rng(1))
        value = model.loss(np.zeros((toy.n, 7)), np.zeros(toy.n, dtype=int),
                           np.arange(toy.n), params, 0.0)
        np.testing.assert_allclose(value, np.log(7.0), atol=1e-12)

    def test_zero_weights_zero_penalty(self, toy):
        cfg = base_config()
        params = model.init_params(cfg, toy.feature_dim, toy.class_count,
                                   np.random.default_rng(1))
        for arr in params.values():
            arr[:] = 0.0
        base = model.loss(np.ones((toy.n, toy.class_count)), toy.labels,
                          np.arange(toy.n), params, 123.0)
        np.testing.assert_allclose(base, np.log(toy.class_count), atol=1e-12)

    def test_empty_index_rejected(self, toy):
        cfg = base_config()
        params = model.init_params(cfg, toy.feature_dim, toy.class_count,
                                   np.random.default_rng(1))
        with pytest.raises(ValueError):
            model.loss(np.zeros((toy.n, 3)), toy.labels, [], params, 0.0)

    def test_numpy_loss_equals_tape_loss_without_penalty(self, toy):
        cfg = base_config(l2=0.0)
        params = model.init_params(cfg, toy.feature_dim, toy.class_count,
                                   np.random.default_rng(1))
        trace, attached = eval_loss(params, toy, cfg, np.arange(12))
        assert model.loss(trace.logits, toy.labels, np.arange(12),
                          params, 0.0) == attached


class TestAdam:
    def test_zero_gradient_keeps_params(self, toy):
        cfg = base_config()
        params = model.init_params(cfg, toy.feature_dim, toy.class_count,
                                   np.random.default_rng(1))
        before = {k: v.copy() for k, v in params.items()}
        grads = {k: np.zeros_like(v) for k, v in params.items()}
        model.adam_step(params, grads, model.AdamState(), 0.1, 0.1)
        for name, arr in params.items():
            np.testing.assert_array_equal(arr, before[name])

    def test_first_step_direction_and_size(self, toy):
        cfg = base_config()
        params = model.init_params(cfg, toy.feature_dim, toy.class_count,
                                   np.random.default_rng(1))
        before = {k: v.copy() for k, v in params.items()}
        grads = {k: np.random.default_rng(7).standard_normal(v.shape)
                 for k, v in params.items()}
        model.adam_step(params, grads, model.AdamState(), 0.05, 0.05)
        for name, arr in params.items():
            delta = arr - before[name]
            g = grads[name]
            expected = -0.05 * g / (np.abs(g) + model.ADAM_EPS)
            np.testing.assert_allclose(delta, expected, atol=1e-9)
            nz = g != 0
            assert np.all(np.sign(delta[nz]) == -np.sign(g[nz]))

    def test_per_group_learning_rates(self, toy):
        cfg = base_config()
        params = model.init_params(cfg, toy.feature_dim, toy.class_count,
                                   np.random.default_rng(1))
        before = {k: v.copy() for k, v in params.items()}
        grads = {k: np.ones_like(v) for k, v in params.items()}
        model.adam_step(params, grads, model.AdamState(), 0.2, 0.01)
        mlp_move = np.max(np.abs(params["mlp.w1"] - before["mlp.w1"]))
        filt_move = np.max(np.abs(params["filter.w"] - before["filter.w"]))
        np.testing.assert_allclose(mlp_move, 0.2, atol=1e-6)
        np.testing.assert_allclose(filt_move, 0.01, atol=1e-8)


class TestTrain:
    def test_deterministic_history(self, toy):
        split = make_split(toy.n, "dense", seed=0)
        cfg = base_config(epochs=20, patience=20, dp_l=0.4, dp_p=0.3)
        a = model.train(toy, split, cfg)
        b = model.train(toy, split, cfg)
        assert a.history == b.history
        for x, y in zip(a.params.values(), b.params.values()):
            np.testing.assert_array_equal(x, y)

    def test_separable_fixture_reaches_full_train_accuracy(self):
        ds = planted_partition_dataset(n=120, classes=3, feature_dim=12,
                                       noise=0.3, seed=8)
        split = make_split(ds.n, "dense", seed=1)
        cfg = base_config(order=3, rank=1, hidden=16, epochs=200, patience=200,
                          lr_l=0.05, lr_p=0.05)
        result = model.train(ds, split, cfg)
        preds, _ = model.predict(result.params, ds, cfg)
        assert accuracy(preds, ds.labels, split.train) == 1.0

    @pytest.mark.parametrize("mode", ["appnp_like", "global_only"])
    def test_appnp_builds_one_stack_per_run(self, toy, mode, monkeypatch):
        # each epoch's training step and per-epoch check propagate into the
        # run's one workspace stack; no forward allocates a stack of its own
        made, outs = [], []

        def workspace(*args, **kwargs):
            made.append(make(*args, **kwargs))
            return made[-1]

        def layers(basis, op, x, order, out=None):
            outs.append(out)
            return build(basis, op, x, order, out)

        make, build = model.appnp_workspace, model.polynomial_layers
        monkeypatch.setattr(model, "appnp_workspace", workspace)
        monkeypatch.setattr(model, "polynomial_layers", layers)
        split = make_split(toy.n, "dense", seed=0)
        result = model.train(toy, split, base_config(mode=mode, epochs=7,
                                                     dp_l=0.2, dp_p=0.2))
        assert len(made) == 1
        assert len(outs) == 2 * result.epochs_run == 14
        assert all(out is made[0].stack for out in outs)

    @pytest.mark.parametrize("mode, batch_size", [
        ("appnp_like", None), ("global_only", None), ("sgc_like", None),
        ("sgc_like", 16)])
    def test_train_reports_what_predict_scores(self, mode, batch_size):
        # the per-epoch check is the training forward without dropout and
        # predict streams its own, yet in float64 both score the best
        # parameters alike
        ds = planted_partition_dataset(n=120, classes=3, feature_dim=12,
                                       noise=1.0, seed=8)
        split = make_split(ds.n, "dense", seed=1)
        cfg = base_config(mode=mode, batch_size=batch_size, epochs=15,
                          dp_l=0.3, dp_p=0.3)
        result = model.train(ds, split, cfg)
        preds = model.predict(result.params, ds, cfg)[0]
        assert (result.best_validation_accuracy
                == result.history[result.best_epoch - 1][3]
                == accuracy(preds, ds.labels, split.validation))

    def test_patience_zero_stops_at_first_plateau(self, toy):
        split = make_split(toy.n, "dense", seed=0)
        cfg = base_config(epochs=500, patience=0)
        result = model.train(toy, split, cfg)
        assert result.epochs_run < 500
        val_accs = [row[3] for row in result.history]
        # every epoch except the last must have improved the best accuracy
        best = -1.0
        for acc in val_accs[:-1]:
            assert acc > best
            best = acc

    def test_divergent_lr_reports_epoch(self):
        # the first update overflows the weights, so the epoch's evaluation
        # forward is the first to see non-finite logits; it names epoch 1
        ds = planted_partition_dataset()
        split = make_split(ds.n, "dense", seed=0)
        for mode in ("appnp_like", "sgc_like"):
            cfg = base_config(mode=mode, epochs=30, lr_l=1e300, lr_p=1e300)
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(model.DivergenceError) as info:
                model.train(ds, split, cfg)
            assert info.value.epoch == 1, mode
            assert str(info.value) == "training diverged (epoch 1)", mode

    @pytest.mark.parametrize("empty", ["train", "validation"])
    def test_empty_train_or_validation_set_rejected(self, empty):
        ds = planted_partition_dataset()
        sets = {"train": np.arange(150), "validation": np.arange(150, 200)}
        sets[empty] = []
        split = Split(test=np.arange(200, ds.n), seed=0, mode="custom", **sets)
        with pytest.raises(ValueError, match=f"the {empty} set is empty"):
            model.train(ds, split, base_config(epochs=5))

    def test_inductive_training_runs_on_observed_subgraph(self):
        ds = planted_partition_dataset(n=80, classes=2, feature_dim=6, seed=3)
        split = make_split(ds.n, "inductive", seed=4)
        cfg = base_config(order=2, rank=1, hidden=8, epochs=30, patience=30)
        result = model.train(ds, split, cfg)
        preds, logits = model.predict(result.params, ds, cfg)
        assert logits.shape == (ds.n, ds.class_count)
        assert preds.size == ds.n
        # unobserved nodes still receive predictions
        assert np.all(preds[split.unobserved_test] >= 0)


class TestPredict:
    def test_argmax_tie_breaks_low_index(self):
        logits = np.array([[2.0, 2.0, 1.0]])
        assert np.argmax(logits, axis=1)[0] == 0

    def test_transductive_train_indices_match_labels(self):
        ds = planted_partition_dataset(n=120, classes=3, feature_dim=12,
                                       noise=0.3, seed=8)
        split = make_split(ds.n, "dense", seed=1)
        cfg = base_config(order=3, rank=1, hidden=16, epochs=200, patience=200,
                          lr_l=0.05, lr_p=0.05)
        result = model.train(ds, split, cfg)
        preds, _ = model.predict(result.params, ds, cfg, index_set=split.train)
        np.testing.assert_array_equal(preds, ds.labels[split.train])

    def test_isolated_unobserved_node_uses_own_features(self):
        # an isolated node's Laplacian row is zero: only the order-0 path
        # contributes, so its logits depend on its features alone
        from nodespec.data import Dataset
        ds = planted_partition_dataset(n=40, classes=2, feature_dim=6, seed=6)
        cfg = base_config(order=3, rank=1, hidden=8, epochs=20, patience=20)
        split = make_split(ds.n, "dense", seed=2)
        result = model.train(ds, split, cfg)

        extra_feat = np.vstack([ds.features, np.ones((1, 6))])
        extra_labels = np.concatenate([ds.labels, [0]])
        edges = [(i, int(j)) for i in range(ds.n)
                 for j in ds.graph.neighbors(i) if i < j]
        grown = Dataset(graph=build_graph(edges, ds.n + 1),
                        features=extra_feat, labels=extra_labels,
                        class_count=2)
        _, logits = model.predict(result.params, grown, cfg)

        lonely = Dataset(graph=build_graph([], 1),
                         features=np.ones((1, 6)),
                         labels=np.array([0]), class_count=2)
        _, solo_logits = model.predict(result.params, lonely, cfg)
        np.testing.assert_allclose(logits[-1], solo_logits[0], atol=1e-12)


class TestPermutationEquivariance:
    def test_logits_rows_permute(self):
        ds = planted_partition_dataset(n=30, classes=3, feature_dim=5, seed=7)
        cfg = base_config(order=3, rank=2, hidden=6)
        params = model.init_params(cfg, ds.feature_dim, ds.class_count,
                                   np.random.default_rng(11))
        op = model.build_operator(ds.graph, cfg)
        base = model.forward_appnp_like(params, ds.features, op, cfg).logits

        perm = np.random.default_rng(12).permutation(ds.n)
        edges = [(int(perm[i]), int(perm[j])) for i in range(ds.n)
                 for j in ds.graph.neighbors(i) if i < j]
        g2 = build_graph(edges, ds.n)
        feats2 = np.empty_like(ds.features)
        feats2[perm] = ds.features
        op2 = model.build_operator(g2, cfg)
        permuted = model.forward_appnp_like(params, feats2, op2, cfg).logits
        np.testing.assert_allclose(permuted[perm], base, atol=1e-10)


class TestLocalizationOfLogits:
    def test_feature_perturbation_respects_hops(self):
        ds = planted_partition_dataset(n=24, classes=2, feature_dim=4, seed=9)
        g = path_graph(24)
        from nodespec.data import Dataset
        ds = Dataset(graph=g, features=ds.features, labels=ds.labels,
                     class_count=2)
        cfg = base_config(order=2, rank=1, hidden=6)
        params = model.init_params(cfg, 4, 2, np.random.default_rng(13))
        op = model.build_operator(g, cfg)
        base = model.forward_appnp_like(params, ds.features, op, cfg).logits
        bumped = ds.features.copy()
        bumped[0] += 3.0
        moved = model.forward_appnp_like(params, bumped, op, cfg).logits
        changed = np.abs(moved - base).max(axis=1) > 0
        dist = hop_distances(g, 0)
        assert not np.any(changed[dist > cfg.order])
        assert changed[0]


class TestParameterCount:
    def test_reference_value(self):
        cfg = base_config(order=10, rank=1, mode="appnp_like")
        counts = model.parameter_count(cfg, feature_dim=100, class_count=7)
        assert counts["filter"] == 7 + 11

    def test_independent_of_node_count(self):
        cfg = base_config(order=6, rank=3)
        counts = [model.parameter_count(cfg, feature_dim=64, class_count=5)
                  for _ in (10, 1000, 100000)]
        assert counts[0] == counts[1] == counts[2]

    def test_matches_actual_arrays(self):
        for mode in ("appnp_like", "sgc_like", "global_only"):
            cfg = base_config(order=5, rank=2, hidden=9, mode=mode)
            params = model.init_params(cfg, 11, 4, np.random.default_rng(0))
            counts = model.parameter_count(cfg, 11, 4)
            total = sum(a.size for a in params.values())
            assert counts["total"] == total

    def test_global_only_count(self):
        cfg = base_config(order=10, mode="global_only")
        assert model.parameter_count(cfg, 8, 3)["filter"] == 11


@pytest.mark.parametrize("precision", ["float64", "float32"])
@pytest.mark.parametrize("feature_dim, class_count", [(11, 4), (3, 7)])
@pytest.mark.parametrize("mode", model.MODES)
def test_param_shapes_is_the_one_parameter_table(tmp_path, mode, feature_dim,
                                                 class_count, precision):
    # init_params, parameter_count and a checkpoint header all follow it
    cfg = base_config(order=5, rank=2, hidden=9, mode=mode,
                      precision=precision)
    shapes = model.param_shapes(cfg, feature_dim, class_count)
    filters = (["filter.gamma"] if mode == "global_only"
               else ["filter.w", "filter.gamma"])
    assert list(shapes) == ["mlp.w1", "mlp.b1", "mlp.w2", "mlp.b2", *filters]

    params = model.init_params(cfg, feature_dim, class_count,
                               np.random.default_rng(0))
    assert isinstance(params, model.ModelParams)
    assert [(name, a.shape, a.dtype) for name, a in params.items()] == \
        [(name, shape, np.dtype(cfg.dtype)) for name, shape in shapes.items()]

    sizes = {name: math.prod(shape) for name, shape in shapes.items()}
    mlp = sum(size for name, size in sizes.items() if name.startswith("mlp."))
    assert model.parameter_count(cfg, feature_dim, class_count) == {
        "filter": sum(sizes.values()) - mlp, "mlp": mlp,
        "total": sum(sizes.values())}

    path = tmp_path / "model.ckpt"
    model.save_checkpoint(path, params, cfg)
    raw = path.read_bytes()
    start = len(model.CHECKPOINT_MAGIC)
    (length,) = struct.unpack("<I", raw[start:start + 4])
    header = json.loads(raw[start + 4:start + 4 + length])
    assert header["arrays"] == [[name, list(shape)]
                                for name, shape in shapes.items()]


def test_params_copy_copies_the_arrays(toy):
    cfg = base_config()
    params = model.init_params(cfg, toy.feature_dim, toy.class_count,
                               np.random.default_rng(0))
    copied = params.copy()
    assert isinstance(copied, model.ModelParams)
    assert list(copied) == list(params)
    for name, arr in params.items():
        assert copied[name] is not arr
        np.testing.assert_array_equal(copied[name], arr)
    copied["filter.w"] += 1.0
    assert not np.any(copied["filter.w"] == params["filter.w"])


class TestCheckpoint:
    def test_roundtrip_all_modes(self, tmp_path, toy):
        for mode in ("appnp_like", "sgc_like", "global_only"):
            cfg = base_config(mode=mode)
            params = model.init_params(cfg, toy.feature_dim, toy.class_count,
                                       np.random.default_rng(5))
            path = tmp_path / f"{mode}.ckpt"
            model.save_checkpoint(path, params, cfg)
            loaded, loaded_cfg = model.load_checkpoint(path)
            assert loaded_cfg == cfg
            for a, b in zip(params.values(),
                            loaded.values()):
                np.testing.assert_array_equal(a, b)
                # each array is its own, not a view of the file's buffer
                assert b.flags.writeable and b.flags.owndata

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(ValueError, match="magic"):
            model.load_checkpoint(path)

    @pytest.fixture
    def saved(self, tmp_path, toy):
        cfg = base_config()
        params = model.init_params(cfg, toy.feature_dim, toy.class_count,
                                   np.random.default_rng(5))
        path = tmp_path / "model.ckpt"
        model.save_checkpoint(path, params, cfg)
        return path

    def test_trailing_bytes_rejected(self, saved):
        saved.write_bytes(saved.read_bytes() + b"\0")
        with pytest.raises(ValueError, match=re.escape(f"{saved}: trailing bytes")):
            model.load_checkpoint(saved)

    def test_truncated_file_names_the_array(self, saved):
        saved.write_bytes(saved.read_bytes()[:-12])
        with pytest.raises(ValueError,
                           match=re.escape(f"{saved}: truncated checkpoint: "
                                           "array 'filter.gamma' needs")):
            model.load_checkpoint(saved)

    @staticmethod
    def rewrite_header(path, edit):
        """Apply ``edit`` to the JSON header of the checkpoint at path."""
        raw = path.read_bytes()
        start = len(model.CHECKPOINT_MAGIC)
        (length,) = struct.unpack("<I", raw[start:start + 4])
        header = json.loads(raw[start + 4:start + 4 + length])
        edit(header)
        blob = json.dumps(header).encode()
        path.write_bytes(raw[:start] + struct.pack("<I", len(blob)) + blob
                         + raw[start + 4 + length:])
        return header

    def test_negative_dimension_names_the_array(self, saved):
        # (-3, hidden) is mlp.w1's shape at feature width -3, so only the
        # sign can reject it before the read asks for -3 * hidden * 8 bytes
        self.rewrite_header(saved, lambda h: h["arrays"][0][1].__setitem__(
            0, -3))
        with pytest.raises(ValueError,
                           match=re.escape(f"{saved}: array 'mlp.w1' has a "
                                           "negative dimension")):
            model.load_checkpoint(saved)

    def test_a_claim_beyond_the_file_is_not_read(self, saved, traced_peak):
        # the file is read in chunks until its end; a read that asked for all
        # of mlp.w1's 10^10 rows at once raised MemoryError
        header = self.rewrite_header(
            saved, lambda h: h["arrays"][0][1].__setitem__(0, 10 ** 10))
        size = 10 ** 10 * header["arrays"][0][1][1] * 8

        def load():
            with pytest.raises(ValueError, match=re.escape(
                    f"{saved}: truncated checkpoint: array 'mlp.w1' needs "
                    f"{size} bytes, ")):
                model.load_checkpoint(saved)
        _, peak = traced_peak(load)
        assert peak < 4 * model.CHECKPOINT_READ_CHUNK

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_a_piped_checkpoint_loads(self, saved, tmp_path):
        # a pipe has no size, and is read in chunks as it comes
        fifo = tmp_path / "piped.ckpt"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes,
                                  args=(saved.read_bytes(),))
        writer.start()
        try:
            piped, cfg = model.load_checkpoint(fifo)
        finally:
            writer.join(timeout=30)
        assert not writer.is_alive()
        want, want_cfg = model.load_checkpoint(saved)
        assert cfg == want_cfg
        for name, arr in want.items():
            assert piped[name].tobytes() == arr.tobytes(), name

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_a_piped_claim_beyond_the_data_is_read_in_chunks(
            self, saved, tmp_path, traced_peak):
        # 10^10 rows of mlp.w1 in a pipe: its read asked for all of them at
        # once and raised MemoryError; read in chunks, it finds the end
        header = self.rewrite_header(
            saved, lambda h: h["arrays"][0][1].__setitem__(0, 10 ** 10))
        size = 10 ** 10 * header["arrays"][0][1][1] * 8
        fifo = tmp_path / "piped.ckpt"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes,
                                  args=(saved.read_bytes(),))
        writer.start()

        def load():
            with pytest.raises(ValueError, match=re.escape(
                    f"{fifo}: truncated checkpoint: array 'mlp.w1' needs "
                    f"{size} bytes, ")):
                model.load_checkpoint(fifo)
        try:
            _, peak = traced_peak(load)
        finally:
            writer.join(timeout=30)
        assert not writer.is_alive()
        assert peak < 4 * model.CHECKPOINT_READ_CHUNK

    @pytest.mark.parametrize("blob", [b"\xff{", b"{not json"])
    def test_a_header_that_is_not_json_names_the_file(self, saved, blob):
        # json.loads raised its own ValueError, which named no file
        start = len(model.CHECKPOINT_MAGIC)
        saved.write_bytes(saved.read_bytes()[:start]
                          + struct.pack("<I", len(blob)) + blob)
        with pytest.raises(ValueError,
                           match=re.escape(f"{saved}: the checkpoint header "
                                           "is not a JSON object")):
            model.load_checkpoint(saved)

    def test_byte_identical_saves(self, tmp_path, toy):
        cfg = base_config()
        params = model.init_params(cfg, toy.feature_dim, toy.class_count,
                                   np.random.default_rng(5))
        model.save_checkpoint(tmp_path / "a.ckpt", params, cfg)
        model.save_checkpoint(tmp_path / "b.ckpt", params, cfg)
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


class TestMixedPatternSanity:
    def test_both_filter_modes_learn_mixed_regions(self):
        # one homophilic and one heterophilic region in the same graph; both
        # the per-node and the global filter must solve it at K=8 (with two
        # classes a single response can pass both frequency extremes, so no
        # direction is asserted here; that comparison belongs to the real
        # heterophilic benchmarks)
        rng = np.random.default_rng(1)
        n, classes = 400, 2
        labels = rng.integers(0, classes, size=n)
        region = np.arange(n) < n // 2
        ii, jj = np.triu_indices(n, k=1)
        same_label = labels[ii] == labels[jj]
        same_region = region[ii] == region[jj]
        p = np.full(ii.size, 0.002)
        homo = same_region & region[ii]
        hete = same_region & ~region[ii]
        p[homo] = np.where(same_label[homo], 0.08, 0.008)
        p[hete] = np.where(same_label[hete], 0.008, 0.08)
        keep = rng.random(ii.size) < p
        from nodespec.data import Dataset
        protos = rng.standard_normal((classes, 12))
        ds = Dataset(graph=build_graph(list(zip(ii[keep], jj[keep])), n),
                     features=protos[labels]
                     + 3.0 * rng.standard_normal((n, 12)),
                     labels=labels, class_count=classes)

        for mode in ("appnp_like", "global_only"):
            accs = []
            for seed in range(3):
                cfg = model.TrainConfig(order=8, rank=2, hidden=32, mode=mode,
                                        seed=seed, lr_l=0.05, lr_p=0.01,
                                        dp_l=0.5, dp_p=0.3, l2=5e-4,
                                        epochs=400, patience=100)
                split = make_split(ds.n, "dense", seed=seed)
                result = model.train(ds, split, cfg)
                preds, _ = model.predict(result.params, ds, cfg)
                accs.append(accuracy(preds, ds.labels, split.test))
            assert np.mean(accs) >= 0.95, (mode, accs)


class TestPrecisionModes:
    def test_float32_sgc_stack_stays_float32(self, toy):
        stacks = {precision: model._operator_and_stack(
            toy, base_config(mode="sgc_like", precision=precision))[1]
            for precision in ("float32", "float64")}
        assert stacks["float32"].layers.dtype == np.float32
        assert 2 * stacks["float32"].layers.nbytes == \
            stacks["float64"].layers.nbytes

    def test_float32_trains_and_predicts(self, toy):
        split = make_split(toy.n, "dense", seed=0)
        cfg = base_config(epochs=10, patience=10, precision="float32")
        result = model.train(toy, split, cfg)
        preds, logits = model.predict(result.params, toy, cfg)
        assert logits.dtype == np.float32
        assert np.all(np.isfinite(logits))

    def test_float32_close_to_float64(self, toy):
        cfg64 = base_config(epochs=5, patience=5)
        cfg32 = base_config(epochs=5, patience=5, precision="float32")
        split = make_split(toy.n, "dense", seed=0)
        r64 = model.train(toy, split, cfg64)
        r32 = model.train(toy, split, cfg32)
        _, l64 = model.predict(r64.params, toy, cfg64)
        _, l32 = model.predict(r32.params, toy, cfg32)
        np.testing.assert_allclose(l32, l64, atol=2e-2)
