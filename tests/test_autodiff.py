import numpy as np
import pytest

from nodespec import autodiff
from nodespec.autodiff import (log_softmax_nll, log_softmax_nll_grad,
                               polynomial_adjoint)
from nodespec.graph import (build_graph, chebyshev_operator,
                            normalized_laplacian, spmm)
from nodespec.polyfilter import BASES, propagate


def numeric_grad(fn, arr, h=1e-6):
    out = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    while not it.finished:
        ix = it.multi_index
        keep = arr[ix]
        arr[ix] = keep + h
        fp = fn()
        arr[ix] = keep - h
        fm = fn()
        arr[ix] = keep
        out[ix] = (fp - fm) / (2 * h)
        it.iternext()
    return out


class TestOps:
    def test_sigmoid_saturation_is_stable(self):
        out = autodiff.sigmoid(np.array([-800.0, 800.0]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-300)

    @pytest.mark.parametrize("basis", BASES)
    @pytest.mark.parametrize("order, dtype", [
        (0, np.float64), (1, np.float64), (2, np.float64), (7, np.float64),
        (7, np.float32)], ids=["0", "1", "2", "7", "7-float32"])
    def test_adjoint_is_the_transpose_in_k_products(self, basis, order, dtype,
                                                    monkeypatch, rng):
        # sum_k <G_k, p_k(op) x> = <sum_k p_k(op) G_k, x>, in K products,
        # in the dtype of the layer gradients
        g = build_graph([(0, 1), (1, 2), (2, 3), (1, 4)], 9)
        op = {"monomial": normalized_laplacian(g),
              "chebyshev": chebyshev_operator(g, 1.8),
              "bernstein": chebyshev_operator(g, 2.0)}[basis]
        x = rng.standard_normal((9, 3)).astype(dtype)
        grads = rng.standard_normal((order + 1, 9, 3)).astype(dtype)
        layers = propagate(basis, op, x, order).layers
        calls = []

        def counting_spmm(op, y):
            calls.append(op)
            return spmm(op, y)

        asked = []

        def grad(k):
            asked.append(k)
            return grads[k].copy()

        monkeypatch.setattr(autodiff, "spmm", counting_spmm)
        adjoint = polynomial_adjoint(basis, op, grad, order)
        assert len(calls) == order
        # each layer once, and from K down unless bernstein mixes them all
        assert sorted(asked) == list(range(order + 1))
        if basis != "bernstein":
            assert asked == list(range(order, -1, -1))
        assert adjoint.dtype == layers.dtype == dtype
        pairs = grads.astype(np.float64) * layers
        atol = 0.0 if dtype == np.float64 else 1e-5 * np.abs(pairs).sum()
        np.testing.assert_allclose(np.sum(adjoint.astype(np.float64) * x),
                                   np.sum(pairs), rtol=1e-12, atol=atol)

    @pytest.mark.parametrize("basis", BASES)
    def test_order_zero_adjoint_is_a_fresh_array(self, basis, rng):
        g = build_graph([(0, 1), (1, 2)], 3)
        op = (normalized_laplacian(g) if basis == "monomial"
              else chebyshev_operator(g, 2.0))
        grads = rng.standard_normal((1, 3, 2))
        before = grads.copy()
        adjoint = polynomial_adjoint(basis, op, lambda k: grads[k].copy(), 0)
        np.testing.assert_array_equal(adjoint, before[0])
        adjoint[...] = 7.0
        np.testing.assert_array_equal(grads, before)

    def test_cross_entropy_value_and_grad(self, rng):
        logits = rng.standard_normal((6, 3))
        labels = np.array([0, 1, 2, 0, 1, 2])
        idx = np.array([0, 2, 4, 5])
        _, log_probs = log_softmax_nll(logits, labels, idx)
        analytic = log_softmax_nll_grad(logits, labels, idx, log_probs)
        numeric = numeric_grad(
            lambda: float(log_softmax_nll(logits, labels, idx)[0]), logits)
        np.testing.assert_allclose(analytic, numeric, atol=1e-7)
        np.testing.assert_array_equal(analytic[[1, 3]], 0.0)

    def test_cross_entropy_uniform_logits(self):
        value, _ = log_softmax_nll(np.zeros((3, 7)), np.zeros(3, dtype=int),
                                   np.arange(3))
        np.testing.assert_allclose(float(value), np.log(7.0), atol=1e-12)

    def test_cross_entropy_empty_index(self):
        with pytest.raises(ValueError):
            log_softmax_nll(np.zeros((2, 2)), [0, 1], [])
