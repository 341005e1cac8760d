import numpy as np
import pytest

from nodespec import autodiff
from nodespec.autodiff import (Tensor, parameter, polynomial_adjoint,
                               propagation, softmax_cross_entropy)
from nodespec.graph import (build_graph, normalized_laplacian,
                            scaled_laplacian, spmm)
from nodespec.polyfilter import BASES, propagate
from nodespec.synthetic import er_graph


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


def assert_grad_matches(build, param, atol=1e-7):
    value = build()
    value.backward()
    analytic = param.grad.copy()
    numeric = numeric_grad(lambda: float(build().data), param.data)
    np.testing.assert_allclose(analytic, numeric, atol=atol)


class TestOps:
    def test_matmul_grad(self, rng):
        a = parameter(rng.standard_normal((4, 3)))
        b = Tensor(rng.standard_normal((3, 2)))
        assert_grad_matches(lambda: (a @ b).sum_squares(), a)

    def test_add_broadcast_bias_grad(self, rng):
        x = Tensor(rng.standard_normal((5, 3)))
        bias = parameter(rng.standard_normal(3))
        assert_grad_matches(lambda: (x + bias).sum_squares(), bias)

    def test_mul_column_broadcast_grad(self, rng):
        x = Tensor(rng.standard_normal((6, 4)))
        col = parameter(rng.standard_normal((6, 1)))
        assert_grad_matches(lambda: (x * col).sum_squares(), col)

    def test_scalar_scale(self, rng):
        a = parameter(rng.standard_normal((3, 3)))
        assert_grad_matches(lambda: (a * 2.0).sum_squares(), a)

    def test_sigmoid_saturation_is_stable(self):
        out = autodiff.sigmoid(np.array([-800.0, 800.0]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-300)

    def test_relu_grad(self, rng):
        a = parameter(rng.standard_normal((5, 2)) + 0.3)
        assert_grad_matches(lambda: a.relu().sum_squares(), a)

    @pytest.mark.parametrize("basis", BASES)
    def test_propagation_grad(self, rng, basis):
        # one node for the whole stack: the numpy layers forward, the
        # adjoint recursion backward
        lap = normalized_laplacian(er_graph(8, 0.4, seed=3))
        op = scaled_laplacian(lap, 1.8) if basis == "chebyshev" else lap
        x = parameter(rng.standard_normal((8, 2)))
        weights = Tensor(rng.standard_normal((5, 8, 2)))
        stack = propagation(basis, op, x, 4)
        assert stack.shape == (5, 8, 2)
        np.testing.assert_array_equal(stack.data,
                                      propagate(basis, op, x.data, 4).layers)
        assert_grad_matches(
            lambda: (propagation(basis, op, x, 4) * weights).sum_squares(), x)

    @pytest.mark.parametrize("basis", BASES)
    @pytest.mark.parametrize("order", [0, 1, 2, 7])
    def test_adjoint_is_the_transpose_in_k_products(self, basis, order,
                                                    monkeypatch, rng):
        # sum_k <G_k, p_k(op) x> = <sum_k p_k(op) G_k, x>, in K products
        lap = normalized_laplacian(
            build_graph([(0, 1), (1, 2), (2, 3), (1, 4)], 9))
        op = scaled_laplacian(lap, 1.8) if basis == "chebyshev" else lap
        x = rng.standard_normal((9, 3))
        grads = rng.standard_normal((order + 1, 9, 3))
        layers = propagate(basis, op, x, order).layers
        calls = []

        def counting_spmm(op, y):
            calls.append(op)
            return spmm(op, y)

        monkeypatch.setattr(autodiff, "spmm", counting_spmm)
        adjoint = polynomial_adjoint(basis, op, grads)
        assert len(calls) == order
        np.testing.assert_allclose(np.sum(adjoint * x), np.sum(grads * layers),
                                   rtol=1e-12)

    def test_propagation_keeps_float32(self, rng):
        lap = normalized_laplacian(er_graph(6, 0.5, seed=4))
        x = parameter(rng.standard_normal((6, 2)).astype(np.float32))
        stack = propagation("bernstein", lap, x, 3)
        stack.sum_squares().backward()
        assert stack.data.dtype == np.float32 and x.grad.dtype == np.float32

    def test_cross_entropy_value_and_grad(self, rng):
        logits = parameter(rng.standard_normal((6, 3)))
        labels = np.array([0, 1, 2, 0, 1, 2])
        idx = np.array([0, 2, 4, 5])
        assert_grad_matches(
            lambda: softmax_cross_entropy(logits, labels, idx), logits)

    def test_cross_entropy_uniform_logits(self):
        logits = Tensor(np.zeros((3, 7)))
        value = softmax_cross_entropy(logits, np.zeros(3, dtype=int),
                                      np.arange(3))
        np.testing.assert_allclose(float(value.data), np.log(7.0), atol=1e-12)

    def test_cross_entropy_empty_index(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(Tensor(np.zeros((2, 2))), [0, 1], [])


class TestBackward:
    def test_grad_accumulates_over_reuse(self, rng):
        a = parameter(rng.standard_normal((3, 3)))
        out = (a @ a).sum_squares()
        out.backward()
        numeric = numeric_grad(
            lambda: float((a @ a).sum_squares().data), a.data)
        np.testing.assert_allclose(a.grad, numeric, atol=1e-6)

    def test_zero_seed_gives_zero_grads(self, rng):
        a = parameter(rng.standard_normal((2, 2)))
        out = a.sum_squares()
        out.backward(seed=0.0)
        np.testing.assert_array_equal(a.grad, np.zeros((2, 2)))

    def test_seed_scales_linearly(self, rng):
        a = parameter(rng.standard_normal((2, 2)))
        out = a.sum_squares()
        out.backward(seed=1.0)
        g1 = a.grad.copy()
        a.grad = None
        a.sum_squares().backward(seed=2.5)
        np.testing.assert_allclose(a.grad, 2.5 * g1)

    def test_backward_requires_scalar(self, rng):
        a = parameter(rng.standard_normal((2, 2)))
        with pytest.raises(ValueError):
            (a * 2.0).backward()

    def test_constants_get_no_grad(self, rng):
        a = parameter(rng.standard_normal((2, 2)))
        c = Tensor(rng.standard_normal((2, 2)))
        (a * c).sum_squares().backward()
        assert c.grad is None
        assert a.grad is not None
