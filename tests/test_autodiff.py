import numpy as np
import pytest

from nodespec.autodiff import (Tensor, mix, parameter, softmax_cross_entropy,
                               sparse_matmul)
from nodespec.graph import normalized_laplacian
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

    def test_sub_and_scalar_scale(self, rng):
        a = parameter(rng.standard_normal((3, 3)))
        b = Tensor(rng.standard_normal((3, 3)))
        assert_grad_matches(lambda: (a * 2.0 - b).sum_squares(), a)

    def test_sigmoid_grad(self, rng):
        a = parameter(rng.standard_normal((4, 4)))
        assert_grad_matches(lambda: a.sigmoid().sum_squares(), a)

    def test_sigmoid_saturation_is_stable(self):
        t = Tensor(np.array([-800.0, 800.0]))
        out = t.sigmoid()
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-300)

    def test_relu_grad(self, rng):
        a = parameter(rng.standard_normal((5, 2)) + 0.3)
        assert_grad_matches(lambda: a.relu().sum_squares(), a)

    def test_slice_transpose_grad(self, rng):
        a = parameter(rng.standard_normal((5, 3)))
        x = Tensor(rng.standard_normal((4, 3)))
        assert_grad_matches(
            lambda: (x @ a.select(slice(1, 2)).transpose()).sum_squares(), a)

    def test_sparse_matmul_grad(self, rng):
        g = er_graph(8, 0.4, seed=3)
        op = normalized_laplacian(g)
        x = parameter(rng.standard_normal((8, 2)))
        assert_grad_matches(lambda: sparse_matmul(op, x).sum_squares(), x)

    def test_mix_value_and_grad(self, rng):
        matrix = rng.standard_normal((3, 3))
        a = parameter(rng.standard_normal((4, 2)))
        b = Tensor(rng.standard_normal((4, 2)))
        c = parameter(rng.standard_normal((4, 2)))
        out = mix(matrix, [a, b, c])
        for j in range(3):
            np.testing.assert_allclose(
                out[j].data, sum(matrix[k, j] * t.data
                                 for k, t in enumerate((a, b, c))), atol=1e-14)

        def build():
            first, _, last = mix(matrix, [a, b, c])
            return (first * last).sum_squares()

        assert_grad_matches(build, a)
        c.grad = None
        assert_grad_matches(build, c)

    def test_mix_keeps_float32(self, rng):
        x = Tensor(rng.standard_normal((3, 2)).astype(np.float32))
        assert mix(np.eye(1), [x])[0].data.dtype == np.float32

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
        out = (a @ a.transpose()).sum_squares()
        out.backward()
        numeric = numeric_grad(
            lambda: float((a @ a.transpose()).sum_squares().data), a.data)
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
