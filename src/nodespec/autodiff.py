"""Minimal reverse-mode differentiation over numpy arrays.

A Tensor records the op that produced it and a closure that pushes gradients
to its parents; calling backward() on a scalar output replays the tape in
reverse topological order. The generic ops are the few the loss needs:
broadcast sums, scaling by a python number, squared norms, and a fused
softmax cross-entropy. Everything else is a fused node with a closed-form
backward. ``sigmoid`` is a plain array function, for the model's fused
combine node.

The propagation is one node for the whole (K+1, n, c) stack of layers
p_k(op) x: its forward is ``polyfilter.polynomial_layers`` (K sparse
products), and its backward the adjoint recursion ``polynomial_adjoint``,
sum_k p_k(op) G_k for the layer gradients G_k, in K more (Horner for
monomial, Clenshaw for Chebyshev and Bernstein). No per-order nodes exist.
The model's other two fused nodes, the per-node combine of that stack and
the in-place MLP, live in ``model``.
"""

import numpy as np

from .graph import SparseOperator, spmm
from .polyfilter import bernstein_change, polynomial_layers


def _reduce_to_shape(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad=False, parents=(), backward_fn=None):
        self.data = np.asarray(data)
        if self.data.dtype.kind != "f":
            self.data = self.data.astype(np.float64)
        self.grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._parents = parents
        self._backward_fn = backward_fn

    @property
    def shape(self):
        return self.data.shape

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.array(grad, dtype=self.data.dtype)
        else:
            self.grad += grad

    def backward(self, seed=1.0) -> None:
        """Reverse pass from this (scalar) tensor with the given seed."""
        if self.data.ndim != 0 and self.data.size != 1:
            raise ValueError("backward() expects a scalar output")
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad:
                    stack.append((parent, False))
        self.grad = np.asarray(float(seed) * np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data + other.data, parents=(self, other))

        def push(g):
            self._accumulate(_reduce_to_shape(g, self.data.shape))
            other._accumulate(_reduce_to_shape(g, other.data.shape))

        out._backward_fn = push
        return out

    def __mul__(self, scalar):
        # a python number keeps the array dtype; a wrapped 0-d array would
        # promote float32 operands to float64
        if not isinstance(scalar, (int, float)):
            raise TypeError("a Tensor scales only by a python number")
        scalar = float(scalar)
        out = Tensor(self.data * scalar, parents=(self,))

        def push(g):
            self._accumulate(g * scalar)

        out._backward_fn = push
        return out

    __radd__ = __add__
    __rmul__ = __mul__

    def sum_squares(self):
        out = Tensor(np.sum(self.data * self.data), parents=(self,))

        def push(g):
            self._accumulate(2.0 * float(g) * self.data)

        out._backward_fn = push
        return out


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def parameter(data) -> Tensor:
    return Tensor(np.array(data), requires_grad=True)


def sigmoid(x: np.ndarray, out=None) -> np.ndarray:
    """Logistic function with one exp and no branch: e = exp(-|x|) keeps the
    argument non-positive, and the result is 1 / (1 + e) where x >= 0 and
    e / (1 + e) elsewhere. ``out`` may be x itself."""
    positive = x >= 0
    e = np.abs(x, out=out)
    np.negative(e, out=e)
    np.exp(e, out=e)
    denom = e + 1.0
    # e <= 1 = positive where x >= 0, and positive = 0 <= e elsewhere
    np.maximum(e, positive, out=e)
    return np.divide(e, denom, out=e)


def polynomial_adjoint(basis: str, op: SparseOperator,
                       grads: np.ndarray) -> np.ndarray:
    """sum_k p_k(op) @ grads[k]: the gradient with respect to x of
    ``polynomial_layers(basis, op, x, K)`` given the gradients of its K+1
    layers, since op is symmetric. K ``spmm``: Horner for monomial, Clenshaw
    for chebyshev, and for bernstein Clenshaw after the basis change."""
    order = grads.shape[0] - 1
    if order == 0:
        return grads[0].copy()
    if basis == "monomial":
        acc = grads[order]
        for k in range(order - 1, -1, -1):
            acc = spmm(op, acc)
            acc += grads[k]
        return acc
    if basis == "bernstein":
        grads = np.tensordot(bernstein_change(order).astype(grads.dtype),
                             grads, (1, 0))
        op = op.minus_identity
    # b_k = g_k + 2 op b_{k+1} - b_{k+2}, down to g_0 + op b_1 - b_2
    b1, b2 = grads[order], 0.0
    for k in range(order - 1, 0, -1):
        b = spmm(op, b1)
        b *= 2.0
        b += grads[k]
        b -= b2
        b1, b2 = b, b1
    out = spmm(op, b1)
    out += grads[0]
    out -= b2
    return out


def propagation(basis: str, op: SparseOperator, x: Tensor,
                order: int) -> Tensor:
    """The (K+1, n, c) layers p_k(op) @ x as one node; its backward is the
    adjoint recursion, K sparse products like the forward."""
    out = Tensor(polynomial_layers(basis, op, x.data, order), parents=(x,))

    def push(g):
        x._accumulate(polynomial_adjoint(basis, op, g))

    out._backward_fn = push
    return out


def log_softmax_nll(logits: np.ndarray, labels, index):
    """Mean negative log-softmax of the true class over the index set.

    Returns the mean and the log-softmax of the selected rows; the arithmetic
    runs in the dtype of ``logits``.
    """
    index = np.asarray(index, dtype=np.int64)
    if index.size == 0:
        raise ValueError("loss over an empty index set")
    rows = logits[index]
    shifted = rows - rows.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.sum(np.exp(shifted), axis=1))[:, None]
    picked = log_probs[np.arange(index.size),
                       np.asarray(labels, dtype=np.int64)[index]]
    return -np.mean(picked), log_probs


def softmax_cross_entropy(logits: Tensor, labels, index) -> Tensor:
    """Mean negative log-softmax of the true class over the index set."""
    value, log_probs = log_softmax_nll(logits.data, labels, index)
    index = np.asarray(index, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)[index]
    out = Tensor(value, parents=(logits,))

    def push(g):
        probs = np.exp(log_probs)
        probs[np.arange(index.size), labels] -= 1.0
        full = np.zeros_like(logits.data)
        full[index] = (float(g) / index.size) * probs
        logits._accumulate(full)

    out._backward_fn = push
    return out
