"""Minimal reverse-mode differentiation over numpy arrays.

A Tensor records the op that produced it and a closure that pushes gradients
to its parents; calling backward() on a scalar output replays the tape in
reverse topological order. Only the operations the filtering models need are
implemented: dense/sparse matrix products, broadcast arithmetic, sigmoid,
ReLU, row selection, a fixed linear mix of a list of tensors, squared norms,
and a fused softmax cross-entropy.
"""

import numpy as np

from .graph import SparseOperator, spmm


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

    def __sub__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data - other.data, parents=(self, other))

        def push(g):
            self._accumulate(_reduce_to_shape(g, self.data.shape))
            other._accumulate(-_reduce_to_shape(g, other.data.shape))

        out._backward_fn = push
        return out

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            # python scalars keep the array dtype; a wrapped 0-d array would
            # promote float32 operands to float64
            scalar = float(other)
            out = Tensor(self.data * scalar, parents=(self,))

            def push_scalar(g):
                self._accumulate(g * scalar)

            out._backward_fn = push_scalar
            return out
        other = as_tensor(other)
        out = Tensor(self.data * other.data, parents=(self, other))

        def push(g):
            self._accumulate(_reduce_to_shape(g * other.data, self.data.shape))
            other._accumulate(_reduce_to_shape(g * self.data, other.data.shape))

        out._backward_fn = push
        return out

    __radd__ = __add__
    __rmul__ = __mul__

    def __matmul__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data @ other.data, parents=(self, other))

        def push(g):
            self._accumulate(g @ other.data.T)
            other._accumulate(self.data.T @ g)

        out._backward_fn = push
        return out

    def sigmoid(self):
        # Branch on sign to keep exp() arguments non-positive.
        x = self.data
        value = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                         np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
        out = Tensor(value, parents=(self,))

        def push(g):
            self._accumulate(g * value * (1.0 - value))

        out._backward_fn = push
        return out

    def relu(self):
        out = Tensor(np.maximum(self.data, 0.0), parents=(self,))

        def push(g):
            self._accumulate(g * (self.data > 0.0))

        out._backward_fn = push
        return out

    def select(self, key):
        """self.data[key] for an index or slice of rows; its gradient is
        added in place."""
        out = Tensor(self.data[key], parents=(self,))

        def push(g):
            if self.grad is None:
                self.grad = np.zeros_like(self.data)
            self.grad[key] += g

        out._backward_fn = push
        return out

    def transpose(self):
        out = Tensor(self.data.T, parents=(self,))

        def push(g):
            self._accumulate(g.T)

        out._backward_fn = push
        return out

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


def sparse_matmul(op: SparseOperator, x: Tensor) -> Tensor:
    """op @ x for a constant symmetric sparse operator."""
    out = Tensor(spmm(op, x.data), parents=(x,))

    def push(g):
        x._accumulate(spmm(op, g))  # op is symmetric, so op^T = op

    out._backward_fn = push
    return out


def mix(matrix: np.ndarray, tensors: list) -> list:
    """outputs[j] = sum_k matrix[k, j] * tensors[k], as one tape node whose
    backward is one product, matrix @ grad, not (K+1)^2 scalar products."""
    weights = np.asarray(matrix, dtype=tensors[0].data.dtype)
    node = Tensor(np.tensordot(weights, np.stack([t.data for t in tensors]),
                               axes=(0, 0)), parents=tuple(tensors))

    def push(g):
        for tensor, grad in zip(tensors, np.tensordot(weights, g, axes=(1, 0))):
            tensor._accumulate(grad)

    node._backward_fn = push
    return [node.select(k) for k in range(len(tensors))]


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
