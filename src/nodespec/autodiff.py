"""Closed-form gradient pieces over numpy arrays, for the model's explicit
backward.

``model`` writes each forward as plain numpy, keeps the arrays its backward
reads, and runs the backward as straight-line code in reverse forward
order. This module holds the pieces that are not specific to the network:
``sigmoid``; the mean negative log-softmax and its gradient,
(softmax - one-hot) / |index| on the index rows; and the adjoint of the
propagation.

The propagation forward is ``polyfilter.polynomial_layers``, the (K+1, n, c)
stack of layers p_k(op) x in K sparse products. Its backward is the adjoint
recursion ``polynomial_adjoint``, sum_k p_k(op) G_k for the layer gradients
G_k, in K more: Clenshaw's sum over the forward's own step table
``polyfilter.recurrence``, for every basis. The sum reads G_k from k = K down
to 0, so it takes each one from its caller as it reaches it.
"""

import numpy as np

from .graph import SparseOperator, spmm
from .polyfilter import bernstein_change, recurrence


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


def polynomial_adjoint(basis: str, op: SparseOperator, grad,
                       order: int) -> np.ndarray:
    """sum_k p_k(op) @ grad(k): the gradient with respect to x of
    ``polynomial_layers(basis, op, x, K)``, K = order, given the gradient
    grad(k) of each layer k, since op is symmetric. K ``spmm`` by Clenshaw's
    sum over the steps (a_k, c_k) of ``recurrence``.

    grad(k) is asked for once per layer, from k = K down to 0, as the sum
    reaches that layer, so no (K+1, n, c) gradient stack need exist.
    Bernstein is the exception: its change of basis mixes every layer, so
    it stacks them all first. At order 0 the result is grad(0) itself, so
    grad should return an array of its own."""
    if basis == "bernstein":
        layers = np.stack([grad(k) for k in range(order + 1)])
        grad = np.tensordot(bernstein_change(order).astype(layers.dtype),
                            layers, (1, 0)).__getitem__
        del layers
    # b_k = g_k + a_{k+1} op b_{k+1} - c_{k+2} b_{k+2} from b_K = g_K to b_0;
    # the zero step past K stands for b_{K+1} = 0
    steps = recurrence(basis, order) + [(0.0, 0.0)]
    b1, b2 = grad(order), None
    for k in range(order - 1, -1, -1):
        (a, _), (_, c) = steps[k], steps[k + 1]
        b = spmm(op, b1)
        b *= a
        b += grad(k)
        if c:
            b -= b2 if c == 1.0 else c * b2
        b1, b2 = b, b1
    return b1


def log_softmax_nll(logits: np.ndarray, labels, index):
    """Mean negative log-softmax of the true class over the index set.

    Returns the mean and the log-softmax of the selected rows; the arithmetic
    runs in the dtype of ``logits``. ``index`` is read by the caller.
    """
    if len(index) == 0:
        raise ValueError("loss over an empty index set")
    rows = logits[index]
    shifted = rows - rows.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.sum(np.exp(shifted), axis=1))[:, None]
    picked = log_probs[np.arange(len(index)),
                       np.asarray(labels, dtype=np.int64)[index]]
    return -np.mean(picked), log_probs


def log_softmax_nll_grad(logits: np.ndarray, labels, index,
                         log_probs: np.ndarray) -> np.ndarray:
    """Gradient of ``log_softmax_nll``'s mean with respect to ``logits``,
    from the log-softmax it returned: (softmax - one-hot) / |index| on the
    index rows, zero elsewhere."""
    labels = np.asarray(labels, dtype=np.int64)[index]
    probs = np.exp(log_probs)
    probs[np.arange(len(index)), labels] -= 1.0
    full = np.zeros_like(logits)
    full[index] = (1.0 / len(index)) * probs
    return full
