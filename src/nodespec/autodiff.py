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
G_k, in K more: Horner for monomial, Clenshaw for Chebyshev and Bernstein.
"""

import numpy as np

from .graph import SparseOperator, spmm
from .polyfilter import bernstein_change


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
