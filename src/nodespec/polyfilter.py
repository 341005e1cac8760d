"""Polynomial propagation stacks and per-node coefficient combination.

Three scalar bases are supported on the Laplacian spectrum [0, 2]:

* monomial      p_k(lambda) = lambda^k                  on L
* chebyshev     T_k(2 lambda / lambda_max - 1)          on 2 L / lambda_max - I
* bernstein     C(K,k) (1 - lambda/2)^(K-k) (lambda/2)^k on L - I

A propagation stack holds the K+1 matrices p_k(operator) @ X as one
(K+1, n, c) array; combining it with an n x (K+1) coefficient matrix
evaluates one filter per node without ever materializing a dense operator.

Every basis recurs by one step table, ``recurrence``: p_k = a_k op p_{k-1}
- c_k p_{k-2}. ``_recursion`` reads it forwards, for the layers and for
``basis_matrix``; ``autodiff.polynomial_adjoint`` by Clenshaw's sum.

Bernstein layers are the Chebyshev layers T_j(L - I) X mixed by a cached
(K+1) x (K+1) change-of-basis matrix: K sparse products, as for the other
bases, and accurate at high K, where the direct degree-split recursion costs
K(K+3)/2 products and its C(K,k) factors amplify rounding.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Optional

import numpy as np

from .graph import SparseOperator, spmm

BASES = ("monomial", "chebyshev", "bernstein")


@dataclass(frozen=True)
class PropagationStack:
    """layers[k] = p_k(operator) @ X, one (K+1, n, c) array."""

    basis: str
    order: int
    layers: np.ndarray

    @property
    def shape(self):
        return self.layers[0].shape


def _operator_steps(basis: str, op: SparseOperator, order: int) -> list:
    """``recurrence(basis, order)``, once op is the basis's operator:
    monomial runs on the normalized Laplacian (lambda_max None), chebyshev
    on a scaled Laplacian at any lambda_max, and bernstein at 2.0."""
    steps = recurrence(basis, order)
    lam = op.lambda_max
    if basis == "monomial" and lam is not None:
        raise ValueError("monomial propagation needs the normalized_laplacian,"
                         f" got a chebyshev_operator at lambda_max {lam!r}")
    if basis != "monomial" and lam is None:
        raise ValueError(f"{basis} propagation needs a chebyshev_operator, "
                         "got the normalized_laplacian")
    if basis == "bernstein" and lam != 2.0:
        raise ValueError("bernstein propagation needs the chebyshev_operator "
                         f"at lambda_max 2.0, got lambda_max {lam!r}")
    return steps


@lru_cache(maxsize=32)
def bernstein_change(order: int) -> np.ndarray:
    """Read-only M with b_k(lambda) = sum_j M[j, k] T_j(lambda - 1), solved
    at the K+1 Chebyshev nodes on [0, 2], where the Vandermonde's condition
    number is about 1.41 at every K."""
    nodes = 1.0 + np.cos((2 * np.arange(order + 1) + 1) * np.pi
                         / (2 * order + 2))
    change = np.linalg.solve(basis_matrix("chebyshev", order, nodes, 2.0),
                             basis_matrix("bernstein", order, nodes))
    change.setflags(write=False)
    return change


def recurrence(basis: str, order: int) -> list:
    """The steps (a_k, c_k), k = 1..K, of p_k = a_k op p_{k-1} - c_k p_{k-2}
    with p_0 = I: (1, 0) at every k for monomial; (1, 0) then (2, 1) for
    chebyshev and for the Chebyshev layers bernstein mixes."""
    if basis not in BASES:
        raise ValueError(f"unknown basis {basis!r}; expected one of {BASES}")
    if basis == "monomial":
        return [(1.0, 0.0)] * order
    return [(1.0, 0.0)] * min(order, 1) + [(2.0, 1.0)] * (order - 1)


def _recursion(apply, x: np.ndarray, steps,
               layers: Optional[np.ndarray] = None):
    """Yield x, then p_k(op) @ x for each step (a_k, c_k) of ``recurrence``,
    with ``apply(v)`` = op @ v, holding only the two layers the next one
    needs. Layer k is written into layers[k] when a (K+1, n, c) array is
    given, else into a fresh array."""
    prev, cur = None, x
    yield cur
    for k, (a, c) in enumerate(steps, 1):
        nxt = apply(cur)
        nxt = np.multiply(nxt, a, out=nxt if layers is None else layers[k])
        if c:
            nxt -= prev if c == 1.0 else c * prev
        prev, cur = cur, nxt
        yield cur


def iter_layers(basis: str, op: SparseOperator, x: np.ndarray, order: int):
    """The K+1 layers p_k(op) @ x, one at a time and in order, in the dtype
    of x. Monomial and chebyshev never hold more than three layers;
    bernstein, whose every layer mixes all Chebyshev layers, yields the
    rows of ``polynomial_layers``. Raises ValueError when op is not the
    basis's operator."""
    if basis == "bernstein":
        return iter(polynomial_layers(basis, op, x, order))
    return _recursion(lambda v: spmm(op, v), x,
                      _operator_steps(basis, op, order))


def polynomial_layers(basis: str, op: SparseOperator, x: np.ndarray,
                      order: int, out: Optional[np.ndarray] = None
                      ) -> np.ndarray:
    """The K+1 layers p_k(op) @ x as one (K+1, n, c) array in the dtype of x:
    K ``spmm``, plus one GEMM for the Bernstein basis. They are written into
    ``out`` when given, a C-contiguous (K+1, n, c) array of x's dtype, and x
    may be its layer 0, which is then not copied.
    Raises ValueError when op is not the basis's operator."""
    steps = _operator_steps(basis, op, order)
    shape = (order + 1,) + x.shape
    if out is None:
        out = np.empty(shape, dtype=x.dtype)
    elif (out.shape != shape or out.dtype != x.dtype
          or not out.flags.c_contiguous):
        raise ValueError(f"out must be a C-contiguous {shape} {x.dtype} "
                         f"array, got {out.shape} {out.dtype}")
    # Bernstein mixes the Chebyshev layers of op = L - I
    layers = np.empty_like(out) if basis == "bernstein" else out
    # numpy skips the copy when x is layers[0] itself
    layers[0] = x
    for _ in _recursion(lambda v: spmm(op, v), x, steps, layers):
        pass
    if basis == "bernstein":
        # np.tensordot(change, layers, (0, 0)), bit for bit, written in place
        np.matmul(bernstein_change(order).astype(x.dtype).T,
                  layers.reshape(order + 1, -1),
                  out=out.reshape(order + 1, -1))
    return out


def propagate(basis: str, op: SparseOperator, x: np.ndarray,
              order: int) -> PropagationStack:
    """Build the K+1 propagated layers p_k(op) @ x.

    The layers keep a float x's dtype; any other x gives float64. Monomial
    and chebyshev stacks start at layers[0] == x; for bernstein, layers[0] is
    the k=0 basis term (I - L/2)^K x, not x itself.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    x = np.asarray(x)
    if not np.issubdtype(x.dtype, np.floating):
        x = x.astype(np.float64)
    if x.ndim != 2:
        raise ValueError("x must be a dense n x c matrix")
    if x.shape[0] != op.n:
        raise ValueError("x row count does not match operator dimension")
    return PropagationStack(basis=basis, order=order,
                            layers=polynomial_layers(basis, op, x, order))


def combine(stack: PropagationStack, psi: np.ndarray) -> np.ndarray:
    """Per-node combination: output row i = sum_k psi[i, k] * layers[k] row i."""
    coeffs = np.asarray(psi)
    if coeffs.ndim != 2 or coeffs.shape[1] != stack.order + 1:
        raise ValueError(f"psi must be n x {stack.order + 1}")
    if coeffs.shape[0] != stack.shape[0]:
        raise ValueError("psi row count does not match stack")
    return np.einsum("kic,ik->ic", stack.layers, coeffs)


def frequency_response(basis: str, coeffs, lambda_grid,
                       lambda_max: float = 2.0) -> np.ndarray:
    """Scalar filter response sum_k gamma_k p_k(lambda) on a grid in [0, 2]."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.size == 0:
        raise ValueError("a filter needs at least one coefficient")
    grid = np.asarray(lambda_grid, dtype=np.float64)
    # allow eigenvalue-sized rounding just outside the nominal spectrum
    if grid.size and (grid.min() < -1e-9 or grid.max() > 2.0 + 1e-9):
        raise ValueError("lambda grid must lie in [0, 2]")
    grid = np.clip(grid, 0.0, 2.0)
    order = coeffs.size - 1
    return basis_matrix(basis, order, grid, lambda_max) @ coeffs


def basis_matrix(basis: str, order: int, grid: np.ndarray,
                 lambda_max: float = 2.0) -> np.ndarray:
    """Tabulate p_k(lambda) for k = 0..K over the grid; shape (len(grid), K+1).

    Monomial and chebyshev run ``_recursion`` on the diagonal operator
    diag(t), t the grid in the basis's variable, since p_k(t) = p_k(diag t) 1.
    Bernstein keeps its closed form, which ``bernstein_change`` solves
    against."""
    grid = np.asarray(grid, dtype=np.float64).ravel()
    if basis == "bernstein":
        half = grid / 2.0
        return np.stack([comb(order, k) * (1.0 - half) ** (order - k)
                         * half ** k for k in range(order + 1)], axis=1)
    t = grid if basis == "monomial" else 2.0 * grid / lambda_max - 1.0
    return np.stack(list(_recursion(lambda v: t * v, np.ones(grid.size),
                                    recurrence(basis, order))), axis=1)
