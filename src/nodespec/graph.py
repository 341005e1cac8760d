"""Undirected graphs in CSR form, Laplacian operators, and hop queries.

The graph is immutable once built: symmetric adjacency with sorted rows, no
self-loops, no duplicate edges. Its operators, the normalized Laplacian L
and the scaled Laplacian 2 L / lambda_max - I, are symmetric ``scipy.sparse``
CSR arrays: D^{-1/2} A D^{-1/2} is written directly on the adjacency's sorted
pattern, and the diagonal is merged in by one subtraction, O(nnz), no sort.

Every public function that takes node ids reads them with ``node_ids``. An
int64 ndarray is used as it is, another integer ndarray is cast, and any
other iterable is listed first; one id is a 0-d value. A non-integer dtype
(a bool mask, floats) and a bool among listed ints, which numpy reads as 0
or 1, raise ValueError, as does an id outside [0, n) given the node count n.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

LANCZOS_STEPS = 40


@dataclass(frozen=True)
class Graph:
    """Undirected graph: CSR adjacency over node ids 0..n-1."""

    n: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    edge_count: int

    def degrees(self) -> np.ndarray:
        return np.diff(self.row_offsets)

    def neighbors(self, v: int) -> np.ndarray:
        v = node_ids(v, self.n)
        return self.col_indices[self.row_offsets[v]:self.row_offsets[v + 1]]


@dataclass(frozen=True)
class SparseOperator:
    """Symmetric real CSR matrix: the normalized Laplacian L when
    ``lambda_max`` is None, else the scaled Laplacian 2 L / lambda_max - I."""

    matrix: sp.csr_array
    lambda_max: Optional[float] = None

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()


def node_ids(values, n: Optional[int] = None) -> np.ndarray:
    """``values`` as int64 node ids, by the module docstring's rule."""
    if not isinstance(values, np.ndarray) and np.iterable(values):
        values = list(values)
    ids = np.asarray(values)  # an int64 ndarray is returned as it is
    if ids.dtype != np.int64:
        # an empty list reads as float64; any other non-integer id is an error
        if ids.size and not np.issubdtype(ids.dtype, np.integer):
            raise ValueError(f"node ids must be integers, got {ids.dtype}")
        ids = ids.astype(np.int64)
    if isinstance(values, list) and ids.size:
        for v in np.asarray(values, dtype=object).ravel():
            if isinstance(v, (bool, np.bool_)):
                raise ValueError(f"node ids must be integers, got {v!r}")
    # one reduction: a negative id viewed as uint64 is at least 2**63
    if n is not None and ids.size and ids.view(np.uint64).max() >= n:
        raise ValueError(f"node {ids[ids.view(np.uint64) >= n][0]} out of "
                         f"range for a graph with n = {n} nodes")
    return ids


def build_graph(edges, n: int) -> Graph:
    """Build a Graph from (i, j) pairs, read by ``node_ids``.

    Pairs are treated as undirected regardless of orientation; self-loops are
    dropped and duplicates collapsed. Raises ValueError on out-of-range ids
    and on ids that are not integers, which a cast would truncate.
    """
    if n < 0:
        raise ValueError("node count must be non-negative")
    pairs = node_ids(edges).reshape(-1, 2)
    if pairs.size:
        if pairs.min() < 0 or pairs.max() >= n:
            bad = pairs[(pairs < 0).any(axis=1) | (pairs >= n).any(axis=1)][0]
            raise ValueError(f"edge ({bad[0]}, {bad[1]}) out of range for n={n}")
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    if pairs.size == 0:
        offsets = np.zeros(n + 1, dtype=np.int64)
        return Graph(n, offsets, np.empty(0, dtype=np.int64), 0)

    # One key lo * n + hi per unordered pair; sorted, duplicates are adjacent.
    keys = np.sort(np.minimum(pairs[:, 0], pairs[:, 1]) * n
                   + np.maximum(pairs[:, 0], pairs[:, 1]))
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    lo, hi = np.divmod(keys, n)
    # Both orientations as src * n + dst keys: sorted, they are the CSR
    # entries in row order with ascending columns.
    both = np.sort(np.concatenate([keys, hi * n + lo]))
    src, dst = np.divmod(both, n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
    return Graph(n, offsets, dst, int(keys.size))


def adjacency(g: Graph) -> sp.csr_array:
    """The graph's 0/1 adjacency as a CSR array."""
    return sp.csr_array((np.ones(g.col_indices.size), g.col_indices,
                         g.row_offsets), shape=(g.n, g.n))


def _shifted_laplacian(g: Graph, scale: float, shift: float) -> sp.csr_array:
    """scale * (I - D^{-1/2} A D^{-1/2}) - shift * I, with the isolated rows'
    I entries left out, in one sparse subtraction.

    The diagonal is ``where(deg > 0, scale, 0) - shift``, and entry (i, j) of
    the subtracted matrix is ``scale * d_i * d_j`` on A's pattern, so no
    sparse matrix product runs. scipy prunes the zeros the subtraction leaves.
    """
    deg = g.degrees()
    inv_sqrt = np.zeros(g.n)
    nz = deg > 0
    inv_sqrt[nz] = 1.0 / np.sqrt(deg[nz])
    dad = np.repeat(inv_sqrt, deg) * inv_sqrt[g.col_indices]
    dad *= scale
    # scipy gives an empty product int32 indices
    off = (sp.csr_array((dad, g.col_indices, g.row_offsets), shape=(g.n, g.n))
           if g.edge_count else sp.csr_array((g.n, g.n)))
    return sp.diags_array(np.where(nz, scale, 0.0) - shift) - off


def normalized_laplacian(g: Graph) -> SparseOperator:
    """Symmetric normalized Laplacian I - D^{-1/2} A D^{-1/2}.

    Isolated nodes get an all-zero row (their D^{-1/2} entry is defined as 0),
    so the operator stays finite. Its arrays equal those of the matrix
    expression ``diags(nz) - d @ A @ d`` byte for byte, without the two
    sparse matrix products.
    """
    return SparseOperator(_shifted_laplacian(g, 1.0, 0.0))


def chebyshev_operator(g: Graph, lambda_max: float = 2.0) -> SparseOperator:
    """The scaled Laplacian 2 L / lambda_max - I of g's normalized Laplacian
    L, assembled in one pass; its arrays equal those of the two-pass
    ``(2 / lambda_max) * L - I`` byte for byte. At 2.0 it is L - I, on which
    the Bernstein basis runs too.
    """
    if not (math.isfinite(lambda_max) and lambda_max > 0):
        raise ValueError(f"lambda_max must be finite and positive, "
                         f"got {lambda_max!r}")
    return SparseOperator(_shifted_laplacian(g, 2.0 / lambda_max, 1.0),
                          lambda_max)


def estimate_lambda_max(op: SparseOperator) -> float:
    """An upper estimate of op's largest eigenvalue, capped at 2.0, the
    bound of a normalized Laplacian's spectrum.

    min(LANCZOS_STEPS, n) Lanczos steps from a fixed seeded start vector,
    each reorthogonalised twice against all before it, stop early when the
    residual norm beta reaches 0. The estimate is the tridiagonal's top
    eigenvalue theta plus beta_k, the safeguarded bound of Zhou & Li (LAA
    2011); their theta + |beta_k s_k| falls short on er_graph(150, 1/30, 2).
    """
    k = min(LANCZOS_STEPS, op.n)
    if k == 0:
        return 0.0
    basis = np.empty((k, op.n))
    alpha, beta = np.zeros(k), np.zeros(k)
    v = np.random.default_rng(0x5EED).standard_normal(op.n)
    v /= np.linalg.norm(v)
    for j in range(k):
        basis[j] = v
        w = spmm(op, v)
        alpha[j] = v @ w
        for _ in range(2):
            w -= basis[:j + 1].T @ (basis[:j + 1] @ w)
        beta[j] = np.linalg.norm(w)
        if beta[j] == 0.0:
            break
        v = w / beta[j]
    theta = np.linalg.eigvalsh(np.diag(alpha[:j + 1]) + np.diag(beta[:j], -1))
    return float(min(2.0, theta[-1] + beta[j]))


def spmm(op: SparseOperator, x: np.ndarray) -> np.ndarray:
    """Sparse-dense product op @ x for x of shape (n,) or (n, c).

    A float operand keeps its dtype; any other operand gives float64.
    """
    x = np.asarray(x)
    if x.shape[0] != op.n:
        raise ValueError(f"operand rows {x.shape[0]} != operator dim {op.n}")
    dtype = x.dtype if np.issubdtype(x.dtype, np.floating) else np.float64
    return (op.matrix @ x).astype(dtype, copy=False)


def hop_distances(g: Graph, v: int) -> np.ndarray:
    """Shortest-path distance from v to every node; -1 where unreachable."""
    a, dist = adjacency(g), np.full(g.n, -1, dtype=np.int64)
    dist[node_ids(v, g.n)] = 0
    frontier, hops = dist == 0, 0
    while frontier.any():
        hops += 1
        frontier = (a @ frontier > 0) & (dist < 0)
        dist[frontier] = hops
    return dist


def induced_subgraph(g: Graph, nodes) -> tuple[Graph, np.ndarray]:
    """Induced subgraph on the given node set, read by ``node_ids``.

    Returns the subgraph and the sorted original ids, so position k of the
    id array is subgraph node k.
    """
    keep = np.unique(node_ids(nodes, g.n))
    edges = sp.triu(adjacency(g)[keep][:, keep]).tocoo()
    return build_graph(np.column_stack([edges.row, edges.col]), keep.size), keep
