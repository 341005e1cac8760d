"""Undirected graphs in CSR form, Laplacian operators, and hop queries.

The graph is immutable once built: symmetric adjacency with sorted rows, no
self-loops, no duplicate edges. Operators derived from it (normalized and
scaled Laplacians) are symmetric ``scipy.sparse`` CSR arrays: D^{-1/2} A
D^{-1/2} is written directly on the adjacency's sorted pattern, and the
diagonal is merged in by one sparse subtraction, O(nnz) with no sort.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

NORMALIZED_LAPLACIAN = "normalized_laplacian"
SCALED_LAPLACIAN = "scaled_laplacian"


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
        return self.col_indices[self.row_offsets[v]:self.row_offsets[v + 1]]


@dataclass(frozen=True)
class SparseOperator:
    """Symmetric real CSR matrix tagged with the Laplacian variant it holds."""

    matrix: sp.csr_array
    kind: str

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()

    @cached_property
    def minus_identity(self) -> "SparseOperator":
        """self - I as a scaled Laplacian, built on first use and kept: the
        Bernstein basis runs the Chebyshev recursion on L - I."""
        return scaled_laplacian(self, 2.0)


def build_graph(edges, n: int) -> Graph:
    """Build a Graph from (i, j) pairs.

    Pairs are treated as undirected regardless of orientation; self-loops are
    dropped and duplicates collapsed. Raises ValueError on out-of-range ids.
    An ndarray of pairs is read as it is; any other iterable is listed first.
    """
    if n < 0:
        raise ValueError("node count must be non-negative")
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
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


def normalized_laplacian(g: Graph) -> SparseOperator:
    """Symmetric normalized Laplacian I - D^{-1/2} A D^{-1/2}.

    Isolated nodes get an all-zero row (their D^{-1/2} entry is defined as 0),
    so the operator stays finite. Its arrays equal those of the matrix
    expression ``diags(nz) - d @ A @ d`` byte for byte, without the two
    sparse matrix products.
    """
    deg = g.degrees()
    inv_sqrt = np.zeros(g.n)
    nz = deg > 0
    inv_sqrt[nz] = 1.0 / np.sqrt(deg[nz])
    # entry (i, j) of d @ A @ d is d_i * d_j on A's pattern; scipy gives an
    # empty product int32 indices
    dad = (sp.csr_array((np.repeat(inv_sqrt, deg) * inv_sqrt[g.col_indices],
                         g.col_indices, g.row_offsets), shape=(g.n, g.n))
           if g.edge_count else sp.csr_array((g.n, g.n)))
    lap = sp.diags_array(nz.astype(np.float64)) - dad
    return SparseOperator(lap, NORMALIZED_LAPLACIAN)


def scaled_laplacian(l: SparseOperator, lambda_max: float = 2.0) -> SparseOperator:
    """Scaled Laplacian 2 L / lambda_max - I, shifting the spectrum to [-1, 1]."""
    if lambda_max <= 0:
        raise ValueError("lambda_max must be positive")
    scaled = (2.0 / lambda_max) * l.matrix - sp.eye_array(l.n)
    return SparseOperator(scaled, SCALED_LAPLACIAN)


def estimate_lambda_max(op: SparseOperator, tol: float = 1e-9,
                        max_iters: int = 1000):
    """Power-iteration estimate of the largest eigenvalue.

    Returns (estimate, converged). The start vector is a fixed seeded draw so
    the estimate is deterministic; for a PSD operator the Rayleigh quotient
    converges to the top of the spectrum.
    """
    if op.n == 0:
        return 0.0, True
    v = np.random.default_rng(0x5EED).standard_normal(op.n)
    v /= np.linalg.norm(v)
    estimate = 0.0
    for _ in range(max_iters):
        w = spmm(op, v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0, True
        new_estimate = float(v @ w)
        v = w / norm
        if abs(new_estimate - estimate) <= tol * max(1.0, abs(new_estimate)):
            return new_estimate, True
        estimate = new_estimate
    return estimate, False


def spmm(op: SparseOperator, x: np.ndarray) -> np.ndarray:
    """Sparse-dense product op @ x for x of shape (n,) or (n, c).

    A float operand keeps its dtype; any other operand gives float64.
    """
    x = np.asarray(x)
    if x.shape[0] != op.n:
        raise ValueError(f"operand rows {x.shape[0]} != operator dim {op.n}")
    dtype = x.dtype if x.dtype.kind == "f" else np.float64
    return (op.matrix @ x).astype(dtype, copy=False)


def hop_distances(g: Graph, v: int) -> np.ndarray:
    """Shortest-path distance from v to every node; -1 where unreachable."""
    dist = np.full(g.n, -1, dtype=np.int64)
    dist[v] = 0
    frontier = [v]
    t = 0
    while frontier:
        t += 1
        nxt = []
        for u in frontier:
            for w in g.neighbors(u):
                if dist[w] < 0:
                    dist[w] = t
                    nxt.append(int(w))
        frontier = nxt
    return dist


def induced_subgraph(g: Graph, nodes) -> tuple[Graph, np.ndarray]:
    """Induced subgraph on the given node set.

    Returns the subgraph and the sorted original ids, so position k of the
    id array is subgraph node k.
    """
    keep = np.unique(np.asarray(list(nodes), dtype=np.int64))
    if keep.size and (keep[0] < 0 or keep[-1] >= g.n):
        raise ValueError("subgraph node out of range")
    edges = sp.triu(adjacency(g)[keep][:, keep]).tocoo()
    return build_graph(np.column_stack([edges.row, edges.col]), keep.size), keep
