"""Undirected graphs in CSR form, Laplacian operators, and hop queries.

The graph is immutable once built: symmetric adjacency with sorted rows, no
self-loops, no duplicate edges. Its operators, the normalized Laplacian L
and the scaled Laplacian 2 L / lambda_max - I, are symmetric ``scipy.sparse``
CSR arrays: D^{-1/2} A D^{-1/2} is written directly on the adjacency's sorted
pattern, O(nnz), no sort. At lambda_max = 2 (L - I, on which the Chebyshev
and Bernstein bases run) the diagonal is 0 in every row with a neighbour: on
a graph without isolated nodes the operator shares the graph's
``col_indices`` and ``row_offsets`` and owns only its values, and an
isolated row's -1 is inserted as that row's only entry. L itself, and the
scaled Laplacian at any other lambda_max, merge their diagonal in by one
scipy subtraction and own all their arrays.

The two functions that make a Graph, ``build_graph`` and
``induced_subgraph``, assemble its CSR arrays in place with numpy sorts,
masks and binary searches. At their peak they hold, result included,
under 2.5 times the result's bytes: about 1.4 times for ``build_graph`` on
an int64 edge list without repeats, about twice for ``induced_subgraph``
when most nodes are kept.

Every public function that takes node ids reads them with ``node_ids``. An
int64 ndarray is used as it is, another integer ndarray is cast, and any
other iterable is listed first; one id is a 0-d value. Listed ints that
numpy would read as floats (Python ints with uint64 scalars) are read one
by one. A non-integer dtype (a bool mask, floats) and a bool among listed
ints, which numpy reads as 0 or 1, raise ValueError, as do an id beyond
int64 and an id outside [0, n) given the node count n.
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


def _out_of_range(v, n: Optional[int]) -> ValueError:
    where = "int64 node ids" if n is None else f"a graph with n = {n} nodes"
    return ValueError(f"node {v} out of range for {where}")


def _listed_ids(values: list, ids: np.ndarray,
                n: Optional[int]) -> np.ndarray:
    """``ids``, numpy's reading of listed ``values``, checked one by one:
    a bool is not an id, and ints that numpy reads as floats or objects (a
    Python int with a uint64, or one beyond 64 bits) are read as ints."""
    cells = np.asarray(values, dtype=object)
    for v in cells.flat:
        if isinstance(v, (bool, np.bool_)):
            raise ValueError(f"node ids must be integers, got {v!r}")
    if ids.dtype.kind not in "fO" or not all(
            isinstance(v, (int, np.integer)) for v in cells.flat):
        return ids
    ints = [int(v) for v in cells.flat]
    for v in ints:
        if not -2**63 <= v < 2**63:
            raise _out_of_range(v, n)
    return np.array(ints, dtype=np.int64).reshape(cells.shape)


def node_ids(values, n: Optional[int] = None) -> np.ndarray:
    """``values`` as int64 node ids, by the module docstring's rule."""
    if not isinstance(values, np.ndarray) and np.iterable(values):
        values = list(values)
    ids = np.asarray(values)  # an int64 ndarray is returned as it is
    if isinstance(values, list) and ids.size:
        ids = _listed_ids(values, ids, n)
    if ids.dtype != np.int64:
        # an empty list reads as float64; any other non-integer id is an error
        if ids.size and not np.issubdtype(ids.dtype, np.integer):
            raise ValueError(f"node ids must be integers, got {ids.dtype}")
        if ids.dtype == np.uint64 and ids.size and ids.max() >= 2**63:
            raise _out_of_range(ids[ids >= 2**63][0], n)
        ids = ids.astype(np.int64)
    # one reduction: a negative id viewed as uint64 is at least 2**63
    if n is not None and ids.size and ids.view(np.uint64).max() >= n:
        raise _out_of_range(ids[ids.view(np.uint64) >= n][0], n)
    return ids


def _sort_unique(values: np.ndarray) -> np.ndarray:
    """A 1-D array the caller owns, sorted in place, without repeats: the
    values of ``np.unique``, which copies and, on numpy 2.4, runs tens of
    times slower."""
    values.sort()
    first = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values if first.all() else values[first]


def build_graph(edges, n: int) -> Graph:
    """Build a Graph from (i, j) pairs, read by ``node_ids``.

    Pairs are treated as undirected regardless of orientation; self-loops are
    dropped and duplicates collapsed. Raises ValueError on out-of-range ids
    and on ids that are not integers, which a cast would truncate.

    The CSR arrays are assembled in place, and ``edges`` is never written:
    one int64 key per pair, sorted and deduplicated in place, then one
    buffer of both orientations, sorted in place, whose remainders mod n
    become ``col_indices``; ``row_offsets`` is a binary search of it. So
    besides a cast copy of ``edges`` (none for an int64 array) the peak is
    the keys plus that buffer: three int64 per edge, about 1.4 times the
    result's bytes when no pair repeats.
    """
    if n < 0:
        raise ValueError("node count must be non-negative")
    pairs = node_ids(edges).reshape(-1, 2)
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        bad = pairs[(pairs < 0).any(axis=1) | (pairs >= n).any(axis=1)][0]
        raise ValueError(f"edge ({bad[0]}, {bad[1]}) out of range for n={n}")
    lo, hi = pairs[:, 0], pairs[:, 1]
    # One key lo * n + hi per unordered pair, as min * (n - 1) + i + j so
    # that no temporary is made; sorted, duplicates are adjacent.
    keys = np.minimum(lo, hi)
    keys *= n - 1
    keys += lo
    keys += hi
    not_loop = lo != hi
    del pairs, lo, hi  # frees a cast copy of edges
    if not not_loop.all():
        keys = keys[not_loop]
    del not_loop
    keys = _sort_unique(keys)
    # Both orientations as src * n + dst keys: sorted, they are the CSR
    # entries in row order with ascending columns.
    u = keys.size
    both = np.empty(2 * u, dtype=np.int64)
    both[:u] = keys
    np.remainder(keys, n, out=both[u:])
    both[u:] *= n
    keys //= n
    both[u:] += keys
    del keys
    both.sort()
    offsets = np.searchsorted(both, np.arange(n + 1, dtype=np.int64) * n)
    both %= n
    return Graph(n, offsets, both, u)


def adjacency(g: Graph) -> sp.csr_array:
    """The graph's 0/1 adjacency as a CSR array."""
    return sp.csr_array((np.ones(g.col_indices.size), g.col_indices,
                         g.row_offsets), shape=(g.n, g.n))


def _shifted_laplacian(g: Graph, scale: float, shift: float) -> sp.csr_array:
    """scale * (I - D^{-1/2} A D^{-1/2}) - shift * I, with the isolated rows'
    I entries left out.

    The diagonal is ``where(deg > 0, scale, 0) - shift`` and the off-diagonal
    entry (i, j) is ``-scale * d_i * d_j`` on A's pattern, so no sparse
    matrix product runs. Where the diagonal's non-zeros fall picks the
    assembly, each giving the arrays of ``diags(diagonal) - off`` byte for
    byte:

    * nowhere (scale == shift, no isolated node): the negated products on
      the graph's own ``col_indices`` and ``row_offsets``, shared, not
      copied;
    * only in isolated rows (scale == shift): each is its row's only entry,
      inserted at the row's offset, with no merge;
    * elsewhere, or a graph without edges (which scipy gives int32
      indices): one scipy subtraction, which prunes the zeros it leaves.
    """
    deg = g.degrees()
    inv_sqrt = np.zeros(g.n)
    nz = deg > 0
    inv_sqrt[nz] = 1.0 / np.sqrt(deg[nz])
    # scale - shift is the diagonal entry of every row with a neighbour;
    # scipy gives an empty product int32 indices
    merge = not g.edge_count or scale - shift != 0
    dad = np.repeat(inv_sqrt, deg)
    dad *= inv_sqrt[g.col_indices]
    # unmerged, the products are negated: -x is 0 - x, as no product is 0
    dad *= scale if merge else -scale
    diag = np.where(nz, scale, 0.0)
    diag -= shift
    shape = (g.n, g.n)
    if merge:
        off = (sp.csr_array((dad, g.col_indices, g.row_offsets), shape=shape)
               if g.edge_count else sp.csr_array(shape))
        # a dia_array on diag itself, which diags_array would copy
        return sp.dia_array((diag[None], [0]), shape=shape) - off
    lone = np.flatnonzero(diag)
    if not lone.size:
        return sp.csr_array((dad, g.col_indices, g.row_offsets), shape=shape)
    at = g.row_offsets[lone]
    data = np.insert(dad, at, diag[lone])
    del dad
    offsets = g.row_offsets.copy()
    offsets[1:] += np.cumsum(diag != 0)
    return sp.csr_array((data, np.insert(g.col_indices, at, lone), offsets),
                        shape=shape)


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
    L, assembled from the graph without L; its arrays equal those of the
    two-pass ``(2 / lambda_max) * L - I`` byte for byte. At 2.0 it is L - I,
    on which the Bernstein basis runs too, and has no diagonal outside
    isolated rows: on a graph without isolated nodes its ``indices`` and
    ``indptr`` are the graph's own arrays, and on one with isolated nodes
    each isolated row's -1 is inserted, not merged. At any other lambda_max
    the diagonal is merged in by one subtraction.
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

    g's CSR arrays are filtered in place of a rebuild: a mask of the entries
    whose row and column are both kept, their positions, which give each
    kept row's offset by a binary search, and the kept columns relabelled
    by an old-to-new id map, the running count of kept ids. Relabelling
    keeps each row's order, so the rows stay sorted. Besides one byte per
    entry of g and the n-entry id map, the peak holds the kept columns
    twice, before and after relabelling: about twice the result's bytes
    when most nodes are kept.
    """
    keep = _sort_unique(node_ids(nodes, g.n).flatten())
    inside = np.zeros(g.n, dtype=bool)
    inside[keep] = True
    entries = inside[g.col_indices]
    entries &= np.repeat(inside, g.degrees())
    kept = np.flatnonzero(entries)
    del entries
    offsets = np.searchsorted(kept, g.row_offsets[np.append(keep, g.n)])
    cols = g.col_indices[kept]
    del kept
    new_id = np.cumsum(inside)
    new_id -= 1
    cols = new_id[cols]
    return Graph(keep.size, offsets, cols, cols.size // 2), keep
