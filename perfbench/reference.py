"""Reference results the output checks compare the package against.

They are computed with numpy and ``scipy.sparse`` from the generator's own
arrays, in the generator's process, so neither their time nor their memory
falls into a measured session. ``write`` stores them next to the input files
as ``reference.npz``.
"""

import os

import numpy as np
import scipy.sparse as sparse

# The Chebyshev probe: T_k(2 L / PROBE_LAMBDA_MAX - I) x for k = 0..PROBE_ORDER.
PROBE_ORDER = 10
PROBE_LAMBDA_MAX = 2.0


def adjacency(edges, n):
    """Symmetric 0/1 adjacency without self-loops from (m, 2) node pairs."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    a = sparse.coo_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])),
                          shape=(n, n)).tocsr()
    a = a + a.T
    a.setdiag(0)
    a.eliminate_zeros()
    a.data[:] = 1.0
    return a


def h1(adj, labels):
    """Per-node 1-hop homophily (NaN without neighbours) and its graph mean."""
    n = adj.shape[0]
    onehot = sparse.csr_matrix((np.ones(n), (np.arange(n), labels)))
    counts = (adj @ onehot).toarray()
    degree = counts.sum(axis=1)
    same = counts[np.arange(n), labels]
    per_node = np.full(n, np.nan)
    has = degree > 0
    per_node[has] = same[has] / degree[has]
    return per_node, float(np.mean(per_node[has]))


def chebyshev(adj, x, order, lambda_max):
    """T_k(2 L / lambda_max - I) x for k = 0..order, by the CSR recursion."""
    n = adj.shape[0]
    degree = np.asarray(adj.sum(axis=1)).ravel()
    inv_sqrt = np.zeros(n)
    inv_sqrt[degree > 0] = 1.0 / np.sqrt(degree[degree > 0])
    d = sparse.diags(inv_sqrt)
    lap = sparse.diags((degree > 0).astype(np.float64)) - d @ adj @ d
    scaled = ((2.0 / lambda_max) * lap - sparse.identity(n)).tocsr()
    stack = [x, scaled @ x]
    for _ in range(2, order + 1):
        stack.append(2.0 * (scaled @ stack[-1]) - stack[-2])
    return np.stack(stack[:order + 1])


def write(edges, labels, seed, directory):
    """Write h1, graph homophily, a probe vector and its Chebyshev stack."""
    n = len(labels)
    adj = adjacency(edges, n)
    per_node, graph = h1(adj, labels)
    probe = np.random.default_rng(seed).standard_normal((n, 1))
    np.savez(os.path.join(directory, "reference.npz"), h1=per_node,
             graph_homophily=graph, probe=probe,
             chebyshev=chebyshev(adj, probe, PROBE_ORDER, PROBE_LAMBDA_MAX))


def load(directory):
    with np.load(os.path.join(directory, "reference.npz")) as ref:
        return {name: ref[name] for name in ref.files}
