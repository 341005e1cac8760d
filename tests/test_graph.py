import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import shortest_path
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nodespec.graph import (Graph, adjacency, build_graph, chebyshev_operator,
                            estimate_lambda_max, hop_distances,
                            induced_subgraph, node_ids, normalized_laplacian,
                            spmm)
from nodespec.oracle import eigendecompose
from nodespec.synthetic import er_graph, path_graph, planted_partition_dataset


class TestBuildGraph:
    def test_dedupe_and_loop_drop(self):
        g = build_graph([(0, 1), (1, 0), (1, 1)], 2)
        assert g.edge_count == 1
        assert g.degrees().tolist() == [1, 1]

    def test_empty_graph(self):
        g = build_graph([], 3)
        assert g.edge_count == 0
        assert g.degrees().tolist() == [0, 0, 0]

    def test_triangle_degrees(self, triangle):
        assert triangle.degrees().tolist() == [2, 2, 2]

    def test_symmetry_and_sorted_rows(self, rng):
        g = er_graph(40, 0.15, seed=9)
        for i in range(g.n):
            row = g.neighbors(i)
            assert np.all(np.diff(row) > 0)  # sorted, no duplicates
            for j in row:
                assert i in g.neighbors(int(j))
                assert i != j

    def test_out_of_range_edge(self):
        with pytest.raises(ValueError):
            build_graph([(0, 5)], 3)

    @pytest.mark.parametrize("edges", [[(0, 1.7)], np.array([[0.0, 1.0]]),
                                       np.array([[False, True]]), [(0, "1")]],
                             ids=["float-list", "float-array", "bool",
                                  "string"])
    def test_non_integer_ids_rejected(self, edges):
        # a cast to int64 would read (0, 1.7) as the edge (0, 1)
        with pytest.raises(ValueError, match="node ids must be integers"):
            build_graph(edges, 3)

    @pytest.mark.parametrize("edges", [[(0, True)], ((2, 0), (False, 1)),
                                       [np.array([0, 2]), (np.True_, 2)]],
                             ids=["list", "tuple", "numpy-bool"])
    def test_listed_bool_ids_rejected(self, edges):
        # np.asarray reads [(0, True)] as int64, which would build (0, 1)
        with pytest.raises(ValueError, match="node ids must be integers"):
            build_graph(edges, 3)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int32,
                                       np.uint64])
    def test_integer_ids_of_any_width_and_empty_inputs_pass(self, dtype):
        g = build_graph(np.array([[0, 1], [2, 1]], dtype=dtype), 3)
        assert g.col_indices.tolist() == [1, 0, 2, 1]
        for empty in ([], (), np.empty((0, 2)), np.empty(0, dtype=dtype)):
            assert build_graph(empty, 3).edge_count == 0


@st.composite
def pair_lists(draw):
    """n in 0..20 and pairs over it: self-loops, duplicates and both
    orientations are likely, and most graphs keep isolated nodes."""
    n = draw(st.integers(0, 20))
    if n == 0:
        return n, []
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    mirrored = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))
                    if pairs else st.just([]))
    return n, pairs + [(j, i) for i, j in mirrored]


def reference_csr(pairs, n):
    """Row offsets, columns and edge count from Python sets."""
    edges = {frozenset(p) for p in pairs if p[0] != p[1]}
    rows = [sorted(j for e in edges if i in e for j in e if j != i)
            for i in range(n)]
    offsets = np.cumsum([0] + [len(r) for r in rows])
    return offsets, [j for r in rows for j in r], len(edges)


@settings(max_examples=200, deadline=None)
@given(pair_lists())
@example((0, []))
@example((1, []))
@example((1, [(0, 0), (0, 0)]))
@example((6, [(0, 1), (1, 0), (1, 1), (4, 2), (2, 4), (4, 2)]))
@example((3, [(0, 0), (2, 2), (1, 1), (2, 2)]))
@example((5, [(3, 1), (1, 1), (1, 3), (4, 4), (3, 1), (0, 0), (1, 3)]))
def test_build_graph_matches_set_reference(case):
    n, pairs = case
    g = build_graph(pairs, n)
    offsets, cols, edge_count = reference_csr(pairs, n)
    assert g.n == n and g.edge_count == edge_count
    assert g.row_offsets.dtype == np.int64 and g.col_indices.dtype == np.int64
    np.testing.assert_array_equal(g.row_offsets, offsets)
    np.testing.assert_array_equal(g.col_indices, np.asarray(cols, np.int64))
    for i in range(n):  # symmetric, no self-loops
        assert i not in g.neighbors(i)
        assert all(i in g.neighbors(int(j)) for j in g.neighbors(i))
    for dtype in (np.int64, np.int32):
        as_array = build_graph(np.asarray(pairs, dtype=dtype).reshape(-1, 2), n)
        np.testing.assert_array_equal(as_array.row_offsets, g.row_offsets)
        np.testing.assert_array_equal(as_array.col_indices, g.col_indices)
        assert as_array.col_indices.dtype == np.int64
        assert as_array.edge_count == g.edge_count


@pytest.mark.parametrize("n, pairs", [
    (6, [(0, 1), (1, 0), (1, 1), (4, 2), (2, 4), (5, 3), (3, 3)]),
    (3, [(0, 0), (2, 2)]), (4, np.empty((0, 2)))])
def test_build_graph_leaves_an_int64_input_unchanged(n, pairs):
    edges = np.asarray(pairs, dtype=np.int64)
    before = edges.copy()
    g = build_graph(edges, n)
    assert node_ids(edges) is edges  # passed through, never copied
    np.testing.assert_array_equal(edges, before)
    for out in (g.row_offsets, g.col_indices):
        assert not np.shares_memory(out, edges)


# the three assemblies of _shifted_laplacian at lambda_max = 2: a cycle has
# no isolated node; nodes 0, 3 and 7 are isolated among connected ones
CYCLE = (5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
ISOLATED_SPREAD = (8, [(1, 2), (2, 4), (4, 5), (5, 6), (6, 1)])


def assert_same_csr(got, want):
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@settings(max_examples=200, deadline=None)
@given(pair_lists())
@example((0, []))
@example((1, []))
@example((5, [(0, 1), (1, 2)]))
@example(CYCLE)
@example(ISOLATED_SPREAD)
def test_operators_equal_the_matrix_expressions_byte_for_byte(case):
    # the directly assembled operators against the scipy expressions they
    # replace, so every spmm result is unchanged
    n, pairs = case
    g = build_graph(pairs, n)
    deg = g.degrees()
    inv_sqrt = np.zeros(n)
    inv_sqrt[deg > 0] = 1.0 / np.sqrt(deg[deg > 0])
    d = sp.diags_array(inv_sqrt)
    want = sp.diags_array((deg > 0).astype(np.float64)) - d @ adjacency(g) @ d
    lap = normalized_laplacian(g)
    assert_same_csr(lap.matrix, want)
    estimate = max(estimate_lambda_max(lap), 1e-12)
    for lambda_max in (2.0, 1.7, estimate):
        assert_same_csr(chebyshev_operator(g, lambda_max).matrix,
                        (2.0 / lambda_max) * want - sp.eye_array(n))


@settings(max_examples=200, deadline=None)
@given(pair_lists(), st.just(2.0) | st.floats(0.05, 20.0))
@example((0, []), 2.0)
@example((1, []), 2.0)
@example((1, []), 1.7)
@example((4, []), 3.1)
@example((5, [(1, 2), (2, 3)]), 1e-310)  # 2 / lambda_max overflows to inf
@example((5, [(0, 1), (1, 2)]), 2.0)
@example((5, [(0, 1), (1, 2)]), 1.7)
@example(CYCLE, 2.0)
@example(CYCLE, 1.7)
@example(ISOLATED_SPREAD, 2.0)
@example(ISOLATED_SPREAD, 1.7)
def test_chebyshev_operator_equals_the_two_pass_build_byte_for_byte(
        case, lambda_max):
    # the operator assembled from the graph against normalized_laplacian
    # followed by (2 / lambda_max) L - I; isolated nodes keep their -1
    # diagonal entry
    n, pairs = case
    g = build_graph(pairs, n)
    op = chebyshev_operator(g, lambda_max)
    want = (2.0 / lambda_max) * normalized_laplacian(g).matrix - sp.eye_array(n)
    assert op.lambda_max == lambda_max
    assert op.matrix.shape == want.shape
    assert_same_csr(op.matrix, want)


def test_lambda_two_operator_shares_the_graph_index_arrays():
    g = build_graph(CYCLE[1], CYCLE[0])
    op = chebyshev_operator(g, 2.0).matrix
    assert np.shares_memory(op.indices, g.col_indices)
    assert np.shares_memory(op.indptr, g.row_offsets)


@pytest.mark.parametrize("case, build", [
    (CYCLE, lambda g: chebyshev_operator(g, 2.0)),  # shares the indices
    (ISOLATED_SPREAD, lambda g: chebyshev_operator(g, 2.0)),  # inserts
    (CYCLE, lambda g: chebyshev_operator(g, 1.7)),  # subtracts
    (ISOLATED_SPREAD, normalized_laplacian)])
def test_operators_never_write_the_graph(case, build):
    n, pairs = case
    g = build_graph(pairs, n)
    before = [a.tobytes() for a in (g.row_offsets, g.col_indices)]
    for a in (g.row_offsets, g.col_indices):
        a.flags.writeable = False
    build(g)
    assert [a.tobytes() for a in (g.row_offsets, g.col_indices)] == before


def test_lambda_two_operator_peak_is_bounded_by_its_values(traced_peak):
    # the products and one gather of D^{-1/2}, about 2.1 value arrays; a
    # second copy of the indices, as one sparse subtraction makes, exceeds it
    g = planted_partition_dataset(n=2000, p_in=0.02, p_out=0.002).graph
    assert g.degrees().min() > 0
    nnz = g.col_indices.size
    peak = traced_peak(lambda: chebyshev_operator(g, 2.0))[1]
    assert peak <= 2.5 * nnz * 8 + 32 * g.n


@settings(max_examples=200, deadline=None)
@given(pair_lists(), st.none() | st.integers(0, 4),
       st.sampled_from([np.float64, np.float32, np.int64]),
       st.integers(0, 1 << 32))
@example((0, []), 2, np.float64, 0)
@example((1, []), None, np.int64, 0)
@example((1, []), 3, np.float32, 0)
def test_spmm_matches_the_dense_product(case, cols, dtype, seed):
    # cols=None is an (n,) operand, otherwise (n, cols)
    n, pairs = case
    op = normalized_laplacian(build_graph(pairs, n))
    shape = (n,) if cols is None else (n, cols)
    rng = np.random.default_rng(seed)
    x = (rng.integers(-5, 6, size=shape) if dtype is np.int64
         else rng.standard_normal(shape)).astype(dtype)
    out = spmm(op, x)
    assert out.shape == shape
    assert out.dtype == (np.float64 if dtype is np.int64 else dtype)
    tol = 1e-6 if dtype is np.float32 else 1e-12
    np.testing.assert_allclose(out, op.to_dense() @ x.astype(np.float64),
                               rtol=tol, atol=tol)
    for rows in (n + 1, n - 1):
        if rows >= 0:
            with pytest.raises(ValueError, match="operand rows"):
                spmm(op, np.ones((rows,) + shape[1:], dtype=dtype))


class TestNormalizedLaplacian:
    def test_triangle_spectrum(self, triangle):
        lap = normalized_laplacian(triangle).to_dense()
        eig = np.sort(np.linalg.eigvalsh(lap))
        np.testing.assert_allclose(eig, [0.0, 1.5, 1.5], atol=1e-12)

    def test_single_edge_spectrum(self, single_edge):
        lap = normalized_laplacian(single_edge).to_dense()
        eig = np.sort(np.linalg.eigvalsh(lap))
        np.testing.assert_allclose(eig, [0.0, 2.0], atol=1e-12)

    def test_isolated_nodes_zero_matrix(self):
        lap = normalized_laplacian(build_graph([], 3))
        assert np.all(lap.to_dense() == 0.0)

    def test_entries(self, path5):
        dense = normalized_laplacian(path5).to_dense()
        # end node degree 1, middle degree 2
        assert dense[0, 0] == 1.0
        np.testing.assert_allclose(dense[0, 1], -1.0 / np.sqrt(2))
        np.testing.assert_allclose(dense[1, 2], -0.5)

    def test_spectrum_in_0_2_random_graphs(self):
        for seed in range(8):
            g = er_graph(30, 0.2, seed=seed)
            eig = np.linalg.eigvalsh(normalized_laplacian(g).to_dense())
            assert eig.min() > -1e-10
            assert eig.max() < 2.0 + 1e-10

    def test_symmetric(self):
        g = er_graph(25, 0.3, seed=4)
        dense = normalized_laplacian(g).to_dense()
        np.testing.assert_allclose(dense, dense.T, atol=1e-12)


class TestScaledLaplacian:
    def test_single_edge(self, single_edge):
        scaled = chebyshev_operator(single_edge, 2.0)
        eig = np.sort(np.linalg.eigvalsh(scaled.to_dense()))
        np.testing.assert_allclose(eig, [-1.0, 1.0], atol=1e-12)

    def test_zero_matrix_becomes_minus_identity(self):
        scaled = chebyshev_operator(build_graph([], 2), 2.0)
        np.testing.assert_allclose(scaled.to_dense(), -np.eye(2))

    def test_diagonal_shift(self, triangle):
        dense = chebyshev_operator(triangle, 2.0).to_dense()
        np.testing.assert_allclose(np.diag(dense), 0.0, atol=1e-15)

    def test_spectrum_in_unit_interval(self):
        for seed in range(6):
            g = er_graph(24, 0.25, seed=seed)
            dense = chebyshev_operator(g, 2.0).to_dense()
            eig = np.linalg.eigvalsh(dense)
            assert eig.min() > -1.0 - 1e-10
            assert eig.max() < 1.0 + 1e-10

    def test_rejects_nonpositive_lambda_max(self, triangle):
        # nan would fill the operator with NaN, and inf leave exactly -I
        for lambda_max in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="finite and positive"):
                chebyshev_operator(triangle, lambda_max)


class TestLambdaMax:
    def test_single_edge(self, single_edge):
        value = estimate_lambda_max(normalized_laplacian(single_edge))
        assert isinstance(value, float)
        assert value == pytest.approx(2.0, abs=1e-12) and value <= 2.0

    def test_triangle(self, triangle):
        value = estimate_lambda_max(normalized_laplacian(triangle))
        assert value == pytest.approx(1.5, abs=1e-12)

    def test_zero_matrix(self):
        assert estimate_lambda_max(normalized_laplacian(build_graph([], 4))) == 0.0


@st.composite
def spectrum_graphs(draw):
    """Up to three Erdos-Renyi blocks, each possibly empty or edgeless, side
    by side with no edges between them, then up to two isolated nodes: at
    most 512 nodes, the oracle's cap."""
    pairs, n = [], 0
    for _ in range(draw(st.integers(1, 3))):
        size = draw(st.integers(0, 170))
        block = er_graph(size, draw(st.floats(0.0, 0.3)),
                         seed=draw(st.integers(0, 2**32 - 1)))
        rows = np.repeat(np.arange(size), block.degrees())
        pairs.append(np.column_stack([rows, block.col_indices]) + n)
        n += size
    n += draw(st.integers(0, 2))
    return build_graph(np.concatenate(pairs), n)


@settings(max_examples=200, deadline=None)
@given(spectrum_graphs())
@example(build_graph([], 0))
@example(build_graph([], 1))
@example(build_graph([], 7))
@example(path_graph(200))
# theta + |beta_k s_k| gives 1.77036 here, below lambda_max = 1.77066
@example(er_graph(150, 1 / 30, seed=2))
def test_lanczos_estimate_bounds_the_spectrum(g):
    op = normalized_laplacian(g)
    top = eigendecompose(op).eigenvalues[-1] if g.n else 0.0
    value = estimate_lambda_max(op)
    assert top - 1e-12 <= value <= 2.0


class TestSpmm:
    def test_zero_operator(self):
        op = normalized_laplacian(build_graph([], 3))
        x = np.arange(6.0).reshape(3, 2)
        assert np.all(spmm(op, x) == 0.0)

    def test_diagonal_operator(self):
        # the scaled zero Laplacian is -I, a pure-diagonal operator
        op = chebyshev_operator(build_graph([], 2), 2.0)
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(spmm(op, x), -x)

    def test_constant_vector_in_nullspace(self, triangle):
        op = normalized_laplacian(triangle)
        np.testing.assert_allclose(spmm(op, np.ones(3)), 0.0, atol=1e-12)

    def test_matches_dense(self, rng):
        g = er_graph(35, 0.2, seed=3)
        op = normalized_laplacian(g)
        x = rng.standard_normal((35, 7))
        np.testing.assert_allclose(spmm(op, x), op.to_dense() @ x, atol=1e-12)

    def test_vector_and_matrix_agree(self, triangle, rng):
        op = normalized_laplacian(triangle)
        x = rng.standard_normal(3)
        np.testing.assert_allclose(spmm(op, x), spmm(op, x[:, None])[:, 0])

    def test_dimension_mismatch(self, triangle):
        with pytest.raises(ValueError):
            spmm(normalized_laplacian(triangle), np.ones((4, 2)))

    def test_float32_operand_stays_float32(self, triangle, rng):
        x = rng.standard_normal((3, 2)).astype(np.float32)
        assert spmm(normalized_laplacian(triangle), x).dtype == np.float32

    def test_vector_operand_gives_vector(self, triangle):
        out = spmm(normalized_laplacian(triangle), np.ones(3))
        assert out.shape == (3,)


class TestHopSets:
    """The hop-t set of v is {m : hop_distances(g, v)[m] == t}."""

    def test_path(self, path5):
        dist = hop_distances(path5, 0)
        assert np.flatnonzero(dist == 1).tolist() == [1]
        assert np.flatnonzero(dist == 2).tolist() == [2]
        assert np.flatnonzero((dist > 0) & (dist <= 2)).tolist() == [1, 2]

    def test_isolated(self):
        assert hop_distances(build_graph([], 2), 0).tolist() == [0, -1]

    def test_triangle(self, triangle):
        dist = hop_distances(triangle, 0)
        assert np.flatnonzero(dist == 1).tolist() == [1, 2]
        assert not np.any(dist == 2)

    def test_layers_partition_and_symmetry(self):
        g = er_graph(25, 0.15, seed=5)
        dist = np.array([hop_distances(g, v) for v in range(g.n)])
        assert np.array_equal(dist, dist.T)  # dist_v[m] == dist_m[v]
        for v in range(g.n):
            for m in np.flatnonzero(dist[v] > 0):
                # a node at t hops has a neighbor at t - 1 and none nearer
                around = dist[v, g.neighbors(m)]
                assert around.min() == dist[v, m] - 1

    def test_matches_csgraph_shortest_paths(self):
        g = er_graph(20, 0.2, seed=11)
        want = shortest_path(adjacency(g), unweighted=True)
        want[np.isinf(want)] = -1
        for v in range(g.n):
            np.testing.assert_array_equal(hop_distances(g, v), want[v])


def test_induced_subgraph_keeps_internal_edges(path5):
    sub, ids = induced_subgraph(path5, [0, 1, 3, 4])
    assert ids.tolist() == [0, 1, 3, 4]
    assert sub.edge_count == 2  # (0,1) and (3,4); the bridge through 2 is gone
    assert sub.degrees().tolist() == [1, 1, 1, 1]


@st.composite
def subgraph_cases(draw):
    """A pair_lists graph and a node list over it: unsorted, with repeats,
    possibly empty, and often holding isolated nodes."""
    n, pairs = draw(pair_lists())
    nodes = draw(st.lists(st.integers(0, n - 1), max_size=2 * n)
                 if n else st.just([]))
    return n, pairs, nodes


def scipy_induced_subgraph(g, nodes):
    """The scipy expression induced_subgraph replaced: slice the adjacency
    twice, keep its upper triangle and build the graph again."""
    keep = np.unique(node_ids(nodes, g.n))
    edges = sp.triu(adjacency(g)[keep][:, keep]).tocoo()
    return build_graph(np.column_stack([edges.row, edges.col]),
                       keep.size), keep


@settings(max_examples=200, deadline=None)
@given(subgraph_cases())
@example((0, [], []))
@example((1, [], []))
@example((1, [(0, 0)], [0, 0]))
@example((6, [(0, 1), (1, 2), (4, 5)], [5, 3, 1, 3, 0]))
@example((5, [(0, 1), (1, 2)], [4, 3]))
def test_induced_subgraph_equals_the_scipy_expression_byte_for_byte(case):
    n, pairs, nodes = case
    g = build_graph(pairs, n)
    want, want_ids = scipy_induced_subgraph(g, nodes)
    as_array = np.asarray(nodes, dtype=np.int64)
    for given_nodes in (nodes, as_array):
        sub, ids = induced_subgraph(g, given_nodes)
        assert as_array.tolist() == nodes  # the caller's ids stay unsorted
        assert sub.n == want.n and sub.edge_count == want.edge_count
        for got, ref in ((sub.row_offsets, want.row_offsets),
                         (sub.col_indices, want.col_indices),
                         (ids, want_ids)):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def random_graph_edges(n, seed=0):
    """Five random pairs per node, self-loops and repeats included."""
    return np.random.default_rng(seed).integers(0, n, size=(5 * n, 2))


def graph_bytes(g: Graph) -> int:
    return g.row_offsets.nbytes + g.col_indices.nbytes


def test_build_graph_peak_is_under_two_and_a_half_results(traced_peak):
    # the keys and the two-orientation buffer: three int64 per edge, about
    # 1.4 results
    n = 20_000
    edges = random_graph_edges(n)
    g, peak = traced_peak(lambda: build_graph(edges, n))
    assert peak < 2.5 * graph_bytes(g)


def test_induced_subgraph_peak_is_under_two_and_a_half_results(traced_peak):
    # the kept columns before and after relabelling, about two results when
    # most nodes are kept
    n = 20_000
    g = build_graph(random_graph_edges(n), n)
    nodes = np.random.default_rng(1).choice(n, size=4 * n // 5, replace=False)
    (sub, ids), peak = traced_peak(lambda: induced_subgraph(g, nodes))
    assert peak < 2.5 * (graph_bytes(sub) + ids.nbytes)


def test_path_graph_factory():
    g = path_graph(4)
    assert g.edge_count == 3
    assert hop_distances(g, 0).tolist() == [0, 1, 2, 3]
