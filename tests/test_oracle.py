import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nodespec.graph import (SparseOperator, build_graph, normalized_laplacian,
                            spmm)
from nodespec.model import TrainConfig, build_operator
from nodespec.oracle import (SpectralFilter, eigendecompose, exact_filter,
                             filter_at_node, localization_check,
                             run_oracle_checks, translate_filter)
from nodespec.polyfilter import BASES, combine, frequency_response, propagate
from nodespec.synthetic import er_graph, path_graph, random_tree


def dense_operator(a):
    return SparseOperator(sp.csr_array(a))


class TestEigendecompose:
    def test_single_edge_closed_form(self, single_edge):
        es = eigendecompose(normalized_laplacian(single_edge))
        np.testing.assert_allclose(es.eigenvalues, [0.0, 2.0], atol=1e-12)

    def test_triangle_closed_form(self, triangle):
        es = eigendecompose(normalized_laplacian(triangle))
        np.testing.assert_allclose(es.eigenvalues, [0.0, 1.5, 1.5], atol=1e-12)

    def test_zero_matrix_reconstruction_only(self):
        op = normalized_laplacian(build_graph([], 3))
        es = eigendecompose(op)
        np.testing.assert_allclose(es.eigenvalues, 0.0, atol=1e-15)
        recon = (es.basis * es.eigenvalues) @ es.basis.T
        np.testing.assert_allclose(recon, 0.0, atol=1e-12)

    def test_cap_enforced(self):
        op = normalized_laplacian(build_graph([], 5))
        with pytest.raises(ValueError, match="cap"):
            eigendecompose(op, cap=4)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            eigendecompose(dense_operator([[0.0, 1.0], [0.0, 0.0]]))

    def test_ascending_order(self, rng):
        a = rng.standard_normal((12, 12))
        es = eigendecompose(dense_operator(a + a.T))
        assert np.all(np.diff(es.eigenvalues) >= 0)

    def test_reconstruction_bound(self):
        for seed in range(5):
            g = er_graph(30, 0.2, seed=seed)
            op = normalized_laplacian(g)
            es = eigendecompose(op)
            recon = (es.basis * es.eigenvalues) @ es.basis.T
            assert np.max(np.abs(recon - op.to_dense())) <= 1e-8


class TestExactFilter:
    def test_identity_gain(self, rng):
        g = er_graph(16, 0.3, seed=1)
        es = eigendecompose(normalized_laplacian(g))
        x = rng.standard_normal(16)
        z = exact_filter(es, SpectralFilter(lambda lam: np.ones_like(lam)), x)
        np.testing.assert_allclose(z, x, atol=1e-10)

    def test_zero_gain(self, rng):
        g = er_graph(10, 0.4, seed=2)
        es = eigendecompose(normalized_laplacian(g))
        z = exact_filter(es, SpectralFilter(lambda lam: 0.0 * lam),
                         rng.standard_normal(10))
        np.testing.assert_allclose(z, 0.0, atol=1e-12)

    def test_lambda_gain_equals_operator(self, rng):
        g = er_graph(20, 0.25, seed=3)
        op = normalized_laplacian(g)
        es = eigendecompose(op)
        x = rng.standard_normal(20)
        z = exact_filter(es, SpectralFilter(lambda lam: lam), x)
        np.testing.assert_allclose(z, spmm(op, x), atol=1e-9)

    def test_tabulated_response(self, single_edge, rng):
        es = eigendecompose(normalized_laplacian(single_edge))
        x = rng.standard_normal(2)
        z_call = exact_filter(es, SpectralFilter(lambda lam: lam ** 2), x)
        z_tab = exact_filter(es, SpectralFilter(es.eigenvalues ** 2), x)
        np.testing.assert_allclose(z_call, z_tab, atol=1e-14)

    def test_matrix_signal(self, rng):
        g = er_graph(12, 0.3, seed=4)
        es = eigendecompose(normalized_laplacian(g))
        x = rng.standard_normal((12, 3))
        z = exact_filter(es, SpectralFilter(lambda lam: np.ones_like(lam)), x)
        np.testing.assert_allclose(z, x, atol=1e-10)


class TestTranslateFilter:
    def test_unit_gain_gives_scaled_delta(self, rng):
        g = er_graph(14, 0.3, seed=5)
        es = eigendecompose(normalized_laplacian(g))
        for i in (0, 7, 13):
            t = translate_filter(es, SpectralFilter(np.ones(14)), i)
            delta = np.zeros(14)
            delta[i] = np.sqrt(14)
            np.testing.assert_allclose(t, delta, atol=1e-9)

    def test_zero_gain(self):
        g = path_graph(6)
        es = eigendecompose(normalized_laplacian(g))
        t = translate_filter(es, SpectralFilter(np.zeros(6)), 2)
        np.testing.assert_allclose(t, 0.0, atol=1e-15)

    def test_polynomial_gain_is_localized(self):
        # a degree-K gain translated to i must vanish past K hops
        from nodespec.polyfilter import frequency_response
        g = path_graph(9)
        es = eigendecompose(normalized_laplacian(g))
        coeffs = np.array([0.3, -0.7, 0.2])  # degree 2
        filt = SpectralFilter(
            lambda lam: frequency_response("monomial", coeffs, lam))
        t = translate_filter(es, filt, 0)
        np.testing.assert_allclose(t[3:], 0.0, atol=1e-9)


class TestFilterAtNode:
    def test_explicit_formula(self, rng):
        g = er_graph(11, 0.35, seed=6)
        es = eigendecompose(normalized_laplacian(g))
        x = rng.standard_normal(11)
        gains = 1.0 / (1.0 + es.eigenvalues)
        i = 4
        expected = es.basis @ (np.sqrt(11) * es.basis[i, :] * gains
                               * (es.basis.T @ x))
        got = filter_at_node(es, SpectralFilter(gains), x, i)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_zero_signal(self):
        g = path_graph(5)
        es = eigendecompose(normalized_laplacian(g))
        z = filter_at_node(es, SpectralFilter(np.ones(5)), np.zeros(5), 1)
        np.testing.assert_allclose(z, 0.0, atol=1e-15)

    def test_polynomial_gain_support(self):
        # localization is exact when the signal spectrum times the gain is a
        # polynomial; a flat-spectrum signal isolates the degree-2 gain
        from nodespec.polyfilter import frequency_response
        g = path_graph(10)
        es = eigendecompose(normalized_laplacian(g))
        coeffs = np.array([0.5, 0.5, -0.25])
        filt = SpectralFilter(
            lambda lam: frequency_response("monomial", coeffs, lam))
        flat = es.basis @ np.ones(10)
        z = filter_at_node(es, filt, flat, 0)
        assert np.max(np.abs(z[3:])) <= 1e-9


class TestLocalizationCheck:
    def test_path_degree_two(self):
        g = path_graph(5)
        leak = localization_check(g, "monomial", [1.0, -0.5, 0.25], 0)
        assert leak <= 1e-12

    def test_order_at_least_diameter(self, triangle):
        leak = localization_check(triangle, "chebyshev", [1.0, 0.5], 0)
        assert leak == 0.0  # nothing beyond 1 hop in a triangle

    def test_random_trees(self):
        rng = np.random.default_rng(13)
        for t in range(10):
            g = random_tree(30, seed=t)
            coeffs = rng.uniform(-1, 1, size=4)
            leak = localization_check(g, "bernstein", coeffs,
                                      int(rng.integers(0, 30)))
            assert leak <= 1e-12


    @pytest.mark.parametrize("order", [10, 40])
    def test_bernstein_leaks_nothing_at_high_order(self, order):
        coeffs = np.random.default_rng(order).uniform(-1, 1, size=order + 1)
        assert localization_check(path_graph(60), "bernstein", coeffs, 3) == 0.0


def test_run_oracle_checks_bounds():
    errors = run_oracle_checks(max_nodes=24, trials=8, seed=42)
    assert errors["spectral_equivalence"] <= 1e-10
    assert errors["translate_delta"] <= 1e-9
    assert errors["localization_leak"] <= 1e-12
    assert errors["reconstruction"] <= 1e-8


@st.composite
def graphs_signals_coefficients(draw):
    """A graph on 1..20 nodes (isolated nodes and edgeless graphs allowed), a
    signal on it, and node-constant coefficients of order 0..8."""
    n = draw(st.integers(1, 20))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    unit = st.floats(-1.0, 1.0)
    x = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    coeffs = np.array(draw(st.lists(unit, min_size=1, max_size=9)))
    return build_graph(edges, n), x, coeffs


@settings(max_examples=60, deadline=None)
@given(graphs_signals_coefficients())
# always cover the edgeless graph, and isolated nodes next to edges
@example((build_graph([], 5), np.arange(5.0) - 2.0,
          np.array([0.3, -0.5, 0.25])))
@example((build_graph([(0, 1), (1, 2)], 6), np.linspace(-1.0, 1.0, 6),
          np.array([1.0, 0.5, -0.2, 0.1])))
def test_node_constant_filter_matches_exact_filter(case):
    g, x, coeffs = case
    es = eigendecompose(normalized_laplacian(g))
    psi = np.tile(coeffs, (g.n, 1))
    for basis in BASES:
        op = build_operator(g, TrainConfig(basis=basis))
        z = combine(propagate(basis, op, x[:, None], coeffs.size - 1), psi)
        filt = SpectralFilter(
            lambda lam, b=basis: frequency_response(b, coeffs, lam))
        gap = np.max(np.abs(z[:, 0] - exact_filter(es, filt, x)))
        assert gap <= 1e-10, (basis, gap)
