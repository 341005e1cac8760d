import numpy as np
import pytest
import scipy.sparse as sp

from nodespec import polyfilter
from nodespec.graph import (SparseOperator, build_graph, chebyshev_operator,
                            normalized_laplacian, spmm)
from nodespec.oracle import SpectralFilter, eigendecompose, exact_filter
from nodespec.polyfilter import (BASES, basis_matrix, bernstein_change,
                                 combine, frequency_response, propagate)
from nodespec.synthetic import er_graph, path_graph


def _operators(graph):
    return {"monomial": normalized_laplacian(graph),
            "bernstein": chebyshev_operator(graph, 2.0),
            "chebyshev": chebyshev_operator(graph, 2.0)}


class TestPropagate:
    def test_chebyshev_first_layers(self, rng):
        g = er_graph(15, 0.3, seed=1)
        op = _operators(g)["chebyshev"]
        x = rng.standard_normal((15, 4))
        stack = propagate("chebyshev", op, x, 3)
        np.testing.assert_array_equal(stack.layers[0], x)
        np.testing.assert_allclose(stack.layers[1], spmm(op, x), atol=1e-14)

    def test_chebyshev_order_two_dense_oracle(self, rng):
        g = er_graph(12, 0.3, seed=2)
        op = _operators(g)["chebyshev"]
        x = rng.standard_normal((12, 3))
        stack = propagate("chebyshev", op, x, 2)
        dense = op.to_dense()
        expected = 2.0 * dense @ (dense @ x) - x
        np.testing.assert_allclose(stack.layers[2], expected, atol=1e-10)

    def test_chebyshev_matches_dense_polynomial_to_order_ten(self, rng):
        g = er_graph(14, 0.25, seed=3)
        op = _operators(g)["chebyshev"]
        x = rng.standard_normal((14, 2))
        stack = propagate("chebyshev", op, x, 10)
        dense = op.to_dense()
        t_prev, t_cur = np.eye(14), dense
        for k in range(2, 11):
            t_prev, t_cur = t_cur, 2.0 * dense @ t_cur - t_prev
            np.testing.assert_allclose(stack.layers[k], t_cur @ x, atol=1e-9)

    def test_monomial_delta_support(self):
        g = path_graph(5)
        op = _operators(g)["monomial"]
        delta = np.zeros((5, 1))
        delta[0, 0] = 1.0
        stack = propagate("monomial", op, delta, 2)
        assert np.all(stack.layers[2][3:] == 0.0)

    def test_monomial_layers_are_operator_powers(self, rng):
        g = er_graph(10, 0.4, seed=4)
        op = _operators(g)["monomial"]
        x = rng.standard_normal((10, 2))
        stack = propagate("monomial", op, x, 3)
        dense = op.to_dense()
        np.testing.assert_allclose(stack.layers[3],
                                   dense @ dense @ dense @ x, atol=1e-10)

    def test_bernstein_layers_sum_to_input(self, rng):
        # partition of unity at the operator level: sum_k layers[k] = X
        g = er_graph(13, 0.3, seed=5)
        op = _operators(g)["bernstein"]
        x = rng.standard_normal((13, 3))
        stack = propagate("bernstein", op, x, 6)
        np.testing.assert_allclose(sum(stack.layers), x, atol=1e-10)

    def test_operator_kind_enforced(self, rng):
        g = er_graph(8, 0.4, seed=6)
        ops = _operators(g)
        x = rng.standard_normal((8, 1))
        with pytest.raises(ValueError, match="chebyshev_operator"):
            propagate("chebyshev", ops["monomial"], x, 2)
        with pytest.raises(ValueError, match="normalized_laplacian"):
            propagate("monomial", ops["chebyshev"], x, 2)
        # bernstein needs the scaled Laplacian at exactly 2.0
        for op in (ops["monomial"], chebyshev_operator(g, 1.8)):
            with pytest.raises(ValueError, match="bernstein propagation"):
                polyfilter.polynomial_layers("bernstein", op, x, 2)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_stack_keeps_float_dtype(self, dtype, rng):
        g = er_graph(9, 0.4, seed=8)
        for basis, op in _operators(g).items():
            x = rng.standard_normal((9, 2)).astype(dtype)
            assert propagate(basis, op, x, 3).layers.dtype == dtype

    def test_integer_input_becomes_float64(self):
        g = er_graph(9, 0.4, seed=8)
        x = np.ones((9, 2), dtype=np.int64)
        stack = propagate("monomial", _operators(g)["monomial"], x, 2)
        assert stack.layers.dtype == np.float64
        np.testing.assert_array_equal(stack.layers[0], 1.0)

    def test_unknown_basis(self, rng):
        g = er_graph(8, 0.4, seed=7)
        with pytest.raises(ValueError, match="unknown basis"):
            propagate("jacobi", _operators(g)["monomial"],
                      rng.standard_normal((8, 1)), 2)


class TestBernsteinEngine:
    GRAPHS = {
        "random": er_graph(40, 0.15, seed=21),
        "edgeless": build_graph([], 6),
        "isolated": build_graph([(0, 1), (1, 2), (2, 3), (1, 4)], 9),
    }

    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    @pytest.mark.parametrize("order", [1, 2, 10, 20, 30, 40])
    def test_layers_match_exact_basis_filters(self, graph, order):
        # layer k is the k-th Bernstein basis filter applied to x
        g = self.GRAPHS[graph]
        lap = normalized_laplacian(g)
        es = eigendecompose(lap)
        x = np.random.default_rng(order).standard_normal((g.n, 2))
        stack = propagate("bernstein", chebyshev_operator(g, 2.0), x, order)
        for k, layer in enumerate(stack.layers):
            filt = SpectralFilter(
                lambda lam, k=k: basis_matrix("bernstein", order, lam)[:, k])
            np.testing.assert_allclose(layer, exact_filter(es, filt, x),
                                       rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("basis", BASES)
    def test_order_k_costs_k_products(self, basis, monkeypatch, rng):
        calls = []

        def counting_spmm(op, x):
            calls.append(op)
            return spmm(op, x)

        monkeypatch.setattr(polyfilter, "spmm", counting_spmm)
        g = er_graph(12, 0.3, seed=22)
        op = _operators(g)[basis]
        propagate(basis, op, rng.standard_normal((12, 2)), 10)
        assert len(calls) == 10

    @pytest.mark.parametrize("basis", BASES)
    def test_iter_layers_equal_the_stack(self, basis, rng):
        g = er_graph(12, 0.3, seed=23)
        x = rng.standard_normal((12, 3))
        op = _operators(g)[basis]
        stack = polyfilter.polynomial_layers(basis, op, x, 6)
        layers = list(polyfilter.iter_layers(basis, op, x, 6))
        assert len(layers) == 7
        for want, got in zip(stack, layers):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("basis", BASES)
    def test_layers_written_into_out_keep_their_bytes(self, basis, dtype,
                                                      rng):
        # x may already sit in layer 0 of out; Bernstein's mix into out is
        # the product tensordot forms
        g = er_graph(12, 0.3, seed=24)
        x = rng.standard_normal((12, 3)).astype(dtype)
        op = _operators(g)[basis]
        want = polyfilter.polynomial_layers(basis, op, x, 6)
        out = np.full_like(want, np.nan)
        assert polyfilter.polynomial_layers(basis, op, x, 6, out) is out
        assert out.tobytes() == want.tobytes()
        out = np.full_like(want, np.nan)
        out[0] = x
        polyfilter.polynomial_layers(basis, op, out[0], 6, out)
        assert out.tobytes() == want.tobytes()

    def test_out_of_another_shape_dtype_or_layout_is_rejected(self, rng):
        g = er_graph(12, 0.3, seed=25)
        x = rng.standard_normal((12, 3))
        op = _operators(g)["chebyshev"]
        for out in (np.empty((6, 12, 3)), np.empty((7, 12, 3), np.float32),
                    np.empty((7, 3, 12)).transpose(0, 2, 1)):
            with pytest.raises(ValueError, match="C-contiguous"):
                polyfilter.polynomial_layers("chebyshev", op, x, 6, out)

    @pytest.mark.parametrize("basis", ["monomial", "chebyshev"])
    def test_iter_layers_runs_one_product_per_layer_taken(self, basis,
                                                          monkeypatch, rng):
        calls = []

        def counting_spmm(op, x):
            calls.append(op)
            return spmm(op, x)

        monkeypatch.setattr(polyfilter, "spmm", counting_spmm)
        g = er_graph(12, 0.3, seed=22)
        layers = polyfilter.iter_layers(basis, _operators(g)[basis],
                                        rng.standard_normal((12, 2)), 10)
        assert calls == []
        for taken in range(1, 4):
            next(layers)
            assert len(calls) == taken - 1

    def test_iter_layers_checks_the_operator_before_the_first_layer(self,
                                                                    rng):
        g = er_graph(12, 0.3, seed=22)
        with pytest.raises(ValueError, match="chebyshev propagation"):
            polyfilter.iter_layers("chebyshev", normalized_laplacian(g),
                                   rng.standard_normal((12, 2)), 3)

    def test_change_of_basis_is_cached_and_read_only(self):
        change = bernstein_change(7)
        assert bernstein_change(7) is change
        assert change.shape == (8, 8) and not change.flags.writeable


class TestCombine:
    def test_order_zero_selector(self, rng):
        g = er_graph(10, 0.3, seed=9)
        x = rng.standard_normal((10, 4))
        stack = propagate("monomial", _operators(g)["monomial"], x, 3)
        psi = np.zeros((10, 4))
        psi[:, 0] = 1.0
        np.testing.assert_array_equal(combine(stack, psi), stack.layers[0])

    def test_constant_rows_equal_global_filter(self, rng):
        g = er_graph(10, 0.3, seed=10)
        x = rng.standard_normal((10, 2))
        stack = propagate("chebyshev", _operators(g)["chebyshev"], x, 4)
        gamma = rng.uniform(-1, 1, size=5)
        global_out = sum(c * layer for c, layer in zip(gamma, stack.layers))
        np.testing.assert_allclose(combine(stack, np.tile(gamma, (10, 1))),
                                   global_out, atol=1e-12)

    def test_random_psi_matches_row_loop(self, rng):
        g = er_graph(5, 0.5, seed=11)
        x = rng.standard_normal((5, 3))
        stack = propagate("monomial", _operators(g)["monomial"], x, 2)
        psi = rng.standard_normal((5, 3))
        out = combine(stack, psi)
        for i in range(5):
            expected = sum(psi[i, k] * stack.layers[k][i] for k in range(3))
            np.testing.assert_allclose(out[i], expected, atol=1e-12)

    def test_shape_mismatch(self, rng):
        g = er_graph(6, 0.5, seed=12)
        stack = propagate("monomial", _operators(g)["monomial"],
                          rng.standard_normal((6, 2)), 2)
        with pytest.raises(ValueError):
            combine(stack, np.zeros((6, 5)))


class TestFrequencyResponse:
    def test_order_zero_constant(self):
        grid = np.linspace(0, 2, 9)
        np.testing.assert_allclose(
            frequency_response("monomial", [1.0], grid), 1.0)
        np.testing.assert_allclose(
            frequency_response("chebyshev", [1.0], grid), 1.0)

    def test_bernstein_order_zero_term(self):
        grid = np.linspace(0, 2, 9)
        # a lone k=0 coefficient of a degree-0 expansion is the constant 1
        np.testing.assert_allclose(
            frequency_response("bernstein", [1.0], grid), 1.0)

    def test_bernstein_first_basis_element(self):
        grid = np.linspace(0, 2, 9)
        got = frequency_response("bernstein", [1.0, 0.0, 0.0, 0.0], grid)
        np.testing.assert_allclose(got, (1.0 - grid / 2.0) ** 3, atol=1e-14)

    def test_chebyshev_linear_term(self):
        grid = np.linspace(0, 2, 21)
        got = frequency_response("chebyshev", [0.0, 1.0], grid)
        np.testing.assert_allclose(got, grid - 1.0, atol=1e-14)

    def test_monomial_at_zero(self):
        np.testing.assert_allclose(
            frequency_response("monomial", [1.0, 1.0], [0.0]), [1.0])

    def test_bernstein_partition_of_unity(self):
        grid = np.linspace(0, 2, 33)
        total = frequency_response("bernstein", np.ones(8), grid)
        np.testing.assert_allclose(total, 1.0, atol=1e-12)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            frequency_response("monomial", [1.0], [2.5])

    @pytest.mark.parametrize("basis, coeffs, message", [
        ("legendre", [1.0], "unknown basis 'legendre'"),
        ("chebyshev", [], "at least one coefficient"),
        ("bernstein", [], "at least one coefficient")],
        ids=["unknown-basis", "no-coefficients", "no-bernstein-coefficients"])
    def test_bad_filter_rejected(self, basis, coeffs, message):
        with pytest.raises(ValueError, match=message):
            frequency_response(basis, coeffs, [0.5])

    @pytest.mark.parametrize("order", [0, 1, 2, 10])
    @pytest.mark.parametrize("basis, lambda_max", [
        ("monomial", None), ("chebyshev", 2.0), ("chebyshev", 1.7),
        ("bernstein", 2.0)])
    def test_tabulation_is_propagation_on_a_diagonal_operator(
            self, basis, lambda_max, order):
        # p_k(t) = p_k(diag t) 1, t the grid in the basis's own variable
        grid = np.concatenate([[0.0, 2.0], np.linspace(0.0, 2.0, 37)[1:-1],
                               np.random.default_rng(5).uniform(0, 2, 24)])
        t = {"monomial": grid, "bernstein": grid - 1.0,
             "chebyshev": 2.0 * grid / (lambda_max or 2.0) - 1.0}[basis]
        op = SparseOperator(sp.csr_array(sp.diags_array(t)), lambda_max)
        layers = polyfilter.polynomial_layers(basis, op,
                                              np.ones((grid.size, 1)), order)
        table = basis_matrix(basis, order, grid, lambda_max or 2.0)
        assert table.shape == (grid.size, order + 1)
        if basis == "bernstein":
            np.testing.assert_allclose(table, layers[:, :, 0].T, rtol=0,
                                       atol=1e-12)
        else:
            np.testing.assert_array_equal(table, layers[:, :, 0].T)


class TestOracleEquivalence:
    def test_all_bases_match_exact_filter(self, rng):
        for trial in range(6):
            n = int(rng.integers(8, 33))
            g = er_graph(n, 0.25, seed=100 + trial)
            lap = normalized_laplacian(g)
            es = eigendecompose(lap)
            ops = _operators(g)
            x = rng.standard_normal(n)
            order = int(rng.integers(0, 9))
            coeffs = rng.uniform(-1, 1, size=order + 1)
            for basis in BASES:
                stack = propagate(basis, ops[basis], x[:, None], order)
                z = combine(stack, np.tile(coeffs, (n, 1)))[:, 0]
                filt = SpectralFilter(
                    lambda lam, b=basis: frequency_response(b, coeffs, lam))
                np.testing.assert_allclose(z, exact_filter(es, filt, x),
                                           atol=1e-10)

    def test_locality_delta_input(self, rng):
        g = path_graph(8)
        ops = _operators(g)
        delta = np.zeros((8, 1))
        delta[2, 0] = 1.0
        for basis in BASES:
            stack = propagate(basis, ops[basis], delta, 3)
            psi = rng.standard_normal((8, 4))
            out = combine(stack, psi)[:, 0]
            assert abs(out[6]) <= 1e-12 and abs(out[7]) <= 1e-12
