"""Exact spectral filtering on small graphs, for ground-truth testing.

Everything here goes through a dense eigendecomposition of the Laplacian by
LAPACK (``numpy.linalg.eigh``), so results are exact up to machine rounding
and independent of the polynomial recursions they arbitrate. Strictly a
test/diagnostic surface: the decomposition is capped and never used in
training.
"""

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .graph import (Graph, SparseOperator, hop_distances, node_ids,
                    normalized_laplacian)
from .model import TrainConfig, build_operator
from .polyfilter import BASES, combine, frequency_response, propagate
from .synthetic import er_graph, path_graph, random_tree

DEFAULT_EIGEN_CAP = 512


@dataclass(frozen=True)
class EigenSystem:
    """Orthonormal basis (columns) and ascending eigenvalues of an operator."""

    basis: np.ndarray
    eigenvalues: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.size


@dataclass(frozen=True)
class SpectralFilter:
    """Per-frequency gain, either a callable on eigenvalues or a table."""

    response: Union[Callable[[np.ndarray], np.ndarray], np.ndarray]

    def values(self, eigenvalues: np.ndarray) -> np.ndarray:
        if callable(self.response):
            out = np.asarray(self.response(np.asarray(eigenvalues, dtype=np.float64)),
                             dtype=np.float64)
            if out.shape != np.shape(eigenvalues):
                out = np.broadcast_to(out, np.shape(eigenvalues)).astype(np.float64)
        else:
            out = np.asarray(self.response, dtype=np.float64)
            if out.shape != np.shape(eigenvalues):
                raise ValueError("tabulated response length != eigenvalue count")
        if not np.all(np.isfinite(out)):
            raise ValueError("filter response must be finite at all eigenvalues")
        return out


def eigendecompose(op: SparseOperator, cap: int = DEFAULT_EIGEN_CAP) -> EigenSystem:
    """Dense eigendecomposition of a sparse symmetric operator.

    Eigenvalues come back ascending. Raises ValueError past the cap and for a
    matrix that is not symmetric to 1e-12.
    """
    if op.n > cap:
        raise ValueError(f"operator dimension {op.n} exceeds oracle cap {cap}")
    dense = op.to_dense()
    if not np.allclose(dense, dense.T, atol=1e-12, rtol=0.0):
        raise ValueError("operator must be symmetric")
    eigenvalues, basis = np.linalg.eigh(dense)
    return EigenSystem(basis=basis, eigenvalues=eigenvalues)


def exact_filter(es: EigenSystem, filt: SpectralFilter, x: np.ndarray) -> np.ndarray:
    """Apply the filter in the eigenbasis: U diag(g(lambda)) U^T x."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != es.n:
        raise ValueError("signal length does not match basis dimension")
    gains = filt.values(es.eigenvalues)
    xhat = es.basis.T @ x
    if x.ndim == 1:
        return es.basis @ (gains * xhat)
    return es.basis @ (gains[:, None] * xhat)


def translate_filter(es: EigenSystem, filt: SpectralFilter, i: int) -> np.ndarray:
    """Center the filter signal at node i: sqrt(n) sum_l u_l u_l(i) g(lambda_l)."""
    gains = filt.values(es.eigenvalues)
    return np.sqrt(es.n) * (es.basis @ (gains * es.basis[node_ids(i, es.n)]))


def filter_at_node(es: EigenSystem, filt: SpectralFilter, x: np.ndarray,
                   i: int) -> np.ndarray:
    """Convolve x with the filter translated to node i.

    The node-centered gain is g_i(lambda_l) = sqrt(n) u_l(i) g(lambda_l).
    """
    i = node_ids(i, es.n)
    x = np.asarray(x, dtype=np.float64)
    gains_i = np.sqrt(es.n) * es.basis[i, :] * filt.values(es.eigenvalues)
    return es.basis @ (gains_i * (es.basis.T @ x))


def localization_check(g: Graph, basis: str, coeffs, i: int) -> float:
    """Maximum filtered magnitude leaked beyond K hops for a delta at node i.

    The delta signal is pushed through the sparse polynomial pipeline with
    node-constant coefficients; a degree-K polynomial filter must vanish at
    hop distance > K, so the returned leak is the localization defect.
    """
    dist = hop_distances(g, i)  # reads i before delta[i] does
    coeffs = np.asarray(coeffs, dtype=np.float64)
    order = coeffs.size - 1
    op = build_operator(g, TrainConfig(basis=basis))
    delta = np.zeros(g.n)
    delta[i] = 1.0
    stack = propagate(basis, op, delta[:, None], order)
    psi = np.tile(coeffs, (g.n, 1))
    z = combine(stack, psi)[:, 0]
    # unreachable nodes (distance -1) are beyond any K as well
    outside = (dist > order) | (dist < 0)
    if not np.any(outside):
        return 0.0
    return float(np.max(np.abs(z[outside])))


def run_oracle_checks(max_nodes: int = 64, trials: int = 50,
                      max_order: int = 10, seed: int = 0) -> dict:
    """Consistency sweep of the sparse pipeline against the dense oracle.

    Returns worst-case errors over random graphs:

    * ``spectral_equivalence`` - node-constant combine vs exact_filter with
      the matching scalar response, all three bases.
    * ``node_filter``          - combine with a random coefficient row per
      node vs each node's own filter translated to it, ``translate_filter``
      row i times x over sqrt(n), all three bases.
    * ``translate_delta``      - unit-gain translation vs sqrt(n) delta_i.
    * ``localization_leak``    - degree-K delta filtering beyond K hops on
      random trees and paths.
    * ``reconstruction``       - eigendecomposition residual in max norm.
    """
    rng = np.random.default_rng(seed)
    # the per-node rows draw from a stream of their own, so the other checks
    # see the graphs and signals they see without them
    psi_rng = np.random.default_rng((seed, 1))
    errors = {"spectral_equivalence": 0.0, "node_filter": 0.0,
              "translate_delta": 0.0, "localization_leak": 0.0,
              "reconstruction": 0.0}

    for _ in range(trials):
        n = int(rng.integers(8, max_nodes + 1))
        g = er_graph(n, 0.2, seed=int(rng.integers(2 ** 31)))
        lap = normalized_laplacian(g)
        es = eigendecompose(lap)
        dense = lap.to_dense()
        recon = (es.basis * es.eigenvalues) @ es.basis.T - dense
        errors["reconstruction"] = max(errors["reconstruction"],
                                       float(np.max(np.abs(recon))))
        x = rng.standard_normal(n)
        order = int(rng.integers(0, max_order + 1))
        coeffs = rng.uniform(-1.0, 1.0, size=order + 1)
        for basis in BASES:
            op = build_operator(g, TrainConfig(basis=basis))
            stack = propagate(basis, op, x[:, None], order)
            z = combine(stack, np.tile(coeffs, (n, 1)))[:, 0]
            filt = SpectralFilter(
                lambda lam, b=basis, c=coeffs: frequency_response(b, c, lam))
            gap = float(np.max(np.abs(z - exact_filter(es, filt, x))))
            errors["spectral_equivalence"] = max(
                errors["spectral_equivalence"], gap)
            psi = psi_rng.uniform(-1.0, 1.0, size=(n, order + 1))
            rows = combine(stack, psi)[:, 0]
            exact = np.array([translate_filter(es, SpectralFilter(
                lambda lam, b=basis, c=psi[i]: frequency_response(b, c, lam)),
                i) @ x for i in range(n)]) / np.sqrt(n)
            errors["node_filter"] = max(errors["node_filter"],
                                        float(np.max(np.abs(rows - exact))))
        i = int(rng.integers(0, n))
        translated = translate_filter(es, SpectralFilter(np.ones(n)), i)
        delta = np.zeros(n)
        delta[i] = np.sqrt(n)
        errors["translate_delta"] = max(
            errors["translate_delta"], float(np.max(np.abs(translated - delta))))

    for t in range(trials):
        n = int(rng.integers(8, 41))
        g = (path_graph(n) if t % 2 == 0
             else random_tree(n, seed=int(rng.integers(2 ** 31))))
        order = int(rng.integers(1, 5))
        coeffs = rng.uniform(-1.0, 1.0, size=order + 1)
        basis = BASES[t % 3]
        leak = localization_check(g, basis, coeffs, int(rng.integers(0, n)))
        errors["localization_leak"] = max(errors["localization_leak"], leak)
    return errors

