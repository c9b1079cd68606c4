"""Spectral clustering via weighted Kernel K-means.

The paper's background (Sec. 2.2) notes Kernel K-means "has also been
shown to be equivalent to spectral clustering" (Dhillon, Guan & Kulis,
KDD 2004).  This module implements that equivalence as a working
algorithm.  Given an affinity matrix ``A`` with degrees
``d_i = sum_j A_ij``, the normalized-cut objective over k clusters equals
(up to a constant) the *weighted* Kernel K-means objective with

    weights  w = d,
    kernel   K = sigma * D^{-1} + D^{-1} A D^{-1}.

``sigma >= 1`` makes K positive semi-definite (``x^T K x =
y^T (sigma D + A) y`` with ``y = D^{-1} x``, and the normalized adjacency
has spectrum in [-1, 1]), so the monotone-descent guarantee applies.

**Initialisation matters.**  On normalized-cut kernels the landscape is
flat under random initialisation (the ``sigma D^{-1}`` diagonal dominates)
and Lloyd-style alternation stalls immediately — Dhillon et al. address
this with multilevel coarsening.  We instead seed with *orthogonal (power)
iteration* on the symmetric normalized adjacency ``S = D^{-1/2} A D^{-1/2}``:
a few hundred SpMMs (our own sparse kernel — squarely the paper's
matrix-centric toolbox) converge to the dominant eigenspace without any
dense eigendecomposition; k-means on the ``D^{-1/2}``-scaled, row-normalised
iterate provides the initial labels, and weighted Kernel K-means refinement
then monotonically improves the normalized cut.

Graph handling uses :mod:`networkx`: point clouds become kNN graphs, and
arbitrary ``networkx`` graphs can be clustered directly.
"""

from __future__ import annotations

from typing import Optional

import networkx as nx
import numpy as np

from .._typing import as_matrix, check_finite
from ..baselines.lloyd import LloydKMeans
from ..config import DEFAULT_CONFIG
from ..core.weighted import WeightedPopcornKernelKMeans
from ..engine.base import BaseKernelKMeans, shared_params
from ..errors import ConfigError, ShapeError
from ..estimators import register_estimator
from ..params import ParamSpec
from ..sparse import from_dense, spmm

__all__ = [
    "knn_graph",
    "ncut_kernel",
    "power_iteration_embedding",
    "SpectralKernelKMeans",
    "cluster_graph",
]


def knn_graph(x: np.ndarray, n_neighbors: int = 10, *, mode: str = "distance") -> nx.Graph:
    """Symmetric k-nearest-neighbour graph of a point cloud.

    ``mode='connectivity'`` gives 0/1 edges; ``mode='distance'`` weights
    edges by a local-scale heat kernel ``exp(-||x_i - x_j||^2 / (s_i s_j))``
    with ``s_i`` the distance to the ``n_neighbors``-th neighbour
    (Zelnik-Manor & Perona self-tuning scale).
    """
    xm = as_matrix(x, dtype=np.float64, name="x")
    n = xm.shape[0]
    if not (1 <= n_neighbors < n):
        raise ConfigError(f"n_neighbors must be in [1, n), got {n_neighbors}")
    if mode not in ("connectivity", "distance"):
        raise ConfigError(f"mode must be 'connectivity' or 'distance', got {mode!r}")
    sq = (
        (xm**2).sum(axis=1)[:, None]
        - 2.0 * xm @ xm.T
        + (xm**2).sum(axis=1)[None, :]
    )
    np.fill_diagonal(sq, np.inf)
    nbrs = np.argpartition(sq, n_neighbors, axis=1)[:, :n_neighbors]
    g = nx.Graph()
    g.add_nodes_from(range(n))
    if mode == "distance":
        kth = np.sqrt(np.take_along_axis(sq, nbrs, axis=1).max(axis=1))
        kth = np.maximum(kth, 1e-12)
    for i in range(n):
        for j in nbrs[i]:
            j = int(j)
            if mode == "connectivity":
                g.add_edge(i, j, weight=1.0)
            else:
                w = float(np.exp(-sq[i, j] / (kth[i] * kth[j])))
                g.add_edge(i, j, weight=max(w, 1e-12))
    return g


def ncut_kernel(adjacency: np.ndarray, *, sigma: float = 1.0) -> tuple:
    """The Dhillon et al. normalized-cut kernel and weights.

    Returns ``(K, w)`` with ``K = sigma * D^{-1} + D^{-1} A D^{-1}`` and
    ``w = d`` (degrees).  Isolated vertices (zero degree) are given a unit
    self-degree so K stays finite; they end up in arbitrary clusters.
    """
    a = as_matrix(adjacency, dtype=np.float64, name="adjacency")
    n = a.shape[0]
    if a.shape != (n, n):
        raise ShapeError("adjacency must be square")
    if np.any(a < 0):
        raise ConfigError("adjacency must be non-negative")
    if not np.allclose(a, a.T, atol=1e-10):
        raise ConfigError("adjacency must be symmetric")
    if sigma < 1.0:
        raise ConfigError("sigma must be >= 1 for a PSD normalized-cut kernel")
    d = a.sum(axis=1)
    d = np.where(d > 0, d, 1.0)
    inv_d = 1.0 / d
    k = inv_d[:, None] * a * inv_d[None, :]
    k[np.diag_indices(n)] += sigma * inv_d
    return k, d


def power_iteration_embedding(
    adjacency: np.ndarray,
    k: int,
    *,
    iters: int = 2000,
    tol: float = 1e-8,
    oversample: int = 4,
    seed: int | None = None,
) -> np.ndarray:
    """Spectral embedding via orthogonal iteration with sparse SpMM.

    Runs ``v <- S v; v <- qr(v)`` on the symmetric normalized adjacency
    ``S = D^{-1/2} A D^{-1/2}``, converging to its dominant k-dimensional
    eigenspace; the normalized-cut indicators are ``D^{-1/2}`` times that
    basis, row-normalised.  The only dense linear algebra is a skinny QR;
    the matrix products are CSR SpMMs, matching the paper's thesis that
    sparse primitives carry the whole pipeline.

    ``oversample`` extra guard columns accelerate convergence of the
    leading k-dimensional subspace when the eigengap at k is small (the
    top-k block then converges at rate ``lambda_{k+oversample+1} /
    lambda_k`` instead of ``lambda_{k+1} / lambda_k``); iteration stops
    early once the subspace stabilises (largest principal-angle change
    below ``tol``).
    """
    a = as_matrix(adjacency, dtype=np.float64, name="adjacency")
    n = a.shape[0]
    if a.shape != (n, n):
        raise ShapeError("adjacency must be square")
    if not (1 <= k <= n):
        raise ConfigError(f"k must satisfy 1 <= k <= n, got {k}")
    if iters < 1:
        raise ConfigError("iters must be >= 1")
    d = a.sum(axis=1)
    d = np.where(d > 0, d, 1.0)
    dm = 1.0 / np.sqrt(d)
    # iterate on the *lazy* operator (S + I) / 2: its spectrum is
    # (lambda + 1) / 2 in [0, 1], monotone in lambda, so the dominant
    # |eigenvalue| subspace is exactly the top *signed* eigenspace of S —
    # plain S would let strongly negative (oscillatory) eigenvalues win.
    lazy = 0.5 * (dm[:, None] * a * dm[None, :])
    lazy[np.diag_indices(n)] += 0.5
    s = from_dense(lazy)
    rng = np.random.default_rng(DEFAULT_CONFIG.seed if seed is None else seed)
    p = min(n, k + max(2, int(oversample)))
    v = rng.standard_normal((n, p))
    v, _ = np.linalg.qr(v)
    check_every = 25
    ritz = v[:, :k]
    for it in range(1, iters + 1):
        v = spmm(s, np.ascontiguousarray(v))
        v, _ = np.linalg.qr(v)
        if it % check_every == 0 or it == iters:
            # Rayleigh-Ritz on the p-dimensional iterate: a p x p dense
            # eigensolve (p ~ k + 4, constant-sized) extracts the best
            # eigenvector approximations inside the subspace and gives a
            # proper residual-based stopping test.
            sv = spmm(s, np.ascontiguousarray(v))
            t = v.T @ sv
            t = 0.5 * (t + t.T)
            theta, q = np.linalg.eigh(t)
            order = np.argsort(theta)[::-1][:k]
            ritz = v @ q[:, order]
            resid = sv @ q[:, order] - ritz * theta[order][None, :]
            if np.linalg.norm(resid, axis=0).max() < max(tol, 1e-10) ** 0.5:
                break
    emb = dm[:, None] * ritz
    norms = np.linalg.norm(emb, axis=1, keepdims=True)
    return emb / np.maximum(norms, 1e-12)


def _cluster_adjacency(
    a: np.ndarray,
    n_clusters: int,
    *,
    sigma: float,
    n_init: int,
    max_iter: int,
    power_iters: int,
    seed: int | None,
    backend: str = "auto",
):
    """Shared engine: power-iteration init + weighted KKM refinement."""
    rng = np.random.default_rng(DEFAULT_CONFIG.seed if seed is None else seed)
    k_mat, w = ncut_kernel(a, sigma=sigma)
    emb = power_iteration_embedding(a, n_clusters, iters=power_iters,
                                    seed=int(rng.integers(2**31)))
    best = None
    for _ in range(n_init):
        init = LloydKMeans(
            n_clusters, init="k-means++", seed=int(rng.integers(2**31))
        ).fit(emb).labels_
        cand = WeightedPopcornKernelKMeans(
            n_clusters, max_iter=max_iter, seed=int(rng.integers(2**31)),
            backend=backend,
        ).fit(kernel_matrix=k_mat, sample_weight=w, init_labels=init)
        if best is None or cand.objective_ < best.objective_:
            best = cand
    return best


@register_estimator("spectral")
class SpectralKernelKMeans(BaseKernelKMeans):
    """Normalized-cut spectral clustering without dense eigendecomposition.

    Pipeline: point cloud -> kNN affinity graph -> power-iteration
    spectral init -> weighted Kernel K-means refinement (multiple inits,
    best normalized-cut objective wins).  Solves geometries where plain
    kernel k-means struggles (interleaved moons) because the kNN graph
    encodes connectivity rather than radial similarity.

    The refinement runs on the shared engine through
    :class:`~repro.core.WeightedPopcornKernelKMeans`; ``backend=`` is
    forwarded, so ``backend="device"`` executes every refinement on the
    simulated GPU with modeled timings.
    """

    _default_backend = "host"

    #: the normalized-cut pipeline is float64 with a fixed refinement tol
    dtype = np.dtype(np.float64)
    tol = 1e-6

    _params = shared_params(
        "n_clusters",
        "backend",
        "n_init",
        "max_iter",
        "seed",
        n_init={"default": 4},
        max_iter={"default": 100},
    ) + (
        ParamSpec("n_neighbors", default=10, convert=int, low=1),
        ParamSpec("mode", default="distance", choices=("connectivity", "distance")),
        ParamSpec("sigma", default=1.0, convert=float),
        ParamSpec("power_iters", default=2000, convert=int, low=1),
    )

    def __init__(
        self,
        n_clusters: int,
        *,
        n_neighbors: int = 10,
        mode: str = "distance",
        sigma: float = 1.0,
        backend: str = "auto",
        n_init: int = 4,
        max_iter: int = 100,
        power_iters: int = 2000,
        seed: int | None = None,
    ) -> None:
        self._init_params(
            n_clusters=n_clusters,
            n_neighbors=n_neighbors,
            mode=mode,
            sigma=sigma,
            backend=backend,
            n_init=n_init,
            max_iter=max_iter,
            power_iters=power_iters,
            seed=seed,
        )

    def fit(
        self,
        x: Optional[np.ndarray] = None,
        *,
        kernel_matrix: Optional[np.ndarray] = None,
        init_labels: Optional[np.ndarray] = None,
        sample_weight: Optional[np.ndarray] = None,
    ) -> "SpectralKernelKMeans":
        """Cluster a point cloud through its kNN graph.

        ``kernel_matrix`` / ``init_labels`` / ``sample_weight`` are
        rejected: the normalized-cut kernel and the point weights are
        *derived* from the kNN graph (Dhillon et al.'s equivalence), and
        initialisation comes from the power-iteration embedding — all
        three are outputs of this pipeline, not inputs to it.
        """
        self._unsupported_fit_arg(
            "kernel_matrix",
            kernel_matrix,
            "the normalized-cut kernel is built from the kNN affinity graph "
            "(cluster a precomputed kernel with WeightedPopcornKernelKMeans)",
        )
        self._unsupported_fit_arg(
            "init_labels",
            init_labels,
            "initialisation comes from the power-iteration spectral embedding "
            "(random inits stall on normalized-cut kernels)",
        )
        self._unsupported_fit_arg(
            "sample_weight",
            sample_weight,
            "the normalized-cut equivalence fixes the weights to the graph "
            "degrees",
        )
        if x is None:
            raise ShapeError("fit needs a point cloud x to build the kNN graph from")
        xm = check_finite(as_matrix(x, dtype=np.float64, name="x"), name="x")
        n = xm.shape[0]
        g = knn_graph(xm, self.n_neighbors, mode=self.mode)
        self.graph_ = g
        a = nx.to_numpy_array(g, nodelist=range(n), weight="weight")
        best = _cluster_adjacency(
            a, self.n_clusters, sigma=self.sigma, n_init=self.n_init,
            max_iter=self.max_iter, power_iters=self.power_iters, seed=self.seed,
            backend=self.backend,
        )
        self.labels_ = best.labels_
        self.objective_ = best.objective_
        self.n_iter_ = best.n_iter_
        self.backend_ = best.backend_
        # out-of-sample support rides the winning weighted-KKM refinement;
        # queries must supply cross_kernel rows in the normalized-cut
        # kernel space (extending the kNN graph to unseen points is the
        # caller's modelling decision)
        self._c_norms = best._c_norms
        self._support_weights = best._support_weights
        self._support_v = best._support_v
        return self


def cluster_graph(
    g: nx.Graph,
    n_clusters: int,
    *,
    sigma: float = 1.0,
    backend: str = "auto",
    n_init: int = 4,
    max_iter: int = 100,
    power_iters: int = 2000,
    seed: Optional[int] = None,
) -> np.ndarray:
    """Normalized-cut partition of an arbitrary networkx graph.

    Node order follows ``sorted(g.nodes)``; returns an int32 label per
    node in that order.
    """
    if g.number_of_nodes() < n_clusters:
        raise ConfigError("graph has fewer nodes than clusters")
    nodes = sorted(g.nodes)
    a = nx.to_numpy_array(g, nodelist=nodes, weight="weight")
    best = _cluster_adjacency(
        a, n_clusters, sigma=sigma, n_init=n_init,
        max_iter=max_iter, power_iters=power_iters, seed=seed, backend=backend,
    )
    return best.labels_
