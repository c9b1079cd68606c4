"""Weighted Kernel K-means (Dhillon, Guan & Kulis, KDD 2004).

The paper's background (Sec. 2.2) leans on the equivalence between Kernel
K-means and spectral clustering; the bridge is the *weighted* variant,
whose objective is

    min sum_j sum_{i in L_j} w_i ||phi(p_i) - c_j||^2,
    c_j = sum_{i in L_j} w_i phi(p_i) / s_j,     s_j = sum_{i in L_j} w_i.

Everything in Popcorn's matrix-centric formulation generalises by
replacing the selection matrix's values ``1/|L_j|`` with ``w_i / s_j``:

* ``C = V_w P`` still gives the (weighted) centroids;
* ``E = -2 K V_w^T`` is still one SpMM;
* the **z-gather SpMV trick still applies**: ``V_w`` keeps exactly one
  nonzero per column, so ``diag(V_w K V_w^T) = V_w z`` with
  ``z_i = (K V_w^T)_{i, cluster(i)}`` — the O(n) route survives weighting.

The weighted selection matrix construction lives in
:func:`repro.sparse.weighted_selection_matrix` (re-exported here), and
the host reference pipeline is
:func:`repro.core.distances.popcorn_distances_host` with ``weights=``.
This module provides :class:`WeightedPopcornKernelKMeans`, which runs on
the shared engine — so it accepts ``backend=`` (``"host"`` by default;
``"device"`` drives the same ``V_w`` pipeline through the simulated-GPU
shims with modeled timings) and ``chunk_rows`` (the row-chunked mode).
The spectral extension (:mod:`repro.graph`) builds on it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .._typing import as_matrix, as_vector, check_finite
from ..engine.base import BaseKernelKMeans, shared_params
from ..errors import ConfigError, ShapeError
from ..estimators import register_estimator
from ..gpu.device import Device
from ..gpu.spec import DeviceSpec
from ..kernels import Kernel
from ..sparse import weighted_selection_matrix

__all__ = ["weighted_selection_matrix", "WeightedPopcornKernelKMeans"]


@register_estimator(
    "weighted", capabilities=("supports_partial_fit", "supports_sample_weight")
)
class WeightedPopcornKernelKMeans(BaseKernelKMeans):
    """Weighted Kernel K-means with the SpMM/SpMV pipeline.

    Operates on a precomputed kernel matrix (the spectral use case always
    has one).  The per-point assignment step minimises
    ``w_i ||phi(p_i) - c_j||^2``; since ``w_i > 0`` scales a row of D
    uniformly, the argmin is unchanged and the unweighted row argmin is
    used, matching Dhillon et al.

    Runs on the engine's ``host`` backend by default; ``backend="device"``
    executes the same pipeline through the simulated-GPU shims (V_w build,
    SpMM, z-gather, SpMV, fused add) with modeled per-phase timings.

    Attributes after ``fit``: ``labels_``, ``n_iter_``, ``objective_``,
    ``objective_history_``, ``converged_``, ``timings_``, ``backend_``.
    """

    _default_backend = "host"
    #: fit runs with explicit unit weights when sample_weight is None;
    #: the partial_fit cold start replays the same choice
    _partial_fit_unit_weights = True

    #: the weighted pipeline is float64 end to end (not a parameter)
    dtype = np.dtype(np.float64)

    _params = shared_params(
        "n_clusters",
        "kernel",
        "backend",
        "chunk_rows",
        "chunk_cols",
        "n_threads",
        "device",
        "max_iter",
        "tol",
        "check_convergence",
        "init",
        "empty_cluster_policy",
        "seed",
        "batch_size",
        "max_no_improvement",
        "reassignment_ratio",
        max_iter={"default": 100},
        tol={"default": 1e-6},
    )

    def __init__(
        self,
        n_clusters: int,
        *,
        kernel: Kernel | str = None,
        backend: str = "auto",
        chunk_rows: int | None = None,
        chunk_cols: int | None = None,
        n_threads: int | None = None,
        device: Device | DeviceSpec | None = None,
        max_iter: int = 100,
        tol: float = 1e-6,
        check_convergence: bool = True,
        init: str = "random",
        empty_cluster_policy: str = "keep",
        seed: int | None = None,
        batch_size: int | None = None,
        max_no_improvement: int | None = 10,
        reassignment_ratio: float = 0.01,
    ) -> None:
        self._init_params(
            n_clusters=n_clusters,
            kernel=kernel,
            backend=backend,
            chunk_rows=chunk_rows,
            chunk_cols=chunk_cols,
            n_threads=n_threads,
            device=device,
            max_iter=max_iter,
            tol=tol,
            check_convergence=check_convergence,
            init=init,
            empty_cluster_policy=empty_cluster_policy,
            seed=seed,
            batch_size=batch_size,
            max_no_improvement=max_no_improvement,
            reassignment_ratio=reassignment_ratio,
        )

    def fit(
        self,
        x: Optional[np.ndarray] = None,
        *,
        kernel_matrix: Optional[np.ndarray] = None,
        init_labels: Optional[np.ndarray] = None,
        sample_weight: Optional[np.ndarray] = None,
    ) -> "WeightedPopcornKernelKMeans":
        """Cluster under point weights (the spectral use case passes a
        precomputed ``kernel_matrix``; points ``x`` go through ``kernel``)."""
        if x is None and kernel_matrix is None:
            raise ShapeError("fit needs either points x or a precomputed kernel_matrix")

        state = self._begin_state()
        self.device_ = state.device

        if kernel_matrix is not None:
            if x is not None:
                raise ConfigError("pass points x or kernel_matrix, not both")
            km = check_finite(
                as_matrix(kernel_matrix, dtype=np.float64, name="kernel_matrix"),
                name="kernel_matrix",
            )
            n = km.shape[0]
            if km.shape != (n, n):
                raise ShapeError("kernel_matrix must be square")
            state.backend.check_capacity(state, n)
            state.backend.load_kernel_matrix(state, km)
            xm = None
        else:
            xm = check_finite(as_matrix(x, dtype=np.float64, name="x"), name="x")
            # the pre-redesign signature took the kernel matrix as the
            # first positional argument; a square symmetric x is almost
            # certainly a legacy call that would silently cluster K as
            # points, so fail loudly with the migration instead
            if xm.shape[0] == xm.shape[1] and np.allclose(xm, xm.T, atol=1e-10):
                raise ConfigError(
                    "x is a square symmetric matrix — this looks like a "
                    "precomputed kernel matrix; pass it as "
                    "fit(kernel_matrix=...) (fit(x) treats its argument as "
                    "points and evaluates the kernel parameter on them). "
                    "To cluster genuinely square-symmetric points, evaluate "
                    "the kernel yourself: fit(kernel_matrix=est.kernel.pairwise(x))"
                )
            n = xm.shape[0]
            state.backend.check_capacity(state, n)
            state.backend.compute_kernel_matrix(state, xm, self.kernel)
        k = self.n_clusters
        if k > n:
            raise ConfigError(f"n_clusters={k} exceeds n={n}")
        w = (
            np.ones(n)
            if sample_weight is None
            else as_vector(sample_weight, dtype=np.float64, name="sample_weight")
        )
        if w.shape[0] != n:
            raise ShapeError(f"sample_weight must have length {n}")

        labels = self._init_labels(state, init_labels, self._rng())
        labels, n_iter, tracker = self._fit_loop(state, labels, weights=w)

        # out-of-sample queries go through predict(cross_kernel=...) with
        # the weighted selection matrix (or predict(x) when fitted on points)
        self._finalize_support(state.kernel_host(), labels, x=xm, weights=w)
        state.backend.finish(state)
        self._set_fit_results(state, labels, n_iter, tracker)
        return self
