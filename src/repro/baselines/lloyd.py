"""Classical K-means (Lloyd's algorithm, paper Sec. 2.1).

Included because the paper's motivation rests on the contrast: Lloyd is
O(n d k) per iteration but only finds linearly separable clusters, while
Kernel K-means handles non-linear boundaries at O(n^2) per iteration.
The examples use this implementation to show the circles/moons failure
case that Kernel K-means solves.

The distance computation is matrix-centric (the dense analogue of paper
Eq. 5): ``D = ||x||^2 - 2 X C^T + ||c||^2`` with no Python-level loops.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .._typing import as_matrix, check_finite, check_labels
from ..config import DEFAULT_CONFIG
from ..engine.base import OutOfSamplePredictor, shared_params
from ..errors import ConfigError
from ..estimators import register_estimator
from .init import kmeans_pp_centers, labels_from_centers, random_labels

__all__ = ["LloydKMeans"]


@register_estimator("lloyd")
class LloydKMeans(OutOfSamplePredictor):
    """Classical K-means with random or k-means++ initialisation.

    Out-of-sample assignment rides the engine-level contract
    (:class:`repro.engine.base.OutOfSamplePredictor`): ``predict`` /
    ``predict_batch`` share one signature with every kernel estimator,
    replacing the estimator-local ``predict`` of earlier revisions whose
    signature had drifted from :class:`~repro.core.PopcornKernelKMeans`.

    Attributes (after ``fit``)
    --------------------------
    labels_ : final assignments.
    centers_ : ``k x d`` centroid matrix.
    inertia_ : sum of squared distances to assigned centroids.
    n_iter_ : iterations executed.
    objective_history_ : inertia per iteration.
    """

    _params = shared_params(
        "n_clusters",
        "init",
        "backend",
        "max_iter",
        "tol",
        "seed",
        init={"default": "k-means++"},
        max_iter={"default": 300},
        tol={"default": 1e-6},
    )

    def __init__(
        self,
        n_clusters: int,
        *,
        init: str = "k-means++",
        backend: str = "auto",
        max_iter: int = 300,
        tol: float = 1e-6,
        seed: int | None = None,
    ) -> None:
        self._init_params(
            n_clusters=n_clusters,
            init=init,
            backend=backend,
            max_iter=max_iter,
            tol=tol,
            seed=seed,
        )

    def _validate_params(self) -> None:
        from ..distributed.sharding import parse_shard_backend

        self._shard_devices = parse_shard_backend(self.backend, type(self).__name__)

    def fit(
        self,
        x: Optional[np.ndarray] = None,
        *,
        kernel_matrix: Optional[np.ndarray] = None,
        init_labels: Optional[np.ndarray] = None,
        sample_weight: Optional[np.ndarray] = None,
    ) -> "LloydKMeans":
        """Run Lloyd's alternation until the centroid shift drops below tol.

        Lloyd operates on explicit input-space centers: ``kernel_matrix``
        is rejected (there is no kernel trick here — points are required)
        and ``sample_weight`` is rejected (the classical unweighted
        objective; weighted clustering goes through the kernel family).
        """
        self._unsupported_fit_arg(
            "kernel_matrix",
            kernel_matrix,
            "Lloyd's algorithm maintains explicit input-space centroids "
            "and needs the points themselves",
        )
        self._unsupported_fit_arg(
            "sample_weight",
            sample_weight,
            "the classical estimator minimises the unweighted inertia "
            "(use PopcornKernelKMeans with sample_weight for weighted clustering)",
        )
        from ..distributed.sharding import check_shard_count

        xm = check_finite(as_matrix(x, dtype=np.float64, name="x"), name="x")
        n, d = xm.shape
        k = self.n_clusters
        if k > n:
            raise ConfigError(f"n_clusters={k} exceeds number of points n={n}")
        check_shard_count(n, self._shard_devices)
        rng = np.random.default_rng(DEFAULT_CONFIG.seed if self.seed is None else self.seed)

        if init_labels is not None:
            labels = check_labels(init_labels, n, k).copy()
        elif self.init == "k-means++":
            labels = labels_from_centers(xm, kmeans_pp_centers(xm, k, rng))
        else:
            labels = random_labels(n, k, rng)

        centers = self._centers_from(xm, labels, k, rng)
        history = []
        x_sq = (xm**2).sum(axis=1)
        n_iter = 0
        for _ in range(self.max_iter):
            d_mat = (
                x_sq[:, None]
                - 2.0 * xm @ centers.T
                + (centers**2).sum(axis=1)[None, :]
            )
            labels = np.argmin(d_mat, axis=1).astype(np.int32)
            inertia = float(np.maximum(d_mat[np.arange(n), labels], 0.0).sum())
            history.append(inertia)
            new_centers = self._centers_from(xm, labels, k, rng)
            shift = float(np.linalg.norm(new_centers - centers))
            centers = new_centers
            n_iter += 1
            if shift <= self.tol:
                break

        self.labels_ = labels
        self.centers_ = centers
        self.inertia_ = history[-1]
        self.objective_history_ = history
        self.n_iter_ = n_iter
        self._finalize_centers_support(centers)
        self._attach_backend_profile(n, d, k, n_iter)
        return self

    def _attach_backend_profile(self, n: int, d: int, k: int, n_iter: int) -> None:
        """Sharded mode: same labels, plus a modeled g-device profile.

        Data-parallel Lloyd row-partitions the points; each device assigns
        its block against replicated centroids, and one allreduce of the
        ``k x d`` partial center sums per iteration (plus the label
        allgather) completes the update — numerics are untouched.
        """
        g = self._shard_devices
        if g is None:
            self.backend_ = "host"
            return
        from ..distributed.sharding import attach_shard_profile, dense_assign_launch

        attach_shard_profile(
            self,
            n=n,
            g=g,
            launches=[dense_assign_launch(n, k, d, n_iter + 1)],
            n_iter=n_iter,
            allreduce_bytes=8.0 * k * d,
            allgather_bytes=4.0 * n,
            setup_allgather_bytes=8.0 * n * d,
        )
        self.backend_ = f"sharded:{g}"

    @staticmethod
    def _centers_from(
        xm: np.ndarray, labels: np.ndarray, k: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Weighted means per cluster; empty clusters get a random point."""
        d = xm.shape[1]
        sums = np.zeros((k, d))
        np.add.at(sums, labels, xm)
        counts = np.bincount(labels, minlength=k).astype(np.float64)
        centers = sums / np.maximum(counts, 1.0)[:, None]
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            centers[empty] = xm[rng.choice(xm.shape[0], size=empty.size, replace=False)]
        return centers
