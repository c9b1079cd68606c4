"""Elkan's accelerated exact K-means (related work, paper Sec. 6).

Elkan (ICML 2003) uses the triangle inequality to skip point-to-centroid
distance evaluations: maintaining per-point upper bounds on the distance
to the assigned centroid and lower bounds to every other centroid, a
point whose upper bound is smaller than half the distance to the nearest
other centroid provably cannot change assignment.  The algorithm is
*exactly* equivalent to Lloyd's — same assignments every iteration — but
typically computes a small fraction of the distances.

This implementation tracks the skipped-distance statistics so tests and
benches can quantify the pruning (``distance_computations_``,
``pruned_fraction_``) and verifies exact Lloyd equivalence.
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

__all__ = ["ElkanKMeans"]


def _pairwise_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = (
        (a**2).sum(axis=1)[:, None]
        - 2.0 * a @ b.T
        + (b**2).sum(axis=1)[None, :]
    )
    return np.maximum(d, 0.0)


@register_estimator("elkan")
class ElkanKMeans(OutOfSamplePredictor):
    """Exact K-means with triangle-inequality pruning.

    ``predict`` / ``predict_batch`` follow the engine-level contract
    (:class:`repro.engine.base.OutOfSamplePredictor`), assigning held-out
    points to the fitted centroids.

    Attributes (after ``fit``)
    --------------------------
    labels_, centers_, inertia_, n_iter_ : as in LloydKMeans.
    distance_computations_ : point-centroid distances actually evaluated.
    distance_computations_lloyd_ : what plain Lloyd would have evaluated
        (n * k per iteration).
    pruned_fraction_ : 1 - evaluated / lloyd.
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
    ) -> "ElkanKMeans":
        """Run Elkan's algorithm to convergence.

        Like Lloyd (to which it is assignment-for-assignment equivalent),
        Elkan maintains explicit input-space centroids: ``kernel_matrix``
        and ``sample_weight`` are rejected with an explanation rather than
        silently ignored.
        """
        self._unsupported_fit_arg(
            "kernel_matrix",
            kernel_matrix,
            "Elkan's triangle-inequality bounds are input-space distances "
            "to explicit centroids; the points themselves are required",
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
            raise ConfigError(f"n_clusters={k} exceeds n={n}")
        check_shard_count(n, self._shard_devices)
        rng = np.random.default_rng(DEFAULT_CONFIG.seed if self.seed is None else self.seed)

        if init_labels is not None:
            labels = check_labels(init_labels, n, k).copy()
        elif self.init == "k-means++":
            labels = labels_from_centers(xm, kmeans_pp_centers(xm, k, rng))
        else:
            labels = random_labels(n, k, rng)
        centers = self._centers_from(xm, labels, k, rng)

        evaluated = 0
        # initialise bounds with one full distance pass
        full = np.sqrt(_pairwise_sq(xm, centers))
        evaluated += n * k
        labels = np.argmin(full, axis=1).astype(np.int32)
        upper = full[np.arange(n), labels]  # exact, hence tight
        lower = full.copy()

        n_iter = 0
        for _ in range(self.max_iter):
            # (1) inter-centroid distances and the 0.5 * s(c) screen
            cc = np.sqrt(_pairwise_sq(centers, centers))
            np.fill_diagonal(cc, np.inf)
            s = 0.5 * cc.min(axis=1)

            # points that might change assignment
            active = upper > s[labels]
            idx = np.flatnonzero(active)
            for i in idx:
                a = int(labels[i])
                u_tight = False
                for c in range(k):
                    if c == a:
                        continue
                    # Elkan's lemma-2 screens
                    if upper[i] <= lower[i, c] or upper[i] <= 0.5 * cc[a, c]:
                        continue
                    if not u_tight:
                        # tighten the upper bound with an exact distance
                        upper[i] = np.sqrt(max(((xm[i] - centers[a]) ** 2).sum(), 0.0))
                        lower[i, a] = upper[i]
                        evaluated += 1
                        u_tight = True
                        if upper[i] <= lower[i, c] or upper[i] <= 0.5 * cc[a, c]:
                            continue
                    dist = np.sqrt(max(((xm[i] - centers[c]) ** 2).sum(), 0.0))
                    lower[i, c] = dist
                    evaluated += 1
                    if dist < upper[i]:
                        a = c
                        labels[i] = c
                        upper[i] = dist
            # (2) recompute centers and shift the bounds
            new_centers = self._centers_from(xm, labels, k, rng)
            shift = np.sqrt(((new_centers - centers) ** 2).sum(axis=1))
            lower = np.maximum(lower - shift[None, :], 0.0)
            upper = upper + shift[labels]
            centers = new_centers
            n_iter += 1
            if shift.max() <= self.tol:
                break

        self.labels_ = labels
        self.centers_ = centers
        self.inertia_ = float(_pairwise_sq(xm, centers)[np.arange(n), labels].sum())
        self.n_iter_ = n_iter
        self.distance_computations_ = int(evaluated)
        self.distance_computations_lloyd_ = int(n * k * (n_iter + 1))
        denom = max(self.distance_computations_lloyd_, 1)
        self.pruned_fraction_ = 1.0 - self.distance_computations_ / denom
        self._finalize_centers_support(centers)
        if self._shard_devices is None:
            self.backend_ = "host"
        else:
            # sharded mode: identical numerics; the modeled profile charges
            # only the distances the pruning actually evaluated, so an
            # Elkan shard stays cheaper than a Lloyd shard on the same data
            from ..distributed.sharding import attach_shard_profile, pruned_assign_launch

            g = self._shard_devices
            attach_shard_profile(
                self,
                n=n,
                g=g,
                launches=[pruned_assign_launch(self.distance_computations_, d)],
                n_iter=n_iter,
                allreduce_bytes=8.0 * k * d,
                allgather_bytes=4.0 * n,
                setup_allgather_bytes=8.0 * n * d,
            )
            self.backend_ = f"sharded:{g}"
        return self

    @staticmethod
    def _centers_from(xm, labels, k, rng):
        d = xm.shape[1]
        sums = np.zeros((k, d))
        np.add.at(sums, labels, xm)
        counts = np.bincount(labels, minlength=k).astype(np.float64)
        centers = sums / np.maximum(counts, 1.0)[:, None]
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            centers[empty] = xm[rng.choice(xm.shape[0], size=empty.size, replace=False)]
        return centers
