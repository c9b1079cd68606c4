"""Approximate Kernel K-means via the Nyström method.

The related-work direction the paper cites (Chitta et al., "Approximate
kernel k-means", KDD'11): instead of the full ``n x n`` kernel matrix,
sample ``m << n`` landmark points, build

* ``C = kappa(X, landmarks)``  (``n x m``) and
* ``W = kappa(landmarks, landmarks)``  (``m x m``),

and embed every point as ``Phi = C W^{-1/2}`` so that
``Phi Phi^T ~= C W^+ C^T ~= K``.  Classical K-means on the embedding then
approximates Kernel K-means at ``O(n m)`` memory and ``O(n m k)`` per
iteration instead of ``O(n^2)`` — the regime where exact Popcorn cannot
fit the kernel matrix in device memory.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.linalg import eigh

from .._typing import as_matrix, check_finite
from ..baselines.lloyd import LloydKMeans
from ..engine.base import BaseKernelKMeans, shared_params
from ..errors import ConfigError
from ..estimators import register_estimator
from ..kernels import Kernel
from ..params import ParamSpec

__all__ = ["NystromKernelKMeans", "nystrom_embedding", "nystrom_operator"]


def nystrom_operator(w: np.ndarray, *, reg: float = 1e-8) -> np.ndarray:
    """The ``W^{-1/2}`` map of the Nyström embedding (``m x r``).

    Eigenvalues of ``W`` below ``reg * max_eig`` are truncated, so the
    embedding dimension ``r`` can be less than ``m`` for (numerically)
    low-rank kernels.  The same map embeds out-of-sample queries:
    ``phi(q) = kappa(q, landmarks) @ W^{-1/2}``.
    """
    w = 0.5 * (w + w.T)  # symmetrise round-off
    vals, vecs = eigh(w)
    cutoff = reg * max(vals.max(), 1e-30)
    keep = vals > cutoff
    if not np.any(keep):
        raise ConfigError("kernel matrix of landmarks is numerically zero")
    return vecs[:, keep] / np.sqrt(vals[keep])[None, :]


def nystrom_embedding(
    x: np.ndarray,
    kernel: Kernel,
    m: int,
    *,
    rng: Optional[np.random.Generator] = None,
    reg: float = 1e-8,
) -> tuple:
    """Nyström feature embedding ``Phi`` with ``m`` uniform landmarks.

    Returns ``(Phi, landmark_indices)``; see :func:`nystrom_operator` for
    the rank truncation.
    """
    xm = as_matrix(x, dtype=np.float64, name="x")
    n = xm.shape[0]
    if not (1 <= m <= n):
        raise ConfigError(f"landmark count m must satisfy 1 <= m <= n, got {m}")
    g = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    landmarks = np.sort(g.choice(n, size=m, replace=False))
    c = kernel.pairwise(xm, xm[landmarks])  # n x m
    inv_sqrt = nystrom_operator(c[landmarks], reg=reg)
    phi = c @ inv_sqrt  # n x r
    return np.ascontiguousarray(phi), landmarks


@register_estimator("nystrom")
class NystromKernelKMeans(BaseKernelKMeans):
    """Approximate Kernel K-means: Nyström embedding + Lloyd.

    Parameters mirror :class:`~repro.core.PopcornKernelKMeans` plus
    ``n_landmarks``.  Quality approaches exact Kernel K-means as
    ``n_landmarks`` grows (tested on the circles dataset).

    The embedding + Lloyd pipeline is host-side linear algebra — this is
    the *approximation that avoids the kernel matrix entirely*, so the
    simulated-GPU ``"device"`` backend does not apply.  ``"sharded[:<g>]"``
    row-partitions the embedded Lloyd refinement across ``g`` simulated
    devices (identical labels; modeled multi-device profile).
    """

    _default_backend = "host"
    _supported_backends = ("host", "sharded")

    #: the embedding + Lloyd pipeline is float64 (not a parameter)
    dtype = np.dtype(np.float64)

    _params = shared_params(
        "n_clusters",
        "kernel",
        "backend",
        "max_iter",
        "tol",
        "n_init",
        "seed",
        max_iter={"default": 100},
        tol={"default": 1e-6},
    ) + (ParamSpec("n_landmarks", default=128, convert=int, low=1),)

    def __init__(
        self,
        n_clusters: int,
        *,
        n_landmarks: int = 128,
        kernel: Kernel | str = None,
        backend: str = "auto",
        max_iter: int = 100,
        tol: float = 1e-6,
        n_init: int = 5,
        seed: int | None = None,
    ) -> None:
        self._init_params(
            n_clusters=n_clusters,
            n_landmarks=n_landmarks,
            kernel=kernel,
            backend=backend,
            max_iter=max_iter,
            tol=tol,
            n_init=n_init,
            seed=seed,
        )

    def fit(
        self,
        x: Optional[np.ndarray] = None,
        *,
        kernel_matrix: Optional[np.ndarray] = None,
        init_labels: Optional[np.ndarray] = None,
        sample_weight: Optional[np.ndarray] = None,
    ) -> "NystromKernelKMeans":
        """Embed with Nyström landmarks, then run Lloyd on the embedding.

        Lloyd is restarted ``n_init`` times with different k-means++ seeds
        and the lowest-inertia run wins — restarts are cheap in the
        embedded space (O(n m k) per iteration vs O(n^2) exact).
        ``kernel_matrix`` / ``init_labels`` / ``sample_weight`` are
        rejected: the approximation samples landmark *points* (the full
        kernel matrix is exactly what it avoids), the inner Lloyd
        restarts own their k-means++ seeding, and the embedded objective
        is unweighted.
        """
        self._unsupported_fit_arg(
            "kernel_matrix",
            kernel_matrix,
            "the Nyström approximation samples landmark points to avoid "
            "the full kernel matrix; pass the points themselves",
        )
        self._unsupported_fit_arg(
            "init_labels",
            init_labels,
            "the embedded Lloyd refinement is restarted n_init times with "
            "k-means++ seeding, so a single externally pinned initialisation "
            "is ill-defined",
        )
        self._unsupported_fit_arg(
            "sample_weight",
            sample_weight,
            "the embedded Lloyd objective is unweighted "
            "(use PopcornKernelKMeans with sample_weight)",
        )
        from ..distributed.sharding import check_shard_count

        xm = check_finite(as_matrix(x, dtype=np.float64, name="x"), name="x")
        rng = self._rng()
        n = xm.shape[0]
        check_shard_count(n, self._shard_devices())
        m = min(self.n_landmarks, n)
        # same operation sequence as nystrom_embedding, keeping the pieces
        # out-of-sample queries need (landmark points + the W^{-1/2} map)
        landmarks = np.sort(rng.choice(n, size=m, replace=False))
        c = self.kernel.pairwise(xm, xm[landmarks])  # n x m
        inv_sqrt = nystrom_operator(c[landmarks])
        phi = np.ascontiguousarray(c @ inv_sqrt)
        inner = None
        for _ in range(self.n_init):
            cand = LloydKMeans(
                self.n_clusters, init="k-means++", max_iter=self.max_iter,
                tol=self.tol, seed=int(rng.integers(2**31)),
            ).fit(phi)
            if inner is None or cand.inertia_ < inner.inertia_:
                inner = cand
        self.labels_ = inner.labels_
        self.embedding_ = phi
        self.landmarks_ = landmarks
        self.inertia_ = inner.inertia_
        self.n_iter_ = inner.n_iter_
        self._attach_backend_profile(n, phi.shape[1], inner.n_iter_)
        self._inner = inner
        # queries embed through the same landmarks, then compare against
        # the Lloyd centers in the embedded space (engine predict contract)
        self._landmark_x = np.ascontiguousarray(xm[landmarks])
        self._nystrom_map = inv_sqrt
        self._finalize_centers_support(inner.centers_)
        return self

    def _shard_devices(self):
        """Device count of the configured backend (None = single host).

        Accepts the same forms the base class does: a backend name
        (``"auto"``/``"host"``/``"sharded[:<g>]"``) or a pre-configured
        :class:`~repro.engine.backends.Backend` instance.
        """
        from ..distributed.sharding import parse_shard_backend
        from ..engine.backends import Backend

        if isinstance(self.backend, Backend):
            return getattr(self.backend, "n_devices", None)
        return parse_shard_backend(self.backend, type(self).__name__)

    def _attach_backend_profile(self, n: int, r: int, n_iter: int) -> None:
        """Sharded mode: row-partition the embedded Lloyd refinement.

        Labels never change (the Lloyd assignment is row-wise); the
        modeled profile splits the ``n x r`` dense assignment across the
        devices with a per-iteration ``k x r`` center allreduce.
        """
        from ..distributed.sharding import attach_shard_profile, dense_assign_launch

        g = self._shard_devices()
        if g is None:
            self.backend_ = "host"
            return
        attach_shard_profile(
            self,
            n=n,
            g=g,
            launches=[dense_assign_launch(n, self.n_clusters, r, n_iter + 1)],
            n_iter=n_iter,
            allreduce_bytes=8.0 * self.n_clusters * r,
            allgather_bytes=4.0 * n,
            setup_allgather_bytes=8.0 * n * r,
        )
        self.backend_ = f"sharded:{g}"

    def _query_features(self, xm: np.ndarray) -> np.ndarray:
        """Nyström-embed raw queries: ``kappa(q, landmarks) @ W^{-1/2}``."""
        return self.kernel.pairwise(xm, self._landmark_x) @ self._nystrom_map
