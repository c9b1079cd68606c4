"""The baseline CUDA implementation of Kernel K-means (paper Sec. 5.3).

This is the comparator Popcorn is measured against: the same Gram/kernel
stage (always GEMM — the baseline has no SYRK dispatch), but the
per-iteration distance computation is done by three hand-written kernels
instead of SpMM/SpMV:

1. ``k1_cluster_reduce`` — reduce each row of K by cluster membership into
   an ``n x k`` buffer using a shared-memory accumulator (dominates);
2. ``k2_centroid_norms`` — reduce that buffer into the k centroid norms;
3. ``k3_distance_assemble`` — embarrassingly parallel distance assembly.

Numerics are exact (identical assignments to Popcorn from the same init);
only the modeled launch costs differ, which is precisely the paper's
experimental contrast.  The estimator runs on the shared engine
(:mod:`repro.engine`): only the distance-step strategy differs from
:class:`~repro.core.PopcornKernelKMeans` — the fit scaffolding, backend
selection (``backend="host"`` runs the same three kernels on NumPy
arrays) and convergence logic are inherited.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .._typing import as_matrix, check_finite
from ..config import DEFAULT_CONFIG
from ..engine.backends import DistanceStep, EngineState
from ..engine.base import BaseKernelKMeans, shared_params
from ..errors import ConfigError, ShapeError
from ..estimators import register_estimator
from ..gpu.device import Device
from ..gpu.spec import DeviceSpec
from ..kernels import Kernel

__all__ = ["BaselineCUDAKernelKMeans"]


@register_estimator("baseline")
class BaselineCUDAKernelKMeans(BaseKernelKMeans):
    """Hand-written-kernel GPU Kernel K-means (the paper's CUDA baseline).

    The constructor mirrors :class:`~repro.core.PopcornKernelKMeans` minus
    the Gram dispatch options (the baseline always uses GEMM, Sec. 5.3)
    and the row-tiling mode (the shared-memory reduction kernel needs K
    resident).  Unlike Popcorn there is no capacity pre-check: the
    baseline fails mid-run on allocation, as the real implementation does.
    """

    _params = shared_params(
        "n_clusters",
        "kernel",
        "device",
        "backend",
        "max_iter",
        "tol",
        "check_convergence",
        "seed",
        "dtype",
    )

    def __init__(
        self,
        n_clusters: int,
        *,
        kernel: Kernel | str = None,
        device: Device | DeviceSpec | None = None,
        backend: str = "auto",
        max_iter: int = DEFAULT_CONFIG.max_iter,
        tol: float = DEFAULT_CONFIG.tol,
        check_convergence: bool = True,
        seed: int | None = None,
        dtype=np.float32,
    ) -> None:
        self._init_params(
            n_clusters=n_clusters,
            kernel=kernel,
            device=device,
            backend=backend,
            max_iter=max_iter,
            tol=tol,
            check_convergence=check_convergence,
            seed=seed,
            dtype=dtype,
        )

    def _distance_step(self, state: EngineState, labels, weights=None) -> DistanceStep:
        """The baseline's strategy: the three Sec. 5.3 kernels."""
        return state.backend.baseline_step(state, labels)

    def fit(
        self,
        x: Optional[np.ndarray] = None,
        *,
        kernel_matrix: Optional[np.ndarray] = None,
        init_labels: Optional[np.ndarray] = None,
        sample_weight: Optional[np.ndarray] = None,
    ) -> "BaselineCUDAKernelKMeans":
        """Run the baseline pipeline; see class docstring for the kernels."""
        self._unsupported_fit_arg(
            "sample_weight",
            sample_weight,
            "the baseline's hand-written reduction kernels are unweighted "
            "(use PopcornKernelKMeans, whose selection matrix carries weights)",
        )
        if x is None and kernel_matrix is None:
            raise ShapeError("fit needs either points x or a precomputed kernel_matrix")

        state = self._begin_state()
        self.device_ = state.device
        rng = self._rng()

        # ---- kernel matrix: always GEMM + elementwise transform --------
        if kernel_matrix is not None:
            km = check_finite(
                as_matrix(kernel_matrix, dtype=self.dtype, name="kernel_matrix"),
                name="kernel_matrix",
            )
            if km.shape[0] != km.shape[1]:
                raise ShapeError("kernel_matrix must be square")
            state.backend.load_kernel_matrix(state, km)
            xm = None
        else:
            xm = check_finite(as_matrix(x, dtype=self.dtype, name="x"), name="x")
            state.backend.compute_kernel_matrix(state, xm, self.kernel, method="gemm")

        n = state.n
        k = self.n_clusters
        if k > n:
            raise ConfigError(f"n_clusters={k} exceeds number of points n={n}")

        labels = self._init_labels(state, init_labels, rng)
        labels, n_iter, tracker = self._fit_loop(state, labels)

        self._finalize_support(state.kernel_host(), labels, x=xm)
        state.backend.finish(state)
        self._set_fit_results(state, labels, n_iter, tracker)
        return self
