"""The Popcorn Kernel K-means estimator (paper Alg. 2).

``PopcornKernelKMeans`` is the public entry point of the reproduction: a
scikit-learn-style estimator that runs the matrix-centric Kernel K-means
pipeline on the shared engine (:mod:`repro.engine`) —

1. kernel matrix ``K = kappa(P P^T)`` via GEMM/SYRK dispatch (Sec. 4.2);
2. per-iteration distances ``D = -2 K V^T + P~ + C~`` via SpMM + SpMV
   (Sec. 4.3);
3. assignment via a row argmin and a CSR rebuild of V (Sec. 4.1).

On the default ``device`` backend every launch is charged to the device's
profiler, so after ``fit`` the object exposes both the clustering result
*and* the modeled performance profile (phase breakdown for Fig. 8, SpMM
throughput for Fig. 5, ...).  The ``host`` backend runs the identical
numerics on plain NumPy/CSR arrays, and ``chunk_rows`` streams the kernel
matrix in row panels so datasets whose K exceeds device capacity still
fit (the out-of-core mode of Sec. 7's memory-wall discussion).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .._typing import as_matrix, as_vector, check_finite
from ..config import DEFAULT_CONFIG
from ..engine.base import BaseKernelKMeans, shared_params
from ..errors import ConfigError, ShapeError
from ..estimators import register_estimator
from ..kernels import Kernel
from ..gpu.device import Device
from ..gpu.spec import DeviceSpec
from ..params import ParamSpec, optional

__all__ = ["PopcornKernelKMeans"]


@register_estimator(
    "popcorn", capabilities=("supports_partial_fit", "supports_sample_weight")
)
class PopcornKernelKMeans(BaseKernelKMeans):
    """GPU Kernel K-means via sparse linear algebra (Popcorn, PPoPP'25).

    Parameters
    ----------
    n_clusters:
        Number of clusters ``k``.
    kernel:
        A :class:`~repro.kernels.Kernel` instance or a name accepted by
        :func:`~repro.kernels.kernel_by_name` (default: the paper's
        polynomial kernel with gamma = c = 1, degree 2).
    device:
        A :class:`~repro.gpu.Device`, a :class:`~repro.gpu.DeviceSpec`,
        or None for a fresh A100-80GB (device backend only).
    backend:
        ``"auto"`` (= device), ``"device"`` (simulated GPU, modeled
        timings) or ``"host"`` (NumPy/CSR, identical numerics).
    chunk_rows:
        Row granularity of the distance pipeline.  On the device backend
        it streams K in ``chunk_rows x n`` panels so kernel matrices
        beyond device capacity still fit; on host-family backends it is
        the row-chunk height of the chunked fused reduction
        (:mod:`repro.engine.reduction`).  Labels are identical to the
        monolithic run for any valid value.
    chunk_cols, n_threads:
        Cluster-axis chunk and thread count of the chunked fused
        reduction — the host-side distance+argmin path, which reads K
        once per step into a resident ``k x n`` ``E^T`` and sweeps it in
        ``chunk_rows x chunk_cols`` panels.  Setting either
        with ``backend="auto"`` selects the host backend; labels are
        bit-identical for every setting.
    batch_size, max_no_improvement, reassignment_ratio:
        Online mini-batch controls for :meth:`partial_fit`
        (:mod:`repro.engine.minibatch`): the per-call batch split (None
        treats each call as one batch), the smoothed-inertia early-stop
        patience (None disables), and the dead-cluster reassignment
        threshold as a fraction of the largest per-cluster weight.
    gram_method:
        ``"auto"`` (the n/d dispatch of Sec. 4.2), ``"gemm"`` or ``"syrk"``.
    gram_threshold:
        Dispatch ratio ``t`` for ``"auto"`` (default 100, Sec. 5.2).
    max_iter:
        Iteration cap (the paper's timed runs use 30).
    tol:
        Relative objective-improvement tolerance (artifact ``-t``).
    check_convergence:
        Artifact ``-c``: when False, run exactly ``max_iter`` iterations.
    init:
        ``"random"`` (paper) or ``"k-means++"`` (kernel-space seeding).
    empty_cluster_policy:
        ``"keep"`` leaves empty clusters empty (their centroid norm is 0);
        ``"reseed"`` moves the globally farthest point into each empty
        cluster before rebuilding V.
    seed:
        RNG seed for initialisation.
    dtype:
        float32 (paper) or float64.

    Attributes (after ``fit``)
    --------------------------
    labels_ : final assignment vector (int32, length n).
    n_iter_ : iterations executed.
    objective_ : final Kernel K-means objective.
    objective_history_ : per-iteration objective values.
    converged_, convergence_reason_ : stopping diagnostics.
    gram_method_ : Gram routine actually used ("gemm"/"syrk"/"precomputed").
    backend_ : backend the fit executed on ("host"/"device").
    timings_ : seconds per phase **for this fit** (kernel_matrix /
        distances / argmin_update / transfer / init) — modeled on the
        device backend, measured wall-clock on the host backend.
    device_ : the simulated device (None on the host backend); its
        profiler holds the full launch log, accumulating across fits
        when the device is shared.
    profiler_ : the launch log of the backend that ran this fit.

    Out-of-sample assignment rides the shared engine contract
    (``predict`` / ``predict_batch`` from
    :class:`repro.engine.base.OutOfSamplePredictor`), and the fitted
    support set persists through :func:`repro.serve.save_model` /
    ``load_model`` with bit-exact predictions.
    """

    _params = shared_params(
        "n_clusters",
        "kernel",
        "device",
        "backend",
        "chunk_rows",
        "chunk_cols",
        "n_threads",
        "max_iter",
        "tol",
        "check_convergence",
        "init",
        "empty_cluster_policy",
        "seed",
        "dtype",
        "batch_size",
        "max_no_improvement",
        "reassignment_ratio",
    ) + (
        ParamSpec("gram_method", default="auto", choices=("auto", "gemm", "syrk")),
        ParamSpec("gram_threshold", default=None, convert=optional(float)),
    )

    def __init__(
        self,
        n_clusters: int,
        *,
        kernel: Kernel | str = None,
        device: Device | DeviceSpec | None = None,
        backend: str = "auto",
        chunk_rows: int | None = None,
        chunk_cols: int | None = None,
        n_threads: int | None = None,
        gram_method: str = "auto",
        gram_threshold: float | None = None,
        max_iter: int = DEFAULT_CONFIG.max_iter,
        tol: float = DEFAULT_CONFIG.tol,
        check_convergence: bool = True,
        init: str = "random",
        empty_cluster_policy: str = "keep",
        seed: int | None = None,
        dtype=np.float32,
        batch_size: int | None = None,
        max_no_improvement: int | None = 10,
        reassignment_ratio: float = 0.01,
    ) -> None:
        self._init_params(
            n_clusters=n_clusters,
            kernel=kernel,
            device=device,
            backend=backend,
            chunk_rows=chunk_rows,
            chunk_cols=chunk_cols,
            n_threads=n_threads,
            gram_method=gram_method,
            gram_threshold=gram_threshold,
            max_iter=max_iter,
            tol=tol,
            check_convergence=check_convergence,
            init=init,
            empty_cluster_policy=empty_cluster_policy,
            seed=seed,
            dtype=dtype,
            batch_size=batch_size,
            max_no_improvement=max_no_improvement,
            reassignment_ratio=reassignment_ratio,
        )

    # ------------------------------------------------------------------
    # fitting
    # ------------------------------------------------------------------
    def fit(
        self,
        x: Optional[np.ndarray] = None,
        *,
        kernel_matrix: Optional[np.ndarray] = None,
        init_labels: Optional[np.ndarray] = None,
        sample_weight: Optional[np.ndarray] = None,
    ) -> "PopcornKernelKMeans":
        """Cluster the dataset (or a precomputed kernel matrix).

        Exactly one of ``x`` / ``kernel_matrix`` may drive the kernel
        computation; passing ``kernel_matrix`` skips the GEMM/SYRK stage
        (the entry point for non-Gram-expressible kernels).
        ``sample_weight`` runs the weighted pipeline (the selection
        matrix's values become ``w_i / s_j``, Dhillon et al. 2004); None
        is the paper's unweighted algorithm, bit-for-bit.
        """
        if x is None and kernel_matrix is None:
            raise ShapeError("fit needs either points x or a precomputed kernel_matrix")

        state = self._begin_state()
        self.device_ = state.device
        rng = self._rng()

        n = (
            np.asarray(kernel_matrix).shape[0]
            if kernel_matrix is not None
            else np.asarray(x).shape[0]
        )
        state.backend.check_capacity(state, n)

        # ---- kernel matrix (Alg. 2 lines 1-2) -------------------------
        if kernel_matrix is not None:
            km = check_finite(
                as_matrix(kernel_matrix, dtype=self.dtype, name="kernel_matrix"),
                name="kernel_matrix",
            )
            if km.shape[0] != km.shape[1]:
                raise ShapeError("kernel_matrix must be square")
            state.backend.load_kernel_matrix(state, km)
            self.gram_method_ = "precomputed"
            self._train_x = None
        else:
            xm = check_finite(as_matrix(x, dtype=self.dtype, name="x"), name="x")
            state.backend.compute_kernel_matrix(
                state, xm, self.kernel, method=self.gram_method, threshold=self.gram_threshold
            )
            self.gram_method_ = state.gram_method
            self._train_x = xm

        k = self.n_clusters
        if k > n:
            raise ConfigError(f"n_clusters={k} exceeds number of points n={n}")
        w = None
        if sample_weight is not None:
            w = as_vector(sample_weight, dtype=np.float64, name="sample_weight")
            if w.shape[0] != n:
                raise ShapeError(f"sample_weight must have length {n}")

        # ---- init + main loop (Alg. 2 lines 3-16) ----------------------
        labels = self._init_labels(state, init_labels, rng)
        labels, n_iter, tracker = self._fit_loop(state, labels, weights=w)

        # out-of-sample support consistent with the *final* labels (the
        # loop's own c_norms correspond to the pre-update V); the shared
        # engine predict (repro.engine.base.OutOfSamplePredictor) consumes
        # it, replacing the estimator-local predict of earlier revisions
        self._finalize_support(state.kernel_host(), labels, x=self._train_x, weights=w)

        state.backend.finish(state)
        self._set_fit_results(state, labels, n_iter, tracker)
        return self
