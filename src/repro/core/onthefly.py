"""On-the-fly (blocked) Kernel K-means: no materialised kernel matrix.

Popcorn stores the full n x n kernel matrix on the device (FP32: 10 GB at
n = 50000, 80 GB at n ~ 141000).  When K does not fit, the paper's Sec. 7
remedy is multi-GPU partitioning; *this* module is the complementary
single-GPU remedy: recompute K in row panels every iteration and never
store it.

Per iteration, for each row panel ``P_blk`` of ``b`` rows:

1. ``B_blk = P_blk @ P^T``          (rectangular GEMM, b x n)
2. ``K_blk = kappa(B_blk)``          (elementwise transform)
3. ``E_blk = -2 K_blk V^T``          (the SpMM, b x k)
4. gather ``z_blk`` into the length-n ``z``
5. stash ``E_blk + P~_blk``; after the last panel the SpMV
   ``C~ = -0.5 V z`` finishes every ``D_blk``

``V`` runs in the factored form ``diag(1/s) B`` of the standard
estimator (:func:`repro.sparse.factored_selection`), so each SpMM/SpMV
output row is divided once by its cluster size.

The arithmetic cost rises from O(n^2) to O(n^2 d) *per iteration* — the
memory/compute trade-off is real and the cost model charges it, so the
bench can show exactly where recomputation beats distribution.

Numerics are exact: from identical inits this produces the same
assignment trajectory as the standard estimator (tested), while peak
device memory drops from O(n^2) to O(b n).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .._typing import as_matrix, check_finite, check_labels
from ..config import DEFAULT_CONFIG
from ..engine.base import OutOfSamplePredictor, shared_params
from ..errors import ConfigError, ShapeError
from ..estimators import register_estimator
from ..gpu import cost
from ..gpu.profiler import Profiler
from ..gpu.spec import A100_80GB, DeviceSpec
from ..kernels import Kernel
from ..params import ParamSpec
from ..sparse import factored_selection, factored_spmm, factored_spmv
from ..baselines.init import random_labels
from .assignment import ConvergenceTracker

__all__ = ["OnTheFlyKernelKMeans", "model_onthefly"]


@register_estimator("onthefly")
class OnTheFlyKernelKMeans(OutOfSamplePredictor):
    """Blocked Kernel K-means that recomputes kernel panels per iteration.

    Parameters mirror :class:`~repro.core.PopcornKernelKMeans` plus
    ``block_rows`` (panel height; peak memory is ~``4 * block_rows * n``
    bytes for the panel instead of ``4 * n^2``).

    Attributes (after ``fit``)
    --------------------------
    labels_, n_iter_, objective_, objective_history_, converged_ : as in
        the standard estimator.
    timings_ : modeled per-phase seconds (phase names match Fig. 8).
    peak_panel_bytes_ : modeled panel footprint (vs ``4 n^2`` for full K).
    profiler_ : the modeled launch log.
    """

    _params = shared_params(
        "n_clusters",
        "kernel",
        "backend",
        "max_iter",
        "tol",
        "check_convergence",
        "seed",
        "dtype",
        dtype={"default": np.float64},
    ) + (
        ParamSpec("block_rows", default=4096, convert=int, low=1),
        ParamSpec("spec", default=A100_80GB),
    )

    def __init__(
        self,
        n_clusters: int,
        *,
        kernel: Kernel | str = None,
        block_rows: int = 4096,
        spec: DeviceSpec = A100_80GB,
        backend: str = "auto",
        max_iter: int = DEFAULT_CONFIG.max_iter,
        tol: float = DEFAULT_CONFIG.tol,
        check_convergence: bool = True,
        seed: int | None = None,
        dtype=np.float64,
    ) -> None:
        self._init_params(
            n_clusters=n_clusters,
            kernel=kernel,
            block_rows=block_rows,
            spec=spec,
            backend=backend,
            max_iter=max_iter,
            tol=tol,
            check_convergence=check_convergence,
            seed=seed,
            dtype=dtype,
        )

    def _validate_params(self) -> None:
        from ..distributed.sharding import parse_shard_backend

        self._shard_devices = parse_shard_backend(self.backend, type(self).__name__)
        if not self.kernel.gram_expressible:
            raise ShapeError("on-the-fly path needs a Gram-expressible kernel")

    def fit(
        self,
        x: Optional[np.ndarray] = None,
        *,
        kernel_matrix: Optional[np.ndarray] = None,
        init_labels: Optional[np.ndarray] = None,
        sample_weight: Optional[np.ndarray] = None,
    ) -> "OnTheFlyKernelKMeans":
        """Run blocked Kernel K-means without materialising K.

        ``kernel_matrix`` is rejected: this estimator exists precisely so
        the kernel matrix is never materialised — a caller holding one
        should use :class:`~repro.core.PopcornKernelKMeans` instead.
        """
        self._unsupported_fit_arg(
            "kernel_matrix",
            kernel_matrix,
            "the blocked algorithm recomputes kernel panels from the points "
            "each iteration so K never materialises; pass a precomputed "
            "kernel to PopcornKernelKMeans instead",
        )
        self._unsupported_fit_arg(
            "sample_weight",
            sample_weight,
            "the blocked pipeline implements the unweighted objective "
            "(use PopcornKernelKMeans with sample_weight)",
        )
        from ..distributed.sharding import check_shard_count

        xm = check_finite(as_matrix(x, dtype=self.dtype, name="x"), name="x")
        n, d = xm.shape
        k = self.n_clusters
        if k > n:
            raise ConfigError(f"n_clusters={k} exceeds n={n}")
        check_shard_count(n, self._shard_devices)
        b = min(self.block_rows, n)
        prof = Profiler()
        self.profiler_ = prof
        rng = np.random.default_rng(DEFAULT_CONFIG.seed if self.seed is None else self.seed)

        gram_diag = np.einsum("ij,ij->i", xm, xm)
        # P~ = diag(K): kernel of each point with itself, computed once
        p_norms = self._self_kernel(xm, gram_diag)

        labels = (
            check_labels(init_labels, n, k).copy()
            if init_labels is not None
            else random_labels(n, k, rng)
        )

        tracker = ConvergenceTracker(tol=self.tol, check=self.check_convergence)
        blocks = [(lo, min(lo + b, n)) for lo in range(0, n, b)]
        n_iter = 0
        for _ in range(self.max_iter):
            sel, sizes = factored_selection(labels, k, dtype=np.float64)
            with prof.phase("argmin_update"):
                prof.record(cost.vbuild_cost(self.spec, n, k))

            z = np.empty(n, dtype=np.float64)
            e_panels = []
            for lo, hi in blocks:
                rows = hi - lo
                with prof.phase("kernel_matrix"):
                    b_blk = xm[lo:hi] @ xm.T
                    prof.record(_panel_gemm_cost(self.spec, rows, n, d))
                    k_blk = self._transform_panel(b_blk, gram_diag, lo, hi)
                    prof.record(_panel_transform_cost(self.spec, rows, n,
                                                      self.kernel.flops_per_entry))
                with prof.phase("distances"):
                    k_t = np.ascontiguousarray(k_blk.T)
                    e_blk = np.ascontiguousarray(factored_spmm(sel, sizes, k_t, alpha=-2.0).T)
                    prof.record(_panel_spmm_cost(self.spec, rows, n, k))
                    z[lo:hi] = e_blk[np.arange(rows), labels[lo:hi]]
                    prof.record(cost.zgather_cost(self.spec, rows, k))
                e_blk += p_norms[lo:hi, None]
                e_panels.append(e_blk)
                with prof.phase("distances"):
                    prof.record(cost.dadd_cost(self.spec, rows, k))
            with prof.phase("distances"):
                c_norms = factored_spmv(sel, sizes, z, alpha=-0.5)
                prof.record(cost.spmv_cost(self.spec, n, k))

            new_labels = np.empty(n, dtype=np.int32)
            objective = 0.0
            for (lo, hi), e_blk in zip(blocks, e_panels):
                d_blk = e_blk
                d_blk += c_norms[None, :]
                lab_blk = np.argmin(d_blk, axis=1).astype(np.int32)
                new_labels[lo:hi] = lab_blk
                objective += float(
                    d_blk[np.arange(hi - lo), lab_blk].sum(dtype=np.float64)
                )
                with prof.phase("argmin_update"):
                    prof.record(cost.argmin_cost(self.spec, hi - lo, k))
            labels = new_labels
            n_iter += 1
            if tracker.update(labels, objective):
                break

        self.labels_ = labels
        self.n_iter_ = n_iter
        self.objective_history_ = list(tracker.objectives)
        self.objective_ = tracker.objectives[-1]
        self.converged_ = tracker.converged
        self.timings_ = prof.phase_times()
        self.peak_panel_bytes_ = 4 * b * n
        self._finalize_blocked_support(xm, gram_diag, labels, blocks)
        if self._shard_devices is None:
            self.backend_ = "host"
        else:
            # sharded mode: each device recomputes the kernel panels of its
            # own row block (same numerics), with the per-iteration partial
            # centroid-norm allreduce + label allgather of the SPMD pattern
            from ..distributed.sharding import attach_shard_profile

            g = self._shard_devices
            attach_shard_profile(
                self,
                n=n,
                g=g,
                launches=prof.launches,
                n_iter=n_iter,
                allreduce_bytes=8.0 * k,
                allgather_bytes=4.0 * n,
                setup_allgather_bytes=4.0 * n * d,
            )
            self.backend_ = f"sharded:{g}"
        return self

    def _finalize_blocked_support(self, xm, gram_diag, labels, blocks) -> None:
        """Out-of-sample support via one extra blocked pass (K never forms).

        The final-label centroid norms come from the z-gather SpMV trick
        (``C~ = -0.5`` cancelled: here ``c_j = (V z)_j`` with
        ``z_i = (K V^T)_{i, lab_i}``), accumulating z panel by panel.
        """
        n = xm.shape[0]
        k = self.n_clusters
        sel, sizes = factored_selection(labels, k, dtype=np.float64)
        z = np.empty(n, dtype=np.float64)
        for lo, hi in blocks:
            k_blk = self._transform_panel(xm[lo:hi] @ xm.T, gram_diag, lo, hi)
            k_t = np.ascontiguousarray(k_blk.T)
            t_blk = factored_spmm(sel, sizes, k_t).T  # (rows, k) = K_blk V^T
            z[lo:hi] = t_blk[np.arange(hi - lo), labels[lo:hi]]
        self._c_norms = factored_spmv(sel, sizes, z)
        self._support_x = xm
        self._support_weights = None
        self._support_centers = None
        self._support_v = None
        self._support_selection(labels)

    # ------------------------------------------------------------------
    # kernel plumbing
    # ------------------------------------------------------------------
    def _self_kernel(self, xm: np.ndarray, gram_diag: np.ndarray) -> np.ndarray:
        """diag(K) without forming K: kappa(x_i, x_i) from the Gram diagonal."""
        if self.kernel.needs_diag():
            # Gaussian: kappa(x, x) = 1
            return np.ones(xm.shape[0], dtype=np.float64)
        return np.asarray(
            self.kernel.from_gram(gram_diag.reshape(-1, 1).copy()).ravel(),
            dtype=np.float64,
        )

    def _transform_panel(self, b_blk, gram_diag, lo, hi):
        """Apply the kernel to a rectangular Gram panel."""
        if self.kernel.needs_diag():
            return self.kernel._from_cross_gram(b_blk, gram_diag[lo:hi], gram_diag)
        return self.kernel.from_gram(b_blk)


# ----------------------------------------------------------------------
# panel cost helpers + analytical model
# ----------------------------------------------------------------------

def _panel_gemm_cost(spec, rows, n, d):
    from ..gpu import calibration as cal

    flops = 2.0 * rows * n * d
    bytes_ = 4.0 * (rows * d + n * d + rows * n)
    t = cost.roofline_time(
        spec, flops, bytes_, eff_compute=cal.gemm_compute_efficiency(n, d),
        eff_memory=0.85, lib_call=True,
    )
    return cost.Launch("cublas.gemm_panel", flops, bytes_, t, meta={"rows": rows})


def _panel_transform_cost(spec, rows, n, fpe):
    flops = fpe * rows * n
    bytes_ = 4.0 * 2.0 * rows * n
    t = cost.roofline_time(spec, flops, bytes_, eff_compute=0.5, eff_memory=0.85)
    return cost.Launch("thrust.transform_panel", flops, bytes_, t, meta={"rows": rows})


def _panel_spmm_cost(spec, rows, n, k):
    from ..gpu import calibration as cal

    flops = 2.0 * rows * n
    bytes_ = 4.0 * (cal.SPMM_TRAFFIC_FACTOR * rows * n + rows * k + rows) + 4.0 * (2 * n + k)
    t = cost.roofline_time(
        spec, flops, bytes_, eff_memory=cal.spmm_mem_efficiency(k, max(rows, 2048)),
        lib_call=True,
    )
    return cost.Launch("cusparse.spmm_panel", flops, bytes_, t, meta={"rows": rows})


def model_onthefly(
    n: int,
    d: int,
    k: int,
    *,
    iters: int = 30,
    block_rows: int = 4096,
    spec: DeviceSpec = A100_80GB,
    kernel_flops_per_entry: float = 4.0,
) -> dict:
    """Analytical per-run costs of the blocked algorithm at paper scale.

    Returns {'total_s', 'kernel_matrix_s', 'distances_s', 'peak_bytes',
    'popcorn_peak_bytes'} so benches can chart the memory/compute
    trade-off against standard Popcorn and the distributed variant.
    """
    if min(n, d, k, iters, block_rows) < 1:
        raise ConfigError("all parameters must be positive")
    b = min(block_rows, n)
    blocks = [(lo, min(lo + b, n)) for lo in range(0, n, b)]
    km_t = 0.0
    dist_t = 0.0
    upd_t = iters * cost.vbuild_cost(spec, n, k).time_s
    for _ in range(iters):
        for lo, hi in blocks:
            rows = hi - lo
            km_t += _panel_gemm_cost(spec, rows, n, d).time_s
            km_t += _panel_transform_cost(spec, rows, n, kernel_flops_per_entry).time_s
            dist_t += _panel_spmm_cost(spec, rows, n, k).time_s
            dist_t += cost.zgather_cost(spec, rows, k).time_s
            dist_t += cost.dadd_cost(spec, rows, k).time_s
            upd_t += cost.argmin_cost(spec, rows, k).time_s
        dist_t += cost.spmv_cost(spec, n, k).time_s
    return {
        "total_s": km_t + dist_t + upd_t,
        "kernel_matrix_s": km_t,
        "distances_s": dist_t,
        "peak_bytes": 4.0 * b * n,
        "popcorn_peak_bytes": 4.0 * n * n,
    }
