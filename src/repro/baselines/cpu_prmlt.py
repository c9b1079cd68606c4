"""PRMLT-style CPU Kernel K-means (the paper's Sec. 5.4 comparator).

The MATLAB PRMLT package implements Kernel K-means as dense/indexed
M-code: a BLAS Gram matrix, an elementwise kernel transform, and an
interpreted clustering loop.  We reproduce the algorithm with exact NumPy
numerics and charge modeled CPU time from
:func:`repro.gpu.cost.cpu_gram_cost` / ``cpu_iteration_cost`` so Fig. 3's
GPU-over-CPU speedups can be regenerated.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .._typing import as_matrix, check_finite, check_labels
from ..config import DEFAULT_CONFIG
from ..core.assignment import ConvergenceTracker, objective_value
from ..core.distances import distance_matrix_reference
from ..engine.base import OutOfSamplePredictor, shared_params
from ..errors import ConfigError, ShapeError
from ..estimators import register_estimator
from ..gpu.cost import cpu_gram_cost, cpu_iteration_cost, cpu_kernel_transform_cost
from ..gpu.profiler import Profiler
from ..gpu.spec import CPUSpec, EPYC_7763
from ..kernels import Kernel, kernel_matrix as dense_kernel_matrix
from ..params import ParamSpec

__all__ = ["PRMLTKernelKMeans"]


@register_estimator("prmlt")
class PRMLTKernelKMeans(OutOfSamplePredictor):
    """Single-node CPU Kernel K-means with a modeled-time profiler.

    Matches Popcorn's assignments exactly from identical initial labels
    (same alternating minimisation); only the charged time differs.
    ``predict`` / ``predict_batch`` follow the engine-level contract.
    """

    _params = shared_params(
        "n_clusters",
        "kernel",
        "backend",
        "max_iter",
        "tol",
        "check_convergence",
        "seed",
    ) + (ParamSpec("cpu", default=EPYC_7763),)

    def __init__(
        self,
        n_clusters: int,
        *,
        kernel: Kernel | str = None,
        cpu: CPUSpec = EPYC_7763,
        backend: str = "auto",
        max_iter: int = DEFAULT_CONFIG.max_iter,
        tol: float = DEFAULT_CONFIG.tol,
        check_convergence: bool = True,
        seed: int | None = None,
    ) -> None:
        self._init_params(
            n_clusters=n_clusters,
            kernel=kernel,
            cpu=cpu,
            backend=backend,
            max_iter=max_iter,
            tol=tol,
            check_convergence=check_convergence,
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
    ) -> "PRMLTKernelKMeans":
        """Run PRMLT Kernel K-means on the modeled CPU."""
        self._unsupported_fit_arg(
            "sample_weight",
            sample_weight,
            "the PRMLT M-code implements the unweighted objective "
            "(use PopcornKernelKMeans with sample_weight for weighted clustering)",
        )
        if x is None and kernel_matrix is None:
            raise ShapeError("fit needs points x or a precomputed kernel matrix")
        prof = Profiler()
        self.profiler_ = prof
        rng = np.random.default_rng(DEFAULT_CONFIG.seed if self.seed is None else self.seed)

        xm = None
        if kernel_matrix is not None:
            km = check_finite(
                as_matrix(kernel_matrix, dtype=np.float64, name="kernel matrix"),
                name="kernel matrix",
            )
            n = km.shape[0]
            with prof.phase("kernel_matrix"):
                prof.record(cpu_kernel_transform_cost(self.cpu, n))
        else:
            xm = check_finite(as_matrix(x, dtype=np.float64, name="x"), name="x")
            n, d = xm.shape
            with prof.phase("kernel_matrix"):
                km = dense_kernel_matrix(xm, self.kernel)
                prof.record(cpu_gram_cost(self.cpu, n, d))
                prof.record(cpu_kernel_transform_cost(self.cpu, n))

        k = self.n_clusters
        if k > n:
            raise ConfigError(f"n_clusters={k} exceeds number of points n={n}")
        from ..distributed.sharding import check_shard_count

        check_shard_count(n, self._shard_devices)

        from .init import random_labels

        if init_labels is not None:
            labels = check_labels(init_labels, n, k).copy()
        else:
            labels = random_labels(n, k, rng)

        tracker = ConvergenceTracker(tol=self.tol, check=self.check_convergence)
        n_iter = 0
        for _ in range(self.max_iter):
            with prof.phase("clustering"):
                d_mat = distance_matrix_reference(km, labels, k)
                new_labels = np.argmin(d_mat, axis=1).astype(np.int32)
                prof.record(cpu_iteration_cost(self.cpu, n, k))
            objective = objective_value(d_mat, new_labels)
            labels = new_labels
            n_iter += 1
            if tracker.update(labels, objective):
                break

        self._finalize_support(km, labels, x=xm)
        self.labels_ = labels
        self.n_iter_ = n_iter
        self.objective_history_ = list(tracker.objectives)
        self.objective_ = tracker.objectives[-1]
        self.converged_ = tracker.converged
        self.convergence_reason_ = tracker.reason
        self.timings_ = prof.phase_times()
        if self._shard_devices is None:
            self.backend_ = "host"
        else:
            # sharded mode (a multi-socket PRMLT): identical numerics; the
            # modeled CPU profile splits row-proportionally across sockets
            # with per-iteration norm allreduce + label allgather
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
                setup_allgather_bytes=8.0 * n * (xm.shape[1] if xm is not None else n),
            )
            self.backend_ = f"sharded:{g}"
        return self
