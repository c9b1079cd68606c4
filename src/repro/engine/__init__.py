"""The shared kernel-k-means execution engine.

Every estimator in the library — exact Popcorn, the CUDA baseline, the
weighted variant, and the distributed/approximate/spectral extensions —
runs on this subsystem:

* :class:`~repro.engine.base.BaseKernelKMeans` owns the fit scaffolding
  (validation, device plumbing, the init -> distances -> argmin ->
  convergence loop, empty-cluster policy, fitted attributes);
* :class:`~repro.engine.backends.Backend` is the pluggable execution
  substrate — ``host`` (NumPy/CSR), ``device`` (simulated GPU) and
  ``sharded`` / ``sharded:<g>`` (SPMD over ``g`` simulated devices,
  :mod:`~repro.engine.sharded`) ship registered, selected via
  ``backend=`` on every estimator;
* :mod:`~repro.engine.reduction` is the chunked pairwise-reduction
  engine: a :class:`~repro.engine.reduction.PairwiseReduction` base spec
  (two-axis chunk schedule + work-stealing thread pool) with an
  :class:`~repro.engine.reduction.ArgminReduction` kernel that fuses the
  row argmin into the sweep — each worker holds one
  ``chunk_rows x chunk_cols`` distance panel; the fit step reads K once
  into a resident ``k x n`` ``E^T`` (``k / n`` of K) and sweeps panels
  of it, and prediction streams support-major cross-kernel panels in
  the model dtype into the SpMM, never building the ``m x n`` or
  ``m x k`` block.  The host and sharded fit loops and the shared
  predict path all run on it; fit labels are bit-for-bit equal to the
  full-matrix pipeline, and every path's labels are the same for every
  chunk shape and thread count.
  ``chunk_rows=`` is the one row-granularity knob everywhere: the device
  backend streams kernel-matrix panels of that height over PCIe, and
  host-family backends chunk the fused reduction with it;
* :class:`~repro.engine.base.OutOfSamplePredictor` is the shared
  out-of-sample contract: one ``predict`` / ``predict_batch``
  implementation (fused cross-kernel argmin over support-major panels,
  never the full ``m x n`` matrix) every estimator and the :mod:`repro.serve`
  subsystem consume — plus the uniform ``partial_fit`` surface;
* :mod:`~repro.engine.minibatch` is the online mini-batch fit path
  behind ``partial_fit``: per-batch assignment through the fused
  reduction, incremental selection-matrix/centroid-norm updates with
  per-cluster learning-rate counts, dead-cluster reassignment, and
  smoothed-inertia early stopping.  The first call is one full fit
  iteration, bit for bit.
"""

from .backends import (
    Backend,
    DeviceBackend,
    DistanceStep,
    EngineState,
    HostBackend,
    available_backends,
    get_backend,
    register_backend,
    unregister_backend,
)
from .base import (
    SHARED_PARAM_SPECS,
    BaseKernelKMeans,
    OutOfSamplePredictor,
    resolve_kernel,
    shared_params,
)
from .minibatch import EWA_ALPHA, OnlineState, partial_fit_step, restore_online_state
from .params import ParamSpec, ParamsProtocol, check_is_fitted, clone
from .reduction import (
    DEFAULT_CHUNK_COLS,
    DEFAULT_CHUNK_ROWS,
    ArgminReduction,
    CrossKernelArgmin,
    FusedDistances,
    PairwiseReduction,
    WorkStealingPool,
    chunk_ranges,
    csr_row_slice,
    fused_popcorn_argmin,
    validate_chunk_size,
    validate_n_threads,
)
from .sharded import DEFAULT_SHARD_DEVICES, ShardedBackend

__all__ = [
    "ParamSpec",
    "ParamsProtocol",
    "clone",
    "check_is_fitted",
    "shared_params",
    "SHARED_PARAM_SPECS",
    "resolve_kernel",
    "Backend",
    "HostBackend",
    "DeviceBackend",
    "ShardedBackend",
    "DEFAULT_SHARD_DEVICES",
    "EngineState",
    "DistanceStep",
    "register_backend",
    "unregister_backend",
    "get_backend",
    "available_backends",
    "BaseKernelKMeans",
    "OutOfSamplePredictor",
    "PairwiseReduction",
    "ArgminReduction",
    "CrossKernelArgmin",
    "FusedDistances",
    "WorkStealingPool",
    "fused_popcorn_argmin",
    "chunk_ranges",
    "csr_row_slice",
    "validate_chunk_size",
    "validate_n_threads",
    "EWA_ALPHA",
    "OnlineState",
    "partial_fit_step",
    "restore_online_state",
    "DEFAULT_CHUNK_ROWS",
    "DEFAULT_CHUNK_COLS",
]
