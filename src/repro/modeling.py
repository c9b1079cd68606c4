"""Analytical runtime models at paper scale.

The executing device cannot materialise a 50000 x 50000 kernel matrix in
this environment, but every figure in the paper's evaluation is a function
of modeled launch times only.  This module rebuilds the exact launch
sequences of Popcorn, the baseline CUDA implementation, and the CPU PRMLT
implementation *analytically* — same cost functions, same order, no
numerics — and returns a populated :class:`~repro.gpu.Profiler`.

An integration test pins the contract: for sizes small enough to execute,
the analytical model and the executing estimator produce identical launch
logs (name, flops, bytes, time), launch for launch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .errors import ConfigError
from .gpu import cost
from .gpu.profiler import Profiler
from .gpu.spec import A100_80GB, CPUSpec, DeviceSpec, EPYC_7763
from .kernels.dispatch import choose_gram_method

__all__ = [
    "RunModel",
    "ChunkedRunModel",
    "model_popcorn",
    "model_popcorn_tiled",
    "model_popcorn_chunked",
    "model_baseline",
    "model_cpu",
    "model_gram",
]

FP32 = cost.FP32


@dataclass(frozen=True)
class RunModel:
    """Modeled run: the launch log plus convenience totals.

    Attributes
    ----------
    profiler:
        The populated launch log (same aggregation API the executing
        device exposes).
    n, d, k, iters:
        The workload parameters.
    """

    profiler: Profiler
    n: int
    d: int
    k: int
    iters: int

    @property
    def total_s(self) -> float:
        return self.profiler.total_time()

    @property
    def phases(self) -> Dict[str, float]:
        return self.profiler.phase_times()

    def phase_s(self, phase: str) -> float:
        return self.phases.get(phase, 0.0)


def _check(n: int, d: int, k: int, iters: int) -> None:
    if min(n, d, k, iters) < 1:
        raise ConfigError(f"n, d, k, iters must be positive, got {(n, d, k, iters)}")
    if k > n:
        raise ConfigError(f"k={k} exceeds n={n}")


def model_gram(spec: DeviceSpec, n: int, d: int, method: str) -> Profiler:
    """Launches of the Gram stage only (Fig. 2 workload)."""
    prof = Profiler()
    with prof.phase("kernel_matrix"):
        if method == "gemm":
            prof.record(cost.gemm_cost(spec, n, d))
        elif method == "syrk":
            prof.record(cost.syrk_cost(spec, n, d))
            prof.record(cost.triangular_copy_cost(spec, n))
        else:
            raise ConfigError(f"method must be 'gemm' or 'syrk', got {method!r}")
    return prof


def model_popcorn(
    n: int,
    d: int,
    k: int,
    *,
    iters: int = 30,
    spec: DeviceSpec = A100_80GB,
    gram_method: str = "auto",
    gram_threshold: float | None = None,
    kernel_flops_per_entry: float = 4.0,
    include_transfer: bool = True,
) -> RunModel:
    """Analytical launch log of a full Popcorn run (Alg. 2).

    Mirrors :meth:`repro.core.PopcornKernelKMeans.fit` launch for launch:
    H2D of the points, GEMM/SYRK + transform + diag for K, then per
    iteration V build, SpMM, z-gather, SpMV, D-add, argmin.
    """
    _check(n, d, k, iters)
    prof = Profiler()
    if include_transfer:
        with prof.phase("transfer"):
            prof.record(cost.h2d_cost(spec, FP32 * n * d))
    used = choose_gram_method(n, d, gram_threshold) if gram_method == "auto" else gram_method
    with prof.phase("kernel_matrix"):
        if used == "gemm":
            prof.record(cost.gemm_cost(spec, n, d))
        else:
            prof.record(cost.syrk_cost(spec, n, d))
            prof.record(cost.triangular_copy_cost(spec, n))
        prof.record(cost.kernel_transform_cost(spec, n, kernel_flops_per_entry))
        prof.record(cost.diag_extract_cost(spec, n))
    for _ in range(iters):
        with prof.phase("argmin_update"):
            prof.record(cost.vbuild_cost(spec, n, k))
        with prof.phase("distances"):
            prof.record(cost.spmm_cost(spec, n, k))
            prof.record(cost.zgather_cost(spec, n, k))
            prof.record(cost.spmv_cost(spec, n, k))
            prof.record(cost.dadd_cost(spec, n, k))
        with prof.phase("argmin_update"):
            prof.record(cost.argmin_cost(spec, n, k))
    return RunModel(prof, n, d, k, iters)


def model_popcorn_tiled(
    n: int,
    d: int,
    k: int,
    *,
    chunk_rows: int,
    iters: int = 30,
    spec: DeviceSpec = A100_80GB,
    kernel_flops_per_entry: float = 4.0,
    include_transfer: bool = True,
) -> RunModel:
    """Analytical launch log of a row-tiled (out-of-core) Popcorn run.

    Mirrors the engine's streaming mode launch for launch: the kernel
    matrix is built in ``chunk_rows x n`` GEMM panels and written back to
    host memory, then every iteration re-streams the panels over PCIe for
    the tiled SpMM.  K is never resident, so the device footprint is
    O(chunk_rows * n) — the run is feasible at any ``n`` — and the price is
    the per-iteration H2D traffic this model charges.
    """
    _check(n, d, k, iters)
    from .engine.reduction import chunk_ranges

    tiles = chunk_ranges(n, chunk_rows)
    prof = Profiler()
    if include_transfer:
        with prof.phase("transfer"):
            prof.record(cost.h2d_cost(spec, FP32 * n * d))
    with prof.phase("kernel_matrix"):
        for lo, hi in tiles:
            prof.record(cost.gemm_tile_cost(spec, hi - lo, n, d))
            prof.record(cost.transform_tile_cost(spec, hi - lo, n, kernel_flops_per_entry))
        prof.record(cost.diag_extract_cost(spec, n))
    with prof.phase("transfer"):
        for lo, hi in tiles:
            prof.record(cost.d2h_cost(spec, FP32 * (hi - lo) * n))
        prof.record(cost.h2d_cost(spec, FP32 * n))  # P~ upload
    for _ in range(iters):
        with prof.phase("argmin_update"):
            prof.record(cost.vbuild_cost(spec, n, k))
        for lo, hi in tiles:
            with prof.phase("transfer"):
                prof.record(cost.h2d_cost(spec, FP32 * (hi - lo) * n))
            with prof.phase("distances"):
                prof.record(cost.spmm_tile_cost(spec, hi - lo, n, k))
                prof.record(cost.zgather_cost(spec, hi - lo, k))
        with prof.phase("distances"):
            prof.record(cost.spmv_cost(spec, n, k))
            prof.record(cost.dadd_cost(spec, n, k))
        with prof.phase("argmin_update"):
            prof.record(cost.argmin_cost(spec, n, k))
    return RunModel(prof, n, d, k, iters)


@dataclass(frozen=True)
class ChunkedRunModel:
    """Modeled chunked-fused run: the work log plus the threaded makespan.

    ``profiler`` holds every launch (the *total* work across all
    workers); ``makespan_s`` is the critical path when row chunks are
    dealt round-robin over ``n_threads`` workers — serial stages
    (transfers, V build, z-pass, SpMV) plus the slowest worker's share
    of the fused panel sweep per iteration.  ``panel_bytes`` is the peak
    resident distance-panel footprint per worker (the fused engine's
    memory bound, vs ``n x k`` for the legacy pipeline).
    """

    profiler: Profiler
    makespan_s: float
    n: int
    d: int
    k: int
    iters: int
    n_threads: int
    panel_bytes: int

    @property
    def total_work_s(self) -> float:
        return self.profiler.total_time()

    @property
    def phases(self) -> Dict[str, float]:
        return self.profiler.phase_times()


def model_popcorn_chunked(
    n: int,
    d: int,
    k: int,
    *,
    chunk_rows: int,
    chunk_cols: int | None = None,
    n_threads: int = 1,
    iters: int = 30,
    spec: DeviceSpec = A100_80GB,
    kernel_flops_per_entry: float = 4.0,
    include_transfer: bool = True,
) -> ChunkedRunModel:
    """Analytical model of the chunked fused-argmin reduction engine.

    Mirrors :func:`repro.engine.reduction.fused_popcorn_argmin` iterated
    ``iters`` times on a streamed kernel matrix: the kernel stage and the
    per-iteration serial work (V build, z-pass, centroid-norm SpMV)
    match :func:`model_popcorn_tiled`; the panel sweep replaces the
    legacy full-matrix D-add + separate argmin with per-chunk fused
    work (SpMM + add + running argmin over each
    ``chunk_rows x chunk_cols`` panel), distributed round-robin over
    ``n_threads`` workers — only the slowest worker's share lands on the
    critical path.  The fused sweep never materialises the ``n x k``
    block, so ``panel_bytes`` bounds resident distance storage.
    """
    _check(n, d, k, iters)
    if n_threads < 1:
        raise ConfigError(f"n_threads must be >= 1, got {n_threads}")
    from .engine.reduction import chunk_ranges

    row_chunks = chunk_ranges(n, chunk_rows)
    col_chunks = chunk_ranges(k, chunk_cols)
    prof = Profiler()
    makespan = 0.0

    def serial(phase: str, *launches) -> None:
        nonlocal makespan
        with prof.phase(phase):
            for launch in launches:
                prof.record(launch)
                makespan += launch.time_s

    if include_transfer:
        serial("transfer", cost.h2d_cost(spec, FP32 * n * d))
    for lo, hi in row_chunks:
        serial(
            "kernel_matrix",
            cost.gemm_tile_cost(spec, hi - lo, n, d),
            cost.transform_tile_cost(spec, hi - lo, n, kernel_flops_per_entry),
        )
    serial("kernel_matrix", cost.diag_extract_cost(spec, n))
    for lo, hi in row_chunks:
        serial("transfer", cost.d2h_cost(spec, FP32 * (hi - lo) * n))
    serial("transfer", cost.h2d_cost(spec, FP32 * n))  # P~ upload

    for _ in range(iters):
        serial("argmin_update", cost.vbuild_cost(spec, n, k))
        # the z-pass gather and the centroid-norm SpMV are serial stages
        serial("distances", cost.zgather_cost(spec, n, k), cost.spmv_cost(spec, n, k))
        # fused panel sweep: row chunks dealt round-robin over the workers
        worker_s = [0.0] * n_threads
        for i, (lo, hi) in enumerate(row_chunks):
            rr = hi - lo
            t_chunk = 0.0
            with prof.phase("transfer"):
                h2d = cost.h2d_cost(spec, FP32 * rr * n)
                prof.record(h2d)
                t_chunk += h2d.time_s
            for c0, c1 in col_chunks:
                cc = c1 - c0
                with prof.phase("distances"):
                    for launch in (
                        cost.spmm_tile_cost(spec, rr, n, cc),
                        cost.dadd_cost(spec, rr, cc),
                    ):
                        prof.record(launch)
                        t_chunk += launch.time_s
                with prof.phase("argmin_update"):
                    amin = cost.argmin_cost(spec, rr, cc)
                    prof.record(amin)
                    t_chunk += amin.time_s
            worker_s[i % n_threads] += t_chunk
        makespan += max(worker_s)

    rows = min(chunk_rows, n) if chunk_rows else n
    cols = min(chunk_cols, k) if chunk_cols else k
    panel_bytes = int(FP32 * rows * cols)
    return ChunkedRunModel(prof, makespan, n, d, k, iters, n_threads, panel_bytes)


def model_baseline(
    n: int,
    d: int,
    k: int,
    *,
    iters: int = 30,
    spec: DeviceSpec = A100_80GB,
    kernel_flops_per_entry: float = 4.0,
    include_transfer: bool = True,
) -> RunModel:
    """Analytical launch log of the baseline CUDA implementation (Sec. 5.3).

    GEMM-only kernel matrix, then per iteration the cardinality reduction
    plus the three hand-written kernels and the argmin.
    """
    _check(n, d, k, iters)
    prof = Profiler()
    if include_transfer:
        with prof.phase("transfer"):
            prof.record(cost.h2d_cost(spec, FP32 * n * d))
    with prof.phase("kernel_matrix"):
        prof.record(cost.gemm_cost(spec, n, d))
        prof.record(cost.kernel_transform_cost(spec, n, kernel_flops_per_entry))
        prof.record(cost.diag_extract_cost(spec, n))
    for _ in range(iters):
        with prof.phase("argmin_update"):
            # thrust cardinality reduction (matches BaselineCUDAKernelKMeans)
            bytes_ = 4.0 * (n + k)
            t = cost.roofline_time(spec, float(n), bytes_, eff_memory=0.4)
            prof.record(
                cost.Launch("thrust.reduce_counts", float(n), bytes_, t, meta={"n": n, "k": k})
            )
        with prof.phase("distances"):
            prof.record(cost.baseline_k1_cost(spec, n, k))
            prof.record(cost.baseline_k2_cost(spec, n, k))
            prof.record(cost.baseline_k3_cost(spec, n, k))
        with prof.phase("argmin_update"):
            prof.record(cost.argmin_cost(spec, n, k))
    return RunModel(prof, n, d, k, iters)


def model_cpu(
    n: int,
    d: int,
    k: int,
    *,
    iters: int = 30,
    cpu: CPUSpec = EPYC_7763,
) -> RunModel:
    """Analytical time of the PRMLT CPU implementation (Sec. 5.4)."""
    _check(n, d, k, iters)
    prof = Profiler()
    with prof.phase("kernel_matrix"):
        prof.record(cost.cpu_gram_cost(cpu, n, d))
        prof.record(cost.cpu_kernel_transform_cost(cpu, n))
    with prof.phase("clustering"):
        for _ in range(iters):
            prof.record(cost.cpu_iteration_cost(cpu, n, k))
    return RunModel(prof, n, d, k, iters)
