"""Pluggable execution backends for the shared kernel-k-means engine.

A :class:`Backend` is the substrate the estimator fit loop runs on.  Two
implementations are registered:

``host``
    Plain NumPy/CSR arrays — the from-scratch sparse kernels with no
    device bookkeeping.  Launches are recorded with *measured* wall-clock
    seconds (names prefixed ``host.``), so ``timings_`` stays populated.
``device``
    The simulated-GPU path: buffers live against the device allocator and
    every launch charges modeled time, exactly as the pre-engine
    estimators did (the launch log is pinned against
    :mod:`repro.modeling` launch for launch).

Both backends run the **same numerics**: every backend builds K from
points with the one :func:`_host_kernel_matrix`, the distance pipelines
share the CSR kernels, and scalings are powers of two, so
``backend="host"`` and ``backend="device"`` produce identical labels from
identical seeds (tested).  GEMM vs SYRK (``gram_method``) is a cost-model
decision only: it picks the launches the device charges, never the bits
of K.  Both honour ``chunk_rows``: the host backend chunks its fused
reduction, and the device backend streams kernel-matrix panels from host
memory instead of requiring K to be resident, converting the device
memory wall into a transfer cost.
"""

from __future__ import annotations

import os
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import AllocationError, ConfigError, ShapeError
from ..gpu import cost, custom, cusparse, raft, thrust
from ..gpu.device import Device
from ..gpu.launch import Launch
from ..gpu.memory import DeviceArray
from ..gpu.profiler import Profiler
from ..gpu.spec import DeviceSpec
from ..kernels.base import Kernel
from ..kernels.dispatch import choose_gram_method
from .reduction import (
    WorkStealingPool,
    chunk_ranges,
    fused_popcorn_argmin,
    validate_chunk_size,
    validate_n_threads,
)

__all__ = [
    "Backend",
    "HostBackend",
    "DeviceBackend",
    "EngineState",
    "DistanceStep",
    "register_backend",
    "unregister_backend",
    "get_backend",
    "available_backends",
]


@dataclass
class EngineState:
    """Per-``fit`` execution state owned by a backend.

    The estimator treats this as an opaque handle; backends stash the
    kernel-matrix operand in whichever representation they execute on
    (``k_op`` resident on the device, ``k_host`` in host memory for the
    host backend and for device streaming mode).
    """

    backend: "Backend"
    n_clusters: int
    dtype: np.dtype
    profiler: Profiler
    # row granularity: the fused-reduction chunk height on host-family
    # backends, the streamed K panel height on the device backend
    chunk_rows: Optional[int] = None
    chunk_cols: Optional[int] = None
    n_threads: Optional[int] = None
    device: Optional[Device] = None
    spec: Optional[DeviceSpec] = None
    n: int = 0
    launch_mark: int = 0
    # span index at fit start (a repro.obs trace mark), so the fitted
    # ``trace_`` summary covers exactly this fit's window
    trace_mark: int = 0
    k_op: Optional[DeviceArray] = None
    k_host: Optional[np.ndarray] = None
    p_norms: Optional[DeviceArray] = None
    p_norms_host: Optional[np.ndarray] = None
    gram_method: str = ""
    # multi-device execution (the sharded backend): one profiler per
    # simulated device plus a collective-communication log; ``blocks``
    # are the per-device row ranges of the 1-D partition
    n_devices: int = 1
    device_profilers: Optional[list] = None
    comm_profiler: Optional[Profiler] = None
    blocks: Optional[list] = None

    def kernel_host(self) -> np.ndarray:
        """Host view of the kernel matrix (whichever backend holds it)."""
        if self.k_host is not None:
            return self.k_host
        if self.k_op is None:
            raise ConfigError("kernel matrix not loaded; run the kernel stage first")
        return self.k_op.a


class DistanceStep:
    """Result of one distance computation.

    Two shapes exist:

    * **materialised** — ``d`` is a host ndarray (or ``d_buf`` a
      device-resident buffer); the objective and empty-cluster policy
      read entries out of the full ``n x k`` block;
    * **fused** — produced by the chunked reduction engine
      (:mod:`repro.engine.reduction`): only the row argmin outputs
      (``labels``, ``min_d``) plus an exact on-demand entry evaluator
      survive, and ``d`` is deliberately unavailable because the sweep
      keeps no distance block.

    :meth:`assigned` serves both: the per-row distance to an arbitrary
    assignment, which is all the fit loop (objective, reseed policy)
    ever needs.  ``free()`` releases every buffer the step allocated.
    """

    __slots__ = ("_d", "d_buf", "_frees", "labels", "min_d", "_at")

    def __init__(
        self,
        d: Optional[np.ndarray] = None,
        *,
        d_buf=None,
        frees: Tuple = (),
        labels: Optional[np.ndarray] = None,
        min_d: Optional[np.ndarray] = None,
        at=None,
    ) -> None:
        self._d = d
        self.d_buf = d_buf
        self._frees = tuple(frees)
        self.labels = labels
        self.min_d = min_d
        self._at = at

    @property
    def d(self) -> np.ndarray:
        if self._d is not None:
            return self._d
        if self.d_buf is not None:
            return self.d_buf.a
        raise ConfigError(
            "this distance step is fused: the full distance block was never "
            "materialised; use argmin_labels()/assigned() instead"
        )

    def argmin_labels(self) -> Optional[np.ndarray]:
        """Fused row-argmin labels, or None when the step is materialised."""
        return self.labels

    def assigned(self, labels: np.ndarray) -> np.ndarray:
        """Per-row distances ``D[i, labels[i]]`` as a fresh writable array.

        Fused steps answer from ``min_d`` for rows whose assignment is
        the argmin and evaluate the handful of moved rows exactly via
        the on-demand entry evaluator (bitwise the legacy entries);
        materialised steps gather from the full block.
        """
        lab = np.asarray(labels)
        if self.labels is not None:
            out = self.min_d.copy()
            moved = np.flatnonzero(lab != self.labels)
            if moved.size:
                out[moved] = self._at(moved, lab[moved])
            return out
        d = self.d
        return d[np.arange(d.shape[0]), lab]  # fancy indexing: already fresh

    def free(self) -> None:
        for buf in self._frees:
            buf.free()
        # a fused step's evaluator holds the step's E^T; drop it before
        # the next step allocates its own
        self._at = None


class Backend(ABC):
    """Execution substrate for the kernel-k-means fit scaffolding.

    Subclasses implement the kernel-matrix stage, the two distance-step
    strategies (Popcorn's SpMM/SpMV pipeline and the Sec. 5.3 baseline
    kernels), and the row argmin; :class:`~repro.engine.base.BaseKernelKMeans`
    drives them through the init -> distances -> argmin -> convergence loop.
    """

    name: str = ""
    #: whether :meth:`begin` must be handed a :class:`~repro.gpu.Device`
    #: (the base estimator creates one when set)
    needs_device: bool = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @abstractmethod
    def begin(
        self,
        *,
        n_clusters: int,
        dtype,
        chunk_rows: Optional[int] = None,
        chunk_cols: Optional[int] = None,
        n_threads: Optional[int] = None,
        device: Optional[Device] = None,
    ) -> EngineState:
        """Open a fit: allocate the profiler/device state.

        ``chunk_rows``/``chunk_cols``/``n_threads`` configure the chunked
        fused reduction on host-family backends; backends that cannot
        honour them must reject them with :class:`ConfigError`.
        """

    @abstractmethod
    def finish(self, state: EngineState) -> None:
        """Close a fit: release kernel-stage buffers."""

    def timings(self, state: EngineState) -> Dict[str, float]:
        """Per-phase seconds for *this fit only* (profiler snapshot).

        A shared device accumulates launches across fits; the snapshot
        taken in :meth:`begin` scopes the aggregation to one run.
        """
        return state.profiler.phase_times(since=state.launch_mark)

    def check_capacity(self, state: EngineState, n: int) -> None:
        """Fail fast when the run cannot fit; no-op off-device."""

    def configure(self, arg: str) -> Optional["Backend"]:
        """Build a parametrised instance for ``"<name>:<arg>"`` lookups.

        :func:`get_backend` calls this on the registered base backend when
        a name like ``"sharded:8"`` misses the registry; returning None
        means the backend takes no parameter (the lookup then fails).
        """
        return None

    def finalize_results(self, state: EngineState, estimator) -> None:
        """Attach backend-specific fitted attributes after a fit.

        Called by ``BaseKernelKMeans._set_fit_results`` once the shared
        attributes are in place — the sharded backend uses this to expose
        per-device profilers, the communication log and the modeled
        makespan.
        """

    # ------------------------------------------------------------------
    # kernel-matrix stage (Alg. 2 lines 1-2)
    # ------------------------------------------------------------------
    @abstractmethod
    def load_kernel_matrix(self, state: EngineState, km: np.ndarray) -> None:
        """Adopt a precomputed kernel matrix; extract ``P~ = diag(K)``."""

    @abstractmethod
    def compute_kernel_matrix(
        self,
        state: EngineState,
        x: np.ndarray,
        kernel: Kernel,
        *,
        method: str = "auto",
        threshold: Optional[float] = None,
    ) -> None:
        """Gram + elementwise kernel + diagonal; sets ``state.gram_method``."""

    # ------------------------------------------------------------------
    # distance-step strategies
    # ------------------------------------------------------------------
    @abstractmethod
    def popcorn_step(
        self, state: EngineState, labels: np.ndarray, weights: Optional[np.ndarray] = None
    ) -> DistanceStep:
        """Popcorn's pipeline: SpMM, z-gather, SpMV, fused add (tiled-aware)."""

    @abstractmethod
    def baseline_step(self, state: EngineState, labels: np.ndarray) -> DistanceStep:
        """The baseline CUDA implementation's three hand-written kernels."""

    @abstractmethod
    def argmin(self, state: EngineState, step: DistanceStep) -> np.ndarray:
        """Row argmin of the distances; returns int32 labels."""


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

_BACKENDS: Dict[str, Backend] = {}

#: instances produced by :meth:`Backend.configure` for parametric names
#: ("sharded:8"), cached so repeated lookups return the same object —
#: kept out of ``_BACKENDS`` so the registry proper (and
#: :func:`available_backends`) lists only real registrations
_CONFIGURED: Dict[str, Backend] = {}


def register_backend(backend: Backend) -> Backend:
    """Register a backend instance under its ``name`` (last wins)."""
    if not backend.name:
        raise ConfigError("backend must define a non-empty name")
    _BACKENDS[backend.name] = backend
    return backend


def unregister_backend(name: str) -> None:
    """Remove a registered backend (no-op for unknown names).

    Mainly for tests and plugins that register temporary backends; the
    built-in ``host``/``device`` backends can be re-registered via
    :func:`register_backend` if removed.  Configured parametric variants
    (``"<name>:<arg>"``) are dropped with their base.
    """
    _BACKENDS.pop(name, None)
    for key in [k for k in _CONFIGURED if k.partition(":")[0] == name]:
        del _CONFIGURED[key]


def get_backend(name: str) -> Backend:
    """Look up a registered backend by name.

    Parametric names of the form ``"<base>:<arg>"`` (e.g. ``"sharded:8"``)
    resolve through the base backend's :meth:`Backend.configure` hook; the
    configured instance is cached under the full name so repeated lookups
    return the same object.
    """
    try:
        return _BACKENDS[name]
    except KeyError:
        pass
    cached = _CONFIGURED.get(name)
    if cached is not None:
        return cached
    if ":" in name:
        base_name, _, arg = name.partition(":")
        base = _BACKENDS.get(base_name)
        if base is not None:
            configured = base.configure(arg)
            if configured is not None:
                _CONFIGURED[name] = configured
                return configured
    raise ConfigError(
        f"unknown backend {name!r}; registered backends: {', '.join(sorted(_BACKENDS))}"
    )


def available_backends() -> Tuple[str, ...]:
    """Names of all registered backends."""
    return tuple(sorted(_BACKENDS))


# ----------------------------------------------------------------------
# host backend
# ----------------------------------------------------------------------

def _check_gram_expressible(kernel: Kernel) -> None:
    if not kernel.gram_expressible:
        raise ShapeError(
            f"{type(kernel).__name__} is not Gram-expressible; "
            "pass a precomputed kernel matrix instead"
        )


def _resolve_gram_method(
    method: str, threshold: Optional[float], n: int, d: int, tiled: bool
) -> str:
    """The tiled-mode gram policy, shared by both backends.

    Streaming builds K in rectangular row panels, so SYRK's
    triangular trick does not apply: tiled runs force GEMM and reject an
    explicit ``"syrk"`` — identically on every backend.
    """
    if tiled:
        if method == "syrk":
            raise ConfigError(
                "chunk_rows streams rectangular GEMM panels; gram_method='syrk' "
                "is only available in monolithic mode"
            )
        return "gemm"
    used = choose_gram_method(n, d, threshold) if method == "auto" else method
    if used not in ("gemm", "syrk"):
        raise ConfigError(f"unknown gram method {used!r}; expected 'gemm' or 'syrk'")
    return used


#: bytes of K one kernel-transform task touches: small enough that the
#: elementwise sequence runs on a cache-resident row panel
KERNEL_PANEL_BYTES = 1 << 20


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where known)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _host_kernel_matrix(x: np.ndarray, kernel: Kernel, used: str):
    """The one build of K from points: Gram product, kernel, diagonal.

    Every backend calls it (host, device in both modes, sharded, and the
    ``partial_fit`` cold start).  ``used`` (``"gemm"``/``"syrk"``) names
    the Gram routine the caller charges, so a span wrapped around the
    build can report that routine's FLOPs; it changes no bit of K: NumPy's
    ``x @ x.T`` on a C-contiguous ``x`` already runs BLAS SYRK plus an
    exact mirror, so the Gram product is symmetric bit for bit.  ``x`` is
    made C-contiguous first because a strided view's product need not be.

    The kernel transform runs in place over row panels of
    :data:`KERNEL_PANEL_BYTES`, one work-stealing task each, as wide as
    the CPUs the process may use — the width BLAS gives the product.
    Each panel goes through :meth:`Kernel.panel_transform`, the
    elementwise sequence of the whole-matrix ``from_gram`` with its
    per-build work on the diagonal done once, so K is bitwise the
    whole-matrix result; a one-panel K runs inline.

    Row-panel GEMMs would skip NumPy's single-threaded mirror, but their
    entries are not always bitwise the SYRK's: OpenBLAS computes edge
    tiles, one-row panels (GEMV) and float64 products differently
    (measured on OpenBLAS 0.3.31, Haswell kernels).

    Returns ``(K, diag(K))`` as contiguous arrays.
    """
    x = np.ascontiguousarray(x)
    b = x @ x.T
    n = b.shape[0]
    gram_diag = np.diagonal(b).copy() if kernel.needs_diag() else None
    rows = max(1, KERNEL_PANEL_BYTES // max(n * b.itemsize, 1))

    transform_panel = kernel.panel_transform(gram_diag, b.dtype)

    def transform(r0: int, r1: int) -> None:
        panel = b[r0:r1]
        out = transform_panel(panel, r0)
        if out is not panel:
            panel[...] = out

    WorkStealingPool(_usable_cpus()).run(
        [(lambda r0=r0, r1=r1: transform(r0, r1)) for r0, r1 in chunk_ranges(n, rows)]
    )
    return b, np.diagonal(b).copy()


class HostBackend(Backend):
    """NumPy/CSR execution: the sparse pipeline with no device bookkeeping.

    Numerics are identical to the device backend (shared CSR kernels);
    recorded launches carry measured wall-clock seconds under ``host.*``
    names so ``timings_`` and ``profiler_`` stay meaningful.
    """

    name = "host"

    def begin(
        self,
        *,
        n_clusters,
        dtype,
        chunk_rows=None,
        chunk_cols=None,
        n_threads=None,
        device=None,
    ) -> EngineState:
        if device is not None:
            raise ConfigError("backend='host' does not run on a device; drop the device argument")
        return EngineState(
            backend=self,
            n_clusters=int(n_clusters),
            dtype=np.dtype(dtype),
            chunk_rows=validate_chunk_size(chunk_rows, "chunk_rows"),
            chunk_cols=validate_chunk_size(chunk_cols, "chunk_cols"),
            n_threads=validate_n_threads(n_threads),
            profiler=Profiler(),
        )

    def finish(self, state: EngineState) -> None:
        state.k_host = None
        state.p_norms_host = None

    def _record(self, state: EngineState, phase: str, name: str, t0: float) -> None:
        with state.profiler.phase(phase):
            state.profiler.record(Launch("host." + name, 0.0, 0.0, time.perf_counter() - t0))

    def load_kernel_matrix(self, state: EngineState, km: np.ndarray) -> None:
        t0 = time.perf_counter()
        state.k_host = km
        state.p_norms_host = np.ascontiguousarray(np.diagonal(km))
        state.n = km.shape[0]
        self._record(state, "kernel_matrix", "diag_extract", t0)

    def compute_kernel_matrix(self, state, x, kernel, *, method="auto", threshold=None) -> None:
        _check_gram_expressible(kernel)
        t0 = time.perf_counter()
        n, d = x.shape
        used = _resolve_gram_method(method, threshold, n, d, state.chunk_rows is not None)
        state.k_host, state.p_norms_host = _host_kernel_matrix(x, kernel, used)
        state.n = n
        state.gram_method = used
        self._record(state, "kernel_matrix", "kernel_matrix", t0)

    def popcorn_step(self, state, labels, weights=None) -> DistanceStep:
        # the chunked fused reduction is the one distance path
        t0 = time.perf_counter()
        fused = fused_popcorn_argmin(
            state.k_host,
            labels,
            state.n_clusters,
            chunk_rows=state.chunk_rows,
            chunk_cols=state.chunk_cols,
            n_threads=state.n_threads,
            weights=weights,
            dtype=state.dtype,
        )
        self._record(state, "distances", "popcorn_distances", t0)
        return DistanceStep(labels=fused.labels, min_d=fused.min_d, at=fused.at)

    def baseline_step(self, state, labels) -> DistanceStep:
        # the three Sec. 5.3 kernels — same *_numerics helpers the device
        # shims in repro.gpu.custom execute, so the backends cannot drift
        t0 = time.perf_counter()
        k = state.n_clusters
        lab = np.asarray(labels)
        counts = np.bincount(lab, minlength=k).astype(np.int64)
        r = custom.baseline_reduce_numerics(state.k_host, lab, k)
        c_norms = custom.baseline_norms_numerics(r, lab, counts)
        d = custom.baseline_assemble_numerics(r, state.p_norms_host, c_norms, counts)
        self._record(state, "distances", "baseline_distances", t0)
        return DistanceStep(d)

    def argmin(self, state, step) -> np.ndarray:
        t0 = time.perf_counter()
        labels = step.argmin_labels()
        if labels is None:
            labels = np.argmin(step.d, axis=1).astype(np.int32)
        self._record(state, "argmin_update", "argmin", t0)
        return labels


# ----------------------------------------------------------------------
# device backend
# ----------------------------------------------------------------------

class DeviceBackend(Backend):
    """The simulated-GPU launch path (Popcorn's execution model).

    Monolithic mode keeps K resident and reproduces the pre-engine launch
    sequence exactly.  With ``chunk_rows``, K lives in host memory and the
    per-iteration SpMM streams one ``n x chunk_rows`` panel at a time over
    PCIe — peak device memory drops from O(n^2) to O(chunk_rows * n), so
    kernel matrices beyond capacity fit (the cost model charges the
    transfers, turning the memory wall into a bandwidth price).
    """

    name = "device"
    needs_device = True

    def begin(
        self,
        *,
        n_clusters,
        dtype,
        chunk_rows=None,
        chunk_cols=None,
        n_threads=None,
        device=None,
    ) -> EngineState:
        if device is None:
            raise ConfigError("the device backend needs a Device")
        if chunk_cols is not None or n_threads is not None:
            raise ConfigError(
                "chunk_cols/n_threads configure the host-side chunked "
                "reduction engine; the device backend only streams row panels "
                "(chunk_rows=) — use backend='host' (or 'sharded:<g>') for "
                "chunked execution"
            )
        return EngineState(
            backend=self,
            n_clusters=int(n_clusters),
            dtype=np.dtype(dtype),
            chunk_rows=validate_chunk_size(chunk_rows, "chunk_rows"),
            profiler=device.profiler,
            device=device,
            spec=device.spec,
            launch_mark=device.profiler.mark(),
        )

    def finish(self, state: EngineState) -> None:
        for buf in (state.k_op, state.p_norms):
            if buf is not None and buf.alive:
                buf.free()
        state.k_op = None
        state.p_norms = None
        state.k_host = None
        state.p_norms_host = None

    def check_capacity(self, state: EngineState, n: int) -> None:
        """Fail fast when the run cannot fit in device memory.

        Monolithic mode is dominated by the dense ``n x n`` kernel matrix
        plus the ``n x k`` distance buffer; tiled mode replaces the n^2
        term with one streamed ``chunk_rows x n`` panel.
        """
        device = state.device
        itemsize = state.dtype.itemsize
        k = state.n_clusters
        if state.chunk_rows is None:
            required = itemsize * (n * n + 2.0 * n * k + 4.0 * n)
            if required > device.capacity_bytes:
                raise AllocationError(
                    f"kernel k-means on n={n} points needs ~{required / 1e9:.1f} GB "
                    f"but {device.spec.name} has {device.spec.mem_capacity_gb:g} GB; "
                    "stream the kernel matrix with chunk_rows=, partition it with "
                    "repro.distributed.DistributedPopcornKernelKMeans or reduce n "
                    "(e.g. repro.approx.NystromKernelKMeans)"
                )
        else:
            tile = min(state.chunk_rows, n)
            required = itemsize * (tile * n + 2.0 * n * k + 6.0 * n)
            if required > device.capacity_bytes:
                raise AllocationError(
                    f"tiled kernel k-means on n={n} points still needs "
                    f"~{required / 1e9:.1f} GB for one chunk_rows={tile} panel plus the "
                    f"n x k distance buffer, but {device.spec.name} has "
                    f"{device.spec.mem_capacity_gb:g} GB; reduce chunk_rows (or use "
                    "repro.distributed.DistributedPopcornKernelKMeans)"
                )

    # ------------------------------------------------------------------
    # kernel-matrix stage
    # ------------------------------------------------------------------
    def load_kernel_matrix(self, state: EngineState, km: np.ndarray) -> None:
        device = state.device
        state.n = km.shape[0]
        if state.chunk_rows is None:
            state.k_op = device.h2d(km)
            with state.profiler.phase("kernel_matrix"):
                state.p_norms = custom.diag_extract(device, state.k_op)
        else:
            # streaming mode: K stays in host memory; only P~ is resident
            state.k_host = km
            state.p_norms_host = np.ascontiguousarray(np.diagonal(km))
            with state.profiler.phase("kernel_matrix"):
                device.record(cost.diag_extract_cost(device.spec, state.n))
            state.p_norms = device.h2d(state.p_norms_host)

    def compute_kernel_matrix(self, state, x, kernel, *, method="auto", threshold=None) -> None:
        _check_gram_expressible(kernel)
        device = state.device
        spec = device.spec
        n, d = x.shape
        state.n = n
        used = _resolve_gram_method(method, threshold, n, d, state.chunk_rows is not None)
        # The numerics are the one host build; the cost model charges the
        # device pipeline that would produce the same K.
        p_buf = device.h2d(x)
        km, diag = _host_kernel_matrix(x, kernel, used)
        if state.chunk_rows is None:
            # Monolithic: K and P~ are adopted as resident buffers, charged
            # as the Gram routine, the Gaussian's diag(B) snapshot, the
            # in-place thrust transform and the diagonal extraction.
            state.k_op = device.wrap(km)
            with state.profiler.phase("kernel_matrix"):
                if used == "gemm":
                    device.record(cost.gemm_cost(spec, n, d))
                else:
                    device.record(cost.syrk_cost(spec, n, d))
                    device.record(cost.triangular_copy_cost(spec, n))
                if kernel.needs_diag():
                    device.record(cost.diag_extract_cost(spec, n))
                device.record(cost.kernel_transform_cost(spec, n, kernel.flops_per_entry))
                device.record(cost.diag_extract_cost(spec, n))
            state.p_norms = device.wrap(diag)
            p_buf.free()
        else:
            # Streaming: K is built in row panels on the device and written
            # back to host memory (it never fits resident); per tile the
            # cost model charges a rectangular GEMM, the elementwise kernel
            # and the D2H writeback.
            state.k_host, state.p_norms_host = km, diag
            itemsize = state.dtype.itemsize
            with state.profiler.phase("kernel_matrix"):
                for lo, hi in chunk_ranges(n, state.chunk_rows):
                    device.record(cost.gemm_tile_cost(spec, hi - lo, n, d))
                    device.record(
                        cost.transform_tile_cost(spec, hi - lo, n, kernel.flops_per_entry)
                    )
                device.record(cost.diag_extract_cost(spec, n))
            with state.profiler.phase("transfer"):
                for lo, hi in chunk_ranges(n, state.chunk_rows):
                    device.record(cost.d2h_cost(spec, itemsize * (hi - lo) * n))
            p_buf.free()
            state.p_norms = device.h2d(state.p_norms_host)
        state.gram_method = used

    # ------------------------------------------------------------------
    # distance steps
    # ------------------------------------------------------------------
    def popcorn_step(self, state, labels, weights=None) -> DistanceStep:
        from ..core.distances import popcorn_distance_step

        device = state.device
        if state.chunk_rows is None:
            d, v = popcorn_distance_step(
                device, state.k_op, state.p_norms, labels, state.n_clusters, weights=weights
            )
            return DistanceStep(d_buf=d, frees=(d, v))

        # streamed pipeline: one panel of K resident at a time
        n = state.n
        k = state.n_clusters
        lab = np.asarray(labels)
        prof = state.profiler
        with prof.phase("argmin_update"):
            v = custom.v_build(device, lab, k, dtype=state.dtype, weights=weights)
        e = device.empty((n, k), dtype=state.dtype)
        z = device.empty((n,), dtype=state.dtype)
        for lo, hi in chunk_ranges(n, state.chunk_rows):
            panel = np.ascontiguousarray(state.k_host[:, lo:hi])
            t_buf = device.h2d(panel)
            with prof.phase("distances"):
                e_tile = cusparse.spmm_kvt_tile(device, t_buf, v, alpha=-2.0)
                e.a[lo:hi] = e_tile.a
                z_tile = custom.z_gather(device, e_tile, lab[lo:hi])
                z.a[lo:hi] = z_tile.a
                z_tile.free()
                e_tile.free()
            t_buf.free()
        with prof.phase("distances"):
            c_norms = cusparse.spmv(device, v, z, alpha=-0.5)
            z.free()
            d = custom.d_add(device, e, state.p_norms, c_norms)
            c_norms.free()
        return DistanceStep(d_buf=d, frees=(d, v))

    def baseline_step(self, state, labels) -> DistanceStep:
        if state.chunk_rows is not None:
            raise ConfigError("the baseline distance step does not support chunk_rows")
        device = state.device
        k = state.n_clusters
        lab = np.asarray(labels)
        prof = state.profiler
        with prof.phase("argmin_update"):
            counts = thrust.bincount(device, lab, k)
        with prof.phase("distances"):
            r = custom.baseline_cluster_reduce(device, state.k_op, lab, k)
            c_norms = custom.baseline_centroid_norms(device, r, lab, counts)
            d = custom.baseline_distance_assemble(device, r, state.p_norms, c_norms, counts)
            r.free()
            c_norms.free()
        return DistanceStep(d_buf=d, frees=(d,))

    def argmin(self, state, step) -> np.ndarray:
        with state.profiler.phase("argmin_update"):
            return raft.coalesced_reduction_argmin(state.device, step.d_buf)


register_backend(HostBackend())
register_backend(DeviceBackend())
