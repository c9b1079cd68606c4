"""Chunked pairwise-reduction engine with fused argmin.

The plain distance pipeline materialises the full ``n x k`` distance
block E and then runs a separate row-wise argmin over it, serially.
This module is the cache-blocked, thread-parallel middle layer that
removes the separate argmin pass, modeled on scikit-learn's
``pairwise_distances_reduction`` architecture:

* :class:`PairwiseReduction` is the base *spec* — it owns the chunk
  schedule (both the sample axis and the cluster/centroid axis are
  chunked) and the work-stealing thread driver;
* :class:`ArgminReduction` is the specialised *kernel* — it fuses the
  row argmin (and min-distance) into the reduction, so each worker
  holds one ``chunk_rows x chunk_cols`` distance panel plus a running
  per-row best/argbest pair.

Concrete reductions plug in a panel evaluator:
:func:`fused_popcorn_argmin` evaluates Popcorn's ``-2 K V^T + P~ + C~``
panels (the fit loop), and :class:`CrossKernelArgmin` evaluates
``-2 K_c V^T + C~`` panels (out-of-sample prediction).

The fit loop's step reads K once (paper Alg. 2, lines 7-9): one SpMM
writes ``E^T = -2 V K`` into a resident ``k x n`` array, ``k / n`` of K
(1.3 MB at ``n = 10000``, ``k = 32``, float32).  The label-column
entries ``z_i = E^T[lab_i, i]`` feed the centroid-norm SpMV, and the
argmin sweeps panels of that same array.  The SpMM is split over the
thread pool by nnz-balanced groups of clusters, each reading its
clusters' rows of K in place, so the step copies no part of K;
``chunk_rows`` and ``chunk_cols`` shape only the sweep's panels.

Prediction streams the query axis in support-major panels of
:data:`QUERY_PANEL_BYTES`.  Each panel is the ``n_support x rows``
cross-kernel, evaluated support first in the model dtype; it is the CSR
SpMM's operand as it comes out of the GEMM, and the SpMM reduces it
while it is cache-hot.  No float64 or transposed copy of the
cross-kernel is made (a precomputed, row-major ``cross_kernel`` is
transposed one panel at a time).

Parallelism uses *threads*, not processes: the work is NumPy and
compiled-kernel bound (the GIL is released inside them) and the operands
are shared read-only, so tasks are distributed over a small
work-stealing pool (:class:`WorkStealingPool`).

Bit-exactness contract
----------------------
Fit-loop labels and min-distances are **bit-for-bit identical** to the
full-matrix pipeline (:func:`repro.core.distances.popcorn_distances_host`)
for every chunk shape and thread count.  Prediction's are bit-for-bit
identical for every chunk shape and thread count, and, on the BLAS
kernels named in :class:`CrossKernelArgmin`, for every query batching;
its reference and its exceptions are stated there.  The fit loop's holds because:

* the CSR SpMM (:func:`repro.sparse.spmm`) computes each output entry as
  one strictly sequential sum in the row's nonzero order, which depends
  on that row of the selection matrix and that column of K alone — so
  slicing the selection matrix's rows (cluster groups) and K's columns
  (sample chunks) leaves every E entry unchanged, and chunk boundaries
  never move a rounding; ``z_i`` is read from the same E entries;
* the selection matrix runs in factored form ``V = diag(1/s) B``
  (:func:`repro.sparse.factored_selection`) through
  :func:`repro.sparse.factored_spmm` and ``factored_spmv``: every E
  entry and centroid norm is its SpMM/SpMV sum divided once by ``s_j``,
  elementwise, so the division is as chunk-invariant as the sum;
* panels add ``(E + P~) + C~`` in the exact association and dtype of the
  full-matrix ``d += p; d += c`` sequence;
* the running reduction updates on strict ``<`` with column chunks
  visited in ascending order and ``np.argmin`` (first minimum) inside
  each panel, which reproduces ``np.argmin``'s lowest-index tie-breaking
  over the full row;
* the fp reduction order is fixed by the chunk schedule alone — the
  work-stealing pool only changes *when* a task runs, never what it
  computes, and tasks write disjoint output slices.
"""

from __future__ import annotations

import threading
import time
from abc import ABC, abstractmethod
from collections import deque
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .._typing import INDEX_DTYPE, check_labels
from ..errors import ConfigError, ShapeError
from ..obs import metrics, trace
from ..sparse import CSRMatrix, factored_selection, factored_spmm, factored_spmv, spmm

__all__ = [
    "DEFAULT_CHUNK_ROWS",
    "DEFAULT_CHUNK_COLS",
    "QUERY_PANEL_BYTES",
    "validate_chunk_size",
    "validate_n_threads",
    "chunk_ranges",
    "query_panel_rows",
    "csr_row_slice",
    "WorkStealingPool",
    "PairwiseReduction",
    "ArgminReduction",
    "CrossKernelArgmin",
    "FusedDistances",
    "fused_popcorn_argmin",
]

#: default sample-axis chunk when ``chunk_rows`` is requested but unsized
DEFAULT_CHUNK_ROWS = 2048
#: default cluster-axis chunk when ``chunk_cols`` is requested but unsized
DEFAULT_CHUNK_COLS = 256

#: bytes of one support-major query panel of the prediction reduction,
#: the cross-kernel block the CSR kernel reduces while it is cache-hot
#: (the prediction counterpart of
#: :data:`repro.engine.backends.KERNEL_PANEL_BYTES`)
QUERY_PANEL_BYTES = 8 << 20
#: fewest query rows per panel: narrower GEMMs run measurably slower at
#: high feature dimension (d = 4096)
QUERY_PANEL_MIN_ROWS = 128
#: most query rows per panel: a float64 GEMM column past the 192nd can
#: round differently with the panel width (OpenBLAS 0.3.31, measured)
QUERY_PANEL_MAX_ROWS = 192
#: fewest ``n_support x width`` entries a panel's GEMM computes:
#: OpenBLAS 0.3.31 sends products of at most 1200 entries (at d >= 32)
#: to small-matrix kernels, which round a column differently from a
#: larger product (measured)
QUERY_PANEL_MIN_ENTRIES = 2048
#: largest support (its feature bytes) against which a one-row call is
#: evaluated as a two-column GEMM rather than a GEMV, whose sums round
#: differently; past it the GEMM's packing of the support costs several
#: GEMVs (fit_highdim's 82 MB support: 3.2 ms against 0.8 ms)
LONE_ROW_GEMM_BYTES = 4 << 20


# ----------------------------------------------------------------------
# chunk schedule
# ----------------------------------------------------------------------

def validate_chunk_size(value, name: str = "chunk_rows") -> Optional[int]:
    """Normalise a chunk-size parameter: None (one chunk) or a positive int."""
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be a positive int or None, got {value!r}")
    r = int(value)
    if r < 1:
        raise ConfigError(f"{name} must be >= 1 (or None for a single chunk), got {value}")
    return r


def validate_n_threads(value) -> Optional[int]:
    """Normalise an ``n_threads`` parameter: None (serial) or a positive int."""
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"n_threads must be a positive int or None, got {value!r}")
    t = int(value)
    if t < 1:
        raise ConfigError(f"n_threads must be >= 1 (or None for serial), got {value}")
    return t


def chunk_ranges(n: int, chunk: Optional[int]) -> List[Tuple[int, int]]:
    """Half-open ranges ``[(lo, hi), ...]`` covering ``[0, n)``.

    ``chunk=None`` (or any value >= n) yields the single monolithic
    range; the last chunk is short when ``chunk`` does not divide ``n``.
    ``n = 0`` yields no chunks.
    """
    if n < 0:
        raise ShapeError(f"n must be >= 0, got {n}")
    if n == 0:
        return []
    c = validate_chunk_size(chunk, "chunk")
    if c is None or c >= n:
        return [(0, n)]
    return [(lo, min(lo + c, n)) for lo in range(0, n, c)]


def query_panel_rows(row_bytes: int) -> int:
    """Query rows per panel of :class:`CrossKernelArgmin`.

    As many rows of ``row_bytes`` resident bytes each as fit
    :data:`QUERY_PANEL_BYTES`, clamped to
    ``[QUERY_PANEL_MIN_ROWS, QUERY_PANEL_MAX_ROWS]``.
    """
    rows = QUERY_PANEL_BYTES // max(row_bytes, 1)
    return min(max(rows, QUERY_PANEL_MIN_ROWS), QUERY_PANEL_MAX_ROWS)


def csr_row_slice(a: CSRMatrix, r0: int, r1: int) -> CSRMatrix:
    """Zero-copy row slice ``a[r0:r1]`` of a CSR matrix.

    The values/colinds arrays are views into the parent's; only the
    (short) rowptrs array is rebased.  Used to hand one cluster chunk of
    V to the SpMM — per-row arithmetic is untouched, so the sliced
    product is bitwise equal to the corresponding rows of the full one.
    """
    if not (0 <= r0 <= r1 <= a.nrows):
        raise ShapeError(f"row slice [{r0}, {r1}) out of bounds for {a.nrows} rows")
    lo, hi = int(a.rowptrs[r0]), int(a.rowptrs[r1])
    return CSRMatrix(
        a.values[lo:hi],
        a.colinds[lo:hi],
        a.rowptrs[r0 : r1 + 1] - lo,
        (r1 - r0, a.ncols),
        check=False,
    )


# ----------------------------------------------------------------------
# the work-stealing thread pool
# ----------------------------------------------------------------------

class WorkStealingPool:
    """Run a finite task list on ``n_threads`` workers with work stealing.

    Tasks are dealt round-robin into per-worker deques; a worker drains
    its own deque from the front and, when empty, steals from the *back*
    of the most loaded peer — so a straggler chunk never serialises the
    tail while the other workers idle.  With ``n_threads=1`` (or a single
    task) everything runs inline with zero threading overhead.

    Correctness does not depend on the schedule: tasks must write
    disjoint outputs (the reductions here write per-row-chunk slices),
    so any interleaving produces the same result.  The first task
    exception is re-raised after all workers stop.
    """

    def __init__(self, n_threads: Optional[int] = None) -> None:
        self.n_threads = validate_n_threads(n_threads) or 1

    def run(self, tasks: Sequence[Callable[[], None]]) -> None:
        if not tasks:
            return
        # observability is gated on the tracer so the disabled path stays
        # byte-for-byte the original schedule with zero extra work
        instrumented = trace.enabled
        if instrumented:
            metrics.counter("pool.tasks").inc(len(tasks))

        def run_task(task: Callable[[], None], wid: int, stolen: bool) -> None:
            if instrumented:
                t0 = time.perf_counter()
                with trace.span("pool.task", wid=wid, stolen=stolen):
                    task()
                metrics.counter(f"pool.w{wid}.busy_s").inc(time.perf_counter() - t0)
            else:
                task()

        if self.n_threads == 1 or len(tasks) == 1:
            for task in tasks:
                run_task(task, 0, False)
            return
        width = min(self.n_threads, len(tasks))
        queues = [deque() for _ in range(width)]
        for i, task in enumerate(tasks):
            queues[i % width].append(task)
        if instrumented:
            metrics.gauge("pool.queue_depth").max(max(len(q) for q in queues))
        lock = threading.Lock()
        errors: List[BaseException] = []

        def worker(wid: int) -> None:
            while True:
                task = None
                stolen = False
                with lock:
                    if errors:
                        return
                    if queues[wid]:
                        task = queues[wid].popleft()
                    else:
                        victim = max(range(width), key=lambda q: len(queues[q]))
                        if queues[victim]:
                            task = queues[victim].pop()
                            stolen = True
                if task is None:
                    return
                if stolen and instrumented:
                    metrics.counter("pool.steals").inc()
                try:
                    run_task(task, wid, stolen)
                except BaseException as exc:  # propagate to the caller
                    with lock:
                        errors.append(exc)
                    return

        threads = [threading.Thread(target=worker, args=(i,), daemon=True) for i in range(width)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]


# ----------------------------------------------------------------------
# the base spec and the argmin kernel
# ----------------------------------------------------------------------

class PairwiseReduction(ABC):
    """Base spec of a chunked pairwise reduction.

    Owns the two-axis chunk schedule and the thread driver; a concrete
    kernel implements :meth:`_process_rows` (one row chunk end to end).
    Row chunks are independent tasks; whatever state a kernel
    accumulates must be written to disjoint per-row-chunk slices.
    """

    def __init__(
        self,
        n_rows: int,
        n_cols: int,
        *,
        chunk_rows: Optional[int] = None,
        chunk_cols: Optional[int] = None,
        n_threads: Optional[int] = None,
    ) -> None:
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        if self.n_rows < 0 or self.n_cols < 1:
            raise ShapeError(
                f"reduction needs n_rows >= 0 and n_cols >= 1, got {(n_rows, n_cols)}"
            )
        self.chunk_rows = validate_chunk_size(chunk_rows, "chunk_rows")
        self.chunk_cols = validate_chunk_size(chunk_cols, "chunk_cols")
        self.n_threads = validate_n_threads(n_threads) or 1

    def row_chunks(self) -> List[Tuple[int, int]]:
        return chunk_ranges(self.n_rows, self.chunk_rows)

    def col_chunks(self) -> List[Tuple[int, int]]:
        return chunk_ranges(self.n_cols, self.chunk_cols)

    @abstractmethod
    def _process_rows(self, r0: int, r1: int) -> None:
        """Reduce rows ``[r0, r1)`` across all column chunks."""

    def run(self):
        tasks = [(lambda r0=r0, r1=r1: self._process_rows(r0, r1)) for r0, r1 in self.row_chunks()]
        WorkStealingPool(self.n_threads).run(tasks)
        return self._finalize()

    def _finalize(self):
        return None


class ArgminReduction(PairwiseReduction):
    """Fused row-argmin over chunked panels.

    Each row chunk holds its :meth:`_row_context` operand, one
    ``chunk_rows x chunk_cols`` panel and a running per-row
    ``(best, argbest)`` pair; column chunks are visited
    in ascending order and the running minimum updates on strict ``<``,
    so ties resolve to the lowest column index exactly as a full-row
    ``np.argmin`` would (the :func:`repro.core.assignment.argmin_assign`
    contract).  Outputs are ``labels`` (int32) and ``min_d`` (the panel
    dtype); no ``rows x cols`` distance block is built beyond one panel.
    """

    def __init__(
        self,
        n_rows: int,
        n_cols: int,
        dtype,
        *,
        chunk_rows: Optional[int] = None,
        chunk_cols: Optional[int] = None,
        n_threads: Optional[int] = None,
    ) -> None:
        super().__init__(
            n_rows,
            n_cols,
            chunk_rows=chunk_rows,
            chunk_cols=chunk_cols,
            n_threads=n_threads,
        )
        self.dtype = np.dtype(dtype)
        self.labels = np.zeros(self.n_rows, dtype=np.int32)
        self.min_d = np.full(self.n_rows, np.inf, dtype=self.dtype)

    @property
    def panel_bytes(self) -> int:
        """Peak resident bytes of the reduction with one worker.

        The ``chunk_rows x chunk_cols`` distance panel plus
        :meth:`_operand_bytes`: the per-row-chunk operand copy and any
        buffer held for the whole run.  Each further worker adds its own
        panel and operand copy.
        """
        rows = self.n_rows if self.chunk_rows is None else min(self.chunk_rows, self.n_rows)
        cols = self.n_cols if self.chunk_cols is None else min(self.chunk_cols, self.n_cols)
        return int(max(rows, 1) * cols * self.dtype.itemsize) + self._operand_bytes(rows)

    def _operand_bytes(self, rows: int) -> int:
        """Hook: operand bytes resident alongside a ``rows``-row panel."""
        return 0

    def _row_context(self, r0: int, r1: int):
        """Hook: per-row-chunk operands shared across its column chunks."""
        return None

    @abstractmethod
    def _panel(self, ctx, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
        """Evaluate the ``(r1-r0) x (c1-c0)`` distance panel."""

    def _process_rows(self, r0: int, r1: int) -> None:
        ctx = self._row_context(r0, r1)
        rr = r1 - r0
        best = np.full(rr, np.inf, dtype=self.dtype)
        arg = np.zeros(rr, dtype=np.int32)
        rows = np.arange(rr)
        for c0, c1 in self.col_chunks():
            panel = self._panel(ctx, r0, r1, c0, c1)
            local = np.argmin(panel, axis=1)
            vals = panel[rows, local]
            upd = vals < best
            best[upd] = vals[upd]
            arg[upd] = (c0 + local[upd]).astype(np.int32)
        self.labels[r0:r1] = arg
        self.min_d[r0:r1] = best

    def _finalize(self):
        return self.labels, self.min_d


# ----------------------------------------------------------------------
# the Popcorn fit-loop reduction
# ----------------------------------------------------------------------

def _one_row_csr(values: np.ndarray) -> CSRMatrix:
    """A trusted 1 x nnz CSR row whose columns index a gathered operand."""
    nnz = values.shape[0]
    return CSRMatrix(
        values,
        np.arange(nnz, dtype=INDEX_DTYPE),
        np.array([0, nnz], dtype=np.int64),
        (1, nnz),
        check=False,
    )


def _label_gather(
    km: np.ndarray,
    v: CSRMatrix,
    sizes: np.ndarray,
    *,
    budget_elems: int,
    n_threads: Optional[int],
) -> np.ndarray:
    """``z_i = E[i, lab_i]`` for ``E = -2 K V^T`` without building E.

    ``V = diag(1/sizes) v`` is the factored selection matrix.  Per
    cluster ``j`` the needed entries are one SpMM row against the
    gathered ``|L_j| x |L_j|`` block ``K[L_j, L_j]``, promoted to
    ``v.dtype`` as it is gathered — the float64 support norms of
    :meth:`repro.engine.base.OutOfSamplePredictor._finalize_support`
    come from here without a float64 copy of K.  Each entry is a
    sequential sum over row ``j``'s nonzeros in stored order divided by
    ``sizes[j]``, exactly as in the full product.  The gathered block is
    split column-wise so at most ``budget_elems`` elements are resident.
    Clusters are independent tasks for the thread pool (they partition
    the points, so writes are disjoint).
    """
    n = km.shape[0]
    z = np.zeros(n, dtype=v.dtype)
    tasks = []
    for j in range(v.nrows):
        lo, hi = int(v.rowptrs[j]), int(v.rowptrs[j + 1])
        if lo == hi:
            continue

        def gather(j=j, lo=lo, hi=hi):
            members = v.colinds[lo:hi]
            row = _one_row_csr(v.values[lo:hi])
            nj = hi - lo
            block = max(1, budget_elems // nj)
            for b0 in range(0, nj, block):
                cols = members[b0 : b0 + block]
                gathered = km[np.ix_(members, cols)]
                z[cols] = factored_spmm(row, sizes[j : j + 1], gathered, alpha=-2.0)[0]

        tasks.append(gather)
    WorkStealingPool(n_threads).run(tasks)
    return z


def _nnz_groups(a: CSRMatrix, groups: int) -> List[Tuple[int, int]]:
    """At most ``groups`` contiguous row ranges of ``a`` with about equal nonzeros."""
    cuts = np.searchsorted(a.rowptrs, np.arange(1, groups) * (a.nnz / groups))
    edges = np.unique(np.concatenate(([0], cuts, [a.nrows])))
    return [(int(lo), int(hi)) for lo, hi in zip(edges[:-1], edges[1:])]


def _e_transpose(
    km: np.ndarray, v: CSRMatrix, sizes: np.ndarray, *, n_threads: Optional[int]
) -> np.ndarray:
    """``E^T = -2 diag(1/sizes) v K`` as one resident ``k x n`` array.

    One SpMM pass over K, split into thread-pool tasks by nnz-balanced
    groups of clusters (:func:`csr_row_slice`, zero-copy).  Each task
    reads its clusters' rows of K in place and writes the same rows of
    ``E^T``.  Every entry is the SpMM's sequential sum over its
    cluster's nonzeros in stored order, divided once by ``sizes[j]`` —
    the grouping changes no bit of it.
    """
    et = np.empty((v.nrows, km.shape[0]), dtype=v.dtype)
    threads = validate_n_threads(n_threads) or 1

    def clusters(c0: int, c1: int) -> None:
        factored_spmm(csr_row_slice(v, c0, c1), sizes[c0:c1], km, alpha=-2.0, out=et[c0:c1])

    # several groups per thread, so a worker slowed by outside load
    # leaves the rest of its share to be stolen
    WorkStealingPool(n_threads).run(
        [
            (lambda c0=c0, c1=c1: clusters(c0, c1))
            for c0, c1 in _nnz_groups(v, 4 * threads if threads > 1 else 1)
        ]
    )
    return et


class _PopcornArgmin(ArgminReduction):
    """Fused ``argmin_j (E + P~ + C~)`` over row x cluster chunks of ``E^T``."""

    def __init__(self, et, p_norms, c_norms, **kwargs) -> None:
        super().__init__(et.shape[1], et.shape[0], et.dtype, **kwargs)
        self._et = et
        self._p = p_norms
        self._c = c_norms

    def _operand_bytes(self, rows: int) -> int:
        # the resident E^T, shared by every worker
        return int(self._et.nbytes)

    def _panel(self, ctx, r0, r1, c0, c1) -> np.ndarray:
        # C order, so the row argmin reads the panel without a copy
        panel = np.add(self._et[c0:c1, r0:r1].T, self._p[r0:r1, None], order="C")
        panel += self._c[c0:c1][None, :]
        return panel


class FusedDistances:
    """Result of one fused Popcorn distance step.

    Holds the argmin outputs (``labels``, ``min_d``), the centroid norms
    ``c_norms`` and the operands of an exact on-demand entry evaluator
    :meth:`at` — everything the fit loop's objective, convergence and
    empty-cluster-reseed policies need.  The resident ``E^T`` is ``k x
    n``, ``k / n`` of K.
    """

    __slots__ = ("labels", "min_d", "c_norms", "_et", "_p")

    def __init__(self, labels, min_d, c_norms, et, p_norms) -> None:
        self.labels = labels
        self.min_d = min_d
        self.c_norms = c_norms
        self._et = et
        self._p = p_norms

    def at(self, rows, cols) -> np.ndarray:
        """Exact distance entries ``D[rows[t], cols[t]]``.

        Each entry adds the same ``(E + P~) + C~`` terms the panels add
        for that (point, cluster) pair, so the value is bitwise the
        full-matrix ``D[i, j]`` — including empty clusters, whose ``E^T``
        row is exact zeros.  Used by the reseed policy, which touches at
        most ``k`` entries.
        """
        rows = np.atleast_1d(np.asarray(rows))
        cols = np.atleast_1d(np.asarray(cols))
        if rows.shape != cols.shape:
            raise ShapeError("rows and cols must have matching shapes")
        return (self._et[cols, rows] + self._p[rows]) + self.c_norms[cols]


def fused_popcorn_argmin(
    k_mat: np.ndarray,
    labels: np.ndarray,
    k: int,
    *,
    chunk_rows: Optional[int] = None,
    chunk_cols: Optional[int] = None,
    n_threads: Optional[int] = None,
    weights: Optional[np.ndarray] = None,
    dtype=None,
) -> FusedDistances:
    """One Popcorn distance step through the fused reduction engine.

    One pass over K (paper Alg. 2, lines 7-9), each phase bitwise equal
    to its full-matrix counterpart:

    1. **SpMM** — :func:`_e_transpose` computes ``E^T = -2 V K`` once,
       into a resident ``k x n`` array (``k / n`` of K);
    2. **centroid norms** — ``z_i = E^T[lab_i, i]`` is read from it, and
       the same ``C~ = -0.5 V z`` SpMV the full-matrix pipeline runs
       (the -0.5 cancels the -2 and is an exact power-of-two scaling)
       gives the norms, divided once by the cluster sizes;
    3. **fused argmin** — :class:`_PopcornArgmin` sweeps
       ``chunk_rows x chunk_cols`` panels of ``E + P~ + C~``,
       thread-parallel over row chunks.

    Returns a :class:`FusedDistances`; ``labels``/``min_d`` match the
    full-matrix pipeline plus row argmin bit for bit, for every chunk
    shape and thread count (property-tested).
    """
    n = k_mat.shape[0]
    if k_mat.shape != (n, n):
        raise ShapeError("kernel matrix must be square")
    lab = check_labels(labels, n, k)
    dt = np.dtype(dtype) if dtype is not None else k_mat.dtype
    km = np.ascontiguousarray(k_mat, dtype=dt)
    v, sizes = factored_selection(lab, k, weights=weights, dtype=dt)
    p_norms = np.diagonal(km)
    et = _e_transpose(km, v, sizes, n_threads=n_threads)
    c_norms = factored_spmv(v, sizes, et[lab, np.arange(n)], alpha=-0.5)
    red = _PopcornArgmin(
        et, p_norms, c_norms, chunk_rows=chunk_rows, chunk_cols=chunk_cols, n_threads=n_threads
    )
    red.run()
    return FusedDistances(red.labels, red.min_d, c_norms, et, p_norms)


# ----------------------------------------------------------------------
# the out-of-sample prediction reduction
# ----------------------------------------------------------------------

class CrossKernelArgmin(ArgminReduction):
    """Fused ``argmin_j (-2 K_c V^T + C~)`` for out-of-sample queries.

    The query axis streams in support-major panels of at most
    :func:`query_panel_rows` rows (and at most ``chunk_rows``).
    ``support_major(rows)`` returns the ``n_support x len(rows)``
    cross-kernel block of the query rows ``rows`` (a slice or an index
    array) as a C-order array in the model dtype ``dtype``: a kernel
    evaluated support first, ``kernel.pairwise(support, q[rows])``, or a
    transposed slice of a precomputed ``m x n_support`` matrix.  That
    block is the CSR kernel's dense operand as it comes, so
    :func:`repro.sparse.spmm` reduces it while it is cache-hot, with no
    float64 or transposed copy; neither the ``m x n_support``
    cross-kernel nor the ``m x k`` distance block is ever resident.  The
    per-query self-kernel constant is dropped (it cannot move the
    argmin), matching :class:`repro.engine.base.OutOfSamplePredictor`.

    Numerics: ``s_qj`` is one sequential CSR sum, in the model dtype,
    of ``(-2 V_jl) K[l, q]`` over cluster ``j``'s support entries in
    V's stored order; the distance ``s_qj + C~_j`` is then formed in
    float64, so ``min_d`` is float64.  Labels and ``min_d`` are bitwise
    the same for every ``chunk_rows``, ``chunk_cols`` and ``n_threads``,
    on any BLAS:

    * the query panels depend on the model alone (``chunk_rows`` does
      not shape them), so every query meets the same GEMM call;
    * the CSR kernel sums each output column independently, and cluster
      chunks are zero-copy row slices of V.

    A query's result depends on its own row alone, so a lone row equals
    its result in any batch, only where the BLAS GEMM gives a query's
    column the same bits in every panel of at least two columns and
    :data:`QUERY_PANEL_MIN_ENTRIES` entries, within the first
    :data:`QUERY_PANEL_MAX_ROWS` columns.  Panels are at most that wide,
    and a narrower panel is padded with copies of its last row.  This
    holds for OpenBLAS 0.3.31's SkylakeX, Cooperlake and Sandybridge
    kernels (measured), but not for its Haswell kernels (also used on
    Zen), where a column's bits move with its panel width, its position
    and the BLAS thread count; there, a query's label can depend on its
    batch near a tie.  Even where it holds, a call with a single query
    row (``n_rows`` of 1) against a support of more than
    :data:`LONE_ROW_GEMM_BYTES` feature bytes (``support_bytes``, 0 for
    a precomputed cross-kernel) is evaluated as a GEMV, for speed, and
    may differ from the batched result in the last bits.  A one-row
    panel of a wider call is padded like any other.
    """

    def __init__(
        self,
        n_rows: int,
        support_major: Callable[[object], np.ndarray],
        v: CSRMatrix,
        c_norms: np.ndarray,
        *,
        dtype,
        support_bytes: int = 0,
        **kwargs,
    ) -> None:
        super().__init__(n_rows, v.nrows, np.float64, **kwargs)
        dt = np.dtype(dtype)
        self._support_major = support_major
        self._v = v if v.dtype == dt else v.astype(dt)
        self._c = c_norms
        # a one-row call may run as a GEMV (see the class notes); any
        # wider call pads a one-row tail panel like every other panel
        lone = 2 if support_bytes <= LONE_ROW_GEMM_BYTES or n_rows > 1 else 1
        self._min_width = max(lone, -(-QUERY_PANEL_MIN_ENTRIES // max(v.ncols, 1)))
        # per query row: its support-major column and SpMM output column
        # in the model dtype, and its row of the float64 distance panel
        cols = self.n_cols if self.chunk_cols is None else min(self.chunk_cols, self.n_cols)
        self._row_bytes = (v.ncols + cols) * dt.itemsize
        # the panels are the model's alone, never the schedule's: every
        # query then meets the same GEMM call whatever chunk_rows,
        # chunk_cols and n_threads are
        self.chunk_rows = query_panel_rows((v.ncols + self.n_cols) * dt.itemsize + self.n_cols * 8)

    def _operand_bytes(self, rows: int) -> int:
        # the support-major panel and its SpMM output
        return int(max(rows, self._min_width) * self._row_bytes)

    def _row_context(self, r0: int, r1: int):
        pad = self._min_width - (r1 - r0)
        # padding keeps every panel's GEMM on the kernels that round a
        # column the same whatever the panel width (see the class notes)
        rows = slice(r0, r1)
        if pad > 0:
            rows = np.concatenate((np.arange(r0, r1), np.full(pad, r1 - 1)))
        block = self._support_major(rows)
        want = (self._v.ncols, max(r1 - r0, self._min_width))
        if block.shape != want:
            raise ShapeError(f"support-major cross-kernel panel must be {want}, got {block.shape}")
        return block

    def _panel(self, block, r0, r1, c0, c1) -> np.ndarray:
        vc = self._v if c0 == 0 and c1 == self.n_cols else csr_row_slice(self._v, c0, c1)
        e = spmm(vc, block, alpha=-2.0)  # (cc, panel width), model dtype
        return np.add(e[:, : r1 - r0].T, self._c[c0:c1][None, :], order="C")
