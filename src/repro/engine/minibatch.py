"""Online mini-batch kernel k-means (the ``partial_fit`` engine path).

Refitting the Popcorn pipeline from scratch on every data drift costs
O(iterations x nnz(K)); this module is the incremental alternative, with
sklearn ``MiniBatchKMeans``-style semantics transplanted into the
kernel-space formulation the engine runs on:

* **per-batch assignment** goes through the fused reduction engine
  (:class:`~repro.engine.reduction.CrossKernelArgmin` — one
  support-major cross-kernel panel in the model dtype resident,
  thread-parallel), against
  the *current* selection matrix V and centroid norms;
* **incremental V / norm updates** use per-cluster learning-rate counts:
  with accumulated cluster weight ``S_j`` and a batch contribution
  ``A_j = sum w_b``, the feature-space centroid moves as

      c'_j = (S_j / S'_j) c_j + (1 / S'_j) sum_b w_b phi(q_b),
      S'_j = S_j + A_j,

  which in CSR terms is one scaling of cluster ``j``'s existing V values
  by ``S_j / S'_j`` plus appended columns ``w_b / S'_j`` — and the
  centroid norm updates in closed form from quantities the assignment
  already produced (``<phi(q_b), c_j>`` falls out of the fused
  ``min_d = -2 s + ||c||^2``) plus one small batch-local Gram block;
* **dead-cluster reassignment**: clusters whose accumulated weight drops
  below ``reassignment_ratio * max_j S_j`` are reset to a random batch
  point (count ``w_b``, norm ``kappa(b, b)``), so centers starved by
  drift re-enter circulation;
* **early stop on smoothed inertia**: an exponentially-weighted average
  of the per-sample batch inertia; ``max_no_improvement`` batches
  without a relative improvement of at least ``tol`` (the same
  tolerance the full-fit convergence tracker uses) set ``converged_``
  (``partial_fit`` itself never refuses an update — the refresh
  pipeline consults the flag).

The first ``partial_fit`` call (cold start) is **one full fit iteration,
bit for bit**: it replays the estimator's init and one
distances -> argmin -> policy -> objective step through
:func:`~repro.engine.reduction.fused_popcorn_argmin` on the host
numerics, then finalizes the same out-of-sample support ``fit`` would.
With the whole dataset in the first batch (``batch_size=None``), the
resulting ``labels_`` / ``objective_`` / support set are bitwise
identical to ``fit(..., max_iter=1)`` (property-tested).

Two input modes, fixed at the cold start:

* **points** (``partial_fit(x=...)``): the support set grows by each
  batch (kernel centroids are combinations of observed points — the
  kernel-method price of online updates); queries evaluate the kernel
  against the accumulated support.
* **precomputed** (``partial_fit(kernel_matrix=...)``): repeated passes
  over one fixed dataset — every call takes the same square
  ``n x n`` matrix and streams its rows as batches; coefficients
  accumulate on the fixed support columns and the support never grows.

Estimators opt in through the registry's ``supports_partial_fit``
capability tag (:mod:`repro.estimators`); the uniform surface is
``partial_fit(x=None, *, kernel_matrix=None, sample_weight=None)`` on
:class:`~repro.engine.base.OutOfSamplePredictor`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .._typing import INDEX_DTYPE, as_matrix, as_vector, check_finite
from ..errors import ConfigError, ShapeError
from ..obs import metrics, trace
from ..sparse import CSRMatrix
from .backends import DistanceStep, _host_kernel_matrix, _resolve_gram_method
from .reduction import CrossKernelArgmin, chunk_ranges, fused_popcorn_argmin

__all__ = [
    "EWA_ALPHA",
    "OnlineState",
    "partial_fit_step",
    "restore_online_state",
]

#: smoothing factor of the exponentially-weighted batch-inertia average
#: (the stream length is unknown, so the sklearn ``n_samples``-derived
#: factor is replaced by a fixed constant)
EWA_ALPHA = 0.3


@dataclass
class OnlineState:
    """Per-estimator online-update state (``est._online``).

    Lives outside the params protocol, so :func:`repro.params.clone`
    drops it by construction — a clone is a fresh, unfitted estimator.
    """

    rng: np.random.Generator
    precomputed: bool
    n_support: int
    counts: np.ndarray  # (k,) float64 accumulated per-cluster weight
    members: List[np.ndarray]  # per cluster: support column indices
    vals: List[np.ndarray]  # per cluster: float64 V values (w_i / S_j)
    c_norms: np.ndarray  # (k,) float64, shared with est._c_norms
    ewa_inertia: Optional[float] = None
    ewa_inertia_min: Optional[float] = None
    no_improvement: int = 0

    def counters(self) -> dict:
        """JSON-safe snapshot of the smoothed-inertia counters (persisted
        in the v3 artifact schema)."""
        return {
            "ewa_inertia": self.ewa_inertia,
            "ewa_inertia_min": self.ewa_inertia_min,
            "no_improvement": int(self.no_improvement),
            "precomputed": bool(self.precomputed),
        }


# ----------------------------------------------------------------------
# state construction
# ----------------------------------------------------------------------

def _split_support(v: CSRMatrix):
    """Per-cluster (members, vals) copies of a support selection matrix."""
    members, vals = [], []
    for j in range(v.nrows):
        lo, hi = int(v.rowptrs[j]), int(v.rowptrs[j + 1])
        members.append(v.colinds[lo:hi].astype(INDEX_DTYPE, copy=True))
        vals.append(v.values[lo:hi].astype(np.float64, copy=True))
    return members, vals


def _rebuild_support(est, state: OnlineState) -> None:
    """Write the per-cluster arrays back as ``est._support_v`` (CSR).

    Column indices within a row may repeat or be unsorted (precomputed
    mode accumulates duplicate coefficients; reassignment reuses batch
    columns) — ``check=False`` skips the canonical-form validation, and
    the CSR SpMM/SpMV sum duplicates by construction.
    """
    k = len(state.members)
    lens = np.fromiter((m.shape[0] for m in state.members), dtype=np.int64, count=k)
    rowptrs = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(lens, out=rowptrs[1:])
    if rowptrs[-1]:
        colinds = np.concatenate(state.members).astype(INDEX_DTYPE, copy=False)
        values = np.concatenate(state.vals)
    else:
        colinds = np.empty(0, dtype=INDEX_DTYPE)
        values = np.empty(0, dtype=np.float64)
    est._support_v = CSRMatrix(
        values, colinds, rowptrs, (k, state.n_support), check=False
    )


def _state_from_support(est, rng: np.random.Generator) -> OnlineState:
    """Warm-start online state from a fully-fitted estimator's support."""
    v = est._support_selection()
    k, n_sup = v.nrows, v.ncols
    labels = getattr(est, "labels_", None)
    if labels is None or np.asarray(labels).shape[0] != n_sup:
        raise ConfigError(
            "cannot warm-start partial_fit: the fitted labels_ do not cover "
            "the support set (an online-fitted model needs its persisted "
            "per-cluster counts — load a schema-v3 artifact, or refit)"
        )
    w = est._support_weights
    wfull = (
        np.ones(n_sup, dtype=np.float64)
        if w is None
        else np.asarray(w, dtype=np.float64)
    )
    counts = np.bincount(
        np.asarray(labels), weights=wfull, minlength=k
    ).astype(np.float64)
    members, vals = _split_support(v)
    c_norms = np.asarray(est._c_norms, dtype=np.float64)
    est._c_norms = c_norms
    return OnlineState(
        rng=rng,
        precomputed=est._support_x is None,
        n_support=n_sup,
        counts=counts,
        members=members,
        vals=vals,
        c_norms=c_norms,
    )


def restore_online_state(est, counts: np.ndarray, meta: Optional[dict] = None) -> None:
    """Rebuild ``est._online`` from persisted arrays (artifact loading).

    ``counts`` are the per-cluster accumulated weights the v3 schema
    stores; ``meta`` carries the smoothed-inertia counters.  The RNG is
    reseeded from the estimator's ``seed`` parameter — reassignment
    draws after a save/load round trip follow the reseeded stream (the
    artifact stays pickle-free, so generator state is not carried).
    """
    v = est._support_selection()
    members, vals = _split_support(v)
    c_norms = np.asarray(est._c_norms, dtype=np.float64)
    est._c_norms = c_norms
    meta = meta or {}
    counts = np.asarray(counts, dtype=np.float64)
    if counts.shape[0] != v.nrows:
        raise ShapeError(
            f"online counts must have length {v.nrows}, got {counts.shape[0]}"
        )
    est._online = OnlineState(
        rng=est._rng(),
        precomputed=bool(meta.get("precomputed", est._support_x is None)),
        n_support=v.ncols,
        counts=counts,
        members=members,
        vals=vals,
        c_norms=c_norms,
        ewa_inertia=meta.get("ewa_inertia"),
        ewa_inertia_min=meta.get("ewa_inertia_min"),
        no_improvement=int(meta.get("no_improvement", 0)),
    )


# ----------------------------------------------------------------------
# the cold start: one full fit iteration, bit for bit
# ----------------------------------------------------------------------

def _cold_start(est, xm, km, w) -> None:
    """Replay one host fit iteration on the first batch.

    Mirrors ``BaseKernelKMeans._fit_loop`` body for exactly one
    iteration through the same :func:`fused_popcorn_argmin` call the
    host backend makes, then finalizes the same support ``fit`` would —
    so a full-data first batch is bitwise one full-fit iteration.
    """
    from ..baselines.init import kernel_kmeans_pp_labels, random_labels

    rng = est._rng()
    n = km.shape[0]
    k = est.n_clusters
    if k > n:
        raise ConfigError(
            f"n_clusters={k} exceeds the first partial_fit batch (n={n}); "
            "the cold-start batch seeds every cluster"
        )
    if est.init == "k-means++":
        labels0 = kernel_kmeans_pp_labels(km, k, rng)
    else:
        labels0 = random_labels(n, k, rng)

    w_fit = w
    if w_fit is None and est._partial_fit_unit_weights:
        w_fit = np.ones(n, dtype=np.float64)
    fused = fused_popcorn_argmin(
        km,
        labels0,
        k,
        chunk_rows=est.chunk_rows,
        chunk_cols=est.chunk_cols,
        n_threads=est.n_threads,
        weights=w_fit,
        dtype=est.dtype,
    )
    step = DistanceStep(labels=fused.labels, min_d=fused.min_d, at=fused.at)
    labels = step.argmin_labels()
    if est.empty_cluster_policy == "reseed":
        labels = est._reseed_empty(step, labels, k)
    objective = est._objective(step, labels, w_fit)

    est._finalize_support(km, labels, x=xm, weights=w_fit)
    est.labels_ = labels
    est.n_iter_ = 1
    est.objective_history_ = [objective]
    est.objective_ = objective
    est.converged_ = False
    est.convergence_reason_ = "online: awaiting more batches"
    est.backend_ = "host"
    est.n_batches_seen_ = 1
    est.device_ = None

    wfull = w_fit if w_fit is not None else np.ones(n, dtype=np.float64)
    counts = np.bincount(labels, weights=wfull, minlength=k).astype(np.float64)
    members, vals = _split_support(est._support_v)
    c_norms = np.asarray(est._c_norms, dtype=np.float64)
    est._c_norms = c_norms
    est._online = OnlineState(
        rng=rng,
        precomputed=xm is None,
        n_support=n,
        counts=counts,
        members=members,
        vals=vals,
        c_norms=c_norms,
    )


# ----------------------------------------------------------------------
# incremental batch updates
# ----------------------------------------------------------------------

def _kernel_self_diag(kernel, xb: np.ndarray, block: int = 512) -> np.ndarray:
    """``kappa(b, b)`` per batch row via blocked pairwise diagonals."""
    m = xb.shape[0]
    out = np.empty(m, dtype=np.float64)
    for lo, hi in chunk_ranges(m, block):
        out[lo:hi] = np.asarray(
            np.diagonal(kernel.pairwise(xb[lo:hi])), dtype=np.float64
        )
    return out


def _update_batch(
    est,
    state: OnlineState,
    *,
    support_major: Callable[[object], np.ndarray],
    support_bytes: int,
    m: int,
    w_b: np.ndarray,
    diag_b: np.ndarray,
    batch_cols: np.ndarray,
    kbb_fn: Callable[[np.ndarray], np.ndarray],
    grow_support: bool,
    xb: Optional[np.ndarray],
) -> np.ndarray:
    """Assign one batch against the current model, then fold it in.

    Returns the batch labels.  ``support_major(rows)`` is the
    :class:`~repro.engine.reduction.CrossKernelArgmin` panel callback
    for batch rows ``rows``, and ``support_bytes`` its ``support_bytes``;
    ``batch_cols[i]`` is the support column
    batch row ``i`` occupies after the update; ``kbb_fn(idx)`` evaluates
    the batch-local kernel block for one cluster's members.
    """
    with trace.span("minibatch.assign", m=m):
        red = CrossKernelArgmin(
            m,
            support_major,
            est._support_selection(),
            state.c_norms,
            dtype=est.dtype,
            support_bytes=support_bytes,
            chunk_rows=est.chunk_rows,
            chunk_cols=est.chunk_cols,
            n_threads=est.n_threads,
        )
        labels_b, min_d = red.run()

    # fused min_d drops the per-query constant: d = -2 s + ||c||^2, so
    # the assignment's <phi(q_b), c_j> and the true batch inertia both
    # fall out without re-touching the cross-kernel
    s_b = 0.5 * (state.c_norms[labels_b] - min_d)
    inertia = float((w_b * (diag_b + min_d)).sum())

    if grow_support:
        state.n_support += m
        sup = est._support_x
        if sup is None:
            raise ConfigError(
                "estimator holds no support points; it was cold-started on "
                "a precomputed kernel_matrix — keep passing kernel_matrix="
            )
        est._support_x = np.vstack([sup, np.asarray(xb, dtype=sup.dtype)])
        sw = est._support_weights
        if sw is not None:
            est._support_weights = np.concatenate(
                [np.asarray(sw, dtype=np.float64), w_b]
            )

    with trace.span("minibatch.update", m=m):
        for j in np.unique(labels_b):
            idx = np.flatnonzero(labels_b == j)
            wj = w_b[idx]
            add = float(wj.sum())
            old = float(state.counts[j])
            new = old + add
            scale = old / new
            if old > 0.0:
                state.vals[j] = state.vals[j] * scale
            else:  # first mass ever seen by this cluster: drop stale entries
                state.members[j] = np.empty(0, dtype=INDEX_DTYPE)
                state.vals[j] = np.empty(0, dtype=np.float64)
            state.members[j] = np.concatenate(
                [state.members[j], batch_cols[idx].astype(INDEX_DTYPE, copy=False)]
            )
            state.vals[j] = np.concatenate([state.vals[j], wj / new])
            kbb = kbb_fn(idx)
            quad = float(wj @ np.asarray(kbb, dtype=np.float64) @ wj)
            cross = float((wj * s_b[idx]).sum())
            state.counts[j] = new
            state.c_norms[j] = (
                scale * scale * state.c_norms[j]
                + 2.0 * (scale / new) * cross
                + quad / (new * new)
            )

        # dead-cluster reassignment AFTER the fold-in, so reset clusters
        # never see a stale scale on the next batch
        ratio = float(getattr(est, "reassignment_ratio", 0.0) or 0.0)
        if ratio > 0.0 and m > 0:
            cap = ratio * float(state.counts.max())
            for j in np.flatnonzero(state.counts < cap):
                b = int(state.rng.integers(m))
                state.members[j] = np.array([batch_cols[b]], dtype=INDEX_DTYPE)
                state.vals[j] = np.array([1.0], dtype=np.float64)
                state.counts[j] = float(w_b[b])
                state.c_norms[j] = float(diag_b[b])

        _rebuild_support(est, state)

    # smoothed-inertia early-stop bookkeeping (per-sample normalized)
    w_sum = float(w_b.sum())
    per_sample = inertia / w_sum if w_sum > 0.0 else 0.0
    if state.ewa_inertia is None:
        state.ewa_inertia = per_sample
    else:
        state.ewa_inertia = (
            state.ewa_inertia * (1.0 - EWA_ALPHA) + per_sample * EWA_ALPHA
        )
    # a batch "improves" only when the smoothed inertia drops by the
    # estimator's relative tolerance — the same tol the full-fit
    # ConvergenceTracker applies to its objective criterion
    tol = max(float(getattr(est, "tol", 0.0) or 0.0), 0.0)
    floor = (
        None
        if state.ewa_inertia_min is None
        else state.ewa_inertia_min - tol * abs(state.ewa_inertia_min)
    )
    if floor is None or state.ewa_inertia < floor:
        state.ewa_inertia_min = state.ewa_inertia
        state.no_improvement = 0
    else:
        state.no_improvement += 1
    patience = getattr(est, "max_no_improvement", None)
    if patience is not None and state.no_improvement >= patience:
        est.converged_ = True
        est.convergence_reason_ = (
            f"online: smoothed inertia has not improved over "
            f"{patience} consecutive batches"
        )

    est.n_iter_ = int(getattr(est, "n_iter_", 0)) + 1
    est.n_batches_seen_ = int(getattr(est, "n_batches_seen_", 0)) + 1
    est.objective_ = inertia
    history = getattr(est, "objective_history_", None)
    if history is None:
        history = []
        est.objective_history_ = history
    history.append(inertia)
    return labels_b


# ----------------------------------------------------------------------
# the partial_fit entry point
# ----------------------------------------------------------------------

def partial_fit_step(est, x=None, *, kernel_matrix=None, sample_weight=None):
    """One ``partial_fit`` call: validate inputs, split into batches,
    cold-start or incrementally update, and set the fitted attributes."""
    if x is not None and kernel_matrix is not None:
        raise ConfigError("pass points x or kernel_matrix, not both")
    if x is None and kernel_matrix is None:
        raise ShapeError(
            "partial_fit needs either points x or a precomputed kernel_matrix"
        )

    state: Optional[OnlineState] = getattr(est, "_online", None)
    if state is None and getattr(est, "labels_", None) is not None:
        # fitted by a full fit (or loaded from an artifact without online
        # counters): warm-start from the existing support
        state = _state_from_support(est, est._rng())
        est._online = state
        est.n_batches_seen_ = int(getattr(est, "n_batches_seen_", 0))

    precomputed_mode = kernel_matrix is not None
    if state is not None and precomputed_mode != state.precomputed:
        want = "kernel_matrix=" if state.precomputed else "x="
        raise ConfigError(
            f"partial_fit input mode is fixed at the first call; this "
            f"estimator is online-fitted in "
            f"{'precomputed' if state.precomputed else 'points'} mode — "
            f"keep passing {want}"
        )

    if precomputed_mode:
        km = check_finite(
            as_matrix(kernel_matrix, dtype=est.dtype, name="kernel_matrix"),
            name="kernel_matrix",
        )
        n = km.shape[0]
        if km.shape != (n, n):
            raise ShapeError("kernel_matrix must be square")
        if state is not None and n != state.n_support:
            raise ShapeError(
                f"precomputed-mode partial_fit streams one fixed dataset: "
                f"kernel_matrix must be {state.n_support} x "
                f"{state.n_support}, got {km.shape}"
            )
        km64 = km.astype(np.float64, copy=False)
        xm = None
    else:
        xm = check_finite(as_matrix(x, dtype=est.dtype, name="x"), name="x")
        n = xm.shape[0]
        kernel = getattr(est, "kernel", None)
        if kernel is None:
            raise ConfigError(
                f"{type(est).__name__} has no kernel to evaluate batches with"
            )

    w = None
    if sample_weight is not None:
        w = check_finite(
            as_vector(sample_weight, dtype=np.float64, name="sample_weight"),
            name="sample_weight",
        )
        if w.shape[0] != n:
            raise ShapeError(f"sample_weight must have length {n}")
        if np.any(w < 0):
            raise ConfigError("sample_weight must be non-negative")

    batches = chunk_ranges(n, getattr(est, "batch_size", None))
    if not batches:
        raise ShapeError("partial_fit needs at least one sample")

    call_labels: List[np.ndarray] = []
    for lo, hi in batches:
        w_slice = None if w is None else w[lo:hi]
        if getattr(est, "_online", None) is None:
            # the cold start consumes one batch as a full fit iteration;
            # any remaining slices of this call stream incrementally
            if precomputed_mode:
                if (lo, hi) != (0, n):
                    raise ConfigError(
                        "precomputed-mode cold start needs the full square "
                        "kernel_matrix in one batch; unset batch_size for "
                        "the first call"
                    )
                with trace.span("minibatch.cold_start", n=n):
                    _cold_start(est, None, km, w_slice)
                est.gram_method_ = "precomputed"
            else:
                xb0 = xm[lo:hi]
                with trace.span("minibatch.cold_start", n=hi - lo):
                    _cold_start(est, xb0, _batch_kernel_matrix(est, xb0), w_slice)
            call_labels.append(est.labels_)
            continue
        state = est._online
        m = hi - lo
        w_b = (
            np.ones(m, dtype=np.float64) if w_slice is None else w_slice
        )
        if trace.enabled:
            metrics.counter("minibatch.batches").inc()
        if precomputed_mode:
            rows = np.arange(lo, hi)
            with trace.span("minibatch.batch", lo=lo, hi=hi):
                labels_b = _update_batch(
                    est,
                    state,
                    support_major=lambda sel, kb=km[lo:hi]: np.ascontiguousarray(kb[sel].T),
                    support_bytes=0,
                    m=m,
                    w_b=w_b,
                    diag_b=np.asarray(np.diagonal(km64)[lo:hi], dtype=np.float64),
                    batch_cols=rows,
                    kbb_fn=lambda idx, rows=rows: km64[np.ix_(rows[idx], rows[idx])],
                    grow_support=False,
                    xb=None,
                )
        else:
            xb = xm[lo:hi]
            sup_before = as_matrix(est._support_x, dtype=xb.dtype, name="support")
            kernel = est.kernel
            sup_sq = est._support_sq_norms(kernel, xb.dtype)
            with trace.span("minibatch.batch", lo=lo, hi=hi):
                labels_b = _update_batch(
                    est,
                    state,
                    support_major=lambda sel, xb=xb, sup=sup_before, sq=sup_sq: kernel.pairwise(
                        sup, xb[sel], x_sq=sq
                    ),
                    support_bytes=sup_before.nbytes,
                    m=m,
                    w_b=w_b,
                    diag_b=_kernel_self_diag(kernel, xb),
                    batch_cols=np.arange(state.n_support, state.n_support + m),
                    kbb_fn=lambda idx, xb=xb: kernel.pairwise(xb[idx]),
                    grow_support=True,
                    xb=xb,
                )
        call_labels.append(labels_b)

    est.labels_ = (
        call_labels[0]
        if len(call_labels) == 1
        else np.concatenate(call_labels)
    )
    return est


def _batch_kernel_matrix(est, xm: np.ndarray) -> np.ndarray:
    """The cold-start batch's kernel matrix, on the host fit numerics."""
    n, d = xm.shape
    used = _resolve_gram_method(
        getattr(est, "gram_method", "auto"),
        getattr(est, "gram_threshold", None),
        n,
        d,
        tiled=getattr(est, "chunk_rows", None) is not None,
    )
    km, _ = _host_kernel_matrix(xm, est.kernel, used)
    est.gram_method_ = used
    return km
