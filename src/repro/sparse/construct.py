"""Builders for :class:`~repro.sparse.csr.CSRMatrix`.

Includes the construction that is central to the paper: the cluster
*selection matrix* ``V`` (Eq. 7), a ``k x n`` CSR matrix with exactly one
nonzero per column whose row ``j`` selects (and averages) the points of
cluster ``j``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .._typing import INDEX_DTYPE, as_float_dtype, as_index_vector, as_matrix, check_finite
from ..errors import ConfigError, ShapeError, SparseFormatError
from .csr import CSRMatrix

__all__ = [
    "from_dense",
    "from_coo",
    "from_scipy",
    "identity",
    "random_csr",
    "selection_matrix",
    "weighted_selection_matrix",
    "factored_selection",
    "cluster_counts",
]


def from_dense(a, *, dtype=None, tol: float = 0.0) -> CSRMatrix:
    """Compress a dense 2-D array into CSR.

    Entries with ``|a_ij| <= tol`` are dropped (``tol=0`` keeps exact
    nonzeros only).
    """
    arr = as_matrix(a, dtype=dtype, name="a")
    mask = np.abs(arr) > tol
    rows, cols = np.nonzero(mask)
    values = arr[rows, cols]
    rowptrs = np.zeros(arr.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=arr.shape[0]), out=rowptrs[1:])
    return CSRMatrix(values, cols.astype(INDEX_DTYPE), rowptrs, arr.shape, check=False)


def from_coo(rows, cols, values, shape, *, dtype=None, sum_duplicates: bool = True) -> CSRMatrix:
    """Build CSR from COO triplets.

    Duplicate ``(row, col)`` entries are summed when ``sum_duplicates`` is
    true (matching scipy semantics), otherwise they raise.
    """
    rows = as_index_vector(rows, name="rows")
    cols = as_index_vector(cols, name="cols")
    vals = np.asarray(values)
    if vals.ndim != 1:
        raise ShapeError("values must be 1-D")
    if not (rows.shape == cols.shape == vals.shape):
        raise ShapeError(
            f"rows/cols/values length mismatch: {rows.shape[0]}, {cols.shape[0]}, {vals.shape[0]}"
        )
    nrows, ncols = int(shape[0]), int(shape[1])
    if rows.size and (rows.min() < 0 or rows.max() >= nrows):
        raise SparseFormatError("row index out of bounds")
    if cols.size and (cols.min() < 0 or cols.max() >= ncols):
        raise SparseFormatError("column index out of bounds")
    dt = as_float_dtype(
        dtype if dtype is not None else (vals.dtype if vals.dtype.kind == "f" else np.float64)
    )
    vals = vals.astype(dt, copy=False)

    # lexicographic (row, col) sort via a combined 64-bit key
    key = rows.astype(np.int64) * np.int64(ncols) + cols.astype(np.int64)
    order = np.argsort(key, kind="stable")
    key, rows, cols, vals = key[order], rows[order], cols[order], vals[order]

    if key.size:
        uniq_mask = np.empty(key.size, dtype=bool)
        uniq_mask[0] = True
        np.not_equal(key[1:], key[:-1], out=uniq_mask[1:])
        if not uniq_mask.all():
            if not sum_duplicates:
                raise SparseFormatError("duplicate (row, col) entries")
            group = np.cumsum(uniq_mask) - 1
            vals = np.bincount(group, weights=vals.astype(np.float64)).astype(dt)
            rows = rows[uniq_mask]
            cols = cols[uniq_mask]

    rowptrs = np.zeros(nrows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=nrows), out=rowptrs[1:])
    return CSRMatrix(vals, cols, rowptrs, (nrows, ncols), check=False)


def from_scipy(mat) -> CSRMatrix:
    """Convert a scipy sparse matrix (any format) into our CSR container."""
    csr = mat.tocsr()
    csr.sum_duplicates()
    csr.sort_indices()
    return CSRMatrix(
        np.asarray(csr.data),
        np.asarray(csr.indices, dtype=INDEX_DTYPE),
        np.asarray(csr.indptr, dtype=np.int64),
        csr.shape,
        check=False,
    )


def identity(n: int, *, dtype=np.float32) -> CSRMatrix:
    """The ``n x n`` identity in CSR."""
    dt = as_float_dtype(dtype)
    return CSRMatrix(
        np.ones(n, dtype=dt),
        np.arange(n, dtype=INDEX_DTYPE),
        np.arange(n + 1, dtype=np.int64),
        (n, n),
        check=False,
    )


def random_csr(
    nrows: int,
    ncols: int,
    density: float,
    *,
    rng: np.random.Generator | None = None,
    dtype=np.float32,
) -> CSRMatrix:
    """Uniform random sparse matrix with the given expected density.

    Values are drawn from ``U(-1, 1)``; the sparsity pattern is sampled
    without replacement so the exact nnz is ``round(density * nrows * ncols)``.
    """
    if not (0.0 <= density <= 1.0):
        raise SparseFormatError(f"density must be in [0, 1], got {density}")
    rng = np.random.default_rng() if rng is None else rng
    total = nrows * ncols
    nnz = int(round(density * total))
    flat = rng.choice(total, size=nnz, replace=False) if nnz else np.empty(0, dtype=np.int64)
    rows = (flat // ncols).astype(INDEX_DTYPE)
    cols = (flat % ncols).astype(INDEX_DTYPE)
    vals = rng.uniform(-1.0, 1.0, size=nnz).astype(as_float_dtype(dtype))
    return from_coo(rows, cols, vals, (nrows, ncols), dtype=dtype)


def cluster_counts(labels: np.ndarray, k: int) -> np.ndarray:
    """Per-cluster cardinalities ``|L_j|`` as an int64 vector of length ``k``."""
    lab = as_index_vector(labels, name="labels")
    if lab.size and (lab.min() < 0 or lab.max() >= k):
        raise ShapeError(f"labels must lie in [0, {k})")
    return np.bincount(lab, minlength=k).astype(np.int64)


def selection_matrix(labels: np.ndarray, k: int, *, dtype=np.float32) -> CSRMatrix:
    """Build the paper's selection matrix ``V`` (Eq. 7).

    ``V`` is ``k x n`` with ``V[j, i] = 1 / |L_j|`` iff point ``i`` belongs
    to cluster ``j``.  It has **exactly one nonzero per column** — the
    property Sec. 3.3 exploits for the SpMV centroid-norm trick — and
    exactly ``n`` nonzeros in total (empty clusters simply yield empty
    rows).

    Parameters
    ----------
    labels:
        Assignment vector of length ``n`` with values in ``[0, k)``.
    k:
        Number of clusters (rows of ``V``).
    dtype:
        Floating dtype of the stored reciprocal cardinalities.
    """
    return _normalised(*factored_selection(labels, k, dtype=np.float64), dtype)


def weighted_selection_matrix(
    labels: np.ndarray, k: int, weights: np.ndarray, *, dtype=np.float64
) -> CSRMatrix:
    """Build ``V_w`` with ``V_w[j, i] = w_i / s_j`` (one nonzero per column).

    The weighted generalisation of :func:`selection_matrix` (Dhillon, Guan
    & Kulis, KDD 2004): ``s_j`` is the total weight of cluster ``j``, so
    ``C = V_w P`` gives the weighted centroids.  Empty clusters produce
    empty rows; clusters whose total weight is zero (possible with
    zero-weight points) also produce zero rows.
    """
    b, sizes = factored_selection(labels, k, weights=weights, dtype=np.float64)
    return _normalised(b, sizes, dtype)


def _normalised(b: CSRMatrix, sizes: np.ndarray, dtype) -> CSRMatrix:
    """``diag(1/sizes) b`` with the values cast to ``dtype``."""
    values = (b.values * (1.0 / sizes)[b.row_indices()]).astype(as_float_dtype(dtype))
    return CSRMatrix(values, b.colinds, b.rowptrs, b.shape, check=False)


def factored_selection(
    labels: np.ndarray, k: int, *, weights: np.ndarray | None = None, dtype=np.float32
) -> Tuple[CSRMatrix, np.ndarray]:
    """The selection matrix in factored form ``V = diag(1 / s) B``.

    ``B[j, i]`` is ``1`` (or ``w_i`` with ``weights``) iff point ``i`` is
    in cluster ``j`` — the unnormalised indicator, whose products are
    cluster sums rather than means — and ``s_j`` is ``|L_j|`` (or the cluster's total
    weight) — ``1`` for a row that sums to zero, so dividing by it leaves
    that row's zero products alone.  A product through ``B`` divided once
    per output row by ``s`` rounds once, where ``V``'s stored ``1/|L_j|``
    rounds in every term: the mean of ``|L_j|`` equal entries comes back
    exactly.
    """
    lab = as_index_vector(labels, name="labels")
    counts = cluster_counts(lab, k)
    n = lab.shape[0]
    dt = as_float_dtype(dtype)
    order = np.argsort(lab, kind="stable").astype(INDEX_DTYPE)
    if weights is None:
        values = np.ones(n, dtype=dt)
        sums = counts.astype(np.float64)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1:
            raise ShapeError("weights must be 1-D")
        if w.shape[0] != n:
            raise ShapeError(f"weights must have length {n}, got {w.shape[0]}")
        check_finite(w, name="weights")
        if np.any(w < 0):
            raise ConfigError("weights must be non-negative")
        values = w[order].astype(dt)
        sums = np.bincount(lab, weights=w, minlength=k)
    rowptrs = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(counts, out=rowptrs[1:])
    b = CSRMatrix(values, order, rowptrs, (k, n), check=False)
    return b, np.where(sums > 0, sums, 1.0).astype(dt)
