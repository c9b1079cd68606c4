"""Structural and elementwise operations on CSR matrices.

Transpose, diagonal extraction, scaling, addition and row/column
reductions — everything the Popcorn pipeline and its ablations need beyond
the three multiply kernels.
"""

from __future__ import annotations

import numpy as np

from .._typing import INDEX_DTYPE
from ..errors import ShapeError
from .csr import CSRMatrix
from .spmv import spmv

__all__ = [
    "transpose",
    "diagonal",
    "scale",
    "add",
    "row_sums",
    "col_sums",
    "row_scale",
    "prune_explicit_zeros",
]


def transpose(a: CSRMatrix) -> CSRMatrix:
    """Return ``a^T`` as a canonical CSR matrix.

    Implemented as a counting sort on column indices (the classic
    CSR-to-CSC conversion), fully vectorised.
    """
    m, n = a.shape
    if a.nnz == 0:
        return CSRMatrix(
            np.empty(0, dtype=a.dtype),
            np.empty(0, dtype=INDEX_DTYPE),
            np.zeros(n + 1, dtype=np.int64),
            (n, m),
            check=False,
        )
    rows = a.row_indices()
    # stable sort by column gives the transpose's row-major order; within a
    # column the original row order (ascending) is preserved, which becomes
    # ascending column order in the transpose — canonical form for free.
    order = np.argsort(a.colinds, kind="stable")
    t_cols = rows[order]
    t_vals = a.values[order]
    rowptrs = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(a.colinds, minlength=n), out=rowptrs[1:])
    return CSRMatrix(t_vals, t_cols, rowptrs, (n, m), check=False)


def diagonal(a: CSRMatrix) -> np.ndarray:
    """Extract the main diagonal as a dense vector of length ``min(m, n)``.

    Mirrors the kernel-matrix diagonal extraction of Alg. 2 line 2
    (``P~`` initialisation) when applied to a sparse operand.
    """
    m, n = a.shape
    d = np.zeros(min(m, n), dtype=a.dtype)
    if a.nnz == 0:
        return d
    rows = a.row_indices()
    hit = rows == a.colinds
    if np.any(hit):
        d[rows[hit]] = a.values[hit]
    return d


def scale(a: CSRMatrix, alpha: float) -> CSRMatrix:
    """Return ``alpha * a`` (same sparsity pattern)."""
    return CSRMatrix(
        a.values * a.dtype.type(alpha), a.colinds, a.rowptrs, a.shape, check=False
    )


def add(a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
    """Return ``a + b`` as canonical CSR (patterns are merged)."""
    if a.shape != b.shape:
        raise ShapeError(f"add shape mismatch: {a.shape} vs {b.shape}")
    from .construct import from_coo

    rows = np.concatenate([a.row_indices(), b.row_indices()])
    cols = np.concatenate([a.colinds, b.colinds])
    dtype = np.promote_types(a.dtype, b.dtype)
    vals = np.concatenate(
        [a.values.astype(dtype, copy=False), b.values.astype(dtype, copy=False)]
    )
    return from_coo(rows, cols, vals, a.shape, dtype=dtype)


def row_sums(a: CSRMatrix) -> np.ndarray:
    """Per-row sums as a dense vector of length ``nrows``: the SpMV
    against a ones vector, one sequential sum per row."""
    return spmv(a, np.ones(a.ncols, dtype=a.dtype))


def col_sums(a: CSRMatrix) -> np.ndarray:
    """Per-column sums as a dense vector of length ``ncols``."""
    if a.nnz == 0:
        return np.zeros(a.ncols, dtype=a.dtype)
    sums = np.bincount(a.colinds, weights=a.values.astype(np.float64), minlength=a.ncols)
    return sums.astype(a.dtype)


def row_scale(a: CSRMatrix, d: np.ndarray) -> CSRMatrix:
    """Return ``diag(d) @ a`` — scale row ``i`` by ``d[i]``."""
    dv = np.asarray(d)
    if dv.shape != (a.nrows,):
        raise ShapeError(f"row_scale vector must have length {a.nrows}, got {dv.shape}")
    vals = a.values * dv.astype(a.dtype, copy=False)[a.row_indices()]
    return CSRMatrix(vals, a.colinds, a.rowptrs, a.shape, check=False)


def prune_explicit_zeros(a: CSRMatrix) -> CSRMatrix:
    """Drop stored entries whose value is exactly zero."""
    if a.nnz == 0:
        return a.copy()
    keep = a.values != 0
    if keep.all():
        return a.copy()
    rows = a.row_indices()[keep]
    rowptrs = np.zeros(a.nrows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=a.nrows), out=rowptrs[1:])
    return CSRMatrix(a.values[keep], a.colinds[keep], rowptrs, a.shape, check=False)
