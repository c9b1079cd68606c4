"""Sparse-dense matrix multiplication (SpMM).

Computes ``C = alpha * A @ B`` for CSR ``A`` (``m x n``) and dense ``B``
(``n x p``).  This mirrors the cuSPARSE SpMM routine Popcorn uses for
``-2 K V^T`` (paper Alg. 2 line 7, executed as the transpose of
``V @ K``).

Implementation notes (HPC guides):

* the hot loop is fully vectorised — per-nonzero contributions are
  materialised as ``values[:, None] * B[colinds]`` and reduced per row
  with :func:`numpy.add.reduceat` (a segmented sum);
* the contribution buffer is blocked over columns of ``B`` so the
  temporary stays bounded by ``nnz * block`` elements regardless of ``p``;
* empty rows are handled explicitly because ``reduceat`` semantics
  collapse zero-length segments.
"""

from __future__ import annotations

import numpy as np

from .._typing import as_float_dtype
from ..errors import ShapeError
from .csr import CSRMatrix

__all__ = ["spmm"]

#: column block size for the contribution buffer (elements of B per pass)
_BLOCK_COLS = 128


def _segment_row_sum(contrib: np.ndarray, rowptrs: np.ndarray, nrows: int) -> np.ndarray:
    """Sum ``contrib`` (``nnz x b``) into per-row totals (``nrows x b``).

    ``rowptrs`` delimits the CSR row segments.  Rows with no nonzeros
    produce zero rows in the output.
    """
    b = contrib.shape[1]
    out = np.zeros((nrows, b), dtype=contrib.dtype)
    if contrib.shape[0] == 0:
        return out
    row_sizes = np.diff(rowptrs)
    nonempty = np.flatnonzero(row_sizes > 0)
    if nonempty.size == 0:
        return out
    starts = rowptrs[:-1][nonempty]
    # reduceat over the starts of non-empty rows: segment i spans
    # [starts[i], starts[i+1]) and the final segment runs to nnz, which is
    # exactly the end of the last non-empty row.
    out[nonempty] = np.add.reduceat(contrib, starts, axis=0)
    return out


def spmm(
    a: CSRMatrix, b: np.ndarray, *, alpha: float = 1.0, out: np.ndarray | None = None
) -> np.ndarray:
    """Compute ``alpha * a @ b`` with CSR ``a`` and dense ``b``.

    Parameters
    ----------
    a:
        CSR matrix of shape ``(m, n)``.
    b:
        Dense matrix of shape ``(n, p)``; promoted to ``a.dtype``.  Any
        memory layout is accepted without a copy — the kernel gathers
        rows of ``b`` by fancy indexing, which is layout-agnostic — so
        callers can pass transposed or column-sliced views directly.
    alpha:
        Scalar multiplier fused into the product (cuSPARSE-style).
    out:
        Optional preallocated ``(m, p)`` output (must be C-contiguous and
        of the result dtype); contents are overwritten.

    Returns
    -------
    numpy.ndarray
        Dense ``(m, p)`` product.
    """
    bmat = np.asarray(b)
    if bmat.ndim != 2:
        raise ShapeError(f"b must be 2-D, got ndim={bmat.ndim}")
    if bmat.dtype != a.dtype:
        bmat = bmat.astype(as_float_dtype(a.dtype))
    m, n = a.shape
    if bmat.shape[0] != n:
        raise ShapeError(f"spmm dimension mismatch: A is {a.shape}, B is {bmat.shape}")
    p = bmat.shape[1]
    if out is None:
        out = np.empty((m, p), dtype=a.dtype)
    elif out.shape != (m, p) or out.dtype != a.dtype or not out.flags.c_contiguous:
        raise ShapeError("out must be a C-contiguous (m, p) array of the result dtype")

    if a.nnz == 0 or p == 0:
        out[...] = 0
        return out

    vals = a.values if alpha == 1.0 else (a.values * a.dtype.type(alpha))
    colinds = a.colinds
    for lo in range(0, p, _BLOCK_COLS):
        hi = min(lo + _BLOCK_COLS, p)
        contrib = vals[:, None] * bmat[colinds, lo:hi]
        out[:, lo:hi] = _segment_row_sum(contrib, a.rowptrs, m)
    return out
