"""Sparse-dense matrix multiplication (SpMM).

Computes ``C = alpha * A @ B`` for CSR ``A`` (``m x n``) and dense ``B``
(``n x p``).  This mirrors the cuSPARSE SpMM routine Popcorn uses for
``-2 K V^T`` (paper Alg. 2 line 7, executed as the transpose of
``V @ K``).

The product runs on scipy's compiled CSR kernel (``csr_matvecs``), which
walks each row's nonzeros in stored order and adds ``(alpha * a_il) *
B[l, :]`` into the output row.  Every output entry is therefore one
strictly sequential sum in the row's nonzero order — it depends on that
row of ``A`` and that column of ``B`` alone, so slicing ``A``'s rows or
``B``'s columns never changes a bit of the result.

:func:`factored_spmm` is the product through a factored matrix
``diag(1/s) B`` (:func:`repro.sparse.factored_selection`): the SpMM runs
through ``B`` and each output row is divided once by its ``s`` entry.

``csr_matvecs`` lives in scipy's private ``scipy.sparse._sparsetools``
module.  This module relies on its argument order ``(n_row, n_col,
n_vecs, Ap, Aj, Ax, Xx, Yx)`` and on it *accumulating* ``Y += A X`` into
a C-contiguous output, which is therefore zero-filled first.  setup.py
bounds scipy to the tested releases; ``tests/sparse/test_sequential_kernel.py``
pins this behaviour when the bound is raised.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import _sparsetools

from ..errors import ShapeError
from .csr import CSRMatrix

__all__ = ["spmm", "factored_spmm"]


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
        memory layout is accepted, but a non-C-contiguous ``b`` (a
        transposed, column-sliced or Fortran-order view) is copied to C
        order first — hot paths pass a C-contiguous operand.
    alpha:
        Scalar multiplier folded into the stored values before the
        product (cuSPARSE-style); exact for the powers of two the
        pipeline uses.
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
    m, n = a.shape
    if bmat.shape[0] != n:
        raise ShapeError(f"spmm dimension mismatch: A is {a.shape}, B is {bmat.shape}")
    p = bmat.shape[1]
    if out is None:
        out = np.zeros((m, p), dtype=a.dtype)
    elif out.shape != (m, p) or out.dtype != a.dtype or not out.flags.c_contiguous:
        raise ShapeError("out must be a C-contiguous (m, p) array of the result dtype")
    else:
        out[...] = 0
    if a.nnz == 0 or p == 0:
        return out

    bmat = np.ascontiguousarray(bmat, dtype=a.dtype)
    vals = a.values if alpha == 1.0 else a.values * a.dtype.type(alpha)
    rowptrs, colinds = a.kernel_index()
    _sparsetools.csr_matvecs(m, n, p, rowptrs, colinds, vals, bmat, out)
    return out


def factored_spmm(
    b: CSRMatrix,
    sizes: np.ndarray | None,
    x: np.ndarray,
    *,
    alpha: float = 1.0,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Compute ``alpha * diag(1/sizes) b @ x`` for a factored CSR matrix.

    The SpMM runs through ``b`` and each output row is divided once by
    its ``sizes`` entry, so the normalisation rounds once per output
    entry rather than in every term.  ``sizes=None`` means ``b`` is
    already normalised and the product is plain :func:`spmm`.  ``out``
    is forwarded to :func:`spmm`.
    """
    out = spmm(b, x, alpha=alpha, out=out)
    if sizes is not None:
        out /= sizes[:, None]
    return out
