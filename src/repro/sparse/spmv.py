"""Sparse matrix-vector multiplication (SpMV).

Computes ``y = alpha * A @ x`` for CSR ``A``.  This mirrors the cuSPARSE
SpMV that Popcorn uses for the centroid-norm trick ``-0.5 * V z``
(paper Alg. 2 line 9 / Eq. 15).

It runs on the same compiled CSR kernel family as
:func:`repro.sparse.spmm` (scipy's ``csr_matvec``): each output entry is
one strictly sequential sum of ``(alpha * a_il) * x_l`` in the row's
nonzero order, bitwise equal to ``spmm(a, x[:, None], alpha=alpha)``.
:func:`factored_spmv` is the matching product through a factored matrix
``diag(1/s) B``.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import _sparsetools

from .._typing import as_vector
from ..errors import ShapeError
from .csr import CSRMatrix

__all__ = ["spmv", "factored_spmv"]


def spmv(
    a: CSRMatrix, x: np.ndarray, *, alpha: float = 1.0, out: np.ndarray | None = None
) -> np.ndarray:
    """Compute ``alpha * a @ x``.

    Parameters
    ----------
    a:
        CSR matrix of shape ``(m, n)``.
    x:
        Dense vector of length ``n``.
    alpha:
        Scalar multiplier folded into the stored values before the
        product.
    out:
        Optional preallocated length-``m`` output vector.

    Returns
    -------
    numpy.ndarray
        Dense vector of length ``m``.
    """
    xv = as_vector(x, dtype=a.dtype, name="x")
    m, n = a.shape
    if xv.shape[0] != n:
        raise ShapeError(f"spmv dimension mismatch: A is {a.shape}, x has length {xv.shape[0]}")
    if out is None:
        out = np.zeros(m, dtype=a.dtype)
    elif out.shape != (m,) or out.dtype != a.dtype:
        raise ShapeError("out must be a length-m vector of the result dtype")
    else:
        out[...] = 0
    if a.nnz == 0:
        return out

    xv = np.ascontiguousarray(xv)
    vals = a.values if alpha == 1.0 else a.values * a.dtype.type(alpha)
    rowptrs, colinds = a.kernel_index()
    if out.flags.c_contiguous:
        _sparsetools.csr_matvec(m, n, rowptrs, colinds, vals, xv, out)
    else:
        y = np.zeros(m, dtype=a.dtype)
        _sparsetools.csr_matvec(m, n, rowptrs, colinds, vals, xv, y)
        out[...] = y
    return out


def factored_spmv(
    b: CSRMatrix, sizes: np.ndarray | None, x: np.ndarray, *, alpha: float = 1.0
) -> np.ndarray:
    """Compute ``alpha * diag(1/sizes) b @ x``: :func:`spmv` through ``b``,
    each output entry divided once by its ``sizes`` entry (``None``:
    ``b`` is already normalised), as in :func:`repro.sparse.factored_spmm`.
    """
    out = spmv(b, x, alpha=alpha)
    if sizes is not None:
        out /= sizes
    return out
