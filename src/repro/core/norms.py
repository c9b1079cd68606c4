"""Centroid squared norms ``||c_j||^2`` (paper Sec. 3.3).

The naive matrix-centric route computes ``V K V^T`` and extracts the
diagonal — O(n k) work past the SpMM.  Popcorn's optimisation exploits
the one-nonzero-per-column structure of V: gather
``z_i = (K V^T)_{i, cluster(i)}`` and evaluate the O(n) SpMV ``V z``
(Eqs. 14-15, Fig. 1).  Both routes are implemented host-side here, both
exactly equal, and the ablation bench compares their modeled costs.
"""

from __future__ import annotations

import numpy as np

from .._typing import check_labels
from ..errors import ShapeError
from ..sparse import CSRMatrix, row_sums, spmm, spmv

__all__ = [
    "gather_z",
    "centroid_norms_spmv",
    "centroid_norms_spgemm",
    "centroid_norms_reference",
]


def gather_z(kvt: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Gather ``z_i = KVT[i, cluster(i)]`` (Eq. 14).

    ``kvt`` is the ``n x k`` product ``K V^T`` (unscaled); the result is
    the dense vector feeding the SpMV.
    """
    n, k = kvt.shape
    lab = check_labels(labels, n, k)
    return np.ascontiguousarray(kvt[np.arange(n), lab])


def centroid_norms_spmv(kvt: np.ndarray, v: CSRMatrix, labels: np.ndarray) -> np.ndarray:
    """Popcorn's O(n) SpMV route: ``||c||^2 = V z`` (Eq. 15)."""
    k, n = v.shape
    if kvt.shape != (n, k):
        raise ShapeError(f"KVT must be ({n}, {k}), got {kvt.shape}")
    z = gather_z(kvt, labels)
    return spmv(v, z)


def centroid_norms_spgemm(k_mat: np.ndarray, v: CSRMatrix) -> np.ndarray:
    """The unoptimised route: ``diag(V K V^T)`` (Eq. 13).

    Computes the full ``k x n`` intermediate ``M = V K`` and contracts each
    row of ``M`` with the matching row of ``V`` — the O(n k) work Popcorn's
    SpMV trick avoids.
    """
    n = v.ncols
    if k_mat.shape != (n, n):
        raise ShapeError(f"K must be ({n}, {n}), got {k_mat.shape}")
    m = spmm(v, k_mat)  # (k, n) = V K
    # ||c_j||^2 = sum_l V[j, l] M[j, l]: row sums over V's pattern
    contrib = v.values * m[v.row_indices(), v.colinds]
    return row_sums(CSRMatrix(contrib, v.colinds, v.rowptrs, v.shape, check=False))


def centroid_norms_reference(k_mat: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Brute-force reference: ``||c_j||^2 = sum_{i,l in L_j} K_il / |L_j|^2``."""
    n = k_mat.shape[0]
    lab = check_labels(labels, n, k)
    counts = np.bincount(lab, minlength=k).astype(np.float64)
    onehot = np.zeros((n, k))  # repro-lint: disable=RPR101 -- reference dense baseline
    onehot[np.arange(n), lab] = 1.0
    block = onehot.T @ k_mat.astype(np.float64) @ onehot  # k x k cluster sums
    with np.errstate(invalid="ignore", divide="ignore"):
        norms = np.where(counts > 0, np.diagonal(block) / np.maximum(counts, 1) ** 2, 0.0)
    return norms
