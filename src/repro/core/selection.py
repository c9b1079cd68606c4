"""Cluster selection matrix ``V`` (paper Eq. 7) — invariants and helpers.

The construction itself lives in :func:`repro.sparse.construct.selection_matrix`;
this module adds the Popcorn-specific checks and the host-side reference
forms used throughout tests and baselines.
"""

from __future__ import annotations

import numpy as np

from .._typing import check_labels
from ..errors import SparseFormatError
from ..sparse import CSRMatrix, cluster_counts, row_sums, selection_matrix

__all__ = [
    "build_selection",
    "verify_selection_invariants",
    "selection_dense",
]


def build_selection(labels: np.ndarray, k: int, *, dtype=np.float32) -> CSRMatrix:
    """Build ``V`` from an assignment vector, validating the labels."""
    lab = check_labels(labels, np.asarray(labels).shape[0], k)
    return selection_matrix(lab, k, dtype=dtype)


def verify_selection_invariants(v: CSRMatrix, labels: np.ndarray) -> None:
    """Assert the structural properties Sec. 3.3 relies on.

    1. ``V`` has exactly ``n`` nonzeros (one per point);
    2. every column holds exactly one nonzero (each point is in exactly
       one cluster) — the property enabling the SpMV norm trick;
    3. each non-empty row sums to 1 (the stored values are ``1/|L_j|``);
    4. the nonzero of column ``i`` sits in row ``labels[i]``.

    Raises :class:`SparseFormatError` on any violation.
    """
    k, n = v.shape
    lab = check_labels(labels, n, k)
    if v.nnz != n:
        raise SparseFormatError(f"V must have exactly n={n} nonzeros, found {v.nnz}")
    col_hits = np.bincount(v.colinds, minlength=n)
    if not np.all(col_hits == 1):
        raise SparseFormatError("V must have exactly one nonzero per column")
    counts = cluster_counts(lab, k)
    rows = v.row_indices()
    # column i's nonzero must be in row labels[i]
    if not np.array_equal(rows[np.argsort(v.colinds, kind="stable")], lab):
        raise SparseFormatError("V's sparsity pattern disagrees with the labels")
    # row sums: |L_j| * (1/|L_j|) = 1 for non-empty clusters
    sums = row_sums(v.astype(np.float64))
    expected = (counts > 0).astype(np.float64)
    if not np.allclose(sums, expected, atol=1e-5):
        raise SparseFormatError("V's non-empty rows must sum to 1")


def selection_dense(labels: np.ndarray, k: int, *, dtype=np.float64) -> np.ndarray:
    """Dense reference ``V`` for brute-force comparisons in tests."""
    lab = check_labels(labels, np.asarray(labels).shape[0], k)
    n = lab.shape[0]
    counts = np.bincount(lab, minlength=k).astype(np.float64)
    v = np.zeros((k, n), dtype=dtype)  # repro-lint: disable=RPR101 -- dense V for tests/docs
    v[lab, np.arange(n)] = 1.0 / np.maximum(counts, 1)[lab]
    return v
