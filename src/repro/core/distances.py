"""Point-to-centroid distances in feature space (paper Sec. 3.1).

The matrix-centric identity is Eq. 10::

    D = -2 K V^T + P~ + C~

with ``P~`` the broadcast of ``diag(K)`` and ``C~`` the broadcast of the
centroid norms.  Three implementations live here:

* :func:`distance_matrix_reference` — dense brute force (tests);
* :func:`popcorn_distances_host` — the SpMM + SpMV pipeline on plain
  NumPy/CSR, optionally weighted (no device; the bit-exact reference the
  fused reduction is tested against);
* :func:`popcorn_distance_step` — the full device pipeline (SpMM, gather,
  SpMV, fused add) charging modeled time; this is the body of Alg. 2
  lines 7-10 and what the estimator iterates.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .._typing import check_labels
from ..errors import ShapeError
from ..gpu import custom, cusparse
from ..gpu.device import Device
from ..gpu.memory import DeviceArray
from ..sparse import (
    CSRMatrix,
    factored_selection,
    factored_spmm,
    factored_spmv,
    selection_matrix,
    weighted_selection_matrix,
)

__all__ = [
    "distance_matrix_reference",
    "popcorn_distances_host",
    "popcorn_distance_step",
]


def distance_matrix_reference(k_mat: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Brute-force ``D[i, j] = ||phi(p_i) - c_j||^2`` from the kernel matrix.

    Uses dense one-hot arithmetic in float64; the gold standard the sparse
    pipeline is tested against.
    """
    n = k_mat.shape[0]
    if k_mat.shape != (n, n):
        raise ShapeError("kernel matrix must be square")
    lab = check_labels(labels, n, k)
    kf = k_mat.astype(np.float64)
    counts = np.bincount(lab, minlength=k).astype(np.float64)
    onehot = np.zeros((n, k))  # repro-lint: disable=RPR101 -- reference dense baseline
    onehot[np.arange(n), lab] = 1.0
    inv = np.where(counts > 0, 1.0 / np.maximum(counts, 1), 0.0)
    kvt = kf @ onehot * inv[None, :]  # (K V^T)_{ij} = mean of K[i, L_j]
    block = onehot.T @ kf @ onehot  # k x k cluster-pair sums
    cnorm = np.where(counts > 0, np.diagonal(block) * inv**2, 0.0)
    return np.diagonal(kf)[:, None] - 2.0 * kvt + cnorm[None, :]


def popcorn_distances_host(
    k_mat: np.ndarray, labels: np.ndarray, k: int, *, weights=None, dtype=None
) -> Tuple[np.ndarray, CSRMatrix]:
    """The SpMM/SpMV formulation on host arrays (no device bookkeeping).

    Returns the distances matrix ``D`` and the selection matrix ``V``
    (:func:`repro.sparse.selection_matrix`).  Mirrors Alg. 2 lines 7-10,
    including the ``-2`` / ``-0.5`` scaling dance; the products run
    through ``V``'s factored form ``diag(1/s) B``
    (:func:`repro.sparse.factored_selection`), so each SpMM/SpMV output
    row is divided once by its cluster size.  With ``weights`` the
    selection matrix is the weighted ``V_w`` (``B`` holds ``w_i``,
    ``s_j`` the cluster weight); it keeps one nonzero per column, so the
    z-gather SpMV applies unchanged.
    """
    n = k_mat.shape[0]
    if k_mat.shape != (n, n):
        raise ShapeError("kernel matrix must be square")
    lab = check_labels(labels, n, k)
    dt = np.dtype(dtype) if dtype is not None else k_mat.dtype
    km = k_mat.astype(dt, copy=False)
    b, sizes = factored_selection(lab, k, weights=weights, dtype=dt)
    # E = -2 K V^T, computed in the sparse-times-dense orientation
    e = np.ascontiguousarray(factored_spmm(b, sizes, km, alpha=-2.0).T)
    # centroid norms via the z-gather SpMV.  E is scaled by -2, so the
    # SpMV folds in -0.5 to cancel it: gathering the length-n label
    # column first and scaling inside the SpMV avoids a second n x k
    # temporary (the -0.5 is an exact power-of-two scaling)
    z = np.ascontiguousarray(e[np.arange(n), lab])
    c_norms = factored_spmv(b, sizes, z, alpha=-0.5)
    d = e
    d += np.diagonal(km)[:, None]
    d += c_norms[None, :]
    if weights is None:
        return d, selection_matrix(lab, k, dtype=dt)
    return d, weighted_selection_matrix(lab, k, weights, dtype=dt)


def popcorn_distance_step(
    device: Device,
    k_mat: DeviceArray,
    p_norms: DeviceArray,
    labels: np.ndarray,
    k: int,
    *,
    weights: np.ndarray | None = None,
) -> Tuple[DeviceArray, cusparse.DeviceCSR]:
    """One full device-side distance computation (Alg. 2 lines 7-10).

    Launch sequence (each charging modeled time):

    1. ``v_build``     — V from the current assignments (CSR);
    2. ``cusparse.spmm`` — ``E = -2 K V^T``;
    3. ``z_gather``    — ``z_i = E[i, cluster(i)]``;
    4. ``cusparse.spmv`` — ``C~ = -0.5 V z`` (the -0.5 cancels the -2);
    5. ``d_add``       — ``D = E + P~ + C~`` in place on E.

    Launches are tagged with the Fig. 8 phases (``v_build`` under
    ``argmin_update``, the rest under ``distances``), matching the
    analytical model.  With ``weights``, the weighted selection matrix
    ``V_w`` drives the same pipeline (the z-gather SpMV trick survives
    weighting — ``V_w`` keeps one nonzero per column).

    Returns the distances buffer and the V matrix (caller frees both).
    """
    device.check_resident(k_mat, p_norms)
    n = k_mat.shape[0]
    lab = check_labels(labels, n, k)
    prof = device.profiler
    with prof.phase("argmin_update"):
        v = custom.v_build(device, lab, k, dtype=k_mat.dtype, weights=weights)
    with prof.phase("distances"):
        e = cusparse.spmm_kvt(device, k_mat, v, alpha=-2.0)
        z = custom.z_gather(device, e, lab)
        c_norms = cusparse.spmv(device, v, z, alpha=-0.5)
        z.free()
        d = custom.d_add(device, e, p_norms, c_norms)
        c_norms.free()
    return d, v
