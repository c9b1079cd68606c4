"""The hand-written CUDA kernels, simulated.

Popcorn itself needs only a handful of small embarrassingly-parallel
kernels (Sec. 4.1/4.3; the paper totals them under 50 lines of CUDA):

* ``v_build`` — fill V's CSR arrays from the assignment vector;
* ``z_gather`` — gather ``E[i, cluster(i)]`` into the dense vector z;
* ``d_add`` — ``D = E + P~ + C~`` with the two norm vectors broadcast;
* ``diag_extract`` — pull ``diag(K)`` into the P~ vector.

The **baseline CUDA implementation** (Sec. 5.3) is also here: three
hand-written kernels that together replace Popcorn's SpMM/SpMV pipeline.
"""

from __future__ import annotations

import numpy as np

from .._typing import check_labels
from ..errors import ShapeError
from ..sparse import factored_selection
from . import cost
from .cusparse import DeviceCSR
from .device import Device
from .memory import DeviceArray

__all__ = [
    "v_build",
    "z_gather",
    "d_add",
    "diag_extract",
    "baseline_reduce_numerics",
    "baseline_norms_numerics",
    "baseline_assemble_numerics",
    "baseline_cluster_reduce",
    "baseline_centroid_norms",
    "baseline_distance_assemble",
]


# ----------------------------------------------------------------------
# Popcorn's kernels
# ----------------------------------------------------------------------

def v_build(
    device: Device,
    labels: np.ndarray,
    k: int,
    *,
    dtype=np.float32,
    weights: np.ndarray | None = None,
) -> DeviceCSR:
    """Build the selection matrix V on the device (Sec. 4.1).

    A reduction computes cluster cardinalities and a scatter kernel fills
    the CSR arrays; the cost model charges both launches.  V is held in
    factored form ``diag(1/s) B`` (:func:`repro.sparse.factored_selection`),
    with ``B`` the cluster indicator and ``s`` the cardinalities; with
    ``weights``, the weighted variant ``V_w`` (``B`` holds ``w_i`` and
    ``s_j`` the cluster weight) is built instead — same structure, same
    cost.
    """
    lab = check_labels(labels, labels.shape[0], k)
    v = DeviceCSR(device, *factored_selection(lab, k, weights=weights, dtype=dtype))
    device.record(cost.vbuild_cost(device.spec, lab.shape[0], k))
    return v


def z_gather(device: Device, e_mat: DeviceArray, labels: np.ndarray) -> DeviceArray:
    """Gather ``z_i = E[i, cluster(i)]`` (Alg. 2 line 8).

    One thread per point; the reads are uncoalesced because consecutive
    points usually live in different clusters.
    """
    device.check_resident(e_mat)
    n, k = e_mat.shape
    lab = check_labels(labels, n, k)
    z = device.wrap(np.ascontiguousarray(e_mat.a[np.arange(n), lab]))
    device.record(cost.zgather_cost(device.spec, n, k))
    return z


def d_add(
    device: Device, e_mat: DeviceArray, p_norms: DeviceArray, c_norms: DeviceArray
) -> DeviceArray:
    """Compute ``D = E + P~ + C~`` in place on E (Alg. 2 line 10).

    ``p_norms`` (length n) implicitly represents P~ (identical columns);
    ``c_norms`` (length k) implicitly represents C~ (identical rows).
    One thread per entry, indexing the vectors by row/column id.
    """
    device.check_resident(e_mat, p_norms, c_norms)
    n, k = e_mat.shape
    if p_norms.shape != (n,) or c_norms.shape != (k,):
        raise ShapeError(
            f"norm vectors must have shapes ({n},) and ({k},), got "
            f"{p_norms.shape} and {c_norms.shape}"
        )
    e = e_mat.a
    e += p_norms.a[:, None]
    e += c_norms.a[None, :]
    device.record(cost.dadd_cost(device.spec, n, k))
    return e_mat


def diag_extract(device: Device, k_mat: DeviceArray) -> DeviceArray:
    """Extract ``diag(K)`` into the P~ vector (Alg. 2 line 2)."""
    device.check_resident(k_mat)
    n, n2 = k_mat.shape
    if n != n2:
        raise ShapeError("diag_extract expects a square buffer")
    out = device.wrap(np.ascontiguousarray(np.diagonal(k_mat.a)))
    device.record(cost.diag_extract_cost(device.spec, n))
    return out


# ----------------------------------------------------------------------
# the baseline CUDA implementation's kernels (Sec. 5.3)
#
# The pure-ndarray numerics live in the *_numerics helpers so the host
# backend and the device shims are guaranteed bit-identical; the shims
# below add residency checks and modeled launch costs on top.
# ----------------------------------------------------------------------

def baseline_reduce_numerics(k_mat: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """``R[i, j] = sum_{l in L_j} K[i, l]`` as a dense matmul."""
    n = k_mat.shape[0]
    onehot = np.zeros((n, k), dtype=k_mat.dtype)
    onehot[np.arange(n), labels] = 1
    return k_mat @ onehot


def baseline_norms_numerics(
    r_mat: np.ndarray, labels: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """``||c_j||^2 = (1 / |L_j|^2) * sum_{i in L_j} R[i, j]`` (float64 accumulate)."""
    n = r_mat.shape[0]
    k = r_mat.shape[1]
    own = r_mat[np.arange(n), labels].astype(np.float64)
    sums = np.bincount(labels, weights=own, minlength=k)
    denom = np.maximum(counts.astype(np.float64), 1) ** 2
    return (sums / denom).astype(r_mat.dtype)


def baseline_assemble_numerics(
    r_mat: np.ndarray, k_diag: np.ndarray, c_norms: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """``D[i, j] = K[i, i] - 2 R[i, j] / |L_j| + ||c_j||^2``."""
    inv = (1.0 / np.maximum(counts, 1)).astype(r_mat.dtype)
    return k_diag[:, None] - 2.0 * r_mat * inv[None, :] + c_norms[None, :]


def baseline_cluster_reduce(
    device: Device, k_mat: DeviceArray, labels: np.ndarray, k: int
) -> DeviceArray:
    """Baseline kernel 1: reduce each row of K by cluster membership.

    ``R[i, j] = sum_{l in L_j} K[i, l]`` — one thread block per row,
    accumulating into a length-k shared-memory buffer.  This performs the
    same function as Popcorn's SpMM (up to the 1/|L_j| scaling, applied in
    kernel 3) and dominates the baseline's runtime.
    """
    device.check_resident(k_mat)
    n = k_mat.shape[0]
    lab = check_labels(labels, n, k)
    out = device.wrap(baseline_reduce_numerics(k_mat.a, lab, k))
    device.record(cost.baseline_k1_cost(device.spec, n, k))
    return out


def baseline_centroid_norms(
    device: Device, r_mat: DeviceArray, labels: np.ndarray, counts: np.ndarray
) -> DeviceArray:
    """Baseline kernel 2: centroid norms from the reduced buffer.

    ``||c_j||^2 = (1 / |L_j|^2) * sum_{i in L_j} R[i, j]`` — n threads
    gathering their own cluster's column, reduced with global atomics.
    """
    device.check_resident(r_mat)
    n, k = r_mat.shape
    lab = check_labels(labels, n, k)
    out = device.wrap(baseline_norms_numerics(r_mat.a, lab, counts))
    device.record(cost.baseline_k2_cost(device.spec, n, k))
    return out


def baseline_distance_assemble(
    device: Device,
    r_mat: DeviceArray,
    k_diag: DeviceArray,
    c_norms: DeviceArray,
    counts: np.ndarray,
) -> DeviceArray:
    """Baseline kernel 3: assemble full distances (n*k threads).

    ``D[i, j] = K[i, i] - 2 R[i, j] / |L_j| + ||c_j||^2``.
    """
    device.check_resident(r_mat, k_diag, c_norms)
    n, k = r_mat.shape
    if k_diag.shape != (n,) or c_norms.shape != (k,):
        raise ShapeError("k_diag / c_norms shape mismatch")
    d = baseline_assemble_numerics(r_mat.a, k_diag.a, c_norms.a, counts)
    out = device.wrap(np.ascontiguousarray(d))
    device.record(cost.baseline_k3_cost(device.spec, n, k))
    return out
