"""Simulated cuSPARSE: CSR residency plus SpMM / SpMV / SpGEMM shims.

The numerics run through our from-scratch CSR kernels
(:mod:`repro.sparse`); the modeled time comes from
:mod:`repro.gpu.cost`.  These shims are the only place Popcorn touches
sparse computation, mirroring how the real implementation leans on the
library (Sec. 4.5, "ease of programmability").
"""

from __future__ import annotations

import numpy as np

from ..errors import DeviceError, ShapeError
from ..sparse import CSRMatrix, factored_spmm, factored_spmv, spgemm as _spgemm, spgemm_flops
from . import cost
from .device import Device
from .memory import DeviceArray

__all__ = ["DeviceCSR", "spmm_kvt", "spmm_kvt_tile", "spmv", "spgemm"]


class DeviceCSR:
    """A CSR matrix resident on a simulated device.

    Tracks the CSR arrays' footprint against device memory; freed like a
    dense :class:`~repro.gpu.memory.DeviceArray`.  With ``sizes`` the
    buffer holds a factored matrix ``diag(1/sizes) csr``
    (:func:`repro.sparse.factored_selection`): the SpMM/SpMV shims
    divide each output row by its size once.
    """

    __slots__ = ("_csr", "sizes", "device", "_alive", "nbytes")

    def __init__(self, device: Device, csr: CSRMatrix, sizes: np.ndarray | None = None) -> None:
        self.device = device
        self._csr = csr
        self.sizes = sizes
        self.nbytes = int(csr.values.nbytes + csr.colinds.nbytes + csr.rowptrs.nbytes)
        if sizes is not None:
            self.nbytes += int(sizes.nbytes)
        device._reserve(self.nbytes)
        self._alive = True

    @property
    def m(self) -> CSRMatrix:
        """The CSR payload; raises if freed."""
        if not self._alive:
            raise DeviceError("use of freed device CSR buffer")
        return self._csr

    @property
    def shape(self):
        return self.m.shape

    @property
    def nnz(self) -> int:
        return self.m.nnz

    @property
    def alive(self) -> bool:
        return self._alive

    def free(self) -> None:
        """Release the CSR arrays (idempotent)."""
        if self._alive:
            self._alive = False
            self.device._release(self.nbytes)
            self._csr = None  # type: ignore[assignment]
            self.sizes = None

    def _check(self, device: Device) -> None:
        if self.device is not device:
            raise DeviceError("CSR buffer resident on a different device")
        if not self._alive:
            raise DeviceError("use of freed device CSR buffer")


def spmm_kvt(
    device: Device, k_mat: DeviceArray, v: DeviceCSR, *, alpha: float = -2.0
) -> DeviceArray:
    """cuSPARSE SpMM computing ``E = alpha * K V^T`` (Alg. 2 line 7).

    cuSPARSE's sparse-times-dense orientation evaluates ``alpha * V K``;
    because ``K`` is symmetric the transposed output equals
    ``alpha * K V^T``.  Returns the dense ``n x k`` result.
    """
    device.check_resident(k_mat)
    v._check(device)
    kk, n = v.shape
    if k_mat.shape != (n, n):
        raise ShapeError(f"K must be ({n}, {n}), got {k_mat.shape}")
    prod = factored_spmm(v.m, v.sizes, k_mat.a, alpha=alpha)  # (k, n)
    out = device.wrap(np.ascontiguousarray(prod.T))  # (n, k)
    device.record(cost.spmm_cost(device.spec, n, kk))
    return out


def spmm_kvt_tile(
    device: Device, k_panel: DeviceArray, v: DeviceCSR, *, alpha: float = -2.0
) -> DeviceArray:
    """cuSPARSE SpMM over one streamed panel of K: a row tile of E.

    ``k_panel`` is the ``n x r`` column panel ``K[:, lo:hi]`` — for the
    symmetric kernel matrix this equals the row tile ``K[lo:hi, :]``
    transposed, so ``alpha * (V K[:, lo:hi])^T`` is exactly rows
    ``[lo, hi)`` of ``E = alpha * K V^T``.  The CSR SpMM computes every
    output column independently, so the tiled result is bit-for-bit
    identical to the monolithic :func:`spmm_kvt`, whatever the tiling.
    """
    device.check_resident(k_panel)
    v._check(device)
    kk, n = v.shape
    if k_panel.a.ndim != 2 or k_panel.shape[0] != n:
        raise ShapeError(f"K panel must have {n} rows, got {k_panel.shape}")
    rows = k_panel.shape[1]
    prod = factored_spmm(v.m, v.sizes, k_panel.a, alpha=alpha)  # (k, rows)
    out = device.wrap(np.ascontiguousarray(prod.T))  # (rows, k)
    device.record(cost.spmm_tile_cost(device.spec, rows, n, kk))
    return out


def spmv(device: Device, v: DeviceCSR, z: DeviceArray, *, alpha: float = 1.0) -> DeviceArray:
    """cuSPARSE SpMV computing ``alpha * V z`` (Alg. 2 line 9)."""
    v._check(device)
    device.check_resident(z)
    kk, n = v.shape
    if z.shape != (n,):
        raise ShapeError(f"z must have length {n}, got {z.shape}")
    out = device.wrap(factored_spmv(v.m, v.sizes, z.a, alpha=alpha))
    device.record(cost.spmv_cost(device.spec, n, kk))
    return out


def spgemm(device: Device, a: DeviceCSR, b: DeviceCSR) -> DeviceCSR:
    """cuSPARSE SpGEMM ``A @ B`` (used by the diag(V K V^T) ablation)."""
    a._check(device)
    b._check(device)
    mults = spgemm_flops(a.m, b.m)
    out = DeviceCSR(device, _spgemm(a.m, b.m))
    n = a.shape[1]
    kk = a.shape[0]
    device.record(cost.spgemm_cost(device.spec, n, kk, float(mults)))
    return out
