"""Kernel-matrix computation (paper Sec. 3.2 / 4.2, Alg. 2 lines 1-2).

:func:`kernel_matrix` is the host/NumPy reference the CPU comparator and
the tests use.  The estimators build K from points with the one
engine build, :func:`repro.engine.backends._host_kernel_matrix`, on every
backend; GEMM vs SYRK there only picks the launches the device charges.
"""

from __future__ import annotations

import numpy as np

from .base import Kernel

__all__ = ["kernel_matrix"]


def kernel_matrix(x: np.ndarray, kernel: Kernel) -> np.ndarray:
    """Host-side kernel matrix ``K[i, j] = kappa(x_i, x_j)``."""
    return kernel.pairwise(x)
