"""Additional Gram-expressible kernels beyond the paper's three.

Both are computable from ``B = P P^T`` plus its diagonal, so they ride the
same GEMM/SYRK + elementwise-transform pipeline (Sec. 3.2) with zero new
GPU machinery — evidence for the paper's programmability claim.
"""

from __future__ import annotations

import numpy as np

from ..params import ParamSpec
from .base import Kernel, positive_float

__all__ = ["CosineKernel", "RationalQuadraticKernel"]


class CosineKernel(Kernel):
    """Cosine similarity: ``kappa(x, y) = x.y / (||x|| ||y||)``.

    The standard text-clustering kernel (documents as tf-idf vectors).
    Requires the Gram diagonal, like the Gaussian.  Zero vectors map to
    zero similarity (and self-similarity 0), keeping the matrix finite.
    """

    flops_per_entry = 3.0

    def needs_diag(self) -> bool:
        return True

    def from_gram(
        self, b: np.ndarray, diag: np.ndarray | None = None, *, row0: int = 0
    ) -> np.ndarray:
        if diag is None:
            diag = np.ascontiguousarray(np.diagonal(b)).copy()
        return self.panel_transform(diag, b.dtype)(b, row0)

    def panel_transform(self, diag, dtype):
        # the inverse norms are one pass over diag, shared by every panel
        inv = self._inv_norms(diag, dtype)

        def transform(b: np.ndarray, row0: int) -> np.ndarray:
            b *= inv[row0 : row0 + b.shape[0], None]
            b *= inv[None, :]
            np.clip(b, -1.0, 1.0, out=b)
            return b

        return transform

    def _from_cross_gram(
        self, b: np.ndarray, row_sq: np.ndarray, col_sq: np.ndarray
    ) -> np.ndarray:
        b *= self._inv_norms(row_sq, b.dtype)[:, None]
        b *= self._inv_norms(col_sq, b.dtype)[None, :]
        np.clip(b, -1.0, 1.0, out=b)
        return b

    @staticmethod
    def _inv_norms(sq: np.ndarray, dtype) -> np.ndarray:
        sq = np.asarray(sq, dtype=np.float64)
        with np.errstate(divide="ignore"):
            inv = np.where(sq > 0, 1.0 / np.sqrt(np.maximum(sq, 1e-300)), 0.0)
        return inv.astype(dtype)


class RationalQuadraticKernel(Kernel):
    """Rational quadratic: ``kappa(x, y) = (1 + ||x-y||^2 / (2 alpha l^2))^-alpha``.

    The heavy-tailed alternative to the Gaussian (its scale-mixture limit
    as alpha -> inf *is* the Gaussian); useful when cluster scales vary.
    Built from the same ``||x-y||^2 = B_ii - 2 B_ij + B_jj`` expansion as
    the Gaussian path (paper Eq. 12).
    """

    flops_per_entry = 8.0

    _params = (
        ParamSpec("alpha", default=1.0, convert=positive_float("alpha")),
        ParamSpec(
            "length_scale", default=1.0, convert=positive_float("length_scale")
        ),
    )

    def __init__(self, alpha: float = 1.0, length_scale: float = 1.0) -> None:
        self._init_params(alpha=alpha, length_scale=length_scale)

    def needs_diag(self) -> bool:
        return True

    @property
    def _denom(self) -> float:
        return 2.0 * self.alpha * self.length_scale**2

    def from_gram(
        self, b: np.ndarray, diag: np.ndarray | None = None, *, row0: int = 0
    ) -> np.ndarray:
        if diag is None:
            diag = np.ascontiguousarray(np.diagonal(b)).copy()
        b *= b.dtype.type(-2.0)
        b += diag[row0 : row0 + b.shape[0], None]
        b += diag[None, :]
        np.maximum(b, 0, out=b)  # clamp round-off
        b /= b.dtype.type(self._denom)
        b += b.dtype.type(1.0)
        np.power(b, -self.alpha, out=b)
        return b

    def _from_cross_gram(
        self, b: np.ndarray, row_sq: np.ndarray, col_sq: np.ndarray
    ) -> np.ndarray:
        b *= b.dtype.type(-2.0)
        b += np.asarray(row_sq, dtype=b.dtype)[:, None]
        b += np.asarray(col_sq, dtype=b.dtype)[None, :]
        np.maximum(b, 0, out=b)
        b /= b.dtype.type(self._denom)
        b += b.dtype.type(1.0)
        np.power(b, -self.alpha, out=b)
        return b
