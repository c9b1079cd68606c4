"""Sigmoid kernel: ``kappa(x, y) = tanh(gamma * x.y + c)``.

One of the three kernels the artifact CLI exposes (``-f sigmoid``).  Note
the sigmoid kernel is not positive semi-definite for all parameter
choices; Kernel K-means still runs but the objective-descent guarantee
only holds for PSD kernels, which the test suite reflects.
"""

from __future__ import annotations

import numpy as np

from ..params import ParamSpec
from .base import Kernel, positive_float

__all__ = ["SigmoidKernel"]


class SigmoidKernel(Kernel):
    """``tanh(gamma * <x, y> + c)``."""

    flops_per_entry = 6.0

    _params = (
        ParamSpec("gamma", default=1.0, convert=positive_float("gamma")),
        ParamSpec("coef0", default=0.0, convert=float),
    )

    def __init__(self, gamma: float = 1.0, coef0: float = 0.0) -> None:
        self._init_params(gamma=gamma, coef0=coef0)

    def from_gram(
        self, b: np.ndarray, diag: np.ndarray | None = None, *, row0: int = 0
    ) -> np.ndarray:
        b *= b.dtype.type(self.gamma)
        b += b.dtype.type(self.coef0)
        np.tanh(b, out=b)
        return b
