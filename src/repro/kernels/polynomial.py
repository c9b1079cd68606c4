"""Polynomial kernel: ``kappa(x, y) = (gamma * x.y + c)^r`` (paper Eq. 11).

The paper's experiments use ``gamma = 1, c = 1, r = 2`` (Sec. 5.1.3).
For integer ``r`` the feature map is finite-dimensional, which the test
suite exploits: the degree-2 explicit expansion lets us verify the whole
matrix-centric distance pipeline against brute-force feature-space
arithmetic.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .._typing import as_matrix
from ..params import ParamSpec
from .base import Kernel, positive_float

__all__ = ["PolynomialKernel"]


class PolynomialKernel(Kernel):
    """``(gamma * <x, y> + c)^r`` with the paper's defaults."""

    flops_per_entry = 4.0

    _params = (
        ParamSpec("gamma", default=1.0, convert=positive_float("gamma")),
        ParamSpec("coef0", default=1.0, convert=float),
        ParamSpec("degree", default=2, convert=int, low=1),
    )

    def __init__(self, gamma: float = 1.0, coef0: float = 1.0, degree: int = 2) -> None:
        self._init_params(gamma=gamma, coef0=coef0, degree=degree)

    def from_gram(
        self, b: np.ndarray, diag: np.ndarray | None = None, *, row0: int = 0
    ) -> np.ndarray:
        # K = pow(gamma * B + c, r), elementwise and in place (Eq. 11)
        b *= b.dtype.type(self.gamma)
        b += b.dtype.type(self.coef0)
        if self.degree == 2:
            np.multiply(b, b, out=b)
        else:
            np.power(b, self.degree, out=b)
        return b

    # ------------------------------------------------------------------
    # explicit feature map (tests only; exponential size in degree)
    # ------------------------------------------------------------------
    def explicit_feature_map(self, x: np.ndarray) -> np.ndarray:
        """Map points into the explicit polynomial feature space.

        For degree ``r`` over ``d`` features the map enumerates all
        monomials of total degree <= r with multinomial weights so that
        ``phi(x) . phi(y) == kappa(x, y)`` exactly.  Only practical for
        tiny ``d`` and ``r`` — it exists so tests can verify the kernel
        trick (and the full distances pipeline) against brute force.
        """
        xm = as_matrix(x, dtype=np.float64, name="x")
        n, d = xm.shape
        g = math.sqrt(self.gamma)
        c = math.sqrt(self.coef0) if self.coef0 > 0 else 0.0
        # augmented vector u = [sqrt(gamma) * x, sqrt(c0)]; kappa = (u.u')^r
        u = np.concatenate([g * xm, np.full((n, 1), c)], axis=1)
        du = d + 1
        cols = []
        for combo in itertools.combinations_with_replacement(range(du), self.degree):
            weight = math.sqrt(_multinomial(combo, self.degree))
            col = np.full(n, weight)
            for j in combo:
                col = col * u[:, j]
            cols.append(col)
        return np.stack(cols, axis=1)


def _multinomial(combo, degree: int) -> float:
    """Multinomial coefficient of a monomial given as a sorted index tuple."""
    counts = {}
    for j in combo:
        counts[j] = counts.get(j, 0) + 1
    num = math.factorial(degree)
    for c in counts.values():
        num //= math.factorial(c)
    return float(num)
