"""Dense float64 Kernel K-means reference, NumPy only.

The benchmark checks the program's labels against this module, which
shares no code with ``repro``: the Gaussian kernel is evaluated from
scratch, the distance ``-2 K V^T + P~ + C~`` is formed densely, and the
argmin takes the lowest index on ties, as the program does.  Kernel rows
are computed in blocks so the n x n float64 kernel is never resident
when it would be large; blocks are recomputed each iteration instead.

Comparison is by agreement fraction, not bit equality: the program runs
in float32, so points sitting on a near-tie may land differently.
"""

from __future__ import annotations

import numpy as np

#: keep the whole float64 kernel matrix when it is at most this many bytes
RESIDENT_LIMIT_BYTES = 1 << 30
#: rows per recomputed kernel block
BLOCK_ROWS = 1024


def gaussian_block(xa: np.ndarray, xb: np.ndarray, gamma: float) -> np.ndarray:
    """``exp(-gamma ||a - b||^2)`` for every row pair, float64."""
    sq_a = np.einsum("ij,ij->i", xa, xa)
    sq_b = np.einsum("ij,ij->i", xb, xb)
    d2 = xa @ xb.T
    d2 *= -2.0
    d2 += sq_a[:, None]
    d2 += sq_b[None, :]
    np.maximum(d2, 0.0, out=d2)
    d2 *= -gamma
    return np.exp(d2, out=d2)


def _selection(labels: np.ndarray, k: int) -> np.ndarray:
    """Dense ``n x k`` matrix with ``1/|c_j|`` on each member's column."""
    counts = np.bincount(labels, minlength=k).astype(np.float64)
    v = np.zeros((labels.shape[0], k))
    members = counts[labels] > 0
    v[np.flatnonzero(members), labels[members]] = 1.0 / counts[labels[members]]
    return v


class DenseKernelKMeans:
    """Kernel K-means with a Gaussian kernel, fixed iterations, float64."""

    def __init__(self, x: np.ndarray, k: int, gamma: float) -> None:
        self.x = np.asarray(x, dtype=np.float64)
        self.k = int(k)
        self.gamma = float(gamma)
        n = self.x.shape[0]
        self._km = None
        if n * n * 8 <= RESIDENT_LIMIT_BYTES:
            self._km = gaussian_block(self.x, self.x, self.gamma)

    def _kv(self, v: np.ndarray) -> np.ndarray:
        """``K @ V`` (n x k), resident or block by block."""
        if self._km is not None:
            return self._km @ v
        n = self.x.shape[0]
        out = np.empty((n, v.shape[1]))
        for r0 in range(0, n, BLOCK_ROWS):
            r1 = min(r0 + BLOCK_ROWS, n)
            out[r0:r1] = gaussian_block(self.x[r0:r1], self.x, self.gamma) @ v
        return out

    def _centroid_norms(self, kv: np.ndarray, v: np.ndarray) -> np.ndarray:
        """``C~_j = v_j^T K v_j`` from the already formed ``K V``."""
        return np.einsum("ij,ij->j", v, kv)

    def fit(self, init_labels: np.ndarray, n_iter: int) -> np.ndarray:
        """Labels after ``n_iter`` assignment steps from ``init_labels``."""
        labels = np.asarray(init_labels, dtype=np.int64).copy()
        p = np.ones(self.x.shape[0])  # Gaussian: kappa(x, x) = 1
        for _ in range(n_iter):
            v = _selection(labels, self.k)
            kv = self._kv(v)
            c = self._centroid_norms(kv, v)
            d = -2.0 * kv + p[:, None] + c[None, :]
            labels = np.argmin(d, axis=1)
        self.labels_ = labels
        return labels

    def predict(self, q: np.ndarray) -> np.ndarray:
        """Nearest feature-space centroid of the fitted labels, per query."""
        v = _selection(self.labels_, self.k)
        c = self._centroid_norms(self._kv(v), v)
        q = np.asarray(q, dtype=np.float64)
        out = np.empty(q.shape[0], dtype=np.int64)
        for r0 in range(0, q.shape[0], BLOCK_ROWS):
            r1 = min(r0 + BLOCK_ROWS, q.shape[0])
            s = gaussian_block(q[r0:r1], self.x, self.gamma) @ v
            out[r0:r1] = np.argmin(-2.0 * s + c[None, :], axis=1)
        return out
