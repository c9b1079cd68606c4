"""The host kernel-matrix build is bitwise the whole-matrix formula.

``_host_kernel_matrix`` applies the kernel transform over row panels on
a thread pool.  Every entry must still be exactly what the whole-matrix
sequence gives: NumPy's ``x @ x.T`` (plus ``syrk_mirror`` for SYRK),
then one ``from_gram`` over the whole Gram matrix.
"""

import numpy as np
import pytest

from repro.engine import backends
from repro.gpu.blas import syrk_mirror
from repro.kernels import GaussianKernel, LinearKernel, PolynomialKernel, SigmoidKernel
from repro.kernels.extra import CosineKernel, RationalQuadraticKernel

KERNELS = {
    "gaussian": GaussianKernel(gamma=0.3),
    "poly2": PolynomialKernel(gamma=0.5, coef0=1.0, degree=2),
    "poly3": PolynomialKernel(gamma=0.5, coef0=1.0, degree=3),
    "linear": LinearKernel(),
    "sigmoid": SigmoidKernel(gamma=0.2, coef0=0.1),
    "cosine": CosineKernel(),
    "ratquad": RationalQuadraticKernel(alpha=1.5, length_scale=2.0),
}


def _whole_matrix(x, kernel, used):
    b = x @ x.T
    if used == "syrk":
        b = syrk_mirror(b)
    if kernel.needs_diag():
        return kernel.from_gram(b, np.diagonal(b).copy())
    return kernel.from_gram(b)


@pytest.mark.parametrize("name", sorted(KERNELS))
@pytest.mark.parametrize("used", ["gemm", "syrk"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("cpus", [1, 3], ids=["serial", "pooled"])
def test_panels_match_whole_matrix(monkeypatch, name, used, dtype, cpus):
    n, d = 103, 7
    rows = 8  # 103 rows: 12 full panels and a 7-row tail
    rng = np.random.default_rng(5)
    x = rng.standard_normal((n, d))
    # near-duplicate rows: their squared distances round to either sign
    x[1::2] = x[::2][: n // 2] + rng.standard_normal((n // 2, d)) * 1e-7
    x = x.astype(dtype)
    kernel = KERNELS[name]
    monkeypatch.setattr(backends, "KERNEL_PANEL_BYTES", rows * n * np.dtype(dtype).itemsize)
    monkeypatch.setattr(backends, "_usable_cpus", lambda: cpus)
    km, diag = backends._host_kernel_matrix(x, kernel, used)
    want = _whole_matrix(x, kernel, used)
    np.testing.assert_array_equal(km, want)
    np.testing.assert_array_equal(diag, np.diagonal(want))
    assert km.dtype == dtype and km.flags.c_contiguous and diag.flags.c_contiguous


def test_one_panel_runs_inline(monkeypatch):
    ran = []
    real = backends.WorkStealingPool.run

    def spy(self, tasks):
        ran.append(len(tasks))
        return real(self, tasks)

    monkeypatch.setattr(backends.WorkStealingPool, "run", spy)
    x = np.random.default_rng(1).standard_normal((500, 16)).astype(np.float32)
    km, _ = backends._host_kernel_matrix(x, GaussianKernel(gamma=1 / 16), "gemm")
    assert ran == [1]  # a 500-row refresh batch is one panel
    np.testing.assert_array_equal(km, _whole_matrix(x, GaussianKernel(gamma=1 / 16), "gemm"))


def test_row_block_from_gram_matches_whole(rng):
    x = rng.standard_normal((20, 3))
    b = x @ x.T
    diag = np.diagonal(b).copy()
    for kernel in KERNELS.values():
        whole = kernel.from_gram(b.copy(), diag)
        block = kernel.from_gram(b[5:12].copy(), diag, row0=5)
        np.testing.assert_array_equal(block, whole[5:12])
        panel = kernel.panel_transform(diag, b.dtype)(b[5:12].copy(), 5)
        np.testing.assert_array_equal(panel, whole[5:12])


def test_cosine_inverse_norms_once_per_build(monkeypatch):
    calls = []
    real = CosineKernel._inv_norms

    def counting(sq, dtype):
        calls.append(len(sq))
        return real(sq, dtype)

    monkeypatch.setattr(CosineKernel, "_inv_norms", staticmethod(counting))
    n = 64
    monkeypatch.setattr(backends, "KERNEL_PANEL_BYTES", 8 * n * 4)  # 8 panels
    monkeypatch.setattr(backends, "_usable_cpus", lambda: 2)
    x = np.random.default_rng(2).standard_normal((n, 5)).astype(np.float32)
    km, _ = backends._host_kernel_matrix(x, CosineKernel(), "gemm")
    assert calls == [n]
    np.testing.assert_array_equal(km, _whole_matrix(x, CosineKernel(), "gemm"))
