"""The one kernel-matrix build is bitwise the whole-matrix formula.

``_host_kernel_matrix`` is the only place K is built from points, on
every backend.  It applies the kernel transform over row panels on a
thread pool.  Every entry must still be exactly what the whole-matrix
sequence gives: NumPy's ``x @ x.T``, then one ``from_gram`` over the
whole Gram matrix — for ``"gemm"`` and ``"syrk"`` alike, since the Gram
method only picks the launches the device charges.
"""

import numpy as np
import pytest

from repro.engine import backends
from repro.gpu import A100_80GB, Device
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


def _whole_matrix(x, kernel):
    b = x @ x.T
    if kernel.needs_diag():
        return kernel.from_gram(b, np.diagonal(b).copy())
    return kernel.from_gram(b)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("d", [1, 7, 300])
@pytest.mark.parametrize("n", [1, 2, 3, 129, 513])
def test_gram_product_is_bitwise_symmetric(n, d, dtype):
    """The premise of the one build: NumPy's ``x @ x.T`` on a C-contiguous
    ``x`` is BLAS SYRK plus an exact mirror, so no mirror of our own is
    needed for any Gram method."""
    x = np.random.default_rng(n * 1000 + d).standard_normal((n, d)).astype(dtype)
    b = x @ x.T
    np.testing.assert_array_equal(b, b.T)


@pytest.mark.parametrize(
    "view",
    [
        lambda a: a[:, ::2],
        lambda a: a[::3],
        lambda a: np.asfortranarray(a),
        lambda a: a.T.copy().T,
    ],
    ids=["col-stride", "row-stride", "fortran", "transposed"],
)
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_strided_view_builds_the_contiguous_k(view, dtype):
    """A strided product need not be symmetric; the build copies the view
    to C order first, so its K is the contiguous copy's, symmetric bit for
    bit under an elementwise kernel."""
    x = view(np.random.default_rng(9).standard_normal((150, 64)).astype(dtype))
    kernel = PolynomialKernel(gamma=0.1)
    km, diag = backends._host_kernel_matrix(x, kernel, "syrk")
    want, want_diag = backends._host_kernel_matrix(np.ascontiguousarray(x), kernel, "syrk")
    np.testing.assert_array_equal(km, want)
    np.testing.assert_array_equal(diag, want_diag)
    np.testing.assert_array_equal(km, km.T)


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
    want = _whole_matrix(x, kernel)
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
    np.testing.assert_array_equal(km, _whole_matrix(x, GaussianKernel(gamma=1 / 16)))


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
    np.testing.assert_array_equal(km, _whole_matrix(x, CosineKernel()))


# modeled seconds of each launch at n=40, d=6, float32 on an A100-80GB
# (the values of the earlier GEMM/SYRK shim pipeline)
H2D = 1.004e-05
BLAS = 1.6024615384615384e-05
MIRROR = 4.004134366925064e-06
TRANSFORM = 4.007782337741298e-06
DIAG = 4.001488372093023e-06


@pytest.mark.parametrize("used", ["gemm", "syrk"])
@pytest.mark.parametrize(
    "kernel", [PolynomialKernel(), GaussianKernel(gamma=0.5)], ids=["poly", "gaussian"]
)
def test_device_charges_the_gram_pipeline(kernel, used):
    """The device backend adopts the one build's K and charges the GEMM or
    SYRK + mirror pipeline launch for launch, with the same modeled
    seconds and peak device bytes as the former shim pipeline."""
    n, d = 40, 6
    x = np.random.default_rng(3).standard_normal((n, d)).astype(np.float32)
    dev = Device(A100_80GB)
    be = backends.get_backend("device")
    state = be.begin(n_clusters=3, dtype=np.float32, device=dev)
    be.compute_kernel_matrix(state, x, kernel, method=used)

    if used == "gemm":
        gram = [("cublas.gemm", BLAS)]
    else:
        gram = [("cublas.syrk", BLAS), ("custom.triangular_mirror", MIRROR)]
    # the Gaussian snapshots diag(B) before the in-place transform
    snapshot = [("custom.diag_extract", DIAG)] if kernel.needs_diag() else []
    tail = [("thrust.transform", TRANSFORM), ("custom.diag_extract", DIAG)]
    want = [("cuda.memcpy_h2d", H2D)] + gram + snapshot + tail
    launches = dev.profiler.launches
    assert [(launch.name, launch.time_s) for launch in launches] == want
    assert [launch.phase for launch in launches] == ["transfer"] + ["kernel_matrix"] * (
        len(want) - 1
    )
    assert dev.profiler.total_time() == sum(t for _, t in want)
    # P, K and P~ resident at once; P freed after the build
    assert dev.peak_allocated_bytes == 4 * (n * d + n * n + n)
    assert dev.allocated_bytes == 4 * (n * n + n)
    assert state.gram_method == used

    km, diag = backends._host_kernel_matrix(x, kernel, used)
    np.testing.assert_array_equal(state.k_op.a, km)
    np.testing.assert_array_equal(state.p_norms.a, diag)
    be.finish(state)
    assert dev.allocated_bytes == 0
