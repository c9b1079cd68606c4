"""Tests for the Gram/kernel-matrix pipeline (Sec. 3.2 / 4.2)."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.kernels import GaussianKernel, LaplacianKernel, kernel_matrix


class TestHostPath:
    def test_kernel_matrix_poly(self, rng, poly_kernel):
        x = rng.standard_normal((8, 3))
        assert np.allclose(kernel_matrix(x, poly_kernel), (x @ x.T + 1) ** 2, rtol=1e-5)


class TestDevicePath:
    @pytest.mark.parametrize("method", ["gemm", "syrk"])
    def test_matches_host(self, device_build, device, rng, poly_kernel, method):
        x = rng.standard_normal((20, 4)).astype(np.float64)
        km, diag, used = device_build(x, poly_kernel, method=method, device=device)
        assert used == method
        assert np.allclose(km, kernel_matrix(x, poly_kernel), rtol=1e-6)
        assert np.array_equal(diag, np.diagonal(km))

    def test_gemm_equals_syrk(self, device_build, rng, poly_kernel):
        """Sec. 4.2: both routines produce correct output — here the very
        same bits, since the method only picks the charged launches."""
        x = rng.standard_normal((15, 6)).astype(np.float64)
        k1, _, _ = device_build(x, poly_kernel, method="gemm")
        k2, _, _ = device_build(x, poly_kernel, method="syrk")
        assert np.array_equal(k1, k2)

    def test_gaussian_needs_diag_snapshot(self, device_build, device, rng):
        """The Gaussian path must not corrupt the diag it reads in place."""
        kern = GaussianKernel(gamma=0.7)
        x = rng.standard_normal((12, 3)).astype(np.float64)
        km, diag, _ = device_build(x, kern, device=device)
        assert np.allclose(km, kern.pairwise(x), atol=1e-8)
        assert np.allclose(diag, 1.0, atol=1e-8)
        assert device.profiler.count_of("custom.diag_extract") == 2

    def test_auto_dispatch_large_ratio_uses_gemm(self, device_build, rng, poly_kernel):
        x = rng.standard_normal((300, 2)).astype(np.float32)  # n/d = 150 > 100
        assert device_build(x, poly_kernel, method="auto")[2] == "gemm"

    def test_auto_dispatch_small_ratio_uses_syrk(self, device_build, rng, poly_kernel):
        x = rng.standard_normal((50, 10)).astype(np.float32)  # n/d = 5 < 100
        assert device_build(x, poly_kernel, method="auto")[2] == "syrk"

    def test_custom_threshold(self, device_build, rng, poly_kernel):
        x = rng.standard_normal((50, 10)).astype(np.float32)  # ratio 5
        assert device_build(x, poly_kernel, method="auto", threshold=2.0)[2] == "gemm"

    def test_non_gram_kernel_rejected(self, device_build, rng):
        x = rng.standard_normal((10, 3)).astype(np.float32)
        with pytest.raises(ShapeError, match="Gram-expressible"):
            device_build(x, LaplacianKernel())

    def test_launches_recorded(self, device_build, device, rng, poly_kernel):
        x = rng.standard_normal((10, 3)).astype(np.float32)
        device_build(x, poly_kernel, method="syrk", device=device)
        names = [launch.name for launch in device.profiler.launches]
        assert "cublas.syrk" in names
        assert "custom.triangular_mirror" in names
        assert "thrust.transform" in names
        assert "custom.diag_extract" in names
