"""Tests for the library shims: cuBLAS launches, cusparse, thrust, raft, custom."""

import numpy as np
import pytest

from repro import PopcornKernelKMeans
from repro.errors import ConfigError, ShapeError
from repro.gpu import custom, raft, thrust
from repro.gpu.cusparse import DeviceCSR, spgemm, spmm_kvt, spmv
from repro.kernels import LinearKernel
from repro.sparse import random_csr, selection_matrix


class TestBlas:
    """The cuBLAS Gram launches, charged by the device backend's kernel
    stage on the one engine build of K."""

    def test_gemm_gram_numerics(self, device_build, rng):
        x = rng.standard_normal((12, 5)).astype(np.float64)
        km, _, _ = device_build(x, LinearKernel(), method="gemm")
        assert np.array_equal(km, x @ x.T)

    def test_syrk_gram_numerics(self, device_build, rng):
        x = rng.standard_normal((12, 5)).astype(np.float64)
        km, _, _ = device_build(x, LinearKernel(), method="syrk")
        assert np.allclose(km, x @ x.T)
        # result must be exactly symmetric (cuSPARSE reads the full matrix)
        assert np.array_equal(km, km.T)

    def test_syrk_records_two_launches(self, device_build, device, rng):
        x = rng.standard_normal((8, 3)).astype(np.float32)
        device_build(x, LinearKernel(), method="syrk", device=device)
        assert device.profiler.count_of("cublas.syrk") == 1
        assert device.profiler.count_of("custom.triangular_mirror") == 1
        assert device.profiler.count_of("cublas.gemm") == 0

    def test_gram_dispatch_helper(self, device_build, rng):
        x = rng.standard_normal((6, 2)).astype(np.float32)
        gemm, _, _ = device_build(x, LinearKernel(), method="gemm")
        syrk, _, _ = device_build(x, LinearKernel(), method="syrk")
        assert np.array_equal(gemm, syrk)

    def test_gram_unknown_method(self, device_build, rng):
        x = rng.standard_normal((4, 2)).astype(np.float32)
        with pytest.raises(ConfigError, match="unknown gram method"):
            device_build(x, LinearKernel(), method="magic")

    def test_rejects_1d_buffer(self):
        with pytest.raises(ShapeError):
            PopcornKernelKMeans(2, backend="device").fit(np.ones(5, dtype=np.float32))


class TestCusparseShims:
    def test_spmm_kvt_matches_dense(self, device, rng):
        n, k = 20, 4
        x = rng.standard_normal((n, 3))
        k_mat = (x @ x.T).astype(np.float64)
        labels = rng.integers(0, k, n)
        v = DeviceCSR(device, selection_matrix(labels, k, dtype=np.float64))
        e = spmm_kvt(device, device.h2d(k_mat), v, alpha=-2.0)
        want = -2.0 * k_mat @ selection_matrix(labels, k, dtype=np.float64).to_dense().T
        assert np.allclose(e.a, want, atol=1e-10)
        assert device.profiler.count_of("cusparse.spmm") == 1

    def test_spmm_kvt_shape_check(self, device, rng):
        v = DeviceCSR(device, selection_matrix(rng.integers(0, 2, 10), 2))
        bad_k = device.zeros((5, 5))
        with pytest.raises(ShapeError):
            spmm_kvt(device, bad_k, v)

    def test_spmv_matches_dense(self, device, rng):
        n, k = 15, 3
        labels = rng.integers(0, k, n)
        v = DeviceCSR(device, selection_matrix(labels, k, dtype=np.float64))
        z = device.h2d(rng.standard_normal(n))
        out = spmv(device, v, z, alpha=-0.5)
        want = -0.5 * selection_matrix(labels, k, dtype=np.float64).to_dense() @ z.a
        assert np.allclose(out.a, want)

    def test_spmv_length_check(self, device, rng):
        v = DeviceCSR(device, selection_matrix(rng.integers(0, 2, 10), 2))
        with pytest.raises(ShapeError):
            spmv(device, v, device.h2d(np.ones(7, dtype=np.float32)))

    def test_spgemm_matches_scipy(self, device, rng):
        a = DeviceCSR(device, random_csr(6, 8, 0.4, rng=rng, dtype=np.float64))
        b = DeviceCSR(device, random_csr(8, 5, 0.4, rng=rng, dtype=np.float64))
        out = spgemm(device, a, b)
        want = (a.m.to_scipy() @ b.m.to_scipy()).toarray()
        assert np.allclose(out.m.to_dense(), want)
        assert device.profiler.count_of("cusparse.spgemm") == 1


class TestThrust:
    def test_transform_in_place(self, device):
        buf = device.wrap(np.full((4, 4), 2.0, dtype=np.float64))
        out = thrust.transform(device, buf, lambda a: a * 3)
        assert out is buf
        assert np.allclose(buf.a, 6.0)

    def test_transform_out_of_place(self, device):
        buf = device.wrap(np.ones((3, 3), dtype=np.float64))
        out = thrust.transform(device, buf, lambda a: a + 1, in_place=False)
        assert out is not buf
        assert np.allclose(buf.a, 1.0)
        assert np.allclose(out.a, 2.0)

    def test_transform_shape_change_rejected(self, device):
        buf = device.wrap(np.ones((3, 3), dtype=np.float64))
        with pytest.raises(ShapeError):
            thrust.transform(device, buf, lambda a: a[:2])

    def test_transform_nonsquare_charges(self, device):
        buf = device.wrap(np.ones((2, 8), dtype=np.float32))
        thrust.transform(device, buf, lambda a: a)
        assert device.profiler.count_of("thrust.transform") == 1

    def test_bincount(self, device):
        labels = np.array([0, 1, 1, 3], dtype=np.int32)
        counts = thrust.bincount(device, labels, 5)
        assert np.array_equal(counts, [1, 2, 0, 1, 0])
        assert device.profiler.count_of("thrust.reduce_counts") == 1


class TestRaft:
    def test_argmin_rows(self, device, rng):
        d = rng.standard_normal((10, 4))
        buf = device.h2d(d)
        labels = raft.coalesced_reduction_argmin(device, buf)
        assert np.array_equal(labels, np.argmin(d, axis=1))
        assert labels.dtype == np.int32

    def test_argmin_tie_breaks_low(self, device):
        d = np.array([[1.0, 1.0, 2.0]], dtype=np.float32)
        buf = device.h2d(d)
        assert raft.coalesced_reduction_argmin(device, buf)[0] == 0

    def test_argmin_needs_2d(self, device):
        with pytest.raises(ShapeError):
            raft.coalesced_reduction_argmin(device, device.h2d(np.ones(4, dtype=np.float32)))


class TestCustomKernels:
    def test_v_build(self, device, rng):
        labels = rng.integers(0, 3, 20).astype(np.int32)
        v = custom.v_build(device, labels, 3)
        assert v.shape == (3, 20)
        assert v.nnz == 20
        assert device.profiler.count_of("custom.v_build") == 1

    def test_z_gather(self, device, rng):
        e = rng.standard_normal((8, 3))
        labels = rng.integers(0, 3, 8).astype(np.int32)
        z = custom.z_gather(device, device.h2d(e), labels)
        assert np.allclose(z.a, e[np.arange(8), labels])

    def test_d_add_broadcasts(self, device, rng):
        e = rng.standard_normal((6, 4))
        p = rng.standard_normal(6)
        c = rng.standard_normal(4)
        eb = device.h2d(e.copy())
        out = custom.d_add(device, eb, device.h2d(p), device.h2d(c))
        assert out is eb  # in place
        assert np.allclose(eb.a, e + p[:, None] + c[None, :])

    def test_d_add_shape_mismatch(self, device, rng):
        eb = device.h2d(rng.standard_normal((6, 4)))
        with pytest.raises(ShapeError):
            custom.d_add(device, eb, device.h2d(np.ones(5)), device.h2d(np.ones(4)))

    def test_diag_extract(self, device, rng):
        m = rng.standard_normal((5, 5))
        out = custom.diag_extract(device, device.h2d(m))
        assert np.allclose(out.a, np.diagonal(m))

    def test_diag_extract_requires_square(self, device, rng):
        with pytest.raises(ShapeError):
            custom.diag_extract(device, device.h2d(rng.standard_normal((3, 4))))


class TestBaselineKernels:
    def test_cluster_reduce(self, device, rng):
        n, k = 15, 3
        k_mat = rng.standard_normal((n, n))
        labels = rng.integers(0, k, n).astype(np.int32)
        r = custom.baseline_cluster_reduce(device, device.h2d(k_mat), labels, k)
        want = np.zeros((n, k))
        for j in range(k):
            want[:, j] = k_mat[:, labels == j].sum(axis=1)
        assert np.allclose(r.a, want, atol=1e-5)

    def test_centroid_norms_match_definition(self, device, rng):
        n, k = 20, 4
        x = rng.standard_normal((n, 3))
        k_mat = x @ x.T
        labels = rng.integers(0, k, n).astype(np.int32)
        counts = np.bincount(labels, minlength=k)
        r = custom.baseline_cluster_reduce(device, device.h2d(k_mat), labels, k)
        cn = custom.baseline_centroid_norms(device, r, labels, counts)
        # reference: ||c_j||^2 via explicit centroids (linear kernel)
        want = np.zeros(k)
        for j in range(k):
            if counts[j]:
                want[j] = (x[labels == j].mean(axis=0) ** 2).sum()
        assert np.allclose(cn.a, want, atol=1e-5)

    def test_distance_assemble_matches_reference(self, device, rng):
        from repro.core import distance_matrix_reference

        n, k = 18, 3
        x = rng.standard_normal((n, 2))
        k_mat = (x @ x.T).astype(np.float64)
        labels = rng.integers(0, k, n).astype(np.int32)
        counts = np.bincount(labels, minlength=k)
        r = custom.baseline_cluster_reduce(device, device.h2d(k_mat), labels, k)
        cn = custom.baseline_centroid_norms(device, r, labels, counts)
        kd = device.h2d(np.ascontiguousarray(np.diagonal(k_mat)))
        d = custom.baseline_distance_assemble(device, r, kd, cn, counts)
        want = distance_matrix_reference(k_mat, labels, k)
        assert np.allclose(d.a, want, atol=1e-8)
