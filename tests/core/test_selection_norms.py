"""Tests for the selection-matrix invariants and centroid-norm routes."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PopcornKernelKMeans
from repro.baselines import random_labels
from repro.core import (
    build_selection,
    centroid_norms_reference,
    centroid_norms_spgemm,
    centroid_norms_spmv,
    gather_z,
    selection_dense,
    verify_selection_invariants,
)
from repro.errors import ShapeError, SparseFormatError
from repro.kernels import PolynomialKernel, kernel_matrix
from repro.sparse import CSRMatrix, spmm


class TestSelectionInvariants:
    def test_valid_selection_passes(self, rng):
        labels = rng.integers(0, 4, 30).astype(np.int32)
        v = build_selection(labels, 4)
        verify_selection_invariants(v, labels)

    def test_detects_wrong_nnz(self, rng):
        labels = rng.integers(0, 3, 10).astype(np.int32)
        v = build_selection(labels, 3)
        broken = CSRMatrix(
            v.values[:-1], v.colinds[:-1],
            np.concatenate([v.rowptrs[:-1], [v.nnz - 1]]), v.shape, check=False,
        )
        with pytest.raises(SparseFormatError, match="nonzeros"):
            verify_selection_invariants(broken, labels)

    def test_detects_wrong_pattern(self, rng):
        labels = rng.integers(0, 3, 12).astype(np.int32)
        v = build_selection(labels, 3)
        other = labels.copy()
        other[0] = (other[0] + 1) % 3
        with pytest.raises(SparseFormatError):
            verify_selection_invariants(v, other)

    def test_detects_bad_values(self, rng):
        labels = rng.integers(0, 3, 12).astype(np.int32)
        v = build_selection(labels, 3)
        v.values[0] *= 2  # corrupt a reciprocal cardinality
        with pytest.raises(SparseFormatError, match="sum"):
            verify_selection_invariants(v, labels)

    def test_dense_reference_agrees(self, rng):
        labels = rng.integers(0, 5, 25).astype(np.int32)
        v = build_selection(labels, 5, dtype=np.float64)
        assert np.allclose(v.to_dense(), selection_dense(labels, 5))


class TestCentroidNorms:
    def _setup(self, rng, n=30, k=5):
        x = rng.standard_normal((n, 4))
        k_mat = kernel_matrix(x, PolynomialKernel())
        labels = random_labels(n, k, rng)
        return k_mat, labels, k

    def test_spmv_equals_reference(self, rng):
        k_mat, labels, k = self._setup(rng)
        v = build_selection(labels, k, dtype=np.float64)
        kvt = spmm(v, k_mat).T  # (n, k) = (V K)^T = K V^T
        got = centroid_norms_spmv(np.ascontiguousarray(kvt), v, labels)
        want = centroid_norms_reference(k_mat, labels, k)
        assert np.allclose(got, want, atol=1e-8)

    def test_spgemm_equals_reference(self, rng):
        k_mat, labels, k = self._setup(rng)
        v = build_selection(labels, k, dtype=np.float64)
        got = centroid_norms_spgemm(k_mat, v)
        want = centroid_norms_reference(k_mat, labels, k)
        assert np.allclose(got, want, atol=1e-8)

    def test_spmv_equals_spgemm_exactly(self, rng):
        """The paper's claim: the z-gather SpMV computes exactly
        diag(V K V^T) (Sec. 3.3, Fig. 1)."""
        k_mat, labels, k = self._setup(rng, n=40, k=7)
        v = build_selection(labels, k, dtype=np.float64)
        kvt = np.ascontiguousarray(spmm(v, k_mat).T)
        spmv_route = centroid_norms_spmv(kvt, v, labels)
        spgemm_route = centroid_norms_spgemm(k_mat, v)
        assert np.allclose(spmv_route, spgemm_route, atol=1e-10)

    def test_empty_cluster_norm_is_zero(self, rng):
        n, k = 12, 4
        labels = (rng.integers(0, 3, n)).astype(np.int32)  # cluster 3 empty
        x = rng.standard_normal((n, 3))
        k_mat = x @ x.T
        v = build_selection(labels, k, dtype=np.float64)
        kvt = np.ascontiguousarray(spmm(v, k_mat).T)
        got = centroid_norms_spmv(kvt, v, labels)
        assert got[3] == 0.0

    def test_gather_z(self, rng):
        kvt = rng.standard_normal((8, 3))
        labels = rng.integers(0, 3, 8).astype(np.int32)
        z = gather_z(kvt, labels)
        assert np.array_equal(z, kvt[np.arange(8), labels])

    def test_gather_z_bad_labels(self, rng):
        with pytest.raises(ShapeError):
            gather_z(rng.standard_normal((5, 2)), np.array([0, 1, 2, 0, 1]))

    def test_shape_validation(self, rng):
        k_mat, labels, k = self._setup(rng)
        v = build_selection(labels, k)
        with pytest.raises(ShapeError):
            centroid_norms_spmv(np.zeros((3, 3)), v, labels)
        with pytest.raises(ShapeError):
            centroid_norms_spgemm(np.zeros((3, 4)), v)

    @given(st.integers(2, 5), st.integers(8, 30), st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_property_spmv_equals_reference(self, k, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, 3))
        k_mat = x @ x.T  # linear-kernel Gram, PSD
        labels = rng.integers(0, k, n).astype(np.int32)
        v = build_selection(labels, k, dtype=np.float64)
        kvt = np.ascontiguousarray(spmm(v, k_mat).T)
        got = centroid_norms_spmv(kvt, v, labels)
        want = centroid_norms_reference(k_mat, labels, k)
        assert np.allclose(got, want, atol=1e-8)


class TestFinalizedSupportNorms:
    """``_finalize_support`` computes the final centroid norms in float64
    from the float32 kernel matrix without a float64 copy of it."""

    def _fit_inputs(self, rng, n=240, k=5):
        x = rng.standard_normal((n, 4)).astype(np.float32)
        km = kernel_matrix(x, PolynomialKernel()).astype(np.float32)
        labels = random_labels(n, k, rng)
        labels[labels == k - 1] = 0  # one empty cluster
        return km, labels, k

    def test_matches_reference(self, rng):
        km, labels, k = self._fit_inputs(rng)
        est = PopcornKernelKMeans(k, backend="host")
        est._finalize_support(km, labels)
        want = centroid_norms_reference(km, labels, k)
        # both sum the same float32 entries in float64, in different orders
        assert est._c_norms.dtype == np.float64
        assert np.allclose(est._c_norms, want, rtol=1e-10, atol=0.0)
        assert est._c_norms[k - 1] == 0.0

    def test_weighted_matches_reference(self, rng):
        km, labels, k = self._fit_inputs(rng, n=90, k=3)
        w = rng.uniform(0.5, 2.0, km.shape[0])
        est = PopcornKernelKMeans(k, backend="host")
        est._finalize_support(km, labels, weights=w)
        onehot = np.zeros((km.shape[0], k))
        onehot[np.arange(km.shape[0]), labels] = w
        s = np.maximum(onehot.sum(axis=0), 1.0)
        want = np.diagonal(onehot.T @ km.astype(np.float64) @ onehot) / s**2
        assert np.allclose(est._c_norms, want, rtol=1e-10, atol=0.0)

    def test_no_float64_copy_of_k(self, rng):
        km, labels, k = self._fit_inputs(rng, n=600, k=6)
        est = PopcornKernelKMeans(k, backend="host")
        tracemalloc.start()
        try:
            est._finalize_support(km, labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < km.nbytes  # a float64 copy alone is 2 * km.nbytes
