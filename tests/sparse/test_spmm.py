"""Unit tests for SpMM (sparse-dense multiply)."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.sparse import from_dense, random_csr, selection_matrix, spmm


class TestSpMMCorrectness:
    @pytest.mark.parametrize("density", [0.0, 0.1, 0.5, 1.0])
    def test_matches_scipy(self, rng, density):
        a = random_csr(12, 9, density, rng=rng, dtype=np.float64)
        b = rng.standard_normal((9, 7))
        assert np.allclose(spmm(a, b), a.to_scipy() @ b, atol=1e-12)

    def test_empty_rows_give_zero_rows(self, rng):
        dense = np.zeros((5, 4))
        dense[2] = [1, 0, 2, 0]
        a = from_dense(dense)
        b = rng.standard_normal((4, 3))
        out = spmm(a, b)
        assert np.allclose(out[[0, 1, 3, 4]], 0)
        assert np.allclose(out[2], dense[2] @ b)

    def test_trailing_empty_rows(self, rng):
        dense = np.zeros((6, 3))
        dense[0] = [1, 2, 3]
        a = from_dense(dense)
        b = rng.standard_normal((3, 2))
        out = spmm(a, b)
        assert np.allclose(out[1:], 0)

    def test_single_column_b(self, rng):
        a = random_csr(5, 5, 0.5, rng=rng, dtype=np.float64)
        b = rng.standard_normal((5, 1))
        assert np.allclose(spmm(a, b), a.to_scipy() @ b)

    def test_wide_b(self, rng):
        a = random_csr(10, 20, 0.3, rng=rng, dtype=np.float64)
        b = rng.standard_normal((20, 300))
        assert np.allclose(spmm(a, b), a.to_scipy() @ b, atol=1e-12)

    def test_alpha_scaling(self, rng):
        a = random_csr(6, 6, 0.5, rng=rng, dtype=np.float64)
        b = rng.standard_normal((6, 4))
        assert np.allclose(spmm(a, b, alpha=-2.0), -2.0 * (a.to_scipy() @ b))

    def test_float32_accumulation(self, rng):
        a = random_csr(20, 20, 0.5, rng=rng, dtype=np.float32)
        b = rng.standard_normal((20, 5)).astype(np.float32)
        assert np.allclose(spmm(a, b), a.to_scipy() @ b, rtol=1e-5, atol=1e-5)

    def test_zero_column_output(self, rng):
        a = random_csr(4, 4, 0.5, rng=rng)
        out = spmm(a, np.zeros((4, 0), dtype=np.float32))
        assert out.shape == (4, 0)


class TestSpMMInterface:
    def test_dimension_mismatch(self, rng):
        a = random_csr(3, 4, 0.5, rng=rng)
        with pytest.raises(ShapeError, match="mismatch"):
            spmm(a, np.ones((5, 2), dtype=np.float32))

    def test_b_must_be_2d(self, rng):
        a = random_csr(3, 4, 0.5, rng=rng)
        with pytest.raises(ShapeError):
            spmm(a, np.ones(4, dtype=np.float32))

    def test_out_parameter(self, rng):
        a = random_csr(5, 5, 0.5, rng=rng, dtype=np.float64)
        b = rng.standard_normal((5, 3))
        out = np.empty((5, 3), dtype=np.float64)
        res = spmm(a, b, out=out)
        assert res is out
        assert np.allclose(out, a.to_scipy() @ b)

    def test_out_wrong_shape_rejected(self, rng):
        a = random_csr(5, 5, 0.5, rng=rng, dtype=np.float64)
        b = rng.standard_normal((5, 3))
        with pytest.raises(ShapeError, match="out"):
            spmm(a, b, out=np.empty((5, 4)))

    def test_b_promoted_to_a_dtype(self, rng):
        a = random_csr(4, 4, 0.5, rng=rng, dtype=np.float64)
        b = rng.standard_normal((4, 2)).astype(np.float32)
        out = spmm(a, b)
        assert out.dtype == np.float64


class TestTransposedOrientation:
    def test_kvt_via_vk_transpose(self, rng):
        """E = K V^T equals (V K)^T for symmetric K — Popcorn's trick."""
        n, k = 25, 4
        x = rng.standard_normal((n, 3))
        k_mat = x @ x.T  # symmetric
        labels = rng.integers(0, k, n)
        v = selection_matrix(labels, k, dtype=np.float64)
        e = spmm(v, k_mat).T
        expect = k_mat @ v.to_dense().T
        assert e.shape == (n, k)
        assert np.allclose(e, expect, atol=1e-10)

    def test_alpha_in_transpose(self, rng):
        a = random_csr(4, 6, 0.5, rng=rng, dtype=np.float64)
        b = rng.standard_normal((6, 6))
        got = spmm(a, b, alpha=-2.0).T
        assert np.allclose(got, (-2.0 * (a.to_scipy() @ b)).T)
