"""Unit tests for CSR builders."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import ShapeError, SparseFormatError
from repro.sparse import (
    cluster_counts,
    factored_selection,
    factored_spmm,
    factored_spmv,
    from_coo,
    from_dense,
    from_scipy,
    identity,
    random_csr,
    selection_matrix,
    spmm,
    spmv,
    weighted_selection_matrix,
)


class TestFromDense:
    def test_exact_round_trip(self, rng):
        dense = rng.standard_normal((6, 9))
        dense[np.abs(dense) < 0.5] = 0
        a = from_dense(dense)
        a.validate()
        assert np.allclose(a.to_dense(), dense)

    def test_tolerance_drops_small_entries(self):
        dense = np.array([[0.1, 0.9], [0.0, -0.05]])
        a = from_dense(dense, tol=0.2)
        assert a.nnz == 1
        assert a[0, 1] == pytest.approx(0.9)

    def test_all_zero(self):
        a = from_dense(np.zeros((4, 4)))
        assert a.nnz == 0

    def test_rejects_1d(self):
        with pytest.raises(ShapeError):
            from_dense(np.ones(4))

    def test_dtype_conversion(self):
        a = from_dense(np.eye(3, dtype=np.float64), dtype=np.float32)
        assert a.dtype == np.float32


class TestFromCoo:
    def test_basic(self):
        a = from_coo([0, 1], [1, 0], [2.0, 3.0], (2, 2))
        assert a[0, 1] == 2.0
        assert a[1, 0] == 3.0

    def test_duplicates_summed(self):
        a = from_coo([0, 0, 0], [1, 1, 0], [2.0, 3.0, 1.0], (1, 2))
        assert a[0, 1] == 5.0
        assert a[0, 0] == 1.0
        assert a.nnz == 2

    def test_duplicates_rejected_when_disabled(self):
        with pytest.raises(SparseFormatError, match="duplicate"):
            from_coo([0, 0], [1, 1], [2.0, 3.0], (1, 2), sum_duplicates=False)

    def test_out_of_bounds_row(self):
        with pytest.raises(SparseFormatError, match="row index"):
            from_coo([5], [0], [1.0], (2, 2))

    def test_out_of_bounds_col(self):
        with pytest.raises(SparseFormatError, match="column index"):
            from_coo([0], [5], [1.0], (2, 2))

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            from_coo([0, 1], [0], [1.0], (2, 2))

    def test_empty(self):
        a = from_coo([], [], [], (3, 4))
        assert a.nnz == 0
        assert a.shape == (3, 4)

    def test_canonical_order(self, rng):
        n = 20
        rows = rng.integers(0, 5, n)
        cols = rng.integers(0, 7, n)
        vals = rng.standard_normal(n)
        a = from_coo(rows, cols, vals, (5, 7))
        a.validate()  # checks sorted, unique columns per row


class TestFromScipy:
    def test_csr_round_trip(self, rng):
        s = sp.random(10, 8, density=0.3, random_state=42, format="csr")
        a = from_scipy(s)
        a.validate()
        assert np.allclose(a.to_dense(), s.toarray())

    def test_coo_input(self, rng):
        s = sp.random(5, 5, density=0.4, random_state=1, format="coo")
        a = from_scipy(s)
        assert np.allclose(a.to_dense(), s.toarray())


class TestIdentity:
    def test_identity_values(self):
        a = identity(4)
        assert np.allclose(a.to_dense(), np.eye(4, dtype=np.float32))

    def test_identity_zero(self):
        a = identity(0)
        assert a.shape == (0, 0)
        assert a.nnz == 0


class TestRandomCSR:
    def test_exact_nnz(self, rng):
        a = random_csr(10, 10, 0.25, rng=rng)
        assert a.nnz == 25
        a.validate()

    def test_density_bounds(self, rng):
        with pytest.raises(SparseFormatError):
            random_csr(5, 5, 1.5, rng=rng)
        with pytest.raises(SparseFormatError):
            random_csr(5, 5, -0.1, rng=rng)

    def test_full_density(self, rng):
        a = random_csr(4, 4, 1.0, rng=rng)
        assert a.nnz == 16

    def test_zero_density(self, rng):
        a = random_csr(4, 4, 0.0, rng=rng)
        assert a.nnz == 0

    def test_reproducible(self):
        a = random_csr(6, 6, 0.5, rng=np.random.default_rng(3))
        b = random_csr(6, 6, 0.5, rng=np.random.default_rng(3))
        assert a == b


class TestSelectionMatrix:
    def test_shape_and_nnz(self, rng):
        labels = rng.integers(0, 4, 30)
        v = selection_matrix(labels, 4)
        assert v.shape == (4, 30)
        assert v.nnz == 30

    def test_values_are_reciprocal_cardinalities(self):
        labels = np.array([0, 0, 1, 2, 2, 2])
        v = selection_matrix(labels, 3)
        dense = v.to_dense()
        assert dense[0, 0] == pytest.approx(0.5)
        assert dense[1, 2] == pytest.approx(1.0)
        assert dense[2, 5] == pytest.approx(1 / 3)

    def test_one_nonzero_per_column(self, rng):
        labels = rng.integers(0, 5, 40)
        v = selection_matrix(labels, 5)
        assert np.array_equal(
            np.count_nonzero(v.to_dense(), axis=0), np.ones(40, dtype=int)
        )

    def test_empty_cluster_gives_empty_row(self):
        labels = np.array([0, 0, 2, 2])  # cluster 1 empty
        v = selection_matrix(labels, 3)
        assert v.row_nnz()[1] == 0
        assert np.allclose(v.to_dense()[1], 0)

    def test_label_out_of_range(self):
        with pytest.raises(ShapeError):
            selection_matrix(np.array([0, 5]), 3)

    def test_matvec_computes_cluster_means(self, rng):
        labels = rng.integers(0, 3, 20)
        x = rng.standard_normal(20)
        v = selection_matrix(labels, 3, dtype=np.float64)
        means = v.to_dense() @ x
        for j in range(3):
            members = x[labels == j]
            if members.size:
                assert means[j] == pytest.approx(members.mean())

    def test_float_labels_with_integral_values_accepted(self):
        v = selection_matrix(np.array([0.0, 1.0, 1.0]), 2)
        assert v.nnz == 3


class TestBinarySelection:
    def test_ones_values(self, rng):
        labels = rng.integers(0, 3, 15)
        v, _ = factored_selection(labels, 3)
        assert np.all(v.values == 1.0)
        # row sums are cluster counts
        assert np.array_equal(
            v.to_dense().sum(axis=1).astype(int), np.bincount(labels, minlength=3)
        )


class TestFactoredSelection:
    def test_unweighted_factors_v(self, rng):
        labels = rng.integers(0, 4, 30)
        labels[labels == 2] = 0  # cluster 2 empty
        b, sizes = factored_selection(labels, 4, dtype=np.float64)
        assert np.array_equal(sizes, np.maximum(np.bincount(labels, minlength=4), 1))
        v = selection_matrix(labels, 4, dtype=np.float64)
        assert np.allclose(b.to_dense() / sizes[:, None], v.to_dense(), rtol=1e-15)

    def test_weighted_factors_v_w(self, rng):
        labels = rng.integers(0, 3, 20)
        w = rng.uniform(0.5, 2.0, 20)
        w[labels == 1] = 0.0  # a nonempty cluster of total weight zero
        b, sizes = factored_selection(labels, 3, weights=w, dtype=np.float64)
        assert sizes[1] == 1.0
        v = weighted_selection_matrix(labels, 3, w, dtype=np.float64)
        assert np.array_equal(b.colinds, v.colinds)
        assert np.allclose(b.to_dense() / sizes[:, None], v.to_dense(), rtol=1e-15)

    def test_mean_of_equal_entries_is_exact(self):
        """One rounding per row: 30 equal entries average back exactly,
        where V's stored 1/30 rounds in every term."""
        labels = np.zeros(30, dtype=np.int32)
        ones = np.full((30, 1), 25.0, dtype=np.float32)
        b, sizes = factored_selection(labels, 1, dtype=np.float32)
        assert (spmm(b, ones)[0, 0] / sizes[0]) == np.float32(25.0)

    def test_rejects_bad_weights(self):
        with pytest.raises(ShapeError):
            factored_selection(np.array([0, 1]), 2, weights=np.ones(3))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_factored_products_divide_rows_once(self, rng, dtype):
        labels = rng.integers(0, 4, 25)
        b, sizes = factored_selection(labels, 4, dtype=dtype)
        x = rng.standard_normal((25, 6)).astype(dtype)
        got = factored_spmm(b, sizes, x, alpha=-2.0)
        assert np.array_equal(got, spmm(b, x, alpha=-2.0) / sizes[:, None])
        got_v = factored_spmv(b, sizes, x[:, 0], alpha=-0.5)
        assert np.array_equal(got_v, spmv(b, x[:, 0], alpha=-0.5) / sizes)
        assert np.array_equal(factored_spmm(b, None, x), spmm(b, x))
        assert np.array_equal(factored_spmv(b, None, x[:, 0]), spmv(b, x[:, 0]))


class TestClusterCounts:
    def test_counts(self):
        assert np.array_equal(cluster_counts(np.array([0, 1, 1, 3]), 5), [1, 2, 0, 1, 0])

    def test_out_of_range(self):
        with pytest.raises(ShapeError):
            cluster_counts(np.array([0, 7]), 3)
