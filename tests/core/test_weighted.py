"""Tests for weighted Kernel K-means (the Dhillon et al. generalisation)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import random_labels
from repro.core import (
    WeightedPopcornKernelKMeans,
    popcorn_distances_host,
    weighted_selection_matrix,
)
from repro.errors import ConfigError, ShapeError
from repro.kernels import PolynomialKernel, kernel_matrix


class TestWeightedSelection:
    def test_unit_weights_reduce_to_standard(self, rng):
        from repro.core import build_selection

        labels = random_labels(30, 4, rng)
        vw = weighted_selection_matrix(labels, 4, np.ones(30))
        v = build_selection(labels, 4, dtype=np.float64)
        assert np.allclose(vw.to_dense(), v.to_dense())

    def test_values_are_weight_fractions(self):
        labels = np.array([0, 0, 1])
        w = np.array([1.0, 3.0, 2.0])
        vw = weighted_selection_matrix(labels, 2, w)
        dense = vw.to_dense()
        assert dense[0, 0] == pytest.approx(1 / 4)
        assert dense[0, 1] == pytest.approx(3 / 4)
        assert dense[1, 2] == pytest.approx(1.0)

    def test_one_nonzero_per_column_survives_weighting(self, rng):
        labels = random_labels(25, 3, rng)
        w = rng.uniform(0.1, 2.0, 25)
        vw = weighted_selection_matrix(labels, 3, w)
        assert vw.nnz == 25
        assert np.all(np.count_nonzero(vw.to_dense(), axis=0) == 1)

    def test_rows_sum_to_one(self, rng):
        labels = random_labels(40, 5, rng)
        w = rng.uniform(0.1, 5.0, 40)
        vw = weighted_selection_matrix(labels, 5, w)
        sums = vw.to_dense().sum(axis=1)
        counts = np.bincount(labels, minlength=5)
        assert np.allclose(sums, (counts > 0).astype(float), atol=1e-10)

    def test_zero_weight_cluster(self):
        labels = np.array([0, 1])
        w = np.array([0.0, 1.0])
        vw = weighted_selection_matrix(labels, 2, w)
        assert np.allclose(vw.to_dense()[0], 0)  # total weight zero -> zero row

    def test_negative_weights_rejected(self):
        with pytest.raises(ConfigError):
            weighted_selection_matrix(np.array([0, 1]), 2, np.array([1.0, -1.0]))

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            weighted_selection_matrix(np.array([0, 1]), 2, np.ones(3))


class TestWeightedDistances:
    def test_unit_weights_match_unweighted(self, rng):
        x = rng.standard_normal((35, 4))
        km = kernel_matrix(x, PolynomialKernel())
        labels = random_labels(35, 3, rng)
        dw, _ = popcorn_distances_host(km, labels, 3, weights=np.ones(35))
        du, _ = popcorn_distances_host(km, labels, 3)
        assert np.allclose(dw, du, atol=1e-8)

    def test_matches_brute_force_weighted_centroids(self, rng):
        """D_ij == ||phi(p_i) - c_j||^2 with weighted centroids (linear kernel)."""
        n, k = 25, 3
        x = rng.standard_normal((n, 4))
        km = x @ x.T
        labels = random_labels(n, k, rng)
        w = rng.uniform(0.2, 3.0, n)
        s = np.bincount(labels, weights=w, minlength=k)
        centroids = np.zeros((k, 4))
        np.add.at(centroids, labels, w[:, None] * x)
        centroids /= np.maximum(s, 1e-30)[:, None]
        brute = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        got, _ = popcorn_distances_host(km, labels, k, weights=w)
        assert np.allclose(got, brute, atol=1e-8)

    def test_duplicating_a_point_equals_doubling_its_weight(self, rng):
        """Weight-2 on point i == having point i twice."""
        n, k = 12, 2
        x = rng.standard_normal((n, 3))
        labels = random_labels(n, k, rng)
        # weighted version
        w = np.ones(n)
        w[0] = 2.0
        km = x @ x.T
        dw, _ = popcorn_distances_host(km, labels, k, weights=w)
        # duplicated version
        x2 = np.concatenate([x, x[:1]])
        labels2 = np.concatenate([labels, labels[:1]]).astype(np.int32)
        km2 = x2 @ x2.T
        du, _ = popcorn_distances_host(km2, labels2, k)
        assert np.allclose(dw, du[:n], atol=1e-8)


class TestWeightedEstimator:
    def test_unit_weights_match_standard_engine(self, rng):
        from repro.core import PopcornKernelKMeans

        x = rng.standard_normal((40, 4))
        km = kernel_matrix(x.astype(np.float64), PolynomialKernel())
        init = random_labels(40, 3, rng)
        weighted = WeightedPopcornKernelKMeans(3, max_iter=10, check_convergence=False).fit(
            kernel_matrix=km, init_labels=init
        )
        standard = PopcornKernelKMeans(3, dtype=np.float64, max_iter=10,
                                       check_convergence=False).fit(
            kernel_matrix=km, init_labels=init
        )
        assert np.array_equal(weighted.labels_, standard.labels_)

    def test_objective_monotone(self, rng):
        x = rng.standard_normal((40, 3))
        km = kernel_matrix(x, PolynomialKernel())
        w = rng.uniform(0.5, 2.0, 40)
        m = WeightedPopcornKernelKMeans(4, seed=0, max_iter=30).fit(
            kernel_matrix=km, sample_weight=w
        )
        h = m.objective_history_
        assert all(h[i + 1] <= h[i] + 1e-7 * abs(h[i]) for i in range(len(h) - 1))

    def test_heavy_weight_pulls_centroid(self):
        """A very heavy point dominates its cluster's centroid."""
        x = np.array([[0.0], [1.0], [10.0], [11.0]])
        km = x @ x.T
        init = np.array([0, 0, 1, 1], dtype=np.int32)
        w = np.array([1.0, 1000.0, 1.0, 1.0])
        m = WeightedPopcornKernelKMeans(2, max_iter=5).fit(
            kernel_matrix=km, sample_weight=w, init_labels=init
        )
        # cluster 0's centroid sits at ~1.0; both left points stay together
        assert m.labels_[0] == m.labels_[1]

    def test_validation(self, rng):
        km = np.eye(5)
        with pytest.raises(ShapeError):
            WeightedPopcornKernelKMeans(2).fit(kernel_matrix=km, sample_weight=np.ones(3))
        with pytest.raises(ConfigError):
            WeightedPopcornKernelKMeans(9).fit(kernel_matrix=km)
        with pytest.raises(ConfigError):
            WeightedPopcornKernelKMeans(0)

    @given(st.integers(2, 4), st.integers(10, 30), st.integers(0, 10**5))
    @settings(max_examples=20, deadline=None)
    def test_property_weighted_norms_equal_spgemm(self, k, n, seed):
        """The weighted z-gather SpMV still equals diag(V_w K V_w^T)."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, 3))
        km = x @ x.T
        labels = rng.integers(0, k, n).astype(np.int32)
        w = rng.uniform(0.1, 3.0, n)
        vw = weighted_selection_matrix(labels, k, w)
        dense_vw = vw.to_dense()
        want = np.diagonal(dense_vw @ km @ dense_vw.T)
        # the SpMV route popcorn_distances_host takes with weights
        from repro.sparse import spmm, spmv

        kvt = np.ascontiguousarray(spmm(vw, km).T)
        z = kvt[np.arange(n), labels]
        got = spmv(vw, np.ascontiguousarray(z))
        assert np.allclose(got, want, atol=1e-8)
