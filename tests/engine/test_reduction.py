"""The chunked pairwise-reduction engine: bit-exactness property suite.

The contract under test (repro.engine.reduction): for every dtype, chunk
shape (including non-dividing and degenerate 1x1 schedules), thread
count, and weighted/unweighted selection matrix, the fused argmin
produces labels and min-distances **bit-for-bit identical** to the
legacy materialise-then-argmin pipeline — and argmin-equal to the dense
float64 gold standard (`distance_matrix_reference`).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import random_labels
from repro.core import argmin_assign, distance_matrix_reference
from repro.core.distances import popcorn_distances_host
from repro.data import make_blobs
from repro.engine.reduction import (
    DEFAULT_CHUNK_ROWS,
    WorkStealingPool,
    chunk_ranges,
    csr_row_slice,
    fused_popcorn_argmin,
    validate_chunk_size,
    validate_n_threads,
)
from repro.errors import ConfigError, ShapeError
from repro.estimators import available_estimators, filter_params, make_estimator
from repro.sparse import selection_matrix


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def _kernel_matrix(n, rng, dtype=np.float64):
    x = rng.standard_normal((n, 6))
    return np.ascontiguousarray((x @ x.T).astype(dtype))


# ----------------------------------------------------------------------
# schedule + validator plumbing
# ----------------------------------------------------------------------


class TestChunkRanges:
    def test_non_dividing(self):
        assert chunk_ranges(10, 4) == [(0, 4), (4, 8), (8, 10)]

    def test_degenerate_one(self):
        assert chunk_ranges(3, 1) == [(0, 1), (1, 2), (2, 3)]

    def test_none_is_single_chunk(self):
        assert chunk_ranges(7, None) == [(0, 7)]

    def test_oversized_is_single_chunk(self):
        assert chunk_ranges(7, 1000) == [(0, 7)]

    def test_empty(self):
        assert chunk_ranges(0, 4) == []

    def test_negative_raises(self):
        with pytest.raises(ShapeError):
            chunk_ranges(-1, 4)


class TestValidators:
    @pytest.mark.parametrize("value", [None, 1, 7, DEFAULT_CHUNK_ROWS])
    def test_chunk_size_accepts(self, value):
        assert validate_chunk_size(value) == value

    @pytest.mark.parametrize("value", [0, -3, 2.5, "8"])
    def test_chunk_size_rejects(self, value):
        with pytest.raises(ConfigError):
            validate_chunk_size(value)

    @pytest.mark.parametrize("value", [None, 1, 8])
    def test_n_threads_accepts(self, value):
        assert validate_n_threads(value) == value

    @pytest.mark.parametrize("value", [0, -1, 1.5])
    def test_n_threads_rejects(self, value):
        with pytest.raises(ConfigError):
            validate_n_threads(value)


class TestCsrRowSlice:
    def test_matches_dense_slice(self, rng):
        lab = random_labels(20, 5, rng)
        v = selection_matrix(lab, 5)
        dense = v.to_dense()
        for r0, r1 in [(0, 5), (2, 4), (0, 0), (4, 5)]:
            part = csr_row_slice(v, r0, r1)
            assert part.shape == (r1 - r0, 20)
            np.testing.assert_array_equal(part.to_dense(), dense[r0:r1])


class TestWorkStealingPool:
    def test_runs_every_task(self):
        out = []
        WorkStealingPool(3).run([lambda i=i: out.append(i) for i in range(20)])
        assert sorted(out) == list(range(20))

    def test_single_thread_inline(self):
        out = []
        WorkStealingPool(1).run([lambda i=i: out.append(i) for i in range(5)])
        assert out == list(range(5))

    def test_exception_propagates(self):
        def boom():
            raise ValueError("task failed")

        with pytest.raises(ValueError, match="task failed"):
            WorkStealingPool(4).run([boom] * 3)

    def test_rejects_bad_thread_count(self):
        with pytest.raises(ConfigError):
            WorkStealingPool(0)


# ----------------------------------------------------------------------
# the bit-exactness property
# ----------------------------------------------------------------------

CHUNK_GRID = [
    (None, None),
    (1, 1),  # degenerate: one entry per panel
    (7, 3),  # non-dividing both axes
    (16, 1),
    (1000, 1000),  # oversized: one chunk
]


class TestFusedBitExact:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("chunk_rows,chunk_cols", CHUNK_GRID)
    @pytest.mark.parametrize("n_threads", [1, 2, 8])
    def test_matches_legacy_pipeline(self, rng, dtype, chunk_rows, chunk_cols, n_threads):
        n, k = 37, 5
        km = _kernel_matrix(n, rng, dtype)
        lab = random_labels(n, k, rng)
        d_legacy, _ = popcorn_distances_host(km, lab, k)
        want = argmin_assign(d_legacy)
        fused = fused_popcorn_argmin(
            km, lab, k, chunk_rows=chunk_rows, chunk_cols=chunk_cols, n_threads=n_threads
        )
        np.testing.assert_array_equal(fused.labels, want)
        assert fused.labels.dtype == np.int32
        np.testing.assert_array_equal(fused.min_d, d_legacy[np.arange(n), want])

    @pytest.mark.parametrize("chunk_rows,chunk_cols", CHUNK_GRID)
    def test_weighted_matches_legacy(self, rng, chunk_rows, chunk_cols):
        n, k = 29, 4
        km = _kernel_matrix(n, rng)
        lab = random_labels(n, k, rng)
        w = rng.uniform(0.5, 2.0, size=n)
        d_legacy, _ = popcorn_distances_host(km, lab, k, weights=w)
        want = argmin_assign(d_legacy)
        fused = fused_popcorn_argmin(
            km, lab, k,
            chunk_rows=chunk_rows, chunk_cols=chunk_cols, n_threads=2, weights=w,
        )
        np.testing.assert_array_equal(fused.labels, want)
        np.testing.assert_array_equal(fused.min_d, d_legacy[np.arange(n), want])

    @given(
        n=st.integers(min_value=3, max_value=48),
        k=st.integers(min_value=1, max_value=7),
        chunk_rows=st.one_of(st.none(), st.integers(min_value=1, max_value=50)),
        chunk_cols=st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
        n_threads=st.sampled_from([1, 2, 8]),
        f32=st.booleans(),
        weighted=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_bit_exact(
        self, n, k, chunk_rows, chunk_cols, n_threads, f32, weighted, seed
    ):
        if k > n:
            k = n
        rng = np.random.default_rng(seed)
        dtype = np.float32 if f32 else np.float64
        km = _kernel_matrix(n, rng, dtype)
        lab = random_labels(n, k, rng)
        w = rng.uniform(0.5, 2.0, size=n) if weighted else None
        d_legacy, _ = popcorn_distances_host(km, lab, k, weights=w)
        want = argmin_assign(d_legacy)
        fused = fused_popcorn_argmin(
            km, lab, k,
            chunk_rows=chunk_rows, chunk_cols=chunk_cols, n_threads=n_threads, weights=w,
        )
        np.testing.assert_array_equal(fused.labels, want)
        np.testing.assert_array_equal(fused.min_d, d_legacy[np.arange(n), want])

    def test_matches_reference_argmin(self, rng):
        n, k = 40, 6
        km = _kernel_matrix(n, rng)
        lab = random_labels(n, k, rng)
        ref = distance_matrix_reference(km, lab, k)
        fused = fused_popcorn_argmin(km, lab, k, chunk_rows=9, chunk_cols=2, n_threads=2)
        np.testing.assert_array_equal(fused.labels, argmin_assign(ref))

    def test_tie_breaks_to_lowest_index(self):
        # duplicate points in duplicate clusters: distances tie exactly,
        # and the fused sweep must pick the lowest column like argmin_assign
        km = np.ones((8, 8), dtype=np.float64)
        lab = np.array([0, 0, 1, 1, 2, 2, 3, 3], dtype=np.int32)
        d_full, _ = popcorn_distances_host(km, lab, 4)
        want = argmin_assign(d_full)
        assert want.max() == 0  # every column ties; all go to cluster 0
        for chunk_cols in (None, 1, 3):
            fused = fused_popcorn_argmin(km, lab, 4, chunk_rows=3, chunk_cols=chunk_cols)
            np.testing.assert_array_equal(fused.labels, want)

    def test_empty_cluster(self, rng):
        n, k = 15, 4
        km = _kernel_matrix(n, rng)
        lab = np.zeros(n, dtype=np.int32)
        lab[7:] = 1  # clusters 2, 3 empty
        d_legacy, _ = popcorn_distances_host(km, lab, k)
        fused = fused_popcorn_argmin(km, lab, k, chunk_rows=4, chunk_cols=1)
        np.testing.assert_array_equal(fused.labels, argmin_assign(d_legacy))

    def test_at_matches_materialised_entries(self, rng):
        n, k = 24, 5
        km = _kernel_matrix(n, rng)
        lab = random_labels(n, k, rng)
        d_full, _ = popcorn_distances_host(km, lab, k)
        fused = fused_popcorn_argmin(km, lab, k, chunk_rows=7, chunk_cols=2)
        rows = np.array([0, 3, 11, 23])
        cols = np.array([4, 0, 2, 1])
        np.testing.assert_array_equal(fused.at(rows, cols), d_full[rows, cols])


# ----------------------------------------------------------------------
# every estimator, every backend face of the engine
# ----------------------------------------------------------------------

CHUNK_KW = {"chunk_rows": 11, "chunk_cols": 2, "n_threads": 2}


class TestEstimatorsBitIdentical:
    """All registered estimators keep bit-identical labels through the
    fused reduction engine — host (two chunk shapes) and sharded backends."""

    @pytest.mark.parametrize("name", available_estimators())
    def test_host_chunked_and_tiled_alias(self, name):
        x, _ = make_blobs(36, 3, 2, rng=0)
        base = make_estimator(name, n_clusters=2, seed=0).fit(x)
        for variant in (
            {"backend": "host", **CHUNK_KW},
            {"backend": "host", "chunk_rows": 13},  # row chunks only
        ):
            kw = filter_params(name, variant)
            est = make_estimator(name, n_clusters=2, seed=0, **kw).fit(x)
            np.testing.assert_array_equal(est.labels_, base.labels_, err_msg=name)

    @pytest.mark.parametrize("name", ["popcorn", "weighted"])
    def test_sharded_chunked(self, name):
        x, _ = make_blobs(48, 3, 3, rng=1)
        base = make_estimator(name, n_clusters=3, seed=0, backend="host").fit(x)
        est = make_estimator(name, n_clusters=3, seed=0, backend="sharded:3", **CHUNK_KW).fit(x)
        np.testing.assert_array_equal(est.labels_, base.labels_)

    def test_auto_backend_resolves_to_host_when_chunked(self):
        x, _ = make_blobs(30, 3, 2, rng=2)
        est = make_estimator("popcorn", n_clusters=2, seed=0, **CHUNK_KW).fit(x)
        assert est.backend_ == "host"

    def test_device_backend_rejects_chunk_params(self):
        x, _ = make_blobs(30, 3, 2, rng=2)
        est = make_estimator("popcorn", n_clusters=2, seed=0, backend="device", **CHUNK_KW)
        with pytest.raises(ConfigError):
            est.fit(x)


class TestPredictChunked:
    def test_predict_matches_unchunked(self, rng):
        x, _ = make_blobs(40, 4, 3, rng=3)
        est = make_estimator("popcorn", n_clusters=3, seed=0, backend="host").fit(x)
        q = rng.standard_normal((17, 4))
        want = est.predict(q)
        for kw in (
            {"chunk_rows": 5, "chunk_cols": 2, "n_threads": 2},
            {"chunk_rows": 1, "chunk_cols": 1},
            {"chunk_rows": 6},
        ):
            np.testing.assert_array_equal(est.predict(q, **kw), want)

    def test_predict_batch_matches(self, rng):
        x, _ = make_blobs(40, 4, 3, rng=4)
        est = make_estimator("popcorn", n_clusters=3, seed=0, backend="host").fit(x)
        batches = [rng.standard_normal((9, 4)) for _ in range(3)]
        want = est.predict_batch(batches)
        got = est.predict_batch(batches, chunk_rows=4, chunk_cols=1, n_threads=2)
        np.testing.assert_array_equal(got, want)
