"""Failure-injection tests: resource exhaustion and corrupted inputs.

A production library must fail loudly and consistently, not mid-run with
a corrupted allocator.  These tests drive the estimators into device OOM,
capacity pre-checks, and malformed numerical inputs.
"""

import numpy as np
import pytest

from repro import PopcornKernelKMeans, available_estimators, make_estimator
from repro.baselines import BaselineCUDAKernelKMeans
from repro.data import make_blobs
from repro.errors import AllocationError, ConfigError, ShapeError
from repro.gpu import Device, DeviceSpec

TINY = DeviceSpec("tiny-gpu", peak_fp32_gflops=19500, mem_bw_gbps=1935, mem_capacity_gb=1e-4)

#: the estimators whose fit accepts a precomputed kernel_matrix
KERNEL_MATRIX_ESTIMATORS = ("baseline", "distributed", "popcorn", "prmlt", "weighted")


class TestCapacityPrecheck:
    def test_oversized_problem_raises_with_guidance(self):
        """n^2 kernel matrix beyond capacity -> actionable error up front."""
        x, _ = make_blobs(300, 4, 3, rng=0)  # K = 360 KB > 100 KB capacity
        with pytest.raises(AllocationError, match="Distributed"):
            PopcornKernelKMeans(3, device=TINY, seed=0).fit(x)

    def test_error_mentions_sizes(self):
        x, _ = make_blobs(300, 4, 3, rng=0)
        with pytest.raises(AllocationError, match="GB"):
            PopcornKernelKMeans(3, device=TINY).fit(x)

    def test_fitting_within_capacity_succeeds(self):
        spec = DeviceSpec("small-gpu", peak_fp32_gflops=19500, mem_bw_gbps=1935,
                          mem_capacity_gb=0.01)
        x, _ = make_blobs(100, 4, 3, rng=0)  # K = 40 KB << 10 MB
        m = PopcornKernelKMeans(3, device=spec, seed=0, max_iter=3).fit(x)
        assert m.labels_.shape == (100,)

    def test_allocator_clean_after_precheck_failure(self):
        dev = Device(TINY)
        x, _ = make_blobs(300, 4, 3, rng=0)
        with pytest.raises(AllocationError):
            PopcornKernelKMeans(3, device=dev).fit(x)
        assert dev.allocated_bytes == 0

    def test_baseline_oom_mid_run(self):
        """The baseline has no pre-check; it must still fail cleanly."""
        dev = Device(TINY)
        x, _ = make_blobs(300, 4, 3, rng=0)
        with pytest.raises(AllocationError):
            BaselineCUDAKernelKMeans(3, device=dev, seed=0).fit(x)


class TestMalformedInputs:
    def test_nan_input_produces_nan_free_error_or_labels(self):
        """NaNs must not crash the pipeline with an obscure error."""
        x = np.full((20, 3), np.nan, dtype=np.float32)
        with pytest.raises(ConfigError, match="NaN or inf"):
            PopcornKernelKMeans(2, seed=0, max_iter=3, check_convergence=False).fit(x)

    def test_zero_variance_data(self):
        x = np.ones((30, 4), dtype=np.float32)
        m = PopcornKernelKMeans(3, seed=0, max_iter=5).fit(x)
        # all points identical: every assignment is optimal, objective 0
        assert m.objective_ == pytest.approx(0.0, abs=1e-4)

    def test_single_point_per_cluster(self):
        x = np.arange(12, dtype=np.float32).reshape(4, 3) * 10
        m = PopcornKernelKMeans(4, seed=0, max_iter=5).fit(x)
        assert sorted(np.bincount(m.labels_, minlength=4)) == [1, 1, 1, 1]

    def test_k_equals_one(self):
        x, _ = make_blobs(50, 3, 2, rng=1)
        m = PopcornKernelKMeans(1, seed=0, max_iter=5).fit(x)
        assert np.all(m.labels_ == 0)

    def test_3d_input_rejected(self):
        with pytest.raises(ShapeError):
            PopcornKernelKMeans(2).fit(np.zeros((4, 3, 2), dtype=np.float32))

    def test_empty_input_rejected(self):
        with pytest.raises(Exception):
            PopcornKernelKMeans(2).fit(np.zeros((0, 3), dtype=np.float32))


def _points_with(bad: float) -> np.ndarray:
    x, _ = make_blobs(60, 4, 3, rng=0)
    x = np.array(x, dtype=np.float64)
    x[7, 2] = bad
    return x


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", sorted(available_estimators()))
def test_fit_rejects_non_finite_x(name, bad):
    """One NaN or inf entry fails the fit with a typed error, never labels."""
    est = make_estimator(name, n_clusters=3, seed=0)
    with pytest.raises(ConfigError, match="NaN or inf"):
        est.fit(_points_with(bad))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", KERNEL_MATRIX_ESTIMATORS)
def test_fit_rejects_non_finite_kernel_matrix(name, bad):
    x = _points_with(0.0)
    km = x @ x.T
    km[7, 2] = km[2, 7] = bad
    est = make_estimator(name, n_clusters=3, seed=0)
    with pytest.raises(ConfigError, match="NaN or inf"):
        est.fit(kernel_matrix=km)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", available_estimators(tag="supports_partial_fit"))
def test_partial_fit_rejects_non_finite_x(name, bad):
    est = make_estimator(name, n_clusters=3, seed=0, batch_size=20)
    with pytest.raises(ConfigError, match="NaN or inf"):
        est.partial_fit(_points_with(bad))


#: (estimator, entry point) for every estimator that takes sample_weight;
#: "warm" is a partial_fit after a clean first call
WEIGHTED_CALLS = [
    (name, call)
    for name in sorted(available_estimators(tag="supports_sample_weight"))
    for call in ("fit", "partial_fit", "warm")
    if call == "fit" or name in available_estimators(tag="supports_partial_fit")
]


def _call_with_weights(name, call, w):
    est = make_estimator(name, n_clusters=3, seed=0)
    x = _points_with(0.0)
    if call == "fit":
        return est.fit(x, sample_weight=w)
    if call == "warm":
        est.partial_fit(x)
    return est.partial_fit(x, sample_weight=w)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name, call", WEIGHTED_CALLS)
def test_rejects_non_finite_sample_weight(name, call, bad):
    """A NaN or inf weight used to put every point in cluster 0."""
    w = np.ones(60)
    w[7] = bad
    with pytest.raises(ConfigError, match="NaN or inf"):
        _call_with_weights(name, call, w)


@pytest.mark.parametrize("name, call", WEIGHTED_CALLS)
def test_rejects_negative_sample_weight(name, call):
    w = np.ones(60)
    w[7] = -1.0
    with pytest.raises(ConfigError, match="non-negative"):
        _call_with_weights(name, call, w)
