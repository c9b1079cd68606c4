"""Tests for the pluggable execution backends (repro.engine.backends)."""

import numpy as np
import pytest

from repro import (
    BaselineCUDAKernelKMeans,
    PopcornKernelKMeans,
    WeightedPopcornKernelKMeans,
)
from repro.baselines import random_labels
from repro.engine import (
    DeviceBackend,
    HostBackend,
    available_backends,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.errors import AllocationError, ConfigError
from repro.gpu import A100_80GB, Device, DeviceSpec
from repro.kernels import GaussianKernel, PolynomialKernel, kernel_matrix

TINY = DeviceSpec("tiny-gpu", peak_fp32_gflops=19500, mem_bw_gbps=1935,
                  mem_capacity_gb=1e-4)  # 100 KB


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert "host" in available_backends()
        assert "device" in available_backends()

    def test_lookup_returns_singletons(self):
        assert isinstance(get_backend("host"), HostBackend)
        assert isinstance(get_backend("device"), DeviceBackend)

    def test_unknown_backend_raises(self):
        with pytest.raises(ConfigError, match="unknown backend"):
            get_backend("tpu")

    def test_register_requires_name(self):
        class Nameless(HostBackend):
            name = ""

        with pytest.raises(ConfigError):
            register_backend(Nameless())

    def test_estimator_rejects_unknown_backend(self):
        with pytest.raises(ConfigError, match="backend"):
            PopcornKernelKMeans(2, backend="tpu")

    def test_custom_registered_backend_is_usable(self, blobs):
        """register_backend is a real extension point, not decoration."""

        class TracingHostBackend(HostBackend):
            name = "tracing-host"
            steps = 0

            def popcorn_step(self, state, labels, weights=None):
                TracingHostBackend.steps += 1
                return super().popcorn_step(state, labels, weights)

        register_backend(TracingHostBackend())
        try:
            x, _, k = blobs
            m = PopcornKernelKMeans(k, seed=0, backend="tracing-host", max_iter=6).fit(x)
            ref = PopcornKernelKMeans(k, seed=0, backend="host", max_iter=6).fit(x)
            assert m.backend_ == "tracing-host"
            assert TracingHostBackend.steps == m.n_iter_
            assert np.array_equal(m.labels_, ref.labels_)
        finally:
            unregister_backend("tracing-host")
        assert "tracing-host" not in available_backends()


class TestCrossBackendEquivalence:
    """backend='host' and backend='device' run identical numerics."""

    def test_popcorn_labels_identical(self, blobs):
        x, _, k = blobs
        dev = PopcornKernelKMeans(k, seed=0, backend="device", max_iter=15).fit(x)
        host = PopcornKernelKMeans(k, seed=0, backend="host", max_iter=15).fit(x)
        assert np.array_equal(dev.labels_, host.labels_)
        assert host.objective_ == pytest.approx(dev.objective_)
        assert dev.backend_ == "device" and host.backend_ == "host"

    def test_popcorn_objective_history_identical(self, circles):
        x, _, k = circles
        kw = dict(kernel=GaussianKernel(gamma=5.0), seed=3, max_iter=10,
                  check_convergence=False, dtype=np.float64)
        dev = PopcornKernelKMeans(k, backend="device", **kw).fit(x)
        host = PopcornKernelKMeans(k, backend="host", **kw).fit(x)
        assert dev.objective_history_ == host.objective_history_

    def test_popcorn_syrk_path(self, blobs, rng):
        x, _, k = blobs
        init = random_labels(x.shape[0], k, rng)
        dev = PopcornKernelKMeans(k, gram_method="syrk", backend="device").fit(
            x, init_labels=init
        )
        host = PopcornKernelKMeans(k, gram_method="syrk", backend="host").fit(
            x, init_labels=init
        )
        assert host.gram_method_ == "syrk"
        assert np.array_equal(dev.labels_, host.labels_)

    def test_popcorn_precomputed(self, rng):
        n, k = 35, 3
        x = rng.standard_normal((n, 4))
        km = kernel_matrix(x, PolynomialKernel())
        init = random_labels(n, k, rng)
        dev = PopcornKernelKMeans(k, dtype=np.float64, backend="device").fit(
            kernel_matrix=km, init_labels=init
        )
        host = PopcornKernelKMeans(k, dtype=np.float64, backend="host").fit(
            kernel_matrix=km, init_labels=init
        )
        assert np.array_equal(dev.labels_, host.labels_)

    def test_popcorn_tiled_host_matches_tiled_device(self, blobs):
        x, _, k = blobs
        dev = PopcornKernelKMeans(k, seed=2, chunk_rows=17, backend="device").fit(x)
        host = PopcornKernelKMeans(k, seed=2, chunk_rows=17, backend="host").fit(x)
        assert np.array_equal(dev.labels_, host.labels_)

    def test_tiled_gram_policy_identical_across_backends(self, blobs):
        """Tiled mode forces GEMM and rejects syrk on every backend."""
        x, _, k = blobs
        for backend in ("host", "device"):
            m = PopcornKernelKMeans(k, seed=0, chunk_rows=16, backend=backend).fit(x)
            assert m.gram_method_ == "gemm", backend
            with pytest.raises(ConfigError, match="syrk"):
                PopcornKernelKMeans(k, gram_method="syrk", chunk_rows=16, backend=backend).fit(x)

    def test_baseline_labels_identical(self, blobs):
        x, _, k = blobs
        dev = BaselineCUDAKernelKMeans(k, seed=0, backend="device", max_iter=15).fit(x)
        host = BaselineCUDAKernelKMeans(k, seed=0, backend="host", max_iter=15).fit(x)
        assert np.array_equal(dev.labels_, host.labels_)

    def test_weighted_labels_identical(self, rng):
        n, k = 40, 3
        x = rng.standard_normal((n, 4))
        km = kernel_matrix(x, PolynomialKernel())
        w = rng.uniform(0.2, 4.0, n)
        init = random_labels(n, k, rng)
        host = WeightedPopcornKernelKMeans(k, backend="host").fit(
            kernel_matrix=km, sample_weight=w, init_labels=init
        )
        dev = WeightedPopcornKernelKMeans(k, backend="device").fit(
            kernel_matrix=km, sample_weight=w, init_labels=init
        )
        assert np.array_equal(host.labels_, dev.labels_)
        assert dev.objective_ == pytest.approx(host.objective_)
        # the device run exposes the modeled weighted pipeline
        assert dev.device_.profiler.count_of("cusparse.spmm") == dev.n_iter_

    def test_host_backend_has_no_device(self, blobs):
        x, _, k = blobs
        m = PopcornKernelKMeans(k, seed=0, backend="host").fit(x)
        assert m.device_ is None
        assert m.profiler_.launches  # wall-clock host launches recorded
        assert set(m.timings_) >= {"kernel_matrix", "distances", "argmin_update"}

    def test_host_backend_rejects_device_argument(self, blobs):
        x, _, k = blobs
        with pytest.raises(ConfigError, match="device"):
            PopcornKernelKMeans(k, backend="host", device=Device(A100_80GB)).fit(x)


class TestOverCapacityTiling:
    """The acceptance scenario: tiling fits where the seed code raised."""

    def test_untiled_raises_tiled_fits(self):
        n, k = 300, 3
        rng = np.random.default_rng(0)
        x = rng.standard_normal((n, 4)).astype(np.float32)  # K = 360 KB > 100 KB
        with pytest.raises(AllocationError, match="GB"):
            PopcornKernelKMeans(k, device=TINY, seed=0).fit(x)
        tiled = PopcornKernelKMeans(k, device=TINY, seed=0, chunk_rows=16).fit(x)
        assert tiled.labels_.shape == (n,)
        # identical result to an unconstrained run
        big = PopcornKernelKMeans(k, seed=0).fit(x)
        assert np.array_equal(tiled.labels_, big.labels_)

    def test_tiled_precomputed_over_capacity(self, rng):
        n, k = 280, 4
        km = kernel_matrix(rng.standard_normal((n, 3)), PolynomialKernel()).astype(
            np.float32
        )
        init = random_labels(n, k, rng)
        with pytest.raises(AllocationError):
            PopcornKernelKMeans(k, device=TINY).fit(kernel_matrix=km, init_labels=init)
        tiled = PopcornKernelKMeans(k, device=TINY, chunk_rows=24).fit(
            kernel_matrix=km, init_labels=init
        )
        host = PopcornKernelKMeans(k, backend="host").fit(
            kernel_matrix=km, init_labels=init
        )
        assert np.array_equal(tiled.labels_, host.labels_)

    def test_oversized_tile_still_raises_with_guidance(self):
        n = 300
        x = np.random.default_rng(1).standard_normal((n, 4)).astype(np.float32)
        with pytest.raises(AllocationError, match="chunk_rows"):
            PopcornKernelKMeans(3, device=TINY, chunk_rows=200).fit(x)

    def test_allocator_clean_after_tiled_fit(self):
        dev = Device(TINY)
        x = np.random.default_rng(2).standard_normal((250, 4)).astype(np.float32)
        PopcornKernelKMeans(3, device=dev, seed=0, chunk_rows=16, max_iter=4).fit(x)
        assert dev.allocated_bytes == 0


class TestProfilerSnapshot:
    """timings_ reflects one fit even on a shared, accumulating device."""

    def test_refit_on_shared_device_does_not_merge_timings(self, blobs):
        x, _, k = blobs
        dev = Device(A100_80GB)
        kw = dict(device=dev, max_iter=3, check_convergence=False)
        m1 = PopcornKernelKMeans(k, seed=0, **kw).fit(x)
        t1 = dict(m1.timings_)
        m2 = PopcornKernelKMeans(k, seed=1, **kw).fit(x)
        # the device profiler accumulates ...
        assert dev.profiler.count_of("cusparse.spmm") == 6
        # ... but each fit reports only its own launches
        for phase in ("kernel_matrix", "distances", "argmin_update"):
            assert m2.timings_[phase] == pytest.approx(t1[phase]), phase

    def test_two_estimators_sharing_one_device(self, blobs):
        x, _, k = blobs
        dev = Device(A100_80GB)
        pop = PopcornKernelKMeans(
            k, device=dev, seed=0, max_iter=3, check_convergence=False
        ).fit(x)
        base = BaselineCUDAKernelKMeans(
            k, device=dev, seed=0, max_iter=3, check_convergence=False
        ).fit(x)
        # the baseline's snapshot must not contain popcorn's SpMM time
        solo = BaselineCUDAKernelKMeans(
            k, seed=0, max_iter=3, check_convergence=False
        ).fit(x)
        for phase in ("kernel_matrix", "distances", "argmin_update"):
            assert base.timings_[phase] == pytest.approx(solo.timings_[phase]), phase
        assert sum(pop.timings_.values()) < dev.elapsed_s()
