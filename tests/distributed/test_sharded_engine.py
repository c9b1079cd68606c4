"""The sharded multi-device backend: bit-exactness, registry, profile.

The acceptance contract of the sharded engine: ``backend="sharded:<g>"``
produces bit-identical labels to ``backend="host"`` for every estimator
in the family, for any device count — sharding moves modeled work across
simulated devices, never numerics.
"""

import numpy as np
import pytest

from repro import (
    BaselineCUDAKernelKMeans,
    DistributedPopcornKernelKMeans,
    NystromKernelKMeans,
    PopcornKernelKMeans,
    SpectralKernelKMeans,
    WeightedPopcornKernelKMeans,
)
from repro.baselines import ElkanKMeans, LloydKMeans, PRMLTKernelKMeans, random_labels
from repro.core import OnTheFlyKernelKMeans
from repro.data import make_blobs, make_moons
from repro.engine import ShardedBackend, available_backends, get_backend
from repro.errors import AllocationError, ConfigError
from repro.kernels import PolynomialKernel, kernel_matrix

GS = (1, 2, 4, 8)


def _points(n=48, d=5, seed=3):
    x, _ = make_blobs(n, d, 3, rng=seed)
    return np.asarray(x, dtype=np.float64)


# ----------------------------------------------------------------------
# the ten-estimator bit-exactness property
# ----------------------------------------------------------------------

def _fit_points(cls, backend, x, **kw):
    return cls(3, backend=backend, seed=0, **kw).fit(x)


def _fit_points_f64(cls, backend, x, **kw):
    return cls(3, backend=backend, seed=0, dtype=np.float64, max_iter=8, **kw).fit(x)


#: estimator name -> fit callable (backend, x) -> fitted estimator;
#: every entry must produce identical labels on host and sharded:<g>
FAMILY = {
    "popcorn": lambda backend, x: _fit_points_f64(PopcornKernelKMeans, backend, x),
    "baseline_cuda": lambda backend, x: _fit_points_f64(
        BaselineCUDAKernelKMeans, backend, x
    ),
    "weighted": lambda backend, x: WeightedPopcornKernelKMeans(
        3, backend=backend, seed=0
    ).fit(
        kernel_matrix=kernel_matrix(x, PolynomialKernel()),
        sample_weight=np.linspace(0.5, 2.0, x.shape[0]),
    ),
    "distributed": lambda backend, x: DistributedPopcornKernelKMeans(
        3, backend=backend, n_devices=3, dtype=np.float64, max_iter=8, seed=0
    ).fit(x),
    "spectral": lambda backend, x: SpectralKernelKMeans(2, backend=backend, seed=0).fit(
        make_moons(60, rng=5)[0]
    ),
    "nystrom": lambda backend, x: NystromKernelKMeans(
        3, n_landmarks=20, backend=backend, seed=0
    ).fit(x),
    "onthefly": lambda backend, x: OnTheFlyKernelKMeans(
        3, block_rows=16, backend=backend, seed=0, max_iter=8
    ).fit(x),
    "prmlt": lambda backend, x: PRMLTKernelKMeans(
        3, backend=backend, seed=0, max_iter=8
    ).fit(x),
    "lloyd": lambda backend, x: LloydKMeans(3, backend=backend, seed=0).fit(x),
    "elkan": lambda backend, x: ElkanKMeans(3, backend=backend, seed=0).fit(x),
}


class TestFamilyBitExactness:
    @pytest.mark.parametrize("name", sorted(FAMILY))
    def test_sharded_matches_host_for_all_g(self, name):
        """backend='sharded:<g>' == backend='host', bit for bit, g in GS."""
        x = _points()
        fit = FAMILY[name]
        host = fit("host", x)
        for g in GS:
            sharded = fit(f"sharded:{g}", x)
            assert np.array_equal(host.labels_, sharded.labels_), (name, g)

    @pytest.mark.parametrize("name", sorted(FAMILY))
    def test_shard_count_invariance(self, name):
        """Labels are invariant in the shard count itself."""
        x = _points()
        fit = FAMILY[name]
        results = [fit(f"sharded:{g}", x).labels_ for g in GS]
        for other in results[1:]:
            assert np.array_equal(results[0], other), name

    def test_objective_history_matches_host(self):
        x = _points()
        host = FAMILY["popcorn"]("host", x)
        sharded = FAMILY["popcorn"]("sharded:4", x)
        assert host.objective_history_ == sharded.objective_history_


class TestEngineIntegration:
    def test_tiled_sharded_still_bit_exact(self):
        """chunk_rows composes with sharding (both are row decompositions)."""
        x = _points(60)
        init = random_labels(60, 4, np.random.default_rng(0))
        host = PopcornKernelKMeans(4, backend="host", dtype=np.float64, max_iter=6).fit(
            x, init_labels=init
        )
        sharded = PopcornKernelKMeans(
            4, backend="sharded:3", chunk_rows=7, dtype=np.float64, max_iter=6
        ).fit(x, init_labels=init)
        assert np.array_equal(host.labels_, sharded.labels_)

    def test_precomputed_kernel_matrix_path(self):
        km = kernel_matrix(_points(40), PolynomialKernel())
        k = 3
        host = PopcornKernelKMeans(k, backend="host", dtype=np.float64, seed=0).fit(
            kernel_matrix=km
        )
        sharded = PopcornKernelKMeans(k, backend="sharded:4", dtype=np.float64, seed=0).fit(
            kernel_matrix=km
        )
        assert np.array_equal(host.labels_, sharded.labels_)

    def test_syrk_rejected(self):
        with pytest.raises(ConfigError, match="syrk"):
            PopcornKernelKMeans(3, backend="sharded:2", gram_method="syrk").fit(_points())

    def test_more_devices_than_rows_rejected(self):
        with pytest.raises(ConfigError, match="devices"):
            PopcornKernelKMeans(2, backend="sharded:64", dtype=np.float64).fit(
                _points(10, 3)
            )

    def test_per_device_capacity_check(self):
        """A K block too large for one device fails fast, pointing at g."""
        x = np.zeros((200000, 2), dtype=np.float32)
        with pytest.raises(AllocationError, match="sharded:<g>"):
            PopcornKernelKMeans(10, backend="sharded:1").fit(x)


class TestShardProfile:
    def test_fitted_attributes(self):
        est = PopcornKernelKMeans(
            3, backend="sharded:4", dtype=np.float64, max_iter=5, check_convergence=False
        ).fit(_points())
        assert est.backend_ == "sharded:4"
        assert est.n_devices_ == 4
        assert len(est.device_profilers_) == 4
        assert est.makespan_s_ > 0
        assert 0 < est.parallel_efficiency_ <= 1.0
        # one centroid-norm allreduce per iteration, one label allgather
        # per iteration plus the initial point replication
        assert est.comm_profiler_.count_of("comm.allreduce") == est.n_iter_
        assert est.comm_profiler_.count_of("comm.allgather") == est.n_iter_ + 1
        # timings_ aggregates device-seconds plus the comm phase
        assert est.timings_["distances"] > 0
        assert est.timings_["comm"] == pytest.approx(est.comm_profiler_.total_time())

    def test_makespan_is_max_device_plus_comm(self):
        est = PopcornKernelKMeans(
            3, backend="sharded:3", dtype=np.float64, max_iter=4, check_convergence=False
        ).fit(_points())
        expected = max(p.total_time() for p in est.device_profilers_)
        expected += est.comm_profiler_.total_time()
        assert est.makespan_s_ == pytest.approx(expected)

    def test_balanced_blocks_get_balanced_work(self):
        est = PopcornKernelKMeans(
            3, backend="sharded:4", dtype=np.float64, max_iter=4, check_convergence=False
        ).fit(_points(80))
        totals = [p.total_time() for p in est.device_profilers_]
        assert max(totals) <= min(totals) * 1.2  # even split, even clocks

    def test_standalone_estimators_expose_profile(self):
        x = _points()
        for name in ("lloyd", "elkan", "onthefly", "prmlt", "nystrom"):
            est = FAMILY[name]("sharded:3", x)
            assert est.n_devices_ == 3, name
            assert len(est.device_profilers_) == 3, name
            assert est.makespan_s_ > 0, name
            assert 0 < est.parallel_efficiency_ <= 1.0, name
            assert est.backend_ == "sharded:3", name


class TestBackendRegistry:
    def test_sharded_registered(self):
        assert "sharded" in available_backends()
        be = get_backend("sharded")
        assert isinstance(be, ShardedBackend)

    def test_parametric_lookup_caches(self):
        be1 = get_backend("sharded:6")
        be2 = get_backend("sharded:6")
        assert be1 is be2
        assert be1.n_devices == 6
        assert be1.name == "sharded:6"

    def test_bad_parameter(self):
        with pytest.raises(ConfigError, match="device count"):
            get_backend("sharded:banana")
        with pytest.raises(ConfigError, match=">= 1"):
            get_backend("sharded:0")

    def test_unknown_parametric_base(self):
        with pytest.raises(ConfigError, match="unknown backend"):
            get_backend("host:4")

    def test_parametric_lookups_do_not_pollute_registry(self):
        """Configured variants are cached aside, not registered: a sweep
        over device counts leaves available_backends() untouched."""
        before = available_backends()
        for g in (11, 13, 17):
            get_backend(f"sharded:{g}")
        assert available_backends() == before

    def test_device_backend_still_rejected_where_restricted(self):
        with pytest.raises(ConfigError, match="backend"):
            DistributedPopcornKernelKMeans(2, backend="device")
        with pytest.raises(ConfigError, match="backend"):
            NystromKernelKMeans(2, backend="device")

    def test_backend_instance_accepted(self):
        """A configured Backend instance bypasses the name registry."""
        x = _points()
        from repro.distributed import INFINIBAND

        be = ShardedBackend(3, comm=INFINIBAND)
        est = PopcornKernelKMeans(
            3, backend=be, dtype=np.float64, max_iter=5, seed=0
        ).fit(x)
        host = PopcornKernelKMeans(
            3, backend="host", dtype=np.float64, max_iter=5, seed=0
        ).fit(x)
        assert np.array_equal(est.labels_, host.labels_)
        nvlink = PopcornKernelKMeans(
            3, backend="sharded:3", dtype=np.float64, max_iter=5, seed=0
        ).fit(x)
        # same collectives, different wire: the modeled comm clock moved
        # (tiny payloads are latency-bound, where IB's 1.5us beats
        # NVLink's 3us per message)
        assert est.comm_profiler_.count_of("comm.allreduce") == nvlink.comm_profiler_.count_of(
            "comm.allreduce"
        )
        assert est.comm_profiler_.total_time() != nvlink.comm_profiler_.total_time()


class TestDistributedWrapper:
    def test_wrapper_uses_configured_devices(self, rng):
        x = rng.standard_normal((40, 4)).astype(np.float32)
        m = DistributedPopcornKernelKMeans(3, n_devices=2, max_iter=4, seed=0).fit(x)
        assert m.backend_ == "sharded:2"
        assert len(m.device_profilers_) == 2

    def test_wrapper_host_backend_runs_single_device(self, rng):
        x = rng.standard_normal((30, 4)).astype(np.float64)
        m = DistributedPopcornKernelKMeans(
            3, n_devices=4, backend="host", max_iter=4, seed=0
        ).fit(x)
        assert m.backend_ == "host"

    def test_wrapper_custom_interconnect(self, rng):
        from repro.distributed import INFINIBAND

        x = rng.standard_normal((40, 4)).astype(np.float64)
        ib = DistributedPopcornKernelKMeans(
            3, n_devices=4, comm=INFINIBAND, max_iter=4, seed=0
        ).fit(x)
        nv = DistributedPopcornKernelKMeans(3, n_devices=4, max_iter=4, seed=0).fit(x)
        assert np.array_equal(ib.labels_, nv.labels_)
        # the wire is wired through: the modeled comm clock differs
        assert ib.comm_profiler_.total_time() != nv.comm_profiler_.total_time()

    def test_wrapper_explicit_sharded_g_keeps_spec_and_comm(self, rng):
        """backend='sharded:<g>' overrides the device count but must not
        silently swap the configured interconnect for the registry default."""
        from repro.distributed import INFINIBAND

        x = rng.standard_normal((40, 4)).astype(np.float64)
        ib = DistributedPopcornKernelKMeans(
            3, n_devices=2, comm=INFINIBAND, backend="sharded:8", max_iter=4, seed=0
        ).fit(x)
        nv = DistributedPopcornKernelKMeans(
            3, n_devices=2, backend="sharded:8", max_iter=4, seed=0
        ).fit(x)
        assert ib.n_devices_ == nv.n_devices_ == 8
        assert ib.comm_profiler_.total_time() != nv.comm_profiler_.total_time()


class TestFailFast:
    def test_standalone_estimators_reject_g_gt_n_before_fitting(self):
        """g > n fails before any fit work, leaving the estimator unfitted."""
        x = _points(10, 3)
        for name in ("lloyd", "elkan", "onthefly", "prmlt", "nystrom"):
            with pytest.raises(ConfigError, match="more devices"):
                FAMILY[name]("sharded:64", x)
            # nothing half-fitted survives the failure
            fresh = {
                "lloyd": LloydKMeans(3, backend="sharded:64"),
                "elkan": ElkanKMeans(3, backend="sharded:64"),
            }.get(name)
            if fresh is not None:
                with pytest.raises(ConfigError):
                    fresh.fit(x)
                assert not hasattr(fresh, "labels_"), name

    def test_nystrom_accepts_backend_instance(self):
        x = _points()
        est = NystromKernelKMeans(
            3, n_landmarks=20, backend=ShardedBackend(2), seed=0
        ).fit(x)
        host = NystromKernelKMeans(3, n_landmarks=20, backend="host", seed=0).fit(x)
        assert np.array_equal(est.labels_, host.labels_)
        assert est.n_devices_ == 2
