"""Sharded serving: predict_batch(devices=...) and the PredictionService."""

import numpy as np
import pytest

from repro import PopcornKernelKMeans
from repro.baselines import LloydKMeans
from repro.data import make_blobs
from repro.errors import ConfigError
from repro.gpu.profiler import Profiler
from repro.serve import PredictionService


@pytest.fixture
def fitted():
    x, _ = make_blobs(70, 5, 3, rng=2)
    q, _ = make_blobs(41, 5, 3, rng=9)
    est = PopcornKernelKMeans(3, dtype=np.float64, seed=0).fit(np.asarray(x, np.float64))
    return est, np.asarray(q, np.float64)


class TestPredictBatchSharding:
    def test_bit_identical_for_any_device_count(self, fitted):
        est, q = fitted
        ref = est.predict_batch([q, q[:7]])
        for g in (1, 2, 4, 8, 64):
            assert np.array_equal(ref, est.predict_batch([q, q[:7]], devices=g)), g

    def test_centers_estimators_shard_too(self):
        x, _ = make_blobs(50, 4, 3, rng=1)
        est = LloydKMeans(3, seed=0).fit(x)
        ref = est.predict_batch([x])
        assert np.array_equal(ref, est.predict_batch([x], devices=4))

    def test_profiler_records_shards_and_allgather(self, fitted):
        est, q = fitted
        prof = Profiler()
        est.predict_batch([q], devices=4, profiler=prof)
        assert prof.count_of("serve.shard_predict") == 4
        assert prof.count_of("comm.allgather") == 1
        rows = [la.meta["rows"] for la in prof.launches_of("serve.shard_predict")]
        assert sum(rows) == q.shape[0]

    def test_empty_batches(self, fitted):
        est, _ = fitted
        assert est.predict_batch([], devices=2).shape == (0,)

    def test_devices_validated(self, fitted):
        est, q = fitted
        with pytest.raises(ConfigError, match="devices"):
            est.predict_batch([q], devices=0)


class TestServiceSharding:
    def test_service_devices_bit_identical(self, fitted):
        est, q = fitted
        with PredictionService(est, devices=3, batch_size=8, cache_size=0) as svc:
            sharded = svc.predict_many(q)
        with PredictionService(est, batch_size=8, cache_size=0) as svc:
            plain = svc.predict_many(q)
        assert np.array_equal(sharded, plain)

    def test_service_profiler_sees_shard_launches(self, fitted):
        est, q = fitted
        with PredictionService(
            est, devices=2, batch_size=q.shape[0], cache_size=0
        ) as svc:
            svc.predict_many(q)
        assert svc.profiler_.count_of("serve.shard_predict") >= 2

    def test_service_validates_devices(self, fitted):
        est, _ = fitted
        with pytest.raises(ConfigError, match="devices"):
            PredictionService(est, devices=0)
