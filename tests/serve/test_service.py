"""PredictionService: micro-batching, LRU cache, workers, stats."""

import sys
import threading

import numpy as np
import pytest

from repro import LloydKMeans, PopcornKernelKMeans
from repro.data import make_blobs
from repro.errors import ConfigError, Overloaded
from repro.serve import PredictionService


@pytest.fixture(scope="module")
def fitted():
    x = make_blobs(80, 4, 3, rng=5)[0].astype(np.float64)
    model = PopcornKernelKMeans(
        3, dtype=np.float64, backend="host", max_iter=6, seed=0
    ).fit(x)
    q = np.random.default_rng(9).standard_normal((41, 4))
    return model, q


class TestCorrectness:
    def test_served_labels_match_direct_predict(self, fitted):
        model, q = fitted
        expected = model.predict(q)
        with PredictionService(model, batch_size=8) as svc:
            assert np.array_equal(svc.predict_many(q), expected)

    def test_single_predict_and_submit(self, fitted):
        model, q = fitted
        expected = model.predict(q)
        with PredictionService(model, batch_size=4) as svc:
            assert svc.predict(q[0]) == expected[0]
            fut = svc.submit(q[1])
            assert fut.result() == expected[1]

    def test_multiple_workers_match(self, fitted):
        model, q = fitted
        expected = model.predict(q)
        with PredictionService(model, batch_size=4, n_workers=4) as svc:
            assert np.array_equal(svc.predict_many(q), expected)

    def test_concurrent_clients(self, fitted, lockdep):
        model, q = fitted
        expected = model.predict(q)
        results = {}
        with PredictionService(model, batch_size=8, n_workers=2) as svc:
            def client(tag):
                results[tag] = svc.predict_many(q)

            threads = [threading.Thread(target=client, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        for got in results.values():
            assert np.array_equal(got, expected)

    def test_free_workers_race_for_rows_without_losing_one(self, fitted, lockdep):
        """More workers than cores, each taking what is queued the moment
        it is free, with a tiny switch interval: every row is answered
        once and the books balance."""
        model, q = fitted
        rows = np.random.default_rng(4).standard_normal((600, q.shape[1]))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with PredictionService(model, batch_size=8, n_workers=6, cache_size=0) as svc:
                got = {}

                def client(tag):
                    got[tag] = svc.predict_many(rows[tag::3], timeout=30)

                threads = [threading.Thread(target=client, args=(i,)) for i in range(3)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                stats = svc.stats()
        finally:
            sys.setswitchinterval(interval)
        for tag in range(3):
            assert np.array_equal(got[tag], model.predict(rows[tag::3]))
        assert stats["served"] == stats["requests"] == rows.shape[0]
        assert stats["backend_rows"] + stats["coalesced"] == rows.shape[0]

    def test_chunk_rows_forwarded(self, fitted):
        model, q = fitted
        expected = model.predict(q)
        with PredictionService(model, batch_size=64, chunk_rows=5) as svc:
            assert np.array_equal(svc.predict_many(q), expected)

    def test_lloyd_model_served(self):
        x = make_blobs(60, 3, 3, rng=1)[0]
        model = LloydKMeans(3, seed=0).fit(x)
        q = np.random.default_rng(2).standard_normal((11, 3))
        with PredictionService(model, batch_size=4) as svc:
            assert np.array_equal(svc.predict_many(q), model.predict(q))


class TestBatchingAndCache:
    def test_batches_fuse_requests(self, fitted):
        model, q = fitted
        with PredictionService(_SlowModel(model, 0.01), batch_size=64) as svc:
            svc.predict_many(q)
            st = svc.stats()
        # the queries queued behind a busy worker: few batches
        assert st["batches"] < q.shape[0]
        assert st["mean_batch_size"] > 1.0

    def test_cache_hits_on_repeat(self, fitted):
        model, q = fitted
        with PredictionService(model, batch_size=16, cache_size=256) as svc:
            first = svc.predict_many(q)
            second = svc.predict_many(q)
            st = svc.stats()
        assert np.array_equal(first, second)
        assert st["cache_hits"] == q.shape[0]
        assert st["cache_hit_rate"] == pytest.approx(0.5)

    def test_cache_disabled(self, fitted):
        model, q = fitted
        with PredictionService(model, batch_size=16, cache_size=0) as svc:
            svc.predict_many(q)
            svc.predict_many(q)
            assert svc.stats()["cache_hits"] == 0

    def test_cache_eviction_bounds_memory(self, fitted):
        model, q = fitted
        with PredictionService(model, batch_size=16, cache_size=5) as svc:
            svc.predict_many(q)
            assert len(svc._core._cache) <= 5

    def test_stats_shape(self, fitted):
        model, q = fitted
        with PredictionService(model, batch_size=8) as svc:
            svc.predict_many(q)
            st = svc.stats()
        assert st["requests"] == q.shape[0]
        assert st["served"] == q.shape[0]
        assert st["queries_per_s"] > 0
        assert 0 <= st["latency_p50_ms"] <= st["latency_p95_ms"] <= st["latency_max_ms"]

    def test_profiler_records_batches(self, fitted):
        model, q = fitted
        with PredictionService(model, batch_size=8) as svc:
            svc.predict_many(q)
            prof = svc.profiler_
        launches = prof.launches_of("serve.predict_batch")
        assert launches
        assert sum(la.meta["batch"] for la in launches) == q.shape[0]
        assert all(la.phase == "serve" for la in launches)


class TestLifecycleAndValidation:
    def test_submit_after_close_raises(self, fitted):
        model, q = fitted
        svc = PredictionService(model)
        svc.close()
        with pytest.raises(ConfigError, match="closed"):
            svc.submit(q[0])

    def test_close_idempotent(self, fitted):
        model, _ = fitted
        svc = PredictionService(model)
        svc.close()
        svc.close()

    def test_unfitted_model_rejected(self):
        with pytest.raises(ConfigError, match="not fitted"):
            PredictionService(PopcornKernelKMeans(3))

    def test_bad_knobs_rejected(self, fitted):
        model, _ = fitted
        with pytest.raises(ConfigError):
            PredictionService(model, batch_size=0)
        with pytest.raises(ConfigError):
            PredictionService(model, n_workers=0)
        with pytest.raises(ConfigError):
            PredictionService(model, cache_size=-1)

    def test_non_vector_query_rejected(self, fitted):
        model, q = fitted
        with PredictionService(model) as svc:
            with pytest.raises(ConfigError, match="1-D"):
                svc.submit(q)  # 2-D block must go through predict_many

    def test_prediction_errors_propagate_to_futures(self, fitted):
        model, _ = fitted
        with PredictionService(model, batch_size=4) as svc:
            fut = svc.submit(np.zeros(9))  # wrong dimensionality for the kernel
            with pytest.raises(Exception):
                fut.result(timeout=5)

    def test_ragged_batch_isolates_the_bad_request(self, fitted):
        """A malformed row must fail alone; batch-mates still get labels
        and the worker thread survives for later requests."""
        model, q = fitted
        expected = model.predict(q[:2])
        with PredictionService(_SlowModel(model, 0.05), batch_size=8) as svc:
            svc.submit(q[3])  # holds the worker, so the rows below queue and fuse
            good0 = svc.submit(q[0])
            bad = svc.submit(np.zeros(9))  # ragged: np.stack cannot fuse these
            good1 = svc.submit(q[1])
            assert good0.result(timeout=5) == expected[0]
            assert good1.result(timeout=5) == expected[1]
            with pytest.raises(Exception):
                bad.result(timeout=5)
            # the worker is still alive and serving
            assert svc.predict(q[2]) == model.predict(q[2:3])[0]


class _SlowModel:
    """Wraps a fitted model, charging a fixed sleep per predict batch."""

    def __init__(self, inner, delay_s):
        self._inner = inner
        self._delay_s = delay_s
        self.labels_ = inner.labels_

    def predict(self, rows, **kw):
        import time

        time.sleep(self._delay_s)
        return self._inner.predict(rows, **kw)


class TestAdmissionControl:
    def test_queue_bound_sheds_under_burst(self, fitted):
        model, q = fitted
        slow = _SlowModel(model, 0.02)
        accepted, shed = [], 0
        with PredictionService(
            slow, batch_size=2, n_workers=1,
            queue_bound=3, cache_size=0,
        ) as svc:
            for row in np.tile(q, (3, 1)):
                try:
                    accepted.append(svc.submit(row))
                except Overloaded:
                    shed += 1
            for fut in accepted:  # every admitted request still answers
                assert fut.result(timeout=10) >= 0
            stats = svc.stats()
        assert shed > 0
        assert stats["shed"] == shed
        # rejected requests never corrupt the counters
        assert stats["requests"] == stats["served"] + stats["shed"]
        assert stats["served"] == len(accepted)

    def test_unbounded_queue_never_sheds(self, fitted):
        model, q = fitted
        with PredictionService(model, batch_size=4) as svc:
            svc.predict_many(q)
            stats = svc.stats()
        assert stats["shed"] == 0
        assert "shed" in stats  # the key is part of the stats contract


class TestCloseDrainsDeterministically:
    def test_close_serves_everything_already_queued(self, fitted):
        """Regression: close() must resolve every admitted Future."""
        model, q = fitted
        slow = _SlowModel(model, 0.01)
        expected = model.predict(q)
        svc = PredictionService(
            slow, batch_size=4, n_workers=1, cache_size=0,
        )
        futures = [svc.submit(row) for row in q]
        svc.close()  # drain=True: the queue is served, not abandoned
        assert all(f.done() for f in futures)
        got = np.array([f.result(timeout=0) for f in futures])
        assert np.array_equal(got, expected)

    def test_close_without_drain_cancels_queued(self, fitted):
        model, q = fitted
        slow = _SlowModel(model, 0.05)
        svc = PredictionService(
            slow, batch_size=2, n_workers=1, cache_size=0,
        )
        futures = [svc.submit(row) for row in q[:12]]
        svc.close(drain=False)
        # deterministic: every future resolved one way or the other, now
        assert all(f.done() for f in futures)
        outcomes = []
        for f in futures:
            if f.cancelled():
                outcomes.append("cancelled")
            elif f.exception(timeout=0) is not None:
                outcomes.append("error")
            else:
                outcomes.append("served")
        assert "cancelled" in outcomes  # the queue tail was cut loose
        stats = svc.stats()
        assert stats["served"] == outcomes.count("served")
