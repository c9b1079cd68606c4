"""Stats edge cases, the bounded latency window, and stats-vs-swap races."""

import threading

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.estimators import make_estimator
from repro.serve import PredictionService
from repro.serve.core import percentile


def _fitted(seed=0, n=80, d=6, k=3):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    return make_estimator(
        "popcorn", n_clusters=k, backend="host", kernel="linear",
        dtype=np.float64, max_iter=3, seed=seed,
    ).fit(x)


class TestPercentileEdges:
    def test_empty_window_reports_zero_not_nan(self):
        assert percentile([], 50) == 0.0
        assert percentile([], 95) == 0.0

    def test_single_sample_reports_that_sample_for_every_q(self):
        for q in (0, 50, 95, 100):
            assert percentile([0.25], q) == 0.25

    def test_multi_sample_matches_numpy(self):
        vals = [0.1, 0.2, 0.3, 0.4]
        assert percentile(vals, 50) == pytest.approx(
            float(np.percentile(vals, 50))
        )

    def test_fresh_service_stats_all_finite(self):
        with PredictionService(_fitted(), n_workers=1) as svc:
            stats = svc.stats()
        assert stats["requests"] == 0
        assert stats["latency_p50_ms"] == 0.0
        assert stats["latency_p95_ms"] == 0.0
        assert stats["queries_per_s"] == 0.0
        assert all(np.isfinite(v) for v in stats.values() if isinstance(v, float))


class TestBoundedWindow:
    def test_latency_window_validated(self):
        with pytest.raises(ConfigError):
            PredictionService(_fitted(), latency_window=0)

    def test_window_bounds_memory_but_lifetime_totals_stay_exact(self):
        rng = np.random.default_rng(1)
        queries = rng.standard_normal((40, 6))
        with PredictionService(
            _fitted(), n_workers=1, batch_size=4,
            cache_size=0, latency_window=8,
        ) as svc:
            svc.predict_many(queries)
            stats = svc.stats()
            assert len(svc._core._latencies) <= 8
            assert len(svc._core._batch_sizes) <= 8
        # lifetime counters are not clipped by the rolling window
        assert stats["requests"] == 40
        assert stats["served"] == 40
        assert stats["batches"] >= 40 // 4
        assert stats["latency_p95_ms"] > 0.0

    def test_served_counts_cache_hits_too(self):
        row = np.arange(6, dtype=np.float64)
        with PredictionService(_fitted(), n_workers=1, latency_window=2) as svc:
            first = svc.predict(row)
            for _ in range(5):
                assert svc.predict(row) == first
            stats = svc.stats()
        assert stats["served"] == 6
        assert stats["cache_hits"] == 5


class TestStatsSwapRaces:
    def test_hammer_stats_and_submits_during_swaps(self, lockdep):
        """stats() must never tear, raise, or go backwards while
        swap_model() and submissions run concurrently."""
        model_a = _fitted(seed=0)
        model_b = _fitted(seed=1)
        errors = []
        stop = threading.Event()
        rng = np.random.default_rng(2)
        queries = rng.standard_normal((400, 6))

        with PredictionService(
            model_a, n_workers=2, batch_size=8, cache_size=64,
        ) as svc:

            def hammer_stats():
                last_requests = 0
                last_version = 1
                try:
                    while not stop.is_set():
                        s = svc.stats()
                        # monotone lifetime counters, no torn reads
                        assert s["requests"] >= last_requests
                        assert s["served"] <= s["requests"]
                        assert s["cache_hits"] <= s["served"]
                        assert s["model_version"] >= last_version
                        assert s["model_version"] == s["model_swaps"] + 1
                        last_requests = s["requests"]
                        last_version = s["model_version"]
                        svc.stats(format="prom")  # the prom face too
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            def hammer_swaps():
                try:
                    for i in range(20):
                        svc.swap_model(model_b if i % 2 == 0 else model_a)
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            readers = [threading.Thread(target=hammer_stats) for _ in range(3)]
            swapper = threading.Thread(target=hammer_swaps)
            for th in readers:
                th.start()
            swapper.start()
            details = svc.predict_many(queries, details=True)
            swapper.join()
            stop.set()
            for th in readers:
                th.join()
            final = svc.stats()

        assert not errors, errors
        assert len(details) == 400
        # every answer is the label of the model its version names:
        # version 1 is model_a, and the swaps alternate b, a, b, ...
        want = {1: model_a.predict(queries), 0: model_b.predict(queries)}
        for j, r in enumerate(details):
            assert int(r) == want[r.model_version % 2][j], (j, r)
        assert final["served"] == 400
        assert final["model_swaps"] == 20
        assert final["model_version"] == 21

    def test_swap_returns_new_version(self):
        with PredictionService(_fitted(seed=0), n_workers=1) as svc:
            assert svc.swap_model(_fitted(seed=1)) == 2
            assert svc.swap_model(_fitted(seed=2)) == 3
