"""AsyncPredictionServer: admission control, coalescing, workers, hot swap.

The determinism tests lean on asyncio being single-threaded: a
synchronous burst of ``submit_nowait`` calls enqueues every request
before the batcher task gets a turn, so coalescing and shedding counts
are exact, not statistical.
"""

import asyncio
import time

import numpy as np
import pytest

from repro import PopcornKernelKMeans
from repro.data import make_blobs
from repro.errors import ConfigError, Overloaded
from repro.serve import (
    AsyncPredictionServer,
    ModelRefresher,
    ServeConfig,
    ServeResult,
    load_model,
    save_model,
)
from repro.serve.frontdoor import open_loop_load
from repro.serve.worker import ShardWorkerError


@pytest.fixture(scope="module")
def fitted():
    x = make_blobs(80, 4, 3, rng=5)[0].astype(np.float64)
    model = PopcornKernelKMeans(
        3, dtype=np.float64, backend="host", max_iter=6, seed=0
    ).fit(x)
    q = np.random.default_rng(9).standard_normal((40, 4))
    return model, q


class _SlowModel:
    """Wraps a fitted model, charging a fixed sleep per predict batch."""

    def __init__(self, inner, delay_s: float) -> None:
        self._inner = inner
        self._delay_s = delay_s
        self.labels_ = inner.labels_

    def predict(self, rows, **kw):
        time.sleep(self._delay_s)
        return self._inner.predict(rows, **kw)


class _PoisonModel:
    """Raises on any row whose first feature exceeds the marker."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.labels_ = inner.labels_

    def predict(self, rows, **kw):
        if np.any(rows[:, 0] > 1e5):
            raise ValueError("poisoned row")
        return self._inner.predict(rows, **kw)


class TestCorrectness:
    def test_served_labels_match_direct_predict(self, fitted):
        model, q = fitted
        expected = model.predict(q)

        async def go():
            async with AsyncPredictionServer(
                model, batch_size=8
            ) as server:
                return await server.predict_many(q)

        assert np.array_equal(asyncio.run(go()), expected)

    def test_submit_and_predict_return_serve_results(self, fitted):
        model, q = fitted
        expected = model.predict(q)

        async def go():
            async with AsyncPredictionServer(model, batch_size=4) as server:
                one = await server.submit(q[0])
                two = await server.predict(q[1])
                return one, two

        one, two = asyncio.run(go())
        assert isinstance(one, ServeResult) and isinstance(two, ServeResult)
        assert (one, two) == (expected[0], expected[1])
        assert one.model_version == 1 and not one.coalesced

    def test_lifecycle_guards(self, fitted):
        model, _ = fitted
        server = AsyncPredictionServer(model)
        with pytest.raises(ConfigError, match="not started"):
            server.submit_nowait(np.zeros(4))

        async def go():
            async with server:
                with pytest.raises(ConfigError, match="1-D"):
                    server.submit_nowait(np.zeros((2, 4)))
            with pytest.raises(ConfigError, match="closed"):
                server.submit_nowait(np.zeros(4))

        asyncio.run(go())


class TestCoalescing:
    def test_burst_of_duplicates_reaches_backend_once(self, fitted):
        """The tentpole contract: u unique rows x r repeats -> u backend rows."""
        model, q = fitted
        u, r = 10, 4
        expected = model.predict(q[:u])

        async def go():
            async with AsyncPredictionServer(
                model, batch_size=u, cache_size=0
            ) as server:
                futures = [
                    server.submit_nowait(q[i])
                    for _ in range(r)
                    for i in range(u)
                ]
                results = await asyncio.gather(*futures)
                return results, server.stats()

        results, stats = asyncio.run(go())
        assert stats["backend_rows"] == u  # coalescing demonstrably shrank
        assert stats["batches"] == 1  # ... the backend work to one batch
        assert stats["coalesced"] == u * (r - 1)
        assert stats["served"] == u * r
        got = np.array([int(x) for x in results], dtype=np.int32)
        assert np.array_equal(got, np.tile(expected, r))
        # provenance: the queue occupant is not flagged, its riders are
        flags = [x.coalesced for x in results]
        assert flags[:u] == [False] * u
        assert all(flags[u:])

    def test_duplicates_do_not_consume_queue_slots(self, fitted):
        model, q = fitted

        async def go():
            async with AsyncPredictionServer(
                model, batch_size=4, queue_bound=2, cache_size=0
            ) as server:
                futures = [server.submit_nowait(q[0]) for _ in range(10)]
                futures += [server.submit_nowait(q[1])]  # 2nd slot still free
                return await asyncio.gather(*futures), server.stats()

        results, stats = asyncio.run(go())
        assert stats["shed"] == 0
        assert len(results) == 11


class TestAdmissionControl:
    def test_burst_sheds_exactly_beyond_the_bound(self, fitted):
        model, q = fitted
        bound, offered = 6, 25

        async def go():
            async with AsyncPredictionServer(
                model, batch_size=bound, queue_bound=bound, cache_size=0
            ) as server:
                accepted, shed = [], 0
                for i in range(offered):
                    try:
                        accepted.append(server.submit_nowait(q[i]))
                    except Overloaded:
                        shed += 1
                results = await asyncio.gather(*accepted)
                return shed, results, server.stats()

        shed, results, stats = asyncio.run(go())
        assert shed == offered - bound  # exact, not approximate
        assert stats["shed"] == shed
        assert stats["served"] == len(results) == bound

    def test_rejections_never_corrupt_the_stats(self, fitted):
        model, q = fitted

        async def go():
            async with AsyncPredictionServer(
                model, batch_size=4, queue_bound=4, cache_size=0
            ) as server:
                futures = []
                for _ in range(3):  # three bursts with drains between them
                    for i in range(12):
                        try:
                            futures.append(server.submit_nowait(q[i]))
                        except Overloaded:
                            pass
                    await asyncio.gather(*futures[-1:])
                await asyncio.gather(*futures)
                return server.stats()

        stats = asyncio.run(go())
        assert stats["requests"] == 36
        assert (
            stats["requests"]
            == stats["served"] + stats["shed"] + stats["errors"]
        )
        assert stats["errors"] == 0
        assert stats["queue_peak"] <= 4


class TestOpenLoopLoad:
    def test_shed_rate_is_monotone_in_offered_load(self, fitted):
        """The load-generator harness: more offered qps, never less shed."""
        model, _ = fitted
        # service rate is pinned at 200 qps (4-row batches, 20 ms each), so
        # the three offered loads sit in three regimes: under capacity,
        # moderately over, and a near-instant burst
        slow = _SlowModel(model, delay_s=0.02)
        queries = np.random.default_rng(11).standard_normal((60, 4))

        async def drive(qps):
            async with AsyncPredictionServer(
                slow, batch_size=4, n_workers=1,
                queue_bound=4, cache_size=0, processes=False,
            ) as server:
                report = await open_loop_load(server, queries, qps)
                stats = server.stats()
            return report, stats

        async def go():
            return [await drive(qps) for qps in (50.0, 300.0, 20000.0)]

        outcomes = asyncio.run(go())
        rates = [rep.shed_rate for rep, _ in outcomes]
        assert rates == sorted(rates)  # monotone non-decreasing
        assert rates[0] < 0.5  # gentle load mostly admitted
        assert rates[-1] > 0.0  # overload actually sheds
        for rep, stats in outcomes:
            # rejected requests never corrupt the books, on either ledger
            assert rep.requests == rep.accepted + rep.shed
            assert (
                stats["requests"]
                == stats["served"] + stats["shed"] + stats["errors"]
            )
            assert stats["errors"] == 0

    def test_report_latencies_and_validation(self, fitted):
        model, q = fitted

        async def go():
            async with AsyncPredictionServer(
                model, batch_size=8, queue_bound=256, cache_size=0
            ) as server:
                with pytest.raises(ConfigError):
                    await open_loop_load(server, q, qps=0)
                return await open_loop_load(server, q, qps=5000.0)

        report = asyncio.run(go())
        assert report.accepted == report.requests == q.shape[0]
        assert report.shed == 0 and report.errors == 0
        assert 0.0 < report.p50_ms <= report.p99_ms <= report.max_ms
        assert set(report.to_dict()) >= {"offered_qps", "shed_rate", "p99_ms"}


class TestErrorsAndClose:
    def test_poisoned_row_is_isolated_from_batch_mates(self, fitted):
        model, q = fitted
        poisoned = q[0].copy()
        poisoned[0] = 1e6

        async def go():
            async with AsyncPredictionServer(
                _PoisonModel(model), batch_size=8, cache_size=0,
                processes=False,
            ) as server:
                futures = [server.submit_nowait(row) for row in q[:5]]
                bad = server.submit_nowait(poisoned)
                good = await asyncio.gather(*futures)
                with pytest.raises(ShardWorkerError, match="poisoned"):
                    await bad
                return good, server.stats()

        good, stats = asyncio.run(go())
        assert np.array_equal(
            np.array([int(g) for g in good]), model.predict(q[:5])
        )
        assert stats["errors"] == 1
        assert (
            stats["requests"]
            == stats["served"] + stats["shed"] + stats["errors"]
        )

    def test_close_drains_admitted_requests(self, fitted):
        model, q = fitted

        async def go():
            server = await AsyncPredictionServer(
                model, batch_size=4, cache_size=0
            ).start()
            futures = [server.submit_nowait(row) for row in q[:10]]
            await server.close()  # drain=True: everything admitted answers
            return await asyncio.gather(*futures), server.stats()

        results, stats = asyncio.run(go())
        assert len(results) == 10 and stats["served"] == 10
        assert stats["cancelled"] == 0

    def test_close_without_drain_cancels_queued(self, fitted):
        model, q = fitted
        slow = _SlowModel(model, delay_s=0.05)

        async def go():
            server = await AsyncPredictionServer(
                slow, batch_size=2, cache_size=0,
                processes=False,
            ).start()
            futures = [server.submit_nowait(row) for row in q[:12]]
            await asyncio.sleep(0.01)  # let the first batch dispatch
            await server.close(drain=False)
            done = await asyncio.gather(*futures, return_exceptions=True)
            return done, server.stats()

        done, stats = asyncio.run(go())
        cancelled = [r for r in done if isinstance(r, asyncio.CancelledError)]
        served = [r for r in done if isinstance(r, ServeResult)]
        assert stats["cancelled"] == len(cancelled) > 0
        assert stats["served"] == len(served)
        assert (
            stats["requests"]
            == stats["served"] + stats["shed"] + stats["errors"]
            + stats["cancelled"]
        )

    def test_close_idempotent(self, fitted):
        model, _ = fitted

        async def go():
            server = await AsyncPredictionServer(model).start()
            await server.close()
            await server.close()

        asyncio.run(go())


class TestHotSwap:
    def _two_artifacts(self, tmp_path):
        xa = make_blobs(60, 4, 3, rng=0)[0].astype(np.float64)
        xb = make_blobs(60, 4, 3, rng=1)[0].astype(np.float64)
        a = PopcornKernelKMeans(
            3, dtype=np.float64, backend="host", max_iter=5, seed=0
        ).fit(xa)
        b = PopcornKernelKMeans(
            3, dtype=np.float64, backend="host", max_iter=5, seed=1
        ).fit(xb)
        return (
            save_model(a, str(tmp_path / "a.npz")),
            save_model(b, str(tmp_path / "b.npz")),
        )

    def test_swap_under_async_load_drops_nothing(self, fitted, tmp_path, lockdep):
        """Mirror of the thread-service hammer: readers + swapper, zero drops."""
        path_a, path_b = self._two_artifacts(tmp_path)
        q = np.random.default_rng(3).standard_normal((400, 4))
        n_swaps = 12

        async def go():
            async with AsyncPredictionServer(
                path_a, batch_size=16, cache_size=64,
                processes=False,
            ) as server:
                async def swapper():
                    for i in range(n_swaps):
                        await server.aswap_artifact(
                            path_b if i % 2 == 0 else path_a
                        )
                        await asyncio.sleep(0.002)

                swap_task = asyncio.create_task(swapper())
                details = []
                for i in range(0, 400, 40):
                    details += await server.predict_many(
                        q[i:i + 40], details=True
                    )
                    await asyncio.sleep(0)
                await swap_task
                return details, server.stats()

        details, stats = asyncio.run(go())
        assert len(details) == 400  # zero dropped requests across swaps
        assert stats["served"] == 400
        assert stats["errors"] == 0
        assert stats["model_swaps"] == n_swaps
        assert stats["model_version"] == 1 + n_swaps
        # every answer is the label of the model its version names:
        # version 1 is a, and the swaps alternate b, a, b, ...
        want = {1: load_model(path_a).predict(q), 0: load_model(path_b).predict(q)}
        assert all(1 <= r.model_version <= 1 + n_swaps for r in details)
        for j, r in enumerate(details):
            assert int(r) == want[r.model_version % 2][j], (j, r)

    def test_refresher_publishes_into_the_front_door(self, tmp_path):
        x = make_blobs(60, 4, 3, rng=0)[0].astype(np.float64)
        est = PopcornKernelKMeans(
            3, dtype=np.float64, backend="host", seed=0, batch_size=20
        )
        est.partial_fit(x)
        path = save_model(est, str(tmp_path / "online.npz"))

        async def go():
            async with AsyncPredictionServer(
                path, batch_size=8, cache_size=0, processes=False
            ) as server:
                ref = ModelRefresher(server, str(tmp_path / "pub"))
                ref.observe(x[30:])
                published = await asyncio.get_running_loop().run_in_executor(
                    None, ref.refresh
                )
                res = await server.predict_many(x[:6], details=True)
                return published, res, server.stats()

        published, res, stats = asyncio.run(go())
        assert published.endswith("-v0001.npz")
        assert stats["model_version"] == 2
        assert all(r.model_version == 2 for r in res)
        # the front door now serves exactly what the artifact holds
        fresh = load_model(published)
        assert np.array_equal(
            np.array([int(r) for r in res]), fresh.predict(x[:6])
        )


class TestProcessWorkers:
    def test_process_pool_serves_and_swaps(self, fitted, tmp_path):
        model, q = fitted
        path = save_model(model, str(tmp_path / "m.npz"))
        x2 = make_blobs(60, 4, 3, rng=2)[0].astype(np.float64)
        other = PopcornKernelKMeans(
            3, dtype=np.float64, backend="host", max_iter=5, seed=2
        ).fit(x2)
        path2 = save_model(other, str(tmp_path / "m2.npz"))
        expected = model.predict(q)

        async def go():
            cfg = ServeConfig(batch_size=8, n_workers=2, cache_size=0)
            async with AsyncPredictionServer(path, cfg) as server:
                assert server.processes  # path source defaults to processes
                got = await server.predict_many(q)
                version = await server.aswap_artifact(path2)
                after = await server.predict_many(q[:8], details=True)
                return got, version, after, server.stats()

        got, version, after, stats = asyncio.run(go())
        assert np.array_equal(got, expected)
        assert version == 2
        assert all(r.model_version == 2 for r in after)
        assert np.array_equal(
            np.array([int(r) for r in after]), other.predict(q[:8])
        )
        assert stats["workers"] == 2
        assert stats["errors"] == 0

    def test_model_object_source_cannot_use_processes(self, fitted):
        model, _ = fitted

        async def go():
            await AsyncPredictionServer(model, processes=True).start()

        with pytest.raises(ConfigError):
            asyncio.run(go())
