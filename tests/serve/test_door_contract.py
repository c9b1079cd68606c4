"""The serving contract both front doors share.

:class:`PredictionService` (threads) and :class:`AsyncPredictionServer`
(asyncio, inline shard workers here) run one
:class:`~repro.serve.core.ServingCore`, so every test below runs the
same scenario through each door.  The scenarios are coroutines; the
thread door is driven from the loop through ``asyncio.wrap_future``.
"""

import asyncio
import gc
import threading
import time
import weakref

import numpy as np
import pytest

from repro import PopcornKernelKMeans
from repro.data import make_blobs
from repro.errors import ConfigError, Overloaded
from repro.obs import trace
from repro.serve import (
    AsyncPredictionServer,
    ModelRefresher,
    PredictionService,
    ServeResult,
    load_model,
    save_model,
)


class _SlowModel:
    """A fitted model that sleeps per batch, and fails a batch holding a
    row whose first feature exceeds 1e5 (the poisoned row).  ``started``
    is set once a worker is inside ``predict``."""

    def __init__(self, inner, delay_s: float) -> None:
        self._inner = inner
        self._delay_s = delay_s
        self.labels_ = inner.labels_
        self.started = threading.Event()

    def predict(self, rows, **kw):
        self.started.set()
        time.sleep(self._delay_s)
        if np.any(rows[:, 0] > 1e5):
            raise ValueError("poisoned row")
        return self._inner.predict(rows, **kw)


class _ThreadDoor:
    """The thread door behind the async scenario surface."""

    def __init__(self, model, **cfg) -> None:
        self.svc = PredictionService(model, **cfg)

    async def __aenter__(self):
        return self

    async def __aexit__(self, *exc):
        self.svc.close()

    def submit(self, row):
        return asyncio.wrap_future(self.svc.submit(row))

    async def swap(self, path):
        return self.svc.swap_model(load_model(path))

    async def close(self, drain=True):
        self.svc.close(drain=drain)

    def stats(self):
        return self.svc.stats()


class _AsyncDoor:
    """The asyncio door, inline workers."""

    def __init__(self, model, **cfg) -> None:
        self.server = AsyncPredictionServer(model, processes=False, **cfg)

    async def __aenter__(self):
        await self.server.start()
        return self

    async def __aexit__(self, *exc):
        await self.server.close()

    def submit(self, row):
        return self.server.submit_nowait(row)

    async def swap(self, path):
        return await self.server.aswap_artifact(path)

    async def close(self, drain=True):
        await self.server.close(drain=drain)

    def stats(self):
        return self.server.stats()


DOORS = {"thread": _ThreadDoor, "async": _AsyncDoor}


@pytest.fixture(params=sorted(DOORS))
def door(request):
    return DOORS[request.param]


@pytest.fixture(scope="module")
def fitted():
    x = make_blobs(80, 4, 3, rng=5)[0].astype(np.float64)
    model = PopcornKernelKMeans(
        3, dtype=np.float64, backend="host", max_iter=6, seed=0
    ).fit(x)
    q = np.random.default_rng(9).standard_normal((40, 4))
    return model, q


def _balanced(stats):
    return stats["requests"] == (
        stats["served"] + stats["shed"] + stats["errors"] + stats["cancelled"]
    )


def test_labels_match_direct_predict(door, fitted):
    model, q = fitted

    async def go():
        async with door(model, batch_size=8) as d:
            return await asyncio.gather(*[d.submit(row) for row in q])

    results = asyncio.run(go())
    assert all(isinstance(r, ServeResult) for r in results)
    assert np.array_equal(np.array([int(r) for r in results]), model.predict(q))
    assert all(r.model_version == 1 for r in results)


def test_cache_answers_repeats(door, fitted):
    model, q = fitted

    async def go():
        async with door(model, batch_size=8, cache_size=64) as d:
            first = await asyncio.gather(*[d.submit(row) for row in q[:8]])
            again = await asyncio.gather(*[d.submit(row) for row in q[:8]])
            return first, again, d.stats()

    first, again, stats = asyncio.run(go())
    assert not any(r.cache_hit for r in first)
    assert all(r.cache_hit for r in again)
    assert [int(r) for r in again] == [int(r) for r in first]
    assert stats["cache_hits"] == 8
    assert stats["backend_rows"] == 8  # the repeats never reached the backend


def test_duplicates_coalesce_onto_one_backend_row(door, fitted):
    model, q = fitted
    u, r = 6, 4

    async def go():
        # the backend holds each batch 200 ms, so every duplicate of the
        # burst arrives while its original is still in flight
        async with door(
            _SlowModel(model, 0.2), batch_size=u, cache_size=0
        ) as d:
            futures = [d.submit(q[i]) for _ in range(r) for i in range(u)]
            return await asyncio.gather(*futures), d.stats()

    results, stats = asyncio.run(go())
    assert np.array_equal(np.array([int(x) for x in results]), np.tile(model.predict(q[:u]), r))
    assert stats["backend_rows"] == u
    assert stats["coalesced"] == u * (r - 1)
    assert stats["served"] == u * r
    flags = [x.coalesced for x in results]
    assert flags[:u] == [False] * u and all(flags[u:])


def test_idle_door_answers_a_lone_request_at_once(door, fitted):
    """Work-conserving batching: a free worker takes the one queued row
    and never waits for a batch to fill, whatever max_delay_ms says."""
    model, q = fitted

    async def go():
        with pytest.warns(DeprecationWarning, match="max_delay_ms"):
            d = door(model, batch_size=8, max_delay_ms=10_000)
        async with d:
            t0 = time.perf_counter()
            result = await d.submit(q[0])
            return result, time.perf_counter() - t0

    result, elapsed = asyncio.run(go())
    assert result == model.predict(q[:1])[0]
    assert elapsed < 2.0  # a 10 s batch-fill wait would show here


def test_rows_queued_behind_a_busy_worker_ride_one_full_batch(door, fitted):
    model, q = fitted
    slow = _SlowModel(model, 0.2)

    async def go():
        async with door(slow, batch_size=5, cache_size=0) as d:
            first = d.submit(q[0])
            # the lone row is taken at once; wait until its worker is busy
            started = await asyncio.get_running_loop().run_in_executor(
                None, slow.started.wait, 10
            )
            rest = [d.submit(row) for row in q[1:6]]
            return started, await asyncio.gather(first, *rest), d.stats()

    started, results, stats = asyncio.run(go())
    assert started
    assert np.array_equal(np.array([int(r) for r in results]), model.predict(q[:6]))
    # one batch for the lone row, one full batch of 5 for the rows that queued
    assert stats["batches"] == 2
    assert stats["backend_rows"] == 6
    assert stats["mean_batch_size"] == 3.0


def test_shed_requests_are_counted_and_never_served(door, fitted):
    model, q = fitted

    async def go():
        async with door(
            _SlowModel(model, 0.02), batch_size=2,
            queue_bound=3, cache_size=0,
        ) as d:
            accepted, shed = [], 0
            for row in q:
                try:
                    accepted.append(d.submit(row))
                except Overloaded:
                    shed += 1
            return shed, await asyncio.gather(*accepted), d.stats()

    shed, results, stats = asyncio.run(go())
    assert shed > 0
    assert stats["shed"] == shed
    assert stats["served"] == len(results) == q.shape[0] - shed
    assert stats["queue_peak"] <= 3
    assert _balanced(stats)


def test_errors_and_cancels_balance_the_books(door, fitted):
    """One poisoned row and one close(drain=False): every request is
    served, shed, failed or cancelled, and stats say which."""
    model, q = fitted
    rows = q[:20].copy()
    rows[0, 0] = 1e6

    async def go():
        d = door(_SlowModel(model, 0.05), batch_size=2, cache_size=0)
        await d.__aenter__()
        futures = [d.submit(row) for row in rows]
        # the poisoned row 0 fails alone (a batch it shares is retried
        # row by row), and row 1 answers once row 0 has failed
        await futures[1]
        await d.close(drain=False)
        done = await asyncio.gather(*futures, return_exceptions=True)
        return done, d.stats()

    done, stats = asyncio.run(go())
    cancelled = sum(isinstance(x, asyncio.CancelledError) for x in done)
    served = sum(isinstance(x, ServeResult) for x in done)
    assert stats["errors"] == 1
    assert stats["cancelled"] == cancelled > 0
    assert stats["served"] == served
    assert stats["requests"] == rows.shape[0]
    assert _balanced(stats)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_row_is_rejected_before_admission(door, fitted, bad):
    model, q = fitted
    row = q[0].copy()
    row[2] = bad

    async def go():
        async with door(model, batch_size=4) as d:
            with pytest.raises(ConfigError, match="NaN or inf"):
                d.submit(row)
            with pytest.raises(ConfigError, match="1-D"):
                d.submit(q[:2])
            good = await d.submit(q[0])
            return good, d.stats()

    good, stats = asyncio.run(go())
    assert good == model.predict(q[:1])[0]
    assert stats["requests"] == 1  # rejected rows are not requests


def test_swap_bumps_version_and_invalidates_the_cache(door, fitted, tmp_path):
    model, q = fitted
    xb = make_blobs(60, 4, 3, rng=1)[0].astype(np.float64)
    other = PopcornKernelKMeans(3, dtype=np.float64, backend="host", max_iter=5, seed=1).fit(xb)
    path = save_model(other, str(tmp_path / "b.npz"))

    async def go():
        async with door(model, batch_size=8, cache_size=64) as d:
            await asyncio.gather(*[d.submit(row) for row in q[:8]])
            version = await d.swap(path)
            after = await asyncio.gather(*[d.submit(row) for row in q[:8]])
            return version, after, d.stats()

    version, after, stats = asyncio.run(go())
    assert version == 2 == stats["model_version"]
    assert stats["model_swaps"] == 1
    assert not any(r.cache_hit for r in after)  # the v1 cache died with v1
    assert all(r.model_version == 2 for r in after)
    assert np.array_equal(np.array([int(r) for r in after]), other.predict(q[:8]))


def test_closed_door_frees_its_model_without_a_gc_pass(door, fitted):
    """No reference cycle through the door: a replaced model's memory
    returns as soon as the closed door is dropped (a served model can be
    hundreds of MB, and refresh loops build a door per version)."""
    _, q = fitted
    x = make_blobs(60, 4, 3, rng=2)[0].astype(np.float64)
    model = PopcornKernelKMeans(3, dtype=np.float64, backend="host", max_iter=3, seed=0).fit(x)
    ref = weakref.ref(model)

    async def go():
        async with door(model, batch_size=4) as d:
            await asyncio.gather(*[d.submit(row) for row in q[:4]])

    gc.disable()
    try:
        asyncio.run(go())
        del model
        assert ref() is None
    finally:
        gc.enable()


def test_both_doors_report_one_stats_key_set(fitted):
    model, q = fitted
    keys = {}
    for name, cls in DOORS.items():
        async def go():
            async with cls(model, batch_size=4) as d:
                await asyncio.gather(*[d.submit(row) for row in q[:4]])
                return d.stats()

        keys[name] = set(asyncio.run(go()))
    assert keys["thread"] == keys["async"]
    assert {"errors", "cancelled", "coalesced", "backend_rows", "queue_peak"} <= keys["thread"]


class TestBenchmarkFacingNames:
    """The names the measured host benchmark patches and reads.  A rename
    here would not fail its self-test: it would silently zero the
    per-layer serving metrics."""

    def test_patched_methods_exist(self):
        for cls, name in (
            (PredictionService, "swap_model"),
            (AsyncPredictionServer, "swap_artifact"),
            (ModelRefresher, "refresh"),
            (ModelRefresher, "observe"),
        ):
            assert callable(getattr(cls, name)), (cls.__name__, name)

    def test_batch_and_worker_span_names(self, fitted):
        model, q = fitted
        was_enabled = trace.enabled
        trace.enable()
        try:
            mark = trace.mark()
            for cls in DOORS.values():
                async def go():
                    async with cls(model, batch_size=4, cache_size=0) as d:
                        await asyncio.gather(*[d.submit(row) for row in q[:4]])

                asyncio.run(go())
            spans = trace.spans(since=mark)
        finally:
            trace.enabled = was_enabled
        by_name = {}
        for s in spans:
            by_name.setdefault(s.name, []).append(s)
        for name in ("serve.batch", "serve.async.batch"):
            assert by_name.get(name), name
            assert sum(s.attrs["size"] for s in by_name[name]) == 4
        assert by_name.get("serve.async.worker_predict")
