"""The asyncio front door: loop-confined batching and shard fan-out.

:class:`AsyncPredictionServer` takes an *open-loop* request stream
(arrivals do not wait for departures) and runs the serving policy of
:class:`~repro.serve.core.ServingCore` — cache, coalescing, admission,
swap bookkeeping, stats — over its own transport:

* **work-conserving micro-batching** — one batcher task waits for a
  free worker (a dispatch semaphore sized to the pool), then takes
  whatever is queued by then, up to ``batch_size`` rows
  (:meth:`ServingCore.take_batch
  <repro.serve.core.ServingCore.take_batch>`): an idle door serves a
  lone row at once, and rows that arrive while every worker is busy
  ride in the next batch;
* **shard worker fan-out** — batches are served by a
  :class:`~repro.serve.worker.ShardWorkerPool` of model replicas
  (worker processes loaded from a versioned artifact, or inline
  replicas), each optionally sharding its rows across simulated devices;
* **hot swap** — :meth:`~AsyncPredictionServer.swap_artifact`
  propagates a new artifact to every replica behind a full-pool barrier,
  so in-flight batches finish on the version they started with.

Batches are traced as ``serve.async.batch`` spans and the worker hop as
``serve.async.worker_predict``.

Determinism note: asyncio is single-threaded, so a *synchronous* burst
of :meth:`~AsyncPredictionServer.submit_nowait` calls enqueues every
request before the batcher task runs again.  Shed counts
(``N - queue_bound``) and coalescing counts (backend rows == unique
digests) are therefore exact, not timing-dependent — the property the
``ext_async_serving`` bench experiment's blocking metrics rest on.

:func:`open_loop_load` is the matching load generator: paced arrivals
at a target offered qps, returning a :class:`LoadReport` of shed rate
and latency percentiles (the SLO curve the autoscale simulator of
:mod:`repro.serve.autoscale` predicts analytically).
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

import numpy as np

from ..errors import ConfigError, Overloaded
from ..gpu.profiler import Profiler
from ..obs import trace
from .config import ServeConfig, ServeResult
from .core import Pending, ServingCore, percentile
from .worker import ShardWorkerPool, load_replica

__all__ = ["AsyncPredictionServer", "LoadReport", "open_loop_load"]


class AsyncPredictionServer:
    """Asyncio ingress serving an open-loop stream off shard workers.

    Parameters
    ----------
    source:
        Artifact path (the deployment shape: every worker process loads
        its replica from it) or, with ``processes=False``, an
        already-fitted model object.
    config:
        A :class:`~repro.serve.ServeConfig`; the same keyword surface is
        accepted loose (``batch_size=``, ``queue_bound=``, ...), exactly
        like :class:`~repro.serve.PredictionService`.
    processes:
        True runs one OS process per worker, False serves inline
        (deterministic; required for model-object sources).  Default:
        processes when ``source`` is a path, inline otherwise.
    start_method, profiler:
        Worker start method / shared profiler, as elsewhere.

    Usage::

        async with AsyncPredictionServer("model.npz", n_workers=4,
                                         queue_bound=256) as server:
            fut = server.submit_nowait(row)     # Overloaded when shed
            result = await fut                   # ServeResult

    The server must be started inside a running event loop (``async
    with`` or ``await server.start()``).
    """

    # Lock-discipline declaration (repro-lint RPR106): the door's own
    # state is confined to the event loop; swap_artifact runs on foreign
    # threads and touches only the pool (itself thread-safe) and the
    # core, whose state sits behind the core's lock.
    _guarded_by = {
        "_started": "event-loop",
        "_closed": "event-loop",
        "_pool": "event-loop",
        "_queue": "event-loop",
    }
    _off_loop_methods = ("swap_artifact",)

    def __init__(
        self,
        source,
        config: Optional[ServeConfig] = None,
        *,
        processes: Optional[bool] = None,
        start_method: Optional[str] = None,
        profiler: Optional[Profiler] = None,
        **params,
    ) -> None:
        cfg = ServeConfig.coerce(config, params, owner="AsyncPredictionServer")
        self.config = cfg
        self._source = source
        if processes is None:
            processes = isinstance(source, str)
        self.processes = bool(processes)
        self._start_method = start_method
        self.profiler_ = profiler if profiler is not None else Profiler()
        self._core = ServingCore(load_replica(source), cfg, self.profiler_)
        self._pool: Optional[ShardWorkerPool] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = False
        self._closed = False
        self._queue: deque = deque()

    @property
    def model(self):
        """The model currently served (replaced by :meth:`swap_artifact`)."""
        return self._core.model

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _build_pool(self) -> ShardWorkerPool:
        cfg = self.config
        return ShardWorkerPool(
            self._source if self.processes else self.model,
            n_workers=cfg.n_workers,
            devices=cfg.devices,
            processes=self.processes,
            start_method=self._start_method,
            **cfg.predict_kwargs(),
        )

    async def start(self) -> "AsyncPredictionServer":
        """Spin up the worker pool and the batcher task."""
        if self._started:
            raise ConfigError("server is already started")
        if self._closed:
            raise ConfigError("server is closed")
        self._loop = asyncio.get_running_loop()
        # worker-process startup blocks on fork/exec + artifact load;
        # keep it off the event loop
        self._pool = await self._loop.run_in_executor(None, self._build_pool)
        # set by every enqueue and by close: what the batcher waits on
        self._wakeup = asyncio.Event()
        self._dispatch_sem = asyncio.Semaphore(self.config.n_workers)
        self._dispatch_tasks: set = set()
        self._batcher = self._loop.create_task(self._batch_loop())
        self._started = True
        return self

    async def __aenter__(self) -> "AsyncPredictionServer":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def close(self, *, drain: bool = True) -> None:
        """Stop the server; every outstanding Future resolves.

        ``drain=True`` serves everything already admitted first;
        ``drain=False`` cancels queued (not yet dispatched) requests.
        Dispatched batches always finish, and the worker pool is torn
        down last.
        """
        if not self._started or self._closed:
            self._closed = True
            if self._pool is not None:
                pool, self._pool = self._pool, None
                await asyncio.get_running_loop().run_in_executor(None, pool.close)
            return
        self._closed = True
        if not drain:
            self._queue.clear()
        self._wakeup.set()
        await self._batcher
        if self._dispatch_tasks:
            await asyncio.gather(*list(self._dispatch_tasks), return_exceptions=True)
        # nothing serves any more: cancel what is left in flight (the
        # queue cut loose above, or rows a failed dispatch abandoned)
        self._core.cancel()
        pool, self._pool = self._pool, None
        if pool is not None:
            await self._loop.run_in_executor(None, pool.close)

    # ------------------------------------------------------------------
    # ingress
    # ------------------------------------------------------------------
    def submit_nowait(self, query) -> asyncio.Future:
        """Admit one query row (:meth:`ServingCore.admit
        <repro.serve.core.ServingCore.admit>` says how); the Future
        resolves to a :class:`~repro.serve.ServeResult`.  Synchronous
        and non-blocking: the open-loop entry point."""
        if not self._started:
            raise ConfigError("server is not started; use 'async with' or await start()")
        if self._closed:
            raise ConfigError("server is closed")
        row, key = self._core.check(query)
        fut, pending = self._core.admit(row, key, len(self._queue), self._loop.create_future)
        if pending is not None:
            self._queue.append(pending)
            self._wakeup.set()
        return fut

    async def submit(self, query) -> ServeResult:
        """Awaitable single-query predict (admit, batch, answer)."""
        return await self.submit_nowait(query)

    # alias so the client surface matches PredictionService
    predict = submit

    async def predict_many(self, queries, *, details: bool = False):
        """Admit a block of query rows and gather answers in order.

        Returns an int32 label array, or the per-request
        :class:`~repro.serve.ServeResult` list when ``details=True``.
        Sheds propagate as :class:`~repro.errors.Overloaded`.
        """
        q = np.asarray(queries, dtype=np.float64)
        if q.ndim != 2:
            raise ConfigError(f"predict_many takes a 2-D query block, got shape {q.shape}")
        futures = [self.submit_nowait(row) for row in q]
        results = await asyncio.gather(*futures)
        if details:
            return list(results)
        return np.array([int(r) for r in results], dtype=np.int32)

    # ------------------------------------------------------------------
    # batching + dispatch
    # ------------------------------------------------------------------
    async def _batch_loop(self) -> None:
        while True:
            # a free worker first (the pool's capacity, mirrored on the
            # loop), then whatever queued by the time it was free: rows
            # that arrive while every worker is busy ride in this batch
            await self._dispatch_sem.acquire()
            while not self._queue and not self._closed:
                self._wakeup.clear()
                await self._wakeup.wait()
            batch = self._core.take_batch(self._queue)
            if not batch:
                return  # closed and drained
            task = self._loop.create_task(self._dispatch_batch(batch))
            self._dispatch_tasks.add(task)
            task.add_done_callback(self._dispatch_done)

    def _dispatch_done(self, task: asyncio.Task) -> None:
        self._dispatch_tasks.discard(task)
        self._dispatch_sem.release()

    async def _dispatch_batch(self, batch: List[Pending]) -> None:
        rows = np.stack([p.row for p in batch])
        t0 = time.perf_counter()
        try:
            with trace.span("serve.async.batch", size=len(batch)):
                labels, version = await self._loop.run_in_executor(
                    None, self._pool.predict, rows
                )
        except Exception as exc:
            if len(batch) > 1:
                # retry each unique row alone so one bad request cannot
                # poison its batch-mates
                for p in batch:
                    await self._dispatch_batch([p])
                return
            self._core.fail(batch[0], exc)
            return
        self._core.answer(batch, labels, version, t0)

    # ------------------------------------------------------------------
    # hot swap
    # ------------------------------------------------------------------
    def swap_artifact(self, artifact: str) -> int:
        """Propagate a new artifact version to every worker replica.

        Blocking and thread-safe (the :class:`~repro.serve.ModelRefresher`
        publish path calls it from plain sync code); the pool barrier
        guarantees in-flight batches finish on their old replica.
        Returns the new model version.
        """
        if self._pool is None:
            raise ConfigError("server is not started")
        version = self._pool.swap(artifact)
        return self._core.swap(load_replica(artifact), version)

    async def aswap_artifact(self, artifact: str) -> int:
        """:meth:`swap_artifact` without blocking the event loop."""
        return await self._loop.run_in_executor(None, self.swap_artifact, artifact)

    def stats(self, *, format: str = "dict"):
        """Serving counters (see :meth:`ServingCore.stats
        <repro.serve.core.ServingCore.stats>`), the same keys as
        :meth:`PredictionService.stats`."""
        return self._core.stats(format=format)


# ----------------------------------------------------------------------
# open-loop load generation
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LoadReport:
    """One open-loop load run: offered load in, SLO numbers out."""

    offered_qps: float
    requests: int
    accepted: int
    shed: int
    errors: int
    duration_s: float
    achieved_qps: float
    shed_rate: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    max_ms: float

    def to_dict(self) -> Dict[str, float]:
        return asdict(self)


async def open_loop_load(
    server: AsyncPredictionServer,
    queries,
    qps: float,
    *,
    burst: int = 1,
) -> LoadReport:
    """Drive ``server`` with an open-loop arrival stream at ``qps``.

    Open loop means arrivals are paced by the clock, not by completions
    — the i-th request (or burst of ``burst`` requests) is submitted at
    ``i * burst / qps`` seconds whether or not earlier ones have been
    answered, so queueing and shedding behave the way real traffic
    makes them behave.  Shed requests are counted, never retried.
    """
    if qps <= 0:
        raise ConfigError(f"qps must be > 0, got {qps}")
    if burst < 1:
        raise ConfigError(f"burst must be >= 1, got {burst}")
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim != 2:
        raise ConfigError(f"open_loop_load takes a 2-D query block, got shape {q.shape}")
    loop = asyncio.get_running_loop()
    start = loop.time()
    futures: List[asyncio.Future] = []
    shed = 0
    for i in range(0, q.shape[0], burst):
        target = start + (i / qps)
        delay = target - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        for row in q[i:i + burst]:
            try:
                futures.append(server.submit_nowait(row))
            except Overloaded:
                shed += 1
    results = await asyncio.gather(*futures, return_exceptions=True)
    duration = loop.time() - start
    ok = [r for r in results if isinstance(r, ServeResult)]
    errors = len(results) - len(ok)
    lats = [r.latency_s for r in ok]
    total = q.shape[0]
    return LoadReport(
        offered_qps=float(qps),
        requests=total,
        accepted=len(futures),
        shed=shed,
        errors=errors,
        duration_s=duration,
        achieved_qps=len(ok) / duration if duration > 0 else 0.0,
        shed_rate=shed / total if total else 0.0,
        p50_ms=percentile(lats, 50) * 1e3,
        p95_ms=percentile(lats, 95) * 1e3,
        p99_ms=percentile(lats, 99) * 1e3,
        max_ms=max(lats) * 1e3 if lats else 0.0,
    )
