"""Batched out-of-sample prediction service (the serving hot path).

:class:`PredictionService` turns a predict-capable estimator (anything
implementing the engine contract of
:class:`repro.engine.base.OutOfSamplePredictor`, fitted in-process or
reloaded via :func:`repro.serve.load_model`) into a concurrent query
server:

* **micro-batching** — requests land in a queue; worker threads drain it
  in batches of up to ``batch_size``, waiting at most ``max_delay_ms``
  after the first queued request, so one cross-kernel SpMM amortises over
  many queries instead of running per request;
* **LRU kernel-row cache** — results are memoised by a digest of the
  query row's exact bytes, so repeated queries (the heavy-traffic case)
  skip the kernel evaluation entirely;
* **thread-pool workers** — ``n_workers`` threads serve batches
  concurrently (the predict pipeline is pure read-only NumPy on the
  support set, so workers share the model safely);
* **hot swap** — :meth:`PredictionService.swap_model` atomically
  replaces the served model while requests are in flight: running
  batches finish on the model they started with, new batches see the
  new one, the label cache is invalidated, and no request is dropped
  (the online-refresh loop of :class:`repro.serve.ModelRefresher`);
* **stats** — per-request latency percentiles, batch-size distribution,
  cache hit rate and queries/sec via :meth:`stats`, and every served
  batch is recorded on an Nsight-style :class:`repro.gpu.Profiler`
  (``serve.predict_batch`` launches under the ``serve`` phase) so the
  existing profiling tooling reads serving runs too.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future
from typing import List, Optional, Sequence

import numpy as np

from ..errors import ConfigError, Overloaded
from ..gpu.launch import Launch
from ..gpu.profiler import Profiler
from ..obs import metrics, trace
from ..obs.export import stats_to_prometheus
from .config import ServeConfig, ServeResult

__all__ = ["PredictionService"]


class _Request:
    """One queued query row and the plumbing to answer it."""

    __slots__ = ("row", "key", "future", "t_enqueue")

    def __init__(self, row: np.ndarray, key: Optional[str]) -> None:
        self.row = row
        self.key = key
        self.future: Future = Future()
        self.t_enqueue = time.perf_counter()


class PredictionService:
    """Micro-batching prediction server over a fitted estimator.

    Parameters
    ----------
    model:
        A fitted estimator exposing the engine ``predict`` contract.
    config:
        A :class:`~repro.serve.ServeConfig` carrying every serving knob
        (batch window, queue bound, workers, cache, chunk schedule,
        devices).  The service clones it, so later mutation of the
        caller's config does not reach the running service.
    profiler:
        Optional shared :class:`~repro.gpu.Profiler`; a fresh one is
        created (and exposed as ``profiler_``) by default.
    **params:
        Back-compat keyword surface: the same names ``ServeConfig``
        declares (``batch_size=``, ``max_delay_ms=``, ``n_workers=``,
        ``queue_bound=``, ``cache_size=``, ``latency_window=``,
        ``chunk_rows=``, ``chunk_cols=``, ``n_threads=``, ``devices=``),
        validated through the identical :class:`~repro.params.ParamSpec` bounds.
        Mixing ``config=`` with keywords is a
        :class:`~repro.errors.ConfigError`.

    Futures resolve to :class:`~repro.serve.ServeResult` — an ``int``
    subclass carrying the label plus model version, cache provenance and
    latency — so historical bare-``int`` callers keep working unchanged.

    When ``queue_bound`` is set, a request arriving while that many are
    already pending is shed with :class:`~repro.errors.Overloaded`
    before it consumes any backend capacity (admission control).

    The service starts its workers immediately; use it as a context
    manager (or call :meth:`close`) to drain the queue and join them.
    """

    # The lock-discipline declaration (checked statically by repro-lint
    # rule RPR106, dynamically by the lockdep fixture): every attribute
    # below may only be mutated while holding the named lock.
    # ``_not_empty`` is a Condition built over ``_lock``, so holding
    # either name is holding the same lock.
    _guarded_by = {
        "_queue": ("_lock", "_not_empty"),
        "_cache": "_lock",
        "_closed": "_lock",
        "_model_version": "_lock",
        "_n_swaps": "_lock",
        "model": "_lock",
        "_n_requests": "_lock",
        "_n_served": "_lock",
        "_n_cache_hits": "_lock",
        "_n_shed": "_lock",
        "_n_batches": "_lock",
        "_batch_sizes": "_lock",
        "_latencies": "_lock",
        "_t_first": "_lock",
        "_t_last": "_lock",
    }

    def __init__(
        self,
        model,
        config: Optional[ServeConfig] = None,
        *,
        profiler: Optional[Profiler] = None,
        **params,
    ) -> None:
        if not hasattr(model, "predict"):
            raise ConfigError("model must expose the engine predict contract")
        if not hasattr(model, "labels_"):
            raise ConfigError("model is not fitted; fit (or load) it before serving")
        cfg = ServeConfig.coerce(config, params, owner="PredictionService")
        self.config = cfg
        self.model = model
        self.batch_size = cfg.batch_size
        self.max_delay_s = cfg.max_delay_s
        self.n_workers = cfg.n_workers
        self.queue_bound = cfg.queue_bound
        self.cache_size = cfg.cache_size
        self.chunk_rows = cfg.chunk_rows
        self.chunk_cols = cfg.chunk_cols
        self.n_threads = cfg.n_threads
        self.devices = cfg.devices
        self.profiler_ = profiler if profiler is not None else Profiler()

        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._queue: deque = deque()
        self._cache: "OrderedDict[str, int]" = OrderedDict()
        self._closed = False
        self._model_version = 1
        self._n_swaps = 0

        # stats (guarded by self._lock); the latency / batch-size windows
        # are bounded rolling deques — under sustained traffic the old
        # unbounded lists grew without limit — so ``served`` is counted
        # separately instead of read off the window length
        self.latency_window = cfg.latency_window
        self._n_requests = 0
        self._n_served = 0
        self._n_cache_hits = 0
        self._n_shed = 0
        self._n_batches = 0
        self._batch_sizes: deque = deque(maxlen=self.latency_window)
        self._latencies: deque = deque(maxlen=self.latency_window)
        self._t_first: Optional[float] = None
        self._t_last: Optional[float] = None

        self._workers = [
            threading.Thread(target=self._worker_loop, name=f"repro-serve-{i}", daemon=True)
            for i in range(self.n_workers)
        ]
        for w in self._workers:
            w.start()

    # ------------------------------------------------------------------
    # request entry points
    # ------------------------------------------------------------------
    def submit(self, query) -> Future:
        """Enqueue one query row; the Future resolves to a
        :class:`~repro.serve.ServeResult` (an ``int``-compatible label).

        Raises :class:`~repro.errors.Overloaded` when ``queue_bound`` is
        configured and that many requests are already pending.
        """
        row = np.ascontiguousarray(np.asarray(query, dtype=np.float64))
        if row.ndim != 1:
            raise ConfigError(f"submit takes one 1-D query row, got shape {row.shape}")
        key = self._digest(row) if self.cache_size else None
        req = _Request(row, key)
        instrumented = trace.enabled
        with self._lock:
            if self._closed:
                raise ConfigError("service is closed")
            self._n_requests += 1
            if instrumented:
                metrics.counter("serve.requests").inc()
            if self._t_first is None:
                self._t_first = req.t_enqueue
            if key is not None and key in self._cache:
                self._cache.move_to_end(key)
                label = self._cache[key]
                self._n_cache_hits += 1
                self._n_served += 1
                now = time.perf_counter()
                self._latencies.append(now - req.t_enqueue)
                self._t_last = now
                if instrumented:
                    metrics.counter("serve.cache_hits").inc()
                req.future.set_result(
                    ServeResult(
                        label,
                        model_version=self._model_version,
                        cache_hit=True,
                        latency_s=now - req.t_enqueue,
                    )
                )
                return req.future
            if self.queue_bound is not None and len(self._queue) >= self.queue_bound:
                # admission control: shed before the request costs anything
                self._n_shed += 1
                if instrumented:
                    metrics.counter("serve.shed").inc()
                raise Overloaded(
                    f"pending queue is full ({self.queue_bound} requests); shed"
                )
            self._queue.append(req)
            if instrumented:
                metrics.gauge("serve.queue_depth").max(len(self._queue))
                trace.instant("serve.enqueue", queued=len(self._queue))
            self._not_empty.notify()
        return req.future

    def predict(self, query) -> ServeResult:
        """Blocking single-query predict through the batching queue.

        Returns a :class:`~repro.serve.ServeResult`: the label as an
        ``int`` subclass (the historical return contract) plus model
        version, cache provenance, and latency.
        """
        return self.submit(query).result()

    def predict_many(
        self,
        queries,
        *,
        timeout: Optional[float] = None,
        details: bool = False,
    ):
        """Enqueue a block of query rows and gather answers in order.

        Returns an int32 label array (the historical contract), or the
        full per-request :class:`~repro.serve.ServeResult` list when
        ``details=True``.
        """
        q = np.asarray(queries, dtype=np.float64)
        if q.ndim != 2:
            raise ConfigError(f"predict_many takes a 2-D query block, got shape {q.shape}")
        futures = [self.submit(row) for row in q]
        results = [f.result(timeout=timeout) for f in futures]
        if details:
            return results
        return np.array([int(r) for r in results], dtype=np.int32)

    # ------------------------------------------------------------------
    # worker machinery
    # ------------------------------------------------------------------
    @staticmethod
    def _digest(row: np.ndarray) -> str:
        h = hashlib.sha1()
        h.update(str(row.shape).encode())
        h.update(row.tobytes())
        return h.hexdigest()

    def _next_batch(self) -> Optional[List[_Request]]:
        """Block until a batch is ready; None means shut down."""
        with self._not_empty:
            while not self._queue and not self._closed:
                self._not_empty.wait(0.05)
            if not self._queue:
                return None  # closed and drained
            batch = [self._queue.popleft()]
            deadline = batch[0].t_enqueue + self.max_delay_s
            while len(batch) < self.batch_size:
                if self._queue:
                    batch.append(self._queue.popleft())
                    continue
                remaining = deadline - time.perf_counter()
                if remaining <= 0 or self._closed:
                    break
                self._not_empty.wait(remaining)
            return batch

    def _worker_loop(self) -> None:
        while True:
            batch = self._next_batch()
            if batch is None:
                return
            try:
                self._run_batch(batch)
            except BaseException as exc:  # pragma: no cover - defensive
                # _run_batch isolates per-request failures itself; anything
                # escaping it (post-predict bookkeeping, SystemExit) would
                # orphan the popped requests' futures and — worse — kill
                # the worker so later-queued futures hang forever.  Resolve
                # what this worker holds and keep the loop alive.
                for req in batch:
                    if not req.future.done():
                        req.future.set_exception(
                            exc
                            if isinstance(exc, Exception)
                            else RuntimeError(f"serve worker aborted: {exc!r}")
                        )
                if not isinstance(exc, Exception):
                    raise

    def _run_batch(self, batch: List[_Request]) -> None:
        t0 = time.perf_counter()
        # bind the model once per batch: swap_model may replace self.model
        # mid-flight, and a batch must run start-to-finish on one
        # consistent model (the predict pipeline is read-only on it)
        model = self.model
        version = self._model_version
        try:
            rows = np.stack([req.row for req in batch])
            kw = {
                "chunk_rows": self.chunk_rows,
                "chunk_cols": self.chunk_cols,
                "n_threads": self.n_threads,
            }
            with trace.span("serve.batch", size=len(batch), version=version):
                if self.devices is not None:
                    labels = model.predict_batch(
                        [rows],
                        devices=self.devices,
                        profiler=self.profiler_,
                        **kw,
                    )
                else:
                    labels = model.predict(rows, **kw)
        except Exception as exc:
            # a fused batch can fail on one bad request (e.g. a ragged row);
            # retry each request alone so the error stays with its sender
            # instead of poisoning batch-mates — and the worker survives
            if len(batch) > 1:
                for req in batch:
                    self._run_batch([req])
                return
            with self._lock:
                self._t_last = time.perf_counter()
            batch[0].future.set_exception(exc)
            return
        t1 = time.perf_counter()
        self.profiler_.record(
            Launch(
                "serve.predict_batch",
                flops=0.0,
                bytes=float(rows.nbytes),
                time_s=t1 - t0,
                phase="serve",
                meta={"batch": len(batch)},
            )
        )
        instrumented = trace.enabled
        if instrumented:
            metrics.counter("serve.batches").inc()
            hist = metrics.histogram("serve.latency_s")
            for req in batch:
                hist.observe(t1 - req.t_enqueue)
        with self._lock:
            self._n_batches += 1
            self._batch_sizes.append(len(batch))
            self._n_served += len(batch)
            for req in batch:
                self._latencies.append(t1 - req.t_enqueue)
            self._t_last = t1
            # a batch that raced with a swap still answers (its labels are
            # consistent with the model it ran on), but must not seed the
            # new model's cache with stale results
            if self.cache_size and version == self._model_version:
                with trace.span("serve.cache_writeback", size=len(batch)):
                    for req, label in zip(batch, labels):
                        self._cache[req.key] = int(label)
                        self._cache.move_to_end(req.key)
                    while len(self._cache) > self.cache_size:
                        self._cache.popitem(last=False)
        for req, label in zip(batch, labels):
            req.future.set_result(
                ServeResult(
                    int(label),
                    model_version=version,
                    latency_s=t1 - req.t_enqueue,
                )
            )

    # ------------------------------------------------------------------
    # hot swap
    # ------------------------------------------------------------------
    def swap_model(self, model) -> int:
        """Atomically replace the served model; returns the new version.

        In-flight batches finish on the model they started with (workers
        bind it once per batch), queued and future requests see the new
        one, and the label cache is invalidated — so no request is ever
        dropped or answered from a half-swapped state.  The served model
        version (``stats()["model_version"]``) increments per swap.
        """
        if not hasattr(model, "predict"):
            raise ConfigError("model must expose the engine predict contract")
        if not hasattr(model, "labels_"):
            raise ConfigError("model is not fitted; fit (or load) it before serving")
        with self._lock:
            if self._closed:
                raise ConfigError("service is closed")
            self.model = model
            self._model_version += 1
            self._n_swaps += 1
            self._cache.clear()
            version = self._model_version
        if trace.enabled:
            trace.instant("serve.model_swap", version=version)
            metrics.counter("serve.model_swaps").inc()
        return version

    # ------------------------------------------------------------------
    # lifecycle + stats
    # ------------------------------------------------------------------
    def close(self, *, drain: bool = True) -> None:
        """Stop the service; every outstanding Future resolves.

        ``drain=True`` (default) lets the workers serve everything
        already queued before they exit; ``drain=False`` cancels the
        queued requests immediately (in-flight batches still finish).
        Either way no Future is left pending: anything still queued
        after the workers are joined — possible only if a worker died —
        is cancelled, so a request enqueued just before close can never
        hang its ``result()`` caller.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            leftovers: List[_Request] = []
            if not drain:
                leftovers = list(self._queue)
                self._queue.clear()
            self._not_empty.notify_all()
        self._cancel_requests(leftovers)
        for w in self._workers:
            w.join()
        # deterministic backstop: a dead worker may have left requests
        # queued (or a submit raced the close); nothing will serve them now
        with self._lock:
            leftovers = list(self._queue)
            self._queue.clear()
        self._cancel_requests(leftovers)

    @staticmethod
    def _cancel_requests(requests: List[_Request]) -> None:
        for req in requests:
            if not req.future.cancel() and not req.future.done():
                req.future.set_exception(
                    ConfigError("service closed before this request was served")
                )

    def __enter__(self) -> "PredictionService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @staticmethod
    def _percentile(values: Sequence[float], q: float) -> float:
        """Latency percentile with explicit edge cases.

        An empty window reports 0.0 (not NaN, and never raises) and a
        single-sample window reports that sample for every ``q`` —
        ``np.percentile`` would interpolate a one-point "distribution"
        the same way, but the contract is now explicit and holds for any
        sequence type the rolling window hands in.
        """
        if len(values) == 0:
            return 0.0
        if len(values) == 1:
            return float(values[0])
        return float(np.percentile(np.asarray(values, dtype=np.float64), q))

    def stats(self, *, format: str = "dict"):
        """Serving counters: latency percentiles, hit rate, queries/sec.

        ``format="dict"`` (default) returns the stats mapping;
        ``format="prom"`` returns the same numbers as Prometheus text
        exposition (``repro_serve_*`` metric families) — what
        ``repro-serve stats --format prom`` prints.

        Latency percentiles and the batch-size mean are computed over
        the bounded rolling window (``latency_window``); ``requests`` /
        ``served`` / ``queries_per_s`` are lifetime totals.
        """
        if format not in ("dict", "prom"):
            raise ConfigError(f"format must be 'dict' or 'prom', got {format!r}")
        with self._lock:
            lat = list(self._latencies)
            n_req = self._n_requests
            served = self._n_served
            hits = self._n_cache_hits
            shed = self._n_shed
            batches = self._n_batches
            sizes = list(self._batch_sizes)
            version = self._model_version
            swaps = self._n_swaps
            span = (
                (self._t_last - self._t_first)
                if (self._t_first is not None and self._t_last is not None)
                else 0.0
            )
        out = {
            "requests": n_req,
            "served": served,
            "cache_hits": hits,
            "cache_hit_rate": hits / n_req if n_req else 0.0,
            "shed": shed,
            "batches": batches,
            "mean_batch_size": float(np.mean(sizes)) if sizes else 0.0,
            "latency_mean_ms": float(np.mean(lat)) * 1e3 if lat else 0.0,
            "latency_p50_ms": self._percentile(lat, 50) * 1e3,
            "latency_p95_ms": self._percentile(lat, 95) * 1e3,
            "latency_max_ms": float(np.max(lat)) * 1e3 if lat else 0.0,
            "queries_per_s": served / span if span > 0 else 0.0,
            "model_version": version,
            "model_swaps": swaps,
        }
        if format == "prom":
            return stats_to_prometheus(out)
        return out
