"""The serving core: the one copy of the policy both front doors share.

:class:`~repro.serve.PredictionService` (worker threads) and
:class:`~repro.serve.AsyncPredictionServer` (asyncio + shard workers)
differ only in *transport*: how a free worker waits for queued rows,
and how a batch reaches the backend.  Every serving *decision* lives
here, once:

* **admission** — the row check (one finite 1-D row), the row digest,
  the LRU label cache, coalescing of identical in-flight rows (a
  duplicate rides on the original's backend row and never takes a queue
  slot), and shedding against ``queue_bound`` with
  :class:`~repro.errors.Overloaded`;
* **batch forming** — work-conserving: a free worker takes what is
  queued, up to ``batch_size`` rows, so rows fuse only while they queue
  behind busy workers;
* **resolution** — answering every waiter of a served batch (or failing
  it), the version-guarded cache write-back, and the profiler launch
  record;
* **hot swap** — the version bump and the cache invalidation in one
  critical section, so no cache hit can pair an old-model label with a
  new version;
* **stats** — lifetime counters, rolling latency / batch-size windows
  and :meth:`ServingCore.stats` in dict or Prometheus form, plus the one
  ``serve.*`` family of counters, gauges, histograms and instants.

All mutable state sits behind one lock.  A door with a queue lock of its
own calls :meth:`ServingCore.admit` while holding it (so the depth check
and the enqueue are one atomic step), which fixes the order door lock ->
core lock; the core never calls back into a door, and futures are
resolved after the core lock is released, so a done-callback may call
back into the service.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict, deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .._typing import check_finite
from ..errors import ConfigError, Overloaded
from ..gpu.launch import Launch
from ..gpu.profiler import Profiler
from ..obs import metrics, trace
from ..obs.export import stats_to_prometheus
from .config import ServeConfig, ServeResult

__all__ = ["Pending", "ServingCore", "check_model", "percentile", "predict_rows"]


def check_model(model) -> None:
    """Raise :class:`~repro.errors.ConfigError` unless ``model`` can serve."""
    if not hasattr(model, "predict"):
        raise ConfigError("model must expose the engine predict contract")
    if not hasattr(model, "labels_"):
        raise ConfigError("model is not fitted; fit (or load) it before serving")


def predict_rows(model, rows: np.ndarray, predict_kw: Dict, devices: Optional[int],
                 profiler: Optional[Profiler] = None) -> np.ndarray:
    """Label one served batch: sharded ``predict_batch`` across
    ``devices`` simulated devices when set, plain ``predict`` otherwise."""
    if devices is not None:
        labels = model.predict_batch([rows], devices=devices, profiler=profiler, **predict_kw)
    else:
        labels = model.predict(rows, **predict_kw)
    return np.asarray(labels, dtype=np.int32)


def percentile(values: Sequence[float], q: float) -> float:
    """Latency percentile with explicit edge cases.

    An empty window reports 0.0 (not NaN, and never raises) and a
    single-sample window reports that sample for every ``q``.
    """
    if len(values) == 0:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


class Pending:
    """One unique in-flight query row and every request waiting on it."""

    __slots__ = ("row", "key", "waiters")

    def __init__(self, row: np.ndarray, key: str, t0: float, future) -> None:
        self.row = row
        self.key = key
        #: (future, t_enqueue) pairs; index 0 is the request that took
        #: the queue slot, the rest coalesced onto it
        self.waiters: List[Tuple[object, float]] = [(future, t0)]


#: the lifetime entries of :meth:`ServingCore.stats`, in report order
_COUNTS = (
    "requests", "served", "cache_hits", "shed", "coalesced", "errors", "cancelled",
    "batches", "backend_rows", "queue_peak", "model_swaps",
)


class ServingCore:
    """Admission, resolution, swap and stats for one served model.

    Parameters
    ----------
    model:
        The fitted model being served (validated by :func:`check_model`).
    config:
        The door's :class:`~repro.serve.ServeConfig`.
    profiler:
        Receives one ``serve.predict_batch`` launch per served batch.
    """

    # Lock-discipline declaration (repro-lint RPR106, lockdep fixture):
    # every attribute below is mutated only while holding ``_lock``.
    _guarded_by = {
        "model": "_lock",
        "_version": "_lock",
        "_cache": "_lock",
        "_inflight": "_lock",
        "_counts": "_lock",
        "_batch_sizes": "_lock",
        "_latencies": "_lock",
        "_t_first": "_lock",
        "_t_last": "_lock",
    }

    def __init__(self, model, config: ServeConfig, profiler: Profiler) -> None:
        check_model(model)
        self.config = config
        self.profiler = profiler
        self._lock = threading.Lock()
        self.model = model
        self._version = 1
        self._cache: "OrderedDict[str, int]" = OrderedDict()
        self._inflight: Dict[str, Pending] = {}
        # lifetime totals (queue_peak is a high-water mark); the latency
        # and batch-size windows are bounded rolling deques
        self._counts = dict.fromkeys(_COUNTS, 0)
        self._batch_sizes: deque = deque(maxlen=config.latency_window)
        self._latencies: deque = deque(maxlen=config.latency_window)
        self._t_first: Optional[float] = None
        self._t_last: Optional[float] = None

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    @staticmethod
    def check(query) -> Tuple[np.ndarray, str]:
        """Validate one query row; returns it as contiguous float64 plus
        its digest (the cache and coalescing key).  A rejected row raises
        :class:`~repro.errors.ConfigError` and is not a request."""
        row = np.ascontiguousarray(np.asarray(query, dtype=np.float64))
        if row.ndim != 1:
            raise ConfigError(f"submit takes one 1-D query row, got shape {row.shape}")
        check_finite(row, name="query row")
        h = hashlib.sha1()
        h.update(str(row.shape).encode())
        h.update(row.tobytes())
        return row, h.hexdigest()

    def admit(self, row: np.ndarray, key: str, depth: int, new_future: Callable[[], object]):
        """Admit one checked row with ``depth`` requests already queued.

        ``new_future`` makes the door's future type
        (``concurrent.futures.Future`` or an event-loop future); the core
        only calls ``done`` / ``set_result`` / ``set_exception`` /
        ``cancel`` on it.

        Order of decisions: the LRU cache answers at once, an identical
        in-flight row coalesces, and a full queue sheds with
        :class:`~repro.errors.Overloaded`.  Returns ``(future, pending)``;
        ``pending`` is the new :class:`Pending` the door must enqueue, or
        None when the request needs no queue slot.
        """
        t0 = time.perf_counter()
        fut = new_future()
        pending = label = None
        shed = False
        bound = self.config.queue_bound
        with self._lock:
            self._counts["requests"] += 1
            if self._t_first is None:
                self._t_first = t0
            if self.config.cache_size:
                label = self._cache.get(key)
            if label is not None:
                self._cache.move_to_end(key)
                self._counts["cache_hits"] += 1
                self._counts["served"] += 1
                version = self._version
                now = time.perf_counter()
                self._latencies.append(now - t0)
                self._t_last = now
            elif key in self._inflight:
                self._inflight[key].waiters.append((fut, t0))
                self._counts["coalesced"] += 1
            elif bound is not None and depth >= bound:
                self._counts["shed"] += 1
                shed = True
            else:
                pending = self._inflight[key] = Pending(row, key, t0, fut)
                if depth >= self._counts["queue_peak"]:
                    self._counts["queue_peak"] = depth + 1
        instrumented = trace.enabled
        if instrumented:
            metrics.counter("serve.requests").inc()
        if shed:
            if instrumented:
                metrics.counter("serve.shed").inc()
                trace.instant("serve.shed", queued=depth)
            raise Overloaded(f"pending queue is full ({bound} requests); shed")
        if label is not None:
            if instrumented:
                metrics.counter("serve.cache_hits").inc()
            fut.set_result(
                ServeResult(label, model_version=version, cache_hit=True, latency_s=now - t0)
            )
        elif pending is None:
            if instrumented:
                metrics.counter("serve.coalesced").inc()
        elif instrumented:
            metrics.gauge("serve.queue_depth").max(depth + 1)
            trace.instant("serve.enqueue", queued=depth + 1)
        return fut, pending

    # ------------------------------------------------------------------
    # batch forming
    # ------------------------------------------------------------------
    def take_batch(self, queue: deque) -> List[Pending]:
        """Pop up to ``batch_size`` rows off the door's ``queue`` (under
        the door's guard), never waiting for more; a door calls this as
        soon as a worker is free."""
        return [queue.popleft() for _ in range(min(len(queue), self.config.batch_size))]

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def current(self):
        """``(model, version)`` read together: what the next batch runs on."""
        with self._lock:
            return self.model, self._version

    def answer(self, batch: List[Pending], labels, version: int, t0: float) -> None:
        """Resolve every waiter of a batch served by model ``version``.

        The labels enter the cache only while ``version`` is still the
        served one: a batch that raced a swap answers with the model it
        ran on, but must not seed the new model's cache.
        """
        t1 = time.perf_counter()
        labels = [int(label) for label in labels]
        cache_size = self.config.cache_size
        with self._lock:
            cache_ok = cache_size and version == self._version
            for p, label in zip(batch, labels):
                self._inflight.pop(p.key, None)
                if cache_ok:
                    self._cache[p.key] = label
                    self._cache.move_to_end(p.key)
                self._counts["served"] += len(p.waiters)
                self._latencies.extend([t1 - t for _, t in p.waiters])
            while len(self._cache) > cache_size:
                self._cache.popitem(last=False)
            self._counts["batches"] += 1
            self._counts["backend_rows"] += len(batch)
            self._batch_sizes.append(len(batch))
            self._t_last = t1
        # no waiter attaches once its row has left _inflight
        coalesced = sum(len(p.waiters) - 1 for p in batch)
        self.profiler.record(
            Launch(
                "serve.predict_batch",
                flops=0.0,
                bytes=float(len(batch) * batch[0].row.nbytes),
                time_s=t1 - t0,
                phase="serve",
                meta={"batch": len(batch), "coalesced": coalesced},
            )
        )
        hist = None
        if trace.enabled:
            metrics.counter("serve.batches").inc()
            hist = metrics.histogram("serve.latency_s")
        for p, label in zip(batch, labels):
            for i, (fut, t_enq) in enumerate(p.waiters):
                if hist is not None:
                    hist.observe(t1 - t_enq)
                if not fut.done():
                    fut.set_result(
                        ServeResult(
                            label, model_version=version, coalesced=i > 0, latency_s=t1 - t_enq
                        )
                    )

    def fail(self, p: Pending, exc: BaseException) -> None:
        """Fail every waiter of one row whose predict raised (a no-op for
        a row already answered, failed or cancelled)."""
        with self._lock:
            if self._inflight.get(p.key) is not p:
                return
            del self._inflight[p.key]
            self._counts["errors"] += len(p.waiters)
            self._t_last = time.perf_counter()
        if trace.enabled:
            metrics.counter("serve.errors").inc(len(p.waiters))
        for fut, _ in p.waiters:
            if not fut.done():
                fut.set_exception(exc)

    def cancel(self) -> None:
        """Cancel every waiter of every row still in flight; a door calls
        this on close, once nothing will serve those rows any more."""
        with self._lock:
            pending = list(self._inflight.values())
            self._inflight.clear()
        n = 0
        for p in pending:
            for fut, _ in p.waiters:
                if fut.cancel():
                    n += 1
                elif not fut.done():
                    fut.set_exception(ConfigError("closed before this request was served"))
        with self._lock:
            self._counts["cancelled"] += n
        if n and trace.enabled:
            metrics.counter("serve.cancelled").inc(n)

    # ------------------------------------------------------------------
    # hot swap
    # ------------------------------------------------------------------
    def swap(self, model, version: Optional[int] = None) -> int:
        """Serve ``model`` as ``version`` (default: the next one) and drop
        the cache, in one critical section; returns the new version."""
        check_model(model)
        with self._lock:
            self.model = model
            self._version = self._version + 1 if version is None else int(version)
            self._counts["model_swaps"] += 1
            self._cache.clear()
            version = self._version
        if trace.enabled:
            trace.instant("serve.model_swap", version=version)
            metrics.counter("serve.model_swaps").inc()
        return version

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def stats(self, *, format: str = "dict"):
        """Serving counters: latency percentiles, hit rate, queries/sec.

        ``format="dict"`` (default) returns the stats mapping;
        ``format="prom"`` returns the same numbers as Prometheus text
        exposition (``repro_serve_*`` metric families).

        Latency percentiles and the batch-size mean cover the bounded
        rolling window (``latency_window``); the counts and
        ``queries_per_s`` are lifetime totals.  ``backend_rows`` counts
        the unique rows that reached the backend; cache hits and
        coalesced duplicates never do.  Once every admitted request has
        resolved, ``requests == served + shed + errors + cancelled``.
        """
        if format not in ("dict", "prom"):
            raise ConfigError(f"format must be 'dict' or 'prom', got {format!r}")
        with self._lock:
            lat = list(self._latencies)
            sizes = list(self._batch_sizes)
            out = dict(self._counts)
            out["model_version"] = self._version
            span = (
                (self._t_last - self._t_first)
                if (self._t_first is not None and self._t_last is not None)
                else 0.0
            )
        n_req = out["requests"]
        out.update(
            cache_hit_rate=out["cache_hits"] / n_req if n_req else 0.0,
            mean_batch_size=float(np.mean(sizes)) if sizes else 0.0,
            latency_mean_ms=float(np.mean(lat)) * 1e3 if lat else 0.0,
            latency_p50_ms=percentile(lat, 50) * 1e3,
            latency_p95_ms=percentile(lat, 95) * 1e3,
            latency_p99_ms=percentile(lat, 99) * 1e3,
            latency_max_ms=float(np.max(lat)) * 1e3 if lat else 0.0,
            queries_per_s=out["served"] / span if span > 0 else 0.0,
            workers=self.config.n_workers,
        )
        if format == "prom":
            return stats_to_prometheus(out)
        return out
