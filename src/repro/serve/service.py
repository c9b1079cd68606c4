"""The thread front door: micro-batching worker threads.

:class:`PredictionService` serves a predict-capable estimator (fitted
in-process or reloaded via :func:`repro.serve.load_model`) to
concurrent callers.  Its serving policy — row check, cache, coalescing,
admission, batch forming, swap bookkeeping, stats — is the
:class:`~repro.serve.core.ServingCore` it shares with the asyncio door;
its transport is a queue behind one ``Condition``, drained by
``n_workers`` threads.  A free thread takes whatever is queued, up to
``batch_size`` rows, without waiting for more, and labels it with one
in-process ``predict``: one cross-kernel SpMM amortises over every query
that queued while the workers were busy.
:meth:`PredictionService.swap_model` replaces the model under load
without dropping a request (the online-refresh loop of
:class:`repro.serve.ModelRefresher`).  Batches are traced as
``serve.batch`` spans.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import List, Optional

import numpy as np

from ..errors import ConfigError
from ..gpu.profiler import Profiler
from ..obs import trace
from .config import ServeConfig, ServeResult
from .core import Pending, ServingCore, predict_rows

__all__ = ["PredictionService"]


class PredictionService:
    """Micro-batching prediction server over a fitted estimator.

    Parameters
    ----------
    model:
        A fitted estimator exposing the engine ``predict`` contract.
    config:
        A :class:`~repro.serve.ServeConfig` carrying every serving knob
        (batch size, queue bound, workers, cache, chunk schedule,
        devices).  The service clones it, so later mutation of the
        caller's config does not reach the running service.
    profiler:
        Optional shared :class:`~repro.gpu.Profiler`; a fresh one is
        created (and exposed as ``profiler_``) by default.
    **params:
        The same names ``ServeConfig`` declares, as loose keywords;
        mixing ``config=`` with keywords is a
        :class:`~repro.errors.ConfigError`.

    Futures resolve to :class:`~repro.serve.ServeResult`.  The service
    starts its workers immediately; use it as a context manager (or
    call :meth:`close`) to drain the queue and join them.
    """

    # Lock-discipline declaration (repro-lint RPR106, lockdep fixture):
    # ``_not_empty`` is a Condition built over ``_lock``, so holding either
    # name is holding the same lock.  The serving state is the core's,
    # under the core's own lock, always taken after this one.
    _guarded_by = {
        "_queue": ("_lock", "_not_empty"),
        "_closed": ("_lock", "_not_empty"),
    }

    def __init__(
        self,
        model,
        config: Optional[ServeConfig] = None,
        *,
        profiler: Optional[Profiler] = None,
        **params,
    ) -> None:
        cfg = ServeConfig.coerce(config, params, owner="PredictionService")
        self.config = cfg
        self.profiler_ = profiler if profiler is not None else Profiler()
        self._core = ServingCore(model, cfg, self.profiler_)
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._queue: deque = deque()
        self._closed = False
        self._workers = [
            threading.Thread(target=self._worker_loop, name=f"repro-serve-{i}", daemon=True)
            for i in range(cfg.n_workers)
        ]
        for w in self._workers:
            w.start()

    @property
    def model(self):
        """The model currently served (replaced by :meth:`swap_model`)."""
        return self._core.model

    # ------------------------------------------------------------------
    # request entry points
    # ------------------------------------------------------------------
    def submit(self, query) -> Future:
        """Admit one query row (:meth:`ServingCore.admit
        <repro.serve.core.ServingCore.admit>` says how); the Future
        resolves to a :class:`~repro.serve.ServeResult`."""
        row, key = self._core.check(query)
        with self._not_empty:
            if self._closed:
                raise ConfigError("service is closed")
            fut, pending = self._core.admit(row, key, len(self._queue), Future)
            if pending is not None:
                self._queue.append(pending)
                self._not_empty.notify()
        return fut

    def predict(self, query) -> ServeResult:
        """Blocking single-query predict through the batching queue."""
        return self.submit(query).result()

    def predict_many(
        self,
        queries,
        *,
        timeout: Optional[float] = None,
        details: bool = False,
    ):
        """Enqueue a block of query rows and gather answers in order.

        Returns an int32 label array, or the per-request
        :class:`~repro.serve.ServeResult` list when ``details=True``.
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
    def _next_batch(self) -> Optional[List[Pending]]:
        """Block until a row is queued, then take what is queued; None
        means shut down (closed and drained)."""
        with self._not_empty:
            while not self._queue and not self._closed:
                self._not_empty.wait()
            return self._core.take_batch(self._queue) or None

    def _worker_loop(self) -> None:
        while True:
            batch = self._next_batch()
            if batch is None:
                return
            try:
                self._run_batch(batch)
            except BaseException as exc:  # pragma: no cover - defensive
                # _run_batch isolates per-request failures itself; anything
                # escaping it would orphan the batch's futures and kill the
                # worker, so later-queued futures would hang forever
                err = exc if isinstance(exc, Exception) else RuntimeError(
                    f"serve worker aborted: {exc!r}"
                )
                for p in batch:
                    self._core.fail(p, err)
                if not isinstance(exc, Exception):
                    raise

    def _run_batch(self, batch: List[Pending]) -> None:
        t0 = time.perf_counter()
        # one consistent (model, version) per batch: swap_model may replace
        # the model mid-flight, and the batch must run on the one it names
        model, version = self._core.current()
        cfg = self.config
        try:
            rows = np.stack([p.row for p in batch])
            with trace.span("serve.batch", size=len(batch), version=version):
                labels = predict_rows(
                    model, rows, cfg.predict_kwargs(), cfg.devices, self.profiler_
                )
        except Exception as exc:
            # a fused batch can fail on one bad request (e.g. a ragged row);
            # retry each request alone so the error stays with its sender
            if len(batch) > 1:
                for p in batch:
                    self._run_batch([p])
                return
            self._core.fail(batch[0], exc)
            return
        self._core.answer(batch, labels, version, t0)

    # ------------------------------------------------------------------
    # hot swap
    # ------------------------------------------------------------------
    def swap_model(self, model) -> int:
        """Atomically replace the served model; returns the new version.

        In-flight batches finish on the model they started with, queued
        and future requests see the new one, and the label cache is
        invalidated — no request is dropped or answered from a
        half-swapped state.
        """
        with self._not_empty:
            if self._closed:
                raise ConfigError("service is closed")
            return self._core.swap(model)

    # ------------------------------------------------------------------
    # lifecycle + stats
    # ------------------------------------------------------------------
    def close(self, *, drain: bool = True) -> None:
        """Stop the service; every outstanding Future resolves.

        ``drain=True`` (default) lets the workers serve everything
        already queued before they exit; ``drain=False`` cancels the
        queued requests (batches already running still finish).
        Anything left in flight after the workers are joined — possible
        only if a worker died — is cancelled too.
        """
        with self._not_empty:
            if self._closed:
                return
            self._closed = True
            if not drain:
                self._queue = deque()
            self._not_empty.notify_all()
        for w in self._workers:
            w.join()
        # nothing serves any more: cancel what is left in flight (the
        # queue cut loose above, or rows a dead worker abandoned)
        self._core.cancel()

    def __enter__(self) -> "PredictionService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def stats(self, *, format: str = "dict"):
        """Serving counters (see :meth:`ServingCore.stats
        <repro.serve.core.ServingCore.stats>`); ``format="prom"`` gives
        Prometheus text — what ``repro-serve stats --format prom``
        prints."""
        return self._core.stats(format=format)
