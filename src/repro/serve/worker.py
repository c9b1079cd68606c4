"""Shard worker pool: one model replica per worker, swap-aware dispatch.

The async front door (:mod:`repro.serve.frontdoor`) does not predict in
its own process.  Batches go to a :class:`ShardWorkerPool` of workers,
each hosting one replica of the served model loaded from a versioned
artifact — the deployment shape of the ROADMAP's serving tier, where
model state lives behind a process boundary and the ingress only routes.

Workers speak one message protocol (``predict`` / ``swap`` / ``stop``),
answered by one in-process replica, :class:`_InlineShardWorker`: it is
the whole worker of an inline pool (deterministic tests, quick
benchmarks, model objects without an artifact) and the replica inside
each :class:`_ProcessShardWorker`, a ``multiprocessing`` child on a
duplex pipe that loads its model from the artifact (so what serves is
exactly what a process restart would load).

Dispatch is a free-list ``queue.Queue``: a predict borrows any idle
worker (blocking when all are busy — the pool is the backpressure the
front door's semaphore mirrors), and :meth:`ShardWorkerPool.swap`
borrows *all* workers before propagating a new artifact, so a swap is a
barrier: every replica answers with one consistent model version, and
no batch ever runs on a half-swapped pool.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import sys
import threading
from typing import List, Optional, Tuple

import numpy as np

from ..errors import ConfigError, ReproError
from ..obs import metrics, trace
from .core import predict_rows

__all__ = ["ShardWorkerPool", "ShardWorkerError"]


class ShardWorkerError(ReproError, RuntimeError):
    """A shard worker failed (predict error in the child, or a dead
    worker process); the batch that hit it gets this exception."""


def _shard_worker_main(worker_id: int, conn, artifact: str, sys_path: List[str]) -> None:
    """Child-process loop: load the replica, answer the pipe protocol."""
    # a spawn-started child does not inherit sys.path mutations
    # (PYTHONPATH=src test runs, editable installs); replay the parent's
    for entry in sys_path:
        if entry not in sys.path:
            sys.path.append(entry)
    try:
        replica = _InlineShardWorker(worker_id, artifact)
        conn.send(("ready", None, replica.version))
    except BaseException as exc:
        try:
            conn.send(("error", f"failed to load {artifact!r}: {exc!r}", 0))
        finally:
            conn.close()
        return
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg[0] == "stop":
            conn.close()
            return
        try:
            payload, version = replica.handle(msg)
            conn.send(("ok", payload, version))
        except Exception as exc:
            conn.send(("error", repr(exc), replica.version))


def load_replica(source):
    """The model an artifact path holds, or ``source`` itself when it is
    already a model object."""
    if isinstance(source, (str, os.PathLike)):
        from .persist import load_model

        return load_model(os.fspath(source))
    return source


class _ProcessShardWorker:
    """Parent-side handle of one worker process (pipe + liveness)."""

    def __init__(self, worker_id: int, artifact: str, ctx) -> None:
        self.worker_id = worker_id
        self._conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_shard_worker_main,
            args=(worker_id, child_conn, artifact, list(sys.path)),
            name=f"repro-shard-{worker_id}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        status, payload, version = self._conn.recv()
        if status != "ready":
            self.process.join(timeout=5.0)
            raise ConfigError(f"shard worker {worker_id} {payload}")
        self.version = version

    def request(self, msg: Tuple) -> Tuple[Optional[np.ndarray], int]:
        try:
            self._conn.send(msg)
            status, payload, version = self._conn.recv()
        except (EOFError, OSError, BrokenPipeError) as exc:
            raise ShardWorkerError(
                f"shard worker {self.worker_id} died mid-request: {exc!r}"
            ) from exc
        self.version = version
        if status != "ok":
            raise ShardWorkerError(f"shard worker {self.worker_id}: {payload}")
        return payload, version

    def stop(self) -> None:
        try:
            self._conn.send(("stop",))
        except (OSError, BrokenPipeError, ValueError):
            pass
        self.process.join(timeout=5.0)
        if self.process.is_alive():  # pragma: no cover - defensive
            self.process.terminate()
            self.process.join(timeout=5.0)
        self._conn.close()


class _InlineShardWorker:
    """One model replica answering the protocol in-process: the whole
    worker of an inline pool (tests, quick benches, and model objects
    that never went through an artifact), and the replica inside every
    worker process."""

    def __init__(self, worker_id: int, source) -> None:
        self.worker_id = worker_id
        self.model = load_replica(source)
        self.version = 1

    def handle(self, msg: Tuple) -> Tuple[Optional[np.ndarray], int]:
        """Answer one ``predict`` or ``swap`` message; errors propagate."""
        if msg[0] == "predict":
            return predict_rows(self.model, *msg[1:4]), self.version
        if msg[0] == "swap":
            self.model = load_replica(msg[1])
            self.version += 1
            return None, self.version
        raise ShardWorkerError(f"unknown command {msg[0]!r}")

    def request(self, msg: Tuple) -> Tuple[Optional[np.ndarray], int]:
        try:
            return self.handle(msg)
        except Exception as exc:
            raise ShardWorkerError(f"shard worker {self.worker_id}: {exc!r}") from exc

    def stop(self) -> None:
        self.model = None


class ShardWorkerPool:
    """A fixed pool of model-replica workers behind a free-list.

    Parameters
    ----------
    source:
        Artifact path every worker loads its replica from.  With
        ``processes=False`` an already-fitted model object is also
        accepted (the inline replicas then share it read-only, exactly
        like :class:`~repro.serve.PredictionService` worker threads).
    n_workers:
        Replica count; also the pool's concurrency.
    devices:
        Forwarded to ``predict_batch(devices=...)`` per batch (each
        worker shards its rows across this many simulated devices);
        ``None`` predicts unsharded.
    chunk_rows, chunk_cols, n_threads:
        Reduction-schedule keywords forwarded to every predict.
    processes:
        True (default) starts one OS process per worker; False serves
        inline — deterministic, artifact-optional, and what the quick
        bench mode uses.
    start_method:
        ``multiprocessing`` start method (``None`` = platform default,
        the same choice the bench runner's process pool makes).

    ``predict`` blocks while every worker is busy — the pool itself is
    the backpressure signal the async front door's dispatch semaphore
    mirrors — and :meth:`swap` is a full-pool barrier (see module docs).
    """

    def __init__(
        self,
        source,
        *,
        n_workers: int = 1,
        devices: Optional[int] = None,
        chunk_rows: Optional[int] = None,
        chunk_cols: Optional[int] = None,
        n_threads: Optional[int] = None,
        processes: bool = True,
        start_method: Optional[str] = None,
    ) -> None:
        if n_workers < 1:
            raise ConfigError(f"n_workers must be >= 1, got {n_workers}")
        if devices is not None and devices < 1:
            raise ConfigError(f"devices must be >= 1, got {devices}")
        self.n_workers = int(n_workers)
        self.devices = None if devices is None else int(devices)
        self.processes = bool(processes)
        self._predict_kw = {
            "chunk_rows": chunk_rows,
            "chunk_cols": chunk_cols,
            "n_threads": n_threads,
        }
        if self.processes:
            if not isinstance(source, (str, os.PathLike)):
                raise ConfigError(
                    "process shard workers load their replica from a versioned "
                    "artifact; pass its path (or processes=False to serve a "
                    "model object inline)"
                )
            ctx = multiprocessing.get_context(start_method)
            self._workers: List = []
            try:
                for i in range(self.n_workers):
                    self._workers.append(
                        _ProcessShardWorker(i, os.fspath(source), ctx)
                    )
            except BaseException:
                for w in self._workers:
                    w.stop()
                raise
        else:
            self._workers = [
                _InlineShardWorker(i, source) for i in range(self.n_workers)
            ]
        self._free: "queue.Queue" = queue.Queue()
        for w in self._workers:
            self._free.put(w)
        self._swap_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    def predict(self, rows: np.ndarray) -> Tuple[np.ndarray, int]:
        """Serve one batch on any idle worker; returns ``(labels,
        model_version)`` where the version is the worker's at answer
        time (the front door's cache write-back guard)."""
        if self._closed:
            raise ConfigError("worker pool is closed")
        worker = self._free.get()
        try:
            with trace.span(
                "serve.async.worker_predict",
                worker=worker.worker_id,
                rows=int(rows.shape[0]),
            ):
                labels, version = worker.request(
                    ("predict", rows, self._predict_kw, self.devices)
                )
        finally:
            # a worker that raised stays in rotation: a dead process fails
            # fast on its broken pipe instead of silently shrinking the
            # pool (and possibly deadlocking swap's all-worker barrier)
            self._free.put(worker)
        return labels, version

    def swap(self, artifact: str) -> int:
        """Propagate a new artifact to every replica; returns the new
        version.  Grabs all workers first, so in-flight batches finish
        on their old replica and no batch spans the swap."""
        if self._closed:
            raise ConfigError("worker pool is closed")
        with self._swap_lock:
            held = [self._free.get() for _ in range(self.n_workers)]
            versions = []
            try:
                for w in held:
                    versions.append(w.request(("swap", os.fspath(artifact)))[1])
            finally:
                for w in held:
                    self._free.put(w)
        if trace.enabled:
            trace.instant("serve.async.pool_swap", version=max(versions))
            metrics.counter("serve.async.pool_swaps").inc()
        return max(versions)

    def close(self) -> None:
        """Stop every worker (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for w in self._workers:
            w.stop()

    def __enter__(self) -> "ShardWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
