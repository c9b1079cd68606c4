"""Hierarchical wall-clock span tracing (the real-time side of observability).

The simulated-device :class:`repro.gpu.Profiler` records *modeled* launch
costs; this module records what the *process* actually did: nested
wall-clock spans with attributes, one lane per thread, the way a real
tracer (Nsight ranges, OpenTelemetry spans) would.  The two timelines
meet in :mod:`repro.obs.export`, which writes them into one
Perfetto-loadable chrome-trace file.

Design constraints, in order:

1. **Zero-cost when off.**  Tracing defaults to disabled (set
   ``REPRO_TRACE=1`` to enable at import time, or call
   :func:`enable` / pass ``--trace-out`` on any CLI).  A disabled
   ``trace.span(...)`` returns one shared no-op context manager — no
   allocation, no clock read, no lock — so the hot loops keep their
   benchmarked numbers.
2. **Thread-safe.**  The parent stack lives in a
   :class:`contextvars.ContextVar` (fresh threads start with an empty
   stack, so worker spans root themselves on their own lane), and the
   finished-span list is guarded by one lock.
3. **Dependency-free.**  Stdlib only.

Span naming scheme (dotted, subsystem-first)::

    fit.iter / fit.distances / fit.argmin / fit.update / fit.inertia
    minibatch.cold_start / minibatch.batch / minibatch.assign / minibatch.update
    pool.task
    sharded.step / comm.allreduce / comm.allgather
    serve.enqueue / serve.shed / serve.model_swap   (both front doors)
    serve.batch                                     (thread door)
    serve.async.batch / serve.async.worker_predict / serve.async.pool_swap
    bench.experiment
"""

from __future__ import annotations

import contextvars
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "Span",
    "Tracer",
    "trace",
    "get_tracer",
    "enable",
    "disable",
    "trace_enabled_from_env",
]

#: falsy spellings of the ``REPRO_TRACE`` environment variable
_FALSY = {"", "0", "false", "no", "off"}


def trace_enabled_from_env(environ=None) -> bool:
    """Read the ``REPRO_TRACE`` gate (default off)."""
    env = os.environ if environ is None else environ
    return str(env.get("REPRO_TRACE", "0")).strip().lower() not in _FALSY


@dataclass(frozen=True)
class Span:
    """One finished wall-clock span.

    Timestamps are ``time.perf_counter()`` seconds; :meth:`Tracer.spans`
    consumers subtract the tracer epoch to get a zero-based timeline.
    """

    name: str
    t0: float
    t1: float
    span_id: int
    parent_id: Optional[int]
    thread_id: int
    thread_name: str
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.t1 - self.t0


class _NullSpan:
    """The shared no-op context manager returned while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()

#: (parent-ids tuple) — immutable so concurrent contexts never share state
_stack: contextvars.ContextVar[Tuple[int, ...]] = contextvars.ContextVar(
    "repro_obs_span_stack", default=()
)


class _ActiveSpan:
    """A live span; created only when the tracer is enabled."""

    __slots__ = ("_tracer", "name", "attrs", "_t0", "_span_id", "_parent_id", "_token")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, object]) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_ActiveSpan":
        stack = _stack.get()
        self._parent_id = stack[-1] if stack else None
        self._span_id = self._tracer._next_id()
        self._token = _stack.set(stack + (self._span_id,))
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        t1 = time.perf_counter()
        _stack.reset(self._token)
        th = threading.current_thread()
        self._tracer._finish(
            Span(
                name=self.name,
                t0=self._t0,
                t1=t1,
                span_id=self._span_id,
                parent_id=self._parent_id,
                thread_id=th.ident or 0,
                thread_name=th.name,
                attrs=self.attrs,
            )
        )
        return False


class Tracer:
    """Process-wide span recorder with an enable/disable gate.

    One module-level instance (:data:`trace`) serves the whole package;
    independent tracers are only built by tests.  All mutation is
    lock-guarded; :meth:`span` on a disabled tracer is a single attribute
    read plus returning a shared null context manager.
    """

    # lock-discipline declaration, checked by repro-lint rule RPR106
    _guarded_by = {"_spans": "_lock", "_id": "_lock"}

    def __init__(self, *, enabled: Optional[bool] = None) -> None:
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._id = 0
        self.epoch = time.perf_counter()
        self.enabled = trace_enabled_from_env() if enabled is None else bool(enabled)

    # -- gate ----------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    # -- recording -----------------------------------------------------
    def span(self, name: str, **attrs):
        """Context manager timing one named region (no-op when disabled)."""
        if not self.enabled:
            return _NULL_SPAN
        return _ActiveSpan(self, name, attrs)

    def instant(self, name: str, **attrs) -> None:
        """Record a zero-duration event (e.g. a model swap)."""
        if not self.enabled:
            return
        now = time.perf_counter()
        stack = _stack.get()
        th = threading.current_thread()
        self._finish(
            Span(
                name=name,
                t0=now,
                t1=now,
                span_id=self._next_id(),
                parent_id=stack[-1] if stack else None,
                thread_id=th.ident or 0,
                thread_name=th.name,
                attrs=attrs,
            )
        )

    def _next_id(self) -> int:
        with self._lock:
            self._id += 1
            return self._id

    def _finish(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    # -- reading -------------------------------------------------------
    def mark(self) -> int:
        """Current span count; pass to :meth:`spans`/:meth:`summary` as
        ``since`` to scope a window (e.g. one fit)."""
        with self._lock:
            return len(self._spans)

    def spans(self, since: int = 0) -> List[Span]:
        """Finished spans recorded at or after ``since`` (a :meth:`mark`)."""
        with self._lock:
            return list(self._spans[since:])

    def summary(self, since: int = 0) -> Dict[str, Dict[str, float]]:
        """Per-name aggregate: ``{name: {"count": n, "total_s": s}}``.

        This is what fitted estimators stash as their ``trace_``
        attribute — small, deterministic in shape, and diffable.
        """
        out: Dict[str, Dict[str, float]] = {}
        for s in self.spans(since):
            agg = out.setdefault(s.name, {"count": 0, "total_s": 0.0})
            agg["count"] += 1
            agg["total_s"] += s.duration_s
        return out

    def reset(self) -> None:
        """Drop all recorded spans and restart the epoch."""
        with self._lock:
            self._spans.clear()
            self._id = 0
            self.epoch = time.perf_counter()


#: the process-wide tracer every instrumented subsystem records to
trace = Tracer()


def get_tracer() -> Tracer:
    """The process-wide :class:`Tracer` instance."""
    return trace


def enable() -> None:
    """Turn the process-wide tracer on (equivalent to ``REPRO_TRACE=1``)."""
    trace.enable()


def disable() -> None:
    """Turn the process-wide tracer off (the default)."""
    trace.disable()
