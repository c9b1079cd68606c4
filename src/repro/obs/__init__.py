"""``repro.obs`` — dependency-free runtime observability.

Three layers, all stdlib-only:

* :mod:`repro.obs.tracing` — hierarchical wall-clock spans recorded on a
  process-wide :data:`~repro.obs.tracing.trace` tracer
  (``with trace.span("fit.iter", iter=i): ...``), gated off by default
  (``REPRO_TRACE=1`` or :func:`enable` turns it on);
* :mod:`repro.obs.metrics` — process-wide counters / gauges /
  fixed-bucket histograms on :data:`~repro.obs.metrics.metrics`;
* :mod:`repro.obs.export` — JSONL event log, combined Perfetto /
  chrome-trace (real spans + modeled profiler lanes in one file), and
  Prometheus text exposition.

See the README "Observability" section for the span/metric naming
scheme and the Perfetto workflow.

Names are dotted-lowercase, subsystem-first (``serve.async.worker_predict``,
``fit.iter``), and a metric name keeps one kind tree-wide — enforced at
lint time by rule RPR107.  The thread-safe instruments declare their
locking contract in class-level ``_guarded_by`` dicts (attr → lock
attribute), checked statically by rule RPR106 and dynamically by the
``lockdep`` pytest fixture (see ``repro-lint explain RPR106``).
"""

from .export import (
    combined_chrome_trace,
    estimator_profilers,
    prometheus_text,
    spans_to_chrome_events,
    stats_to_prometheus,
    write_combined_trace,
    write_jsonl,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    metrics,
)
from .tracing import (
    Span,
    Tracer,
    disable,
    enable,
    get_tracer,
    trace,
    trace_enabled_from_env,
)

__all__ = [
    # tracing
    "Span",
    "Tracer",
    "trace",
    "get_tracer",
    "enable",
    "disable",
    "trace_enabled_from_env",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "metrics",
    "get_registry",
    # exporters
    "spans_to_chrome_events",
    "combined_chrome_trace",
    "write_combined_trace",
    "write_jsonl",
    "prometheus_text",
    "stats_to_prometheus",
    "estimator_profilers",
]
