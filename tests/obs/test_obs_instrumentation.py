"""End-to-end instrumentation: the spans each subsystem actually emits."""

import numpy as np
import pytest

from repro.estimators import make_estimator
from repro.obs import metrics, trace


@pytest.fixture()
def traced():
    """Enable the global tracer for one test, restoring prior state."""
    was_enabled = trace.enabled
    mark = trace.mark()
    trace.enable()
    try:
        yield lambda: trace.summary(since=mark)
    finally:
        trace.enabled = was_enabled


def _x(n=90, d=6, seed=0):
    return np.random.default_rng(seed).standard_normal((n, d))


def _est(backend="host", **kw):
    kw.setdefault("max_iter", 4)
    kw.setdefault("check_convergence", False)
    return make_estimator(
        "popcorn", n_clusters=3, backend=backend, kernel="linear",
        dtype=np.float64, seed=0, **kw,
    )


class TestFitSpans:
    def test_host_fit_emits_one_iter_span_per_iteration(self, traced):
        est = _est().fit(_x())
        summary = traced()
        assert summary["fit.iter"]["count"] == 4
        for phase in ("fit.distances", "fit.argmin", "fit.update", "fit.inertia"):
            assert summary[phase]["count"] == 4
        # the fitted estimator carries its own window as trace_
        assert est.trace_["fit.iter"]["count"] == 4

    def test_trace_attr_empty_when_disabled(self):
        was_enabled = trace.enabled
        trace.disable()
        try:
            est = _est().fit(_x())
        finally:
            trace.enabled = was_enabled
        assert est.trace_ == {}

    def test_tracing_never_changes_labels(self):
        was_enabled = trace.enabled
        trace.disable()
        try:
            plain = _est().fit(_x())
        finally:
            trace.enabled = was_enabled
        mark = trace.mark()
        trace.enable()
        try:
            traced_est = _est().fit(_x())
        finally:
            trace.enabled = was_enabled
        del mark
        assert np.array_equal(plain.labels_, traced_est.labels_)
        assert plain.objective_ == traced_est.objective_


class TestPoolSpans:
    def test_threaded_fit_emits_pool_tasks_on_worker_lanes(self, traced):
        _est(chunk_rows=20, n_threads=2).fit(_x())
        summary = traced()
        assert summary["pool.task"]["count"] > 0
        snap = metrics.snapshot()
        assert snap["counters"].get("pool.tasks", 0) > 0


class TestShardedSpans:
    def test_sharded_fit_emits_step_spans_and_comm_instants(self, traced):
        est = _est(backend="sharded:2").fit(_x())
        summary = traced()
        assert summary["sharded.step"]["count"] == 4
        assert any(name.startswith("comm.") for name in summary)
        assert est.trace_["sharded.step"]["count"] == 4
        snap = metrics.snapshot()
        assert snap["counters"].get("comm.collectives", 0) > 0


class TestMinibatchSpans:
    def test_partial_fit_emits_cold_start_and_batch_spans(self, traced):
        est = _est(batch_size=30)
        est.partial_fit(_x())
        summary = traced()
        assert summary["minibatch.cold_start"]["count"] == 1
        assert summary["minibatch.batch"]["count"] > 0
        assert summary["minibatch.assign"]["count"] > 0
        assert summary["minibatch.update"]["count"] > 0


class TestBenchSpans:
    def test_run_experiment_wraps_in_bench_span(self, traced, tmp_path):
        from repro.bench import RunConfig, run_experiment

        run_experiment(
            "fig5", RunConfig(quick=True),
            results_dir=str(tmp_path), write_csv=False,
        )
        summary = traced()
        assert summary["bench.experiment"]["count"] == 1
