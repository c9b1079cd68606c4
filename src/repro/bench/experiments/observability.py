"""Registry entry for the observability layer (:mod:`repro.obs`).

The claim pinned here is that the *shape* of the instrumentation is
deterministic: a fixed workload (``check_convergence=False`` with a
fixed ``max_iter``) must emit exactly the expected span tree — one
``fit.iter`` per iteration with the four phase children underneath, one
``sharded.step`` per sharded iteration, one ``serve.enqueue`` per
uncached request — and two identical fits must produce identical span
counts.  These are the gated metrics (``quality.*``): they are 1.0 by
construction and drop to 0.0 the moment an instrumentation site is lost
or double-counts.  What tracing costs is a measured number, hostbench's
``obs.overhead_frac``.
"""

from __future__ import annotations

import numpy as np

from ...errors import check
from ...estimators import make_estimator
from ...obs import trace
from ..registry import ExperimentResult, ExperimentSpec, RunConfig, register_experiment

#: (n, d) of the fixed workload; k and the iteration count stay fixed
#: across quick/full so the span shape is one deterministic contract
OBS_WORKLOAD = (600, 12)
OBS_QUICK_WORKLOAD = (240, 8)
OBS_K = 5
OBS_ITERS = 6
OBS_DEVICES = 2
OBS_QUERIES = 64

#: the fit-loop phase spans expected under every ``fit.iter``
FIT_PHASES = ("fit.distances", "fit.argmin", "fit.update", "fit.inertia")


def _estimator(seed: int, *, backend: str, **kw):
    return make_estimator(
        "popcorn",
        n_clusters=OBS_K,
        dtype=np.float64,
        backend=backend,
        kernel="linear",
        max_iter=OBS_ITERS,
        check_convergence=False,
        seed=seed,
        **kw,
    )


def _host_fit(x, seed: int):
    # n_threads=2 + a 4-chunk row schedule exercises the pool lanes
    est = _estimator(
        seed, backend="host",
        chunk_rows=max(x.shape[0] // 4, 1), n_threads=2,
    )
    return est.fit(x)


def _windowed(mark: int):
    """(summary, spans) of the tracer window opened at ``mark``."""
    return trace.summary(since=mark), trace.spans(since=mark)


def _nesting_ok(spans) -> bool:
    """Every fit-phase span must sit directly under a ``fit.iter`` span."""
    names = {s.span_id: s.name for s in spans}
    for s in spans:
        if s.name in FIT_PHASES:
            if names.get(s.parent_id) != "fit.iter":
                return False
    return True


def run_ext_observability(cfg: RunConfig) -> ExperimentResult:
    from ...serve import PredictionService

    n, d = OBS_QUICK_WORKLOAD if cfg.quick else OBS_WORKLOAD
    rng = np.random.default_rng(cfg.base_seed)
    x = np.ascontiguousarray(rng.standard_normal((n, d)))

    was_enabled = trace.enabled
    try:
        trace.enable()

        # ---- traced host fit, twice (shape + determinism) --------------
        mark = trace.mark()
        _host_fit(x, cfg.base_seed)
        host_summary, host_spans = _windowed(mark)

        mark = trace.mark()
        _host_fit(x, cfg.base_seed)
        repeat_summary, _ = _windowed(mark)
        # identical per-fit counts = the instrumentation is deterministic
        per_fit = {k: v["count"] for k, v in host_summary.items()}
        deterministic = per_fit == {
            k: v["count"] for k, v in repeat_summary.items()
        }

        # ---- sharded fit: one pid per device, one step span per iter ---
        mark = trace.mark()
        sharded = _estimator(cfg.base_seed, backend=f"sharded:{OBS_DEVICES}")
        sharded.fit(x)
        sharded_summary, _ = _windowed(mark)

        # ---- serving: one enqueue per uncached request ------------------
        mark = trace.mark()
        queries = np.ascontiguousarray(
            rng.standard_normal((OBS_QUERIES, d))
        )
        with PredictionService(sharded, batch_size=16, n_workers=1) as svc:
            svc.predict_many(queries)
            serve_stats = svc.stats()
        serve_summary, _ = _windowed(mark)
    finally:
        trace.enabled = was_enabled

    expected = {
        "fit.iter": OBS_ITERS,
        **{p: OBS_ITERS for p in FIT_PHASES},
        "sharded.step": OBS_ITERS,
        "serve.enqueue": OBS_QUERIES,
    }
    observed = {
        "fit.iter": per_fit.get("fit.iter", 0),
        **{p: per_fit.get(p, 0) for p in FIT_PHASES},
        "sharded.step": int(sharded_summary.get("sharded.step", {}).get("count", 0)),
        "serve.enqueue": int(serve_summary.get("serve.enqueue", {}).get("count", 0)),
    }
    shape_ok = expected == observed
    # presence-only families whose exact counts are schedule-dependent
    coverage_families = {
        "pool.task": per_fit.get("pool.task", 0) > 0,
        "comm.collectives": any(
            name.startswith("comm.") for name in sharded_summary
        ),
        "serve.batch": serve_summary.get("serve.batch", {}).get("count", 0) > 0,
        "trace_attr": bool(sharded.trace_),
    }
    coverage = sum(coverage_families.values()) / len(coverage_families)
    nesting = _nesting_ok(host_spans)

    rows = tuple(
        (name, expected[name], observed[name],
         "ok" if expected[name] == observed[name] else "MISMATCH")
        for name in expected
    ) + tuple(
        (name, "present", "yes" if ok else "NO", "ok" if ok else "MISMATCH")
        for name, ok in coverage_families.items()
    ) + (
        ("nesting fit.* under fit.iter", "-", str(nesting), "ok" if nesting else "MISMATCH"),
        ("repeat-fit determinism", "-", str(deterministic), "ok" if deterministic else "MISMATCH"),
    )
    return ExperimentResult(
        headers=("span family", "expected", "observed", "status"),
        rows=rows,
        aux={
            "expected": expected,
            "observed": observed,
            "coverage_families": coverage_families,
            "shape_ok": shape_ok,
            "deterministic": deterministic,
            "nesting_ok": nesting,
            "serve_stats": serve_stats,
        },
        metrics={
            # deterministic by construction: 1.0 unless a site is lost
            "quality.obs_span_shape": 1.0 if shape_ok else 0.0,
            "quality.obs_span_coverage": coverage,
            "quality.obs_determinism": 1.0 if (deterministic and nesting) else 0.0,
        },
    )


def check_ext_observability(result: ExperimentResult) -> None:
    # the span tree of the fixed workload is exact, not approximate
    check(
        result.aux["shape_ok"],
        (
        result.aux["expected"], result.aux["observed"],
    ),
    )
    # schedule-dependent families are at least present
    check(
        all(result.aux["coverage_families"].values()),
        (
        result.aux["coverage_families"],
    ),
    )
    # phase spans nest under their iteration; repeat fits agree
    check(result.aux["nesting_ok"], 'invariant violated: result.aux["nesting_ok"]')
    check(result.aux["deterministic"], 'invariant violated: result.aux["deterministic"]')
    # every request of the serve stage was answered
    check(
        result.aux["serve_stats"]["served"] == OBS_QUERIES,
        'invariant violated: result.aux["serve_stats"]["served"] == OBS_QUERIES',
    )


register_experiment(
    ExperimentSpec(
        exp_id="ext_observability",
        title="observability layer: span-tree shape, coverage, and determinism",
        group="extension",
        run=run_ext_observability,
        k_values=(OBS_K,),
        check=check_ext_observability,
        tags=("observability", "tracing", "metrics", "obs"),
    )
)
