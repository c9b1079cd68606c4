"""Registry entry for the async serving front door (``ext_async_serving``).

Three deterministic claims gate this experiment:

1. **Coalescing** — a synchronous burst of ``u`` unique queries, each
   issued ``r`` times, reaches the backend as exactly ``u`` rows: the
   asyncio ingress dedups identical in-flight queries by digest before
   a single batch forms (the burst enqueues entirely before the batcher
   task runs, so the count is exact, not statistical).
   ``quality.async_coalesce_savings`` is ``1 - u / (u * r)`` by
   construction and collapses the moment coalescing stops working.
2. **Admission control** — bursting ``N`` unique queries at a
   ``queue_bound=B`` front door sheds exactly ``N - B`` requests with
   :class:`~repro.errors.Overloaded`, and the stats invariant
   ``requests == served + shed + errors`` survives the rejections.
3. **Autoscaling policy** — the workers->saturation-qps curve of a
   paper-scale workload on :func:`repro.serve.autoscale.saturation_curve`
   (the engine's modeled batch cost + the ingress dispatch ceiling) is a
   pure function of the device spec: monotone, knee'd, identical on
   every machine.  ``throughput.async_modeled_saturation_qps`` and
   ``quality.async_scaling_efficiency`` gate on it.

The door's measured latency is hostbench's ``aserve_p50_ms`` /
``aserve_p99_ms``.
"""

from __future__ import annotations

import asyncio

import numpy as np

from ...errors import Overloaded, check
from ...estimators import make_estimator
from ..registry import ExperimentResult, ExperimentSpec, RunConfig, register_experiment

ASYNC_WORKLOAD = (400, 8, 5)  # n, d, k of the fitted support
COALESCE_UNIQUE = (16, 48)  # quick, full
COALESCE_REPEATS = 4
SHED_OFFERED = 32
SHED_BOUND = 8
#: paper-scale workload shape for the modeled autoscale curve: large
#: enough that the knee (w ~= t_batch / dispatch_overhead) falls inside
#: the worker sweep instead of pinning every point ingress-limited
AUTOSCALE_SHAPE = dict(n_support=1_000_000, dim=64, n_clusters=16, batch_size=64)
AUTOSCALE_WORKERS = (1, 2, 4, 8, 16, 32)


def _fitted_model(cfg: RunConfig):
    n, d, k = ASYNC_WORKLOAD
    x = np.random.default_rng(cfg.base_seed).standard_normal((n, d))
    return make_estimator(
        "popcorn", n_clusters=k, dtype=np.float64, backend="host", max_iter=8,
        check_convergence=False, seed=cfg.base_seed,
    ).fit(x)


def _unique_queries(m: int, d: int, seed: int) -> np.ndarray:
    return np.ascontiguousarray(
        np.random.default_rng(seed + 1).standard_normal((m, d))
    )


async def _coalesce_phase(model, queries: np.ndarray, repeats: int):
    """Burst u unique queries x repeats; return (stats, labels)."""
    from ...serve import AsyncPredictionServer

    u = queries.shape[0]
    async with AsyncPredictionServer(
        model, batch_size=u, n_workers=1, cache_size=0,
    ) as server:
        futures = [
            server.submit_nowait(queries[i])
            for _ in range(repeats)
            for i in range(u)
        ]
        results = await asyncio.gather(*futures)
        stats = server.stats()
    labels = np.asarray([int(r) for r in results[:u]], dtype=np.int32)
    return stats, labels


async def _shed_phase(model, queries: np.ndarray, bound: int):
    """Burst N unique queries at a bound-B door; return (stats, n_shed)."""
    from ...serve import AsyncPredictionServer

    async with AsyncPredictionServer(
        model, batch_size=bound, n_workers=1,
        queue_bound=bound, cache_size=0,
    ) as server:
        accepted, shed = [], 0
        for q in queries:
            try:
                accepted.append(server.submit_nowait(q))
            except Overloaded:
                shed += 1
        await asyncio.gather(*accepted)
        stats = server.stats()
    return stats, shed


def run_ext_async_serving(cfg: RunConfig) -> ExperimentResult:
    from ...serve.autoscale import saturation_curve, workers_for

    _, d, _ = ASYNC_WORKLOAD
    u = COALESCE_UNIQUE[0] if cfg.quick else COALESCE_UNIQUE[1]
    model = _fitted_model(cfg)

    # ---- phase A: burst coalescing (deterministic, blocking) -----------
    uniq = _unique_queries(u, d, cfg.base_seed)
    reference = model.predict(uniq)
    co_stats, co_labels = asyncio.run(
        _coalesce_phase(model, uniq, COALESCE_REPEATS)
    )
    m = u * COALESCE_REPEATS
    fidelity = bool(np.array_equal(co_labels, reference))
    coalesce_ok = (
        co_stats["backend_rows"] == u
        and co_stats["coalesced"] == m - u
        and co_stats["served"] == m
        and fidelity
    )
    savings = 1.0 - co_stats["backend_rows"] / max(co_stats["requests"], 1)

    # ---- phase B: admission-control determinism (blocking) -------------
    shed_q = _unique_queries(SHED_OFFERED, d, cfg.base_seed + 7)
    shed_stats, n_shed = asyncio.run(_shed_phase(model, shed_q, SHED_BOUND))
    invariant = (
        shed_stats["requests"]
        == shed_stats["served"] + shed_stats["shed"] + shed_stats["errors"]
    )
    shed_ok = (
        n_shed == SHED_OFFERED - SHED_BOUND
        and shed_stats["shed"] == n_shed
        and shed_stats["served"] == SHED_BOUND
        and invariant
    )

    # ---- phase C: modeled autoscale curve (deterministic, blocking) ----
    curve = saturation_curve(workers=AUTOSCALE_WORKERS, **AUTOSCALE_SHAPE)
    knee = workers_for(curve[0].ingress_qps, **AUTOSCALE_SHAPE)
    top = curve[-1]
    scaling_eff = top.saturation_qps / (top.workers * top.worker_qps)

    rows = [
        ("coalesce", "requests", co_stats["requests"], "ok"),
        ("coalesce", "backend_rows", co_stats["backend_rows"],
         "ok" if coalesce_ok else "MISMATCH"),
        ("coalesce", "savings", f"{savings:.3f}",
         "ok" if coalesce_ok else "MISMATCH"),
        ("shed", "offered", SHED_OFFERED, "ok"),
        ("shed", "shed", n_shed, "ok" if shed_ok else "MISMATCH"),
        ("shed", "stats_invariant", str(invariant),
         "ok" if invariant else "MISMATCH"),
    ]
    rows += [
        (f"autoscale w={p.workers}", "saturation_qps",
         f"{p.saturation_qps:.0f}",
         "ingress-limited" if p.ingress_limited else "worker-limited")
        for p in curve
    ]
    return ExperimentResult(
        headers=("stage", "param", "value", "status"),
        rows=tuple(rows),
        aux={
            "coalesce_stats": dict(co_stats),
            "coalesce_ok": coalesce_ok,
            "unique": u,
            "shed_stats": dict(shed_stats),
            "shed_ok": shed_ok,
            "curve_qps": [p.saturation_qps for p in curve],
            "curve_limited": [p.ingress_limited for p in curve],
            "knee_workers": knee,
        },
        metrics={
            "quality.async_coalesce_savings": savings if coalesce_ok else 0.0,
            "quality.async_admission_determinism": 1.0 if shed_ok else 0.0,
            "throughput.async_modeled_saturation_qps": top.saturation_qps,
            "quality.async_scaling_efficiency": scaling_eff,
        },
    )


def check_ext_async_serving(result: ExperimentResult) -> None:
    # coalescing reduced backend rows to exactly the unique-query count
    check(result.aux["coalesce_ok"], result.aux["coalesce_stats"])
    check(
        result.aux["coalesce_stats"]["backend_rows"] == result.aux["unique"],
        'invariant violated: result.aux["coalesce_stats"]["backend_rows"] == result.aux[...',
    )
    # shedding is exact and never corrupts the counters
    check(result.aux["shed_ok"], result.aux["shed_stats"])
    # the modeled curve is monotone non-decreasing and actually knees:
    # the sweep must contain a worker-limited point and an ingress cap
    qps = result.aux["curve_qps"]
    check(
        all(b >= a for a, b in zip(qps, qps[1:])),
        'invariant violated: all(b >= a for a, b in zip(qps, qps[1:]))',
    )
    check(qps[1] > qps[0], 'invariant violated: qps[1] > qps[0]')
    check(
        result.aux["knee_workers"] is not None,
        'invariant violated: result.aux["knee_workers"] is not None',
    )
    # the sweep straddles the knee: linear scaling first, ingress cap last
    limited = result.aux["curve_limited"]
    check(
        not limited[0] and limited[-1],
        'invariant violated: not limited[0] and limited[-1]',
    )


register_experiment(
    ExperimentSpec(
        exp_id="ext_async_serving",
        title="async front door: coalescing, admission control, autoscale policy",
        group="extension",
        datasets=("synthetic-400x8",),
        k_values=(5,),
        run=run_ext_async_serving,
        check=check_ext_async_serving,
        tags=("extension", "serve", "async", "autoscale"),
    )
)
