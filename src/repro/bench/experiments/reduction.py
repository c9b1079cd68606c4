"""Registry entry for the chunked pairwise-reduction engine experiment.

Compares the legacy pipeline (materialise the ``n x k`` distance block,
then a separate argmin pass) against the chunked
fused-argmin reduction (:mod:`repro.engine.reduction`) on the paper-scale
workload — modeled makespans across a thread sweep, the fused engine's
peak resident panel bytes, plus a small *executed* comparison that checks
the fused sweep's labels and min-distances are bit-exact to the legacy
pipeline's on one thread and on four.
"""

from __future__ import annotations

import numpy as np

from ...errors import check
from ...core.assignment import argmin_assign
from ...core.distances import popcorn_distances_host
from ...engine.reduction import fused_popcorn_argmin
from ...modeling import model_popcorn_chunked, model_popcorn_tiled
from ..registry import ExperimentResult, ExperimentSpec, RunConfig, register_experiment
from .common import ITERS

REDUCTION_WORKLOAD = (50000, 780, 100)  # n, d, k — the paper's mnist-scale point
REDUCTION_CHUNK_ROWS = 8192
REDUCTION_THREADS = (1, 2, 4, 8)

# executed comparison: small enough for CI, several chunks on each axis
EXECUTED_N, EXECUTED_K = (1200, 16)
EXECUTED_CHUNK = (256, 8)
EXECUTED_THREADS = (1, 4)


def _executed_kernel_matrix(n: int, seed: int) -> np.ndarray:
    x = np.random.default_rng(seed).standard_normal((n, 12))
    return np.ascontiguousarray(x @ x.T)


def run_ext_reduction_engine(cfg: RunConfig) -> ExperimentResult:
    n, d, k = REDUCTION_WORKLOAD
    threads = (1, 4) if cfg.quick else REDUCTION_THREADS

    # ---- modeled: legacy tiled pipeline vs fused thread sweep ----------
    legacy = model_popcorn_tiled(n, d, k, chunk_rows=REDUCTION_CHUNK_ROWS, iters=ITERS)
    rows = []
    modeled_by_t = {}
    panel_bytes = 0
    for t in threads:
        m = model_popcorn_chunked(
            n, d, k, chunk_rows=REDUCTION_CHUNK_ROWS, n_threads=t, iters=ITERS
        )
        modeled_by_t[t] = m.makespan_s
        panel_bytes = m.panel_bytes
        rows.append(
            (
                f"fused t={t}",
                f"{m.makespan_s:.3f}",
                f"{m.panel_bytes / 1e6:.2f}",
                f"{legacy.total_s / m.makespan_s:.2f}",
            )
        )
    # the legacy pipeline tiles the SpMM but still materialises the full
    # n x k distance matrix before its separate argmin pass
    legacy_resident = 4.0 * n * k
    rows.append(("legacy tiled", f"{legacy.total_s:.3f}", f"{legacy_resident / 1e6:.2f}", "1.00"))

    # ---- executed: fused labels/min_d bit-exact to the legacy pipeline -
    m_n, m_k = (400, 8) if cfg.quick else (EXECUTED_N, EXECUTED_K)
    km = _executed_kernel_matrix(m_n, cfg.base_seed)
    labels = np.random.default_rng(cfg.base_seed).integers(0, m_k, size=m_n).astype(np.int32)
    c_rows, c_cols = EXECUTED_CHUNK

    d_legacy, _ = popcorn_distances_host(km, labels, m_k)
    ref_labels = argmin_assign(d_legacy)
    ref_min_d = d_legacy[np.arange(m_n), ref_labels]
    labels_equal = min_d_equal = True
    for t in EXECUTED_THREADS:
        fused = fused_popcorn_argmin(
            km, labels, m_k, chunk_rows=c_rows, chunk_cols=c_cols, n_threads=t
        )
        labels_equal &= bool(np.array_equal(fused.labels, ref_labels))
        min_d_equal &= bool(np.array_equal(fused.min_d, ref_min_d))

    fused_t4_modeled = modeled_by_t.get(4, modeled_by_t[max(modeled_by_t)])
    return ExperimentResult(
        headers=("variant", "total_s", "peak_panel_MB", "speedup_vs_legacy"),
        rows=tuple(rows),
        aux={
            "modeled_by_t": modeled_by_t,
            "legacy_modeled_s": legacy.total_s,
            "panel_bytes": panel_bytes,
            "labels_equal": labels_equal,
            "min_d_equal": min_d_equal,
        },
        metrics={
            "time.reduction_modeled_legacy_s": legacy.total_s,
            "time.reduction_modeled_fused_t4_s": fused_t4_modeled,
            "mem.reduction_fused_panel_bytes": float(panel_bytes),
        },
    )


def check_ext_reduction_engine(result: ExperimentResult) -> None:
    n, _, k = REDUCTION_WORKLOAD
    modeled = result.aux["modeled_by_t"]
    legacy_s = result.aux["legacy_modeled_s"]
    # the fused engine never materialises more than one chunk panel
    check(
        result.aux["panel_bytes"] <= 4.0 * REDUCTION_CHUNK_ROWS * k,
        'invariant violated: result.aux["panel_bytes"] <= 4.0 * REDUCTION_CHUNK_ROWS * k',
    )
    check(
        result.aux["panel_bytes"] < 4.0 * n * k,
        'invariant violated: result.aux["panel_bytes"] < 4.0 * n * k',
    )
    # the executed comparison is bit-for-bit, not approximately equal
    check(result.aux["labels_equal"], 'invariant violated: result.aux["labels_equal"]')
    check(result.aux["min_d_equal"], 'invariant violated: result.aux["min_d_equal"]')
    # more workers never hurt the modeled makespan, and at 4 threads the
    # fused sweep beats the serial legacy pipeline outright
    ts = sorted(modeled)
    check(
        all(modeled[a] >= modeled[b] for a, b in zip(ts, ts[1:])),
        'invariant violated: all(modeled[a] >= modeled[b] for a, b in zip(ts, ts[1:]))',
    )
    t4 = modeled.get(4, modeled[max(modeled)])
    check(t4 < legacy_s, 'invariant violated: t4 < legacy_s')


register_experiment(
    ExperimentSpec(
        exp_id="ext_reduction_engine",
        title="chunked fused-argmin reduction vs legacy tiled pipeline (modeled + executed)",
        group="extension",
        run=run_ext_reduction_engine,
        k_values=(100,),
        check=check_ext_reduction_engine,
        tags=("reduction", "engine", "tiling", "threads"),
    )
)
