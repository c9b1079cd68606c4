"""Registry entries for the ablation studies.

Sparse-vs-dense selection, the two centroid-norm routes, and the
GEMM/SYRK dispatch-threshold sweep — the "what the paper's insights buy"
experiments.
"""

from __future__ import annotations

from ...errors import check
from ...gpu import A100_80GB, H100_80GB, V100_32GB, cost
from ...kernels import model_gram_times, tune_threshold
from ..registry import ExperimentResult, ExperimentSpec, RunConfig, register_experiment

THRESHOLD_GRID_N = (10000, 20000, 50000)
THRESHOLD_RATIOS = (1, 3, 10, 30, 100, 300, 1000)


# --- dense one-hot GEMM vs sparse SpMM -------------------------------------


def _dense_gemm_cost(spec, n: int, k: int) -> float:
    """Modeled dense (k x n) @ (n x n) GEMM, the sparsity-free alternative."""
    from ...gpu.calibration import gemm_compute_efficiency

    flops = 2.0 * k * n * n
    bytes_ = 4.0 * (k * n + n * n + k * n)
    return cost.roofline_time(
        spec,
        flops,
        bytes_,
        eff_compute=gemm_compute_efficiency(n, n),
        eff_memory=0.85,
        lib_call=True,
    )


def run_ablation_dense_vs_sparse(cfg: RunConfig) -> ExperimentResult:
    n_values = (10000,) if cfg.quick else (10000, 50000)
    rows = []
    advantages = {}
    sparse_total = dense_total = 0.0
    for n in n_values:
        for k in (10, 50, 100):
            sp = cost.spmm_cost(A100_80GB, n, k).time_s
            de = _dense_gemm_cost(A100_80GB, n, k)
            sparse_total += sp
            dense_total += de
            advantages[(n, k)] = de / sp
            rows.append((n, k, f"{sp * 1e3:.3f}", f"{de * 1e3:.3f}", f"{de / sp:.1f}x"))
    return ExperimentResult(
        headers=("n", "k", "spmm_ms", "dense_gemm_ms", "sparse_advantage"),
        rows=tuple(rows),
        aux={"advantages": advantages},
        metrics={
            "time.spmm_total_s": sparse_total,
            "time.dense_gemm_total_s": dense_total,
        },
    )


def check_ablation_dense_vs_sparse(result: ExperimentResult) -> None:
    advantages = result.aux["advantages"]
    # the sparse advantage grows linearly-ish with k
    check(
        advantages[(50000, 100)] > advantages[(50000, 10)] * 3,
        'invariant violated: advantages[(50000, 100)] > advantages[(50000, 10)] * 3',
    )


# --- centroid norms: SpMV z-gather vs SpGEMM diag --------------------------


def run_ablation_norms(cfg: RunConfig) -> ExperimentResult:
    n = 60000
    k_sweep = (10, 500) if cfg.quick else (10, 50, 100, 500)
    rows = []
    advantages = []
    spmv_total = spgemm_total = 0.0
    for k in k_sweep:
        spmv_t = cost.spmv_cost(A100_80GB, n, k).time_s + cost.zgather_cost(A100_80GB, n, k).time_s
        # naive route: SpGEMM (V K) V^T needs n*k multiplies past the SpMM
        spgemm_t = cost.spgemm_cost(A100_80GB, n, k, mults=float(n) * k).time_s
        spmv_total += spmv_t
        spgemm_total += spgemm_t
        advantages.append(spgemm_t / spmv_t)
        rows.append(
            (n, k, f"{spmv_t * 1e6:.1f}", f"{spgemm_t * 1e6:.1f}", f"{spgemm_t / spmv_t:.1f}x")
        )
    return ExperimentResult(
        headers=("n", "k", "spmv_route_us", "spgemm_route_us", "spmv_advantage"),
        rows=tuple(rows),
        aux={"advantages": advantages},
        metrics={
            "time.spmv_route_total_s": spmv_total,
            "time.spgemm_route_total_s": spgemm_total,
        },
    )


def check_ablation_norms(result: ExperimentResult) -> None:
    advantages = result.aux["advantages"]
    # the advantage grows with k (that's the whole point of Sec. 3.3)
    check(
        advantages[-1] > advantages[0],
        'invariant violated: advantages[-1] > advantages[0]',
    )


# --- GEMM/SYRK dispatch threshold ------------------------------------------


def _total_time_for_threshold(spec, t: float) -> float:
    total = 0.0
    for n in THRESHOLD_GRID_N:
        for r in THRESHOLD_RATIOS:
            d = max(1, int(round(n / r)))
            times = model_gram_times(spec, n, d)
            total += times["gemm"] if n / d > t else times["syrk"]
    return total


def run_ablation_threshold(cfg: RunConfig) -> ExperimentResult:
    specs = (A100_80GB,) if cfg.quick else (V100_32GB, A100_80GB, H100_80GB)
    rows = []
    tuned_total = {}
    for spec in specs:
        for t in THRESHOLD_RATIOS:
            rows.append((spec.name, t, f"{_total_time_for_threshold(spec, t):.3f}"))
        best = tune_threshold(spec, n_values=THRESHOLD_GRID_N, ratios=THRESHOLD_RATIOS)
        tuned = _total_time_for_threshold(spec, best)
        tuned_total[spec.name] = (best, tuned)
        rows.append((spec.name, "tuned", f"{tuned:.3f} (t*={best:g})"))
    a100_tuned = tuned_total[A100_80GB.name][1]
    return ExperimentResult(
        headers=("device", "threshold_t", "total_gram_time_s"),
        rows=tuple(rows),
        aux={"tuned_total": tuned_total},
        metrics={"time.a100_tuned_gram_total_s": a100_tuned},
    )


def check_ablation_threshold(result: ExperimentResult) -> None:
    # degenerate thresholds must not beat the tuned one on the A100
    t_best = result.aux["tuned_total"][A100_80GB.name][1]
    check(
        t_best <= _total_time_for_threshold(A100_80GB, 0.5),
        'invariant violated: t_best <= _total_time_for_threshold(A100_80GB, 0.5)',
    )
    check(
        t_best <= _total_time_for_threshold(A100_80GB, 10**9),
        'invariant violated: t_best <= _total_time_for_threshold(A100_80GB, 10**9)',
    )


register_experiment(
    ExperimentSpec(
        exp_id="ablation_dense_vs_sparse",
        title="V as sparse CSR vs dense one-hot GEMM (modeled)",
        group="ablation",
        run=run_ablation_dense_vs_sparse,
        k_values=(10, 50, 100),
        check=check_ablation_dense_vs_sparse,
        tags=("sparse", "spmm"),
    )
)
register_experiment(
    ExperimentSpec(
        exp_id="ablation_norms",
        title="centroid norms: O(n) SpMV vs O(nk) SpGEMM diag (modeled)",
        group="ablation",
        run=run_ablation_norms,
        k_values=(10, 50, 100, 500),
        check=check_ablation_norms,
        tags=("norms", "spmv"),
    )
)
register_experiment(
    ExperimentSpec(
        exp_id="ablation_threshold",
        title="dispatch-threshold sweep (modeled; paper leaves t tunable)",
        group="ablation",
        run=run_ablation_threshold,
        check=check_ablation_threshold,
        tags=("dispatch", "tuning"),
    )
)
