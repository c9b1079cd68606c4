"""Registry entry for the online mini-batch fit path (``partial_fit``).

Quantifies what the incremental engine (:mod:`repro.engine.minibatch`)
trades for its O(batch) updates: clustering quality versus the full-batch
fit on the same data (ARI between the two assignments — the gated
metric).  The check also pins the cold-start contract executed end to
end: the first full-data ``partial_fit`` call reproduces one full-fit
iteration bit for bit.  The measured ``partial_fit`` rate is hostbench's
``partial_fit_rows_per_s``.
"""

from __future__ import annotations

import numpy as np

from ...errors import check
from ...eval import adjusted_rand_index
from ...estimators import make_estimator
from ..registry import ExperimentResult, ExperimentSpec, RunConfig, register_experiment

#: (n, d, k) of the streamed workload; blobs keep the ARI meaningful
MINIBATCH_WORKLOAD = (1200, 12, 6)
MINIBATCH_QUICK_WORKLOAD = (400, 8, 4)
MINIBATCH_BATCH = 100
MINIBATCH_FULL_ITERS = 15

#: the online fit may land in a different local optimum than the full
#: fit, but on well-separated blobs both must recover the structure
MINIBATCH_ARI_FLOOR = 0.5


def _blobs(n: int, d: int, k: int, seed: int):
    """Gaussian blobs with ground-truth labels (separable by design)."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-6.0, 6.0, size=(k, d))
    y = rng.integers(0, k, size=n).astype(np.int32)
    x = centers[y] + rng.standard_normal((n, d))
    return np.ascontiguousarray(x), y


def _estimator(k: int, seed: int, **kw):
    return make_estimator(
        "popcorn",
        n_clusters=k,
        dtype=np.float64,
        backend="host",
        kernel="linear",
        seed=seed,
        **kw,
    )


def run_ext_minibatch(cfg: RunConfig) -> ExperimentResult:
    n, d, k = MINIBATCH_QUICK_WORKLOAD if cfg.quick else MINIBATCH_WORKLOAD
    x, y = _blobs(n, d, k, cfg.base_seed)

    # ---- full-batch reference ------------------------------------------
    full = _estimator(k, cfg.base_seed, max_iter=MINIBATCH_FULL_ITERS).fit(x)
    full_ari_truth = adjusted_rand_index(full.labels_, y)

    # ---- online: cold start on the first batch, stream the rest --------
    online = _estimator(
        k, cfg.base_seed, batch_size=MINIBATCH_BATCH, reassignment_ratio=0.01
    )
    online.partial_fit(x)

    online_labels = online.predict(x)
    vs_full_ari = adjusted_rand_index(online_labels, np.asarray(full.labels_))
    online_ari_truth = adjusted_rand_index(online_labels, y)

    # ---- cold-start bit-exactness, executed -----------------------------
    one_iter = _estimator(k, cfg.base_seed, max_iter=1).fit(x)
    cold = _estimator(k, cfg.base_seed).partial_fit(x)
    cold_bit_exact = bool(
        np.array_equal(one_iter.labels_, cold.labels_)
        and one_iter.objective_ == cold.objective_
        and np.array_equal(one_iter._c_norms, cold._c_norms)
    )

    rows = (
        ("full fit", f"{MINIBATCH_FULL_ITERS} iters", f"{full_ari_truth:.3f}"),
        ("online partial_fit", f"{online.n_batches_seen_} batches", f"{online_ari_truth:.3f}"),
        ("online vs full (ARI)", "-", f"{vs_full_ari:.3f}"),
        ("cold start bit-exact", "-", str(cold_bit_exact)),
    )
    return ExperimentResult(
        headers=("variant", "work", "ARI"),
        rows=rows,
        aux={
            "vs_full_ari": vs_full_ari,
            "online_ari_truth": online_ari_truth,
            "full_ari_truth": full_ari_truth,
            "cold_bit_exact": cold_bit_exact,
            "n_batches": int(online.n_batches_seen_),
        },
        metrics={"quality.minibatch_vs_full_ari": vs_full_ari},
    )


def check_ext_minibatch(result: ExperimentResult) -> None:
    # the cold-start contract is bitwise, not approximate
    check(result.aux["cold_bit_exact"], 'invariant violated: result.aux["cold_bit_exact"]')
    # the stream actually split into batches (the online path ran)
    check(result.aux["n_batches"] > 1, 'invariant violated: result.aux["n_batches"] > 1')
    # online quality tracks the full fit on separable data
    check(
        result.aux["vs_full_ari"] >= MINIBATCH_ARI_FLOOR,
        'invariant violated: result.aux["vs_full_ari"] >= MINIBATCH_ARI_FLOOR',
    )
    check(
        result.aux["online_ari_truth"] >= MINIBATCH_ARI_FLOOR,
        'invariant violated: result.aux["online_ari_truth"] >= MINIBATCH_ARI_FLOOR',
    )


register_experiment(
    ExperimentSpec(
        exp_id="ext_minibatch",
        title="online mini-batch partial_fit vs full-batch fit (quality)",
        group="extension",
        run=run_ext_minibatch,
        k_values=(6,),
        check=check_ext_minibatch,
        tags=("minibatch", "online", "partial_fit", "serving"),
    )
)
