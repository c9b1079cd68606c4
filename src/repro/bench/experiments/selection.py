"""Registry entry for the model-selection (grid-search) experiment.

``model_selection`` drives :class:`repro.select.GridSearchKernelKMeans`
over a Gaussian-bandwidth sweep on the concentric-circles workload —
the canonical "which kernel hyperparameter?" question — and tracks the
winner's held-out ARI through the CI gate; the check pins which
bandwidth wins.  Candidates are built through the estimator registry
(``"popcorn"`` by name) and cloned per fold; no estimator class is
referenced anywhere in the spec.
"""

from __future__ import annotations

import numpy as np

from ...errors import check
from ...data import make_circles
from ...kernels import GaussianKernel
from ...select import GridSearchKernelKMeans
from ..registry import ExperimentResult, ExperimentSpec, RunConfig, register_experiment

GAMMA_SWEEP = (0.5, 2.0, 5.0, 10.0)
QUICK_GAMMA_SWEEP = (0.5, 5.0, 10.0)
SEARCH_POINTS = 300
QUICK_POINTS = 200
SEARCH_CV = 3
QUICK_CV = 2


def _search_grid(cfg: RunConfig, gammas) -> dict:
    return {
        "n_clusters": [2],
        "backend": ["host"],
        "dtype": [np.float64],
        "kernel": [GaussianKernel(gamma=g) for g in gammas],
        "init": ["k-means++"],
        "max_iter": [30],
        "seed": [cfg.base_seed],
    }


def run_model_selection(cfg: RunConfig) -> ExperimentResult:
    n = QUICK_POINTS if cfg.quick else SEARCH_POINTS
    gammas = QUICK_GAMMA_SWEEP if cfg.quick else GAMMA_SWEEP
    cv = QUICK_CV if cfg.quick else SEARCH_CV
    x, y = make_circles(n, rng=cfg.base_seed)

    search = GridSearchKernelKMeans(
        "popcorn", _search_grid(cfg, gammas), scoring="ari", cv=cv
    ).fit(x, y)

    rows = []
    mean_scores = []
    for params, mean, std, rank in zip(
        search.cv_results_["params"],
        search.cv_results_["mean_test_score"],
        search.cv_results_["std_test_score"],
        search.cv_results_["rank_test_score"],
    ):
        mean_scores.append(float(mean))
        rows.append((f"{params['kernel'].gamma:g}", f"{mean:.3f}", f"{std:.3f}", int(rank)))
    return ExperimentResult(
        headers=("gamma", "mean_ari", "std_ari", "rank"),
        rows=tuple(rows),
        aux={
            "gammas": list(gammas),
            "mean_scores": mean_scores,
            "best_gamma": float(search.best_params_["kernel"].gamma),
            "best_score": search.best_score_,
            "n_fits": search.n_fits_,
        },
        metrics={"quality.model_selection_best_ari": search.best_score_},
    )


def check_model_selection(result: ExperimentResult) -> None:
    scores = result.aux["mean_scores"]
    # the sweep must discriminate: a clear winner, at a sensible bandwidth
    check(
        result.aux["best_score"] > 0.4,
        'invariant violated: result.aux["best_score"] > 0.4',
    )
    check(
        result.aux["best_score"] >= max(scores),
        'invariant violated: result.aux["best_score"] >= max(scores)',
    )
    check(
        min(scores) < result.aux["best_score"] - 0.2,
        'invariant violated: min(scores) < result.aux["best_score"] - 0.2',
    )
    check(
        result.aux["best_gamma"] == 5.0,
        'invariant violated: result.aux["best_gamma"] == 5.0',
    )


register_experiment(
    ExperimentSpec(
        exp_id="model_selection",
        title="Extension: registry-driven grid search (model selection)",
        group="extension",
        datasets=("circles-300x2",),
        k_values=(2,),
        run=run_model_selection,
        check=check_model_selection,
        tags=("extension", "select"),
    )
)
