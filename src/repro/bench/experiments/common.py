"""Sweep grids and probe builders shared by the registered experiments.

The full-mode grids are the paper's (Table 2 datasets x k in {10, 50,
100}, 30 iterations); ``--quick`` subsets them to a CI-sized slice.  The
probe builders return ``(estimator_factory, fit)`` pairs in the shape
:func:`repro.harness.run_trials` consumes — the measured wall-clock of
these small real executions is the perf trajectory the regression gate
tracks, while the modeled sweeps stay deterministic.
"""

from __future__ import annotations

import time
from typing import Dict, Tuple

import numpy as np

from ...baselines import random_labels
from ...data import TABLE2
from ...estimators import make_estimator
from ..registry import RunConfig

__all__ = [
    "DATASETS",
    "QUICK_DATASETS",
    "K_VALUES",
    "QUICK_K_VALUES",
    "ITERS",
    "datasets",
    "k_values",
    "popcorn_probe",
    "baseline_probe",
    "walltime_probe",
]

#: (n, d) per dataset, straight from Table 2.
DATASETS: Dict[str, Tuple[int, int]] = {name: (i.n, i.d) for name, i in TABLE2.items()}

#: The quick-mode slice: one large-n and one large-d dataset keeps both
#: distance-dominated and kernel-matrix-dominated regimes covered.
QUICK_DATASETS: Tuple[str, ...] = ("mnist", "scotus")

#: Cluster counts the paper sweeps (Sec. 5.1.3).
K_VALUES: Tuple[int, int, int] = (10, 50, 100)
QUICK_K_VALUES: Tuple[int, int] = (10, 100)

#: All timed clustering experiments run exactly 30 iterations (Sec. 5.1.3).
ITERS = 30


def datasets(cfg: RunConfig) -> Dict[str, Tuple[int, int]]:
    """The dataset grid for this run (quick mode subsets Table 2)."""
    if cfg.quick:
        return {name: DATASETS[name] for name in QUICK_DATASETS}
    return dict(DATASETS)


def k_values(cfg: RunConfig) -> Tuple[int, ...]:
    """The k sweep for this run."""
    return QUICK_K_VALUES if cfg.quick else K_VALUES


def _probe_points(n: int, d: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((n, d)).astype(np.float64)


def popcorn_probe(cfg: RunConfig, *, n: int = 150, d: int = 8, k: int = 5):
    """Small real Popcorn fit honouring ``--backend`` / ``--chunk-rows``."""
    x = _probe_points(n, d, cfg.base_seed)

    def factory(seed: int):
        return make_estimator(
            "popcorn",
            n_clusters=k,
            dtype=np.float64,
            backend=cfg.backend,
            chunk_rows=cfg.chunk_rows,
            max_iter=5,
            check_convergence=False,
            seed=seed,
        )

    def fit(est):
        return est.fit(x)

    return factory, fit


def baseline_probe(cfg: RunConfig, *, n: int = 150, d: int = 8, k: int = 5):
    """Small real baseline-CUDA fit (no row chunking; honours ``--backend``)."""
    x = _probe_points(n, d, cfg.base_seed)
    init = random_labels(n, k, np.random.default_rng(cfg.base_seed))

    def factory(seed: int):
        return make_estimator(
            "baseline",
            n_clusters=k,
            dtype=np.float64,
            backend=cfg.backend,
            max_iter=5,
            check_convergence=False,
            seed=seed,
        )

    def fit(est):
        return est.fit(x, init_labels=init)

    return factory, fit


def walltime_probe(factory, x):
    """Adapt an estimator without modeled timings to the trial protocol.

    Measures the real ``fit`` wall-clock and backfills the ``timings_`` /
    ``objective_`` attributes :func:`repro.harness.run_trials` aggregates
    (``inertia_`` stands in for the objective where needed).
    """

    def fit(est):
        t0 = time.perf_counter()
        est.fit(x)
        elapsed = time.perf_counter() - t0
        if not hasattr(est, "objective_"):
            est.objective_ = float(getattr(est, "inertia_", 0.0))
        if not getattr(est, "timings_", None):
            est.timings_ = {"fit_wall": elapsed}
        return est

    return factory, fit
