"""Sweep grids shared by the registered experiments.

The full-mode grids are the paper's (Table 2 datasets x k in {10, 50,
100}, 30 iterations); ``--quick`` subsets them to a CI-sized slice.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ...data import TABLE2
from ..registry import RunConfig

__all__ = [
    "DATASETS",
    "QUICK_DATASETS",
    "K_VALUES",
    "QUICK_K_VALUES",
    "ITERS",
    "datasets",
    "k_values",
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
