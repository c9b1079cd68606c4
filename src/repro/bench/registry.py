"""Declarative experiment registry for the benchmark subsystem.

Every figure/table/ablation of the paper's evaluation (Sec. 5) is one
:class:`ExperimentSpec`: a declarative record naming the datasets and
k-sweep it covers, the callable that produces its rows, and the check
that asserts the paper's shape claims on them.  Specs are registered at
import time with :func:`register_experiment`; :func:`load_all_experiments`
imports the bundled experiment modules so discovery works from any entry
point (the ``repro-bench`` CLI, the pytest shims in ``benchmarks/``, or
the regression tests).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..errors import ConfigError

__all__ = [
    "RunConfig",
    "ExperimentResult",
    "ExperimentSpec",
    "register_experiment",
    "get_experiment",
    "experiment_ids",
    "all_experiments",
    "load_all_experiments",
]

#: Modules imported by :func:`load_all_experiments`; each registers its
#: experiments as an import side effect.
_EXPERIMENT_MODULES = (
    "repro.bench.experiments.paper_figures",
    "repro.bench.experiments.ablations",
    "repro.bench.experiments.extensions",
    "repro.bench.experiments.selection",
    "repro.bench.experiments.minibatch",
    "repro.bench.experiments.reduction",
    "repro.bench.experiments.observability",
    "repro.bench.experiments.async_serving",
)

_REGISTRY: Dict[str, "ExperimentSpec"] = {}


@dataclass(frozen=True)
class RunConfig:
    """Options shared by every experiment in one ``repro-bench run``.

    ``quick`` shrinks the dataset grids and k-sweeps to a CI-friendly
    subset; ``base_seed`` seeds every executed workload.
    """

    quick: bool = False
    base_seed: int = 0


@dataclass(frozen=True)
class ExperimentResult:
    """What one experiment's ``run`` callable returns.

    ``rows`` are exactly the strings/ints the legacy ``bench_*.py``
    scripts printed and wrote to CSV (the CSV artifact stays bit-stable).
    ``aux`` carries the intermediate series the shape checks assert on.
    ``metrics`` are the tracked scalars the regression gate compares;
    names follow the ``<kind>.<name>`` convention documented in
    :mod:`repro.bench.artifact`.
    """

    headers: Tuple[str, ...]
    rows: Tuple[tuple, ...]
    aux: Mapping[str, object] = field(default_factory=dict)
    metrics: Mapping[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class ExperimentSpec:
    """One declarative benchmark experiment.

    Attributes
    ----------
    exp_id:
        Stable identifier; also the CSV basename (``<exp_id>.csv``).
    title:
        Human-readable description printed above the table.
    group:
        ``"table" | "figure" | "ablation" | "extension"``.
    datasets, k_values:
        The sweep the full-mode run covers (informational; quick mode
        subsets them via :mod:`repro.bench.experiments.common`).
    run:
        ``run(cfg) -> ExperimentResult`` — produces the rows/metrics.
    check:
        Optional ``check(result)`` asserting the paper's shape claims on
        a full-mode result (skipped in quick mode, where the sweep is
        subset).
    """

    exp_id: str
    title: str
    group: str
    run: Callable[[RunConfig], ExperimentResult]
    datasets: Tuple[str, ...] = ()
    k_values: Tuple[int, ...] = ()
    check: Optional[Callable[[ExperimentResult], None]] = None
    tags: Tuple[str, ...] = ()


def register_experiment(spec: ExperimentSpec) -> ExperimentSpec:
    """Add ``spec`` to the registry; duplicate ids are a config error."""
    if spec.exp_id in _REGISTRY:
        raise ConfigError(f"experiment {spec.exp_id!r} is already registered")
    if spec.group not in ("table", "figure", "ablation", "extension"):
        raise ConfigError(f"unknown experiment group {spec.group!r}")
    _REGISTRY[spec.exp_id] = spec
    return spec


def load_all_experiments() -> None:
    """Import every bundled experiment module (idempotent)."""
    for mod in _EXPERIMENT_MODULES:
        importlib.import_module(mod)


def get_experiment(exp_id: str) -> ExperimentSpec:
    """Look up one spec; raises :class:`ConfigError` with suggestions."""
    load_all_experiments()
    try:
        return _REGISTRY[exp_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigError(f"unknown experiment {exp_id!r}; known: {known}") from None


def experiment_ids() -> List[str]:
    """All registered ids, in registration (paper) order."""
    load_all_experiments()
    return list(_REGISTRY)


def all_experiments() -> List[ExperimentSpec]:
    """All registered specs, in registration (paper) order."""
    load_all_experiments()
    return list(_REGISTRY.values())
