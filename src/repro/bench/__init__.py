"""repro.bench — the registry-driven benchmark subsystem.

Reproduces the paper's evaluation (Sec. 5) as declarative registry
entries instead of stand-alone scripts:

``repro.bench.registry``
    :class:`ExperimentSpec` + :func:`register_experiment` — each figure,
    table, and ablation declares its datasets, k-sweep, row producer,
    and shape ``check``.
``repro.bench.runner``
    Executes any subset (optionally process-parallel), writes the legacy
    ``benchmarks/results/<exp_id>.csv`` files unchanged, and consolidates
    one schema-versioned ``BENCH_results.json``.
``repro.bench.artifact``
    The JSON schema (version 2): per-experiment rows, tracked metrics,
    environment + device-model metadata.
``repro.bench.compare``
    The perf-regression gate behind ``repro-bench compare``: flags any
    tracked metric that moved in its worse direction past a threshold.
``repro.bench.cli``
    The ``repro-bench`` console script (``list`` / ``run`` / ``compare``).

Every tracked metric is modeled on the simulated device or counted on a
seeded execution, never read off a clock; measured host wall-clock
numbers live in ``hostbench/``.

Quickstart::

    repro-bench list
    repro-bench run --all --out BENCH_results.json
    repro-bench run --only fig5 --quick
    repro-bench compare baseline.json BENCH_results.json --threshold 0.2
"""

from .artifact import SCHEMA_VERSION, load_artifact, tracked_metrics, write_artifact
from .compare import Comparison, MetricDelta, compare_artifacts, format_comparison
from .registry import (
    ExperimentResult,
    ExperimentSpec,
    RunConfig,
    all_experiments,
    experiment_ids,
    get_experiment,
    load_all_experiments,
    register_experiment,
)
from .runner import DEFAULT_RESULTS_DIR, emit_result, run_experiment, run_experiments

__all__ = [
    "SCHEMA_VERSION",
    "load_artifact",
    "write_artifact",
    "tracked_metrics",
    "Comparison",
    "MetricDelta",
    "compare_artifacts",
    "format_comparison",
    "ExperimentResult",
    "ExperimentSpec",
    "RunConfig",
    "register_experiment",
    "get_experiment",
    "experiment_ids",
    "all_experiments",
    "load_all_experiments",
    "DEFAULT_RESULTS_DIR",
    "emit_result",
    "run_experiment",
    "run_experiments",
]
