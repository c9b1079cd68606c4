"""Execute registered experiments and emit CSV + JSON artifacts.

The runner is what ``repro-bench run`` (and the CI bench job) drives:
it executes any subset of the registry — optionally in parallel across
processes — writes each experiment's legacy CSV (unchanged format, same
``benchmarks/results/<exp_id>.csv`` paths), validates the paper's shape
claims in full mode, and consolidates everything into one
schema-versioned ``BENCH_results.json`` (see :mod:`repro.bench.artifact`).
It reads no clock: every number it reports is a modeled or counted
one, so two runs of one tree on one machine write the same metrics.
"""

from __future__ import annotations

import os
import traceback
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

from .. import __version__
from ..gpu import A100_80GB
from ..reporting import format_table, write_csv_rows
from .artifact import SCHEMA_VERSION, device_metadata, environment_metadata, write_artifact
from .registry import ExperimentResult, RunConfig, get_experiment

__all__ = [
    "DEFAULT_RESULTS_DIR",
    "emit_result",
    "pool_map",
    "run_experiment",
    "run_experiments",
]


def pool_map(worker, items, jobs: int = 1, *, initializer=None, initargs=()) -> list:
    """Order-preserving map, process-parallel when ``jobs > 1``.

    The one worker pool both fan-out layers share: the bench runner maps
    experiments through it and the model-selection layer
    (:mod:`repro.select`) maps candidate fits through it.  ``worker``
    must be a module-level callable and ``items`` picklable.

    ``initializer(*initargs)`` runs once per worker process (and once
    inline on the serial path) — the place to park a large shared input
    (the search data) so it is not re-pickled into every task.
    """
    items = list(items)
    if jobs > 1 and len(items) > 1:
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(items)),
            initializer=initializer,
            initargs=initargs,
        ) as pool:
            return list(pool.map(worker, items))
    if initializer is not None:
        initializer(*initargs)
    return [worker(item) for item in items]

#: Where the per-experiment CSVs land by default (the legacy location).
DEFAULT_RESULTS_DIR = os.path.join("benchmarks", "results")


def emit_result(exp_id: str, title: str, result: ExperimentResult, results_dir: str) -> str:
    """Persist one experiment's CSV and return its printable table."""
    os.makedirs(results_dir, exist_ok=True)
    write_csv_rows(os.path.join(results_dir, f"{exp_id}.csv"), result.headers, result.rows)
    table = format_table(result.headers, result.rows)
    return f"\n=== {exp_id}: {title} ===\n{table}"


def run_experiment(
    exp_id: str,
    cfg: RunConfig,
    *,
    results_dir: str = DEFAULT_RESULTS_DIR,
    write_csv: bool = True,
    run_check: Optional[bool] = None,
) -> Tuple[Dict[str, object], str]:
    """Run one experiment end to end; returns (record, printable text).

    ``run_check`` defaults to full-mode only: quick mode subsets the
    sweeps, so the paper's full-grid shape assertions do not apply.
    """
    from ..obs import trace

    spec = get_experiment(exp_id)
    with trace.span("bench.experiment", exp_id=exp_id, quick=cfg.quick):
        result = spec.run(cfg)
        do_check = (not cfg.quick) if run_check is None else run_check
        if do_check and spec.check is not None:
            spec.check(result)
    text = ""
    if write_csv:
        text = emit_result(exp_id, spec.title, result, results_dir)
    record: Dict[str, object] = {
        "title": spec.title,
        "group": spec.group,
        "headers": list(result.headers),
        "rows": [list(r) for r in result.rows],
        "metrics": dict(result.metrics),
    }
    return record, text


def _worker(args) -> Tuple[str, Optional[Dict[str, object]], str, Optional[str]]:
    """Process-pool entry: run one experiment, never raise."""
    exp_id, cfg, results_dir, write_csv = args
    try:
        record, text = run_experiment(exp_id, cfg, results_dir=results_dir, write_csv=write_csv)
        return exp_id, record, text, None
    except Exception:
        return exp_id, None, "", traceback.format_exc()


def run_experiments(
    exp_ids: Sequence[str],
    cfg: RunConfig,
    *,
    out: Optional[str] = None,
    results_dir: str = DEFAULT_RESULTS_DIR,
    jobs: int = 1,
    write_csv: bool = True,
    echo=print,
) -> Tuple[Dict[str, object], Dict[str, str]]:
    """Run ``exp_ids`` and return ``(artifact, failures)``.

    ``jobs > 1`` fans the experiments out across worker processes (the
    registry is re-imported per worker; results are reassembled in the
    requested order).  Failures never abort the sweep — they are reported
    per experiment so one broken figure doesn't hide the rest.
    """
    work = [(exp_id, cfg, results_dir, write_csv) for exp_id in exp_ids]
    outcomes: List[Tuple[str, Optional[Dict[str, object]], str, Optional[str]]] = (
        pool_map(_worker, work, jobs)
    )

    experiments: Dict[str, Dict[str, object]] = {}
    failures: Dict[str, str] = {}
    for exp_id, record, text, error in outcomes:
        if error is not None:
            failures[exp_id] = error
            echo(f"\n=== {exp_id}: FAILED ===\n{error}")
            continue
        experiments[exp_id] = record
        if text:
            echo(text)

    artifact: Dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "generated_by": "repro.bench",
        "repro_version": __version__,
        "config": {"quick": cfg.quick, "base_seed": cfg.base_seed},
        "environment": environment_metadata(),
        "device_model": device_metadata(A100_80GB),
        "experiments": experiments,
    }
    if out:
        write_artifact(out, artifact)
        echo(f"\nwrote {len(experiments)} experiment(s) to {out}")
    return artifact, failures
