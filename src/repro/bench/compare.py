"""Perf-regression gate: compare two ``BENCH_results.json`` artifacts.

``repro-bench compare old.json new.json --threshold 0.2`` flags every
tracked metric (see :mod:`repro.bench.artifact`) whose value moved in
the *worse* direction by more than the threshold fraction, prints a
readable table, and exits nonzero when anything regressed — the CI
contract every perf PR is judged against.  Every tracked metric is
deterministic, so the gate compares all of them, and ``--threshold 0``
flags any change at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..errors import ConfigError
from ..reporting import format_table
from .artifact import metric_lower_is_better, tracked_metrics

__all__ = ["MetricDelta", "Comparison", "compare_artifacts", "format_comparison"]

#: Ratio changes smaller than this are formatted as a plain "ok".
_NOISE_FLOOR = 1e-12


@dataclass(frozen=True)
class MetricDelta:
    """One tracked metric compared across the two artifacts."""

    exp_id: str
    metric: str
    old: float
    new: float
    change: float  # signed fraction, >0 means the metric *worsened*
    regressed: bool
    improved: bool


@dataclass(frozen=True)
class Comparison:
    """Outcome of comparing two artifacts."""

    deltas: Tuple[MetricDelta, ...]
    threshold: float
    missing_experiments: Tuple[str, ...]  # in old but absent from new
    new_experiments: Tuple[str, ...]  # in new but absent from old

    @property
    def regressions(self) -> Tuple[MetricDelta, ...]:
        return tuple(d for d in self.deltas if d.regressed)

    @property
    def improvements(self) -> Tuple[MetricDelta, ...]:
        return tuple(d for d in self.deltas if d.improved)

    @property
    def ok(self) -> bool:
        return not self.regressions


def _worsening(metric: str, old: float, new: float) -> float:
    """Signed fractional move in the *worse* direction (>0 = regression)."""
    if old == 0.0:
        change = 0.0 if new == old else float("inf") if new > old else float("-inf")
    else:
        change = (new - old) / abs(old)
    return change if metric_lower_is_better(metric) else -change


def compare_artifacts(old: Dict, new: Dict, threshold: float = 0.2) -> Comparison:
    """Compare every tracked metric present in both artifacts.

    A metric regresses when it moves in its worse direction (rise for
    ``time.*``/``error.*``/``comm.*``/``mem.*``, drop for
    ``throughput.*``/``quality.*``) by more than ``threshold`` as a
    fraction of the old value.
    """
    if threshold < 0:
        raise ConfigError(f"threshold must be non-negative, got {threshold}")
    old_exps: Dict[str, Dict] = old["experiments"]
    new_exps: Dict[str, Dict] = new["experiments"]
    deltas: List[MetricDelta] = []
    for exp_id, old_rec in old_exps.items():
        new_rec = new_exps.get(exp_id)
        if new_rec is None:
            continue
        old_metrics = tracked_metrics(old_rec)
        new_metrics = tracked_metrics(new_rec)
        for metric, old_val in old_metrics.items():
            if metric not in new_metrics:
                continue
            new_val = float(new_metrics[metric])
            worse = _worsening(metric, float(old_val), new_val)
            deltas.append(
                MetricDelta(
                    exp_id=exp_id,
                    metric=metric,
                    old=float(old_val),
                    new=new_val,
                    change=worse,
                    regressed=worse > threshold,
                    improved=worse < -threshold,
                )
            )
    return Comparison(
        deltas=tuple(deltas),
        threshold=threshold,
        missing_experiments=tuple(e for e in old_exps if e not in new_exps),
        new_experiments=tuple(e for e in new_exps if e not in old_exps),
    )


def _status(d: MetricDelta) -> str:
    if d.regressed:
        return "REGRESSION"
    if d.improved:
        return "improved"
    return "ok"


def format_comparison(cmp: Comparison, *, only_changed: bool = False) -> str:
    """Readable report: per-metric table plus a verdict line."""
    shown = [d for d in cmp.deltas if not only_changed or d.regressed or d.improved]
    lines: List[str] = []
    if shown:
        rows = [
            (
                d.exp_id,
                d.metric,
                f"{d.old:.6g}",
                f"{d.new:.6g}",
                f"{d.change:+.1%}" if abs(d.change) > _NOISE_FLOOR else "=",
                "lower" if metric_lower_is_better(d.metric) else "higher",
                _status(d),
            )
            for d in shown
        ]
        lines.append(
            format_table(
                ["experiment", "metric", "old", "new", "worse-by", "better", "status"], rows
            )
        )
    else:
        lines.append("no tracked metrics in common" if not cmp.deltas else "no changes")
    for exp_id in cmp.missing_experiments:
        lines.append(f"warning: experiment {exp_id!r} is in the baseline but not the new run")
    for exp_id in cmp.new_experiments:
        lines.append(f"note: experiment {exp_id!r} is new (no baseline to compare)")
    n_reg, n_imp = len(cmp.regressions), len(cmp.improvements)
    verdict = (
        f"{n_reg} regression(s) past the {cmp.threshold:.0%} threshold"
        if n_reg
        else f"no regressions past the {cmp.threshold:.0%} threshold"
    )
    if n_imp:
        verdict += f"; {n_imp} improvement(s)"
    lines.append(verdict)
    return "\n".join(lines)
