"""The blocking gate's premise: two runs of one tree report identical metrics.

The gate compares every tracked metric with no exclusion list, which is
only sound when none of them reads a clock.  These are the experiments
that execute real fits, searches and serving doors on the host, where a
timing would show up first.
"""

from repro.bench import RunConfig, compare_artifacts, run_experiments

EXECUTED_IDS = [
    "ext_minibatch",
    "ext_reduction_engine",
    "model_selection",
    "ext_observability",
    "ext_async_serving",
]


def _quick_run():
    art, failures = run_experiments(
        EXECUTED_IDS, RunConfig(quick=True), write_csv=False, echo=lambda *a, **k: None
    )
    assert not failures
    return art


def test_back_to_back_runs_report_identical_metrics():
    a, b = _quick_run(), _quick_run()
    cmp = compare_artifacts(a, b, threshold=0.0)
    assert {d.exp_id for d in cmp.deltas} == set(EXECUTED_IDS)
    changed = [(d.exp_id, d.metric, d.old, d.new) for d in cmp.deltas if d.old != d.new]
    assert changed == []
    assert cmp.ok and not cmp.improvements
