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


def test_nystrom_error_is_independent_of_blas_threads():
    """``ext_nystrom``'s error metric is the same bits under any BLAS
    thread count, so a baseline recorded on one machine holds on another."""
    import os
    import subprocess
    import sys

    import repro

    script = (
        "from repro.bench import RunConfig\n"
        "from repro.bench.experiments.extensions import run_ext_nystrom\n"
        "r = run_ext_nystrom(RunConfig(quick=True))\n"
        "print(repr(r.metrics['error.min_kernel_rel_error']))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    values = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        values.append(proc.stdout.strip())
    assert values[0] == values[1]
