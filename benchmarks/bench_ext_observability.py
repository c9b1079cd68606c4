"""Extension — runtime observability layer (shim).

``repro.obs`` records hierarchical wall-clock spans and process-wide
metrics behind a disabled-by-default gate.  The registry entry pins the
span-tree shape of a fixed workload and its repeat-fit determinism;
the shim benchmarks the *untraced* fit (the default everyone else pays)
and re-asserts the per-fit span contract on a traced run.
"""

import numpy as np

from paperfig import run_registered
from repro.core import PopcornKernelKMeans
from repro.obs import trace


def test_observability(benchmark):
    run_registered("ext_observability")

    rng = np.random.default_rng(0)
    x = rng.standard_normal((300, 8)).astype(np.float64)

    def fit():
        return PopcornKernelKMeans(
            5,
            backend="host",
            dtype=np.float64,
            max_iter=5,
            check_convergence=False,
            seed=0,
        ).fit(x)

    est = benchmark(fit)  # tracer off: the zero-cost default path
    assert est.trace_ == {}

    was_enabled = trace.enabled
    trace.enable()
    try:
        traced = fit()
    finally:
        trace.enabled = was_enabled
    assert traced.trace_["fit.iter"]["count"] == 5
    for phase in ("fit.distances", "fit.argmin", "fit.update", "fit.inertia"):
        assert traced.trace_[phase]["count"] == 5
    assert np.array_equal(est.labels_, traced.labels_)  # tracing never steers
