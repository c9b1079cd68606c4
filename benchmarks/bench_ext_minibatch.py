"""Extension — online mini-batch partial_fit (shim).

The online engine (``repro.engine.minibatch``) folds arriving batches
into the selection matrix and centroid norms with per-cluster
learning-rate counts instead of refitting from scratch.  The registry
entry compares clustering quality against the full-batch fit; the shim
times a real streamed fit and re-asserts the cold-start contract — the
first full-data ``partial_fit`` call is one full-fit iteration, bit for
bit.
"""

import numpy as np

from paperfig import run_registered
from repro.core import PopcornKernelKMeans


def test_minibatch(benchmark):
    run_registered("ext_minibatch")

    rng = np.random.default_rng(0)
    x = rng.standard_normal((300, 8)).astype(np.float64)

    def run():
        est = PopcornKernelKMeans(
            5, backend="host", dtype=np.float64, batch_size=60, seed=0
        )
        est.partial_fit(x)
        est.partial_fit(x[:120])
        return est

    online = benchmark(run)
    assert online.n_batches_seen_ == 7  # 5 cold-call batches + 2 streamed

    one_iter = PopcornKernelKMeans(
        5, backend="host", dtype=np.float64, max_iter=1, seed=0
    ).fit(x)
    cold = PopcornKernelKMeans(5, backend="host", dtype=np.float64, seed=0).partial_fit(x)
    assert np.array_equal(one_iter.labels_, cold.labels_)
    assert one_iter.objective_ == cold.objective_
