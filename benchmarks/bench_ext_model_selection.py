"""Extension — registry-driven grid search (shim).

The registry entry sweeps the Gaussian bandwidth of an exact kernel
k-means over the concentric-circles workload through
:class:`repro.select.GridSearchKernelKMeans` (clone-based candidates,
``make_estimator`` construction, held-out ARI scoring) and gates the
winner's ARI (``quality.model_selection_best_ari``); its check pins the
winning bandwidth.  The shim re-runs the full-mode sweep, then times one
small search with pytest-benchmark and verifies the selection contract:
the search refits its winner and predicts with it.
"""

import numpy as np

from paperfig import run_registered
from repro.data import make_circles
from repro.kernels import GaussianKernel
from repro.select import GridSearchKernelKMeans


def test_model_selection_search(benchmark):
    run_registered("model_selection")

    x, y = make_circles(120, rng=0)

    def run():
        return GridSearchKernelKMeans(
            "popcorn",
            {
                "n_clusters": [2],
                "backend": ["host"],
                "dtype": [np.float64],
                "kernel": [GaussianKernel(gamma=g) for g in (2.0, 5.0)],
                "max_iter": [10],
                "seed": [0],
            },
            scoring="ari",
            cv=2,
        ).fit(x, y)

    search = benchmark(run)
    assert search.best_params_["kernel"].gamma in (2.0, 5.0)
    labels = search.predict(x)
    assert labels.shape == (x.shape[0],)
    assert set(np.unique(labels)) <= {0, 1}
