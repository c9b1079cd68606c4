"""Serving quickstart: persist a fitted model and serve queries at scale.

The full inference lifecycle of the `repro.serve` subsystem:

1. fit Popcorn Kernel K-means on a training set;
2. save it as a versioned artifact and reload it (as a serving process
   would after a deploy) — predictions round-trip bit-exactly;
3. stand up a `PredictionService` (micro-batching queue + LRU cache +
   worker threads) and push a repeating query stream through it;
4. print the serving stats the service tracks per request.

Run:  python examples/serve_quickstart.py
"""

import os
import tempfile

import numpy as np

from repro import PopcornKernelKMeans, PredictionService, load_model, save_model
from repro.data import make_blobs
from repro.reporting import format_table


def main() -> None:
    # --- train ---------------------------------------------------------
    x, _ = make_blobs(1200, 8, 5, rng=0)
    model = PopcornKernelKMeans(
        5, kernel="gaussian", backend="host", dtype=np.float64, seed=0
    ).fit(x)
    print(f"fitted Popcorn on n={x.shape[0]} d={x.shape[1]} "
          f"(k=5, {model.n_iter_} iterations)\n")

    # --- persist + reload ---------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        path = save_model(model, os.path.join(tmp, "model.npz"))
        size = os.path.getsize(path)
        served_model = load_model(path)
    print(f"artifact round trip: {size} bytes on disk")

    # held-out queries; ~30% of the stream repeats earlier queries (the
    # heavy-traffic pattern the LRU kernel-row cache absorbs)
    rng = np.random.default_rng(1)
    fresh = rng.standard_normal((700, 8))
    stream = np.concatenate([fresh, fresh[rng.integers(0, 700, size=300)]])

    reference = model.predict(stream)
    assert np.array_equal(served_model.predict(stream), reference), (
        "reloaded model must predict bit-identically"
    )

    # --- serve ---------------------------------------------------------
    with PredictionService(
        served_model, batch_size=64, n_workers=2, cache_size=1024
    ) as svc:
        head = svc.predict_many(stream[:700])
        tail = svc.predict_many(stream[700:])
        stats = svc.stats()
    served = np.concatenate([head, tail])
    assert np.array_equal(served, reference), "served labels must match predict"

    print("\nserving stats (micro-batched, cached):")
    print(
        format_table(
            ["stat", "value"],
            [
                ("requests", stats["requests"]),
                ("batches", stats["batches"]),
                ("mean batch size", f"{stats['mean_batch_size']:.1f}"),
                ("cache hit rate", f"{stats['cache_hit_rate'] * 100:.0f}%"),
                ("throughput", f"{stats['queries_per_s']:.0f} queries/s"),
                ("latency p50", f"{stats['latency_p50_ms']:.2f} ms"),
                ("latency p95", f"{stats['latency_p95_ms']:.2f} ms"),
            ],
        )
    )
    assert stats["cache_hits"] > 0, "repeated queries must hit the cache"
    print("\nserved labels are bit-identical to the fitting estimator's predict")


if __name__ == "__main__":
    main()
