"""Async serving quickstart: the open-loop front door end to end.

The asyncio half of the `repro.serve` subsystem:

1. fit Popcorn Kernel K-means and publish it as a versioned artifact;
2. stand up an `AsyncPredictionServer` over the artifact — admission
   control (`queue_bound`), digest-level coalescing of identical
   in-flight queries, micro-batching, and a shard worker replica;
3. burst duplicate-heavy traffic through it and show the backend saw
   only the unique rows;
4. overload it on purpose and count the `Overloaded` sheds;
5. drive a paced open-loop load run (`open_loop_load`) for the measured
   SLO numbers, and print the modeled autoscaling policy curve
   (`saturation_curve`) predicting how many workers a target qps needs.

Run:  python examples/async_serve_quickstart.py
"""

import asyncio
import os
import tempfile

import numpy as np

from repro import AsyncPredictionServer, PopcornKernelKMeans
from repro.data import make_blobs
from repro.errors import Overloaded
from repro.reporting import format_table
from repro.serve import curve_for_model, save_model
from repro.serve.frontdoor import open_loop_load


async def serve(path: str, model, queries: np.ndarray) -> None:
    reference = model.predict(queries)

    # --- coalescing: a duplicate-heavy burst --------------------------
    async with AsyncPredictionServer(
        path, batch_size=32, cache_size=0, processes=False
    ) as server:
        futures = [
            server.submit_nowait(queries[i])
            for _ in range(4)              # every row issued 4 times ...
            for i in range(32)
        ]
        results = await asyncio.gather(*futures)
        stats = server.stats()
    labels = np.array([int(r) for r in results[:32]], dtype=np.int32)
    assert np.array_equal(labels, reference[:32]), "async serving never steers"
    assert stats["backend_rows"] == 32, "duplicates must coalesce at the door"
    print(
        f"coalescing: {stats['requests']} requests -> "
        f"{stats['backend_rows']} backend rows in {stats['batches']} batches "
        f"({stats['coalesced']} coalesced)"
    )

    # --- admission control: overload on purpose -----------------------
    async with AsyncPredictionServer(
        path, batch_size=8, queue_bound=8, cache_size=0, processes=False
    ) as server:
        admitted, shed = [], 0
        for row in queries:                # a synchronous burst of uniques
            try:
                admitted.append(server.submit_nowait(row))
            except Overloaded:
                shed += 1
        await asyncio.gather(*admitted)
        stats = server.stats()
    assert shed == queries.shape[0] - 8, "the burst sheds exactly past the bound"
    assert stats["requests"] == stats["served"] + stats["shed"] + stats["errors"]
    print(
        f"admission control: {queries.shape[0]} bursted at queue_bound=8 -> "
        f"{stats['served']} served, {shed} shed with Overloaded"
    )

    # --- open-loop load: the measured SLO numbers ----------------------
    rows = []
    for qps in (500.0, 4000.0):
        async with AsyncPredictionServer(
            path, batch_size=32, queue_bound=1024,
            cache_size=0, processes=False,
        ) as server:
            rep = await open_loop_load(server, queries, qps)
        rows.append(
            (f"{rep.offered_qps:.0f}", rep.accepted, rep.shed,
             f"{rep.p50_ms:.2f}", f"{rep.p99_ms:.2f}")
        )
        assert rep.requests == rep.accepted + rep.shed
    print("\nopen-loop load (measured on this machine):")
    print(format_table(
        ["offered qps", "accepted", "shed", "p50 ms", "p99 ms"], rows
    ))


def main() -> None:
    # --- train + publish ----------------------------------------------
    x, _ = make_blobs(800, 8, 5, rng=0)
    model = PopcornKernelKMeans(
        5, kernel="gaussian", backend="host", dtype=np.float64, seed=0
    ).fit(x)
    queries = np.random.default_rng(1).standard_normal((64, 8))

    with tempfile.TemporaryDirectory() as tmp:
        path = save_model(model, os.path.join(tmp, "model.npz"))
        print(f"published artifact: {os.path.getsize(path)} bytes\n")
        asyncio.run(serve(path, model, queries))

    # --- autoscaling policy: modeled, machine-independent --------------
    curve = curve_for_model(model, batch_size=64, workers=(1, 2, 4, 8))
    print("\nautoscale policy (modeled on the A100 cost model):")
    print(format_table(
        ["workers", "batch us", "worker qps", "saturation qps", "limited by"],
        [p.to_row() for p in curve],
    ))
    assert curve[-1].saturation_qps >= curve[0].saturation_qps
    print("\nasync front door served, shed, and scaled exactly as configured")


if __name__ == "__main__":
    main()
