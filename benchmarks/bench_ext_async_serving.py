"""Extension — async serving front door (shim).

``ext_async_serving`` gates the deterministic half of the front door
(burst coalescing counts, exact admission-control shedding, the modeled
autoscale curve); the shim benchmarks one inline async burst end to end
and re-asserts the coalescing contract on the executed path.
"""

import asyncio

import numpy as np

from paperfig import run_registered
from repro.serve import AsyncPredictionServer, load_model, save_model


def test_async_serving(benchmark, tmp_path):
    run_registered("ext_async_serving")

    rng = np.random.default_rng(0)
    x = rng.standard_normal((300, 8)).astype(np.float64)
    from repro import PopcornKernelKMeans

    model = PopcornKernelKMeans(
        4, backend="host", dtype=np.float64, max_iter=5,
        check_convergence=False, seed=0,
    ).fit(x)
    model = load_model(save_model(model, str(tmp_path / "m.npz")))
    queries = rng.standard_normal((24, 8))
    reference = model.predict(queries)

    async def burst():
        async with AsyncPredictionServer(
            model, batch_size=24, n_workers=1, cache_size=0,
        ) as server:
            futures = [
                server.submit_nowait(queries[i])
                for _ in range(3)
                for i in range(24)
            ]
            results = await asyncio.gather(*futures)
            return np.asarray(results[:24], dtype=np.int32), server.stats()

    labels, stats = benchmark(lambda: asyncio.run(burst()))
    assert np.array_equal(labels, reference)  # async path never steers
    assert stats["backend_rows"] == 24  # 72 requests coalesce to 24 rows
    assert stats["coalesced"] == 48
    assert stats["requests"] == stats["served"] + stats["shed"] + stats["errors"]
