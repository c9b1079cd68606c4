"""Figure 2 — GEMM vs SYRK kernel-matrix computation (registry shim).

The paper sweeps n in {50000, 10000} x d in {100, 1000, 10000, 100000}
and finds GEMM up to 3.2x faster at large n/d, SYRK up to 2.4x faster at
small n/d, with the crossover near n/d = 100.  The registry entry
regenerates the modeled series at the paper's sizes; the shim *executes*
both strategies at a laptop scale through the device backend to verify
they produce identical kernel matrices and labels, and that each charges
its own cuBLAS launches.
"""

import numpy as np

from paperfig import run_registered
from repro import PopcornKernelKMeans
from repro.engine import get_backend
from repro.gpu import A100_80GB, Device
from repro.kernels import PolynomialKernel

GRAM_LAUNCHES = {
    "gemm": {"cublas.gemm": 1, "cublas.syrk": 0, "custom.triangular_mirror": 0},
    "syrk": {"cublas.gemm": 0, "cublas.syrk": 1, "custom.triangular_mirror": 1},
}


def _kernel_stage(x, method):
    """K as the device backend's kernel stage builds it."""
    backend = get_backend("device")
    state = backend.begin(n_clusters=4, dtype=x.dtype, device=Device(A100_80GB))
    backend.compute_kernel_matrix(state, x, PolynomialKernel(), method=method)
    return state.k_op.a


def test_fig2_gemm_vs_syrk(benchmark):
    run_registered("fig2")

    # executing cross-check at laptop scale: identical K and labels
    rng = np.random.default_rng(0)
    x = rng.standard_normal((256, 32)).astype(np.float64)

    def both():
        return {
            method: PopcornKernelKMeans(
                4,
                kernel=PolynomialKernel(),
                backend="device",
                gram_method=method,
                dtype=np.float64,
                seed=0,
            ).fit(x)
            for method in GRAM_LAUNCHES
        }

    fits = benchmark(both)
    assert np.array_equal(_kernel_stage(x, "gemm"), _kernel_stage(x, "syrk"))
    assert np.array_equal(fits["gemm"].labels_, fits["syrk"].labels_)
    for method, counts in GRAM_LAUNCHES.items():
        assert fits[method].gram_method_ == method
        for name, count in counts.items():
            assert fits[method].profiler_.count_of(name) == count, (method, name)
