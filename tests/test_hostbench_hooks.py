"""hostbench's layer hooks still find what they wrap.

``hostbench/layers.py`` measures each layer by wrapping module-level
functions and methods of the program by name.  A rename or a changed
call shape would silently drop a layer from the traced run (or fail it);
this runs a tiny traced host fit + predict under its ``instrument()``
and checks that every layer span the distance step and the Gram stage
report is still emitted, and that everything is put back on exit.
"""

import importlib.util
import pathlib

import numpy as np
import pytest

from repro import PopcornKernelKMeans
from repro.data import make_blobs
from repro.engine import backends, reduction
from repro.kernels import GaussianKernel
from repro.obs import trace

LAYERS = pathlib.Path(__file__).resolve().parents[1] / "hostbench" / "layers.py"
#: spans of the Gram stage, the distance step and predict
LAYER_SPANS = (
    "kernels.gram",
    "reduction.sweep",
    "reduction.zpass",
    "sparse.spmm",
    "reduction.cross",
)


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("hostbench_layers", LAYERS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_fit_and_predict_emit_every_layer(layers):
    x, _ = make_blobs(160, 4, 4, center_box=5.0, rng=3)
    x = x.astype(np.float32)
    originals = (
        backends._host_kernel_matrix,
        reduction._label_gather,
        reduction._PopcornArgmin.run,
        reduction.CrossKernelArgmin.run,
    )
    was_enabled = trace.enabled
    with layers.instrument():
        start = layers.mark()
        est = PopcornKernelKMeans(
            4,
            kernel=GaussianKernel(gamma=0.25),
            backend="host",
            max_iter=3,
            check_convergence=False,
            n_threads=2,
            seed=0,
        )
        est.fit(x)
        est.predict(x[:20])
        spans = layers.spans_since(start)
    names = {s.name for s in spans}
    for name in LAYER_SPANS:
        assert name in names, f"traced run emitted no {name!r} span"
    gram = [s for s in spans if s.name == "kernels.gram"]
    assert gram[0].attrs["method"] in ("gemm", "syrk") and gram[0].attrs["flops"] > 0
    sweep = [s for s in spans if s.name == "reduction.sweep"]
    assert all(s.attrs["panel_bytes"] > 0 for s in sweep)
    # instrument() restores every wrapped name and the tracer gate
    assert originals == (
        backends._host_kernel_matrix,
        reduction._label_gather,
        reduction._PopcornArgmin.run,
        reduction.CrossKernelArgmin.run,
    )
    assert trace.enabled == was_enabled
