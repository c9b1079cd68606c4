"""Cached squared norms of the support set for cross-kernel prediction.

Kernels that need squared norms (Gaussian, cosine, rational quadratic)
take the support's norms through ``pairwise(support, queries, x_sq=)``,
the support-major orientation prediction evaluates.  The
estimator computes them once per ``_support_x`` array, so ``predict``
stops re-reading the whole support every call, and any new support
array (refit, ``partial_fit`` growth, ``load_model``) gets fresh norms.
"""

import numpy as np
import pytest

from repro import PopcornKernelKMeans
from repro.data import make_blobs
from repro.kernels import (
    GaussianKernel,
    LaplacianKernel,
    LinearKernel,
    PolynomialKernel,
    SigmoidKernel,
)
from repro.kernels.extra import CosineKernel, RationalQuadraticKernel
from repro.serve.persist import load_model, save_model


@pytest.mark.parametrize(
    "kernel",
    [
        GaussianKernel(gamma=0.2),
        CosineKernel(),
        RationalQuadraticKernel(alpha=2.0),
        PolynomialKernel(),
        LinearKernel(),
        SigmoidKernel(),
        LaplacianKernel(gamma=0.3),
    ],
)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pairwise_with_y_sq_is_bitwise_the_plain_call(kernel, dtype):
    """``x_sq``/``y_sq`` are the norms the plain call computes, so
    passing either, both, or ``x_sq`` alone for ``y=None`` changes no
    bit; kernels without norms ignore them."""
    rng = np.random.default_rng(2)
    x = rng.standard_normal((9, 6)).astype(dtype)
    y = rng.standard_normal((31, 6)).astype(dtype)
    x_sq = np.einsum("ij,ij->i", x, x)
    y_sq = np.einsum("ij,ij->i", y, y)
    plain = kernel.pairwise(x, y)
    np.testing.assert_array_equal(kernel.pairwise(x, y, y_sq=y_sq), plain)
    np.testing.assert_array_equal(kernel.pairwise(x, y, x_sq=x_sq), plain)
    np.testing.assert_array_equal(kernel.pairwise(x, y, x_sq=x_sq, y_sq=y_sq), plain)
    np.testing.assert_array_equal(kernel.pairwise(x, x_sq=x_sq), kernel.pairwise(x))
    # the support-major orientation prediction uses
    np.testing.assert_array_equal(kernel.pairwise(y, x, x_sq=y_sq), kernel.pairwise(y, x))


def _fitted(dtype=np.float32, kernel=None):
    x, _ = make_blobs(120, 5, 3, center_box=5.0, rng=4)
    x = x.astype(dtype)
    est = PopcornKernelKMeans(
        3, kernel=kernel or GaussianKernel(gamma=0.2), backend="host", dtype=dtype, seed=0
    )
    return est.fit(x), x


def _uncached_labels(est, q):
    """Predict through a fresh support array, so nothing is cached."""
    saved = est._support_x
    est._support_x = saved.copy()
    try:
        return est.predict(q)
    finally:
        est._support_x = saved


def test_predict_caches_once_per_support_array():
    est, x = _fitted()
    assert est._support_sq is None
    labels = est.predict(x[:7])
    ref, dt, sq = est._support_sq
    assert ref() is est._support_x and dt == np.float32
    np.testing.assert_array_equal(sq, np.einsum("ij,ij->i", x, x))
    est.predict(x[7:9])
    assert est._support_sq[2] is sq  # reused, not recomputed
    np.testing.assert_array_equal(labels, _uncached_labels(est, x[:7]))


def test_partial_fit_growth_refreshes_the_norms():
    est, x = _fitted()
    est.predict(x[:3])
    extra, _ = make_blobs(40, 5, 3, center_box=5.0, rng=9)
    est.partial_fit(extra.astype(np.float32))
    q = extra[:11].astype(np.float32)
    labels = est.predict(q)
    sup = est._support_x
    assert sup.shape[0] == 160
    np.testing.assert_array_equal(est._support_sq[2], np.einsum("ij,ij->i", sup, sup))
    np.testing.assert_array_equal(labels, _uncached_labels(est, q))


def test_load_model_recomputes_and_never_persists(tmp_path):
    est, x = _fitted()
    want = est.predict(x[:10])
    path = save_model(est, str(tmp_path / "model"))
    loaded = load_model(path)
    assert loaded._support_sq is None
    np.testing.assert_array_equal(loaded.predict(x[:10]), want)
    assert loaded._support_sq[0]() is loaded._support_x


def test_kernels_without_norms_skip_the_cache():
    est, x = _fitted(kernel=PolynomialKernel())
    est.predict(x[:5])
    assert est._support_sq is None
