"""The engine-level out-of-sample predict contract, across the family."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    BaselineCUDAKernelKMeans,
    DistributedPopcornKernelKMeans,
    ElkanKMeans,
    LloydKMeans,
    NystromKernelKMeans,
    PopcornKernelKMeans,
    PRMLTKernelKMeans,
    SpectralKernelKMeans,
    WeightedPopcornKernelKMeans,
)
from repro.core import OnTheFlyKernelKMeans
from repro.data import make_blobs
from repro.engine.base import OutOfSamplePredictor
from repro.errors import ConfigError, ShapeError
from repro.estimators import available_estimators, estimator_name, make_estimator
from repro.kernels import PolynomialKernel

ALL_PREDICTORS = (
    PopcornKernelKMeans,
    WeightedPopcornKernelKMeans,
    BaselineCUDAKernelKMeans,
    DistributedPopcornKernelKMeans,
    NystromKernelKMeans,
    SpectralKernelKMeans,
    OnTheFlyKernelKMeans,
    PRMLTKernelKMeans,
    LloydKMeans,
    ElkanKMeans,
)


@pytest.fixture(scope="module")
def blobs64():
    x, _ = make_blobs(90, 5, 3, rng=7)
    q = np.random.default_rng(42).standard_normal((19, 5))
    return x.astype(np.float64), q, 3


class TestUnifiedContract:
    @pytest.mark.parametrize("cls", ALL_PREDICTORS)
    def test_every_estimator_shares_the_mixin(self, cls):
        """One predict implementation: no estimator-local signature drift."""
        assert issubclass(cls, OutOfSamplePredictor)
        assert cls.predict is OutOfSamplePredictor.predict
        assert cls.predict_batch is OutOfSamplePredictor.predict_batch

    @pytest.mark.parametrize(
        "make",
        [
            lambda k: PopcornKernelKMeans(k, dtype=np.float64, max_iter=6, seed=0),
            lambda k: BaselineCUDAKernelKMeans(k, dtype=np.float64, max_iter=6, seed=0),
            lambda k: DistributedPopcornKernelKMeans(k, n_devices=3, max_iter=6, seed=0),
            lambda k: NystromKernelKMeans(k, n_landmarks=40, seed=0),
            lambda k: OnTheFlyKernelKMeans(k, block_rows=32, max_iter=6, seed=0),
            lambda k: PRMLTKernelKMeans(k, max_iter=6, seed=0),
            lambda k: LloydKMeans(k, seed=0),
            lambda k: ElkanKMeans(k, seed=0),
        ],
        ids=[
            "popcorn", "baseline", "distributed", "nystrom",
            "onthefly", "prmlt", "lloyd", "elkan",
        ],
    )
    def test_predict_and_batch_agree(self, make, blobs64):
        x, q, k = blobs64
        est = make(k).fit(x)
        labels = est.predict(q)
        assert labels.dtype == np.int32
        assert labels.shape == (q.shape[0],)
        assert np.all((0 <= labels) & (labels < k))
        # batching and query-tiling cannot change a single label
        assert np.array_equal(est.predict_batch([q[:7], q[7:]]), labels)
        assert np.array_equal(est.predict(q, chunk_rows=4), labels)

    def test_unfitted_raises(self):
        with pytest.raises(ConfigError, match="not fitted"):
            PopcornKernelKMeans(3).predict(np.zeros((2, 2)))
        with pytest.raises(ConfigError, match="not fitted"):
            LloydKMeans(3).predict(np.zeros((2, 2)))

    def test_x_and_cross_kernel_mutually_exclusive(self, blobs64):
        x, q, k = blobs64
        est = PopcornKernelKMeans(k, dtype=np.float64, seed=0).fit(x)
        with pytest.raises(ConfigError, match="not both"):
            est.predict(q, cross_kernel=np.zeros((2, x.shape[0])))

    def test_neither_argument_raises(self, blobs64):
        x, _, k = blobs64
        est = PopcornKernelKMeans(k, dtype=np.float64, seed=0).fit(x)
        with pytest.raises(ShapeError, match="query points"):
            est.predict()

    def test_centers_estimator_rejects_cross_kernel(self, blobs64):
        x, _, k = blobs64
        est = LloydKMeans(k, seed=0).fit(x)
        with pytest.raises(ConfigError, match="centers"):
            est.predict(cross_kernel=np.zeros((2, x.shape[0])))

    def test_empty_query_block_returns_empty_labels(self, blobs64):
        """Zero queries is a valid (drained-queue) request, not an error."""
        x, _, k = blobs64
        for est in (
            PopcornKernelKMeans(k, dtype=np.float64, seed=0).fit(x),
            LloydKMeans(k, seed=0).fit(x),
        ):
            out = est.predict(np.empty((0, x.shape[1])))
            assert out.shape == (0,) and out.dtype == np.int32
            assert est.predict_batch([]).shape == (0,)
            assert est.predict_batch([np.empty((0, x.shape[1])), x[:3]]).shape == (3,)
        km_est = PopcornKernelKMeans(k, dtype=np.float64, seed=0).fit(x)
        assert km_est.predict(cross_kernel=np.empty((0, x.shape[0]))).shape == (0,)

    def test_cross_kernel_width_checked(self, blobs64):
        x, _, k = blobs64
        kern = PolynomialKernel()
        est = PopcornKernelKMeans(k, kernel=kern, dtype=np.float64, seed=0).fit(x)
        with pytest.raises(ShapeError, match="columns"):
            est.predict(cross_kernel=np.zeros((2, x.shape[0] + 1)))

    @pytest.mark.parametrize("cls", ALL_PREDICTORS, ids=lambda c: c.__name__)
    def test_wrong_feature_width_raises_shape_error(self, cls, blobs64):
        x, _, k = blobs64
        est = make_estimator(estimator_name(cls), n_clusters=k, seed=0).fit(x)
        # spectral predicts through cross_kernel only, which is its own
        # ShapeError; every other estimator names the mismatch
        match = "cross_kernel" if cls is SpectralKernelKMeans else "mismatch: 7 vs 5"
        with pytest.raises(ShapeError, match=match):
            est.predict(np.zeros((3, 7)))

    @pytest.mark.parametrize("name", [n for n in available_estimators() if n != "spectral"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_queries_raise_config_error(self, name, bad, blobs64):
        """Every registered estimator that predicts from points rejects a
        NaN or inf query, the error the serving core gives such a row."""
        x, q, k = blobs64
        est = make_estimator(name, n_clusters=k, seed=0).fit(x)
        q = q[:3].copy()
        q[1, 2] = bad
        with pytest.raises(ConfigError, match="NaN or inf"):
            est.predict(q)

    @pytest.mark.parametrize("name", ["popcorn", "spectral"])
    def test_non_finite_cross_kernel_raises_config_error(self, name, blobs64):
        x, _, k = blobs64
        km = PolynomialKernel().pairwise(x)
        est = make_estimator(name, n_clusters=k, seed=0)
        # spectral builds its kernel from x and predicts through cross_kernel
        if name == "spectral":
            est.fit(x)
        else:
            est.fit(kernel_matrix=km)
        ck = km[:3].copy()
        ck[0, 4] = np.nan
        with pytest.raises(ConfigError, match="NaN or inf"):
            est.predict(cross_kernel=ck)


class TestSelfConsistency:
    def test_training_points_reproduce_labels(self, blobs64):
        """Converged fits assign their own training points to labels_."""
        x, _, k = blobs64
        for est in (
            PopcornKernelKMeans(k, dtype=np.float64, seed=0).fit(x),
            BaselineCUDAKernelKMeans(k, dtype=np.float64, seed=0).fit(x),
            DistributedPopcornKernelKMeans(k, n_devices=2, seed=0).fit(x),
            OnTheFlyKernelKMeans(k, block_rows=32, seed=0).fit(x),
            PRMLTKernelKMeans(k, seed=0).fit(x),
            LloydKMeans(k, seed=0).fit(x),
        ):
            assert np.array_equal(est.predict(x), est.labels_), type(est).__name__

    def test_family_agrees_on_queries_from_same_init(self, blobs64):
        """Identical numerics: Popcorn/baseline/distributed/on-the-fly give
        the same out-of-sample assignments from the same initial labels."""
        x, q, k = blobs64
        init = np.random.default_rng(0).integers(0, k, x.shape[0]).astype(np.int32)
        ests = [
            PopcornKernelKMeans(k, dtype=np.float64, max_iter=10, seed=0).fit(
                x, init_labels=init
            ),
            BaselineCUDAKernelKMeans(k, dtype=np.float64, max_iter=10, seed=0).fit(
                x, init_labels=init
            ),
            DistributedPopcornKernelKMeans(
                k, n_devices=3, dtype=np.float64, max_iter=10, seed=0
            ).fit(x, init_labels=init),
            OnTheFlyKernelKMeans(k, block_rows=16, max_iter=10, seed=0).fit(
                x, init_labels=init
            ),
        ]
        ref = ests[0].predict(q)
        for est in ests[1:]:
            assert np.array_equal(est.predict(q), ref), type(est).__name__

    def test_weighted_cross_kernel_on_training_rows(self, blobs64):
        x, _, k = blobs64
        kern = PolynomialKernel()
        km = kern.pairwise(x)
        est = WeightedPopcornKernelKMeans(k, seed=0).fit(kernel_matrix=km)
        assert np.array_equal(est.predict(cross_kernel=km), est.labels_)

    def test_precomputed_fit_requires_cross_kernel(self, blobs64):
        x, q, k = blobs64
        km = PolynomialKernel().pairwise(x)
        est = PopcornKernelKMeans(k, dtype=np.float64, seed=0).fit(kernel_matrix=km)
        with pytest.raises(ShapeError, match="cross_kernel"):
            est.predict(q)

    def test_nystrom_training_embedding_is_reused(self, blobs64):
        """Out-of-sample embedding of the training points equals the fit
        embedding bit for bit, so predict(x) matches the inner Lloyd."""
        x, _, k = blobs64
        est = NystromKernelKMeans(k, n_landmarks=30, seed=0).fit(x)
        phi_q = est._query_features(x)
        assert np.array_equal(phi_q, est.embedding_)


class TestTilingProperty:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        tile=st.integers(1, 25),
        m=st.integers(1, 30),
    )
    def test_query_tiling_is_bit_exact(self, seed, tile, m):
        """Any query tiling yields bit-identical labels to monolithic."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((50, 4))
        q = rng.standard_normal((m, 4))
        est = PopcornKernelKMeans(
            4, dtype=np.float64, backend="host", max_iter=4, seed=seed
        ).fit(x)
        assert np.array_equal(est.predict(q, chunk_rows=tile), est.predict(q))
