"""ServeConfig / ServeResult: the unified serving configuration surface."""

import warnings

import numpy as np
import pytest

from repro import PopcornKernelKMeans
from repro.data import make_blobs
from repro.errors import ConfigError
from repro.serve import PredictionService, ServeConfig, ServeResult


@pytest.fixture(scope="module")
def fitted():
    x = make_blobs(60, 4, 3, rng=5)[0].astype(np.float64)
    model = PopcornKernelKMeans(
        3, dtype=np.float64, backend="host", max_iter=5, seed=0
    ).fit(x)
    q = np.random.default_rng(9).standard_normal((17, 4))
    return model, q


class TestServeConfig:
    def test_defaults(self):
        cfg = ServeConfig()
        assert cfg.batch_size == 32
        assert cfg.max_delay_ms is None
        assert cfg.n_workers == 1
        assert cfg.queue_bound is None
        assert cfg.cache_size == 1024
        assert cfg.chunk_rows is None
        assert repr(cfg) == "ServeConfig()"

    def test_estimator_params_surface(self):
        cfg = ServeConfig(batch_size=8, queue_bound=64)
        assert cfg.get_params()["queue_bound"] == 64
        assert repr(cfg) == "ServeConfig(batch_size=8, queue_bound=64)"
        other = cfg.clone()
        other.set_params(batch_size=16)
        assert (cfg.batch_size, other.batch_size) == (8, 16)

    @pytest.mark.parametrize(
        "bad",
        [
            {"batch_size": 0},
            {"n_workers": 0},
            {"queue_bound": 0},
            {"cache_size": -1},
            {"chunk_cols": 0},
            {"latency_window": 0},
            {"batch_size": True},
            {"batch_size": 2.5},
            {"devices": 0},
            {"nonsense_knob": 1},
        ],
    )
    def test_bad_knobs_rejected(self, bad):
        with pytest.raises((ConfigError, TypeError)):
            ServeConfig(**bad)

    def test_integral_float_accepted(self):
        assert ServeConfig(batch_size=8.0).batch_size == 8

    def test_max_delay_ms_is_deprecated_but_validated(self):
        with pytest.warns(DeprecationWarning, match="max_delay_ms"):
            cfg = ServeConfig(max_delay_ms=5.0)
        assert cfg.max_delay_ms == 5.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cfg.clone().max_delay_ms == 5.0  # the copy does not warn again
            ServeConfig(batch_size=4)  # nor does a config that never names it
        with pytest.warns(DeprecationWarning), pytest.raises(ConfigError):
            ServeConfig(max_delay_ms=-0.5)

    def test_predict_kwargs(self):
        cfg = ServeConfig(chunk_rows=4, n_threads=2)
        assert cfg.predict_kwargs() == {
            "chunk_rows": 4, "chunk_cols": None, "n_threads": 2,
        }

    def test_coerce_contract(self):
        cfg = ServeConfig(batch_size=8)
        out = ServeConfig.coerce(cfg, {}, owner="X")
        assert out is not cfg and out.batch_size == 8  # service owns a copy
        assert ServeConfig.coerce(None, {"batch_size": 4}, owner="X").batch_size == 4
        with pytest.raises(ConfigError, match="both config="):
            ServeConfig.coerce(cfg, {"batch_size": 4}, owner="X")
        with pytest.raises(ConfigError, match="ServeConfig"):
            ServeConfig.coerce({"batch_size": 4}, {}, owner="X")

    def test_service_accepts_config_object(self, fitted):
        model, q = fitted
        cfg = ServeConfig(batch_size=4, cache_size=0)
        with PredictionService(model, cfg) as svc:
            assert svc.config.batch_size == 4
            assert np.array_equal(svc.predict_many(q), model.predict(q))
        # the service cloned the config: mutating ours after the fact is inert
        cfg.set_params(batch_size=99)
        assert svc.config.batch_size == 4

    def test_service_rejects_config_plus_kwargs(self, fitted):
        model, _ = fitted
        with pytest.raises(ConfigError, match="both config="):
            PredictionService(model, ServeConfig(), batch_size=4)


class TestServeResult:
    def test_int_compatibility(self):
        r = ServeResult(2, model_version=3, cache_hit=True, latency_s=0.004)
        assert r == 2 and int(r) == 2 and r + 1 == 3
        assert np.arange(10)[r] == 2  # usable as an index
        assert r.label == 2

    def test_metadata_and_dict(self):
        r = ServeResult(1, model_version=5, coalesced=True, latency_s=0.25)
        assert r.latency_ms == pytest.approx(250.0)
        assert r.to_dict() == {
            "label": 1, "model_version": 5, "cache_hit": False,
            "coalesced": True, "latency_ms": pytest.approx(250.0),
        }
        assert "model_version=5" in repr(r)

    def test_old_return_contract_still_served(self, fitted):
        """The deprecation shim: submit/predict answer int-compatible results."""
        model, q = fitted
        expected = model.predict(q)
        with PredictionService(model, batch_size=4) as svc:
            res = svc.predict(q[0])
            assert res == expected[0]  # old callers compare the bare label
            assert isinstance(res, ServeResult)
            assert res.model_version == 1 and not res.cache_hit
            many = svc.predict_many(q)
            assert many.dtype == np.int32  # array surface unchanged
            detailed = svc.predict_many(q, details=True)
        assert all(isinstance(r, ServeResult) for r in detailed)
        assert np.array_equal(np.array([int(r) for r in detailed]), expected)
        assert any(r.cache_hit for r in detailed)  # second pass hit the LRU
