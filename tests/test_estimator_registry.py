"""The string-keyed estimator registry and its JSON config round trip."""

import numpy as np
import pytest

import repro
from repro import available_estimators, get_estimator_class, make_estimator
from repro.data import make_blobs
from repro.errors import ConfigError
from repro.estimators import (
    estimator_config,
    estimator_from_config,
    estimator_name,
    register_estimator,
)

EXPECTED = {
    "popcorn",
    "weighted",
    "onthefly",
    "baseline",
    "prmlt",
    "lloyd",
    "elkan",
    "nystrom",
    "distributed",
    "spectral",
}


class TestRegistry:
    def test_all_ten_estimators_registered(self):
        assert set(available_estimators()) == EXPECTED

    def test_lookup_and_naming_are_inverse(self):
        for name in available_estimators():
            cls = get_estimator_class(name)
            assert estimator_name(cls) == name
            assert estimator_name(make_estimator(name, n_clusters=2)) == name

    def test_unknown_name_lists_available(self):
        with pytest.raises(ConfigError, match="available"):
            make_estimator("kmeanz")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigError, match="already registered"):
            register_estimator("popcorn")(type("Fake", (), {}))

    def test_reregistering_same_class_is_idempotent(self):
        cls = get_estimator_class("popcorn")
        caps = cls._capabilities
        assert register_estimator("popcorn")(cls) is cls
        assert cls._capabilities == caps  # no capability is dropped

    def test_unregistered_class_has_no_name(self):
        with pytest.raises(ConfigError, match="not a registered estimator"):
            estimator_name(object())

    def test_new_registration_is_instantly_constructible(self):
        from repro.baselines import LloydKMeans

        @register_estimator("test-lloyd-alias")
        class AliasLloyd(LloydKMeans):
            pass

        try:
            est = make_estimator("test-lloyd-alias", n_clusters=2)
            assert isinstance(est, AliasLloyd)
        finally:
            from repro import estimators as mod

            del mod._REGISTRY["test-lloyd-alias"]
            # restore Lloyd's own registry name clobbered by the subclass
            LloydKMeans._registry_name = "lloyd"


class TestConfigRoundTrip:
    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_config_survives_json(self, name):
        import json

        est = make_estimator(name, n_clusters=3, seed=11)
        cfg = json.loads(json.dumps(estimator_config(est)))
        rebuilt = estimator_from_config(cfg["estimator"], cfg["params"])
        assert type(rebuilt) is type(est)
        assert repr(rebuilt.get_params(deep=False)) == repr(est.get_params(deep=False))

    def test_kernel_and_dtype_encoding(self):
        est = make_estimator(
            "popcorn", n_clusters=2, kernel="gaussian", dtype=np.float64
        )
        cfg = estimator_config(est)
        assert cfg["params"]["kernel"]["name"] == "gaussian"
        assert cfg["params"]["dtype"] == {"__kind__": "dtype", "name": "float64"}
        rebuilt = estimator_from_config(cfg["estimator"], cfg["params"])
        assert rebuilt.dtype == np.float64
        assert rebuilt.kernel.gamma == est.kernel.gamma

    def test_spec_encoding(self):
        from repro.distributed import INFINIBAND
        from repro.gpu import V100_32GB

        est = make_estimator(
            "distributed", n_clusters=2, n_devices=3, spec=V100_32GB, comm=INFINIBAND
        )
        cfg = estimator_config(est)
        rebuilt = estimator_from_config(cfg["estimator"], cfg["params"])
        assert rebuilt.spec == V100_32GB
        assert rebuilt.comm == INFINIBAND

    def test_registry_backend_instance_encodes_by_name(self):
        from repro.engine import get_backend

        est = make_estimator("popcorn", n_clusters=2, backend=get_backend("host"))
        cfg = estimator_config(est)
        assert cfg["params"]["backend"] == "host"
        rebuilt = estimator_from_config(cfg["estimator"], cfg["params"])
        assert rebuilt.backend == "host"

    def test_device_instance_encodes_as_its_spec(self):
        from repro.gpu import Device, V100_32GB

        est = make_estimator("popcorn", n_clusters=2, device=Device(V100_32GB))
        cfg = estimator_config(est)
        rebuilt = estimator_from_config(cfg["estimator"], cfg["params"])
        assert rebuilt.device == V100_32GB

    def test_custom_configured_backend_rejected_with_hint(self):
        from repro.distributed import INFINIBAND
        from repro.engine import ShardedBackend

        # encoding "sharded:2" by name would silently drop the custom
        # interconnect, so this must be rejected, not misencoded
        est = make_estimator(
            "popcorn", n_clusters=2, backend=ShardedBackend(2, comm=INFINIBAND)
        )
        with pytest.raises(ConfigError, match="backend='sharded:4'"):
            estimator_config(est)

    def test_missing_required_param_is_config_error(self):
        with pytest.raises(ConfigError, match="n_clusters"):
            make_estimator("popcorn")

    def test_round_trip_fit_matches(self):
        x, _ = make_blobs(40, 3, 2, rng=0)
        for name in ("popcorn", "lloyd", "nystrom"):
            est = make_estimator(name, n_clusters=2, seed=3)
            cfg = estimator_config(est)
            rebuilt = estimator_from_config(cfg["estimator"], cfg["params"])
            assert np.array_equal(est.fit(x).labels_, rebuilt.fit(x).labels_)


class TestPackageExports:
    def test_all_names_importable(self):
        missing = [n for n in repro.__all__ if not hasattr(repro, n)]
        assert missing == []

    def test_every_estimator_class_exported(self):
        for name in available_estimators():
            cls = get_estimator_class(name)
            assert cls.__name__ in repro.__all__, cls.__name__
            assert getattr(repro, cls.__name__) is cls

    def test_registry_and_select_api_exported(self):
        for name in (
            "make_estimator",
            "available_estimators",
            "register_estimator",
            "clone",
            "check_is_fitted",
            "NotFittedError",
            "GridSearchKernelKMeans",
            "cross_validate",
            "ParameterGrid",
        ):
            assert name in repro.__all__, name
