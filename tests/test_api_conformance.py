"""API conformance: every registered estimator exposes the uniform surface.

This file is the fast CI pre-gate (it runs before the full matrix): it
instantiates every registered estimator with defaults and asserts the
contract the whole system is built on — the params protocol
(``get_params`` / ``set_params`` / ``clone`` / introspectable specs),
the uniform ``fit`` / ``fit_predict`` / ``predict`` signatures, the
``NotFittedError`` guard, and registry/persistence interoperability.
No fits larger than a few dozen points run here.
"""

import inspect

import numpy as np
import pytest

from repro import (
    NotFittedError,
    available_estimators,
    clone,
    get_estimator_class,
    make_estimator,
)
from repro.data import make_blobs
from repro.engine.base import OutOfSamplePredictor
from repro.errors import ConfigError
from repro.params import ParamSpec, ParamsProtocol

ALL = sorted(available_estimators())

UNIFORM_FIT_PARAMS = ["self", "x", "kernel_matrix", "init_labels", "sample_weight"]


@pytest.mark.parametrize("name", ALL)
class TestUniformSurface:
    def test_constructs_with_defaults(self, name):
        est = make_estimator(name, n_clusters=2)
        assert est.n_clusters == 2

    def test_params_protocol(self, name):
        cls = get_estimator_class(name)
        assert issubclass(cls, ParamsProtocol)
        est = make_estimator(name, n_clusters=2)
        params = est.get_params(deep=False)
        assert params["n_clusters"] == 2
        assert set(params) == set(cls.param_specs())
        assert all(isinstance(s, ParamSpec) for s in cls.param_specs().values())
        est.set_params(**params)  # idempotent
        assert isinstance(clone(est), cls)
        assert repr(est).startswith(cls.__name__ + "(")

    def test_uniform_fit_and_fit_predict_signatures(self, name):
        cls = get_estimator_class(name)
        assert list(inspect.signature(cls.fit).parameters) == UNIFORM_FIT_PARAMS
        assert cls.fit_predict is OutOfSamplePredictor.fit_predict

    def test_predict_surface_and_not_fitted_guard(self, name):
        est = make_estimator(name, n_clusters=2)
        for method in ("fit", "fit_predict", "predict", "predict_batch",
                       "get_params", "set_params", "clone"):
            assert callable(getattr(est, method)), method
        with pytest.raises(NotFittedError):
            est.predict(np.zeros((2, 2)))
        with pytest.raises(NotFittedError):
            est.predict_batch([np.zeros((2, 2))])

    def test_unknown_param_raises_config_error(self, name):
        with pytest.raises(ConfigError, match="valid parameters"):
            make_estimator(name, n_clusters=2, frobnicate=True)

    def test_shared_validation(self, name):
        with pytest.raises(ConfigError):
            make_estimator(name, n_clusters=0)


# ----------------------------------------------------------------------
# ParamSpec <-> __init__ conformance (the runtime twin of lint rule
# RPR104 — repro-lint fails the same drift without running the tests)
# ----------------------------------------------------------------------

def _kernel_classes():
    from repro.kernels.base import Kernel

    seen = [Kernel]
    stack = list(Kernel.__subclasses__())
    while stack:
        cls = stack.pop()
        if cls in seen or not cls.__module__.startswith("repro."):
            continue
        seen.append(cls)
        stack.extend(cls.__subclasses__())
    return seen


_PARAMS_CLASSES = sorted(
    {get_estimator_class(name) for name in ALL} | set(_kernel_classes()),
    key=lambda cls: cls.__name__,
)


@pytest.mark.parametrize(
    "cls", _PARAMS_CLASSES, ids=[c.__name__ for c in _PARAMS_CLASSES]
)
def test_paramspec_matches_init_surface(cls):
    """Every __init__ kwarg is a declared ParamSpec, defaults agree on
    both sides, every declared parameter is constructible, and clone()
    round-trips get_params()."""
    from pathlib import Path

    from repro.analysis.contracts import check_params_class
    from repro.analysis.core import Rule

    root = Path(__file__).resolve().parents[1]
    findings = check_params_class(root, Rule(), cls)
    assert findings == [], [f.message for f in findings]


def test_conformance_covers_the_whole_registry_and_kernel_tree():
    """The parametrized surface above spans all estimators + kernels."""
    assert len(ALL) >= 10
    assert len(_kernel_classes()) >= 8


def test_default_fit_produces_fitted_attributes():
    """One tiny real fit per estimator: labels_ + the fitted guard clears."""
    x, _ = make_blobs(36, 3, 2, rng=0)
    for name in ALL:
        est = make_estimator(name, n_clusters=2, seed=0)
        est.fit(x)
        assert est.labels_.shape == (x.shape[0],), name
        assert est.labels_.dtype == np.int32, name
        # fitted: the guard no longer raises
        est.predict_batch([])


# ----------------------------------------------------------------------
# partial_fit: part of the uniform surface for every estimator
# ----------------------------------------------------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.estimators import estimator_capabilities  # noqa: E402

UNIFORM_PARTIAL_FIT_PARAMS = ["self", "x", "kernel_matrix", "sample_weight"]


@pytest.mark.parametrize("name", ALL)
class TestPartialFitContract:
    def test_uniform_partial_fit_signature(self, name):
        cls = get_estimator_class(name)
        sig = inspect.signature(cls.partial_fit)
        assert list(sig.parameters) == UNIFORM_PARTIAL_FIT_PARAMS
        assert (
            sig.parameters["x"].kind
            is inspect.Parameter.POSITIONAL_OR_KEYWORD
        )
        for kw in ("kernel_matrix", "sample_weight"):
            assert sig.parameters[kw].kind is inspect.Parameter.KEYWORD_ONLY, kw

    def test_capability_gate_never_attribute_error(self, name):
        est = make_estimator(name, n_clusters=2, seed=0)
        x = np.random.default_rng(0).standard_normal((10, 3))
        if "supports_partial_fit" in estimator_capabilities(name):
            est.partial_fit(x)
            assert est.n_batches_seen_ == 1
            assert est.labels_.shape == (10,)
        else:
            # a uniform, explained ConfigError — never AttributeError
            with pytest.raises(ConfigError, match="supports_partial_fit"):
                est.partial_fit(x)


def _full_inertia(est, x):
    """Full-data kernel inertia of a fitted online model (test-side math:
    d(x_i, c_j) = kappa(x_i, x_i) - 2 <phi(x_i), c_j> + ||c_j||^2)."""
    xm = np.asarray(x, dtype=np.float64)
    cross = np.asarray(est.kernel.pairwise(xm, est._support_x), dtype=np.float64)
    v = est._support_v
    dense = np.zeros(v.shape)
    np.add.at(dense, (v.row_indices(), v.colinds), v.values)
    s = cross @ dense.T
    diag = np.asarray(np.diagonal(est.kernel.pairwise(xm)), dtype=np.float64)
    d = diag[:, None] - 2.0 * s + np.asarray(est._c_norms, dtype=np.float64)[None, :]
    return float(d.min(axis=1).sum())


@given(order=st.permutations(list(range(4))), seed=st.integers(0, 3))
@settings(max_examples=12, deadline=None)
def test_interleaved_batch_orders_converge_to_similar_objective(order, seed):
    """Streaming the same batches in a different order lands on the same
    objective basin: full-data inertia agrees within a loose tolerance."""
    x, _ = make_blobs(40, 4, 3, rng=seed)
    x = x.astype(np.float64)
    batches = [x[i * 10 : (i + 1) * 10] for i in range(4)]

    def train(seq):
        est = make_estimator(
            "popcorn", n_clusters=3, seed=seed, backend="host", dtype=np.float64
        )
        est.partial_fit(x)  # identical cold start for both streams
        for _ in range(2):
            for b in seq:
                est.partial_fit(batches[b])
        return est

    a = _full_inertia(train(list(range(4))), x)
    b = _full_inertia(train(list(order)), x)
    assert a == pytest.approx(b, rel=0.5)
