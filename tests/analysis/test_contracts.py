"""Fixtures for the introspective contract rules (RPR104, RPR105).

The negative direction runs the rules over the real package (the tree
must be conformant); the positive direction feeds deliberately broken
classes through :func:`check_params_class` and crafted sources through
the syntactic half of RPR105.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.contracts import (
    ParamSpecConformanceRule,
    RegistryConformanceRule,
    _estimator_classes,
    _kernel_classes,
    check_params_class,
)
from repro.analysis.core import SourceModule, run_rules
from repro.params import ParamSpec, ParamsProtocol

ROOT = Path(__file__).resolve().parents[2]


class TestRPR104RealTree:
    def test_every_estimator_and_kernel_conforms(self):
        rule = ParamSpecConformanceRule(ROOT)
        findings = list(rule.finalize())
        assert findings == [], [f.message for f in findings]

    def test_enumerations_cover_the_expected_surface(self):
        assert len(_estimator_classes()) >= 10
        assert len(_kernel_classes()) >= 8


class _Broken(ParamsProtocol):
    """__init__ default disagrees with the declared ParamSpec default."""

    _params = (ParamSpec("gamma", default=1.0),)

    def __init__(self, gamma=2.0):
        self._init_params(gamma=gamma)


class _Undeclared(ParamsProtocol):
    """__init__ accepts a kwarg that no ParamSpec declares."""

    _params = (ParamSpec("gamma", default=1.0),)

    def __init__(self, gamma=1.0, mystery=3):
        self._init_params(gamma=gamma)
        self.mystery = mystery


class _MissingKwarg(ParamsProtocol):
    """A declared parameter that __init__ does not accept."""

    _params = (ParamSpec("gamma", default=1.0), ParamSpec("degree", default=2))

    def __init__(self, gamma=1.0):
        self._init_params(gamma=gamma)


class _RequiredWithDefault(ParamsProtocol):
    """A required parameter must not carry an __init__ default."""

    _params = (ParamSpec("n_clusters", required=True),)

    def __init__(self, n_clusters=8):
        self._init_params(n_clusters=n_clusters)


class _Conformant(ParamsProtocol):
    _params = (
        ParamSpec("gamma", default=1.0),
        ParamSpec("chunk_rows", default=None),
    )

    def __init__(self, gamma=1.0, chunk_rows=None):
        self._init_params(gamma=gamma, chunk_rows=chunk_rows)


class TestRPR104BrokenClasses:
    def _messages(self, cls):
        rule = ParamSpecConformanceRule(ROOT)
        return [f.message for f in check_params_class(ROOT, rule, cls)]

    def test_flags_default_disagreement(self):
        msgs = self._messages(_Broken)
        assert any("disagrees" in m for m in msgs), msgs

    def test_flags_undeclared_kwarg(self):
        msgs = self._messages(_Undeclared)
        assert any("not declared in _params" in m for m in msgs), msgs

    def test_flags_unconstructible_declared_param(self):
        msgs = self._messages(_MissingKwarg)
        assert any("not accepted by __init__" in m for m in msgs), msgs

    def test_flags_required_param_with_default(self):
        msgs = self._messages(_RequiredWithDefault)
        assert any("required" in m for m in msgs), msgs

    def test_conformant_class_is_clean(self):
        assert self._messages(_Conformant) == []


class TestRPR105RealTree:
    def test_every_fit_bearing_predictor_is_registered(self):
        rule = RegistryConformanceRule(ROOT)
        findings = list(rule.finalize())
        assert findings == [], [f.message for f in findings]


class TestRPR105ConstructionSites:
    def _findings(self, text, path):
        rule = RegistryConformanceRule(ROOT)
        return run_rules([SourceModule(path, text)], [rule])

    def test_direct_construction_in_factory_layer_flagged(self):
        out = self._findings(
            "from repro.engine import PopcornKernelKMeans\n"
            "est = PopcornKernelKMeans(n_clusters=3)\n",
            "src/repro/bench/runner.py",
        )
        assert [f.rule for f in out] == ["RPR105"]
        assert "make_estimator" in out[0].message

    def test_make_estimator_in_factory_layer_passes(self):
        out = self._findings(
            "from repro.estimators import make_estimator\n"
            'est = make_estimator("popcorn", n_clusters=3)\n',
            "src/repro/bench/runner.py",
        )
        assert out == []

    def test_direct_construction_outside_factory_layers_allowed(self):
        out = self._findings(
            "from repro.engine import PopcornKernelKMeans\n"
            "est = PopcornKernelKMeans(n_clusters=3)\n",
            "src/repro/engine/gridsearch.py",
        )
        assert out == []
