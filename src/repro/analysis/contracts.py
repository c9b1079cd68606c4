"""Introspective contract rules (RPR104, RPR105).

Unlike the syntactic rules, these import the package under analysis and
interrogate the live objects — the lint-time twin of the runtime
conformance suite (``tests/test_api_conformance.py``).  Both rules do
all their work in :meth:`~repro.analysis.core.Rule.finalize` (they need
the whole package, not one file); RPR105 additionally has a syntactic
half that polices *construction sites* in the registry-consuming
layers.

Findings are anchored to the class definition line via :mod:`inspect`,
so ``repro-lint --format github`` annotates the class a contract
violation belongs to.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path
from typing import Iterable, List, Optional, Tuple

from .core import Finding, Rule, SourceModule
from .rules._util import dotted_name

__all__ = ["ParamSpecConformanceRule", "RegistryConformanceRule"]

#: layers that must construct estimators via make_estimator, never by
#: naming a class (keeps "new estimator = one decorator line" true)
_FACTORY_ONLY_PREFIXES = (
    "src/repro/bench/",
    "src/repro/serve/persist.py",
    "src/repro/serve/cli.py",
    "src/repro/serve/refresh.py",
    "src/repro/cli.py",
)

#: required-parameter values used for the clone round-trip probe
_REQUIRED_FILL = {"n_clusters": 2}


def _class_site(root: Path, cls: type) -> Tuple[str, int]:
    """(repo-relative path, definition line) of ``cls``."""
    try:
        src = inspect.getsourcefile(cls)
        _, line = inspect.getsourcelines(cls)
    except (OSError, TypeError):
        return f"<{cls.__module__}>", 1
    try:
        rel = Path(src).resolve().relative_to(Path(root).resolve()).as_posix()
    except ValueError:
        rel = Path(src).as_posix()
    return rel, line


def _values_equal(a, b) -> bool:
    """Default-equality tolerant of numpy scalars/dtypes (`==` then repr)."""
    if a is b:
        return True
    try:
        eq = a == b
        if isinstance(eq, bool) and eq:
            return True
    except Exception:
        pass
    return repr(a) == repr(b)


def _estimator_classes() -> List[type]:
    from repro.estimators import available_estimators, get_estimator_class

    return [get_estimator_class(name) for name in available_estimators()]


def _kernel_classes() -> List[type]:
    from repro import kernels
    from repro.kernels.base import Kernel

    seen: List[type] = [Kernel]
    stack = list(Kernel.__subclasses__())
    while stack:
        cls = stack.pop()
        if cls in seen or not cls.__module__.startswith("repro."):
            continue
        seen.append(cls)
        stack.extend(cls.__subclasses__())
    del kernels  # imported for its registration side effect only
    return seen


def check_params_class(root: Path, rule: Rule, cls: type) -> List[Finding]:
    """All RPR104 findings for one ParamsProtocol class."""
    path, line = _class_site(root, cls)
    out: List[Finding] = []

    def flag(msg: str) -> None:
        out.append(rule.finding(path, line, f"{cls.__name__}: {msg}"))

    specs = cls.param_specs()
    sig = inspect.signature(cls.__init__)
    sig_params = {
        name: p
        for name, p in sig.parameters.items()
        if name != "self"
        and p.kind
        in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        )
    }
    has_var_kw = any(
        p.kind == inspect.Parameter.VAR_KEYWORD for p in sig.parameters.values()
    )

    # 1. every __init__ kwarg is a declared parameter
    for name, p in sig_params.items():
        if name in specs:
            spec = specs[name]
            if spec.required:
                if p.default is not inspect.Parameter.empty:
                    flag(
                        f"required parameter {name!r} has an __init__ "
                        f"default ({p.default!r}); required params take "
                        "no default"
                    )
            elif p.default is inspect.Parameter.empty:
                flag(
                    f"parameter {name!r} has a ParamSpec default "
                    f"({spec.default!r}) but no __init__ default"
                )
            elif not _values_equal(p.default, spec.default):
                flag(
                    f"__init__ default {name}={p.default!r} disagrees with "
                    f"its ParamSpec default {spec.default!r}"
                )
        else:
            flag(
                f"__init__ kwarg {name!r} is not declared in _params; "
                "declare a ParamSpec for it"
            )

    # 2. every declared parameter is constructible through __init__
    if not has_var_kw:
        for name in specs:
            if name not in sig_params:
                flag(
                    f"declared parameter {name!r} is not accepted by "
                    "__init__; get_params()/set_params round-trips break"
                )

    # 3. clone round-trips (default construction, required params filled)
    if not inspect.isabstract(cls):
        kwargs = {}
        constructible = True
        for name, spec in specs.items():
            if spec.required:
                if name in _REQUIRED_FILL:
                    kwargs[name] = _REQUIRED_FILL[name]
                else:
                    constructible = False
        if constructible:
            try:
                inst = cls(**kwargs)
                twin = inst.clone()
            except Exception as exc:  # conformance probe, report any failure
                flag(f"default construction + clone() raised {exc!r}")
            else:
                a = inst.get_params(deep=False)
                b = twin.get_params(deep=False)
                diff = sorted(
                    name
                    for name in set(a) | set(b)
                    if not _values_equal(a.get(name), b.get(name))
                )
                if diff:
                    flag(
                        "clone() does not round-trip get_params(); "
                        f"mismatched: {diff}"
                    )
    return out


class ParamSpecConformanceRule(Rule):
    rule_id = "RPR104"
    title = "ParamSpec <-> __init__ conformance"
    rationale = (
        "Every estimator and kernel declares its full constructor surface "
        "as _params ParamSpecs; this rule imports the package and checks, "
        "for each registered estimator and each Kernel subclass, that "
        "every __init__ kwarg is declared, that "
        "__init__ defaults equal the ParamSpec defaults, that every "
        "declared parameter is accepted by __init__, and that clone() "
        "round-trips get_params().  The runtime twin lives in "
        "tests/test_api_conformance.py; the rule fails the same drift at "
        "lint time."
    )

    def __init__(self, root: Path) -> None:
        self.root = Path(root)

    def finalize(self) -> Iterable[Finding]:
        try:
            classes = _estimator_classes() + _kernel_classes()
        except Exception as exc:
            return [
                self.finding(
                    "src/repro/__init__.py",
                    1,
                    f"cannot import the package for contract checks: {exc!r}",
                )
            ]
        out: List[Finding] = []
        for cls in classes:
            out.extend(check_params_class(self.root, self, cls))
        return out


class RegistryConformanceRule(Rule):
    rule_id = "RPR105"
    title = "estimators registered; factories construct via make_estimator"
    rationale = (
        "A new estimator becomes persistable, servable, benchable, and "
        "grid-searchable through one @register_estimator line, which only "
        "stays true if (a) every fit-bearing OutOfSamplePredictor "
        "subclass is registered, and (b) the registry-consuming layers "
        "(bench, serve persistence/CLI/refresh, the main CLI) construct "
        "estimators exclusively via make_estimator/estimator_from_config, "
        "never by naming a class.  Meta-estimators outside the predictor "
        "tree (GridSearchKernelKMeans) are exempt."
    )

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self._class_names: Optional[frozenset] = None

    # -- syntactic half: construction sites in factory-only layers -------
    def _estimator_class_names(self) -> frozenset:
        if self._class_names is None:
            try:
                self._class_names = frozenset(
                    cls.__name__ for cls in _estimator_classes()
                )
            except Exception:
                self._class_names = frozenset()
        return self._class_names

    def check(self, module: SourceModule) -> Iterable[Finding]:
        if module.tree is None or not module.path.startswith(
            _FACTORY_ONLY_PREFIXES
        ):
            return ()
        names = self._estimator_class_names()
        if not names:
            return ()
        out: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            called = dotted_name(node.func)
            if called is None:
                continue
            if called.rsplit(".", 1)[-1] in names:
                out.append(
                    self.finding(
                        module,
                        node.lineno,
                        f"direct construction of {called}() in a "
                        "factory-only layer; use "
                        "make_estimator(name, **params)",
                    )
                )
        return out

    # -- introspective half: every fit-bearing predictor is registered ---
    def finalize(self) -> Iterable[Finding]:
        try:
            from repro.engine.base import OutOfSamplePredictor
            from repro.estimators import available_estimators

            available_estimators()  # force builtin registration imports
        except Exception as exc:
            return [
                self.finding(
                    "src/repro/estimators.py",
                    1,
                    f"cannot import the registry for contract checks: {exc!r}",
                )
            ]
        out: List[Finding] = []
        stack = list(OutOfSamplePredictor.__subclasses__())
        seen = set()
        while stack:
            cls = stack.pop()
            if cls in seen:
                continue
            seen.add(cls)
            stack.extend(cls.__subclasses__())
            if not cls.__module__.startswith("repro."):
                continue
            # fit-bearing: fit is implemented somewhere below the
            # predictor contract (the scaffolding bases define none)
            fit_bearing = any(
                "fit" in klass.__dict__
                for klass in cls.__mro__
                if klass is not OutOfSamplePredictor
            )
            if not fit_bearing or inspect.isabstract(cls):
                continue
            if "_registry_name" not in cls.__dict__:
                path, line = _class_site(self.root, cls)
                out.append(
                    self.finding(
                        path,
                        line,
                        f"{cls.__name__} bears fit() but is not registered; "
                        "add @register_estimator(name) so persistence, "
                        "serving, bench, and the CLIs can construct it",
                    )
                )
        return out
