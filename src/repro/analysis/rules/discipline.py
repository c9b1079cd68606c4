"""RPR102 (error discipline), RPR103 (pickle ban), RPR109 (one CSR kernel).

RPR102: user-facing failures in ``src/repro`` raise from the
:mod:`repro.errors` hierarchy, never bare ``ValueError`` /
``TypeError`` / ``RuntimeError`` — the hierarchy multiple-inherits the
stdlib types, so callers keep their ``except ValueError`` habits while
the package gains one catchable root (``ReproError``).  The analyser
package itself is out of scope on purpose: it must stay importable and
able to *report* on the tree even while ``repro.errors`` is
mid-refactor.

RPR103: artifacts are pickle-free by design (the persistence layer is
``npz`` + JSON manifests).  ``import pickle`` anywhere in ``src/repro``
is flagged, as is any ``np.load`` call that does not pin
``allow_pickle=False`` — numpy's default refuses pickles, but an
explicit pin is what keeps a future convenience edit from quietly
reopening arbitrary-code-execution on artifact load.

RPR109: every sparse product runs on the one compiled, strictly
sequential CSR kernel behind :func:`repro.sparse.spmm` /
:func:`repro.sparse.spmv`, and the distance pipeline's bit-exactness
across chunk shapes, threads and backends rests on every path summing
in that order.  ``np.add.reduceat`` over CSR row segments is a second
kernel with its own rounding order, so any use under ``src/repro`` is
flagged.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from ..core import Finding, Rule, SourceModule
from ._util import call_tail, dotted_name

__all__ = ["ErrorDisciplineRule", "PickleBanRule", "SingleCSRKernelRule"]

_BARE_ERRORS = {"ValueError", "TypeError", "RuntimeError"}
_ANALYSIS_PREFIX = "src/repro/analysis/"


class ErrorDisciplineRule(Rule):
    rule_id = "RPR102"
    title = "raise repro.errors types, not bare stdlib errors"
    rationale = (
        "Bare ValueError/TypeError/RuntimeError raises in src/repro must "
        "use the repro.errors hierarchy (ConfigError, ShapeError, "
        "NotFittedError, InternalError, ...).  Every repro error also IS "
        "the matching stdlib type via multiple inheritance, so existing "
        "'except ValueError' callers and type-pinning tests keep passing; "
        "what the hierarchy adds is one catchable ReproError root and an "
        "actionable-message convention.  src/repro/analysis/ is exempt so "
        "the linter can always run on a broken tree."
    )

    def check(self, module: SourceModule) -> Iterable[Finding]:
        if module.tree is None or module.path.startswith(_ANALYSIS_PREFIX):
            return ()
        if module.path == "src/repro/errors.py":
            return ()
        out: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            name = None
            if isinstance(exc, ast.Call):
                name = dotted_name(exc.func)
            elif isinstance(exc, (ast.Name, ast.Attribute)):
                name = dotted_name(exc)
            if name in _BARE_ERRORS:
                out.append(
                    self.finding(
                        module,
                        node.lineno,
                        f"bare {name} raised; use the repro.errors hierarchy "
                        f"(e.g. ConfigError is a {name} plus ReproError)",
                    )
                )
        return out


class PickleBanRule(Rule):
    rule_id = "RPR103"
    title = "pickle-free artifacts"
    rationale = (
        "Loading a pickle executes arbitrary code; the persistence layer "
        "is npz + JSON manifests precisely so artifacts stay inert data.  "
        "'import pickle' (and cPickle/dill) is banned in src/repro, and "
        "np.load calls must pin allow_pickle=False explicitly so a future "
        "edit cannot quietly reopen code execution on artifact load."
    )

    _BANNED_MODULES = {"pickle", "cPickle", "dill", "shelve"}

    def check(self, module: SourceModule) -> Iterable[Finding]:
        if module.tree is None:
            return ()
        out: List[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in self._BANNED_MODULES:
                        out.append(
                            self.finding(
                                module,
                                node.lineno,
                                f"import of {alias.name} is banned: artifacts "
                                "are pickle-free (npz + JSON manifests)",
                            )
                        )
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if root in self._BANNED_MODULES:
                    out.append(
                        self.finding(
                            module,
                            node.lineno,
                            f"import from {node.module} is banned: artifacts "
                            "are pickle-free (npz + JSON manifests)",
                        )
                    )
            elif isinstance(node, ast.Call) and self._is_np_load(node):
                if not self._pins_allow_pickle_false(node):
                    out.append(
                        self.finding(
                            module,
                            node.lineno,
                            "np.load without allow_pickle=False; pin it "
                            "explicitly so artifact loads stay inert",
                        )
                    )
        return out

    @staticmethod
    def _is_np_load(node: ast.Call) -> bool:
        if call_tail(node) != "load":
            return False
        if not isinstance(node.func, ast.Attribute):
            return False
        return dotted_name(node.func.value) in ("np", "numpy")

    @staticmethod
    def _pins_allow_pickle_false(node: ast.Call) -> bool:
        for kw in node.keywords:
            if kw.arg == "allow_pickle":
                return (
                    isinstance(kw.value, ast.Constant) and kw.value.value is False
                )
        return False


class SingleCSRKernelRule(Rule):
    rule_id = "RPR109"
    title = "one CSR kernel: no np.add.reduceat segmented sums"
    rationale = (
        "SpMM/SpMV run on one compiled CSR kernel whose output entries are "
        "strictly sequential sums in each row's nonzero order; the chunk, "
        "thread and backend bit-exactness properties rest on that one "
        "order.  np.add.reduceat under src/repro is a second CSR reduction "
        "with a different rounding order: express the reduction as "
        "repro.sparse.spmv / spmm (row sums are spmv against ones)."
    )

    _BANNED = {"np.add.reduceat", "numpy.add.reduceat"}

    def check(self, module: SourceModule) -> Iterable[Finding]:
        if module.tree is None or not module.path.startswith("src/repro/"):
            return ()
        return [
            self.finding(
                module,
                node.lineno,
                f"{dotted_name(node)} is a second CSR reduction; "
                "use repro.sparse.spmv / spmm",
            )
            for node in ast.walk(module.tree)
            if isinstance(node, ast.Attribute) and dotted_name(node) in self._BANNED
        ]
