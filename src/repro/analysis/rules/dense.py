"""RPR101 — the dense-materialisation guard; RPR110 — its cross-kernel twin.

The whole point of the reproduction is that the n×k distance block is
never materialised outside the chunked reduction engine (the paper's
popcorn trick computes it tile-by-tile).  This rule watches the hot
paths (``src/repro/engine/``, ``src/repro/core/``) for the two ways the
invariant historically regressed:

* allocating a 2-D array whose *both* dimensions are dynamic
  (``np.zeros((n, k))`` and friends) — a static dimension (e.g.
  ``(n, 3)`` scratch) is fine;
* calling the unfused reference distance helpers from code that should
  go through :mod:`repro.engine.reduction` instead.

The reduction engine itself is exempt (tiling there is the mechanism),
and the reference implementations keep their own allocations behind
justified inline suppressions — they exist to be the slow, obviously
correct baseline.

RPR110 watches the same paths, the reduction engine included, for a
float64 upcast of a ``pairwise(...)`` result: a cross-kernel block is
reduced in the model dtype it is evaluated in, and a float64 copy
doubles its footprint and adds a pass over it.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional

from ..core import Finding, Rule, SourceModule
from ._util import call_tail, dotted_name, is_constant

__all__ = ["DenseMaterialisationRule", "PairwiseUpcastRule"]

#: allocation callables whose first argument is a shape
_ALLOCATORS = {"zeros", "empty", "ones", "full"}

#: unfused reference helpers that materialise a full distance block,
#: mapped to the module that is allowed to define/use them
_UNFUSED_HELPERS = {
    "popcorn_distances_host": "src/repro/core/distances.py",
}

_HOT_PREFIXES = ("src/repro/engine/", "src/repro/core/")
_EXEMPT_PATHS = ("src/repro/engine/reduction.py",)


class DenseMaterialisationRule(Rule):
    rule_id = "RPR101"
    title = "no dense n×k materialisation in hot paths"
    rationale = (
        "Hot paths (src/repro/engine/, src/repro/core/) must not allocate "
        "2-D arrays with two dynamic dimensions or call the unfused "
        "reference distance helpers; route the computation through the "
        "chunked reduction engine (repro.engine.reduction), which tiles "
        "the n×k block so it never exists in memory.  Reference "
        "implementations that exist to be the slow baseline carry a "
        "justified '# repro-lint: disable=RPR101 -- ...' suppression."
    )

    def _in_scope(self, module: SourceModule) -> bool:
        if module.path in _EXEMPT_PATHS:
            return False
        return module.path.startswith(_HOT_PREFIXES)

    def check(self, module: SourceModule) -> Iterable[Finding]:
        if not self._in_scope(module) or module.tree is None:
            return ()
        out: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            tail = call_tail(node)
            if tail in _ALLOCATORS and self._dynamic_2d_shape(node):
                shape = ast.unparse(node.args[0])
                out.append(
                    self.finding(
                        module,
                        node.lineno,
                        f"dense 2-D allocation {tail}({shape}, ...) with two "
                        "dynamic dimensions in a hot path; tile it through "
                        "the reduction engine",
                    )
                )
            elif tail in _UNFUSED_HELPERS and module.path != _UNFUSED_HELPERS[tail]:
                out.append(
                    self.finding(
                        module,
                        node.lineno,
                        f"unfused distance helper {tail}() called outside its "
                        "home module; use the fused chunked reduction "
                        "(repro.engine.reduction) in hot paths",
                    )
                )
        return out

    @staticmethod
    def _dynamic_2d_shape(node: ast.Call) -> bool:
        # only numpy-style allocators: bare names or numpy/np attributes
        if isinstance(node.func, ast.Attribute):
            base = dotted_name(node.func.value)
            if base not in ("np", "numpy"):
                return False
        if not node.args:
            return False
        shape = node.args[0]
        if not isinstance(shape, (ast.Tuple, ast.List)) or len(shape.elts) != 2:
            return False
        return all(not is_constant(dim) for dim in shape.elts)


#: array constructors whose ``dtype=`` upcasts their first argument
_CONVERTERS = {"asarray", "array", "ascontiguousarray", "asanyarray"}

#: spellings of the float64 dtype
_FLOAT64 = {"np.float64", "numpy.float64", "np.double", "numpy.double", "float"}


def _is_float64(node: Optional[ast.AST]) -> bool:
    if isinstance(node, ast.Constant):
        return node.value in ("float64", "f8", "double")
    return node is not None and dotted_name(node) in _FLOAT64


def _dtype_arg(node: ast.Call, position: int) -> Optional[ast.AST]:
    """The ``dtype`` argument of a call, by keyword or at ``position``."""
    for kw in node.keywords:
        if kw.arg == "dtype":
            return kw.value
    return node.args[position] if len(node.args) > position else None


def _is_pairwise(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and call_tail(node) == "pairwise"


class PairwiseUpcastRule(Rule):
    rule_id = "RPR110"
    title = "no float64 upcast of a pairwise() cross-kernel in hot paths"
    rationale = (
        "A pairwise(...) block is evaluated in the model dtype and the "
        "reduction engine reduces it in that dtype, as it comes out of the "
        "GEMM (repro.engine.reduction.CrossKernelArgmin).  In "
        "src/repro/engine/ and src/repro/core/, .astype(np.float64) or "
        "np.asarray(..., dtype=np.float64) on a pairwise(...) result makes "
        "a float64 copy of the whole block: pass the block to the reduction "
        "as it is."
    )

    def check(self, module: SourceModule) -> Iterable[Finding]:
        if module.tree is None or not module.path.startswith(_HOT_PREFIXES):
            return ()
        out: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            tail = call_tail(node)
            if tail == "astype" and isinstance(node.func, ast.Attribute):
                upcast = _is_pairwise(node.func.value) and _is_float64(_dtype_arg(node, 0))
            elif tail in _CONVERTERS and node.args:
                upcast = _is_pairwise(node.args[0]) and _is_float64(_dtype_arg(node, 1))
            else:
                continue
            if upcast:
                out.append(
                    self.finding(
                        module,
                        node.lineno,
                        "float64 upcast of a pairwise() result in a hot path; "
                        "reduce the cross-kernel in the model dtype",
                    )
                )
        return out
