"""RPR108 — nondeterminism guard for bench experiments.

The CI perf gate compares every metric the experiments in
``src/repro/bench/experiments/`` report, which is only sound because
each of them is bit-deterministic: seeded RNG, modeled clocks.  One
clock read or unseeded ``default_rng()`` sneaking into an experiment
turns the blocking gate flaky.  Measured wall-clock numbers belong to
``hostbench/``.  This rule flags, inside the experiments package only:

* clock reads: ``time.time``/``time_ns``, ``time.perf_counter``/
  ``perf_counter_ns``, ``time.monotonic``, ``time.process_time`` and
  ``datetime.now``/``utcnow``;
* unseeded RNG: ``np.random.default_rng()`` with no seed, the legacy
  ``np.random.*`` global generator, and the stdlib ``random`` module.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from ..core import Finding, Rule, SourceModule
from ._util import dotted_name

__all__ = ["NondeterminismRule"]

_EXPERIMENTS_PREFIX = "src/repro/bench/experiments/"

_WALL_CLOCKS = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.process_time",
    "datetime.now",
    "datetime.utcnow",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
}

_LEGACY_GLOBAL_RNG = {
    "rand", "randn", "random", "randint", "choice", "shuffle",
    "permutation", "normal", "uniform", "standard_normal", "seed",
}

_STDLIB_RANDOM = {
    "random", "randint", "choice", "shuffle", "uniform", "sample",
    "randrange", "gauss", "betavariate",
}


class NondeterminismRule(Rule):
    rule_id = "RPR108"
    title = "bench experiments must be deterministic"
    rationale = (
        "Experiments under src/repro/bench/experiments/ feed the blocking "
        "CI perf gate, which compares every metric they report and is only "
        "sound when they are bit-deterministic.  Clock reads (time.time, "
        "perf_counter, monotonic, process_time, datetime.now) and unseeded "
        "RNG (np.random.default_rng() with no seed, the np.random global "
        "generator, stdlib random) are flagged there.  Measured wall-clock "
        "numbers belong to hostbench/."
    )

    def check(self, module: SourceModule) -> Iterable[Finding]:
        if module.tree is None or not module.path.startswith(_EXPERIMENTS_PREFIX):
            return ()
        out: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            if name in _WALL_CLOCKS:
                out.append(
                    self.finding(
                        module,
                        node.lineno,
                        f"{name}() in a bench experiment; experiments feed "
                        "the blocking deterministic perf gate — use modeled "
                        "clocks (measured timings belong to hostbench/)",
                    )
                )
                continue
            parts = name.split(".")
            if name.endswith("random.default_rng") and not node.args:
                if not node.keywords:
                    out.append(
                        self.finding(
                            module,
                            node.lineno,
                            "unseeded default_rng() in a bench experiment; "
                            "pass an explicit seed so it is reproducible",
                        )
                    )
            elif (
                len(parts) == 3
                and parts[0] in ("np", "numpy")
                and parts[1] == "random"
                and parts[2] in _LEGACY_GLOBAL_RNG
            ):
                out.append(
                    self.finding(
                        module,
                        node.lineno,
                        f"global numpy RNG {name}() in a bench experiment; "
                        "use a seeded np.random.default_rng(seed) generator",
                    )
                )
            elif (
                len(parts) == 2
                and parts[0] == "random"
                and parts[1] in _STDLIB_RANDOM
            ):
                out.append(
                    self.finding(
                        module,
                        node.lineno,
                        f"stdlib {name}() in a bench experiment; use a "
                        "seeded np.random.default_rng(seed) generator",
                    )
                )
        return out
