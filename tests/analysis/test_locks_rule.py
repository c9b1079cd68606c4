"""Fixtures for RPR106, the static ``_guarded_by`` lock-discipline rule.

Each case is a small class source fed through the rule: mutations of
guarded attributes outside their lock, in-place mutation of
loop-confined state from off-loop methods, await/blocking calls under a
held lock — and the mirror-image cases that must stay silent
(``__init__``, mutations under the lock, Condition aliasing, atomic
off-loop rebinds).
"""

from __future__ import annotations

import ast

from repro.analysis.core import SourceModule, run_rules
from repro.analysis.locks import LockDisciplineRule, parse_guarded_class

PATH = "src/repro/serve/foo.py"


def _findings(text):
    return run_rules([SourceModule(PATH, text)], [LockDisciplineRule()])


class TestParseGuardedClass:
    def test_undeclared_class_returns_none(self):
        tree = ast.parse("class C:\n    pass\n")
        assert parse_guarded_class(tree.body[0]) is None

    def test_declaration_and_condition_aliasing(self):
        src = (
            "import threading\n"
            "class C:\n"
            '    _guarded_by = {"_queue": ("_lock", "_not_empty"), "_n": "_lock"}\n'
            '    _off_loop_methods = ("swap",)\n'
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._not_empty = threading.Condition(self._lock)\n"
        )
        cls = ast.parse(src).body[1]
        decl = parse_guarded_class(cls)
        assert decl is not None
        assert decl.guards["_queue"] == ("_lock", "_not_empty")
        assert decl.off_loop_methods == ("swap",)
        assert decl.lock_attrs == {"_lock", "_not_empty"}
        # holding either name satisfies a guard naming the other
        assert decl.expand(("_lock",)) == frozenset({"_lock", "_not_empty"})


_CLASS_HEAD = (
    "import threading\n"
    "class C:\n"
    '    _guarded_by = {"_n": "_lock", "_queue": "_lock"}\n'
    "    def __init__(self):\n"
    "        self._lock = threading.Lock()\n"
    "        self._n = 0\n"
    "        self._queue = []\n"
)


class TestMutationOutsideLock:
    def test_flags_rebind_outside_lock(self):
        out = _findings(_CLASS_HEAD + "    def bump(self):\n        self._n = 1\n")
        assert [f.rule for f in out] == ["RPR106"]
        assert "outside 'with self._lock'" in out[0].message

    def test_flags_augassign_outside_lock(self):
        out = _findings(_CLASS_HEAD + "    def bump(self):\n        self._n += 1\n")
        assert [f.rule for f in out] == ["RPR106"]

    def test_flags_mutator_call_outside_lock(self):
        out = _findings(
            _CLASS_HEAD + "    def push(self, x):\n        self._queue.append(x)\n"
        )
        assert [f.rule for f in out] == ["RPR106"]

    def test_flags_item_assignment_outside_lock(self):
        out = _findings(
            _CLASS_HEAD + "    def put(self, x):\n        self._queue[0] = x\n"
        )
        assert [f.rule for f in out] == ["RPR106"]

    def test_flags_tuple_target_outside_lock(self):
        out = _findings(
            _CLASS_HEAD + "    def grab(self):\n        q, self._n = [], 1\n"
        )
        assert [f.rule for f in out] == ["RPR106"]

    def test_mutation_under_lock_passes(self):
        out = _findings(
            _CLASS_HEAD
            + "    def bump(self):\n"
            + "        with self._lock:\n"
            + "            self._n += 1\n"
            + "            self._queue.append(self._n)\n"
        )
        assert out == []

    def test_init_is_exempt(self):
        # the head itself assigns self._n / self._queue in __init__
        out = _findings(_CLASS_HEAD)
        assert out == []

    def test_unguarded_attributes_ignored(self):
        out = _findings(
            _CLASS_HEAD + "    def other(self):\n        self._other = 1\n"
        )
        assert out == []

    def test_read_outside_lock_is_not_a_mutation(self):
        out = _findings(
            _CLASS_HEAD + "    def peek(self):\n        return self._n\n"
        )
        assert out == []

    def test_nested_function_starts_from_clean_slate(self):
        # the closure runs later, under whatever locks its caller holds
        out = _findings(
            _CLASS_HEAD
            + "    def make(self):\n"
            + "        with self._lock:\n"
            + "            def worker():\n"
            + "                self._n = 2\n"
            + "            return worker\n"
        )
        assert [f.rule for f in out] == ["RPR106"]


class TestConditionAliasing:
    SRC = (
        "import threading\n"
        "class C:\n"
        '    _guarded_by = {"_queue": ("_lock", "_not_empty")}\n'
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._not_empty = threading.Condition(self._lock)\n"
        "        self._queue = []\n"
    )

    def test_holding_the_condition_satisfies_the_lock_guard(self):
        out = _findings(
            self.SRC
            + "    def push(self, x):\n"
            + "        with self._not_empty:\n"
            + "            self._queue.append(x)\n"
        )
        assert out == []

    def test_holding_neither_still_flags(self):
        out = _findings(
            self.SRC + "    def push(self, x):\n        self._queue.append(x)\n"
        )
        assert [f.rule for f in out] == ["RPR106"]


class TestEventLoopGuards:
    SRC = (
        "class S:\n"
        '    _guarded_by = {"_inflight": "event-loop", "_model": "event-loop"}\n'
        '    _off_loop_methods = ("swap",)\n'
        "    def __init__(self):\n"
        "        self._inflight = {}\n"
        "        self._model = None\n"
    )

    def test_loop_methods_mutate_freely(self):
        out = _findings(
            self.SRC
            + "    async def handle(self, k):\n"
            + "        self._inflight[k] = 1\n"
            + "        self._inflight.clear()\n"
        )
        assert out == []

    def test_off_loop_in_place_mutation_flagged(self):
        out = _findings(
            self.SRC + "    def swap(self, m):\n        self._inflight.clear()\n"
        )
        assert [f.rule for f in out] == ["RPR106"]
        assert "off-loop" in out[0].message

    def test_off_loop_atomic_rebind_passes(self):
        out = _findings(
            self.SRC + "    def swap(self, m):\n        self._model = m\n"
        )
        assert out == []

    def test_off_loop_augassign_flagged(self):
        out = _findings(
            self.SRC + "    def swap(self, m):\n        self._model += 1\n"
        )
        assert [f.rule for f in out] == ["RPR106"]


class TestHeldLockHazards:
    def test_await_under_lock_flagged(self):
        out = _findings(
            _CLASS_HEAD
            + "    async def bad(self):\n"
            + "        with self._lock:\n"
            + "            await something()\n"
        )
        assert [f.rule for f in out] == ["RPR106"]
        assert "await while holding" in out[0].message

    def test_await_outside_lock_passes(self):
        out = _findings(
            _CLASS_HEAD + "    async def ok(self):\n        await something()\n"
        )
        assert out == []

    def test_time_sleep_under_lock_flagged(self):
        out = _findings(
            _CLASS_HEAD
            + "    def bad(self):\n"
            + "        with self._lock:\n"
            + "            time.sleep(0.1)\n"
        )
        assert [f.rule for f in out] == ["RPR106"]
        assert "blocking call" in out[0].message

    def test_blocking_queue_get_under_lock_flagged(self):
        out = _findings(
            _CLASS_HEAD
            + "    def bad(self):\n"
            + "        with self._lock:\n"
            + "            item = self.inbox.get()\n"
        )
        assert [f.rule for f in out] == ["RPR106"]

    def test_dict_get_with_args_is_not_blocking(self):
        out = _findings(
            _CLASS_HEAD
            + "    def ok(self):\n"
            + "        with self._lock:\n"
            + "            return self.cache.get(1)\n"
        )
        assert out == []


class TestDeclarationSanity:
    def test_guard_naming_a_non_lock_is_flagged(self):
        out = _findings(
            "import threading\n"
            "class C:\n"
            '    _guarded_by = {"_n": "_mutex"}\n'
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._n = 0\n"
        )
        assert [f.rule for f in out] == ["RPR106"]
        assert "_mutex" in out[0].message

    def test_out_of_scope_paths_ignored(self):
        mod = SourceModule(
            "tools/foo.py",
            _CLASS_HEAD + "    def bump(self):\n        self._n = 1\n",
        )
        assert run_rules([mod], [LockDisciplineRule()]) == []


class TestRealTreeDeclarations:
    """The shipped _guarded_by declarations stay parseable and complete."""

    def _decl(self, path, cls_name):
        import pathlib

        src = pathlib.Path(path).read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, ast.ClassDef) and node.name == cls_name:
                return parse_guarded_class(node)
        raise AssertionError(f"{cls_name} not found in {path}")

    def test_prediction_service_declares_its_queue_and_counters(self):
        decl = self._decl("src/repro/serve/service.py", "PredictionService")
        assert decl is not None
        assert decl.guards["_queue"] == ("_lock", "_not_empty")
        assert decl.expand(("_not_empty",)) >= {"_lock", "_not_empty"}

    def test_frontdoor_declares_loop_confined_state(self):
        decl = self._decl("src/repro/serve/frontdoor.py", "AsyncPredictionServer")
        assert decl is not None
        assert decl.guards["_pool"] == ("event-loop",)
        assert "swap_artifact" in decl.off_loop_methods

    def test_serving_core_guards_its_policy_state_with_one_lock(self):
        decl = self._decl("src/repro/serve/core.py", "ServingCore")
        assert decl is not None
        assert decl.lock_attrs == {"_lock"}
        for attr in ("model", "_version", "_cache", "_inflight", "_counts",
                     "_latencies", "_batch_sizes"):
            assert decl.guards[attr] == ("_lock",), attr

    def test_metrics_instruments_declare_their_lock(self):
        for cls in ("Counter", "Gauge", "Histogram", "MetricsRegistry"):
            decl = self._decl("src/repro/obs/metrics.py", cls)
            assert decl is not None, cls
            assert all(g == ("_lock",) for g in decl.guards.values())
