"""Positive and negative fixtures for the syntactic house rules.

One test class per rule (RPR101, RPR102, RPR103, RPR107, RPR108, RPR109,
RPR110), each
with cases that must flag and cases that must stay silent — the rule's
contract, pinned.
"""

from __future__ import annotations

import pytest

from repro.analysis.core import SourceModule, run_rules
from repro.analysis.rules import (
    DenseMaterialisationRule,
    ErrorDisciplineRule,
    NondeterminismRule,
    ObsNamingRule,
    PairwiseUpcastRule,
    PickleBanRule,
    SingleCSRKernelRule,
)


def _findings(rule, text, path):
    return run_rules([SourceModule(path, text)], [rule])


class TestRPR101Dense:
    PATH = "src/repro/engine/foo.py"

    def test_flags_two_dynamic_dims(self):
        out = _findings(
            DenseMaterialisationRule(),
            "import numpy as np\nd = np.zeros((n, k))\n",
            self.PATH,
        )
        assert [f.rule for f in out] == ["RPR101"]
        assert out[0].line == 2

    def test_flags_bare_name_allocators(self):
        out = _findings(
            DenseMaterialisationRule(),
            "from numpy import empty\nd = empty((n, k), dtype=dt)\n",
            self.PATH,
        )
        assert [f.rule for f in out] == ["RPR101"]

    def test_static_dim_is_fine(self):
        out = _findings(
            DenseMaterialisationRule(),
            "import numpy as np\nd = np.zeros((n, 3))\ne = np.zeros(n)\n",
            self.PATH,
        )
        assert out == []

    def test_non_numpy_receiver_ignored(self):
        out = _findings(
            DenseMaterialisationRule(),
            "d = torch.zeros((n, k))\n",
            self.PATH,
        )
        assert out == []

    def test_reduction_engine_is_exempt(self):
        out = _findings(
            DenseMaterialisationRule(),
            "import numpy as np\nd = np.zeros((n, k))\n",
            "src/repro/engine/reduction.py",
        )
        assert out == []

    def test_out_of_scope_paths_ignored(self):
        out = _findings(
            DenseMaterialisationRule(),
            "import numpy as np\nd = np.zeros((n, k))\n",
            "src/repro/bench/foo.py",
        )
        assert out == []

    def test_flags_unfused_helper_outside_home_module(self):
        out = _findings(
            DenseMaterialisationRule(),
            "d = popcorn_distances_host(k_mat, v)\n",
            self.PATH,
        )
        assert [f.rule for f in out] == ["RPR101"]
        assert "unfused" in out[0].message

    def test_helper_allowed_in_its_home_module(self):
        out = _findings(
            DenseMaterialisationRule(),
            "d = popcorn_distances_host(k_mat, v)\n",
            "src/repro/core/distances.py",
        )
        assert out == []


class TestRPR102ErrorDiscipline:
    PATH = "src/repro/core/foo.py"

    def test_flags_bare_valueerror(self):
        out = _findings(
            ErrorDisciplineRule(),
            'def f():\n    raise ValueError("bad")\n',
            self.PATH,
        )
        assert [f.rule for f in out] == ["RPR102"]
        assert "ValueError" in out[0].message

    def test_flags_bare_name_reraise_of_stdlib_type(self):
        out = _findings(
            ErrorDisciplineRule(),
            "def f():\n    raise RuntimeError\n",
            self.PATH,
        )
        assert [f.rule for f in out] == ["RPR102"]

    def test_repro_errors_types_pass(self):
        out = _findings(
            ErrorDisciplineRule(),
            "from repro.errors import ConfigError\n"
            'def f():\n    raise ConfigError("bad knob")\n',
            self.PATH,
        )
        assert out == []

    def test_bare_reraise_passes(self):
        out = _findings(
            ErrorDisciplineRule(),
            "def f():\n    try:\n        g()\n    except Exception:\n        raise\n",
            self.PATH,
        )
        assert out == []

    def test_analysis_package_and_errors_module_exempt(self):
        body = 'def f():\n    raise ValueError("ok here")\n'
        for path in ("src/repro/analysis/core.py", "src/repro/errors.py"):
            assert _findings(ErrorDisciplineRule(), body, path) == []


class TestRPR103PickleBan:
    PATH = "src/repro/serve/foo.py"

    def test_flags_import_pickle(self):
        out = _findings(PickleBanRule(), "import pickle\n", self.PATH)
        assert [f.rule for f in out] == ["RPR103"]

    def test_flags_from_dill_import(self):
        out = _findings(PickleBanRule(), "from dill import loads\n", self.PATH)
        assert [f.rule for f in out] == ["RPR103"]

    def test_flags_np_load_without_pin(self):
        out = _findings(
            PickleBanRule(),
            'import numpy as np\ndata = np.load("a.npz")\n',
            self.PATH,
        )
        assert [f.rule for f in out] == ["RPR103"]
        assert "allow_pickle" in out[0].message

    def test_flags_np_load_allow_pickle_true(self):
        out = _findings(
            PickleBanRule(),
            'import numpy as np\ndata = np.load("a.npz", allow_pickle=True)\n',
            self.PATH,
        )
        assert [f.rule for f in out] == ["RPR103"]

    def test_np_load_with_pin_passes(self):
        out = _findings(
            PickleBanRule(),
            'import numpy as np\ndata = np.load("a.npz", allow_pickle=False)\n',
            self.PATH,
        )
        assert out == []

    def test_innocent_imports_pass(self):
        out = _findings(
            PickleBanRule(), "import json\nfrom pathlib import Path\n", self.PATH
        )
        assert out == []


class TestRPR107ObsNaming:
    PATH = "src/repro/serve/foo.py"

    def test_flags_bad_metric_name(self):
        out = _findings(
            ObsNamingRule(), 'metrics.counter("BadName").inc()\n', self.PATH
        )
        assert [f.rule for f in out] == ["RPR107"]

    def test_flags_single_segment_name(self):
        out = _findings(
            ObsNamingRule(), 'metrics.counter("served").inc()\n', self.PATH
        )
        assert [f.rule for f in out] == ["RPR107"]

    def test_flags_bad_span_name(self):
        out = _findings(
            ObsNamingRule(), 'with trace.span("Fit"):\n    pass\n', self.PATH
        )
        assert [f.rule for f in out] == ["RPR107"]

    def test_good_names_pass(self):
        out = _findings(
            ObsNamingRule(),
            'metrics.counter("serve.async.batches").inc()\n'
            'metrics.gauge("serve.queue_depth").set(3)\n'
            'with trace.span("fit.iter"):\n    pass\n',
            self.PATH,
        )
        assert out == []

    def test_dynamic_names_ignored(self):
        out = _findings(
            ObsNamingRule(), "metrics.counter(name).inc()\n", self.PATH
        )
        assert out == []

    def test_cross_kind_reuse_flagged_across_files(self):
        rule = ObsNamingRule()
        mods = [
            SourceModule(
                "src/repro/serve/a.py", 'metrics.counter("serve.shed").inc()\n'
            ),
            SourceModule(
                "src/repro/serve/b.py", 'metrics.gauge("serve.shed").set(1)\n'
            ),
        ]
        out = run_rules(mods, [rule])
        assert len(out) == 2  # one finding per conflicting site
        assert all("multiple kinds" in f.message for f in out)

    def test_same_kind_reuse_across_files_passes(self):
        rule = ObsNamingRule()
        mods = [
            SourceModule(
                "src/repro/serve/a.py", 'metrics.counter("serve.shed").inc()\n'
            ),
            SourceModule(
                "src/repro/serve/b.py", 'metrics.counter("serve.shed").inc()\n'
            ),
        ]
        assert run_rules(mods, [rule]) == []

    def test_span_mirroring_a_counter_name_is_fine(self):
        rule = ObsNamingRule()
        mods = [
            SourceModule(
                "src/repro/serve/a.py", 'metrics.counter("serve.batches").inc()\n'
            ),
            SourceModule(
                "src/repro/serve/b.py",
                'with trace.span("serve.batches"):\n    pass\n',
            ),
        ]
        assert run_rules(mods, [rule]) == []


class TestRPR108Nondeterminism:
    PATH = "src/repro/bench/experiments/foo.py"

    def test_flags_wall_clock(self):
        out = _findings(
            NondeterminismRule(), "import time\nt = time.time()\n", self.PATH
        )
        assert [f.rule for f in out] == ["RPR108"]

    def test_flags_datetime_now(self):
        out = _findings(
            NondeterminismRule(),
            "import datetime\nt = datetime.datetime.now()\n",
            self.PATH,
        )
        assert [f.rule for f in out] == ["RPR108"]

    def test_flags_unseeded_default_rng(self):
        out = _findings(
            NondeterminismRule(),
            "import numpy as np\nrng = np.random.default_rng()\n",
            self.PATH,
        )
        assert [f.rule for f in out] == ["RPR108"]

    def test_flags_legacy_global_rng(self):
        out = _findings(
            NondeterminismRule(),
            "import numpy as np\nx = np.random.rand(3)\n",
            self.PATH,
        )
        assert [f.rule for f in out] == ["RPR108"]

    def test_flags_stdlib_random(self):
        out = _findings(
            NondeterminismRule(), "import random\nx = random.random()\n", self.PATH
        )
        assert [f.rule for f in out] == ["RPR108"]

    def test_seeded_rng_passes(self):
        out = _findings(
            NondeterminismRule(),
            "import numpy as np\n"
            "rng = np.random.default_rng(7)\n"
            "rng2 = np.random.default_rng(seed=11)\n",
            self.PATH,
        )
        assert out == []

    @pytest.mark.parametrize(
        "clock", ["perf_counter", "perf_counter_ns", "monotonic", "process_time"]
    )
    def test_flags_interval_clocks(self, clock):
        out = _findings(
            NondeterminismRule(), f"import time\nt = time.{clock}()\n", self.PATH
        )
        assert [f.rule for f in out] == ["RPR108"]
        assert f"time.{clock}()" in out[0].message

    def test_perf_counter_passes(self):
        """The clock ban covers the experiments package only."""
        out = _findings(
            NondeterminismRule(),
            "import time\nt = time.perf_counter()\n",
            "src/repro/bench/runner.py",
        )
        assert out == []

    def test_out_of_scope_paths_ignored(self):
        out = _findings(
            NondeterminismRule(),
            "import time\nt = time.time()\n",
            "src/repro/serve/service.py",
        )
        assert out == []


class TestRPR109SingleCSRKernel:
    PATH = "src/repro/sparse/foo.py"

    def test_flags_np_add_reduceat(self):
        out = _findings(
            SingleCSRKernelRule(),
            "import numpy as np\nout = np.add.reduceat(contrib, starts)\n",
            self.PATH,
        )
        assert [f.rule for f in out] == ["RPR109"]
        assert out[0].line == 2

    def test_flags_numpy_spelling_and_bare_reference(self):
        out = _findings(
            SingleCSRKernelRule(),
            "import numpy\nseg = numpy.add.reduceat\n",
            "src/repro/engine/bar.py",
        )
        assert [f.rule for f in out] == ["RPR109"]

    def test_other_reductions_pass(self):
        out = _findings(
            SingleCSRKernelRule(),
            "import numpy as np\n"
            "a = np.add.reduce(x)\n"
            "b = np.add.at(y, idx, 1)\n"
            "c = np.minimum.reduceat(x, starts)\n",
            self.PATH,
        )
        assert out == []

    def test_out_of_scope_paths_ignored(self):
        out = _findings(
            SingleCSRKernelRule(),
            "import numpy as np\nout = np.add.reduceat(x, starts)\n",
            "tests/sparse/test_foo.py",
        )
        assert out == []


class TestRPR110PairwiseUpcast:
    PATH = "src/repro/engine/foo.py"

    def test_flags_astype_float64_of_pairwise(self):
        out = _findings(
            PairwiseUpcastRule(),
            "import numpy as np\n"
            "f = lambda r0, r1: kernel.pairwise(xm[r0:r1], sup, y_sq=sq).astype(np.float64)\n",
            self.PATH,
        )
        assert [f.rule for f in out] == ["RPR110"]
        assert out[0].line == 2

    def test_flags_asarray_dtype_float64_of_pairwise(self):
        out = _findings(
            PairwiseUpcastRule(),
            "import numpy as np\n"
            "a = np.asarray(kernel.pairwise(xb, sup), dtype=np.float64)\n"
            "b = numpy.ascontiguousarray(k.pairwise(x), np.float64)\n"
            "c = k.pairwise(x).astype(dtype='float64')\n"
            "d = np.array(k.pairwise(x), dtype=float)\n",
            "src/repro/core/bar.py",
        )
        assert [f.rule for f in out] == ["RPR110"] * 4

    def test_reduction_engine_is_in_scope(self):
        out = _findings(
            PairwiseUpcastRule(),
            "import numpy as np\nb = k.pairwise(s, q).astype(np.float64)\n",
            "src/repro/engine/reduction.py",
        )
        assert [f.rule for f in out] == ["RPR110"]

    def test_model_dtype_and_non_pairwise_upcasts_pass(self):
        out = _findings(
            PairwiseUpcastRule(),
            "import numpy as np\n"
            "a = k.pairwise(s, q, x_sq=sq)\n"
            "b = k.pairwise(s, q).astype(np.float32)\n"
            "c = np.asarray(k.pairwise(s, q), dtype=dt)\n"
            "d = np.asarray(np.diagonal(k.pairwise(x)), dtype=np.float64)\n"
            "e = km.astype(np.float64)\n",
            self.PATH,
        )
        assert out == []

    def test_out_of_scope_paths_ignored(self):
        out = _findings(
            PairwiseUpcastRule(),
            "import numpy as np\nb = k.pairwise(s, q).astype(np.float64)\n",
            "src/repro/bench/foo.py",
        )
        assert out == []
