"""Registry discoverability + quick-mode runnability of all 23 experiments."""

import pkgutil

import pytest

import repro.bench.experiments
from repro.bench import (
    ExperimentResult,
    ExperimentSpec,
    RunConfig,
    all_experiments,
    experiment_ids,
    get_experiment,
    register_experiment,
    run_experiment,
)
from repro.bench.registry import _EXPERIMENT_MODULES
from repro.errors import ConfigError

EXPECTED_IDS = {
    "table2",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "ablation_dense_vs_sparse",
    "ablation_norms",
    "ablation_threshold",
    "ext_device_sweep",
    "ext_distributed",
    "ext_memory_wall",
    "ext_nystrom",
    "ext_spectral",
    "ext_strong_scaling",
    "ext_engine_tiling",
    "ext_reduction_engine",
    "ext_minibatch",
    "ext_observability",
    "ext_async_serving",
    "model_selection",
}


class TestDiscovery:
    def test_all_23_experiments_registered(self):
        assert set(experiment_ids()) == EXPECTED_IDS
        assert len(experiment_ids()) == 23

    def test_module_list_names_every_experiment_module(self):
        # load_all_experiments imports exactly this list; a module missing
        # from it registers only by a side effect of some other import
        pkg = repro.bench.experiments
        found = {
            f"{pkg.__name__}.{m.name}"
            for m in pkgutil.iter_modules(pkg.__path__)
            if m.name not in ("__init__", "common")
        }
        assert sorted(_EXPERIMENT_MODULES) == sorted(found)

    def test_paper_order(self):
        ids = experiment_ids()
        assert ids[0] == "table2"
        assert ids.index("fig2") < ids.index("fig8") < ids.index("ablation_norms")
        assert ids.index("ablation_norms") < ids.index("ext_engine_tiling")

    def test_specs_are_complete(self):
        for spec in all_experiments():
            assert spec.title
            assert spec.group in ("table", "figure", "ablation", "extension")
            assert callable(spec.run)

    def test_get_unknown_raises_with_suggestions(self):
        with pytest.raises(ConfigError, match="fig7"):
            get_experiment("nope")

    def test_duplicate_registration_rejected(self):
        spec = get_experiment("fig7")
        with pytest.raises(ConfigError, match="already registered"):
            register_experiment(spec)

    def test_bad_group_rejected(self):
        bad = ExperimentSpec(
            exp_id="bad_group",
            title="x",
            group="banana",
            run=lambda cfg: ExperimentResult(headers=("a",), rows=((1,),)),
        )
        with pytest.raises(ConfigError, match="group"):
            register_experiment(bad)


@pytest.mark.parametrize("exp_id", sorted(EXPECTED_IDS))
def test_quick_mode_runnable(exp_id, tmp_path):
    """Every registered experiment runs end to end in --quick mode."""
    record, text = run_experiment(
        exp_id,
        RunConfig(quick=True),
        results_dir=str(tmp_path),
        write_csv=True,
    )
    assert record["headers"] and record["rows"]
    assert set(record) == {"title", "group", "headers", "rows", "metrics"}
    assert exp_id in text
    assert (tmp_path / f"{exp_id}.csv").exists()
    # every row matches the header width
    width = len(record["headers"])
    assert all(len(r) == width for r in record["rows"])


def test_full_mode_rows_match_seed_csv_shape():
    """Full-mode fig7 reproduces the paper grid: 6 datasets x 3 k values."""
    record, _ = run_experiment("fig7", RunConfig(), write_csv=False)
    assert len(record["rows"]) == 18
    assert record["metrics"]["quality.min_speedup"] > 1.0

