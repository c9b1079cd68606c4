"""Round-trip coverage of the BENCH_results.json schema."""

import json

import pytest

from repro.bench import (
    RunConfig,
    SCHEMA_VERSION,
    compare_artifacts,
    load_artifact,
    run_experiments,
    tracked_metrics,
    write_artifact,
)
from repro.errors import ConfigError

QUICK_IDS = ["table2", "fig7", "ext_engine_tiling"]


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    """A real quick-mode artifact over a 3-experiment subset."""
    out = tmp_path_factory.mktemp("bench") / "BENCH_results.json"
    art, failures = run_experiments(
        QUICK_IDS,
        RunConfig(quick=True),
        out=str(out),
        write_csv=False,
        echo=lambda *a, **k: None,
    )
    assert not failures
    return art, out


class TestRoundTrip:
    def test_write_then_load_preserves_everything(self, artifact):
        art, out = artifact
        loaded = load_artifact(str(out))
        assert loaded == json.loads(json.dumps(art))  # tuples become lists
        assert loaded["schema_version"] == SCHEMA_VERSION
        assert set(loaded["experiments"]) == set(QUICK_IDS)

    def test_schema_sections(self, artifact):
        art, _ = artifact
        assert art["generated_by"] == "repro.bench"
        assert art["config"] == {"quick": True, "base_seed": 0}
        for key in ("python", "numpy", "scipy", "platform"):
            assert key in art["environment"]
        assert art["device_model"]["name"].startswith("NVIDIA")
        rec = art["experiments"]["fig7"]
        assert rec["group"] == "figure"
        assert set(rec) == {"title", "group", "headers", "rows", "metrics"}

    def test_tracked_metrics_are_the_declared_metrics(self, artifact):
        art, _ = artifact
        rec = art["experiments"]["fig7"]
        metrics = tracked_metrics(rec)
        assert "time.popcorn_total_s" in metrics
        assert metrics == rec["metrics"]

    def test_compare_unchanged_run_passes(self, artifact):
        """write -> load -> compare: an identical artifact never regresses."""
        _, out = artifact
        a = load_artifact(str(out))
        b = load_artifact(str(out))
        cmp = compare_artifacts(a, b, threshold=0.2)
        assert cmp.ok
        assert not cmp.regressions
        assert len(cmp.deltas) > 0

    def test_compare_detects_injected_25pct_slowdown(self, artifact):
        """A 25% rise in a tracked time metric trips the 20% threshold."""
        _, out = artifact
        old = load_artifact(str(out))
        new = json.loads(json.dumps(old))
        new["experiments"]["fig7"]["metrics"]["time.popcorn_total_s"] *= 1.25
        cmp = compare_artifacts(old, new, threshold=0.2)
        assert not cmp.ok
        [reg] = cmp.regressions
        assert reg.exp_id == "fig7"
        assert reg.metric == "time.popcorn_total_s"
        assert reg.change == pytest.approx(0.25)

    def test_compare_detects_throughput_drop(self, artifact):
        """higher-is-better metrics regress when they *fall*."""
        _, out = artifact
        old = load_artifact(str(out))
        old["experiments"]["fig7"]["metrics"]["throughput.fake_gflops"] = 100.0
        new = json.loads(json.dumps(old))
        new["experiments"]["fig7"]["metrics"]["throughput.fake_gflops"] = 70.0
        cmp = compare_artifacts(old, new, threshold=0.2)
        assert [d.metric for d in cmp.regressions] == ["throughput.fake_gflops"]
        # and a throughput *rise* is an improvement, not a regression
        up = json.loads(json.dumps(old))
        up["experiments"]["fig7"]["metrics"]["throughput.fake_gflops"] = 150.0
        cmp_up = compare_artifacts(old, up, threshold=0.2)
        assert cmp_up.ok and len(cmp_up.improvements) == 1


class TestValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_artifact(str(tmp_path / "nope.json"))

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_artifact(str(p))

    def test_wrong_schema_version(self, tmp_path):
        p = tmp_path / "v99.json"
        p.write_text(json.dumps({"schema_version": 99, "experiments": {}}))
        with pytest.raises(ConfigError, match="schema_version"):
            load_artifact(str(p))

    def test_missing_experiments_section(self, tmp_path):
        p = tmp_path / "noexp.json"
        p.write_text(json.dumps({"schema_version": SCHEMA_VERSION}))
        with pytest.raises(ConfigError, match="experiments"):
            load_artifact(str(p))

    def test_experiment_without_metrics(self, tmp_path):
        p = tmp_path / "nometrics.json"
        p.write_text(
            json.dumps({"schema_version": SCHEMA_VERSION, "experiments": {"x": {"rows": []}}})
        )
        with pytest.raises(ConfigError, match="metrics"):
            load_artifact(str(p))

    def test_write_artifact_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "BENCH.json"
        write_artifact(str(path), {"schema_version": SCHEMA_VERSION, "experiments": {}})
        assert path.exists()

    def test_unknown_metric_kind_rejected(self):
        from repro.bench.artifact import metric_lower_is_better

        assert metric_lower_is_better("time.x")
        assert not metric_lower_is_better("quality.x")
        with pytest.raises(ConfigError, match="kind"):
            metric_lower_is_better("banana.x")


def test_committed_baseline_is_loadable_and_current():
    """The CI baseline artifact in the repo parses under this schema."""
    import os

    here = os.path.dirname(os.path.abspath(__file__))
    baseline = os.path.join(here, "..", "..", "benchmarks", "baseline", "BENCH_baseline.json")
    art = load_artifact(baseline)
    assert art["config"]["quick"] is True
    assert len(art["experiments"]) == 23


def test_committed_baseline_matches_a_fresh_run(artifact):
    """Every metric is deterministic, so the baseline's figures equal a
    fresh quick run's up to float rounding across numpy builds."""
    import os

    here = os.path.dirname(os.path.abspath(__file__))
    baseline = os.path.join(here, "..", "..", "benchmarks", "baseline", "BENCH_baseline.json")
    art, _ = artifact
    cmp = compare_artifacts(load_artifact(baseline), art, threshold=1e-9)
    assert cmp.deltas
    assert not cmp.regressions and not cmp.improvements
