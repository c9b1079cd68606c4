"""Unit coverage of the regression-gate semantics (no experiment runs)."""

import pytest

from repro.bench import SCHEMA_VERSION, compare_artifacts, format_comparison
from repro.errors import ConfigError


def make_artifact(metrics, exp_id="exp"):
    return {
        "schema_version": SCHEMA_VERSION,
        "experiments": {
            exp_id: {
                "title": "t",
                "group": "figure",
                "headers": ["a"],
                "rows": [[1]],
                "metrics": dict(metrics),
            }
        },
    }


class TestThresholdEdges:
    def test_exactly_at_threshold_is_not_a_regression(self):
        old = make_artifact({"time.x": 1.0})
        new = make_artifact({"time.x": 1.2})
        assert compare_artifacts(old, new, threshold=0.2).ok

    def test_just_past_threshold_regresses(self):
        old = make_artifact({"time.x": 1.0})
        new = make_artifact({"time.x": 1.21})
        cmp = compare_artifacts(old, new, threshold=0.2)
        assert not cmp.ok

    def test_improvement_is_flagged_not_failed(self):
        old = make_artifact({"time.x": 1.0})
        new = make_artifact({"time.x": 0.5})
        cmp = compare_artifacts(old, new, threshold=0.2)
        assert cmp.ok and len(cmp.improvements) == 1

    def test_zero_old_value(self):
        old = make_artifact({"time.x": 0.0})
        same = make_artifact({"time.x": 0.0})
        worse = make_artifact({"time.x": 0.5})
        assert compare_artifacts(old, same, threshold=0.2).ok
        assert not compare_artifacts(old, worse, threshold=0.2).ok

    def test_zero_old_value_respects_direction(self):
        """A higher-is-better metric rising from 0 is an improvement, not inf-regression."""
        old = make_artifact({"throughput.x": 0.0})
        better = make_artifact({"throughput.x": 5.0})
        cmp = compare_artifacts(old, better, threshold=0.2)
        assert cmp.ok
        assert len(cmp.improvements) == 1
        # ...and dropping TO zero on a higher-is-better metric is a regression
        assert not compare_artifacts(better, old, threshold=0.2).ok

    def test_bad_threshold(self):
        a = make_artifact({"time.x": 1.0})
        with pytest.raises(ConfigError, match="threshold"):
            compare_artifacts(a, a, threshold=-0.1)

    def test_zero_threshold_flags_any_change(self):
        """The metrics are deterministic, so threshold 0 is a usable gate."""
        old = make_artifact({"time.x": 1.0, "quality.q": 0.5})
        cmp = compare_artifacts(old, make_artifact({"time.x": 1.0, "quality.q": 0.5}), 0.0)
        assert cmp.ok and not cmp.improvements
        nudged = make_artifact({"time.x": 1.0 + 1e-12, "quality.q": 0.5})
        worse = compare_artifacts(old, nudged, 0.0)
        assert [d.metric for d in worse.regressions] == ["time.x"]
        better = compare_artifacts(old, make_artifact({"time.x": 1.0, "quality.q": 0.6}), 0.0)
        assert better.ok and [d.metric for d in better.improvements] == ["quality.q"]


class TestCoverageSemantics:
    def test_missing_experiment_in_new_is_warned_not_failed(self):
        old = make_artifact({"time.x": 1.0}, exp_id="gone")
        new = make_artifact({"time.x": 1.0}, exp_id="fresh")
        cmp = compare_artifacts(old, new, threshold=0.2)
        assert cmp.ok
        assert cmp.missing_experiments == ("gone",)
        assert cmp.new_experiments == ("fresh",)
        report = format_comparison(cmp)
        assert "gone" in report and "fresh" in report

    def test_metric_only_in_new_is_ignored(self):
        old = make_artifact({"time.x": 1.0})
        new = make_artifact({"time.x": 1.0, "time.extra": 99.0})
        assert compare_artifacts(old, new, threshold=0.2).ok


class TestFormatting:
    def test_report_names_regressed_metric_and_verdict(self):
        old = make_artifact({"time.x": 1.0, "quality.q": 0.9})
        new = make_artifact({"time.x": 2.0, "quality.q": 0.9})
        cmp = compare_artifacts(old, new, threshold=0.2)
        report = format_comparison(cmp)
        assert "REGRESSION" in report
        assert "time.x" in report
        assert "1 regression(s) past the 20% threshold" in report

    def test_only_changed_filters_ok_rows(self):
        old = make_artifact({"time.x": 1.0, "time.y": 1.0})
        new = make_artifact({"time.x": 2.0, "time.y": 1.0})
        report = format_comparison(
            compare_artifacts(old, new, threshold=0.2), only_changed=True
        )
        assert "time.x" in report and "time.y" not in report

    def test_clean_report_states_no_regressions(self):
        a = make_artifact({"time.x": 1.0})
        report = format_comparison(compare_artifacts(a, a, threshold=0.2))
        assert "no regressions" in report


class TestMetricFilters:
    """Each metric kind regresses in its own direction."""

    def test_comm_kind_is_lower_is_better(self):
        from repro.bench.artifact import metric_lower_is_better

        assert metric_lower_is_better("comm.sharded_g8_comm_s")
        old = make_artifact({"comm.s": 1.0})
        assert not compare_artifacts(old, make_artifact({"comm.s": 2.0})).ok
        assert compare_artifacts(old, make_artifact({"comm.s": 0.1})).ok
