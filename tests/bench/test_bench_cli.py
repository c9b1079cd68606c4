"""End-to-end coverage of the repro-bench CLI (list / run / compare)."""

import json

import pytest

from repro.bench import SCHEMA_VERSION, load_artifact
from repro.bench.cli import main


def test_list_prints_all_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "23 experiments registered" in out
    for exp_id in ("table2", "fig5", "ablation_norms", "ext_engine_tiling", "ext_strong_scaling"):
        assert exp_id in out


def test_run_only_writes_json_and_csv(tmp_path, capsys):
    out_json = tmp_path / "bench.json"
    rc = main(
        [
            "run",
            "--only",
            "table2,fig7",
            "--quick",
            "--csv",
            "--out",
            str(out_json),
            "--results-dir",
            str(tmp_path / "results"),
        ]
    )
    assert rc == 0
    art = load_artifact(str(out_json))
    assert set(art["experiments"]) == {"table2", "fig7"}
    assert (tmp_path / "results" / "fig7.csv").exists()
    assert (tmp_path / "results" / "table2.csv").exists()
    assert "=== fig7:" in capsys.readouterr().out


def test_run_quick_skips_csv_by_default(tmp_path):
    rc = main(
        [
            "run",
            "--only",
            "table2",
            "--quick",
            "--out",
            str(tmp_path / "b.json"),
            "--results-dir",
            str(tmp_path / "results"),
        ]
    )
    assert rc == 0
    assert not (tmp_path / "results").exists()


def test_run_parallel_jobs_matches_serial(tmp_path):
    kwargs = ["--quick", "--no-csv", "--only", "fig7,ext_engine_tiling"]
    assert main(["run", *kwargs, "--out", str(tmp_path / "serial.json")]) == 0
    assert main(["run", *kwargs, "--jobs", "2", "--out", str(tmp_path / "par.json")]) == 0
    serial = json.loads((tmp_path / "serial.json").read_text())["experiments"]
    par = json.loads((tmp_path / "par.json").read_text())["experiments"]
    assert set(serial) == set(par)
    for exp_id in serial:
        assert serial[exp_id]["metrics"] == par[exp_id]["metrics"]
        assert serial[exp_id]["rows"] == par[exp_id]["rows"]


def test_run_rejects_unknown_and_empty_selection(capsys):
    assert main(["run", "--only", "nope"]) == 2
    assert "unknown experiment" in capsys.readouterr().err
    assert main(["run"]) == 2
    assert "--all or --only" in capsys.readouterr().err


def test_compare_exit_codes(tmp_path, capsys):
    base = main(
        [
            "run",
            "--only",
            "fig7",
            "--quick",
            "--no-csv",
            "--out",
            str(tmp_path / "old.json"),
        ]
    )
    assert base == 0
    # identical inputs -> exit 0
    assert main(["compare", str(tmp_path / "old.json"), str(tmp_path / "old.json")]) == 0
    assert "no regressions" in capsys.readouterr().out
    # injected 25% slowdown -> exit 1 at the default 20% threshold
    art = json.loads((tmp_path / "old.json").read_text())
    art["experiments"]["fig7"]["metrics"]["time.popcorn_total_s"] *= 1.25
    (tmp_path / "new.json").write_text(json.dumps(art))
    assert main(["compare", str(tmp_path / "old.json"), str(tmp_path / "new.json")]) == 1
    assert "REGRESSION" in capsys.readouterr().out
    # ...but a looser threshold tolerates it
    assert (
        main(
            [
                "compare",
                str(tmp_path / "old.json"),
                str(tmp_path / "new.json"),
                "--threshold",
                "0.5",
            ]
        )
        == 0
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--only", "table2", "--backend", "host"],
        ["run", "--only", "table2", "--chunk-rows", "64"],
        ["run", "--only", "table2", "--trials", "1"],
        ["run", "--only", "table2", "--no-probes"],
        ["compare", "a.json", "b.json", "--metrics", "time."],
        ["compare", "a.json", "b.json", "--exclude", "time."],
    ],
)
def test_removed_flags_are_usage_errors(argv, capsys):
    """The probe knobs and the metric filters are gone, not ignored."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_compare_schema_error_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 99, "experiments": {}}))
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"schema_version": SCHEMA_VERSION, "experiments": {}}))
    assert main(["compare", str(bad), str(good)]) == 2
    assert "schema_version" in capsys.readouterr().err
    assert main(["compare", str(tmp_path / "missing.json"), str(good)]) == 2


def test_run_out_creates_parent_dirs(tmp_path):
    out = tmp_path / "deep" / "nested" / "b.json"
    rc = main(
        ["run", "--only", "table2", "--quick", "--no-csv", "--out", str(out)]
    )
    assert rc == 0
    assert out.exists()


def test_emit_creates_results_dir(tmp_path):
    """paperfig.emit / the runner create missing results directories."""
    from repro.bench import RunConfig, run_experiment

    target = tmp_path / "not" / "there" / "yet"
    assert not target.exists()
    run_experiment(
        "table2", RunConfig(quick=True), results_dir=str(target), write_csv=True
    )
    assert (target / "table2.csv").exists()
