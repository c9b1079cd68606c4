"""End-to-end coverage of the repro-serve CLI (save/load/predict/serve)."""

import io
import json

import numpy as np
import pytest

from repro.data import make_blobs, write_csv
from repro.serve import load_model
from repro.serve.cli import main


@pytest.fixture()
def train_csv(tmp_path):
    x = make_blobs(120, 5, 3, rng=2)[0]
    path = str(tmp_path / "train.csv")
    write_csv(path, x)
    return path, x


def _save(tmp_path, train_csv, model="popcorn", extra=()):
    path, _ = train_csv
    out = str(tmp_path / "model.npz")
    rc = main(
        ["save", "--model", model, "-k", "3", "-i", path, "-o", out,
         "--backend", "host", *extra]
    )
    assert rc == 0
    return out


class TestSaveLoad:
    def test_save_then_load_prints_metadata(self, tmp_path, train_csv, capsys):
        out = _save(tmp_path, train_csv)
        assert main(["load", out]) == 0
        text = capsys.readouterr().out
        assert "popcorn" in text
        assert "polynomial" in text
        assert "array labels" in text

    @pytest.mark.parametrize("model", ["nystrom", "lloyd", "onthefly"])
    def test_other_estimators_save(self, tmp_path, train_csv, model, capsys):
        out = _save(tmp_path, train_csv, model=model)
        loaded = load_model(out)
        assert hasattr(loaded, "labels_")
        capsys.readouterr()

    def test_synthetic_training_without_input(self, tmp_path, capsys):
        out = str(tmp_path / "m.npz")
        assert main(["save", "-k", "4", "-n", "200", "-d", "6", "-o", out,
                     "--backend", "host"]) == 0
        assert "n=200 d=6" in capsys.readouterr().out

    def test_bad_artifact_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "junk.npz"
        bad.write_bytes(b"nonsense")
        assert main(["load", str(bad)]) == 2
        assert "error" in capsys.readouterr().err


class TestPredictOneShot:
    def test_predict_matches_in_memory(self, tmp_path, train_csv, capsys):
        out = _save(tmp_path, train_csv)
        capsys.readouterr()  # drop the save banner
        _, x = train_csv
        qpath = str(tmp_path / "queries.csv")
        write_csv(qpath, x[:15])
        assert main(["predict", out, "--input", qpath]) == 0
        printed = [int(t) for t in capsys.readouterr().out.split()]
        expected = load_model(out).predict(np.asarray(x[:15], dtype=np.float64))
        assert printed == list(expected)

    def test_predict_writes_output_file(self, tmp_path, train_csv, capsys):
        out = _save(tmp_path, train_csv)
        capsys.readouterr()  # drop the save banner
        _, x = train_csv
        qpath = str(tmp_path / "queries.csv")
        write_csv(qpath, x[:8])
        labels_path = str(tmp_path / "labels.txt")
        assert main(
            ["predict", out, "--input", qpath, "--output", labels_path, "--stats"]
        ) == 0
        assert np.loadtxt(labels_path).shape == (8,)
        err = capsys.readouterr().err
        assert "latency_mean_ms" in err

    def test_predict_jsonl_input(self, tmp_path, train_csv, capsys):
        out = _save(tmp_path, train_csv)
        capsys.readouterr()  # drop the save banner
        _, x = train_csv
        qpath = tmp_path / "q.jsonl"
        with open(qpath, "w") as fh:
            for row in x[:4]:
                fh.write(json.dumps({"x": [float(v) for v in row]}) + "\n")
        assert main(["predict", out, "--input", str(qpath)]) == 0
        assert len(capsys.readouterr().out.split()) == 4

    def test_missing_query_file_exits_2(self, tmp_path, train_csv, capsys):
        out = _save(tmp_path, train_csv)
        assert main(["predict", out, "--input", "/nonexistent.csv"]) == 2
        assert "no such" in capsys.readouterr().err


class TestServeLoop:
    def test_stdin_jsonl_roundtrip(self, tmp_path, train_csv, capsys, monkeypatch):
        out = _save(tmp_path, train_csv)
        capsys.readouterr()  # drop the save banner
        _, x = train_csv
        lines = []
        for i, row in enumerate(x[:6]):
            payload = [float(v) for v in row]
            lines.append(
                json.dumps({"id": f"q{i}", "x": payload})
                if i % 2 == 0
                else json.dumps(payload)
            )
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        assert main(["serve", out, "--batch-size", "4"]) == 0
        captured = capsys.readouterr()
        results = [json.loads(line) for line in captured.out.strip().splitlines()]
        assert len(results) == 6
        expected = load_model(out).predict(np.asarray(x[:6], dtype=np.float64))
        by_id = {r["id"]: r["label"] for r in results}
        assert by_id["q0"] == expected[0]
        assert by_id[2] == expected[1]  # bare arrays are keyed by line number
        stats = json.loads(captured.err.strip().splitlines()[-1])["stats"]
        assert stats["requests"] == 6

    def test_ragged_query_errors_without_hanging(self, tmp_path, train_csv, capsys,
                                                 monkeypatch):
        """A wrong-dimension query in a fused batch must come back as an
        error line — not kill the worker or hang the loop."""
        out = _save(tmp_path, train_csv)
        capsys.readouterr()  # drop the save banner
        _, x = train_csv
        lines = [
            json.dumps({"id": "good", "x": [float(v) for v in x[0]]}),
            json.dumps({"id": "ragged", "x": [0.0] * 9}),
            json.dumps({"id": "good2", "x": [float(v) for v in x[1]]}),
        ]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        assert main(["serve", out, "--batch-size", "8"]) == 0
        results = {
            r["id"]: r
            for r in map(json.loads, capsys.readouterr().out.strip().splitlines())
        }
        assert "label" in results["good"] and "label" in results["good2"]
        assert "error" in results["ragged"]

    def test_bad_lines_reported_not_fatal(self, tmp_path, train_csv, capsys,
                                          monkeypatch):
        out = _save(tmp_path, train_csv)
        capsys.readouterr()  # drop the save banner
        _, x = train_csv
        good = json.dumps([float(v) for v in x[0]])
        nan_row = json.dumps([float("nan")] + [float(v) for v in x[0][1:]])
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("not json\n" + nan_row + "\n" + good + "\n")
        )
        assert main(["serve", out]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.strip().splitlines()) == 1
        errors = [json.loads(e) for e in captured.err.strip().splitlines()[:-1]]
        assert [e["line"] for e in errors] == [1, 2]  # the NaN row is rejected too
        assert "NaN or inf" in errors[1]["error"]


class TestStatsCommand:
    def test_stats_table_synthetic_queries(self, tmp_path, train_csv, capsys):
        out = _save(tmp_path, train_csv)
        capsys.readouterr()
        assert main(["stats", out, "--queries", "32"]) == 0
        text = capsys.readouterr().out
        assert "requests" in text and "32" in text

    def test_stats_json_with_query_file(self, tmp_path, train_csv, capsys):
        out = _save(tmp_path, train_csv)
        path, _ = train_csv
        capsys.readouterr()
        assert main(["stats", out, "--input", path, "--format", "json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["served"] == 120
        assert stats["model_version"] == 1

    def test_stats_prom_exposition(self, tmp_path, train_csv, capsys):
        out = _save(tmp_path, train_csv)
        capsys.readouterr()
        assert main(["stats", out, "--queries", "16", "--format", "prom"]) == 0
        text = capsys.readouterr().out
        assert "# TYPE repro_serve_requests_total counter" in text
        assert "repro_serve_requests_total 16.0" in text

    def test_stats_trace_out_writes_combined_trace(self, tmp_path, train_csv,
                                                   capsys):
        from repro.obs import trace

        out = _save(tmp_path, train_csv)
        trace_path = tmp_path / "trace.json"
        was_enabled = trace.enabled
        try:
            assert main(["stats", out, "--queries", "8",
                         "--trace-out", str(trace_path)]) == 0
        finally:
            trace.enabled = was_enabled
        events = json.loads(trace_path.read_text())
        names = {e["name"] for e in events if e.get("ph") == "X"}
        assert "serve.batch" in names
        assert "serve.enqueue" in names
        procs = {e["args"]["name"] for e in events
                 if e.get("name") == "process_name"}
        assert {"wall-clock spans", "serve-profiler"} <= procs
        assert "combined trace written" in capsys.readouterr().err
