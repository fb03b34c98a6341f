"""End-to-end CLI behavior: files, schemas, exit codes, determinism."""

import io
import json
import re
from pathlib import Path

import pytest

from triscope import hooi, load_model, read_tensor_text, save_model, scree_select
from triscope import cli
from triscope.cli import (
    EXIT_CLUSTERING,
    EXIT_CONFIG,
    EXIT_DECOMPOSITION,
    EXIT_INGEST,
    EXIT_IO,
    EXIT_OK,
    main,
    parse_window_start,
)

SYNTH_ARGS = [
    "--users", "14", "--hours", "48", "--base-rate", "4", "--burst-rate", "20",
    "--anomalous", "2,7", "--event", "20:29:0.25", "--seed", "9",
]
PIPE_ARGS = ["--window-hours", "48", "--max-p", "3", "--max-q", "3", "--max-r", "3"]

EXPECTED_FILES = [
    "tensor.txt",
    "tensor_meta.json",
    "anova.json",
    "scree.csv",
    "model.txt",
    "ranking.csv",
    "trajectories.csv",
    "clusters.csv",
    "centers.csv",
    "events.csv",
    "manifest.json",
]


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipe")
    assert main(["synth", *SYNTH_ARGS, "--out-dir", str(out)]) == EXIT_OK
    assert main(["pipeline", "--log", str(out / "log.csv"), *PIPE_ARGS, "--out-dir", str(out)]) == EXIT_OK
    return out


def snapshot(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}


class TestPipelineOutputs:
    def test_all_files_written(self, pipeline_dir):
        for name in EXPECTED_FILES:
            assert (pipeline_dir / name).exists(), name

    def test_ranking_schema_and_order(self, pipeline_dir):
        lines = (pipeline_dir / "ranking.csv").read_text().splitlines()
        assert lines[0] == "rank,user_id,distance,score"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == list(range(1, 15))
        dists = [float(r[2]) for r in rows]
        assert dists == sorted(dists, reverse=True)
        scores = [float(r[3]) for r in rows]
        assert max(scores) == 1.0 and min(scores) == 0.0

    def test_planted_anomalies_rank_top(self, pipeline_dir):
        lines = (pipeline_dir / "ranking.csv").read_text().splitlines()[1:3]
        top2 = {line.split(",")[1] for line in lines}
        assert top2 == {"u0002", "u0007"}

    def test_event_window_overlaps_planted(self, pipeline_dir):
        rows = (pipeline_dir / "events.csv").read_text().splitlines()[1:]
        assert rows, "no events detected"
        best = 0.0
        for row in rows:
            _, start, end, _ = row.split(",")
            lo = max(int(start), 20)
            hi = min(int(end), 29)
            inter = max(0, hi - lo + 1)
            union = (int(end) - int(start) + 1) + 10 - inter
            best = max(best, inter / union)
        assert best >= 0.5

    def test_clusters_cover_all_users(self, pipeline_dir):
        rows = (pipeline_dir / "clusters.csv").read_text().splitlines()[1:]
        assert len(rows) == 14
        labels = {int(r.split(",")[1]) for r in rows}
        assert labels == set(range(max(labels) + 1))

    def test_anova_json_schema(self, pipeline_dir):
        data = json.loads((pipeline_dir / "anova.json").read_text())
        total = sum(data["main_effect_pct"]) + sum(data["two_way_pct"]) + data["three_way_pct"]
        assert abs(total - 100.0) < 1e-6
        assert data["max_two_way_pct"] == max(data["two_way_pct"])

    def test_scree_selected_marked(self, pipeline_dir):
        rows = (pipeline_dir / "scree.csv").read_text().splitlines()[1:]
        assert sum(int(r.split(",")[4]) for r in rows) == 1

    def test_manifest_records_run(self, pipeline_dir):
        data = json.loads((pipeline_dir / "manifest.json").read_text())
        assert data["command"] == "pipeline"
        assert data["rng"] == "numpy.random.PCG64"
        assert data["config"]["window_hours"] == 48
        assert set(data) == {"command", "config", "rng", "versions"}
        assert set(data["versions"]) == {"triscope", "numpy", "python"}

    def test_decompose_matches_library_call(self, pipeline_dir):
        """The persisted model equals a library-level fit of the persisted
        tensor at the same selected parameters."""
        x = read_tensor_text(pipeline_dir / "tensor.txt")
        saved = load_model(pipeline_dir / "model.txt")
        res = scree_select(x, 3, 3, 3, sweep_budget=27)
        assert res.selected == (saved.p, saved.q, saved.r)
        direct = hooi(x, saved.p, saved.q, saved.r)
        buf_direct, buf_saved = io.StringIO(), io.StringIO()
        save_model(direct, buf_direct)
        save_model(saved, buf_saved)
        assert buf_direct.getvalue() == buf_saved.getvalue()


class TestDeterminismAndReruns:
    def test_pipeline_byte_identical(self, tmp_path):
        out = tmp_path / "det"
        assert main(["synth", *SYNTH_ARGS, "--out-dir", str(out)]) == EXIT_OK
        args = ["pipeline", "--log", str(out / "log.csv"), *PIPE_ARGS, "--out-dir", str(out)]
        assert main(args) == EXIT_OK
        first = snapshot(out)
        assert main(args) == EXIT_OK
        second = snapshot(out)
        assert first == second

    def test_rank_rerun_byte_identical(self, pipeline_dir):
        before = (pipeline_dir / "ranking.csv").read_bytes()
        assert main(["rank", "--out-dir", str(pipeline_dir)]) == EXIT_OK
        assert (pipeline_dir / "ranking.csv").read_bytes() == before

    def test_events_rerun_byte_identical(self, pipeline_dir):
        before = (pipeline_dir / "events.csv").read_bytes()
        assert main(["events", "--out-dir", str(pipeline_dir)]) == EXIT_OK
        assert (pipeline_dir / "events.csv").read_bytes() == before


class TestStagesMatchPipeline:
    STAGES = ["ingest", "decompose", "rank", "trajectories", "cluster", "events"]

    def test_single_stages_reproduce_pipeline(self, pipeline_dir, tmp_path):
        """Each stage run as its own command, reading the files the one
        before it wrote, leaves what ``pipeline`` leaves (``pipeline`` alone
        writes manifest.json)."""
        out = tmp_path / "stages"
        assert main(["synth", *SYNTH_ARGS, "--out-dir", str(out)]) == EXIT_OK
        for stage in self.STAGES:
            assert main([stage, *PIPE_ARGS, "--out-dir", str(out)]) == EXIT_OK, stage
        expected = snapshot(pipeline_dir)
        del expected["manifest.json"]
        assert snapshot(out) == expected

    def test_pipeline_reads_back_nothing(self, pipeline_dir, tmp_path, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("pipeline read back an intermediate")

        for name in ("read_tensor_text", "load_model", "_read_meta", "_load_trajectories"):
            monkeypatch.setattr(cli, name, forbidden)
        out = tmp_path / "pipe"
        assert main(["synth", *SYNTH_ARGS, "--out-dir", str(out)]) == EXIT_OK
        args = ["pipeline", "--log", str(out / "log.csv"), *PIPE_ARGS, "--out-dir", str(out)]
        assert main(args) == EXIT_OK
        got, expected = snapshot(out), snapshot(pipeline_dir)
        del got["manifest.json"], expected["manifest.json"]
        assert got == expected


class TestRunReport:
    def test_ingest_reports_fits_at_max_iter(self, tmp_path, capsys):
        out = tmp_path / "report"
        assert main(["synth", *SYNTH_ARGS, "--out-dir", str(out)]) == EXIT_OK
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"hmm_max_iter": 2}))
        capsys.readouterr()
        args = ["ingest", "--config", str(cfg), "--window-hours", "48", "--out-dir", str(out)]
        assert main(args) == EXIT_OK
        err = capsys.readouterr().err
        found = re.findall(r"^ingest: (\d+) of (\d+) HMM fits reached max_iter=2$", err, re.M)
        assert len(found) == 1
        assert 0 < int(found[0][0]) <= int(found[0][1])
        # the report goes to stderr only: out_dir holds what it held before
        names = sorted(p.name for p in out.iterdir())
        assert names == ["ground_truth.json", "log.csv", "tensor.txt", "tensor_meta.json"]

    def test_decompose_reports_fits_at_max_iter(self, tmp_path, capsys):
        out = tmp_path / "report"
        assert main(["synth", *SYNTH_ARGS, "--out-dir", str(out)]) == EXIT_OK
        assert main(["ingest", "--window-hours", "48", "--out-dir", str(out)]) == EXIT_OK
        args = ["decompose", "--max-p", "3", "--max-q", "3", "--max-r", "3", "--out-dir", str(out)]
        capsys.readouterr()
        assert main(args) == EXIT_OK
        err = capsys.readouterr().err
        found = re.findall(r"^decompose: (\d+) of 27 HOOI fits reached max_iter=50$", err, re.M)
        assert len(found) == 1
        at_default = int(found[0])
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tucker_max_iter": 1}))
        assert main([*args, "--config", str(cfg)]) == EXIT_OK
        err = capsys.readouterr().err
        found = re.findall(r"^decompose: (\d+) of 27 HOOI fits reached max_iter=1$", err, re.M)
        assert len(found) == 1
        # a fit that needs more than 50 sweeps needs more than one
        assert at_default < int(found[0]) <= 27
        # the report goes to stderr only: out_dir holds the same files
        assert sorted(p.name for p in out.iterdir()) == sorted(before)


class TestFailureModes:
    def test_empty_log_fails_at_ingest(self, tmp_path):
        log = tmp_path / "empty.csv"
        log.write_text("user_id,timestamp\n")
        code = main(["pipeline", "--log", str(log), "--out-dir", str(tmp_path / "o")])
        assert code == EXIT_INGEST

    def test_malformed_log_fails_at_ingest(self, tmp_path):
        log = tmp_path / "bad.csv"
        log.write_text("user_id,timestamp\nu1,notanumber\n")
        code = main(["ingest", "--log", str(log), "--out-dir", str(tmp_path / "o")])
        assert code == EXIT_INGEST

    @pytest.mark.parametrize(
        "body", [b"u1,0\nu2,99999999999999999999999\n", b"u1,0\nu1,\xff0\n"],
        ids=["beyond-int64", "not-utf8"],
    )
    def test_undecodable_log_fails_at_ingest(self, tmp_path, capsys, body):
        log = tmp_path / "bad.csv"
        log.write_bytes(b"user_id,timestamp\n" + body)
        code = main(["ingest", "--log", str(log), "--out-dir", str(tmp_path / "o")])
        assert code == EXIT_INGEST
        assert "line 3" in capsys.readouterr().err

    def test_missing_intermediate_names_file(self, tmp_path, capsys):
        code = main(["cluster", "--out-dir", str(tmp_path / "nothing")])
        assert code == EXIT_IO
        assert "trajectories.csv" in capsys.readouterr().err

    def test_missing_input_log(self, tmp_path):
        code = main(["ingest", "--log", str(tmp_path / "nope.csv"), "--out-dir", str(tmp_path)])
        assert code == EXIT_IO

    def test_unknown_subcommand_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == EXIT_CONFIG

    def test_invalid_config_json(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{broken")
        assert main(["pipeline", "--config", str(cfg)]) == EXIT_CONFIG

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"no_such_key": 1}')
        assert main(["pipeline", "--config", str(cfg)]) == EXIT_CONFIG

    @pytest.mark.parametrize("row", ["u0000,0,abc", "u0000,x,1.0"])
    def test_malformed_trajectories_fail_at_cluster(self, tmp_path, capsys, row):
        (tmp_path / "trajectories.csv").write_text(f"user_id,t,c1\nu0000,1,0.5\n{row}\n")
        assert main(["cluster", "--out-dir", str(tmp_path)]) == EXIT_CLUSTERING
        assert "trajectories.csv line 3" in capsys.readouterr().err

    def test_malformed_centers_fail_at_events(self, tmp_path, capsys):
        (tmp_path / "centers.csv").write_text("cluster,t,c1\n0,0,nope\n")
        assert main(["events", "--out-dir", str(tmp_path)]) == EXIT_CLUSTERING
        assert "centers.csv line 2" in capsys.readouterr().err

    def test_malformed_meta_fails_at_rank(self, pipeline_dir, tmp_path, capsys):
        (tmp_path / "model.txt").write_bytes((pipeline_dir / "model.txt").read_bytes())
        (tmp_path / "tensor_meta.json").write_text('{"user_ids": [\n')
        assert main(["rank", "--out-dir", str(tmp_path)]) == EXIT_DECOMPOSITION
        assert "tensor_meta.json line 2" in capsys.readouterr().err

    def test_bad_cutoff(self, tmp_path):
        log = tmp_path / "log.csv"
        log.write_text("user_id,timestamp\nu,10\n")
        assert main(["pipeline", "--log", str(log), "--cutoff", "-1"]) == EXIT_CONFIG


class TestConfigHandling:
    def test_config_file_plus_flag_override(self, tmp_path):
        out = tmp_path / "o"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "out_dir": str(out),
                    "window_hours": 24,
                    "synth": {
                        "n_users": 6,
                        "window_hours": 24,
                        "base_rate": 5.0,
                        "burst_rate": 25.0,
                        "persistent_anomalous": [1],
                        "seed": 3,
                    },
                }
            )
        )
        assert main(["synth", "--config", str(cfg)]) == EXIT_OK
        # pipeline with no --log runs synth from the config section first
        assert main(["pipeline", "--config", str(cfg)]) == EXIT_OK
        assert (out / "ranking.csv").exists()
        meta = json.loads((out / "tensor_meta.json").read_text())
        assert meta["window_hours"] == 24

    def test_window_start_parsing(self):
        assert parse_window_start(None) is None
        assert parse_window_start(7200) == 7200
        assert parse_window_start("7200") == 7200
        assert parse_window_start("1970-01-01T02:00:00") == 7200
        assert parse_window_start("1970-01-01T02:00:00+00:00") == 7200
