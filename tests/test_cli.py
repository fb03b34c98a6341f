"""End-to-end CLI behavior: files, schemas, exit codes, determinism."""

import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import triscope
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
        assert set(data["versions"]) == {"triscope", "numpy", "python", "blas", "blas_threads"}
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert data["versions"]["blas"] == f"{blas['name']} {blas['version']}"

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


def run_python(args, threads=None):
    """Run a fresh interpreter on ``args`` with this checkout's triscope
    importable and OPENBLAS_NUM_THREADS set to ``threads`` (None: unset)."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    src = str(Path(triscope.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# prints the process's thread count after a matmul large enough for OpenBLAS
# to split across threads, then OPENBLAS_NUM_THREADS
THREADS_AFTER_MATMUL = (
    "import os; {imports}; a = numpy.ones((600, 600)); a @ a; "
    "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))"
)


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts threads in /proc/self/task")
@pytest.mark.skipif(
    "openblas" not in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"],
    reason="only OpenBLAS reads OPENBLAS_NUM_THREADS",
)
class TestBlasThreads:
    """triscope runs numpy's OpenBLAS on one thread unless the caller says
    otherwise: extra threads only spin on its small matrices, and the last
    output digits would depend on the core count."""

    def test_import_pins_one_thread(self):
        out = run_python(["-c", THREADS_AFTER_MATMUL.format(imports="import triscope, numpy")])
        assert out.split() == ["1", "1"]

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS starts one thread per core at most")
    def test_callers_setting_is_kept(self):
        out = run_python(["-c", THREADS_AFTER_MATMUL.format(imports="import triscope, numpy")], threads="2")
        assert out.split() == ["2", "2"]

    def test_numpy_loaded_first_leaves_environment_alone(self):
        out = run_python(["-c", THREADS_AFTER_MATMUL.format(imports="import numpy, triscope")])
        assert out.split()[1] == "None"

    def test_manifest_records_threads_and_bytes_do_not_depend_on_default(self, tmp_path):
        run_python(["-m", "triscope", "synth", *SYNTH_ARGS, "--out-dir", str(tmp_path)])
        pipeline = ["-m", "triscope", "pipeline", "--log", str(tmp_path / "log.csv"), *PIPE_ARGS,
                    "--out-dir", str(tmp_path)]
        run_python(pipeline)
        unset = snapshot(tmp_path)
        assert json.loads(unset["manifest.json"])["versions"]["blas_threads"] == "1"
        run_python(pipeline, threads="1")
        assert snapshot(tmp_path) == unset
        run_python(pipeline, threads="2")
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["versions"]["blas_threads"] == "2"


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

    def test_window_overflowing_int64_fails_at_ingest(self, tmp_path, capsys):
        """Hour bins are int64 offsets from the window start; a window whose
        span does not fit would wrap them around."""
        log = tmp_path / "log.csv"
        log.write_text("user_id,timestamp\nu,-4611686018427387904\nu,4611686018427387904\n")
        args = ["ingest", "--log", str(log), "--out-dir", str(tmp_path / "o"),
                "--window-hours", "3000000000000000"]
        assert main(args) == EXIT_INGEST
        assert "64-bit" in capsys.readouterr().err

    def test_window_too_large_to_allocate_fails_at_ingest(self, tmp_path, capsys):
        """A window that fits int64 seconds but not memory: the users x hours
        message counts ask numpy for 14.2 PiB, which it refuses at once."""
        log = tmp_path / "log.csv"
        log.write_text("user_id,timestamp\nu,0\nu,10\n")
        args = ["ingest", "--log", str(log), "--out-dir", str(tmp_path / "o"),
                "--window-hours", "2000000000000000"]
        assert main(args) == EXIT_INGEST
        assert capsys.readouterr().err.startswith("error: ingest: out of memory")

    def test_hmm_seed_is_gone(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"hmm_seed": 0}')
        assert main(["pipeline", "--config", str(cfg)]) == EXIT_CONFIG
        with pytest.raises(SystemExit) as exc:
            main(["pipeline", "--hmm-seed", "0"])
        assert exc.value.code == EXIT_CONFIG

    @pytest.mark.parametrize("name, flags, data", [
        ("min_duration", ["--min-duration", "0"], {}),
        ("gap_hours", ["--gap-hours", "-1"], {}),
        ("sweep_budget", ["--sweep-budget", "0"], {}),
        ("n_components", ["--n-components", "0"], {}),
        ("hmm_tol", [], {"hmm_tol": 0}),
        ("hmm_max_iter", [], {"hmm_max_iter": 0}),
        ("tucker_tol", [], {"tucker_tol": 0}),
        ("tucker_max_iter", [], {"tucker_max_iter": 0}),
    ])
    def test_out_of_range_setting_exits_before_any_stage(
        self, pipeline_dir, tmp_path, capsys, name, flags, data
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        out = tmp_path / "o"
        args = ["pipeline", "--log", str(pipeline_dir / "log.csv"), *PIPE_ARGS,
                "--config", str(cfg), *flags, "--out-dir", str(out)]
        assert main(args) == EXIT_CONFIG
        assert not (out / "tensor.txt").exists()
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize("command, data", [
        ("pipeline", {"window_hours": "96"}),
        ("cluster", {"cutoff": "0.5"}),
        ("events", {"k_mad": "4"}),
        ("ingest", {"min_obs": True}),
        ("ingest", {"window_hours": 48.0}),
        ("ingest", {"window_hours": None}),
        ("rank", {"n_components": "2"}),
        ("rank", {"out_dir": 3}),
        ("ingest", {"log": ["log.csv"]}),
        ("ingest", {"window_start": 3600.5}),
        ("events", {"k_mad": False}),
    ])
    def test_mistyped_config_value(self, tmp_path, capsys, command, data):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        assert main([command, "--config", str(cfg), "--out-dir", str(tmp_path)]) == EXIT_CONFIG
        assert f"config key {next(iter(data))!r}" in capsys.readouterr().err


    @pytest.mark.parametrize("section", [
        {"n_users": "5", "window_hours": 24},
        {"n_users": 5, "events": [{"start_hour": 1, "affected_fraction": 0.5}]},
        {"n_users": 5, "colour": "red"},
        [1, 2],
        {"n_users": 5, "persistent_anomalous": 3},
        {"n_users": 5, "events": [{"start_hour": 1, "end_hour": 2.0, "affected_fraction": 0.5}]},
    ])
    def test_mistyped_synth_section(self, tmp_path, capsys, section):
        """The synth section goes through the same type checks as the top
        level, each item of its event list included."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synth": section}))
        assert main(["synth", "--config", str(cfg), "--out-dir", str(tmp_path)]) == EXIT_CONFIG
        assert "config 'synth'" in capsys.readouterr().err


class TestDamagedIntermediates:
    """A damaged intermediate fails its single-stage command with the
    stage's exit code and a message that names the file."""

    @staticmethod
    def copy_edited(pipeline_dir: Path, dst: Path, name: str, edit) -> None:
        for other in ("tensor.txt", "tensor_meta.json", "model.txt"):
            (dst / other).write_bytes((pipeline_dir / other).read_bytes())
        lines = (pipeline_dir / name).read_text().splitlines()
        (dst / name).write_text("\n".join(edit(lines)) + "\n")

    @pytest.mark.parametrize(
        "command, name",
        [("rank", "model.txt"), ("trajectories", "model.txt"),
         ("trajectories", "tensor.txt"), ("decompose", "tensor.txt")],
    )
    def test_non_number_names_the_file(self, pipeline_dir, tmp_path, capsys, command, name):
        def edit(lines):
            return lines[:8] + ["nope"] + lines[9:]

        self.copy_edited(pipeline_dir, tmp_path, name, edit)
        assert main([command, "--out-dir", str(tmp_path)]) == EXIT_DECOMPOSITION
        assert f"{tmp_path / name}: malformed" in capsys.readouterr().err

    def test_fit_label_is_checked(self, pipeline_dir, tmp_path, capsys):
        def edit(lines):
            assert lines[2].startswith("fit ")
            return lines[:2] + ["x" + lines[2][3:]] + lines[3:]

        self.copy_edited(pipeline_dir, tmp_path, "model.txt", edit)
        assert main(["rank", "--out-dir", str(tmp_path)]) == EXIT_DECOMPOSITION
        err = capsys.readouterr().err
        assert f"{tmp_path / 'model.txt'}: model file: label 'fit' missing, got 'x'" in err

    def test_non_integer_cluster_id_fails_at_events(self, pipeline_dir, tmp_path, capsys):
        copy_with_rows(pipeline_dir / "centers.csv", tmp_path,
                       lambda rows: [re.sub(r"^0,", "a,", r) for r in rows])
        assert main(["events", "--out-dir", str(tmp_path)]) == EXIT_CLUSTERING
        assert "centers.csv: cluster id 'a' is not a non-negative integer" in capsys.readouterr().err


def copy_with_rows(src: Path, dst_dir: Path, edit) -> Path:
    """Copy a trajectories-format CSV into ``dst_dir`` with its data rows
    passed through ``edit``."""
    header, *rows = src.read_text().splitlines()
    dst_dir.mkdir(exist_ok=True)
    dst = dst_dir / src.name
    dst.write_text("\n".join([header, *edit(rows)]) + "\n")
    return dst


class TestTrajectoryFiles:
    def test_shuffled_rows_load_and_cluster_the_same(self, pipeline_dir, tmp_path):
        """Items keep the order of their ids' first rows; every other row
        may go anywhere."""
        def shuffle(rows):
            first = [r for r in rows if r.split(",")[1] == "0"]
            rest = [r for r in rows if r.split(",")[1] != "0"]
            return first + random.Random(0).sample(rest, len(rest))

        shuffled = copy_with_rows(pipeline_dir / "trajectories.csv", tmp_path, shuffle)
        assert shuffled.read_bytes() != (pipeline_dir / "trajectories.csv").read_bytes()
        got = cli._load_trajectories(shuffled)
        expected = cli._load_trajectories(pipeline_dir / "trajectories.csv")
        assert got.ids == expected.ids
        assert np.array_equal(got.coords, expected.coords)
        assert main(["cluster", "--out-dir", str(tmp_path)]) == EXIT_OK
        for name in ("clusters.csv", "centers.csv"):
            assert (tmp_path / name).read_bytes() == (pipeline_dir / name).read_bytes(), name

    @pytest.mark.parametrize("name, command", [("trajectories.csv", "cluster"), ("centers.csv", "events")])
    @pytest.mark.parametrize("damage", ["missing", "duplicated"])
    def test_hours_not_0_to_k_fail_naming_the_file(self, pipeline_dir, tmp_path, capsys, name, command, damage):
        def edit(rows):
            # row 1 holds the first id's hour 1
            if damage == "missing":
                return rows[:1] + rows[2:]
            return rows[:1] + [rows[0]] + rows[2:]

        copy_with_rows(pipeline_dir / name, tmp_path, edit)
        assert main([command, "--out-dir", str(tmp_path)]) == EXIT_CLUSTERING
        assert f"{name}: every id needs the hours 0..K-1" in capsys.readouterr().err

    def test_unequal_lengths_fail(self, pipeline_dir, tmp_path, capsys):
        """Dropping one id's last hour leaves every id's hours contiguous
        from 0 but of unequal counts."""
        last = (pipeline_dir / "trajectories.csv").read_text().splitlines()[-1].split(",")
        copy_with_rows(pipeline_dir / "trajectories.csv", tmp_path, lambda rows: rows[:-1])
        assert last[1] == "47"
        assert main(["cluster", "--out-dir", str(tmp_path)]) == EXIT_CLUSTERING
        assert "trajectories.csv: every id needs" in capsys.readouterr().err

    @pytest.mark.parametrize("name, id_column", [("trajectories.csv", "user_id"), ("centers.csv", "cluster")])
    def test_write_load_write_keeps_bytes(self, pipeline_dir, tmp_path, name, id_column):
        cli._write_trajectories(tmp_path / name, id_column, cli._load_trajectories(pipeline_dir / name))
        assert (tmp_path / name).read_bytes() == (pipeline_dir / name).read_bytes()


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

    def test_manifest_config_reads_back(self, pipeline_dir, tmp_path):
        """The config a manifest records, nulls included, is a valid config
        file that rebuilds the same config."""
        recorded = json.loads((pipeline_dir / "manifest.json").read_text())["config"]
        assert "hmm_seed" not in recorded
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(recorded))
        built, _ = cli.build_pipeline_config(cli.build_parser().parse_args(["rank", "--config", str(cfg)]))
        assert built == cli.PipelineConfig(**recorded)

    def test_window_start_parsing(self):
        assert parse_window_start(None) is None
        assert parse_window_start(7200) == 7200
        assert parse_window_start("7200") == 7200
        assert parse_window_start("1970-01-01T02:00:00") == 7200
        assert parse_window_start("1970-01-01T02:00:00+00:00") == 7200
