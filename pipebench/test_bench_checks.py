"""The benchmark's output checks pass on a real pipeline run and fail on
outputs corrupted on purpose, one corruption per check."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks

ROOT = Path(__file__).resolve().parents[1]
SYNTH = ["--users", "40", "--hours", "168", "--base-rate", "2", "--burst-rate", "10",
         "--anomalous", "3,11,19", "--event", "60:79:0.2", "--seed", "2"]


def _triscope(*args: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "triscope", *args], env=env, check=True,
                   stdout=subprocess.DEVNULL, timeout=300)


@pytest.fixture(scope="module")
def pristine(tmp_path_factory) -> Path:
    d = tmp_path_factory.mktemp("bench")
    _triscope("synth", *SYNTH, "--out-dir", str(d / "in"))
    _triscope("pipeline", "--log", str(d / "in" / "log.csv"), "--window-hours", "168",
              "--out-dir", str(d / "out"))
    return d


@pytest.fixture
def run_dir(pristine, tmp_path) -> Path:
    shutil.copytree(pristine, tmp_path / "run")
    return tmp_path / "run"


def _failures(d: Path) -> list[str]:
    truth = json.loads((d / "in" / "ground_truth.json").read_text())
    return checks.run_checks(d / "out", d / "in" / "log.csv", truth)


def _edit_lines(path: Path, fn) -> None:
    lines = path.read_text().splitlines()
    fn(lines)
    path.write_text("\n".join(lines) + "\n")


def _expect(d: Path, fragment: str) -> None:
    failures = _failures(d)
    assert any(fragment in msg for msg in failures), failures


def test_all_checks_pass_on_true_output(run_dir):
    assert _failures(run_dir) == []
    assert checks.run_retune_checks(run_dir / "out") == []


def test_swapped_ranking_rows(run_dir):
    def swap(lines):
        a, b = lines[1].split(","), lines[2].split(",")
        lines[1] = ",".join([a[0], *b[1:]])
        lines[2] = ",".join([b[0], *a[1:]])

    _edit_lines(run_dir / "out" / "ranking.csv", swap)
    _expect(run_dir, "distances are not non-increasing")


def test_planted_user_pushed_out_of_top(run_dir):
    truth = json.loads((run_dir / "in" / "ground_truth.json").read_text())

    def demote(lines):
        pos = next(i for i, line in enumerate(lines) if line.split(",")[1] in truth["anomalous_user_ids"])
        row = lines.pop(pos)
        lines.append(row)

    _edit_lines(run_dir / "out" / "ranking.csv", demote)
    _expect(run_dir, f"not in the top {checks.TOP_K}")


def test_perturbed_tensor_value(run_dir):
    meta = json.loads((run_dir / "out" / "tensor_meta.json").read_text())
    i, j, k = 5, meta["feature_names"].index("msg_count"), 17
    n_j, n_k = len(meta["feature_names"]), meta["window_hours"]
    line = 1 + (i * n_j + j) * n_k + k

    def bump(lines):
        lines[line] = repr(float(lines[line]) + 0.5)

    _edit_lines(run_dir / "out" / "tensor.txt", bump)
    failures = _failures(run_dir)
    for fragment in ("msg_count slab", "not mean 0 / SD 1", "factors reproduce", "X[u,:,t] . B"):
        assert any(fragment in msg for msg in failures), (fragment, failures)


def test_shifted_event_window(run_dir):
    def shift(lines):
        for n in range(1, len(lines)):
            c, s, e, sev = lines[n].split(",")
            lines[n] = f"{c},{int(s) - 40},{int(e) - 40},{sev}"

    _edit_lines(run_dir / "out" / "events.csv", shift)
    _expect(run_dir, "best Jaccard")


def test_non_orthonormal_factor(run_dir):
    def scale(lines):
        pos = lines.index("factor_b") + 2
        lines[pos] = repr(float(lines[pos]) * 1.01)

    _edit_lines(run_dir / "out" / "model.txt", scale)
    _expect(run_dir, "factor_b is not orthonormal")


def test_wrong_fit(run_dir):
    def refit(lines):
        lines[2] = f"fit {float(lines[2].split()[1]) + 0.01!r}"

    _edit_lines(run_dir / "out" / "model.txt", refit)
    _expect(run_dir, "factors reproduce")


def test_wrong_scree_selection(run_dir):
    def move(lines):
        rows = [line.split(",")[:4] + ["0"] for line in lines[1:]]
        rows[-1][4] = "1"
        lines[1:] = [",".join(row) for row in rows]

    _edit_lines(run_dir / "out" / "scree.csv", move)
    _expect(run_dir, "selected row disagrees")


def test_perturbed_trajectory(run_dir):
    def bump(lines):
        parts = lines[10].split(",")
        parts[2] = repr(float(parts[2]) + 1e-3)
        lines[10] = ",".join(parts)

    _edit_lines(run_dir / "out" / "trajectories.csv", bump)
    _expect(run_dir, "X[u,:,t] . B")


def test_center_not_mean_of_members(run_dir):
    out = run_dir / "out"
    labels = {line.split(",")[1] for line in (out / "clusters.csv").read_text().splitlines()[1:]}
    assert len(labels) > 1

    def relabel(lines):
        uid, lab = lines[1].split(",")
        other = next(x for x in sorted(labels) if x != lab)
        lines[1] = f"{uid},{other}"

    _edit_lines(out / "clusters.csv", relabel)
    _expect(run_dir, "is not the mean of its members")
    assert checks.run_retune_checks(out)


def test_anova_not_summing_to_100(run_dir):
    path = run_dir / "out" / "anova.json"
    rep = json.loads(path.read_text())
    rep["three_way_pct"] += 0.5
    path.write_text(json.dumps(rep))
    _expect(run_dir, "percentages sum to")


def test_bad_event_window_in_retune(run_dir):
    path = run_dir / "out" / "events.csv"
    path.write_text(path.read_text() + "0,30,20,1.0\n")
    assert any("bad window" in msg for msg in checks.run_retune_checks(run_dir / "out"))


def test_digest_sees_one_changed_byte(run_dir):
    out = run_dir / "out"
    before = checks.tree_digest(out)
    data = bytearray((out / "manifest.json").read_bytes())
    data[-2] ^= 1
    (out / "manifest.json").write_bytes(bytes(data))
    assert checks.tree_digest(out) != before


def test_log_counts_drop_duplicates(tmp_path):
    log = tmp_path / "log.csv"
    log.write_text("user_id,timestamp\nb,3600\na,10\na,10\na,7300\n")
    counts = checks.read_log_counts(log, ["a", "b"], 0, 3)
    assert np.array_equal(counts, [[1, 0, 1], [0, 1, 0]])
