"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``. Criteria 8-10 drive the
CLI end to end on synthetic logs with planted ground truth; the rest pin the
numeric core against independent oracles at desk scale with explicit time
budgets (the JIT kernels are compiled once by the session fixture before any
clock starts).
"""

import functools
import json
import math
import time

import numpy as np
import pytest

from triscope import (
    anova_interaction,
    baum_welch,
    forward_log_likelihood,
    hooi,
    reconstruct,
    scree_select,
    tensor3,
    ward_cluster,
)
from triscope.cli import EXIT_OK, main
from triscope.hmm import HmmModel
from triscope.tucker import TuckerModel
from triscope.trajectory import build_trajectories
from triscope.ingest import FeatureTensor

from test_clustering import brute_force_ward
from test_hmm import enumerate_likelihood


def criterion(number, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:2d} FAIL - {description}")
                raise
            print(f"ACCEPTANCE {number:2d} PASS - {description}")

        return wrapper

    return deco


@criterion(1, "full-rank HOOI reconstructs random tensors to 1e-8")
def test_full_rank_exactness():
    rng = np.random.default_rng(100)
    dims_list = [(2, 2, 2), (3, 4, 5), (6, 6, 6), (1, 6, 4), (5, 2, 6)]
    for dims in dims_list:
        x = tensor3(rng.normal(size=dims))
        t0 = time.perf_counter()
        model = hooi(x, *dims)
        elapsed = time.perf_counter() - t0
        rel = np.linalg.norm((x - model.reconstruct()).ravel()) / np.linalg.norm(x.ravel())
        assert rel < 1e-8, f"dims {dims}: relative error {rel}"
        assert elapsed < 1.0, f"dims {dims}: took {elapsed:.2f}s"


@criterion(2, "scaled forward matches exhaustive enumeration (100 models)")
def test_forward_likelihood_oracle():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    for _ in range(100):
        trans = rng.uniform(0.05, 1.0, size=(2, 2))
        trans /= trans.sum(axis=1, keepdims=True)
        init = rng.uniform(0.05, 1.0, size=2)
        init /= init.sum()
        means = rng.uniform(-2.0, 2.0, size=2)
        variances = rng.uniform(0.25, 4.0, size=2)
        model = HmmModel(trans, init, means, variances)
        t_len = int(rng.integers(1, 9))
        obs = means[rng.integers(0, 2, size=t_len)] + rng.normal(scale=0.5, size=t_len)
        got = math.exp(forward_log_likelihood(model, obs))
        expected = enumerate_likelihood(model, obs)
        assert abs(got - expected) < 1e-10, f"{got} vs {expected}"
    assert time.perf_counter() - t0 < 5.0


@criterion(3, "Baum-Welch log-likelihood is monotone over 50 runs")
def test_em_monotonicity():
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    for seed in range(50):
        obs = np.concatenate(
            [rng.exponential(rng.uniform(5, 50), 100), rng.exponential(rng.uniform(200, 2000), 100)]
        )
        rng.shuffle(obs)
        model = baum_welch(obs)
        drops = np.diff(model.loglik_history)
        assert np.all(drops >= -1e-9), f"seed {seed}: worst drop {drops.min()}"
    assert time.perf_counter() - t0 < 10.0


@criterion(4, "planted 2-state model recovered within 10% (T=500)")
def test_planted_hmm_recovery():
    rng = np.random.default_rng(103)
    hot = rng.random(500) < 0.5
    obs = np.where(hot, rng.normal(100.0, 20.0, 500), rng.normal(1.0, 0.2, 500))
    t0 = time.perf_counter()
    model = baum_welch(obs)
    elapsed = time.perf_counter() - t0
    assert abs(model.means[0] - 1.0) / 1.0 < 0.10, model.means
    assert abs(model.means[1] - 100.0) / 100.0 < 0.10, model.means
    assert elapsed < 2.0


@criterion(5, "Ward merges identical to brute-force SS recomputation (100 runs)")
def test_ward_oracle():
    rng = np.random.default_rng(104)
    t0 = time.perf_counter()
    for trial in range(100):
        n = int(rng.integers(2, 11))
        dim = int(rng.integers(1, 21))
        pts = rng.normal(size=(n, dim))
        got = ward_cluster(pts).merges
        expected = brute_force_ward(pts)
        for s, (a, b, d, size) in enumerate(expected):
            assert int(got[s, 0]) == a and int(got[s, 1]) == b, f"trial {trial} step {s}"
            np.testing.assert_allclose(got[s, 2], d, rtol=1e-9, atol=1e-12)
            assert int(got[s, 3]) == size
    assert time.perf_counter() - t0 < 10.0


@criterion(6, "ANOVA percentages close to 100; pure main effects show none")
def test_anova_closure():
    rng = np.random.default_rng(105)
    t0 = time.perf_counter()
    for _ in range(10):
        rep = anova_interaction(tensor3(rng.normal(size=(4, 4, 4))))
        total = sum(rep.main_effect_pct) + sum(rep.two_way_pct) + rep.three_way_pct
        assert abs(total - 100.0) < 1e-6
    f = rng.normal(size=4)
    g = rng.normal(size=4)
    pure = tensor3(f[:, None, None] + g[None, :, None] + np.zeros((4, 4, 4)))
    rep = anova_interaction(pure)
    assert max(rep.two_way_pct) < 1e-9
    assert rep.three_way_pct < 1e-9
    assert time.perf_counter() - t0 < 1.0


@criterion(7, "scree recovers planted rank (2,2,2) in >= 18/20 trials")
def test_scree_recovery():
    t0 = time.perf_counter()
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(2000 + seed)
        core = rng.normal(size=(2, 2, 2))
        a = np.linalg.qr(rng.normal(size=(20, 2)))[0]
        b = np.linalg.qr(rng.normal(size=(10, 2)))[0]
        c = np.linalg.qr(rng.normal(size=(30, 2)))[0]
        x = reconstruct(core, a, b, c)
        noise = rng.normal(size=x.shape)
        x = x + noise * (0.01 * np.linalg.norm(x.ravel()) / np.linalg.norm(noise.ravel()))
        if scree_select(tensor3(x), 4, 4, 4).selected == (2, 2, 2):
            hits += 1
    assert hits >= 18, f"only {hits}/20 recovered"
    assert time.perf_counter() - t0 < 60.0


PLANTED_ANOMALOUS = ("u0007", "u0023", "u0061")
PLANTED_EVENT = (300, 349)  # 50 hours inclusive


@pytest.fixture(scope="module")
def big_run(tmp_path_factory):
    """Criteria 8/9 share one 100-user, 720-hour pipeline run."""
    out = tmp_path_factory.mktemp("accept")
    code = main(
        [
            "synth",
            "--users", "100",
            "--hours", "720",
            "--base-rate", "2.0",
            "--burst-rate", "10.0",
            "--anomalous", "7,23,61",
            "--event", f"{PLANTED_EVENT[0]}:{PLANTED_EVENT[1]}:0.10",
            "--seed", "42",
            "--out-dir", str(out),
        ]
    )
    assert code == EXIT_OK
    t0 = time.perf_counter()
    code = main(["pipeline", "--log", str(out / "log.csv"), "--out-dir", str(out)])
    elapsed = time.perf_counter() - t0
    assert code == EXIT_OK
    return out, elapsed


@criterion(8, "3 planted anomalous users in ranking top 5; pipeline < 120 s")
def test_end_to_end_anomaly_recovery(big_run):
    out, elapsed = big_run
    lines = (out / "ranking.csv").read_text().splitlines()[1:6]
    top5 = {line.split(",")[1] for line in lines}
    assert set(PLANTED_ANOMALOUS) <= top5, f"top5 = {sorted(top5)}"
    assert elapsed < 120.0, f"pipeline took {elapsed:.1f}s"


@criterion(9, "detected event window overlaps planted window (Jaccard >= 0.5)")
def test_end_to_end_event_recovery(big_run):
    out, _ = big_run
    rows = (out / "events.csv").read_text().splitlines()[1:]
    assert rows, "no events reported"
    lo_p, hi_p = PLANTED_EVENT
    best = 0.0
    for row in rows:
        _, start, end, _ = row.split(",")
        start, end = int(start), int(end)
        inter = max(0, min(end, hi_p) - max(start, lo_p) + 1)
        union = (end - start + 1) + (hi_p - lo_p + 1) - inter
        best = max(best, inter / union)
    assert best >= 0.5, f"best Jaccard {best:.2f} over {rows}"


@criterion(10, "identical config and seed give byte-identical outputs")
def test_pipeline_determinism(tmp_path):
    out = tmp_path / "det"
    synth = [
        "synth", "--users", "12", "--hours", "48", "--base-rate", "4",
        "--burst-rate", "20", "--anomalous", "3", "--event", "10:19:0.25",
        "--seed", "5", "--out-dir", str(out),
    ]
    pipe = ["pipeline", "--log", str(out / "log.csv"), "--window-hours", "48", "--out-dir", str(out)]
    assert main(synth) == EXIT_OK
    assert main(pipe) == EXIT_OK
    first = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert main(pipe) == EXIT_OK
    second = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert first == second


@criterion(11, "trajectories equal the explicit dot-product loop to 1e-12")
def test_trajectory_oracle():
    rng = np.random.default_rng(106)
    x = rng.normal(size=(3, 4, 5))
    b = np.linalg.qr(rng.normal(size=(4, 2)))[0]
    ft = FeatureTensor(x, ("u0", "u1", "u2"), tuple(f"f{i}" for i in range(4)))
    model = TuckerModel(np.zeros((1, 2, 1)), np.ones((3, 1)), b, np.ones((5, 1)), 0.0)
    trajectories = build_trajectories(ft, model)
    for u in range(3):
        for k in range(5):
            for q in range(2):
                expected = sum(x[u, j, k] * b[j, q] for j in range(4))
                assert abs(trajectories.coords[u, k, q] - expected) < 1e-12


def test_ground_truth_matches_planted_config(big_run):
    """Sanity: the synth stage recorded exactly what the criteria assume."""
    out, _ = big_run
    truth = json.loads((out / "ground_truth.json").read_text())
    assert tuple(truth["anomalous_user_ids"]) == PLANTED_ANOMALOUS
    assert truth["events"][0]["start_hour"] == PLANTED_EVENT[0]
    assert truth["events"][0]["end_hour"] == PLANTED_EVENT[1]
    assert len(truth["events"][0]["affected_user_ids"]) == 10
