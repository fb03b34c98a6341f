"""Parity between the numba HMM kernels and their numpy fallbacks, the batched
Baum-Welch engine against the scalar loop reference, plus the environment
switch."""

import os
import subprocess
import sys

import numpy as np
import pytest

from triscope import backends

needs_numba = pytest.mark.skipif(not backends.HAVE_NUMBA, reason="numba unavailable")


def random_case(rng, t=60):
    obs = np.concatenate([rng.exponential(5.0, t // 2), rng.exponential(200.0, t - t // 2)])
    rng.shuffle(obs)
    trans = rng.uniform(0.1, 1.0, size=(2, 2))
    trans /= trans.sum(axis=1, keepdims=True)
    init = rng.uniform(0.1, 1.0, size=2)
    init /= init.sum()
    means = np.array([5.0, 200.0])
    variances = np.array([20.0, 5000.0])
    return obs, trans, init, means, variances


def slow_case(rng, t):
    """Overlapping emissions and sticky states: the filter remembers across
    many steps, so a chunk's entering vector matters."""
    regime = np.repeat(rng.integers(0, 2, t // 50 + 1), 50)[:t]
    obs = rng.normal(np.where(regime == 1, 12.0, 10.0), 3.0)
    trans = np.array([[0.999, 0.001], [0.001, 0.999]])
    return obs, trans, np.array([0.5, 0.5]), np.array([9.0, 13.0]), np.array([9.0, 9.0])


def absorbing_case(rng, t):
    """Near-absorbing start (off-diagonal 1e-19) on alternating, well
    separated observations: every likely path switches state at each step,
    so unnormalized chunk products underflow."""
    obs = np.where(np.arange(t) % 2 == 1, 200.0, 5.0) + rng.normal(0.0, 1.0, t)
    trans = np.array([[1.0 - 1e-19, 1e-19], [1e-19, 1.0 - 1e-19]])
    return obs, trans, np.array([0.5, 0.5]), np.array([5.0, 200.0]), np.array([1.0, 1.0])


@needs_numba
class TestKernelParity:
    def test_forward(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            obs, trans, init, means, var = random_case(rng)
            a = backends.forward_loglik_np(obs, trans, init, means, var)
            b = backends.forward_loglik_jit(obs, trans, init, means, var)
            np.testing.assert_allclose(a, b, rtol=1e-10)

    def test_viterbi(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            obs, trans, init, means, var = random_case(rng)
            with np.errstate(divide="ignore"):
                lt, li = np.log(trans), np.log(init)
            a = backends.viterbi_np(obs, lt, li, means, var)
            b = backends.viterbi_jit(obs, lt, li, means, var)
            assert np.array_equal(a, b)

    def test_baum_welch(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            obs, trans, init, means, var = random_case(rng)
            out_np = backends.baum_welch_np(obs, trans, init, means, var, 1e-9, 1e-6, 80)
            out_jit = backends.baum_welch_jit(obs, trans, init, means, var, 1e-9, 1e-6, 80)
            assert len(out_np[4]) == len(out_jit[4])
            for a, b in zip(out_np, out_jit):
                np.testing.assert_allclose(a, b, rtol=1e-8, atol=1e-12)


class TestBatchedEngine:
    def test_matches_loop_reference(self):
        """The batched numpy engine on sequences of mixed lengths against the
        scalar loop twin of the compiled kernel, run as plain Python. The
        lengths cover the plain recursion, the blocked scan up to T = 1000,
        and one step either side of a chunk boundary; two starts are nearly
        absorbing. No step, padding included, divides 0 by 0."""
        rng = np.random.default_rng(4)
        size = backends._CHUNK
        m = backends._PLAIN_STEPS // size + 1  # the fewest chunks of a blocked scan
        cases = [random_case(rng, t) for t in (8, 60, 25, 90)]
        cases += [slow_case(rng, t) for t in (1000, size * m - 1, size * m, size * m + 1)]
        cases += [absorbing_case(rng, t) for t in (300, size * m + 1)]
        with np.errstate(divide="raise", invalid="raise"):
            out = backends.baum_welch_batch_np(
                [c[0] for c in cases],
                *(np.array([c[k] for c in cases]) for k in range(1, 5)),
                np.full(len(cases), 1e-9),
                1e-6,
                40,
            )
        for k, (obs, trans, init, means, var) in enumerate(cases):
            ref = backends._baum_welch_loop(obs, trans, init, means, var, 1e-9, 1e-6, 40)
            got = [p[k] for p in out]
            assert len(got[4]) == len(ref[4])
            for a, b in zip(got, ref):
                np.testing.assert_allclose(a, b, rtol=1e-8, atol=1e-12)

    def test_batch_size_cap_splits_without_changing_results(self, monkeypatch):
        rng = np.random.default_rng(5)
        cases = [random_case(rng, t) for t in (40, 38, 36, 30, 33)]
        args = (
            [c[0] for c in cases],
            *(np.array([c[k] for c in cases]) for k in range(1, 5)),
            np.full(len(cases), 1e-9),
            1e-6,
            40,
        )
        whole = backends.baum_welch_batch_np(*args)
        monkeypatch.setattr(backends, "_BATCH_CELLS", 80)  # two sequences per batch
        split = backends.baum_welch_batch_np(*args)
        for a, b in zip(whole[:4], split[:4]):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(whole[4], split[4]):
            np.testing.assert_array_equal(a, b)


class TestEnvironmentSwitch:
    def test_disable_flag_selects_numpy(self):
        env = dict(os.environ, TRISCOPE_DISABLE_NUMBA="1")
        out = subprocess.run(
            [sys.executable, "-c", "from triscope import backends; print(backends.backend_name())"],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert out.stdout.strip() == "numpy"

    def test_default_reports_active_backend(self):
        assert backends.backend_name() in ("numba", "numpy")
        if backends.NUMBA_ENABLED:
            assert backends.forward_loglik is backends.forward_loglik_jit
        else:
            assert backends.forward_loglik is backends.forward_loglik_np

    def test_disabled_pipeline_smoke(self):
        """The numpy fallback drives the same public API."""
        env = dict(os.environ, TRISCOPE_DISABLE_NUMBA="1")
        code = (
            "import numpy as np\n"
            "from triscope import baum_welch, ward_cluster, backends\n"
            "assert backends.backend_name() == 'numpy'\n"
            "obs = np.concatenate([np.full(10, 2.0) + np.arange(10)*0.01, np.full(10, 50.0) - np.arange(10)*0.1])\n"
            "m = baum_welch(obs, seed=0)\n"
            "assert m.means[0] < m.means[1]\n"
            "d = ward_cluster(np.array([[0.0, 0], [0.1, 0], [5, 5], [5.1, 5]]))\n"
            "assert d.merges.shape == (3, 4)\n"
            "print('ok')\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        assert out.stdout.strip() == "ok"
