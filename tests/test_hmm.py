"""HMM routines pinned against exhaustive state-sequence enumeration."""

import itertools
import math

import numpy as np
import pytest

from triscope import (
    HmmModel,
    InvalidInputError,
    backends,
    baum_welch,
    baum_welch_many,
    extract_features,
    forward_log_likelihood,
    viterbi,
)


def gauss_pdf(x, mean, var):
    return math.exp(-0.5 * (x - mean) ** 2 / var) / math.sqrt(2.0 * math.pi * var)


def gauss_log_pdf(x, mean, var):
    return -0.5 * ((x - mean) ** 2 / var + math.log(2.0 * math.pi * var))


def enumerate_likelihood(model, obs):
    """Sum of path probabilities over every state sequence."""
    n = model.n_states
    total = 0.0
    for path in itertools.product(range(n), repeat=len(obs)):
        p = model.init[path[0]] * gauss_pdf(obs[0], model.means[path[0]], model.variances[path[0]])
        for t in range(1, len(obs)):
            p *= model.trans[path[t - 1], path[t]]
            p *= gauss_pdf(obs[t], model.means[path[t]], model.variances[path[t]])
        total += p
    return total


def path_log_prob(model, obs, path):
    lp = math.log(model.init[path[0]]) if model.init[path[0]] > 0 else -math.inf
    lp += gauss_log_pdf(obs[0], model.means[path[0]], model.variances[path[0]])
    for t in range(1, len(obs)):
        a = model.trans[path[t - 1], path[t]]
        lp += math.log(a) if a > 0 else -math.inf
        lp += gauss_log_pdf(obs[t], model.means[path[t]], model.variances[path[t]])
    return lp


def best_path_log_prob(model, obs):
    return max(
        path_log_prob(model, obs, path)
        for path in itertools.product(range(model.n_states), repeat=len(obs))
    )


def random_model(rng):
    trans = rng.uniform(0.05, 1.0, size=(2, 2))
    trans /= trans.sum(axis=1, keepdims=True)
    init = rng.uniform(0.05, 1.0, size=2)
    init /= init.sum()
    means = rng.uniform(-2.0, 2.0, size=2)
    variances = rng.uniform(0.25, 4.0, size=2)
    return HmmModel(trans, init, means, variances)


class TestForward:
    def test_single_step_identical_states(self):
        m = HmmModel(
            trans=[[0.3, 0.7], [0.6, 0.4]],
            init=[0.5, 0.5],
            means=[1.5, 1.5],
            variances=[2.0, 2.0],
        )
        obs = np.array([0.7])
        expected = math.log(gauss_pdf(0.7, 1.5, 2.0))
        np.testing.assert_allclose(forward_log_likelihood(m, obs), expected, atol=1e-12)

    def test_matches_enumeration_small(self):
        rng = np.random.default_rng(0)
        m = random_model(rng)
        obs = rng.normal(size=3)
        got = math.exp(forward_log_likelihood(m, obs))
        np.testing.assert_allclose(got, enumerate_likelihood(m, obs), atol=1e-10)

    def test_matches_enumeration_sweep(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            m = random_model(rng)
            t = int(rng.integers(1, 9))
            obs = m.means[rng.integers(0, 2, size=t)] + rng.normal(scale=0.5, size=t)
            got = math.exp(forward_log_likelihood(m, obs))
            np.testing.assert_allclose(got, enumerate_likelihood(m, obs), atol=1e-10)

    def test_deterministic_single_state_chain(self):
        m = HmmModel(
            trans=[[1.0, 0.0], [0.0, 1.0]],
            init=[1.0, 0.0],
            means=[0.5, 9.0],
            variances=[1.2, 1.0],
        )
        obs = np.array([0.1, 0.9, 0.4])
        expected = sum(math.log(gauss_pdf(o, 0.5, 1.2)) for o in obs)
        np.testing.assert_allclose(forward_log_likelihood(m, obs), expected, atol=1e-12)

    def test_empty_rejected(self):
        m = random_model(np.random.default_rng(2))
        with pytest.raises(InvalidInputError):
            forward_log_likelihood(m, [])


class TestViterbi:
    def test_single_reachable_state(self):
        m = HmmModel(
            trans=[[1.0, 0.0], [0.0, 1.0]],
            init=[1.0, 0.0],
            means=[0.0, 5.0],
            variances=[1.0, 1.0],
        )
        path = viterbi(m, np.array([4.9, 5.1, 5.0]))
        assert path.tolist() == [0, 0, 0]

    def test_matches_exhaustive_max(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            m = random_model(rng)
            t = int(rng.integers(1, 9))
            obs = m.means[rng.integers(0, 2, size=t)] + rng.normal(scale=0.5, size=t)
            path = viterbi(m, obs)
            np.testing.assert_allclose(
                path_log_prob(m, obs, tuple(path)), best_path_log_prob(m, obs), atol=1e-12
            )

    def test_alternating_observations(self):
        m = HmmModel(
            trans=[[0.5, 0.5], [0.5, 0.5]],
            init=[0.5, 0.5],
            means=[0.0, 100.0],
            variances=[1.0, 1.0],
        )
        obs = np.array([0.1, 99.8, -0.2, 100.3, 0.0])
        path = viterbi(m, obs)
        assert path.tolist() == [0, 1, 0, 1, 0]
        np.testing.assert_allclose(
            path_log_prob(m, obs, tuple(path)), best_path_log_prob(m, obs), atol=1e-12
        )

    def test_tie_breaks_to_lower_state(self):
        """Fully symmetric model: every path has equal probability."""
        m = HmmModel(
            trans=[[0.5, 0.5], [0.5, 0.5]],
            init=[0.5, 0.5],
            means=[1.0, 1.0],
            variances=[1.0, 1.0],
        )
        path = viterbi(m, np.array([1.0, 1.0, 1.0, 1.0]))
        assert path.tolist() == [0, 0, 0, 0]

    def test_path_probability_bounded_by_likelihood(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            m = random_model(rng)
            obs = rng.normal(size=int(rng.integers(2, 12)))
            path = viterbi(m, obs)
            assert path_log_prob(m, obs, tuple(path)) <= forward_log_likelihood(m, obs) + 1e-12


class TestBaumWelch:
    def test_planted_model_recovery(self):
        rng = np.random.default_rng(5)
        hot = rng.random(500) < 0.5
        obs = np.where(hot, rng.normal(100.0, 20.0, 500), rng.normal(1.0, 0.2, 500))
        m = baum_welch(obs, seed=0)
        assert abs(m.means[0] - 1.0) / 1.0 < 0.10
        assert abs(m.means[1] - 100.0) / 100.0 < 0.10
        feats = extract_features(m)
        assert abs(feats[2] - 1.0) < 0.10
        assert abs(feats[3] - 100.0) / 100.0 < 0.10

    def test_constant_sequence_collapses(self):
        m = baum_welch(np.full(20, 7.5), seed=1)
        assert m.degenerate
        np.testing.assert_allclose(m.means, [7.5, 7.5])
        assert m.variances[0] == m.variances[1] > 0

    def test_loglik_monotone(self):
        rng = np.random.default_rng(6)
        for seed in range(5):
            obs = np.concatenate(
                [rng.exponential(10.0, size=100), rng.exponential(300.0, size=100)]
            )
            rng.shuffle(obs)
            m = baum_welch(obs, seed=seed)
            assert len(m.loglik_history) >= 2
            assert np.all(np.diff(m.loglik_history) >= -1e-9)

    def test_returned_model_is_valid_and_canonical(self):
        rng = np.random.default_rng(7)
        obs = rng.exponential(50.0, size=80)
        m = baum_welch(obs, seed=2)
        np.testing.assert_allclose(m.trans.sum(axis=1), [1.0, 1.0], atol=1e-9)
        np.testing.assert_allclose(m.init.sum(), 1.0, atol=1e-9)
        assert m.is_canonical
        assert np.all(m.variances > 0)

    def test_too_short_sequence_rejected(self):
        with pytest.raises(InvalidInputError):
            baum_welch(np.array([1.0, 2.0, 3.0]), n_states=2)

    def test_fit_independent_of_batch_companions(self):
        """A sequence fitted in one batch with longer and shorter companions
        gets the parameters and history of its fit alone, bit for bit. Both
        targets span several chunks of the blocked scan, and so do their
        batch-mates, each with its own chunk count."""
        rng = np.random.default_rng(10)

        def series(t, scale):
            obs = np.concatenate(
                [rng.exponential(scale, t // 2), rng.exponential(40.0 * scale, t - t // 2)]
            )
            rng.shuffle(obs)
            return obs

        seqs = [series(1000, 2.0), series(300, 5.0), series(150, 3.0), series(140, 1.0),
                series(120, 8.0), np.full(50, 4.0), series(40, 6.0), series(6, 1.0),
                series(400, 2.0), series(260, 3.0), series(230, 4.0), series(201, 7.0),
                series(backends._PLAIN_STEPS, 2.0), series(backends._PLAIN_STEPS + 10, 3.0)]
        seeds = list(range(1, len(seqs) + 1))
        batch = baum_welch_many(seqs, seeds=seeds)
        # companions stop at different iterations, so sequences leave the batch
        assert len({len(m.loglik_history) for m in batch}) > 2
        for k in (2, 10):
            assert len(seqs[k]) > backends._PLAIN_STEPS
            alone = baum_welch(seqs[k], seed=seeds[k])
            for name in ("trans", "init", "means", "variances", "loglik_history"):
                np.testing.assert_array_equal(getattr(batch[k], name), getattr(alone, name))
        for obs, seed, m in zip(seqs, seeds, batch):
            solo = baum_welch(obs, seed=seed)
            np.testing.assert_array_equal(m.loglik_history, solo.loglik_history)
            np.testing.assert_array_equal(m.means, solo.means)

    def test_converged_flag_marks_fits_stopped_at_max_iter(self):
        rng = np.random.default_rng(11)
        obs = np.concatenate([rng.exponential(5.0, 60), rng.exponential(300.0, 60)])
        rng.shuffle(obs)
        cut = baum_welch(obs, seed=1, max_iter=2)
        assert len(cut.loglik_history) == 3
        assert not cut.converged
        full = baum_welch(obs, seed=1)
        assert len(full.loglik_history) <= 200
        assert full.converged
        assert baum_welch(np.full(20, 7.5)).converged

    def test_many_rejects_seed_count_mismatch(self):
        with pytest.raises(InvalidInputError):
            baum_welch_many([np.arange(8.0), np.arange(9.0)], seeds=[1])

    def test_seed_determinism(self):
        rng = np.random.default_rng(8)
        obs = rng.exponential(5.0, size=60)
        a = baum_welch(obs, seed=11)
        b = baum_welch(obs, seed=11)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.trans, b.trans)


class TestExtractFeatures:
    def test_identity_example(self):
        m = HmmModel(
            trans=[[1.0, 0.0], [0.0, 1.0]],
            init=[0.5, 0.5],
            means=[0.0, 1.0],
            variances=[1.0, 1.0],
        )
        np.testing.assert_allclose(extract_features(m), [1.0, 1.0, 0.0, 1.0, 1.0, 1.0])

    def test_invariant_under_state_swap(self):
        m = HmmModel(
            trans=[[0.8, 0.2], [0.4, 0.6]],
            init=[0.3, 0.7],
            means=[5.0, 1.0],
            variances=[4.0, 0.25],
        )
        swapped = HmmModel(
            trans=[[0.6, 0.4], [0.2, 0.8]],
            init=[0.7, 0.3],
            means=[1.0, 5.0],
            variances=[0.25, 4.0],
        )
        np.testing.assert_allclose(extract_features(m), extract_features(swapped))

    def test_wrong_state_count(self):
        m = HmmModel(trans=[[1.0]], init=[1.0], means=[0.0], variances=[1.0])
        with pytest.raises(InvalidInputError):
            extract_features(m)


class TestModelValidation:
    def test_bad_row_sum(self):
        with pytest.raises(InvalidInputError):
            HmmModel(trans=[[0.5, 0.4], [0.5, 0.5]], init=[0.5, 0.5], means=[0, 1], variances=[1, 1])

    def test_bad_init_sum(self):
        with pytest.raises(InvalidInputError):
            HmmModel(trans=[[0.5, 0.5], [0.5, 0.5]], init=[0.9, 0.3], means=[0, 1], variances=[1, 1])

    def test_nonpositive_variance(self):
        with pytest.raises(InvalidInputError):
            HmmModel(trans=[[0.5, 0.5], [0.5, 0.5]], init=[0.5, 0.5], means=[0, 1], variances=[1, 0])

    def test_negative_probability(self):
        with pytest.raises(InvalidInputError):
            HmmModel(trans=[[1.1, -0.1], [0.5, 0.5]], init=[0.5, 0.5], means=[0, 1], variances=[1, 1])

    def test_inputs_stay_writable_and_fields_frozen(self):
        trans, init = np.full((2, 2), 0.5), np.full(2, 0.5)
        means, variances = np.array([0.0, 1.0]), np.array([1.0, 2.0])
        m = HmmModel(trans, init, means, variances)
        for arr in (trans, init, means, variances):
            assert arr.flags.writeable
        for arr in (m.trans, m.init, m.means, m.variances):
            assert not arr.flags.writeable
        means[0] = -1.0  # the caller still owns its array
