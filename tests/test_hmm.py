"""HMM routines pinned against exhaustive state-sequence enumeration."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triscope import (
    HmmFits,
    HmmModel,
    InvalidInputError,
    backends,
    baum_welch,
    baum_welch_many,
    extract_features,
    forward_log_likelihood,
    viterbi,
)
from triscope.hmm import VAR_FLOOR_SCALE, _start


def gauss_pdf(x, mean, var):
    return math.exp(-0.5 * (x - mean) ** 2 / var) / math.sqrt(2.0 * math.pi * var)


def gauss_log_pdf(x, mean, var):
    return -0.5 * ((x - mean) ** 2 / var + math.log(2.0 * math.pi * var))


def enumerate_likelihood(model, obs):
    """Sum of path probabilities over every state sequence."""
    n = model.init.size
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
        for path in itertools.product(range(model.init.size), repeat=len(obs))
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
        m = baum_welch(obs)
        assert abs(m.means[0] - 1.0) / 1.0 < 0.10
        assert abs(m.means[1] - 100.0) / 100.0 < 0.10
        feats = extract_features(m)
        assert abs(feats[2] - 1.0) < 0.10
        assert abs(feats[3] - 100.0) / 100.0 < 0.10

    def test_constant_sequence_collapses(self):
        m = baum_welch(np.full(20, 7.5))
        assert m.degenerate
        np.testing.assert_allclose(m.means, [7.5, 7.5])
        assert m.variances[0] == m.variances[1] > 0

    def test_loglik_monotone(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            obs = np.concatenate(
                [rng.exponential(10.0, size=100), rng.exponential(300.0, size=100)]
            )
            rng.shuffle(obs)
            m = baum_welch(obs)
            assert len(m.loglik_history) >= 2
            assert np.all(np.diff(m.loglik_history) >= -1e-9)

    def test_returned_model_is_valid_and_canonical(self):
        rng = np.random.default_rng(7)
        obs = rng.exponential(50.0, size=80)
        m = baum_welch(obs)
        np.testing.assert_allclose(m.trans.sum(axis=1), [1.0, 1.0], atol=1e-9)
        np.testing.assert_allclose(m.init.sum(), 1.0, atol=1e-9)
        assert m.means[0] <= m.means[1]
        assert np.all(m.variances > 0)

    def test_too_short_sequence_rejected(self):
        with pytest.raises(InvalidInputError):
            baum_welch(np.array([1.0, 2.0, 3.0]))

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
        batch = baum_welch_many(seqs)
        # companions stop at different iterations, so sequences leave the batch
        assert len({len(m.loglik_history) for m in batch}) > 2
        for k in (2, 10):
            assert len(seqs[k]) > backends._PLAIN_STEPS
            alone = baum_welch(seqs[k])
            for name in ("trans", "init", "means", "variances", "loglik_history"):
                np.testing.assert_array_equal(getattr(batch[k], name), getattr(alone, name))
        for obs, m in zip(seqs, batch):
            solo = baum_welch(obs)
            np.testing.assert_array_equal(m.loglik_history, solo.loglik_history)
            np.testing.assert_array_equal(m.means, solo.means)

    def test_converged_flag_marks_fits_stopped_at_max_iter(self):
        rng = np.random.default_rng(11)
        obs = np.concatenate([rng.exponential(5.0, 60), rng.exponential(300.0, 60)])
        rng.shuffle(obs)
        cut = baum_welch(obs, max_iter=2)
        assert len(cut.loglik_history) == 3
        assert not cut.converged
        full = baum_welch(obs)
        assert len(full.loglik_history) <= 200
        assert full.converged
        assert baum_welch(np.full(20, 7.5)).converged

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(["pareto", "lognormal", "outliers", "cauchy2"]),
        st.floats(0.0, 1.0),
        st.integers(6, 300),
        st.integers(0, 2**32 - 1),
    )
    def test_heavy_tailed_fit_stays_finite_and_monotone(self, kind, shape, n, seed):
        """Pareto tails down to shape 0.3, log-normal up to sigma 8, rare
        1e9 outliers and squared Cauchy draws: the fit stays finite and
        its log-likelihood never drops."""
        rng = np.random.default_rng(seed)
        if kind == "pareto":
            obs = rng.pareto(0.3 + 2.7 * shape, n)
        elif kind == "lognormal":
            obs = rng.lognormal(0.0, 0.1 + 7.9 * shape, n)
        elif kind == "outliers":
            obs = rng.exponential(60.0, n)
            obs[rng.random(n) < 0.05 * shape] = 1e9
        else:
            obs = rng.standard_cauchy(n) ** 2
        m = baum_welch(obs)
        for name in ("trans", "init", "means", "variances", "loglik_history"):
            assert np.all(np.isfinite(getattr(m, name))), name
        assert np.all(m.variances > 0)
        assert np.all(np.diff(m.loglik_history) >= -1e-9)

    def test_seed_determinism(self):
        """Fitting the same sequence twice gives the same model: the start
        has no random part."""
        rng = np.random.default_rng(8)
        obs = rng.exponential(5.0, size=60)
        a = baum_welch(obs)
        b = baum_welch(obs)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.trans, b.trans)

    def test_far_regimes_carry_the_relative_variance_floor(self):
        """Two constant regimes nine decades apart: each state's own spread
        is 0, so both variances sit exactly on the floor, VAR_FLOOR_SCALE
        times the variance of the whole sequence (2.5e11 here), and the SD
        features carry it (5e5)."""
        obs = np.array([1.0] * 10 + [1e9] * 10)
        m = baum_welch(obs)
        floor = VAR_FLOOR_SCALE * obs.var()
        assert np.array_equal(m.variances, [floor, floor])
        assert floor == pytest.approx(2.5e11)
        np.testing.assert_array_equal(extract_features(m)[4:], np.sqrt([floor, floor]))


def _initial_params(obs):
    """The start of one sequence, worked out alone: the oracle for the
    batched start-up. Returns (trans, init, means, variances, var_floor,
    constant). A constant sequence puts both states on the constant with
    the floor variance. Otherwise values up to the median go to state 0 and
    the rest to state 1, each state taking its bucket's mean and variance
    (the whole sequence's variance for a single value); an empty state 1
    takes the 0.75 quantile."""
    var_floor = VAR_FLOOR_SCALE * max(float(obs.var()), 1e-12)
    if np.all(obs == obs[0]):
        return (np.full((2, 2), 0.5), np.full(2, 0.5), np.full(2, float(obs[0])),
                np.full(2, var_floor), var_floor, True)
    edges = np.quantile(obs, [0.5])
    bucket = np.searchsorted(edges, obs, side="left")
    global_var = max(float(obs.var()), var_floor)
    means = np.empty(2)
    variances = np.empty(2)
    for k in range(2):
        sel = obs[bucket == k]
        means[k] = sel.mean() if sel.size else float(np.quantile(obs, (k + 0.5) / 2))
        variances[k] = max(float(sel.var()), var_floor) if sel.size > 1 else global_var
    return np.array([[0.9, 0.1], [0.1, 0.9]]), np.full(2, 0.5), means, variances, var_floor, False


def edge_case_series(kind, n, rng):
    """Heavy tails, ties at the median, or more than half the values at
    the maximum."""
    if kind == "pareto":
        return rng.pareto(0.3, n)
    if kind == "lognormal":
        return rng.lognormal(0.0, 6.0, n)
    if kind == "cauchy2":
        return rng.standard_cauchy(n) ** 2
    if kind == "small-int":
        return rng.integers(0, 4, n).astype(np.float64)
    obs = rng.exponential(60.0, n)
    obs[rng.random(n) < 0.6] = obs.max()
    return obs


class TestBatchedStart:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["pareto", "lognormal", "cauchy2", "small-int", "top-heavy", "constant"]),
                st.integers(4, 300),
            ),
            min_size=1,
            max_size=6,
        ),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_the_per_sequence_start(self, specs, seed):
        """The start-up of a batch gives each sequence the parameters its
        start alone gives, bit for bit."""
        rng = np.random.default_rng(seed)
        seqs = [np.full(n, 7.0) if kind == "constant" else edge_case_series(kind, n, rng)
                for kind, n in specs]
        got = _start(seqs, np.array([len(o) for o in seqs]))
        for k, obs in enumerate(seqs):
            for name, want, have in zip(("trans", "init", "means", "variances", "floor", "constant"),
                                        _initial_params(obs), got):
                np.testing.assert_array_equal(have[k], want, err_msg=f"{name} of sequence {k}")

    def test_even_length_median_is_read_as_np_quantile_reads_it(self):
        """The two middle values sum past the float range, so a midpoint
        taken as (a + b) / 2 would be inf and leave state 1 empty; the
        median b - (b - a) / 2 is 1e308 and state 1 holds both 1.7e308s,
        whose mean then overflows."""
        obs = np.array([0.0, 0.0, 0.0, 1e308, 1e308, 1e308, 1.7e308, 1.7e308])
        with np.errstate(over="ignore", invalid="ignore"):
            got = _start([obs], np.array([obs.size]))
            want = _initial_params(obs)
        assert want[2][1] == np.inf
        for have, value in zip(got, want):
            np.testing.assert_array_equal(have[0], value)

    def test_batch_members_equal_single_fits(self):
        """Every member of a batch, a constant sequence among them, is the
        single fit of its sequence, bit for bit."""
        rng = np.random.default_rng(12)
        seqs = [edge_case_series(kind, n, rng)
                for kind, n in (("pareto", 40), ("small-int", 9), ("top-heavy", 120), ("lognormal", 300))]
        seqs.insert(2, np.full(30, 2.5))
        fits = baum_welch_many(seqs)
        assert isinstance(fits, HmmFits) and len(fits) == len(seqs)
        assert fits.degenerate.tolist() == [False, False, True, False, False]
        for k, obs in enumerate(seqs):
            alone = baum_welch(obs)
            for name in ("trans", "init", "means", "variances", "loglik_history", "degenerate", "converged"):
                np.testing.assert_array_equal(getattr(fits[k], name), getattr(alone, name), err_msg=name)

    def test_features_match_extract_features_row_by_row(self):
        rng = np.random.default_rng(13)
        seqs = [edge_case_series(kind, n, rng)
                for kind, n in (("cauchy2", 50), ("small-int", 8), ("top-heavy", 64), ("pareto", 200))]
        seqs.append(np.full(6, 1.0))
        fits = baum_welch_many(seqs)
        feats = fits.features()
        assert feats.shape == (len(seqs), 6)
        for k in range(len(seqs)):
            np.testing.assert_array_equal(feats[k], extract_features(fits[k]))

    def test_empty_batch(self):
        fits = baum_welch_many([])
        assert len(fits) == 0
        assert fits.features().shape == (0, 6)


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

    def test_equal_means_order_states_by_variance(self):
        m = HmmModel(
            trans=[[0.8, 0.2], [0.4, 0.6]],
            init=[0.3, 0.7],
            means=[2.0, 2.0],
            variances=[4.0, 0.25],
        )
        np.testing.assert_array_equal(extract_features(m), [0.6, 0.8, 2.0, 2.0, 0.5, 2.0])

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
