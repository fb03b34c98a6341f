"""The batched Baum-Welch engine against a scalar loop reference, and bit
for bit against itself: a fit does not depend on its batch companions or on
how the batches are cut."""

import math
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from triscope import backends

_LOG_2PI = math.log(2.0 * math.pi)


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


def _baum_welch_loop(obs, trans, init, means, variances, var_floor, tol, max_iter):
    """Baum-Welch on one sequence as scalar loops over time and states: the
    reference the batched engine is checked against."""
    T = obs.shape[0]
    n = init.shape[0]
    trans = trans.copy()
    init = init.copy()
    means = means.copy()
    variances = variances.copy()
    hist = np.empty(max_iter + 1)
    n_hist = 0

    b = np.empty((T, n))
    shifts = np.empty(T)
    alpha = np.empty((T, n))
    beta = np.empty((T, n))
    gamma = np.empty((T, n))
    xi_sum = np.empty((n, n))

    for it in range(max_iter + 1):
        for t in range(T):
            shift = -np.inf
            for i in range(n):
                d = obs[t] - means[i]
                v = -0.5 * (_LOG_2PI + math.log(variances[i]) + d * d / variances[i])
                b[t, i] = v
                if v > shift:
                    shift = v
            shifts[t] = shift
            for i in range(n):
                b[t, i] = math.exp(b[t, i] - shift)

        ll = 0.0
        s = 0.0
        for i in range(n):
            alpha[0, i] = init[i] * b[0, i]
            s += alpha[0, i]
        for i in range(n):
            alpha[0, i] /= s
        ll += math.log(s) + shifts[0]
        for t in range(1, T):
            s = 0.0
            for i in range(n):
                acc = 0.0
                for j in range(n):
                    acc += alpha[t - 1, j] * trans[j, i]
                alpha[t, i] = acc * b[t, i]
                s += alpha[t, i]
            for i in range(n):
                alpha[t, i] /= s
            ll += math.log(s) + shifts[t]

        hist[n_hist] = ll
        n_hist += 1
        if n_hist > 1 and (ll - hist[n_hist - 2]) < tol:
            break
        if it == max_iter:
            break

        for i in range(n):
            beta[T - 1, i] = 1.0 / n
        for t in range(T - 2, -1, -1):
            s = 0.0
            for i in range(n):
                acc = 0.0
                for j in range(n):
                    acc += trans[i, j] * b[t + 1, j] * beta[t + 1, j]
                beta[t, i] = acc
                s += acc
            for i in range(n):
                beta[t, i] /= s

        for t in range(T):
            s = 0.0
            for i in range(n):
                gamma[t, i] = alpha[t, i] * beta[t, i]
                s += gamma[t, i]
            for i in range(n):
                gamma[t, i] /= s

        for i in range(n):
            for j in range(n):
                xi_sum[i, j] = 0.0
        for t in range(T - 1):
            s = 0.0
            for i in range(n):
                for j in range(n):
                    s += alpha[t, i] * trans[i, j] * b[t + 1, j] * beta[t + 1, j]
            for i in range(n):
                for j in range(n):
                    xi_sum[i, j] += alpha[t, i] * trans[i, j] * b[t + 1, j] * beta[t + 1, j] / s

        for i in range(n):
            init[i] = gamma[0, i]
        for i in range(n):
            denom = 0.0
            for t in range(T - 1):
                denom += gamma[t, i]
            rs = 0.0
            for j in range(n):
                rs += xi_sum[i, j]
            if denom > 0.0 and rs > 0.0:
                for j in range(n):
                    trans[i, j] = xi_sum[i, j] / rs
        for i in range(n):
            denom = 0.0
            num = 0.0
            for t in range(T):
                denom += gamma[t, i]
                num += gamma[t, i] * obs[t]
            if denom > 0.0:
                mu = num / denom
                acc = 0.0
                for t in range(T):
                    d = obs[t] - mu
                    acc += gamma[t, i] * d * d
                var = acc / denom
                means[i] = mu
                variances[i] = var if var > var_floor else var_floor

    return trans, init, means, variances, hist[:n_hist].copy()


def batch_args(cases, max_iter):
    return (
        [c[0] for c in cases],
        *(np.array([c[k] for c in cases]) for k in range(1, 5)),
        np.full(len(cases), 1e-9),
        1e-6,
        max_iter,
    )


def assert_same_fits(got, want):
    for a, b in zip(got[:4], want[:4]):
        np.testing.assert_array_equal(a, b)
    assert len(got[4]) == len(want[4])
    for a, b in zip(got[4], want[4]):
        np.testing.assert_array_equal(a, b)


# one step either side of each of the first five chunk ends
EDGE_LENGTHS = [c * 16 + d for c in range(1, 6) for d in (-1, 0, 1)]


class TestBatchedEngine:
    def test_matches_loop_reference(self):
        """The batched engine on sequences of mixed lengths against the
        scalar loop reference. The lengths cover one chunk, full (16) and
        partial, the first chunk ends (17, 33, 64), the blocked scan up to
        T = 1000, and one step either side of the fifth chunk's end; two
        starts are nearly absorbing. No step, padding included, divides 0
        by 0."""
        rng = np.random.default_rng(4)
        size = backends._CHUNK
        m = 5
        cases = [random_case(rng, t) for t in (8, 60, 25, 90, 16, 17, 33, 4 * size)]
        cases += [slow_case(rng, t) for t in (1000, size * m - 1, size * m, size * m + 1)]
        cases += [absorbing_case(rng, t) for t in (300, size * m + 1)]
        with np.errstate(divide="raise", invalid="raise"):
            out = backends.baum_welch_batch(*batch_args(cases, 40))
        for k, (obs, trans, init, means, var) in enumerate(cases):
            ref = _baum_welch_loop(obs, trans, init, means, var, 1e-9, 1e-6, 40)
            got = [p[k] for p in out]
            assert len(got[4]) == len(ref[4])
            for a, b in zip(got, ref):
                np.testing.assert_allclose(a, b, rtol=1e-8, atol=1e-12)

    def test_batch_size_cap_splits_without_changing_results(self, monkeypatch):
        """A cap of 200 chunk cells cuts the sequences, longest first, into
        four batches: [150], [100, 70], [66, 40, 38] and [36, 33, 30], so
        sequences of 2 to 10 chunks are split, and three batches mix chunk
        counts."""
        rng = np.random.default_rng(5)
        cases = [random_case(rng, t) for t in (40, 150, 38, 36, 66, 30, 100, 33, 70)]
        args = batch_args(cases, 40)
        whole = backends.baum_welch_batch(*args)
        batches = []
        em = backends._em
        monkeypatch.setattr(backends, "_em",
                            lambda seqs, *a: batches.append(len(seqs)) or em(seqs, *a))
        monkeypatch.setattr(backends, "_BATCH_CELLS", 200)
        split = backends.baum_welch_batch(*args)
        assert batches == [1, 2, 3, 3]
        assert_same_fits(split, whole)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.one_of(st.integers(4, 300), st.sampled_from(EDGE_LENGTHS)),
                 min_size=1, max_size=39),
        st.sampled_from([None, 990, 1000, 1009]),
        st.integers(1, 40),
        st.integers(0, 2**32 - 1),
    )
    def test_random_batches_match_loop_reference(self, lengths, long, max_iter, seed):
        """Batches of 1-40 sequences, with at most 40 EM iterations so that
        members leave at different iterations: every fit matches the scalar
        loop reference, with a history of the same length, and the batch
        split into batches of at most 1,024 chunk cells gives the same
        five outputs bit for bit."""
        rng = np.random.default_rng(seed)
        cases = [random_case(rng, t) for t in lengths + ([long] if long else [])]
        args = batch_args(cases, max_iter)
        out = backends.baum_welch_batch(*args)
        for k, (obs, trans, init, means, var) in enumerate(cases):
            ref = _baum_welch_loop(obs, trans, init, means, var, 1e-9, 1e-6, max_iter)
            got = [p[k] for p in out]
            assert len(got[4]) == len(ref[4])
            for a, b in zip(got, ref):
                np.testing.assert_allclose(a, b, rtol=1e-8, atol=1e-12)
        with mock.patch.object(backends, "_BATCH_CELLS", 1024):
            assert_same_fits(backends.baum_welch_batch(*args), out)

    @settings(max_examples=40, deadline=None)
    @given(
        st.one_of(
            st.lists(st.one_of(st.integers(4, 300), st.sampled_from([15, 16, 17])),
                     min_size=1, max_size=40),
            # short sequences only, like the hour fits
            st.lists(st.integers(4, 20), min_size=1, max_size=40),
            # one sequence of one chunk: a layout one column wide
            st.lists(st.integers(4, 16), min_size=1, max_size=1),
        ),
        st.integers(1, 40),
        st.integers(0, 2**32 - 1),
    )
    @example([15, 16, 17], 40, 0)
    @example([5, 20, 12, 17, 8], 40, 1)
    @example([16], 40, 2)
    def test_fit_independent_of_batch(self, lengths, max_iter, seed):
        """Each fit of a batch equals the fit of its sequence alone, bit for
        bit: the arithmetic of a sequence depends only on its own length,
        never on the chunk counts or the number of its companions."""
        rng = np.random.default_rng(seed)
        cases = [random_case(rng, t) for t in lengths]
        out = backends.baum_welch_batch(*batch_args(cases, max_iter))
        for k, case in enumerate(cases):
            alone = backends.baum_welch_batch(*batch_args([case], max_iter))
            assert_same_fits([p[k : k + 1] for p in out], alone)
