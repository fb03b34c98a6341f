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


def three_state_case(rng, t):
    """Three states, so that each sum over states takes more than one
    addition and the order in which the engine adds shows in its bits."""
    means = np.array([5.0, 60.0, 700.0])
    obs = rng.exponential(rng.choice(means, t))
    trans = rng.uniform(0.1, 1.0, size=(3, 3))
    trans /= trans.sum(axis=1, keepdims=True)
    init = rng.uniform(0.1, 1.0, size=3)
    init /= init.sum()
    return obs, trans, init, means, means * means


def absorbing_case(rng, t):
    """Near-absorbing start (off-diagonal 1e-19) on alternating, well
    separated observations: every likely path switches state at each step,
    so unnormalized chunk products underflow."""
    obs = np.where(np.arange(t) % 2 == 1, 200.0, 5.0) + rng.normal(0.0, 1.0, t)
    trans = np.array([[1.0 - 1e-19, 1e-19], [1e-19, 1.0 - 1e-19]])
    return obs, trans, np.array([0.5, 0.5]), np.array([5.0, 200.0]), np.array([1.0, 1.0])


def _squarem_loop(p0, p1, p2, var_floor):
    """The SqS3 point of three successive EM points ``(trans, init, means,
    variances)`` as a scalar loop over the coordinates, and whether it is
    usable: the engine's ``_squarem`` for one sequence."""
    n = p0[1].shape[0]
    scale = np.sqrt(sum(p0[3]) / n)

    def coords(p):
        trans, init, means, variances = p
        return ([trans[i, j] for i in range(n) for j in range(n)] + list(init)
                + [m / scale for m in means] + [np.log(v) for v in variances])

    with np.errstate(all="ignore"):
        u0, u1, u2 = coords(p0), coords(p1), coords(p2)
        r = [b - a for a, b in zip(u0, u1)]
        v = [(c - 2.0 * b) + a for a, b, c in zip(u0, u1, u2)]
        rr = vv = np.float64(0.0)
        for x, y in zip(r, v):
            rr += x * x
            vv += y * y
        alpha = min(-np.sqrt(rr) / np.sqrt(vv), -1.0)
        u = [(a - 2.0 * alpha * x) + alpha * alpha * y for a, x, y in zip(u0, r, v)]
        k = n * n + n
        point = (np.array(u[: n * n]).reshape(n, n), np.array(u[n * n : k]),
                 np.array(u[k : k + n]) * scale, np.exp(np.array(u[k + n :])))
        slop = backends._SLOP
        ok = (all(np.isfinite(x).all() for x in point) and (point[0] >= -slop).all()
              and (point[1] >= -slop).all() and (point[3] >= var_floor * (1.0 - slop)).all())
    return (np.maximum(point[0], 0.0), np.maximum(point[1], 0.0), point[2],
            np.maximum(point[3], var_floor)), ok


def _baum_welch_loop(obs, trans, init, means, variances, var_floor, tol, max_iter):
    """Baum-Welch on one sequence as scalar loops over time and states, with
    the engine's cycle of three rounds (see ``backends._em``): the round
    after an M-step from θ0 and one from θ1 evaluates the extrapolated
    point of a sequence of more than one chunk (see :func:`_squarem_loop`),
    kept if it is no worse than θ1, else the fit goes on from θ2. The
    reference the batched engine is checked against: returns the engine's
    parameters, history, whether the fit stopped before ``max_iter`` M-steps
    and its counts of M-steps and of extrapolations accepted, rejected and
    fallen back."""
    T = obs.shape[0]
    n = init.shape[0]
    trans = trans.copy()
    init = init.copy()
    means = means.copy()
    variances = variances.copy()
    hist = []
    counts = np.zeros(4, dtype=np.int64)
    trial = False  # evaluating an extrapolated point
    saved = []  # this cycle's points θ0 and θ1, then θ2

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

        keep = not trial or ll >= hist[-1]
        if trial:
            counts[1 if keep else 2] += 1
        if keep:
            hist.append(ll)
        if it == max_iter or (len(hist) > 1 and not trial and (hist[-1] - hist[-2]) < tol):
            break
        counts[0] += 1
        if it % 3 < 2:
            saved.append((trans.copy(), init.copy(), means.copy(), variances.copy()))

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

        if it % 3 == 2:
            if not keep:
                trans, init, means, variances = saved[0]
            saved = []
        trial = False
        if it % 3 == 1:
            point, ok = _squarem_loop(*saved, (trans, init, means, variances), var_floor)
            trial = T > backends._CHUNK and ok and it + 1 < max_iter
            counts[3] += T > backends._CHUNK and not trial
            saved = [(trans.copy(), init.copy(), means.copy(), variances.copy())]
            if trial:
                trans, init, means, variances = (x.copy() for x in point)

    return trans, init, means, variances, np.array(hist), counts[0] < max_iter, counts


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
        starts are nearly absorbing. A second batch has three states. No
        step, padding included, divides 0 by 0."""
        rng = np.random.default_rng(4)
        size = backends._CHUNK
        m = 5
        cases = [random_case(rng, t) for t in (8, 60, 25, 90, 16, 17, 33, 4 * size)]
        cases += [slow_case(rng, t) for t in (1000, size * m - 1, size * m, size * m + 1)]
        cases += [absorbing_case(rng, t) for t in (300, size * m + 1)]
        three = [three_state_case(rng, t) for t in (12, 16, 17, 90, size * m + 1, 600)]
        for batch in (cases, three):
            with np.errstate(divide="raise", invalid="raise"):
                out = backends.baum_welch_batch(*batch_args(batch, 40))
            for k, (obs, trans, init, means, var) in enumerate(batch):
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
        st.sampled_from([random_case, three_state_case]),
    )
    @example([15, 16, 17], 40, 0, random_case)
    @example([5, 20, 12, 17, 8], 40, 1, random_case)
    @example([16], 40, 2, random_case)
    @example([15, 16, 17, 300, 40, 90], 40, 3, three_state_case)
    def test_fit_independent_of_batch(self, lengths, max_iter, seed, case):
        """Each fit of a batch equals the fit of its sequence alone, bit for
        bit: the arithmetic of a sequence depends only on its own length,
        never on the chunk counts or the number of its companions. With
        three states, each sum over states adds more than two terms."""
        rng = np.random.default_rng(seed)
        cases = [case(rng, t) for t in lengths]
        out = backends.baum_welch_batch(*batch_args(cases, max_iter))
        for k, case in enumerate(cases):
            alone = backends.baum_welch_batch(*batch_args([case], max_iter))
            assert_same_fits([p[k : k + 1] for p in out], alone)


# lengths 4-300, with one chunk exactly full (16) and one step past it (17)
LENGTHS = st.lists(st.one_of(st.integers(4, 300), st.sampled_from([16, 17])), min_size=1, max_size=12)
CASES = {"random": random_case, "slow": slow_case}


class TestExtrapolation:
    """Properties of the engine's extrapolation cycle (see ``backends._em``)
    on batches of quickly and slowly converging fits."""

    @settings(max_examples=30, deadline=None)
    @given(LENGTHS, st.sampled_from(sorted(CASES)), st.integers(1, 60), st.integers(0, 2**32 - 1))
    @example([16, 17, 300], "slow", 60, 0)
    def test_single_chunk_fits_never_extrapolate(self, lengths, kind, max_iter, seed):
        """A fit of at most 16 steps counts no extrapolation, accepted,
        rejected or fallen back, and its history has the length and the
        values of the scalar loop's plain EM."""
        rng = np.random.default_rng(seed)
        cases = [CASES[kind](rng, t) for t in lengths]
        out = backends.baum_welch_batch(*batch_args(cases, max_iter))
        for k, (obs, trans, init, means, var) in enumerate(cases):
            if obs.size > backends._CHUNK:
                continue
            ref = _baum_welch_loop(obs, trans, init, means, var, 1e-9, 1e-6, max_iter)
            assert out[6][k, 1:].tolist() == ref[6][1:].tolist() == [0, 0, 0]
            assert len(out[4][k]) == len(ref[4]) == out[6][k, 0] + 1
            np.testing.assert_allclose(out[4][k], ref[4], rtol=1e-8, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(LENGTHS, st.sampled_from(sorted(CASES)), st.integers(1, 200), st.integers(0, 2**32 - 1))
    def test_histories_never_decrease(self, lengths, kind, max_iter, seed):
        """Each history holds accepted evaluations only, so it never drops
        by more than rounding, extrapolations or not."""
        rng = np.random.default_rng(seed)
        out = backends.baum_welch_batch(*batch_args([CASES[kind](rng, t) for t in lengths], max_iter))
        for h in out[4]:
            assert np.all(np.diff(h) >= -1e-12 * np.abs(h[1:]))

    @settings(max_examples=30, deadline=None)
    @given(LENGTHS, st.integers(1, 30), st.integers(0, 2**32 - 1))
    @example([300, 17, 16], 3, 0)
    def test_fits_cut_by_max_iter(self, lengths, max_iter, seed):
        """A fit that the scalar loop cuts at ``max_iter`` has done exactly
        ``max_iter`` M-steps and is not converged; every other fit has done
        fewer and converged. A history holds one entry per round, that is
        per M-step plus the last evaluation, less the rejected
        extrapolations, and ends on the returned parameters, which no
        extrapolation in the last round moved."""
        rng = np.random.default_rng(seed)
        cases = [slow_case(rng, t) for t in lengths]
        out = backends.baum_welch_batch(*batch_args(cases, max_iter))
        for k, (obs, trans, init, means, var) in enumerate(cases):
            ref = _baum_welch_loop(obs, trans, init, means, var, 1e-9, 1e-6, max_iter)
            steps, _, rejected, _ = out[6][k]
            assert out[5][k] == ref[5] == (steps < max_iter)
            assert steps == ref[6][0] <= max_iter
            assert len(out[4][k]) == steps + 1 - rejected == len(ref[4])
            np.testing.assert_allclose(out[4][k], ref[4], rtol=1e-8, atol=1e-12)
            last = backends.forward_loglik(obs, *(p[k] for p in out[:4]))
            np.testing.assert_allclose(out[4][k][-1], last, rtol=1e-8, atol=1e-12)
