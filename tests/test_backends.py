"""The batched Baum-Welch engine against a scalar loop reference and,
bit for bit, against the padded engine it replaced."""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
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
            if denom > 0.0:
                rs = 0.0
                for j in range(n):
                    rs += xi_sum[i, j]
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


# The padded engine that ``backends.baum_welch_batch`` ran before the ragged
# chunk layout, kept verbatim as the bit-for-bit oracle of the current one:
# sequences sorted by length go in padded length buckets, each fitted in its
# own EM loop with full-length cumulative sums.

# time steps x sequences per padded batch; bounds the engine's working set
_BATCH_CELLS = 1 << 21
# a sequence joins a length bucket while the bucket's longest member is at
# most this many times longer, so padding is under half of each batch
_BUCKET_SPAN = 2
# steps per chunk of the blocked forward-backward scan (see _chunk_starts)
_CHUNK = 16
# a sequence of at most this many steps runs the plain per-step recursion,
# one chunk of its own length: on wide batches, up to four chunks save no
# time, because the transfer products do more arithmetic per step
_PLAIN_STEPS = 4 * _CHUNK


def padded_baum_welch_batch(seqs, trans, init, means, variances, var_floor, tol, max_iter):
    """The padded engine's ``baum_welch_batch``: the same arguments and results."""
    trans = np.array(trans, dtype=np.float64)
    init = np.array(init, dtype=np.float64)
    means = np.array(means, dtype=np.float64)
    variances = np.array(variances, dtype=np.float64)
    var_floor = np.asarray(var_floor, dtype=np.float64)
    hists = [None] * len(seqs)
    lengths = np.array([s.shape[0] for s in seqs], dtype=np.int64)
    order = np.argsort(-lengths, kind="stable")
    start = 0
    while start < order.size:
        top = lengths[order[start]]
        stop = start + 1
        while (
            stop < order.size
            and (stop - start + 1) * top <= _BATCH_CELLS
            and lengths[order[stop]] * _BUCKET_SPAN >= top
            and (lengths[order[stop]] > _PLAIN_STEPS) == (top > _PLAIN_STEPS)
        ):
            stop += 1
        idx = order[start:stop]
        out = _baum_welch_padded(
            [seqs[k] for k in idx], trans[idx], init[idx], means[idx], variances[idx],
            var_floor[idx], tol, max_iter,
        )
        trans[idx], init[idx], means[idx], variances[idx] = out[:4]
        for k, h in zip(idx, out[4]):
            hists[k] = h
        start = stop
    return trans, init, means, variances, hists



def _chunk_starts(e, mat, first):
    """Levels 1-2 of the blocked scan: the vector entering each chunk.

    Arrays are chunk-major: column ``c * B + k`` of ``e`` (K, n, C*B) holds
    the emission factors of chunk ``c`` of sequence ``k``, and ``mat`` (n, n,
    C*B) the step matrix of its chunk's sequence. A scan maps its state
    vector ``y`` to ``normalize((y * e[t]) @ mat)`` at each step; ``first``
    (n, B) enters chunk 0 unchanged. Level 1 forms every chunk's transfer
    product at once in K steps, renormalized at each step because emission
    factors are at most 1 and unnormalized products underflow. Level 2
    carries the entering vector across the chunk ends in order. Returns
    (n, C*B).
    """
    K, n, width = e.shape
    B = first.shape[1]
    starts = np.empty((n, width))
    starts[:, :B] = first
    w = width - B  # the last chunk's product is never used
    if not w:
        return starts
    ec, mc = e[:, :, :w], mat[:, :, :w]
    prod = ec[0][:, None] * mc
    for k in range(1, K):
        pe = prod * ec[k]
        prod = pe[:, 0, None] * mc[0]
        for j in range(1, n):
            prod += pe[:, j, None] * mc[j]
        s = prod[0, 0]
        for i in range(n):
            for j in range(n):
                if i or j:
                    s = s + prod[i, j]
        prod /= s
    y = first
    for lo in range(0, w, B):
        v = y[0] * prod[0, :, lo : lo + B]
        for i in range(1, n):
            v += y[i] * prod[i, :, lo : lo + B]
        s = v[0]
        for j in range(1, n):
            s = s + v[j]
        y = starts[:, lo + B : lo + 2 * B] = v / s
    return starts


def _forward(b, trans, init):
    """Scaled forward pass on chunk-major emission factors ``b`` (K, n, C*B)
    with ``trans`` tiled to (n, n, C*B): level 3 runs the per-step
    recursion in all chunks at once from each chunk's entering prediction.
    Returns normalized ``alpha`` in the same layout and the per-step
    ``scale`` (K, C*B)."""
    K, n, width = b.shape
    alpha = np.empty_like(b)
    scale = np.empty((K, width))
    raw = _chunk_starts(b, trans, init) * b[0]
    for k in range(K):
        if k:
            raw = alpha[k - 1, 0] * trans[0]
            for j in range(1, n):
                raw += alpha[k - 1, j] * trans[j]
            raw *= b[k]
        s = raw[0]
        for i in range(1, n):
            s = s + raw[i]
        np.divide(raw, s, out=alpha[k])
        scale[k] = s
    return alpha, scale


def _backward(b, trans, B):
    """Backward pass, normalized per step, in reversed time: ``b`` holds the
    emission factors of each sequence read backward from its own last step,
    chunk-major as in :func:`_forward`, and so does the returned ``beta``.
    Each sequence starts from uniform at its own last step."""
    K, n, _ = b.shape
    beta = np.empty_like(b)
    beta[0] = _chunk_starts(b, np.swapaxes(trans, 0, 1), np.full((n, B), 1.0 / n))
    for k in range(1, K):
        nxt = b[k - 1] * beta[k - 1]
        v = trans[:, 0] * nxt[0]
        for j in range(1, n):
            v += trans[:, j] * nxt[j]
        s = v[0]
        for i in range(1, n):
            s = s + v[i]
        np.divide(v, s, out=beta[k])
    return beta


def _chunking(T):
    """(chunks, chunk length) covering ``T`` steps: one chunk of exactly
    ``T`` steps, the plain recursion, when ``T <= _PLAIN_STEPS``."""
    if T <= _PLAIN_STEPS:
        return 1, T
    return -(-T // _CHUNK), _CHUNK


def _to_chunks(a, C, K):
    """(C*K, n, B) in time order -> chunk-major (K, n, C*B)."""
    return a.reshape(C, K, a.shape[1], -1).transpose(1, 2, 0, 3).reshape(K, a.shape[1], -1)


def _from_chunks(a, C, K):
    """Chunk-major (K, n, C*B) -> (C*K, n, B) in time order."""
    return a.reshape(K, a.shape[1], C, -1).transpose(2, 0, 1, 3).reshape(C * K, a.shape[1], -1)


def _reversal(L, C, K, n):
    """Flat indices between a (C*K, n, B) time-ordered array and the
    chunk-major layout of each column's first ``L[k]`` steps in reversed
    time.

    ``to_rev`` takes time order to reversed chunk-major (K, n, C*B), where
    padding repeats the column's step 0; ``back`` takes that layout to time
    order (C*K, n, B), where padding gets reversed step 0, the uniform
    start.
    """
    B = L.size
    t = np.arange(C * K)[:, None]
    r = np.where(t < L, L - 1 - t, 0)  # the step at the other end of time
    to_rev = r[:, None, :] * (n * B) + (np.arange(n)[:, None] * B + np.arange(B))
    if C == 1:
        return to_rev, to_rev
    c, k = np.divmod(r, K)
    back = (k * (n * C * B) + c * B + np.arange(B))[:, None, :] + np.arange(n)[:, None] * (C * B)
    return _to_chunks(to_rev, C, K), back


def _baum_welch_padded(seqs, trans, init, means, variances, var_floor, tol, max_iter):
    """One padded batch of :func:`baum_welch_batch`; ``seqs`` are sorted
    by non-increasing length.

    The observations form a (T, B) matrix, each column edge-padded past its
    own length ``L`` and the batch past ``T`` to whole chunks. The scaled
    forward and backward recursions run as a blocked scan, chunks of
    ``_CHUNK`` steps (see :func:`_chunk_starts`), with each step's
    arithmetic done across all chunks of the batch and explicit loops over
    states. Every quantity of a sequence is computed from that sequence's
    first ``L`` steps only, by the same operations in the same order
    whatever its companions: forward chunks start at t = 0, the backward
    pass scans each column in its own reversed time from uniform at its own
    last step, so padding never feeds a real step, and every sum over time
    is a sequential cumulative sum read at the column's own end. A sequence
    leaves the batch once its log-likelihood gain drops below ``tol`` (or at
    ``max_iter``).
    """
    B = len(seqs)
    n = init.shape[1]
    L = np.array([s.shape[0] for s in seqs], dtype=np.int64)
    T = int(L[0])
    C, K = _chunking(T)
    obs = np.empty((C * K, B))
    for k, s in enumerate(seqs):
        obs[: L[k], k] = s
        obs[L[k] :, k] = s[-1]
    # parameters with the batch axis last: each per-state slice is a row
    trans = np.ascontiguousarray(np.moveaxis(trans, 0, -1))
    init = np.ascontiguousarray(init.T)
    means = np.ascontiguousarray(means.T)
    variances = np.ascontiguousarray(variances.T)

    out_trans = np.empty((B, n, n))
    out_init = np.empty((B, n))
    out_means = np.empty((B, n))
    out_vars = np.empty((B, n))
    hist = np.empty((max_iter + 1, B))
    hists = [None] * B
    rows = np.arange(B)  # batch position of each live column
    cols = np.arange(B)
    pad = np.arange(C * K)[:, None] >= L
    to_rev, back = _reversal(L, C, K, n)
    prev_ll = None

    for it in range(max_iter + 1):
        log_var = np.log(variances)
        b = np.empty((C * K, n, rows.size))  # log-densities, then factors
        for i in range(n):
            d = obs - means[i]
            b[:, i] = -0.5 * (_LOG_2PI + log_var[i] + d * d / variances[i])
        shifts = b.max(axis=1)
        np.exp(np.subtract(b, shifts[:, None], out=b), out=b)
        # unit factors in the padding: its forward steps keep a positive sum
        np.copyto(b, 1.0, where=pad[:, None, :])

        alpha, scale = _forward(_to_chunks(b, C, K), np.tile(trans, C), init)
        alpha = _from_chunks(alpha, C, K)
        scale = scale.reshape(K, C, -1).transpose(1, 0, 2).reshape(C * K, -1)
        ll = np.cumsum(np.log(scale[:T]) + shifts[:T], axis=0)[L - 1, cols]

        hist[it, rows] = ll
        done = np.full(rows.size, it == max_iter)
        if prev_ll is not None:
            done |= (ll - prev_ll) < tol
        if done.any():
            fin = rows[done]
            out_trans[fin] = np.moveaxis(trans[:, :, done], -1, 0)
            out_init[fin] = init[:, done].T
            out_means[fin] = means[:, done].T
            out_vars[fin] = variances[:, done].T
            for k in fin:
                hists[k] = hist[: it + 1, k].copy()
            keep = ~done
            if not keep.any():
                break
            rows, L, ll = rows[keep], L[keep], ll[keep]
            T = int(L[0])
            C, K = _chunking(T)
            obs, alpha, b = obs[: C * K, keep], alpha[: C * K, :, keep], b[: C * K, :, keep]
            trans, init = trans[:, :, keep], init[:, keep]
            means, variances = means[:, keep], variances[:, keep]
            cols = np.arange(rows.size)
            pad = pad[: C * K, keep]
            to_rev, back = _reversal(L, C, K, n)
        prev_ll = ll

        # past a column's step 0 the reversed scan may divide 0 by 0 (a
        # state no transition enters); those steps are never read back
        with np.errstate(invalid="ignore", divide="ignore"):
            beta = _backward(np.take(b, to_rev), np.tile(trans, C), rows.size)
        beta = np.take(beta, back)[:T]
        alpha, b, o = alpha[:T], b[:T], obs[:T]

        gamma = alpha * beta
        gs = gamma[:, 0]
        for i in range(1, n):
            gs = gs + gamma[:, i]
        gamma /= gs[:, None]

        nxt = b[1:] * beta[1:]
        m = [[(alpha[:-1, i] * trans[i, j]) * nxt[:, j] for j in range(n)] for i in range(n)]
        ms = m[0][0]
        for i in range(n):
            for j in range(n):
                if i or j:
                    ms = ms + m[i][j]
        del alpha, beta, b, nxt  # freed before the M-step, whose sums set peak memory

        # M-step; every sum over time is read at the column's own end
        cg = np.cumsum(gamma, axis=0)
        gsum_tr = cg[L - 2, :, cols].T
        gsum_all = cg[L - 1, :, cols].T
        init = gamma[0].copy()
        floor = var_floor[rows]
        with np.errstate(divide="ignore", invalid="ignore"):
            for i in range(n):
                xi = [np.cumsum(m[i][j] / ms, axis=0)[L - 2, cols] for j in range(n)]
                row = [x / gsum_tr[i] for x in xi]
                rs = row[0]
                for j in range(1, n):
                    rs = rs + row[j]
                for j in range(n):
                    trans[i, j] = np.where(gsum_tr[i] > 0.0, row[j] / rs, trans[i, j])
            for i in range(n):
                g = gamma[:, i]
                mu = np.cumsum(g * o, axis=0)[L - 1, cols] / gsum_all[i]
                dev = o - mu
                var = np.cumsum(g * (dev * dev), axis=0)[L - 1, cols] / gsum_all[i]
                ok = gsum_all[i] > 0.0
                means[i] = np.where(ok, mu, means[i])
                variances[i] = np.where(ok, np.where(var > floor, var, floor), variances[i])
        del gamma, m, ms, cg  # freed before the next iteration's passes

    return out_trans, out_init, out_means, out_vars, hists


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


# one step either side of each chunk end up to 80 steps: the plain rounds,
# the regime edge at _PLAIN_STEPS and the first blocked scans
EDGE_LENGTHS = [c * 16 + d for c in range(1, 6) for d in (-1, 0, 1)]


class TestBatchedEngine:
    def test_matches_loop_reference(self):
        """The batched engine on sequences of mixed lengths against the
        scalar loop reference. The lengths cover the plain recursion across
        each of its chunk ends (16, 17, 33, 64), the blocked scan up to
        T = 1000, and one step either side of a chunk boundary; two starts
        are nearly absorbing. No step, padding included, divides 0 by 0."""
        rng = np.random.default_rng(4)
        size = backends._CHUNK
        m = backends._PLAIN_STEPS // size + 1  # the fewest chunks of a blocked scan
        cases = [random_case(rng, t) for t in (8, 60, 25, 90, 16, 17, 33, backends._PLAIN_STEPS)]
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
        both the blocked and the plain sequences are split, and one batch
        mixes them."""
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
    def test_matches_padded_oracle(self, lengths, long, max_iter, seed):
        """Batches of 1-40 sequences, with at most 40 EM iterations so that
        members leave at different iterations: all five outputs equal the
        padded engine's bit for bit, in one batch and split into batches of
        at most 1,024 chunk cells."""
        rng = np.random.default_rng(seed)
        cases = [random_case(rng, t) for t in lengths + ([long] if long else [])]
        args = batch_args(cases, max_iter)
        want = padded_baum_welch_batch(*args)
        assert_same_fits(backends.baum_welch_batch(*args), want)
        with mock.patch.object(backends, "_BATCH_CELLS", 1024):
            assert_same_fits(backends.baum_welch_batch(*args), want)
