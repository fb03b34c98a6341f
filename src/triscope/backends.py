"""Hot numeric kernels.

The two runtime-dominant inner loops of the toolkit live here:

* the scaled forward/backward recursions driving every per-(user, hour)
  Baum-Welch fit, and
* the Lance-Williams update loop of Ward agglomerative clustering.

The HMM kernels exist twice with identical arithmetic: a ``*_np`` version
written against vectorized numpy, and a scalar-loop twin compiled with
``numba.njit``. The compiled twin is bound to the public name when numba
imports successfully and the environment variable ``TRISCOPE_DISABLE_NUMBA``
is unset (or "0"); otherwise the numpy version is used. Parity between the
two paths is pinned by ``tests/test_backends.py`` and their speed is
compared by ``benchmarks/bench_backends.py``.

Baum-Welch is exposed as one batch entry point, ``baum_welch_batch``, that
fits many sequences in one call: the numpy version vectorizes each time step
across the batch, and runs long sequences as a chunked two-level scan (see
``_chunk_starts``); the compiled version loops its single-sequence kernel.

Ward has one implementation, :func:`ward_linkage`, in numpy: each node
caches its nearest neighbour, so a merge costs O(n) plus the rows it
invalidates instead of a scan of every pair. Its merges are pinned bit for
bit against a full-scan reference in ``tests/test_clustering.py``.
"""

from __future__ import annotations

import math
import os

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAVE_NUMBA = False

_env = os.environ.get("TRISCOPE_DISABLE_NUMBA", "").strip().lower()
NUMBA_DISABLED_BY_ENV = _env in {"1", "true", "yes", "on"}
NUMBA_ENABLED = HAVE_NUMBA and not NUMBA_DISABLED_BY_ENV

_LOG_2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# numpy implementations
# ---------------------------------------------------------------------------


def _log_gauss_np(obs: np.ndarray, means: np.ndarray, variances: np.ndarray) -> np.ndarray:
    """(T, N) matrix of per-state Gaussian log-densities."""
    diff = obs[:, None] - means[None, :]
    return -0.5 * (_LOG_2PI + np.log(variances)[None, :] + diff * diff / variances[None, :])


def forward_loglik_np(obs, trans, init, means, variances):
    """Scaled forward recursion; returns log P(obs | model)."""
    logb = _log_gauss_np(obs, means, variances)
    loglik = 0.0
    prev = init
    for t in range(obs.shape[0]):
        shift = logb[t].max()
        b = np.exp(logb[t] - shift)
        raw = (prev * b) if t == 0 else ((prev @ trans) * b)
        s = raw.sum()
        prev = raw / s
        loglik += np.log(s) + shift
    return float(loglik)


def viterbi_np(obs, log_trans, log_init, means, variances):
    """Most-probable state path in log space; ties prefer the lower state."""
    logb = _log_gauss_np(obs, means, variances)
    T, n = logb.shape
    psi = np.zeros((T, n), dtype=np.int64)
    delta = log_init + logb[0]
    for t in range(1, T):
        cand = delta[:, None] + log_trans
        psi[t] = np.argmax(cand, axis=0)  # first max <=> lowest predecessor
        delta = cand[psi[t], np.arange(n)] + logb[t]
    path = np.empty(T, dtype=np.int64)
    path[-1] = int(np.argmax(delta))
    for t in range(T - 2, -1, -1):
        path[t] = psi[t + 1, path[t + 1]]
    return path


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


def baum_welch_batch_np(seqs, trans, init, means, variances, var_floor, tol, max_iter):
    """EM for a Gaussian-emission HMM on each of ``B`` observation sequences.

    ``seqs`` is a list of 1-D arrays of lengths >= 2; ``trans`` is (B, n, n),
    ``init``/``means``/``variances`` are (B, n) and ``var_floor`` is (B,).
    Sequences are sorted by length and fitted in padded batches (see
    :func:`_baum_welch_padded`); each result is bit-identical to fitting its
    sequence alone. Returns ``(trans, init, means, variances, hists)`` with
    the parameters stacked as on input and ``hists`` a list of per-sequence
    log-likelihood histories (one entry per evaluated parameter set; the last
    entry always corresponds to the returned parameters).
    """
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
    """One padded batch of :func:`baum_welch_batch_np`; ``seqs`` are sorted
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


def baum_welch_np(obs, trans, init, means, variances, var_floor, tol, max_iter):
    """:func:`baum_welch_batch_np` on one sequence (B = 1)."""
    out = baum_welch_batch_np(
        [obs], trans[None], init[None], means[None], variances[None],
        np.array([var_floor]), tol, max_iter,
    )
    return out[0][0], out[1][0], out[2][0], out[3][0], out[4][0]


def ward_linkage(points):
    """Ward agglomeration via Lance-Williams updates on squared distances.

    Leaves are nodes ``0..n-1``; the merge at step ``s`` creates node
    ``n+s``. Returns an ``(n-1, 4)`` float array of
    ``(left, right, height, size)`` rows with ``left < right`` node ids and
    ``height = sqrt(2 * increase in within-cluster SS)`` (so two singletons
    merge at their Euclidean distance). Ties on the merge criterion pick the
    lexicographically smallest ``(left, right)`` pair.

    Each active node ``i`` caches ``nn[i]``, its nearest active node
    ``j > i`` (the smallest such ``j`` on ties), and ``rmin[i]``, their
    distance, so a merge takes the least ``rmin`` (the smallest row on
    ties) instead of scanning every pair: the pair a row-major scan of the
    whole triangle would pick. After a merge, a row adopts the new node,
    which has the largest id, only when it is strictly closer than the
    cached neighbour, and only the rows whose neighbour was merged are
    recomputed. The cache holds copies of matrix entries, so heights and
    updates are those of the full scan, bit for bit (Muellner 2011,
    arXiv:1109.2378, the "generic" algorithm without its priority queue).
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    total = 2 * n - 1
    sq = (pts * pts).sum(axis=1)
    block = sq[:, None] + sq[None, :] - 2.0 * (pts @ pts.T)
    np.maximum(block, 0.0, out=block)
    d2 = np.empty((total, total))  # only entries between active nodes are read
    d2[:n, :n] = block
    block[np.tri(n, dtype=bool)] = np.inf  # keep j > i
    nn = np.zeros(total, dtype=np.int64)
    nn[:n] = np.argmin(block, axis=1)
    rmin = np.full(total, np.inf)
    rmin[:n] = block[np.arange(n), nn[:n]]
    del block

    active = np.zeros(total, dtype=bool)
    active[:n] = True
    sizes = np.zeros(total, dtype=np.int64)
    sizes[:n] = 1
    merges = np.empty((n - 1, 4))
    for step in range(n - 1):
        bi = int(np.argmin(rmin))
        bj = int(nn[bi])
        best = rmin[bi]
        new = n + step
        si = sizes[bi]
        sj = sizes[bj]
        merges[step] = (bi, bj, math.sqrt(best), si + sj)
        active[bi] = active[bj] = False
        rmin[bi] = rmin[bj] = np.inf

        others = np.flatnonzero(active)
        if others.size:
            su = sizes[others]
            upd = ((si + su) * d2[bi, others] + (sj + su) * d2[bj, others] - su * best) / (
                si + sj + su
            )
            d2[new, others] = upd
            d2[others, new] = upd
            stale = (nn[others] == bi) | (nn[others] == bj)
            adopt = ~stale & (upd < rmin[others])
            nn[others[adopt]] = new
            rmin[others[adopt]] = upd[adopt]
            rows = others[stale]
            if rows.size:
                cols = np.append(others, new)
                sub = d2[np.ix_(rows, cols)]
                sub[cols <= rows[:, None]] = np.inf
                k = np.argmin(sub, axis=1)
                nn[rows] = cols[k]
                rmin[rows] = sub[np.arange(rows.size), k]
        active[new] = True
        sizes[new] = si + sj
    return merges


# ---------------------------------------------------------------------------
# loop twins (numba-compiled when available)
# ---------------------------------------------------------------------------


def _forward_loglik_loop(obs, trans, init, means, variances):
    T = obs.shape[0]
    n = init.shape[0]
    logb = np.empty(n)
    prev = np.empty(n)
    cur = np.empty(n)
    loglik = 0.0
    for t in range(T):
        shift = -np.inf
        for i in range(n):
            d = obs[t] - means[i]
            logb[i] = -0.5 * (_LOG_2PI + math.log(variances[i]) + d * d / variances[i])
            if logb[i] > shift:
                shift = logb[i]
        s = 0.0
        for i in range(n):
            if t == 0:
                v = init[i] * math.exp(logb[i] - shift)
            else:
                acc = 0.0
                for j in range(n):
                    acc += prev[j] * trans[j, i]
                v = acc * math.exp(logb[i] - shift)
            cur[i] = v
            s += v
        for i in range(n):
            prev[i] = cur[i] / s
        loglik += math.log(s) + shift
    return loglik


def _viterbi_loop(obs, log_trans, log_init, means, variances):
    T = obs.shape[0]
    n = log_init.shape[0]
    delta = np.empty(n)
    nxt = np.empty(n)
    psi = np.zeros((T, n), dtype=np.int64)
    for i in range(n):
        d = obs[0] - means[i]
        delta[i] = log_init[i] - 0.5 * (
            _LOG_2PI + math.log(variances[i]) + d * d / variances[i]
        )
    for t in range(1, T):
        for j in range(n):
            best = -np.inf
            arg = 0
            for i in range(n):
                v = delta[i] + log_trans[i, j]
                if v > best:  # strict: first maximum wins -> lowest index
                    best = v
                    arg = i
            d = obs[t] - means[j]
            nxt[j] = best - 0.5 * (
                _LOG_2PI + math.log(variances[j]) + d * d / variances[j]
            )
            psi[t, j] = arg
        for j in range(n):
            delta[j] = nxt[j]
    path = np.empty(T, dtype=np.int64)
    best = -np.inf
    arg = 0
    for i in range(n):
        if delta[i] > best:
            best = delta[i]
            arg = i
    path[T - 1] = arg
    for t in range(T - 2, -1, -1):
        path[t] = psi[t + 1, path[t + 1]]
    return path


def _baum_welch_loop(obs, trans, init, means, variances, var_floor, tol, max_iter):
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


if HAVE_NUMBA:
    forward_loglik_jit = njit(cache=True)(_forward_loglik_loop)
    viterbi_jit = njit(cache=True)(_viterbi_loop)
    baum_welch_jit = njit(cache=True)(_baum_welch_loop)

    def baum_welch_batch_jit(seqs, trans, init, means, variances, var_floor, tol, max_iter):
        """:func:`baum_welch_batch_np`'s contract, one compiled fit per sequence."""
        outs = [
            baum_welch_jit(s, trans[k], init[k], means[k], variances[k], var_floor[k], tol, max_iter)
            for k, s in enumerate(seqs)
        ]
        stacked = tuple(np.array([o[p] for o in outs]) for p in range(4))
        return (*stacked, [o[4] for o in outs])


if NUMBA_ENABLED:
    forward_loglik = forward_loglik_jit
    viterbi_kernel = viterbi_jit
    baum_welch_batch = baum_welch_batch_jit
else:
    forward_loglik = forward_loglik_np
    viterbi_kernel = viterbi_np
    baum_welch_batch = baum_welch_batch_np


def backend_name() -> str:
    return "numba" if NUMBA_ENABLED else "numpy"


def warmup() -> None:
    """Trigger JIT compilation of every kernel on tiny inputs."""
    obs = np.array([0.0, 1.0, 0.5, 2.0])
    trans = np.array([[0.9, 0.1], [0.1, 0.9]])
    init = np.array([0.5, 0.5])
    means = np.array([0.0, 1.0])
    variances = np.array([1.0, 1.0])
    forward_loglik(obs, trans, init, means, variances)
    with np.errstate(divide="ignore"):
        viterbi_kernel(obs, np.log(trans), np.log(init), means, variances)
    baum_welch_batch([obs], trans[None], init[None], means[None], variances[None],
                     np.array([1e-12]), 1e-6, 3)
