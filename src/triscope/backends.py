"""Hot numeric kernels.

The two runtime-dominant inner loops of the toolkit live here:

* the scaled forward/backward recursions driving every per-(user, hour)
  Baum-Welch fit, and
* the Lance-Williams update loop of Ward agglomerative clustering.

The HMM kernels have one implementation each, in vectorized numpy.
Baum-Welch is exposed as one batch entry point, ``baum_welch_batch``, that
fits many sequences in one call and one EM loop per batch of at most
``_BATCH_CELLS`` = 2^16 chunk cells. The sequences sit unpadded in a
ragged layout of 16-step chunks (see ``_Layout``), and each time step's
arithmetic is done across every chunk at once. Long sequences run as a
chunked two-level scan (see ``_chunk_starts``), and each sum over time is
one ``np.bincount`` that adds in time order. The fits are pinned against a
scalar-loop reference and, bit for bit, against the padded engine this one
replaced, in ``tests/test_backends.py``; ``benchmarks/bench_backends.py``
times the kernels.

Ward has one implementation, :func:`ward_linkage`, in numpy: each node
caches its nearest neighbour, so a merge costs O(n) plus the rows it
invalidates instead of a scan of every pair. Its merges are pinned bit for
bit against a full-scan reference in ``tests/test_clustering.py``.
"""

from __future__ import annotations

import math

import numpy as np

_LOG_2PI = math.log(2.0 * math.pi)


def _log_gauss(obs: np.ndarray, means: np.ndarray, variances: np.ndarray) -> np.ndarray:
    """(T, N) matrix of per-state Gaussian log-densities."""
    diff = obs[:, None] - means[None, :]
    return -0.5 * (_LOG_2PI + np.log(variances)[None, :] + diff * diff / variances[None, :])


def forward_loglik(obs, trans, init, means, variances):
    """Scaled forward recursion; returns log P(obs | model)."""
    logb = _log_gauss(obs, means, variances)
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


def viterbi_kernel(obs, log_trans, log_init, means, variances):
    """Most-probable state path in log space; ties prefer the lower state."""
    logb = _log_gauss(obs, means, variances)
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


# chunk cells per EM batch, the sum of 16 * ceil(L / 16) over its sequences
# filled longest first; bounds the engine's working set. Every batch runs
# until its slowest fit stops, so fewer batches means fewer EM iterations:
# 2^16 holds a 400-user, 48-hour log (57,376 cells) in one batch
_BATCH_CELLS = 1 << 16
# steps per chunk of the ragged layout and of the blocked scan (see _Layout)
_CHUNK = 16
# a sequence of at most this many steps runs the plain per-step recursion:
# on wide batches, up to four chunks save no time, because the transfer
# products do more arithmetic per step
_PLAIN_STEPS = 4 * _CHUNK


def baum_welch_batch(seqs, trans, init, means, variances, var_floor, tol, max_iter):
    """EM for a Gaussian-emission HMM on each of ``B`` observation sequences.

    ``seqs`` is a list of 1-D arrays of lengths >= 2; ``trans`` is (B, n, n),
    ``init``/``means``/``variances`` are (B, n) and ``var_floor`` is (B,).
    Sequences are sorted by length, longest first, and fitted in batches of
    at most ``_BATCH_CELLS`` chunk cells, each in one EM loop (see
    :func:`_em`); each result is bit-identical to fitting its sequence
    alone. Returns ``(trans, init, means, variances, hists)`` with the
    parameters stacked as on input and ``hists`` a list of per-sequence
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
    cells = (-(-lengths[order] // _CHUNK) * _CHUNK).tolist()
    start = 0
    while start < order.size:
        stop, total = start + 1, cells[start]
        while stop < order.size and total + cells[stop] <= _BATCH_CELLS:
            total += cells[stop]
            stop += 1
        idx = order[start:stop]
        out = _em(
            [seqs[k] for k in idx], trans[idx], init[idx], means[idx], variances[idx],
            var_floor[idx], tol, max_iter,
        )
        trans[idx], init[idx], means[idx], variances[idx] = out[:4]
        for k, h in zip(idx, out[4]):
            hists[k] = h
        start = stop
    return trans, init, means, variances, hists


class _Layout:
    """The ragged chunk layout of ``S`` sequences of non-increasing lengths
    ``L``, with ``n`` states.

    Sequence ``k`` is cut into ``ceil(L[k] / K)`` chunks of ``K`` steps from
    t = 0, so only its last chunk is padded. ``K`` is ``_CHUNK`` = 16, or
    ``L[0]`` when every sequence is plain (at most ``_PLAIN_STEPS`` steps)
    and one chunk each pads to no more cells than 16-step chunks would: the
    plain recursion then runs without rounds. A cell array is (K, W) or
    (K, n, W), one column per chunk, and the columns are chunk-major: block
    ``c``, columns ``off[c]`` to ``off[c + 1]``, holds chunk ``c`` of every
    sequence that has one, in length order. Each block is thus a prefix of
    the sequences, and block 0 is all of them.

    The same layout holds each sequence in its own reversed time, step
    ``L - 1 - t`` in the cell of step ``t``. ``perm`` maps each cell of a
    (K, n, W) array to the cell of the other end of time; the map is its
    own inverse, so it serves both directions. Padding maps to the
    sequence's step 0, which is also reversed step 0, where the backward
    pass starts from uniform.
    """

    def __init__(self, L, n):
        S = self.S = L.size
        top = int(L[0])
        plain = top <= _PLAIN_STEPS and S * top <= _CHUNK * int((-(-L // _CHUNK)).sum())
        K = self.K = top if plain else _CHUNK
        chunks = -(-L // K)
        per_block = np.searchsorted(-chunks, -np.arange(chunks[0]))  # sequences with chunk c
        off = self.off = np.concatenate(([0], np.cumsum(per_block)))
        W = self.W = int(off[-1])
        chunk = np.repeat(np.arange(chunks[0]), per_block)
        seq = self.seq = np.arange(W) - off[chunk]
        t = chunk * K + np.arange(K)[:, None]
        end = L[seq]
        self.pad = t >= end
        self.step = np.minimum(t, end - 1)
        r = np.where(self.pad, 0, end - 1 - t)
        self.perm = (r % K * (n * W) + off[r // K] + seq)[:, None, :] + np.arange(n)[:, None] * W
        # bincount bins in time order (see sums): every step, or all but the last
        self.all = np.where(self.pad, S, seq).T.ravel()
        self.tr = np.where(t >= end - 1, S, seq).T.ravel()
        self.last = ((L - 1) % K, off[chunks - 1] + np.arange(S))
        # the column holding the step after each column's row K - 1
        self.next = np.where(chunk + 1 < chunks[seq], off[np.minimum(chunk + 1, chunks[0])] + seq,
                             np.arange(W))
        # levels 1-2 of the blocked scan run on the non-last chunks of the
        # sequences longer than _PLAIN_STEPS, the first ``long`` sequences;
        # carry[c] of them have a chunk after chunk c
        long = int(np.count_nonzero(L > _PLAIN_STEPS))
        self.level1 = (seq < long) & (chunk < chunks[seq] - 1)
        self.carry = [m for m in np.minimum(per_block[1:], long).tolist() if m]
        # round r restarts chunk r of each plain sequence that has one (the
        # columns lo to hi) from row K - 1 of its chunk r - 1 (from column
        # prev), and runs only the rows that some of them fill
        self.rounds = [
            (int(off[r] + long), int(off[r] + per_block[r]), int(off[r - 1] + long),
             min(K, int(L[long]) - K * r))
            for r in range(1, min(int(chunks[0]), _PLAIN_STEPS // K))
            if per_block[r] > long
        ]

    def sums(self, x, bins):
        """Each sequence's sum of the cells of ``x`` (K, W) that ``bins``
        keeps. ``np.bincount`` adds in input order, and each sequence's
        cells go in in time order, so a sum equals a sequential cumulative
        sum's value at its last step bit for bit."""
        return np.bincount(bins, weights=x.T.ravel(), minlength=self.S + 1)[: self.S]


def _chunk_starts(e, mat, first, lay):
    """Levels 1-2 of the blocked scan: the vector entering each column.

    ``e`` (K, n, W) holds the emission factors and ``mat`` (n, n, W) the
    step matrix of each column's sequence, in the layout ``lay``. A scan
    maps its state vector ``y`` to ``normalize((y * e[t]) @ mat)`` at each
    step; ``first`` (n, S) enters chunk 0. Level 1 forms the transfer
    product of every non-last chunk of the sequences longer than
    ``_PLAIN_STEPS`` at once in K steps, renormalized at each step because
    emission factors are at most 1 and unnormalized products underflow.
    Level 2 carries the entering vector across the chunk ends in order.
    Returns (n, W); the plain sequences' later chunks get a uniform
    placeholder, which the rounds of :func:`_forward` and :func:`_backward`
    replace.
    """
    K, n, width = e.shape
    starts = np.full((n, width), 1.0 / n)
    starts[:, : first.shape[1]] = first
    if not lay.carry:
        return starts
    # np.compress, unlike a[:, :, mask], returns C-contiguous arrays
    ec = np.compress(lay.level1, e, axis=2)
    mc = np.compress(lay.level1, mat, axis=2)
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
    p = 0
    for c, m in enumerate(lay.carry):
        v = y[0, :m] * prod[0, :, p : p + m]
        for i in range(1, n):
            v += y[i, :m] * prod[i, :, p : p + m]
        s = v[0]
        for j in range(1, n):
            s = s + v[j]
        lo = lay.off[c + 1]
        y = starts[:, lo : lo + m] = v / s
        p += m
    return starts


def _forward_steps(b, trans, raw, alpha, scale):
    """Level 3 of the forward pass on columns of (K, n, ·) arrays: the
    per-step recursion from ``raw``, the unnormalized step 0, in all
    columns at once."""
    for k in range(b.shape[0]):
        if k:
            raw = _predict(alpha[k - 1], trans)
            raw *= b[k]
        s = raw[0]
        for i in range(1, raw.shape[0]):
            s = s + raw[i]
        np.divide(raw, s, out=alpha[k])
        scale[k] = s


def _predict(a, trans):
    """``a @ trans`` per column, summed over states in order."""
    raw = a[0] * trans[0]
    for j in range(1, a.shape[0]):
        raw += a[j] * trans[j]
    return raw


def _forward(b, trans, init, lay):
    """Scaled forward pass on the emission factors ``b`` (K, n, W), with
    ``trans`` (n, n, W) per column: level 3 runs in every column from its
    entering prediction. Round r then restarts chunk r of the plain
    sequences with one plain step from row K - 1 of their chunk r - 1.
    Returns normalized ``alpha`` in the same layout and the per-step
    ``scale`` (K, W)."""
    alpha = np.empty_like(b)
    scale = np.empty((b.shape[0], b.shape[2]))
    _forward_steps(b, trans, _chunk_starts(b, trans, init, lay) * b[0], alpha, scale)
    for lo, hi, prev, steps in lay.rounds:
        b_r, t_r = _round_inputs(b, trans, lo, hi, steps)
        a_r, s_r = np.empty_like(b_r), np.empty((steps, hi - lo))
        raw = _predict(alpha[-1, :, prev : prev + hi - lo], t_r) * b_r[0]
        _forward_steps(b_r, t_r, raw, a_r, s_r)
        alpha[:steps, :, lo:hi], scale[:steps, lo:hi] = a_r, s_r
    return alpha, scale


def _round_inputs(b, trans, lo, hi, steps):
    """C-contiguous copies of a round's factors and step matrices: ufuncs
    on the strided column slices cost about twice as much per call."""
    return np.ascontiguousarray(b[:steps, :, lo:hi]), np.ascontiguousarray(trans[:, :, lo:hi])


def _back_step(b, beta, trans, out):
    """One normalized backward step, ``trans @ (b * beta)`` per column,
    into ``out``."""
    nxt = b * beta
    v = trans[:, 0] * nxt[0]
    for j in range(1, nxt.shape[0]):
        v += trans[:, j] * nxt[j]
    s = v[0]
    for i in range(1, v.shape[0]):
        s = s + v[i]
    np.divide(v, s, out=out)


def _backward(b, trans, lay):
    """Backward pass, normalized per step, in reversed time: ``b`` holds the
    emission factors of each sequence read backward from its own last step,
    in the layout of :func:`_forward`, and so does the returned ``beta``.
    Each sequence starts from uniform at its own last step; rounds restart
    the plain sequences' later chunks as in :func:`_forward`."""
    K, n, _ = b.shape
    beta = np.empty_like(b)
    beta[0] = _chunk_starts(b, np.swapaxes(trans, 0, 1), np.full((n, lay.S), 1.0 / n), lay)
    _backward_steps(b, trans, beta, K)
    for lo, hi, prev, steps in lay.rounds:
        b_r, t_r = _round_inputs(b, trans, lo, hi, steps)
        beta_r = np.empty_like(b_r)
        back = slice(prev, prev + hi - lo)
        _back_step(b[-1, :, back], beta[-1, :, back], t_r, beta_r[0])
        _backward_steps(b_r, t_r, beta_r, steps)
        beta[:steps, :, lo:hi] = beta_r
    return beta


def _backward_steps(b, trans, beta, steps):
    """Level 3 of the backward pass on columns of (K, n, ·) arrays: rows 1
    to ``steps - 1`` from row 0."""
    for k in range(1, steps):
        _back_step(b[k - 1], beta[k - 1], trans, beta[k])


def _em(seqs, trans, init, means, variances, var_floor, tol, max_iter):
    """One batch of :func:`baum_welch_batch`; ``seqs`` are sorted by
    non-increasing length.

    The observations sit in the ragged chunk layout (see :class:`_Layout`),
    each sequence's last chunk edge-padded. The scaled forward and backward
    recursions run on all columns at once with explicit loops over states:
    a sequence longer than ``_PLAIN_STEPS`` runs the blocked scan (see
    :func:`_chunk_starts`), a shorter one the plain per-step recursion.
    Every quantity of a sequence is computed from that sequence's first
    ``L`` steps only, by the same operations in the same order whatever its
    companions: forward chunks start at t = 0, the backward pass scans each
    sequence in its own reversed time from uniform at its own last step, so
    padding never feeds a real step, and every sum over time adds the
    sequence's steps in time order. A sequence leaves the batch once its
    log-likelihood gain drops below ``tol`` (or at ``max_iter``); its
    parameters are recorded at once, and its columns are dropped after that
    iteration's M-step.
    """
    S = len(seqs)
    n = init.shape[1]
    L = np.array([s.shape[0] for s in seqs], dtype=np.int64)
    lay = _Layout(L, n)
    flat = np.concatenate(seqs)
    first = np.cumsum(L) - L  # each sequence's offset in flat
    obs = flat[first[lay.seq] + lay.step]  # each last chunk edge-padded
    # parameters with the sequence axis last: each per-state slice is a row
    trans = np.ascontiguousarray(np.moveaxis(trans, 0, -1))
    init = np.ascontiguousarray(init.T)
    means = np.ascontiguousarray(means.T)
    variances = np.ascontiguousarray(variances.T)

    out_trans = np.empty((S, n, n))
    out_init = np.empty((S, n))
    out_means = np.empty((S, n))
    out_vars = np.empty((S, n))
    hist = np.empty((1, S))  # doubles as iterations go, up to max_iter + 1 rows
    hists = [None] * S
    rows = np.arange(S)  # batch position of each live sequence
    prev_ll = None

    for it in range(max_iter + 1):
        tc = np.take(trans, lay.seq, axis=2)
        log_var = np.take(np.log(variances), lay.seq, axis=1)
        mc = np.take(means, lay.seq, axis=1)
        vc = np.take(variances, lay.seq, axis=1)
        b = np.empty((lay.K, n, lay.W))  # log-densities, then factors
        for i in range(n):
            d = obs - mc[i]
            b[:, i] = -0.5 * (_LOG_2PI + log_var[i] + d * d / vc[i])
        shifts = b.max(axis=1)
        np.exp(np.subtract(b, shifts[:, None], out=b), out=b)
        # unit factors in the padding: its forward steps keep a positive sum
        np.copyto(b, 1.0, where=lay.pad[:, None, :])

        alpha, scale = _forward(b, tc, init, lay)
        ll = lay.sums(np.log(scale) + shifts, lay.all)
        del scale, shifts

        if it == hist.shape[0]:
            hist = np.concatenate([hist, np.empty((min(it, max_iter + 1 - it), S))])
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
            if done.all():
                break

        # past a sequence's step 0 the reversed scan may divide 0 by 0 (a
        # state no transition enters); those steps are never read back
        with np.errstate(invalid="ignore", divide="ignore"):
            beta = np.take(_backward(np.take(b, lay.perm), tc, lay), lay.perm)

        gamma = alpha * beta
        gs = gamma[:, 0]
        for i in range(1, n):
            gs = gs + gamma[:, i]
        gamma /= gs[:, None]
        del gs

        # b becomes the factor of the step after each cell, in place; row
        # K - 1 reads row 0 of the sequence's next chunk
        np.multiply(b, beta, out=beta)
        b[:-1] = beta[1:]
        b[-1] = np.take(beta[0], lay.next, axis=1)
        del beta
        m = [[(alpha[:, i] * tc[i, j]) * b[:, j] for j in range(n)] for i in range(n)]
        del alpha, b  # freed before the M-step, whose sums set peak memory
        ms = m[0][0]
        for i in range(n):
            for j in range(n):
                if i or j:
                    ms = ms + m[i][j]

        # M-step; every sum over time adds in time order (see _Layout.sums)
        gsum_tr = [lay.sums(gamma[:, i], lay.tr) for i in range(n)]
        gsum_all = [s + gamma[lay.last[0], i, lay.last[1]] for i, s in enumerate(gsum_tr)]
        init = gamma[0, :, : rows.size].copy()
        floor = var_floor[rows]
        with np.errstate(divide="ignore", invalid="ignore"):
            for i in range(n):
                xi = [lay.sums(np.divide(m[i][j], ms, out=m[i][j]), lay.tr) for j in range(n)]
                row = [x / gsum_tr[i] for x in xi]
                rs = row[0]
                for j in range(1, n):
                    rs = rs + row[j]
                for j in range(n):
                    trans[i, j] = np.where(gsum_tr[i] > 0.0, row[j] / rs, trans[i, j])
            for i in range(n):
                g = gamma[:, i]
                mu = lay.sums(g * obs, lay.all) / gsum_all[i]
                dev = obs - mu[lay.seq]
                var = lay.sums(g * (dev * dev), lay.all) / gsum_all[i]
                ok = gsum_all[i] > 0.0
                means[i] = np.where(ok, mu, means[i])
                variances[i] = np.where(ok, np.where(var > floor, var, floor), variances[i])
        del gamma, m, ms  # freed before the next iteration's passes

        if done.any():
            keep = ~done
            rows, L, ll, first = rows[keep], L[keep], ll[keep], first[keep]
            trans = np.compress(keep, trans, axis=2)
            init, means, variances = (np.compress(keep, a, axis=1)
                                      for a in (init, means, variances))
            lay = _Layout(L, n)
            obs = flat[first[lay.seq] + lay.step]
        prev_ll = ll

    return out_trans, out_init, out_means, out_vars, hists


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
