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
arithmetic is done across every chunk at once. Each EM round forms every
chunk's transfer product once, and the forward and backward passes both
run from them as a chunked two-level scan (see ``_chunk_ends``). Each sum
over time is one ``np.bincount`` in an order fixed by the sequence's own
length. Every sum over states and every contraction goes through one
helper, ``_ordered_sum`` or ``_contract``, that adds in state order, and
that order is part of the bit-for-bit batch guarantee below. Fits of more
than one chunk take squared extrapolation (SqS3) steps, in lockstep cycles
of three rounds, and the others run plain EM (see ``_em``).
``tests/test_backends.py`` pins the fits against a scalar-loop reference
of the same cycle, and bit for bit against the same sequences fitted
alone or in other batches; ``benchmarks/bench_backends.py`` times the
kernels.

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
    """Gaussian log-densities of ``obs`` under ``means`` and ``variances``,
    broadcast against each other."""
    diff = obs - means
    return -0.5 * (_LOG_2PI + np.log(variances) + diff * diff / variances)


def _ordered_sum(xs):
    """``xs[0] + xs[1] + ...``, added in that order."""
    # indexed, not sliced: a slice costs about as much as a small addition
    s = xs[0]
    for i in range(1, len(xs)):
        s = s + xs[i]
    return s


def _contract(a, m):
    """``a[0] * m[0] + a[1] * m[1] + ...``, accumulated in place in that
    order; ``a @ m`` per column for ``a`` (n, W) and ``m`` (n, n, W)."""
    out = a[0] * m[0]
    for j in range(1, len(a)):
        out += a[j] * m[j]
    return out


def forward_loglik(obs, trans, init, means, variances):
    """Scaled forward recursion; returns log P(obs | model)."""
    logb = _log_gauss(obs[:, None], means, variances)
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
    logb = _log_gauss(obs[:, None], means, variances)
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
# rounding an extrapolated point may go this far below 0 or (relatively) the floor
_SLOP = 1e-12


def baum_welch_batch(seqs, trans, init, means, variances, var_floor, tol, max_iter):
    """EM for a Gaussian-emission HMM on each of ``B`` observation sequences.

    ``seqs`` is a list of 1-D arrays of lengths >= 2; ``trans`` is (B, n, n),
    ``init``/``means``/``variances`` are (B, n) and ``var_floor`` is (B,).
    Sequences are sorted by length, longest first, and fitted in batches of
    at most ``_BATCH_CELLS`` chunk cells, each in one EM loop (see
    :func:`_em`); each result is bit-identical to fitting its sequence
    alone. Returns ``(trans, init, means, variances, hists, converged,
    counts)`` with the parameters stacked as on input, ``hists`` a list of
    per-sequence log-likelihood histories (one entry per accepted evaluation,
    non-decreasing; the last entry always corresponds to the returned
    parameters), ``converged`` (B,) False for a fit stopped after
    ``max_iter`` M-steps, and ``counts`` (B, 4): each fit's M-steps and its
    extrapolations accepted, rejected and fallen back.
    """
    B, n = len(seqs), np.shape(init)[1]
    # each sequence's parameters in one column, so that a point of the
    # cycle is one copy; the M-step writes them in place through _views
    theta = np.concatenate((np.reshape(trans, (B, n * n)), init, means, variances),
                           axis=1, dtype=np.float64).T
    var_floor = np.asarray(var_floor, dtype=np.float64)
    hists = [None] * B
    counts = np.zeros((B, 4), dtype=np.int64)
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
        # a C-contiguous copy (``theta[:, idx]`` is not), so that _views are views
        theta[:, idx], batch_hists, counts[idx] = _em(
            [seqs[k] for k in idx], np.take(theta, idx, axis=1), var_floor[idx], tol, max_iter, n
        )
        for k, h in zip(idx, batch_hists):
            hists[k] = h
        start = stop
    trans, init, means, variances = _views(theta, n)
    return np.moveaxis(trans, -1, 0), init.T, means.T, variances.T, hists, counts[:, 0] < max_iter, counts


class _Layout:
    """The ragged chunk layout of ``S`` sequences of non-increasing lengths
    ``L``.

    Sequence ``k`` is cut into ``C[k] = ceil(L[k] / 16)`` chunks of
    ``_CHUNK`` = 16 steps from t = 0, so only its last chunk is padded. A
    cell array is (16, W) or (16, n, W), one column per chunk, and the
    columns are chunk-major: block ``c``, columns ``off[c]`` to
    ``off[c + 1]``, holds chunk ``c`` of every sequence that has one, in
    length order. Each block is thus a prefix of the sequences, and block 0
    is all of them.

    The blocked scan (see :func:`_chunk_ends`) runs on the first ``long``
    sequences, those with more than one chunk, whose columns ``level1``
    lists: block 0's first ``long`` columns, then every column from ``S``
    on. Its carry has one entry per column ``S + p``, chunk ``c`` >= 1 of
    sequence ``s``: forward, the vector leaving chunk ``c - 1`` times that
    chunk's product (at ``pair[2p]``) gives the vector entering column
    ``S + p``; backward, the vector leaving chunk ``C[s] - c`` times that
    chunk's product (at ``pair[2p + 1]``) gives the vector leaving column
    ``back[p]``, chunk ``C[s] - c - 1``.
    """

    def __init__(self, L):
        S = self.S = L.size
        chunks = -(-L // _CHUNK)
        per_block = np.searchsorted(-chunks, -np.arange(chunks[0]))  # sequences with chunk c
        off = np.concatenate(([0], np.cumsum(per_block)))
        W = self.W = int(off[-1])
        chunk = self.chunk = np.repeat(np.arange(chunks[0]), per_block)
        seq = self.seq = np.arange(W) - off[chunk]
        last = chunk + 1 == chunks[seq]  # each sequence's last chunk
        self.pad = np.arange(_CHUNK)[:, None] >= np.minimum(L[seq] - chunk * _CHUNK, _CHUNK)
        # bincount bins in row-major order (see sums), S for a cell left out:
        # every step, or all but the last (arithmetic costs less than np.where)
        bins = self.pad * (S - seq)
        bins += seq
        self.all = bins.ravel()
        self.last = ((L - 1) % _CHUNK, off[chunks - 1] + np.arange(S))
        self.tr = self.all.copy()
        self.tr[self.last[0] * W + self.last[1]] = S
        # the column holding the step after each column's row 15
        self.next = np.where(last, np.arange(W), off[chunk + 1] + seq)
        long = self.long = int(per_block[1]) if chunks[0] > 1 else 0
        self.level1 = np.concatenate((np.arange(long), np.arange(S, W)))
        c, s = chunk[S:], seq[S:]
        fwd = off[c - 1] + s
        fwd = np.where(fwd < S, fwd, fwd - (S - long))  # as positions in level1
        bwd = off[chunks[s] - c] + s - (S - long)
        self.pair = np.stack((fwd, bwd + long + W - S), axis=1).ravel()
        self.back = off[chunks[s] - c - 1] + s
        self.carry = (2 * per_block[1:]).tolist()  # carry columns per chunk end

    def sums(self, x, bins):
        """Each sequence's sum of the cells of ``x`` (16, W) that ``bins``
        keeps. ``np.bincount`` adds in input order, here the cells' row-major
        order, so each sum adds its sequence's steps in an order fixed by
        that sequence's length alone."""
        return np.bincount(bins, weights=x.ravel(), minlength=self.S + 1)[: self.S]


def _chunk_ends(b, mat, init, lay):
    """Levels 1-2 of the blocked scan, shared by both passes: the vectors at
    row 15 of the chunks of the sequences with more than one chunk.

    ``b`` (16, n, W) holds the emission factors and ``mat`` (n, n, W) the
    transition matrix of each column's sequence, in the layout ``lay``.
    Level 1 forms every chunk's transfer product ``H = T diag(b_0) ... T
    diag(b_15)`` at once in 16 steps, renormalized at each step because
    emission factors are at most 1 and unnormalized products underflow;
    chunk 0's product starts from ``diag(b_0)``, so ``init`` (n, S) enters it
    directly. The forward filter leaving chunk ``c`` is then
    ``normalize(a @ H_c)`` from the one leaving chunk ``c - 1``, and the
    backward vector leaving chunk ``c - 1`` is ``normalize(H_c @ v)`` from
    the one leaving chunk ``c``, uniform in the last chunk, whose padding
    has unit factors. Level 2 carries both at once across the chunk ends in
    order, each sequence's forward and backward vectors in adjacent
    columns, the backward ones through transposed products. Returns (n,
    2(W - S)) in the order of ``lay.pair``.
    """
    n = b.shape[1]
    if not lay.carry:
        return np.empty((n, 0))
    ec = np.take(b, lay.level1, axis=2)
    mc = np.take(mat, lay.level1, axis=2)
    prod = mc * ec[0]
    prod[:, :, : lay.long] = np.eye(n)[:, :, None] * ec[0, :, : lay.long]
    for k in range(1, b.shape[0]):
        nxt = _contract(prod.swapaxes(0, 1)[:, :, None], mc)
        nxt *= ec[k]
        prod = np.divide(nxt, _ordered_sum(nxt.reshape(n * n, -1)), out=nxt)
    pair = np.take(np.concatenate((prod, prod.swapaxes(0, 1)), axis=2), lay.pair, axis=2)
    out = np.empty((n, pair.shape[2]))
    y = np.empty((n, 2 * lay.long))
    y[:, 0::2] = init[:, : lay.long]
    y[:, 1::2] = 1.0 / n
    p = 0
    for m in lay.carry:
        v = _contract(y[:, :m], pair[:, :, p : p + m])
        y = out[:, p : p + m] = v / _ordered_sum(v)
        p += m
    return out


def _forward(b, trans, init, ends, lay):
    """Scaled forward pass on the emission factors ``b`` (16, n, W), with
    ``trans`` (n, n, W) per column: level 3 runs the per-step recursion in
    every column at once, chunk 0 from ``init`` and each later chunk from
    one step past the filter leaving the chunk before (``ends``, see
    :func:`_chunk_ends`). Returns normalized ``alpha`` in the same layout
    and the per-step ``scale`` (16, W)."""
    K, n, W = b.shape
    alpha = np.empty_like(b)
    scale = np.empty((K, W))
    raw = np.empty((n, W))
    raw[:, : lay.S] = init
    raw[:, lay.S :] = _contract(ends[:, 0::2], trans[:, :, lay.S :])
    raw *= b[0]
    for k in range(K):
        if k:
            raw = _contract(alpha[k - 1], trans)
            raw *= b[k]
        s = _ordered_sum(raw)
        np.divide(raw, s, out=alpha[k])
        scale[k] = s
    return alpha, scale


def _backward(b, trans, ends, lay):
    """Backward pass, normalized per step, in the layout of
    :func:`_forward`: row 15 of each column holds the backward vector
    leaving its chunk (``ends``, see :func:`_chunk_ends`), uniform in each
    sequence's last chunk, and level 3 runs rows 14 to 0 from it in every
    column at once, each ``trans @ (b * beta)`` of the row after."""
    K, n, _ = b.shape
    beta = np.empty_like(b)
    beta[-1] = 1.0 / n
    beta[-1][:, lay.back] = ends[:, 1::2]
    cols = trans.swapaxes(0, 1)  # cols[j] is column j of each matrix
    for k in range(K - 2, -1, -1):
        v = _contract(b[k + 1] * beta[k + 1], cols)
        np.divide(v, _ordered_sum(v), out=beta[k])
    return beta


def _views(theta, n):
    """``trans``, ``init``, ``means``, ``variances``: views of the columns ``theta``."""
    k = n * n
    return theta[:k].reshape(n, n, -1), theta[k : k + n], theta[k + n : k + 2 * n], theta[k + 2 * n :]


def _squarem(t0, t1, t2, floor, n):
    """The SqS3 point ``θ0 − 2αr + α²v`` of each column of three successive
    EM points (Varadhan & Roland 2008), ``r = θ1 − θ0``, ``v = θ2 − 2θ1 +
    θ0``, ``α = −‖r‖/‖v‖`` capped at −1, and whether it is finite with no
    negative probability or variance below ``floor`` (clipped within
    ``_SLOP``). Coordinates: transitions, ``init``, means over the root of
    θ0's mean variance, log variances, their norms summed in order so that
    a column's arithmetic never depends on the others."""
    k = n * n + n
    scale = np.sqrt(_ordered_sum(t0[k + n :]) / n)
    with np.errstate(all="ignore"):
        u0, u1, u2 = (np.concatenate((t[:k], t[k : k + n] / scale, np.log(t[k + n :])))
                      for t in (t0, t1, t2))
        r = u1 - u0
        v = (u2 - 2.0 * u1) + u0
        alpha = np.minimum(-np.sqrt(_ordered_sum(r * r)) / np.sqrt(_ordered_sum(v * v)), -1.0)
        u = (u0 - 2.0 * alpha * r) + alpha * alpha * v
        out = np.concatenate((u[:k], u[k : k + n] * scale, np.exp(u[k + n :])))
        ok = np.isfinite(out).all(axis=0) & (out[:k] >= -_SLOP).all(axis=0)
        ok &= (out[k + n :] >= floor * (1.0 - _SLOP)).all(axis=0)
        np.maximum(out[:k], 0.0, out=out[:k])
        np.maximum(out[k + n :], floor, out=out[k + n :])
    return out, ok


def _em(seqs, theta, var_floor, tol, max_iter, n):
    """One batch of :func:`baum_welch_batch`: ``seqs`` are sorted by
    non-increasing length, and ``theta`` holds their ``n``-state
    parameters, one column each (see :func:`_views`).

    The observations sit in the ragged chunk layout (see :class:`_Layout`),
    each sequence's last chunk edge-padded. Each round evaluates every live
    fit's parameters (E-step) and M-steps them: it forms the chunk transfer
    products once, and both scaled recursions run from them as a chunked
    two-level scan (see :func:`_chunk_ends`), on all columns at once with
    explicit loops over states. Every quantity of a sequence is computed
    from that sequence's first ``L`` steps only, by the same operations in
    the same order whatever its companions: chunks start at t = 0, the
    backward pass starts from uniform at row 15 of the sequence's own last
    chunk, where padding has unit factors, and every sum over time adds the
    sequence's steps in an order fixed by its length.

    Round ``r`` is phase ``r % 3`` of every fit's SqS3 cycle: phase 0
    evaluates θ0 and M-steps it to θ1, phase 1 evaluates θ1 and M-steps it
    to θ2, then fits of more than one chunk move to θ' (see
    :func:`_squarem`) and phase 2 evaluates it. θ' is accepted, and
    M-stepped on, if its log-likelihood is at least θ1's; a rejected θ'
    leaves no history entry and the fit goes on from θ2. One-chunk fits, an
    unusable θ' and a fit's last round fall back: phase 2 evaluates θ2, so
    one-chunk fits run plain EM. A fit stops when an evaluation after a
    plain M-step gains less than ``tol``, or after ``max_iter`` M-steps; its
    parameters are recorded at once and its columns dropped after that
    round's M-step. Returns the parameters as columns, the accepted
    evaluations' histories and (S, 4) counts: M-steps, extrapolations
    accepted, rejected and fallen back.
    """
    S = len(seqs)
    L = np.array([s.shape[0] for s in seqs], dtype=np.int64)
    lay = _Layout(L)
    step = np.minimum(lay.chunk * _CHUNK + np.arange(_CHUNK)[:, None], L[lay.seq] - 1)
    first = np.cumsum(L) - L  # each sequence's offset in the concatenation
    obs = np.concatenate(seqs)[first[lay.seq] + step]  # each last chunk edge-padded
    del step, first
    trans, init, means, variances = _views(theta, n)

    out = np.empty_like(theta)  # each fit's parameters when it stops
    hist = np.empty((1, S))  # doubles as rounds go, up to max_iter + 1 rows
    hlen = np.zeros(S, dtype=np.int64)  # entries of each fit's history
    hists = [None] * S
    counts = np.zeros((S, 4), dtype=np.int64)
    rows = np.arange(S)  # batch position of each live sequence
    trial = np.zeros(S, dtype=bool)  # live fits evaluating an extrapolation
    saved = []  # this cycle's points θ0 and θ1, then θ2
    prev_ll = np.full(S, np.nan)  # each live fit's last accepted log-likelihood

    for it in range(max_iter + 1):
        tc = np.take(trans, lay.seq, axis=2)
        # log-densities, then factors
        b = _log_gauss(obs[:, None], np.take(means, lay.seq, axis=1),
                       np.take(variances, lay.seq, axis=1))
        shifts = b.max(axis=1)
        np.exp(np.subtract(b, shifts[:, None], out=b), out=b)
        # unit factors in the padding: its steps keep a positive sum both ways
        np.copyto(b, 1.0, where=lay.pad[:, None, :])

        ends = _chunk_ends(b, tc, init, lay)
        alpha, scale = _forward(b, tc, init, ends, lay)
        ll = lay.sums(np.log(scale) + shifts, lay.all)
        del scale, shifts

        accept = ~trial
        if trial.any():
            accept |= ll >= prev_ll
            counts[rows[trial], 1] += accept[trial]
            counts[rows[trial], 2] += ~accept[trial]
        if it == hist.shape[0]:
            hist = np.concatenate([hist, np.empty((min(it, max_iter + 1 - it), S))])
        hist[hlen[rows[accept]], rows[accept]] = ll[accept]
        hlen[rows[accept]] += 1
        done = (it == max_iter) | (~trial & ((ll - prev_ll) < tol))
        prev_ll = np.where(accept, ll, prev_ll)
        if done.any():
            fin = rows[done]
            out[:, fin] = theta[:, done]
            for k in fin:
                hists[k] = hist[: hlen[k], k].copy()
            counts[fin, 0] = it
            if done.all():
                break
        if it % 3 < 2:
            saved.append(theta.copy())

        beta = _backward(b, tc, ends, lay)
        del ends
        gamma = alpha * beta
        gamma /= _ordered_sum(gamma.swapaxes(0, 1))[:, None]

        # b becomes the factor of the step after each cell, in place; row
        # 15 reads row 0 of the sequence's next chunk
        np.multiply(b, beta, out=beta)
        b[:-1] = beta[1:]
        b[-1] = np.take(beta[0], lay.next, axis=1)
        del beta
        m = [[(alpha[:, i] * tc[i, j]) * b[:, j] for j in range(n)] for i in range(n)]
        del alpha, b  # freed before the M-step, whose sums set peak memory
        ms = _ordered_sum([x for row in m for x in row])

        # M-step; every sum over time adds in a fixed order (see _Layout.sums)
        gsum_tr = [lay.sums(gamma[:, i], lay.tr) for i in range(n)]
        gsum_all = [s + gamma[lay.last[0], i, lay.last[1]] for i, s in enumerate(gsum_tr)]
        init[...] = gamma[0, :, : rows.size]
        floor = var_floor[rows]
        with np.errstate(divide="ignore", invalid="ignore"):
            for i in range(n):
                xi = [lay.sums(np.divide(m[i][j], ms, out=m[i][j]), lay.tr) for j in range(n)]
                row = [x / gsum_tr[i] for x in xi]
                rs = _ordered_sum(row)
                # a row whose expected transitions all underflow keeps its
                # values, like a state never visited before the last step
                seen = (gsum_tr[i] > 0.0) & (rs > 0.0)
                for j in range(n):
                    trans[i, j] = np.where(seen, row[j] / rs, trans[i, j])
            for i in range(n):
                g = gamma[:, i]
                mu = lay.sums(g * obs, lay.all) / gsum_all[i]
                dev = obs - mu[lay.seq]
                var = lay.sums(g * (dev * dev), lay.all) / gsum_all[i]
                ok = gsum_all[i] > 0.0
                means[i] = np.where(ok, mu, means[i])
                variances[i] = np.where(ok, np.where(var > floor, var, floor), variances[i])
        del gamma, m, ms  # freed before the next iteration's passes

        if it % 3 == 2:  # a rejected extrapolation goes on from θ2
            back = trial & ~accept
            theta[:, back] = saved[0][:, back]
            saved = []
        if done.any():
            live = ~done
            rows, L, prev_ll = rows[live], L[live], prev_ll[live]
            theta, *saved = (np.compress(live, a, axis=1) for a in (theta, *saved))
            trans, init, means, variances = _views(theta, n)
            # the live sequences' columns keep their order in the new layout
            obs = np.compress(live[lay.seq], obs, axis=1)
            lay = _Layout(L)
        trial = np.zeros(rows.size, dtype=bool)
        if it % 3 == 1:
            point, ok = _squarem(*saved, theta, var_floor[rows], n)
            multi = L > _CHUNK
            trial = multi & ok & (it + 1 < max_iter)
            counts[rows[multi & ~trial], 3] += 1
            saved = [theta.copy()]
            theta[:, trial] = point[:, trial]

    return out, hists, counts


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
