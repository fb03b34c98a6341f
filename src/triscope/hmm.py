"""Gaussian-emission hidden Markov models on inter-arrival series.

Likelihood via the scaled forward recursion and decoding via log-space
Viterbi, for an :class:`HmmModel` with any number of states, and two-state
Baum-Welch fits: :func:`baum_welch_many` fits many sequences in one batched
call, start-up included, and returns them stacked as :class:`HmmFits`. All
run on the numpy kernels of :mod:`triscope.backends`: EM with squared
extrapolation (SqS3) steps for sequences of more than 16 steps, plain EM for
the others, ``max_iter`` counting M-steps either way.

State order is canonical when the means are non-decreasing (the variance
breaking ties); fits come back canonical and :func:`extract_features`
canonicalizes its input, so features never depend on state labels.

Variances never fall below ``VAR_FLOOR_SCALE`` times the sequence's own
variance, and the SD features carry that floor: ten 1s then ten 1e9s give
both states variance 2.5e11, so both SD features are 5e5.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import backends
from .errors import InvalidInputError, NumericalError

__all__ = [
    "HmmModel",
    "HmmFits",
    "forward_log_likelihood",
    "viterbi",
    "baum_welch",
    "baum_welch_many",
    "extract_features",
    "VAR_FLOOR_SCALE",
]

# emission variances are floored at VAR_FLOOR_SCALE * max(var(obs), 1e-12)
VAR_FLOOR_SCALE = 1e-6

_PROB_SLOP = 1e-9


@dataclass(frozen=True, eq=False)
class HmmModel:
    """The triple (transition matrix, initial distribution, emissions).

    Emissions are one Gaussian per state, described by ``means`` and
    ``variances``. ``degenerate`` marks models produced from constant
    observation sequences; ``loglik_history`` holds the log-likelihoods of
    the accepted parameter sets of the Baum-Welch fit that produced the
    model, non-decreasing (empty for hand-built models): a rejected
    extrapolation leaves no entry. ``converged`` is False for a fit that
    stopped after ``max_iter`` M-steps, its history then holding
    ``max_iter + 1`` entries less one per rejected extrapolation.
    """

    trans: np.ndarray
    init: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    degenerate: bool = False
    loglik_history: np.ndarray = field(default_factory=lambda: np.empty(0))
    converged: bool = True

    def __post_init__(self):
        trans = np.asarray(self.trans, dtype=np.float64)
        init = np.asarray(self.init, dtype=np.float64)
        means = np.asarray(self.means, dtype=np.float64)
        variances = np.asarray(self.variances, dtype=np.float64)
        n = init.shape[0]
        if trans.shape != (n, n) or means.shape != (n,) or variances.shape != (n,):
            raise InvalidInputError(
                f"inconsistent model shapes: trans {trans.shape}, init {init.shape}, "
                f"means {means.shape}, variances {variances.shape}"
            )
        if n < 1:
            raise InvalidInputError("model needs at least one state")
        for name, vec in (("trans", trans), ("init", init)):
            if np.any(vec < -_PROB_SLOP) or np.any(vec > 1.0 + _PROB_SLOP):
                raise InvalidInputError(f"{name} entries outside [0, 1]")
        if np.any(np.abs(trans.sum(axis=1) - 1.0) > _PROB_SLOP):
            raise InvalidInputError("transition rows must sum to 1")
        if abs(init.sum() - 1.0) > _PROB_SLOP:
            raise InvalidInputError("initial distribution must sum to 1")
        if not (np.all(np.isfinite(means)) and np.all(np.isfinite(variances))):
            raise InvalidInputError("emission parameters must be finite")
        if np.any(variances <= 0.0):
            raise InvalidInputError("emission variances must be positive")
        trans = np.clip(trans, 0.0, 1.0)
        init = np.clip(init, 0.0, 1.0)
        for name, arr in (("trans", trans), ("init", init), ("means", means), ("variances", variances)):
            arr = np.ascontiguousarray(arr).view()  # freeze a view, never the caller's array
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True, eq=False)
class HmmFits:
    """Canonical two-state Baum-Welch fits of ``F`` sequences, stacked.

    ``trans`` is (F, 2, 2) and ``init``, ``means`` and ``variances`` are
    (F, 2). ``degenerate`` (F,) marks constant sequences and ``converged``
    (F,) is False for a fit that stopped at ``max_iter``. ``histories[k]``
    holds fit ``k``'s log-likelihoods, one per accepted parameter set, and
    ``em_counts`` (F, 4) its M-steps and its extrapolations accepted,
    rejected and fallen back to the plain step (zeros for a constant one).
    ``fits[k]`` is fit ``k`` as an :class:`HmmModel`, and iterating gives
    them all in order.
    """

    trans: np.ndarray
    init: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    degenerate: np.ndarray
    converged: np.ndarray
    histories: tuple[np.ndarray, ...]
    em_counts: np.ndarray

    def __len__(self) -> int:
        return len(self.histories)

    def __getitem__(self, k: int) -> HmmModel:
        return HmmModel(self.trans[k], self.init[k], self.means[k], self.variances[k],
                        bool(self.degenerate[k]), self.histories[k], bool(self.converged[k]))

    def features(self) -> np.ndarray:
        """(F, 6): the :func:`extract_features` row of every fit."""
        return _features(self.trans, self.means, self.variances)


def _as_obs(obs) -> np.ndarray:
    arr = np.ascontiguousarray(obs, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] < 1:
        raise InvalidInputError("observations must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("observations must be finite")
    return arr


def forward_log_likelihood(model: HmmModel, obs) -> float:
    """log P(obs | model) via the scaled forward recursion."""
    o = _as_obs(obs)
    return float(backends.forward_loglik(o, model.trans, model.init, model.means, model.variances))


def viterbi(model: HmmModel, obs) -> np.ndarray:
    """A maximum-probability state path; ties resolve to the lower state."""
    o = _as_obs(obs)
    with np.errstate(divide="ignore"):
        log_trans = np.log(model.trans)
        log_init = np.log(model.init)
    return backends.viterbi_kernel(o, log_trans, log_init, model.means, model.variances)


def _segment_moments(values: np.ndarray, starts: np.ndarray, sizes: np.ndarray):
    """Mean and variance of each segment ``values[starts[k]:][:sizes[k]]``
    (0 if empty), bit for bit those of ``np.mean`` and ``np.var`` on the
    segment alone: numpy reduces each row of a C-contiguous matrix with the
    pairwise sum of a 1-D array, so segments of one size go in one matrix.
    (``np.bincount`` and ``np.add.reduceat`` sum in order instead.)"""
    mean, var = np.zeros(sizes.size), np.zeros(sizes.size)
    for size in np.unique(sizes[sizes > 0]).tolist():
        rows = np.flatnonzero(sizes == size)
        block = values[starts[rows, None] + np.arange(size)]
        mean[rows] = block.mean(axis=1)
        var[rows] = block.var(axis=1)
    return mean, var


def _start(obs: list[np.ndarray], lengths: np.ndarray):
    """Start parameters of all sequences, their variance floors and
    whether each is constant (min == max; both states then sit on the
    constant with the floor variance).

    Otherwise values up to the median (``np.quantile``'s linear rule) go to
    state 0, the rest to state 1, which is empty only when the median is
    the maximum and then starts there. Each state starts from its bucket's
    mean and variance, the whole variance for one value: with both states
    at the global spread, far-apart regimes leave EM crawling along a
    saddle for hundreds of iterations. Transitions start sticky and the
    start uniform, so the states differ without a random perturbation.
    """
    count = lengths.size
    flat = np.concatenate(obs) if obs else np.empty(0)
    starts = np.cumsum(lengths) - lengths
    seg = np.repeat(np.arange(count), lengths)
    ranked = flat[np.lexsort((flat, seg))]
    lo, hi = ranked[starts], ranked[starts + lengths - 1]
    mid = starts + (lengths - 1) // 2
    a, b = ranked[mid], ranked[mid + 1]
    median = np.where(lengths % 2 == 1, a, b - (b - a) * 0.5)
    upper = flat > median[seg]
    n1 = np.bincount(seg, upper, count).astype(np.int64)
    # rows: each whole sequence, then its values up to the median and the
    # rest, these two in time order after the stable sort
    sizes = np.stack([lengths, lengths - n1, n1])
    firsts = np.stack([starts, starts, starts + lengths - n1]) + [[0], [flat.size], [flat.size]]
    values = np.append(flat, flat[np.lexsort((upper, seg))])
    mean, var = (m.reshape(3, count) for m in _segment_moments(values, firsts.ravel(), sizes.ravel()))
    floor = VAR_FLOOR_SCALE * np.maximum(var[0], 1e-12)
    means = np.where(sizes[1:] > 0, mean[1:], hi).T
    variances = np.where(sizes[1:] > 1, np.maximum(var[1:], floor), np.maximum(var[0], floor)).T
    trans = np.tile([[0.9, 0.1], [0.1, 0.9]], (count, 1, 1))
    constant = lo == hi
    trans[constant] = 0.5
    means[constant] = flat[starts[constant], None]
    variances[constant] = floor[constant, None]
    return trans, np.full((count, 2), 0.5), means, variances, floor, constant


def _canonical(trans, init, means, variances):
    """Swap the states of every stacked two-state parameter set whose
    means (then variances) decrease."""
    m, v = means, variances
    s = ((m[:, 1] < m[:, 0]) | ((m[:, 1] == m[:, 0]) & (v[:, 1] < v[:, 0])))[:, None]
    return (np.where(s[:, :, None], trans[:, ::-1, ::-1], trans), np.where(s, init[:, ::-1], init),
            np.where(s, means[:, ::-1], means), np.where(s, variances[:, ::-1], variances))


def _features(trans, means, variances) -> np.ndarray:
    return np.column_stack([trans[:, 0, 0], trans[:, 1, 1], means, np.sqrt(variances)])


def baum_welch(obs, tol: float = 1e-6, max_iter: int = 200) -> HmmModel:
    """Fit a two-state HMM to one observation sequence by EM, as a
    function of ``obs`` and the arguments alone. The log-likelihood never
    decreases, and EM stops once it gains less than ``tol`` (or at
    ``max_iter``). A constant sequence cannot support estimation: both
    states then sit on the constant with floored variance, ``degenerate``.
    """
    return baum_welch_many([obs], tol, max_iter)[0]


def baum_welch_many(sequences, tol: float = 1e-6, max_iter: int = 200) -> HmmFits:
    """:func:`baum_welch` on each of several sequences, stacked.

    The start-up runs on all sequences at once and every non-constant one
    goes to the batched EM kernel in one call; fit ``k`` equals
    ``baum_welch(sequences[k], tol, max_iter)`` bit for bit, whatever the
    other sequences are.
    """
    if tol <= 0 or max_iter < 1:
        raise InvalidInputError("tol must be > 0 and max_iter >= 1")
    obs = [_as_obs(s) for s in sequences]
    lengths = np.array([o.size for o in obs], dtype=np.int64)
    if (lengths < 4).any():
        raise InvalidInputError(f"need at least 4 observations for 2 states, got {lengths.min()}")
    trans, init, means, variances, floor, constant = _start(obs, lengths)
    hists = [None] * len(obs)
    fit = np.flatnonzero(~constant)
    converged = np.ones(len(obs), dtype=bool)
    counts = np.zeros((len(obs), 4), dtype=np.int64)
    *params, fit_hists, converged[fit], counts[fit] = backends.baum_welch_batch(
        [obs[k] for k in fit], trans[fit], init[fit], means[fit], variances[fit],
        floor[fit], float(tol), int(max_iter),
    )
    trans[fit], init[fit], means[fit], variances[fit] = params
    for k, h in zip(fit.tolist(), fit_hists):
        hists[k] = h
    for k in np.flatnonzero(constant).tolist():
        hists[k] = np.array([backends.forward_loglik(obs[k], trans[k], init[k], means[k], variances[k])])
    if not (np.isfinite(means).all() and np.isfinite(variances).all()):
        raise NumericalError("Baum-Welch produced non-finite emission parameters")
    return HmmFits(*_canonical(trans, init, means, variances), constant, converged, tuple(hists), counts)


def extract_features(model: HmmModel) -> np.ndarray:
    """Six descriptors of a two-state model, independent of state labels:
    both self-transition probabilities, both state means, both state
    standard deviations."""
    if model.init.size != 2:
        raise InvalidInputError(f"feature extraction expects 2 states, got {model.init.size}")
    trans, _, means, variances = _canonical(
        model.trans[None], model.init[None], model.means[None], model.variances[None]
    )
    return _features(trans, means, variances)[0]
