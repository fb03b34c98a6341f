"""Gaussian-emission hidden Markov models on inter-arrival series.

Covers the three classic problems on a single observation sequence:
likelihood via the scaled forward recursion, decoding via log-space Viterbi,
and parameter estimation via Baum-Welch, which :func:`baum_welch_many` runs
on many sequences in one batched call. All three run on the numpy kernels
of :mod:`triscope.backends`. The pipeline fixes two states; the routines
themselves work for any state count.

State order is canonical when means are non-decreasing; :func:`baum_welch`
returns canonical models and :func:`extract_features` canonicalizes its
input, so features never depend on state labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import backends
from .errors import InvalidInputError

__all__ = [
    "HmmModel",
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
    observation sequences; ``loglik_history`` holds the per-iteration
    log-likelihoods of the Baum-Welch fit that produced the model (empty for
    hand-built models). ``converged`` is False for a fit that stopped at
    ``max_iter``, its history then holding ``max_iter + 1`` entries.
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

    @property
    def n_states(self) -> int:
        return self.init.shape[0]

    @property
    def is_canonical(self) -> bool:
        return bool(np.all(np.diff(self.means) >= 0))

    def canonicalize(self) -> "HmmModel":
        """Relabel states so means are non-decreasing (variance breaks ties)."""
        order = np.lexsort((self.variances, self.means))
        if np.array_equal(order, np.arange(self.n_states)):
            return self
        return HmmModel(
            trans=self.trans[np.ix_(order, order)],
            init=self.init[order],
            means=self.means[order],
            variances=self.variances[order],
            degenerate=self.degenerate,
            loglik_history=self.loglik_history,
            converged=self.converged,
        )


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


def _initial_params(obs: np.ndarray, n_states: int, seed: int, var_floor: float):
    """Deterministic seeded start: quantile-split means and per-bucket
    variances (k-means style), sticky transitions, uniform start, all
    perturbed by +/-1% jitter.

    Bucket variances rather than the pooled variance: with both states
    initialized to the global spread, far-separated regimes leave the
    responsibilities nearly uniform and EM crawls along a saddle for
    hundreds of iterations before splitting the states.
    """
    n = n_states
    edges = np.quantile(obs, np.arange(1, n) / n)
    bucket = np.searchsorted(edges, obs, side="left")
    global_var = max(float(obs.var()), var_floor)
    means = np.empty(n)
    variances = np.empty(n)
    for k in range(n):
        sel = obs[bucket == k]
        means[k] = sel.mean() if sel.size else float(np.quantile(obs, (k + 0.5) / n))
        variances[k] = max(float(sel.var()), var_floor) if sel.size > 1 else global_var
    trans = np.full((n, n), 0.1 / (n - 1) if n > 1 else 0.0)
    np.fill_diagonal(trans, 0.9 if n > 1 else 1.0)
    init = np.full(n, 1.0 / n)

    rng = np.random.default_rng(seed)

    def jitter(a: np.ndarray) -> np.ndarray:
        return a * (1.0 + 0.01 * rng.uniform(-1.0, 1.0, size=a.shape))

    trans = jitter(trans)
    trans /= trans.sum(axis=1, keepdims=True)
    init = jitter(init)
    init /= init.sum()
    means = jitter(means)
    variances = np.maximum(jitter(variances), var_floor)
    return trans, init, means, variances


def baum_welch(
    obs,
    n_states: int = 2,
    seed: int = 0,
    tol: float = 1e-6,
    max_iter: int = 200,
) -> HmmModel:
    """Fit an HMM to one observation sequence by EM.

    The log-likelihood is non-decreasing across iterations and the loop stops
    once it improves by less than ``tol`` (or at ``max_iter``). A constant
    sequence cannot support estimation: the returned model then collapses
    both states onto the constant with floored variance and sets
    ``degenerate``.
    """
    return baum_welch_many([obs], n_states, [seed], tol, max_iter)[0]


def baum_welch_many(
    sequences,
    n_states: int = 2,
    seeds=None,
    tol: float = 1e-6,
    max_iter: int = 200,
) -> list[HmmModel]:
    """:func:`baum_welch` on each of several sequences, ``seeds[k]`` seeding
    the start of ``sequences[k]`` (all 0 when omitted).

    All non-constant sequences go to the batched EM kernel in one call, and
    element ``k`` equals ``baum_welch(sequences[k], n_states, seeds[k], tol,
    max_iter)`` bit for bit, whatever the other sequences are.
    """
    if n_states < 1:
        raise InvalidInputError(f"n_states must be >= 1, got {n_states}")
    if tol <= 0 or max_iter < 1:
        raise InvalidInputError("tol must be > 0 and max_iter >= 1")
    obs = [_as_obs(s) for s in sequences]
    seeds = [0] * len(obs) if seeds is None else list(seeds)
    if len(seeds) != len(obs):
        raise InvalidInputError(f"got {len(seeds)} seeds for {len(obs)} sequences")

    models: list[HmmModel | None] = [None] * len(obs)
    fit: list[int] = []
    starts = []
    for k, (o, seed) in enumerate(zip(obs, seeds)):
        if o.shape[0] < 2 * n_states:
            raise InvalidInputError(
                f"need at least {2 * n_states} observations for {n_states} states, got {o.shape[0]}"
            )
        var_floor = VAR_FLOOR_SCALE * max(float(o.var()), 1e-12)
        if np.all(o == o[0]):
            n = n_states
            trans = np.full((n, n), 1.0 / n)
            init = np.full(n, 1.0 / n)
            means = np.full(n, float(o[0]))
            variances = np.full(n, var_floor)
            ll = backends.forward_loglik(o, trans, init, means, variances)
            models[k] = HmmModel(trans, init, means, variances, degenerate=True,
                                 loglik_history=np.array([ll]))
        else:
            fit.append(k)
            starts.append((*_initial_params(o, n_states, seed, var_floor), var_floor))

    if fit:
        trans, init, means, variances, floors = (np.array(p) for p in zip(*starts))
        trans, init, means, variances, hists = backends.baum_welch_batch(
            [obs[k] for k in fit], trans, init, means, variances, floors, float(tol), int(max_iter)
        )
        for pos, k in enumerate(fit):
            model = HmmModel(trans[pos], init[pos], means[pos], variances[pos],
                             degenerate=False, loglik_history=hists[pos],
                             converged=len(hists[pos]) <= max_iter)
            models[k] = model.canonicalize()
    return models


def extract_features(model: HmmModel) -> np.ndarray:
    """Six descriptors of a two-state model, independent of state labels:
    both self-transition probabilities, both state means, both state
    standard deviations."""
    if model.n_states != 2:
        raise InvalidInputError(f"feature extraction expects 2 states, got {model.n_states}")
    m = model.canonicalize()
    return np.array(
        [
            m.trans[0, 0],
            m.trans[1, 1],
            m.means[0],
            m.means[1],
            np.sqrt(m.variances[0]),
            np.sqrt(m.variances[1]),
        ]
    )
