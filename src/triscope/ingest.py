"""Notification-log parsing and assembly of the Users x Features x Hours
tensor.

The wire format is UTF-8 CSV with header ``user_id,timestamp`` and one
message per line (timestamp = integer Unix seconds, treated as UTC). Per
user, the inter-arrival time between consecutive messages lands in the hour
bin of the *later* message; a user's first message yields no inter-arrival.
The inter-arrivals of the whole log stay in one flat array, in the log's
(user, time) order, with an offset into it at the start of every (user,
hour) cell (:class:`HourlyDeltas`); an hour's values and a user's whole
window are slices of it.

Ten features per (user, hour):

==== ===============================================================
 0-5  two-state HMM descriptors (stay probabilities, means, SDs)
 6    mean inter-arrival (0 when fewer than two values)
 7    population variance of inter-arrivals (same rule)
 8    Shannon entropy of the inter-arrival histogram (same rule)
 9    message count in the hour
==== ===============================================================

The entropy histogram uses 16 log-spaced bins on [1 s, 3600 s] plus an
underflow bin (< 1 s) and an overflow bin (>= 3600 s).

Hours with at least ``min_obs`` inter-arrivals get their own HMM fit;
sparser hours fall back to the user's whole-window fit, and users whose
whole window is too sparse get zeros. Provenance of every cell is retained.
A user's features depend only on that user's messages, the window and the
HMM config, never on the other users in the log.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidInputError
from .hmm import baum_welch_many
from .tensor import _opened

__all__ = [
    "FEATURE_NAMES",
    "PROV_ZERO",
    "PROV_FALLBACK",
    "PROV_HOUR",
    "NotificationLog",
    "HourlyDeltas",
    "FeatureTensor",
    "HmmConfig",
    "parse_log",
    "write_log",
    "compute_deltas",
    "hour_summary_features",
    "build_feature_tensor",
    "preprocess",
]

HOUR = 3600

FEATURE_NAMES = (
    "hmm_stay_0",
    "hmm_stay_1",
    "hmm_mean_0",
    "hmm_mean_1",
    "hmm_sd_0",
    "hmm_sd_1",
    "dt_mean",
    "dt_variance",
    "dt_entropy",
    "msg_count",
)

PROV_ZERO = 0
PROV_FALLBACK = 1
PROV_HOUR = 2

_HEADER = "user_id,timestamp"

# 16 log-spaced bins on [1, 3600] seconds; searchsorted(..., "right") maps
# values < 1 to bin 0 (underflow) and values >= 3600 to bin 17 (overflow).
_ENTROPY_EDGES = np.logspace(0.0, np.log10(3600.0), 17)


@dataclass(frozen=True, eq=False)
class NotificationLog:
    """Messages sorted by (user_id, timestamp), deduplicated, all within
    ``[window_start, window_start + 3600 * window_hours)``."""

    users: np.ndarray  # str array
    timestamps: np.ndarray  # int64, parallel to users
    window_start: int
    window_hours: int

    @property
    def n_records(self) -> int:
        return int(self.timestamps.shape[0])


@dataclass(frozen=True, eq=False)
class HourlyDeltas:
    """Every user's inter-arrivals in one flat array, plus message counts.

    ``dt`` holds the inter-arrivals ordered by user, then time; the ones
    of user ``u`` in hour ``h`` are ``dt[bounds[u, h]:bounds[u, h + 1]]``.
    ``bounds`` is (users, hours + 1) with ``bounds[0, 0] == 0``,
    ``bounds[u, -1] == bounds[u + 1, 0]`` and ``bounds[-1, -1] ==
    dt.size``. ``counts[u, h]`` is the number of messages in that hour.
    """

    user_ids: tuple[str, ...]
    window_hours: int
    dt: np.ndarray
    bounds: np.ndarray
    counts: np.ndarray

    def deltas(self, u: int, h: int) -> np.ndarray:
        """The inter-arrivals of user ``u`` in hour ``h``, in time order."""
        return self.dt[self.bounds[u, h] : self.bounds[u, h + 1]]

    def window_series(self, u: int) -> np.ndarray:
        """All inter-arrivals of one user across the window, in time order."""
        return self.dt[self.bounds[u, 0] : self.bounds[u, -1]]


@dataclass(frozen=True, eq=False)
class FeatureTensor:
    """The Users x 10 x Hours tensor plus its labels.

    ``scale_mean``/``scale_sd`` are set by :func:`preprocess` (raw per-feature
    moments, so the transform is invertible; constant features record sd 0
    and are only centered). ``hmm_fits`` counts the HMM fits behind the
    tensor, ``hmm_fits_at_max_iter`` those that stopped at ``max_iter`` and
    ``hmm_em_counts`` sums their EM M-steps and extrapolations accepted,
    rejected and fallen back (see :class:`~triscope.hmm.HmmFits`); all three are set
    by :func:`build_feature_tensor`.
    """

    tensor: np.ndarray
    user_ids: tuple[str, ...]
    feature_names: tuple[str, ...] = FEATURE_NAMES
    provenance: np.ndarray | None = None
    scale_mean: np.ndarray | None = None
    scale_sd: np.ndarray | None = None
    hmm_fits: int = 0
    hmm_fits_at_max_iter: int = 0
    hmm_em_counts: tuple[int, ...] = (0, 0, 0, 0)

    def __post_init__(self):
        t = np.asarray(self.tensor, dtype=np.float64)
        if t.ndim != 3:
            raise InvalidInputError(f"feature tensor must be 3-D, got {t.shape}")
        if t.shape[0] != len(self.user_ids):
            raise InvalidInputError("user_ids length must match first extent")
        if t.shape[1] != len(self.feature_names):
            raise InvalidInputError("feature_names length must match second extent")
        object.__setattr__(self, "tensor", t)


@dataclass(frozen=True)
class HmmConfig:
    """Knobs for the per-cell HMM fits."""

    min_obs: int = 6
    tol: float = 1e-6
    max_iter: int = 200


def _record_lines(lines: list[str]) -> list[int]:
    """The line number of each record of :func:`parse_log`, whose loop
    skips blank lines. Worked out only for an error message, so parsing
    keeps no per-record list of line numbers."""
    return [n for n, line in enumerate(lines[1:], start=2) if line.strip()]


def parse_log(source, window_start: int | None = None, window_hours: int = 720) -> NotificationLog:
    """Parse the CSV wire format into a sorted, deduplicated log.

    ``source`` may be a path or a text/binary stream. When ``window_start``
    is None it defaults to the earliest timestamp rounded down to the hour
    (0 for an empty log). Timestamps outside the window are rejected with
    the offending line numbers, and so is a window whose bounds or span do
    not fit 64-bit integer seconds.
    """
    if window_hours < 1:
        raise InvalidInputError(f"window_hours must be >= 1, got {window_hours}")
    try:
        with _opened(source, "r") as f:
            raw = f.read()
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # a whole read decodes in one call, so exc.object holds every byte
        # read; those before the first invalid one decode, count their lines
        head = exc.object[: exc.start].decode("utf-8")
        raise InvalidInputError(
            f"line {len((head + 'x').splitlines())}: not valid UTF-8: {exc.reason}"
        ) from exc

    lines = raw.splitlines()
    if not lines or lines[0].strip().lstrip("﻿") != _HEADER:
        raise InvalidInputError(f"line 1: expected header {_HEADER!r}")

    users: list[str] = []
    stamps: list[int] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2 or not parts[0].strip():
            raise InvalidInputError(f"line {lineno}: expected 'user_id,timestamp', got {line!r}")
        try:
            ts = int(parts[1])
        except ValueError:
            raise InvalidInputError(f"line {lineno}: timestamp is not an integer: {parts[1]!r}")
        users.append(parts[0].strip())
        stamps.append(ts)

    info = np.iinfo(np.int64)
    try:
        ts_arr = np.asarray(stamps, dtype=np.int64)
    except OverflowError:
        k = next(k for k, ts in enumerate(stamps) if not info.min <= ts <= info.max)
        raise InvalidInputError(
            f"line {_record_lines(lines)[k]}: timestamp outside the 64-bit integer range: "
            f"{stamps[k]}"
        ) from None
    if window_start is None:
        window_start = int(ts_arr.min()) // HOUR * HOUR if ts_arr.size else 0
    window_end = window_start + HOUR * window_hours
    # hour bins are (ts - window_start) // HOUR in int64: the bounds and the
    # span must all fit, or the subtraction wraps around
    if not (info.min <= window_start and window_end <= info.max and HOUR * window_hours <= info.max):
        raise InvalidInputError(
            f"window [{window_start}, {window_end}) does not fit 64-bit integer seconds"
        )

    bad = np.flatnonzero((ts_arr < window_start) | (ts_arr >= window_end))
    if bad.size:
        linenos = _record_lines(lines)
        offenders = ", ".join(str(linenos[b]) for b in bad[:5])
        more = "" if bad.size <= 5 else f" (+{bad.size - 5} more)"
        raise InvalidInputError(
            f"{bad.size} timestamp(s) outside [{window_start}, {window_end}): lines {offenders}{more}"
        )

    user_arr = np.asarray(users, dtype=object)
    order = np.lexsort((ts_arr, user_arr))
    user_arr = user_arr[order]
    ts_arr = ts_arr[order]
    if ts_arr.size:
        keep = np.ones(ts_arr.size, dtype=bool)
        keep[1:] = (user_arr[1:] != user_arr[:-1]) | (ts_arr[1:] != ts_arr[:-1])
        user_arr = user_arr[keep]
        ts_arr = ts_arr[keep]
    ts_arr.flags.writeable = False
    return NotificationLog(user_arr, ts_arr, int(window_start), int(window_hours))


def write_log(log: NotificationLog, target) -> None:
    """Write a log back to the CSV wire format."""
    with _opened(target, "w") as f:
        f.write(_HEADER + "\n")
        for u, t in zip(log.users, log.timestamps):
            f.write(f"{u},{int(t)}\n")


def compute_deltas(log: NotificationLog) -> HourlyDeltas:
    """Split each user's inter-arrival series into hour bins."""
    h = log.window_hours
    ts = log.timestamps
    first = np.ones(ts.size, dtype=bool)  # each user's first message
    first[1:] = log.users[1:] != log.users[:-1]
    n_users = int(first.sum())
    # the log is sorted by (user, time), so cells never decrease
    cell = (np.cumsum(first) - 1) * h + (ts - log.window_start) // HOUR
    counts = np.bincount(cell, minlength=n_users * h).astype(np.int64).reshape(n_users, h)
    later = ~first
    dt = np.diff(ts)[later[1:]].astype(np.float64)
    bounds = np.searchsorted(cell[later], np.arange(n_users)[:, None] * h + np.arange(h + 1))
    dt.flags.writeable = False
    bounds.flags.writeable = False
    return HourlyDeltas(tuple(str(u) for u in log.users[first]), h, dt, bounds, counts)


def hour_summary_features(deltas, message_count: int) -> np.ndarray:
    """(mean, population variance, entropy, count) of one hour's
    inter-arrivals. Hours with fewer than two values report zeros for the
    first three."""
    d = np.asarray(deltas, dtype=np.float64)
    count = float(message_count)
    if d.size < 2:
        return np.array([0.0, 0.0, 0.0, count])
    mean = float(d.mean())
    var = float(d.var())
    idx = np.searchsorted(_ENTROPY_EDGES, d, side="right")
    occ = np.bincount(idx, minlength=_ENTROPY_EDGES.size + 1)
    p = occ[occ > 0] / d.size
    entropy = float(-(p * np.log(p)).sum())
    return np.array([mean, var, entropy, count])


def _summary_slabs(hourly: HourlyDeltas) -> np.ndarray:
    """Features 6-9 of every user-hour at once, (users, 4, hours): what
    :func:`hour_summary_features` gives cell by cell, with the sums taken
    in time order per cell."""
    n_users, n_hours = hourly.counts.shape
    cells = n_users * n_hours
    sizes = np.diff(hourly.bounds, axis=1).ravel()
    dt = hourly.dt
    cell = np.repeat(np.arange(cells), sizes)
    n = np.maximum(sizes, 1)
    mean = np.bincount(cell, dt, cells) / n
    dev = dt - mean[cell]
    var = np.bincount(cell, dev * dev, cells) / n
    # occupied (cell, bin) pairs only: a dense cells x bins table would
    # outweigh the deltas themselves
    bins = _ENTROPY_EDGES.size + 1
    hit, occ = np.unique(cell * bins + np.searchsorted(_ENTROPY_EDGES, dt, side="right"),
                         return_counts=True)
    p = occ / n[hit // bins]
    entropy = -np.bincount(hit // bins, p * np.log(p), cells)
    out = np.empty((4, cells))
    out[:3] = np.where(sizes >= 2, [mean, var, entropy], 0.0)
    out[3] = hourly.counts.ravel()
    return out.reshape(4, n_users, n_hours).transpose(1, 0, 2)


def build_feature_tensor(hourly: HourlyDeltas, config: HmmConfig = HmmConfig()) -> FeatureTensor:
    """Assemble the Users x 10 x Hours tensor from hourly inter-arrivals."""
    n_users = len(hourly.user_ids)
    n_hours = hourly.window_hours
    if n_users < 1 or n_hours < 1:
        raise InvalidInputError("need at least one user and one hour")

    x = np.zeros((n_users, 10, n_hours))
    prov = np.full((n_users, n_hours), PROV_ZERO, dtype=np.int8)

    # hours with min_obs inter-arrivals get their own fit; each user with a
    # sparser hour and min_obs inter-arrivals in the window gets a window
    # fit, whose features fill the sparse hours
    dense = np.diff(hourly.bounds, axis=1) >= config.min_obs
    window = hourly.bounds[:, -1] - hourly.bounds[:, 0]
    fitted = np.flatnonzero(~dense.all(axis=1) & (window >= config.min_obs))
    us, hs = np.nonzero(dense)
    seqs = [hourly.deltas(u, h) for u, h in zip(us.tolist(), hs.tolist())]
    seqs += [hourly.window_series(u) for u in fitted.tolist()]
    fits = baum_welch_many(seqs, config.tol, config.max_iter)
    feats = fits.features()

    x[us, :6, hs] = feats[: us.size]
    prov[dense] = PROV_HOUR
    fallback = np.zeros_like(dense)
    fallback[fitted] = ~dense[fitted]
    fu, fh = np.nonzero(fallback)
    x[fu, :6, fh] = feats[us.size + np.searchsorted(fitted, fu)]
    prov[fallback] = PROV_FALLBACK
    x[:, 6:] = _summary_slabs(hourly)

    return FeatureTensor(
        x, tuple(hourly.user_ids), FEATURE_NAMES, provenance=prov, hmm_fits=len(fits),
        hmm_fits_at_max_iter=int((~fits.converged).sum()),
        hmm_em_counts=tuple(fits.em_counts.sum(axis=0).tolist()),
    )


def preprocess(ft: FeatureTensor) -> FeatureTensor:
    """Center and scale every feature slab to zero mean, unit SD across the
    user x hour plane. Constant features are centered only. The applied
    moments ride on the returned tensor."""
    x = ft.tensor
    mean = x.mean(axis=(0, 2))
    sd = x.std(axis=(0, 2))
    scale = np.where(sd > 0.0, sd, 1.0)
    out = (x - mean[None, :, None]) / scale[None, :, None]
    return replace(ft, tensor=out, scale_mean=mean, scale_sd=sd)
