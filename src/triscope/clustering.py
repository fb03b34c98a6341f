"""Ward clustering of trajectories and event detection on cluster centers.

Trajectories are flattened to (hours * components)-vectors and merged
agglomeratively under Ward's minimum-variance criterion by one numpy kernel,
``backends.ward_linkage`` (Lance-Williams updates with a nearest-neighbour
cache per row). The tests hold two oracles: a from-scratch recompute of the
objective, and the full-scan agglomeration the kernel must match bit for
bit.
Merge heights follow the convention where two singletons merge at their
Euclidean distance, i.e. ``height = sqrt(2 * increase in within-cluster SS)``.

Cutting normalizes heights by the final merge height, so a cutoff of 1
keeps everything in one cluster and smaller cutoffs undo the top merges.

Events are sustained deviations of a cluster-center trajectory from its
typical position: hours whose distance from the coordinate-wise median
exceeds ``median + k * MAD`` are flagged, short gaps are bridged, and runs
shorter than ``min_duration`` are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import backends
from .errors import InvalidInputError
from .trajectory import Trajectories

__all__ = [
    "Dendrogram",
    "EventWindow",
    "EventScan",
    "ward_cluster",
    "cut",
    "center_trajectory",
    "detect_events",
]


@dataclass(frozen=True, eq=False)
class Dendrogram:
    """Merge list of an agglomeration over ``n_leaves`` items.

    Row ``s`` of ``merges`` is ``(left, right, height, size)``: node ids of
    the merged clusters (leaves are ``0..n-1``, the merge at step ``s``
    creates node ``n+s``), the merge height, and the new cluster size.
    """

    merges: np.ndarray
    n_leaves: int

    def __post_init__(self):
        m = np.asarray(self.merges, dtype=np.float64)
        if m.shape != (self.n_leaves - 1, 4):
            raise InvalidInputError(
                f"expected {(self.n_leaves - 1, 4)} merge array, got {m.shape}"
            )
        heights = m[:, 2]
        if np.any(np.diff(heights) < -1e-9 * max(1.0, float(heights.max(initial=0.0)))):
            raise InvalidInputError("merge heights must be non-decreasing")
        sizes = m[:, 3].astype(np.int64)
        lookup = np.ones(2 * self.n_leaves - 1, dtype=np.int64)
        for s in range(m.shape[0]):
            left, right = int(m[s, 0]), int(m[s, 1])
            if lookup[left] + lookup[right] != sizes[s]:
                raise InvalidInputError(f"merge {s}: size {sizes[s]} inconsistent")
            lookup[self.n_leaves + s] = sizes[s]
        object.__setattr__(self, "merges", m)

    @property
    def heights(self) -> np.ndarray:
        return self.merges[:, 2]


@dataclass(frozen=True)
class EventWindow:
    """Inclusive hour interval where a center trajectory deviates."""

    start_hour: int
    end_hour: int
    severity: float
    cluster_id: str

    def __post_init__(self):
        if self.start_hour > self.end_hour:
            raise InvalidInputError("start_hour must be <= end_hour")

    @property
    def duration(self) -> int:
        return self.end_hour - self.start_hour + 1


@dataclass(frozen=True)
class EventScan:
    """Detected windows plus a flag for constant (unassessable) centers."""

    windows: tuple[EventWindow, ...]
    degenerate: bool = False


def ward_cluster(items) -> Dendrogram:
    """Agglomerate trajectories (or the rows of a 2-D array) under Ward's
    criterion; each trajectory is one point of hours * components values.

    Ties on the merge objective pick the lexicographically smallest
    ``(left, right)`` node-id pair, so the merge sequence is deterministic.
    """
    if isinstance(items, Trajectories):
        pts = items.coords.reshape(len(items.ids), -1)
    else:
        pts = np.ascontiguousarray(items, dtype=np.float64)
        if pts.ndim != 2:
            raise InvalidInputError(f"points must be 2-D, got {pts.shape}")
        if not np.isfinite(pts).all():
            raise InvalidInputError("points must be finite")
    if pts.shape[0] < 2:
        raise InvalidInputError(f"need at least 2 items to cluster, got {pts.shape[0]}")
    return Dendrogram(backends.ward_linkage(pts), pts.shape[0])


def cut(dendrogram: Dendrogram, cutoff: float) -> np.ndarray:
    """Cluster labels after undoing merges above the normalized cutoff.

    Heights are divided by the final (largest) merge height, mapping them
    onto (0, 1]; merges with normalized height > ``cutoff`` are undone.
    Labels are contiguous integers, 0 = largest cluster (ties broken by the
    smallest member leaf).
    """
    if cutoff <= 0:
        raise InvalidInputError(f"cutoff must be positive, got {cutoff}")
    n = dendrogram.n_leaves
    merges = dendrogram.merges
    hmax = float(dendrogram.heights[-1]) if n > 1 else 0.0
    norm = dendrogram.heights / hmax if hmax > 0 else np.zeros(n - 1)
    # heights are monotone: the merges kept are those before the first one above
    above = np.flatnonzero(norm > cutoff)
    kept = int(above[0]) if above.size else n - 1
    # node n + s is made by merge s, so a reverse pass meets every parent
    # before its children and each node takes its parent's root
    root = np.arange(n + kept)
    for s in range(kept - 1, -1, -1):
        root[int(merges[s, 0])] = root[int(merges[s, 1])] = root[n + s]
    _, smallest_leaf, cluster, size = np.unique(
        root[:n], return_index=True, return_inverse=True, return_counts=True
    )
    label = np.empty(size.size, dtype=np.int64)
    label[np.lexsort((smallest_leaf, -size))] = np.arange(size.size)
    return label[cluster]


def center_trajectory(trajectories: Trajectories, labels) -> Trajectories:
    """Pointwise mean trajectory of every cluster: center ``k`` (id
    ``str(k)``) is the mean of the items labelled ``k``, for ``k`` from 0 to
    the largest label; each of these clusters must be non-empty."""
    labels = np.asarray(labels)
    if labels.shape != (len(trajectories.ids),) or not np.issubdtype(labels.dtype, np.integer):
        raise InvalidInputError(f"need one integer label per item, got {labels.shape} {labels.dtype}")
    if labels.min() < 0 or not np.bincount(labels).all():
        raise InvalidInputError("cluster labels must be 0..k-1, each with members")
    k = int(labels.max()) + 1
    coords = np.stack([trajectories.coords[labels == c].mean(axis=0) for c in range(k)])
    return Trajectories(tuple(str(c) for c in range(k)), coords)


def detect_events(
    coords: np.ndarray,
    cluster_id: str = "center",
    k_mad: float = 3.0,
    min_duration: int = 5,
    gap_hours: int = 2,
) -> EventScan:
    """Flag sustained deviations of a center trajectory, the (hours,
    components) array ``coords``; its windows carry ``cluster_id``.

    Per-hour deviation is the Euclidean distance from the coordinate-wise
    median point. Hours with deviation above ``median + k_mad * MAD`` are
    flagged; consecutive flagged runs separated by at most ``gap_hours``
    quiet hours merge into one window; windows shorter than ``min_duration``
    are dropped. Severity is the peak of ``(deviation - median) / MAD``
    inside the window (raw ``deviation - median`` when MAD is zero).

    A constant deviation series cannot be assessed: the scan is returned
    empty with ``degenerate`` set.
    """
    if min_duration < 1:
        raise InvalidInputError(f"min_duration must be >= 1, got {min_duration}")
    if gap_hours < 0:
        raise InvalidInputError(f"gap_hours must be >= 0, got {gap_hours}")

    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim != 2 or coords.shape[0] < 1 or not np.isfinite(coords).all():
        raise InvalidInputError(
            f"center must be a finite (hours, components) array, got {coords.shape}"
        )
    midpoint = np.median(coords, axis=0)
    dev = np.linalg.norm(coords - midpoint[None, :], axis=1)
    if float(dev.max()) == float(dev.min()):
        return EventScan(windows=(), degenerate=True)

    med = float(np.median(dev))
    mad = float(np.median(np.abs(dev - med)))
    scale = mad if mad > 0 else 1.0
    flagged = dev > med + k_mad * mad

    runs: list[list[int]] = []
    for t in np.flatnonzero(flagged):
        if runs and t - runs[-1][1] - 1 <= gap_hours:
            runs[-1][1] = int(t)
        else:
            runs.append([int(t), int(t)])

    windows = []
    for start, end in runs:
        if end - start + 1 < min_duration:
            continue
        severity = float(((dev[start : end + 1] - med) / scale).max())
        windows.append(EventWindow(start, end, severity, cluster_id))
    return EventScan(windows=tuple(windows), degenerate=False)
