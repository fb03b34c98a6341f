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
from typing import Sequence

import numpy as np

from . import backends
from .errors import InvalidInputError
from .trajectory import Trajectory

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


def _as_points(items) -> np.ndarray:
    if isinstance(items, np.ndarray):
        pts = np.asarray(items, dtype=np.float64)
        if pts.ndim != 2:
            raise InvalidInputError(f"points must be 2-D, got {pts.shape}")
        if not np.isfinite(pts).all():
            raise InvalidInputError("points must be finite")
        return np.ascontiguousarray(pts)
    rows = []
    shape = None
    for it in items:
        if not isinstance(it, Trajectory):
            raise InvalidInputError("expected trajectories or a 2-D array")
        if shape is None:
            shape = it.coords.shape
        elif it.coords.shape != shape:
            raise InvalidInputError("all trajectories must have equal shapes")
        rows.append(it.flattened())
    if not rows:
        raise InvalidInputError("need at least 2 items to cluster")
    return np.ascontiguousarray(np.vstack(rows))


def ward_cluster(items) -> Dendrogram:
    """Agglomerate trajectories (or row vectors) under Ward's criterion.

    Ties on the merge objective pick the lexicographically smallest
    ``(left, right)`` node-id pair, so the merge sequence is deterministic.
    """
    pts = _as_points(items)
    if pts.shape[0] < 2:
        raise InvalidInputError(f"need at least 2 items to cluster, got {pts.shape[0]}")
    merges = backends.ward_linkage(pts)
    return Dendrogram(merges, pts.shape[0])


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
    hmax = float(dendrogram.heights[-1]) if n > 1 else 0.0
    parent = np.arange(2 * n - 1)

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for s in range(n - 1):
        h = dendrogram.merges[s, 2]
        norm = (h / hmax) if hmax > 0 else 0.0
        if norm > cutoff:
            break  # heights are monotone: everything above is undone
        left, right = int(dendrogram.merges[s, 0]), int(dendrogram.merges[s, 1])
        new = n + s
        parent[find(left)] = new
        parent[find(right)] = new

    roots = np.array([find(i) for i in range(n)])
    clusters: dict[int, list[int]] = {}
    for leaf, root in enumerate(roots):
        clusters.setdefault(int(root), []).append(leaf)
    ordered = sorted(clusters.values(), key=lambda leaves: (-len(leaves), leaves[0]))
    labels = np.empty(n, dtype=np.int64)
    for label, leaves in enumerate(ordered):
        labels[leaves] = label
    return labels


def center_trajectory(members: Sequence[Trajectory], label: str = "center") -> Trajectory:
    """Pointwise mean trajectory of a non-empty cluster."""
    if len(members) == 0:
        raise InvalidInputError("cluster must be non-empty")
    shape = members[0].coords.shape
    for m in members[1:]:
        if m.coords.shape != shape:
            raise InvalidInputError("all member trajectories must have equal shapes")
    stack = np.stack([m.coords for m in members])
    return Trajectory(label, stack.mean(axis=0))


def detect_events(
    center: Trajectory,
    k_mad: float = 3.0,
    min_duration: int = 5,
    gap_hours: int = 2,
) -> EventScan:
    """Flag sustained deviations of a center trajectory.

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

    coords = center.coords
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
        windows.append(EventWindow(start, end, severity, center.user_id))
    return EventScan(windows=tuple(windows), degenerate=False)
