"""Per-user temporal trajectories in the feature-component space.

For each hour, a user's 10-feature vector is projected onto the columns of
the feature-mode factor matrix, giving one Q-dimensional point per hour.
The trajectory of a user is the time-ordered sequence of these points.
Projection uses the same (preprocessed) tensor the Tucker model was fit to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .ingest import FeatureTensor
from .tucker import TuckerModel

__all__ = ["Trajectories", "build_trajectories", "trajectory_distance"]


@dataclass(frozen=True, eq=False)
class Trajectories:
    """Equal-length trajectories of ``len(ids)`` items (users or cluster
    centers; at least one item, hour and component): ``coords[i, t]`` is
    item ``ids[i]``'s Q-vector at hour ``t``."""

    ids: tuple[str, ...]
    coords: np.ndarray  # (items, K, Q)

    def __post_init__(self):
        c = np.ascontiguousarray(self.coords, dtype=np.float64)
        if c.ndim != 3 or c.shape[0] != len(self.ids) or min(c.shape) < 1:
            raise InvalidInputError(
                f"coords must be ({len(self.ids)} items, hours, components), got {c.shape}"
            )
        if not np.isfinite(c).all():
            raise InvalidInputError("trajectory coordinates must be finite")
        object.__setattr__(self, "ids", tuple(self.ids))
        object.__setattr__(self, "coords", c)


def build_trajectories(ft: FeatureTensor, model: TuckerModel) -> Trajectories:
    """Project every user's hourly feature vectors onto the feature factors.

    ``ft`` must be the preprocessed tensor the model was fit to; its feature
    extent has to match the factor's rows.
    """
    b = model.factor_b
    x = ft.tensor
    if x.shape[1] != b.shape[0]:
        raise InvalidInputError(
            f"tensor has {x.shape[1]} features but factor expects {b.shape[0]}"
        )
    # coords[u, t, :] = X[u, :, t] . B
    return Trajectories(ft.user_ids, np.einsum("ujt,jq->utq", x, b))


def trajectory_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance between two (hours, components) trajectories
    flattened to vectors."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or a.shape != b.shape:
        raise InvalidInputError(f"trajectory shapes differ or are not 2-D: {a.shape} vs {b.shape}")
    return float(np.linalg.norm((a - b).ravel()))
