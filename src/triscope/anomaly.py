"""Abnormal-user ranking in the user-component space.

Users are projected onto the user-mode factor matrix; the anomaly score of a
user is the Euclidean distance of its factor row from the origin, min-max
normalized to [0, 1] per dataset so rankings from different datasets can be
compared with Pearson correlation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateInputError, InvalidInputError
from .tucker import TuckerModel

__all__ = ["AnomalyRanking", "user_scores", "ranking_correlation"]


@dataclass(frozen=True, eq=False)
class AnomalyRanking:
    """Users ordered by decreasing distance (ties: user_id ascending)."""

    user_ids: tuple[str, ...]
    distances: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        if not (len(self.user_ids) == self.distances.shape[0] == self.scores.shape[0]):
            raise InvalidInputError("ranking fields must have equal length")

    def score_of(self, user_id: str) -> float:
        idx = self.user_ids.index(user_id)
        return float(self.scores[idx])


def user_scores(
    model: TuckerModel,
    user_ids: Sequence[str],
    n_components: int | None = None,
) -> AnomalyRanking:
    """Rank users by the norm of their row of the user factor matrix.

    ``n_components`` restricts the distance to the first k components
    (default: all). Distances are min-max normalized; when every distance is
    equal, all scores are defined as 1.0.
    """
    a = model.factor_a
    if len(user_ids) != a.shape[0]:
        raise InvalidInputError(
            f"{len(user_ids)} user ids for {a.shape[0]} factor rows"
        )
    k = a.shape[1] if n_components is None else int(n_components)
    if not 1 <= k <= a.shape[1]:
        raise InvalidInputError(f"n_components={k} outside [1, {a.shape[1]}]")

    dist = np.linalg.norm(a[:, :k], axis=1)
    lo, hi = float(dist.min()), float(dist.max())
    if hi > lo:
        scores = (dist - lo) / (hi - lo)
    else:
        scores = np.ones_like(dist)

    ids = np.asarray([str(u) for u in user_ids], dtype=object)
    order = np.lexsort((ids, -dist))
    return AnomalyRanking(
        user_ids=tuple(ids[order]),
        distances=dist[order],
        scores=scores[order],
    )


def ranking_correlation(r1: AnomalyRanking, r2: AnomalyRanking) -> float:
    """Pearson correlation of normalized scores over the common users."""
    common = sorted(set(r1.user_ids) & set(r2.user_ids))
    if len(common) < 2:
        raise DegenerateInputError(
            f"need at least 2 common users, got {len(common)}"
        )
    s1 = np.array([r1.score_of(u) for u in common])
    s2 = np.array([r2.score_of(u) for u in common])
    d1 = s1 - s1.mean()
    d2 = s2 - s2.mean()
    v1 = float((d1 * d1).sum())
    v2 = float((d2 * d2).sum())
    if v1 == 0.0 or v2 == 0.0:
        raise DegenerateInputError("scores have zero variance on the common users")
    return float((d1 * d2).sum() / np.sqrt(v1 * v2))
