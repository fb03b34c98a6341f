"""Trajectory projection against explicit dot-product loops."""

import numpy as np
import pytest

from triscope import (
    FeatureTensor,
    InvalidInputError,
    Trajectories,
    build_trajectories,
    tensor3,
    trajectory_distance,
)
from triscope.tucker import TuckerModel


def model_with_factor_b(b, n_users, n_hours):
    b = np.asarray(b, dtype=float)
    q = b.shape[1]
    core = np.zeros((1, q, 1))
    return TuckerModel(core, np.ones((n_users, 1)), b, np.ones((n_hours, 1)), 0.0)


def feature_tensor(x):
    names = tuple(f"f{i}" for i in range(x.shape[1]))
    return FeatureTensor(x, tuple(f"u{i}" for i in range(x.shape[0])), names)


class TestBuildTrajectories:
    def test_zero_tensor_stays_at_origin(self):
        x = np.zeros((3, 4, 5))
        trjs = build_trajectories(feature_tensor(x), model_with_factor_b(np.ones((4, 2)), 3, 5))
        assert len(trjs.ids) == 3
        for coords in trjs.coords:
            assert coords.shape == (5, 2)
            assert not coords.any()

    def test_identity_projection_returns_features(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 4, 6))
        trjs = build_trajectories(feature_tensor(x), model_with_factor_b(np.eye(4), 2, 6))
        for u, coords in enumerate(trjs.coords):
            np.testing.assert_array_equal(coords, x[u].T)

    def test_matches_dot_product_loop(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 4, 5))
        b = np.linalg.qr(rng.normal(size=(4, 2)))[0]
        trjs = build_trajectories(feature_tensor(x), model_with_factor_b(b, 3, 5))
        for u in range(3):
            for k in range(5):
                for q in range(2):
                    expected = sum(x[u, j, k] * b[j, q] for j in range(4))
                    np.testing.assert_allclose(trjs.coords[u, k, q], expected, atol=1e-12)

    def test_hour_average_is_projection_of_mean_profile(self):
        """Averaging trajectory points over hours equals projecting the
        hour-averaged feature vector (both linear in the tensor)."""
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 6, 8))
        b = rng.normal(size=(6, 3))
        trjs = build_trajectories(feature_tensor(x), model_with_factor_b(b, 4, 8))
        for u in range(4):
            np.testing.assert_allclose(
                trjs.coords[u].mean(axis=0), x[u].mean(axis=1) @ b, atol=1e-10
            )

    def test_equivariant_under_rotation_of_components(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 5, 7))
        b = rng.normal(size=(5, 2))
        rot = np.linalg.qr(rng.normal(size=(2, 2)))[0]
        base = build_trajectories(feature_tensor(x), model_with_factor_b(b, 2, 7))
        rotated = build_trajectories(feature_tensor(x), model_with_factor_b(b @ rot, 2, 7))
        for t0, t1 in zip(base.coords, rotated.coords):
            np.testing.assert_allclose(t1, t0 @ rot, atol=1e-12)

    def test_feature_count_mismatch(self):
        x = np.zeros((2, 3, 4))
        with pytest.raises(InvalidInputError):
            build_trajectories(feature_tensor(x), model_with_factor_b(np.ones((5, 2)), 2, 4))


class TestTrajectories:
    @pytest.mark.parametrize("ids, coords", [
        (("a", "b"), np.array([[[0.0]], [[np.nan]]])),
        (("a", "b"), np.array([[[0.0]], [[np.inf]]])),
        (("a",), np.zeros((2, 3, 1))),
        (("a",), np.zeros((1, 0, 1))),
        (("a",), np.zeros((3, 1))),
    ])
    def test_rejects_non_finite_or_misshaped_coords(self, ids, coords):
        with pytest.raises(InvalidInputError):
            Trajectories(ids, coords)


class TestTrajectoryDistance:
    def test_identical_is_zero(self):
        t = np.arange(10.0).reshape(5, 2)
        assert trajectory_distance(t, t) == 0.0

    def test_single_hour_3_4_5(self):
        a = np.zeros((4, 2))
        b = np.zeros((4, 2))
        b[2] = (3.0, 4.0)
        assert trajectory_distance(a, b) == 5.0

    def test_matches_flattened_norm(self):
        rng = np.random.default_rng(4)
        c1 = rng.normal(size=(6, 3))
        c2 = rng.normal(size=(6, 3))
        expected = np.linalg.norm((c1 - c2).ravel())
        np.testing.assert_allclose(
            trajectory_distance(c1, c2), expected, atol=1e-12
        )

    def test_metric_properties(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a, b, c = (rng.normal(size=(4, 2)) for _ in range(3))
            dab = trajectory_distance(a, b)
            dba = trajectory_distance(b, a)
            assert dab == dba
            assert dab >= 0
            assert trajectory_distance(a, c) <= dab + trajectory_distance(b, c) + 1e-9

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            trajectory_distance(np.zeros((3, 2)), np.zeros((4, 2)))

    def test_tensor3_roundtrip_compatible(self):
        # trajectories built from a validated tensor carry plain finite floats
        x = tensor3(np.ones((2, 3, 4)))
        trjs = build_trajectories(feature_tensor(np.asarray(x)), model_with_factor_b(np.ones((3, 1)), 2, 4))
        assert np.isfinite(trjs.coords[0]).all()
