"""Rigid-transform primitives checked against scipy's rotation algebra and
finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from stein_icp import (
    InputError,
    Pose6D,
    invert,
    matrix_to_pose,
    pose_array,
    pose_to_matrix,
    rotation_from_euler,
    rotation_partials,
    se3_adjoint,
    skew,
    transform_points,
    wrap_angle,
)

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def random_pose(rng, max_pitch=1.4):
    t = rng.uniform(-2, 2, 3)
    roll, yaw = rng.uniform(-np.pi, np.pi, 2)
    pitch = rng.uniform(-max_pitch, max_pitch)
    return Pose6D(t[0], t[1], t[2], roll, pitch, yaw)


class TestWrapAngle:
    def test_scalar_values(self):
        assert wrap_angle(0.0) == 0.0
        assert wrap_angle(np.pi / 2) == pytest.approx(np.pi / 2)
        assert wrap_angle(-np.pi / 2) == pytest.approx(-np.pi / 2)

    def test_seam_maps_into_interval(self):
        """Angles at or near +-pi land inside [-pi, pi) on the same point of
        the circle (float sin(pi) is not exactly zero, so the seam value may
        come back as either endpoint representation)."""
        for a in (np.pi, -np.pi, 3 * np.pi, -3 * np.pi):
            w = wrap_angle(a)
            assert -np.pi <= w < np.pi
            assert np.cos(w) == pytest.approx(np.cos(a), abs=1e-12)
            assert np.sin(w) == pytest.approx(np.sin(a), abs=1e-12)

    def test_array_half_open_interval(self, rng):
        a = rng.uniform(-50, 50, 1000)
        w = wrap_angle(a)
        assert np.all(w >= -np.pi)
        assert np.all(w < np.pi)

    @given(angles, st.integers(min_value=-3, max_value=3))
    def test_periodicity(self, a, k):
        assert wrap_angle(a + 2 * np.pi * k) == pytest.approx(wrap_angle(a), abs=1e-9)

    @given(angles)
    def test_idempotent(self, a):
        w = wrap_angle(a)
        assert wrap_angle(w) == pytest.approx(w, abs=1e-12)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


far_angles = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
angle_arrays = st.lists(far_angles, min_size=1, max_size=40).map(np.array)


class TestWrapAngleProperties:
    """The shift-based wrap: its interval, exactness, and agreement with the
    arctan2 formula it replaces, on scalars and on arrays."""

    @given(angle_arrays)
    def test_result_in_half_open_interval(self, a):
        w = wrap_angle(a)
        assert np.all(w >= -np.pi) and np.all(w < np.pi)
        assert -np.pi <= wrap_angle(float(a[0])) < np.pi

    @given(st.lists(st.floats(min_value=-np.pi, max_value=np.pi, exclude_max=True),
                    min_size=1, max_size=40).map(np.array))
    def test_in_range_is_bitwise_unchanged(self, a):
        np.testing.assert_array_equal(_bits(wrap_angle(a)), _bits(a))
        assert _bits(wrap_angle(float(a[0]))) == _bits(a[0])

    @given(st.floats(min_value=np.pi, max_value=3 * np.pi, exclude_max=True))
    def test_one_turn_above_is_exact_shift(self, a):
        shifted = a - 2 * np.pi
        if -np.pi <= shifted < np.pi:
            assert _bits(wrap_angle(a)) == _bits(shifted)
            assert _bits(wrap_angle(np.array([a]))) == _bits([shifted])

    @given(st.floats(min_value=-3 * np.pi, max_value=-np.pi, exclude_max=True))
    def test_one_turn_below_is_exact_shift(self, a):
        shifted = a + 2 * np.pi
        if -np.pi <= shifted < np.pi:
            assert _bits(wrap_angle(a)) == _bits(shifted)
            assert _bits(wrap_angle(np.array([a]))) == _bits([shifted])

    @given(angle_arrays)
    def test_far_inputs_agree_with_arctan2(self, a):
        diff = wrap_angle(a) - np.arctan2(np.sin(a), np.cos(a))
        diff -= 2 * np.pi * np.round(diff / (2 * np.pi))   # +pi and -pi are one angle
        assert np.abs(diff).max() < 1e-9


class TestRotationFromEuler:
    def test_matches_scipy(self, rng):
        """Extrinsic x-y-z application order equals Rz(yaw) Ry(pitch) Rx(roll)."""
        for _ in range(50):
            roll, pitch, yaw = rng.uniform(-np.pi, np.pi, 3)
            ours = rotation_from_euler(roll, pitch, yaw)
            ref = Rotation.from_euler("xyz", [roll, pitch, yaw]).as_matrix()
            np.testing.assert_allclose(ours, ref, atol=1e-12)

    def test_identity(self):
        np.testing.assert_allclose(rotation_from_euler(0, 0, 0), np.eye(3), atol=1e-15)

    def test_orthonormal(self, rng):
        for _ in range(20):
            R = rotation_from_euler(*rng.uniform(-np.pi, np.pi, 3))
            np.testing.assert_allclose(R.T @ R, np.eye(3), atol=1e-12)
            assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)

    def test_broadcasting(self, rng):
        r, p, y = rng.uniform(-1, 1, (3, 7))
        R = rotation_from_euler(r, p, y)
        assert R.shape == (7, 3, 3)
        for i in range(7):
            np.testing.assert_allclose(R[i], rotation_from_euler(r[i], p[i], y[i]),
                                       atol=1e-15)


class TestRotationPartials:
    def test_matches_finite_differences(self, rng):
        h = 1e-6
        for _ in range(30):
            a = rng.uniform(-np.pi, np.pi, 3)
            parts = rotation_partials(*a)
            for k in range(3):
                hi, lo = a.copy(), a.copy()
                hi[k] += h
                lo[k] -= h
                fd = (rotation_from_euler(*hi) - rotation_from_euler(*lo)) / (2 * h)
                np.testing.assert_allclose(parts[k], fd, atol=1e-8)

    def test_broadcast_shape(self, rng):
        r, p, y = rng.uniform(-1, 1, (3, 5))
        assert rotation_partials(r, p, y).shape == (5, 3, 3, 3)


class TestPoseMatrixRoundtrip:
    def test_roundtrip_random(self, rng):
        for _ in range(100):
            pose = random_pose(rng)
            back = matrix_to_pose(pose_to_matrix(pose))
            np.testing.assert_allclose(back.to_array(), pose.to_array(), atol=1e-10)

    def test_accepts_arrays(self, rng):
        vec = rng.uniform(-1, 1, 6)
        np.testing.assert_allclose(pose_to_matrix(vec),
                                   pose_to_matrix(Pose6D.from_array(vec)), atol=0)

    def test_gimbal_pitch_convention(self):
        """At pitch = +-pi/2 the returned pose has roll = 0 and still
        reproduces the input matrix."""
        for sign in (+1.0, -1.0):
            pose = Pose6D(0.3, -0.1, 0.2, 0.4, sign * np.pi / 2, 1.1)
            T = pose_to_matrix(pose)
            back = matrix_to_pose(T)
            assert back.roll == 0.0
            assert back.pitch == pytest.approx(sign * np.pi / 2, abs=1e-9)
            np.testing.assert_allclose(pose_to_matrix(back), T, atol=1e-9)

    def test_reorthonormalizes_drifted_input(self, rng):
        pose = random_pose(rng)
        T = pose_to_matrix(pose)
        T[:3, :3] += rng.normal(0, 1e-6, (3, 3))
        back = matrix_to_pose(T)
        np.testing.assert_allclose(back.to_array(), pose.to_array(), atol=1e-5)

    def test_shape_validation(self):
        with pytest.raises(InputError, match=r"expected 4x4 matrix, got \(3, 3\)"):
            matrix_to_pose(np.eye(3))


class TestComposeInvert:
    def test_invert_matches_numpy(self, rng):
        for _ in range(20):
            T = pose_to_matrix(random_pose(rng))
            np.testing.assert_allclose(invert(T), np.linalg.inv(T), atol=1e-12)

    def test_invert_roundtrip(self, rng):
        T = pose_to_matrix(random_pose(rng))
        np.testing.assert_allclose(invert(T) @ T, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(T @ invert(T), np.eye(4), atol=1e-12)


class TestTransformPoints:
    def test_matches_homogeneous(self, rng):
        pose = random_pose(rng)
        pts = rng.uniform(-1, 1, (50, 3))
        T = pose_to_matrix(pose)
        hom = np.column_stack([pts, np.ones(50)]) @ T.T
        np.testing.assert_allclose(transform_points(pts, pose), hom[:, :3], atol=1e-12)

    def test_identity_pose(self, rng):
        pts = rng.uniform(-1, 1, (10, 3))
        np.testing.assert_allclose(transform_points(pts, Pose6D()), pts, atol=0)


class TestPoseArray:
    def test_accepted_forms_agree(self, rng):
        vec = rng.uniform(-2, 2, 6)
        want = Pose6D.from_array(vec).to_array()
        for form in (Pose6D(*vec), vec, list(vec), tuple(vec), vec.reshape(1, 6)):
            got = pose_array(form)
            assert got.shape == (6,) and got.dtype == np.float64
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("bad", [[0.1, 0.2, 0.3], np.eye(4), np.zeros(7), "pose", None],
                             ids=["three", "matrix", "seven", "text", "none"])
    def test_every_pose_taker_rejects_other_input(self, bad):
        for call in (pose_array, pose_to_matrix, Pose6D.from_array,
                     lambda p: transform_points(np.zeros((2, 3)), p)):
            with pytest.raises(InputError):
                call(bad)


class TestSkewAdjoint:
    def test_skew_is_cross_product(self, rng):
        for _ in range(10):
            v, w = rng.normal(size=(2, 3))
            np.testing.assert_allclose(skew(v) @ w, np.cross(v, w), atol=1e-14)
            np.testing.assert_allclose(skew(v), -skew(v).T, atol=0)

    def test_adjoint_blocks(self, rng):
        pose = random_pose(rng)
        T = pose_to_matrix(pose)
        ad = se3_adjoint(T)
        R, t = T[:3, :3], T[:3, 3]
        np.testing.assert_allclose(ad[:3, :3], R, atol=0)
        np.testing.assert_allclose(ad[3:, 3:], R, atol=0)
        np.testing.assert_allclose(ad[:3, 3:], skew(t) @ R, atol=1e-14)
        np.testing.assert_allclose(ad[3:, :3], 0, atol=0)

    def test_adjoint_transports_small_twists(self, rng):
        """T Exp(xi) T^-1 = Exp(Ad_T xi) to first order in the twist."""
        eps = 1e-5
        for _ in range(10):
            T = pose_to_matrix(random_pose(rng))
            xi = rng.normal(size=6)
            left = T @ pose_to_matrix(eps * xi) @ invert(T)
            right = pose_to_matrix(eps * (se3_adjoint(T) @ xi))
            np.testing.assert_allclose(left, right, atol=5e-9)

    def test_adjoint_of_composition(self, rng):
        a = pose_to_matrix(random_pose(rng))
        b = pose_to_matrix(random_pose(rng))
        np.testing.assert_allclose(se3_adjoint(a @ b),
                                   se3_adjoint(a) @ se3_adjoint(b), atol=1e-12)


class TestPose6D:
    def test_array_roundtrip(self, rng):
        vec = rng.uniform(-2, 2, 6)
        np.testing.assert_allclose(Pose6D.from_array(vec).to_array(), vec, atol=0)

    def test_defaults_identity(self):
        np.testing.assert_allclose(Pose6D().to_array(), np.zeros(6), atol=0)
        np.testing.assert_allclose(pose_to_matrix(Pose6D()), np.eye(4), atol=0)


@settings(max_examples=60, deadline=None)
@given(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2),
       st.floats(-3.1, 3.1), st.floats(-1.4, 1.4), st.floats(-3.1, 3.1))
def test_roundtrip_property(x, y, z, roll, pitch, yaw):
    """pose -> matrix -> pose is the identity for wrapped poses away from
    the pitch singularity."""
    pose = Pose6D(x, y, z, roll, pitch, yaw)
    back = matrix_to_pose(pose_to_matrix(pose))
    np.testing.assert_allclose(back.to_array(), pose.to_array(), atol=1e-9)
