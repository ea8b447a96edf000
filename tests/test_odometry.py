"""Pose chain composition, fourth-order covariance propagation (against a
Monte-Carlo oracle that perturbs by the SE(3) exponential), confidence
ellipses, and export rows."""

import numpy as np
import pytest

from stein_icp import (
    InputError,
    Pose6D,
    PoseDistribution,
    TrajectoryEstimate,
    build_trajectory,
    compound_covariance,
    confidence_ellipse,
    ellipse_rows,
    matrix_to_pose,
    pose_to_matrix,
    se3_adjoint,
    trajectory_rows,
)

from oracles import mc_compose_chain, se3_exp, se3_log


def _random_step_cov(rng, trace_cap=1e-2):
    a = rng.normal(size=(6, 6)) * 0.01
    c = a @ a.T
    c *= trace_cap / max(np.trace(c), 1e-12) * rng.uniform(0.3, 1.0)
    return c


def _chain(steps):
    """build_trajectory over mean-only steps: each with zero covariance."""
    return build_trajectory([(pose_to_matrix(p), np.zeros((6, 6))) for p in steps])


class TestCompoundPoses:
    """The mean chain of build_trajectory."""

    def test_translation_chain_hand_values(self):
        traj = _chain([Pose6D(0.1, 0, 0), Pose6D(0.1, 0, 0)])
        assert len(traj) == 3
        np.testing.assert_array_equal(traj.transforms[0], np.eye(4))
        np.testing.assert_allclose(traj.transforms[1][:3, 3], [0.1, 0, 0], rtol=1e-12)
        np.testing.assert_allclose(traj.transforms[2][:3, 3], [0.2, 0, 0], rtol=1e-12)
        np.testing.assert_array_equal(traj.covariances, np.zeros((3, 6, 6)))

    def test_rotation_translation_chain(self):
        step = [1.0, 0, 0, 0, 0, np.pi / 2]
        traj = _chain([step, step])
        np.testing.assert_allclose(traj.transforms[2][:3, 3], [1.0, 1.0, 0.0], atol=1e-12)
        # two quarter turns make a half turn
        np.testing.assert_allclose(traj.transforms[2][:3, :3],
                                   pose_to_matrix([0, 0, 0, 0, 0, np.pi])[:3, :3],
                                   atol=1e-12)

    def test_rejects_bad_step(self):
        bad = [(np.zeros(5), np.zeros((6, 6))), (np.zeros(6), np.zeros((6, 6))), np.zeros(6),
               Pose6D(0.1, 0, 0), (np.eye(4), np.zeros((6, 6)), np.zeros((6, 6)))]
        for step in bad:
            with pytest.raises(InputError):
                build_trajectory([step])


class TestCompoundCovariance:
    def test_identity_accumulated_adds(self, rng):
        """Through the identity a covariance adds as it is: the fourth-order
        terms are products of the two covariances, so with either one zero
        the other comes back unchanged."""
        s1 = _random_step_cov(rng)
        s2 = _random_step_cov(rng)
        zero = np.zeros((6, 6))
        np.testing.assert_allclose(compound_covariance(zero, s2, np.eye(4)), s2, rtol=1e-12)
        np.testing.assert_allclose(compound_covariance(s1, zero, np.eye(4)), s1, rtol=1e-12)

    def test_lever_arm_hand_value(self):
        """Yaw uncertainty carried through a translation turns into position
        uncertainty proportional to the squared lever arm."""
        v = 0.01
        step = np.zeros((6, 6))
        step[5, 5] = v
        x0, y0 = 2.0, -1.5
        acc = pose_to_matrix([x0, y0, 0, 0, 0, 0])
        out = compound_covariance(np.zeros((6, 6)), step, acc)
        assert out[0, 0] == pytest.approx(v * y0 * y0, rel=1e-12)
        assert out[1, 1] == pytest.approx(v * x0 * x0, rel=1e-12)
        assert out[0, 1] == pytest.approx(-v * x0 * y0, rel=1e-12)
        assert out[5, 5] == pytest.approx(v, rel=1e-12)

    def test_rotated_accumulated_swaps_axes(self):
        step = np.diag([0.04, 0.01, 0.0, 0, 0, 0]).astype(float)
        acc = pose_to_matrix([0, 0, 0, 0, 0, np.pi / 2])
        out = compound_covariance(np.zeros((6, 6)), step, acc)
        assert out[0, 0] == pytest.approx(0.01, abs=1e-12)
        assert out[1, 1] == pytest.approx(0.04, abs=1e-12)

    def test_output_symmetric(self, rng):
        out = compound_covariance(_random_step_cov(rng), _random_step_cov(rng),
                                  pose_to_matrix(rng.uniform(-0.5, 0.5, 6)))
        np.testing.assert_array_equal(out, out.T)

    def test_fourth_order_close_to_second_for_small_cov(self, rng):
        """The fourth-order terms are products of two covariances, so at a
        step trace of 1e-4 they move the second-order sum
        S1 + Ad S2 Ad^T by less than 1e-3 of its norm."""
        s1 = _random_step_cov(rng, trace_cap=1e-4)
        s2 = _random_step_cov(rng, trace_cap=1e-4)
        acc = pose_to_matrix(rng.uniform(-0.5, 0.5, 6))
        ad = se3_adjoint(acc)
        o2 = s1 + ad @ s2 @ ad.T
        o4 = compound_covariance(s1, s2, acc)
        assert np.linalg.norm(o4 - o2) / np.linalg.norm(o2) < 1e-3

    def test_validation(self, rng):
        good = _random_step_cov(rng)
        with pytest.raises(InputError, match="covariances must be 6x6"):
            compound_covariance(good, np.eye(5), np.eye(4))
        for shape in ((3, 3), (5, 5)):
            with pytest.raises(InputError, match=rf"expected 4x4 matrix, got \({shape[0]}, "):
                compound_covariance(good, good, np.eye(*shape))


class TestExpOracle:
    """The closed-form SE(3) exponential and logarithm the Monte-Carlo
    oracle perturbs and reads back with."""

    def _twists(self, rng):
        xi = rng.normal(size=(60, 6)) * rng.uniform(0.0, 1.2, (60, 1))
        xi[:4, 3:] *= 1e-7       # the Taylor branch of the coefficients
        xi[4, 3:] = 0.0
        return xi

    def test_exp_matches_matrix_exponential(self, rng):
        from scipy.linalg import expm

        xi = self._twists(rng)
        for x, T in zip(xi, se3_exp(xi)):
            hat = np.zeros((4, 4))
            hat[:3, :3] = [[0.0, -x[5], x[4]], [x[5], 0.0, -x[3]], [-x[4], x[3], 0.0]]
            hat[:3, 3] = x[:3]
            np.testing.assert_allclose(T, expm(hat), rtol=0, atol=1e-12)

    def test_log_inverts_exp_below_pi(self, rng):
        xi = self._twists(rng)
        xi = xi[np.linalg.norm(xi[:, 3:], axis=1) < np.pi]
        np.testing.assert_allclose(se3_log(se3_exp(xi)), xi, rtol=0, atol=1e-12)


class TestAgainstMonteCarlo:
    def test_second_order_matches_sampled_composition(self, rng):
        """Dual route for the propagation law: dense resampling of perturbed
        chains must land on the compounded covariance (its second-order
        part dominates at these step covariances)."""
        for chain in range(3):
            mats = [pose_to_matrix(rng.uniform(-0.3, 0.3, 6)) for _ in range(4)]
            covs = [_random_step_cov(rng) for _ in range(4)]
            traj = build_trajectory(list(zip(mats, covs)))
            mc = mc_compose_chain(mats, covs, 20000, np.random.default_rng(chain))
            final = traj.covariances[-1]
            rel = np.linalg.norm(final - mc) / np.linalg.norm(mc)
            assert rel < 0.08

    def test_fourth_order_matches_wide_steps(self):
        """Two 1 m steps with per-axis std 0.2 m and 0.6 rad: the
        fourth-order terms bring the compounded covariance within 0.015 of
        the sampled one, where the second-order sum alone reads about
        0.057-0.060 off."""
        mats = [pose_to_matrix([1.0, 0, 0, 0, 0, 0])] * 2
        cov = np.diag([0.2 ** 2] * 3 + [0.6 ** 2] * 3)
        traj = build_trajectory([(m, cov) for m in mats])
        mc = mc_compose_chain(mats, [cov] * 2, 200000, np.random.default_rng(7))
        final = traj.covariances[-1]
        assert np.linalg.norm(final - mc) / np.linalg.norm(mc) < 0.015


class TestBuildTrajectory:
    def test_lengths_and_start(self, rng):
        steps = [(pose_to_matrix(rng.uniform(-0.2, 0.2, 6)), _random_step_cov(rng))
                 for _ in range(5)]
        traj = build_trajectory(steps)
        assert len(traj) == 6
        assert traj.transforms.shape == (6, 4, 4)
        assert traj.covariances.shape == (6, 6, 6)
        np.testing.assert_array_equal(traj.transforms[0], np.eye(4))
        np.testing.assert_array_equal(traj.covariances[0], np.zeros((6, 6)))

    def test_uncertainty_grows(self, rng):
        steps = [(pose_to_matrix(rng.uniform(-0.2, 0.2, 6)), _random_step_cov(rng))
                 for _ in range(6)]
        traj = build_trajectory(steps)
        traces = [float(np.trace(c)) for c in traj.covariances]
        assert all(b >= a for a, b in zip(traces, traces[1:]))

    def test_distribution_steps_match_pairs(self, rng):
        mean = rng.uniform(-0.2, 0.2, 6)
        cov = _random_step_cov(rng)
        dist = PoseDistribution(samples=mean.reshape(1, 6), mean=mean, covariance=cov)
        via_dist = build_trajectory([dist, dist])
        via_pair = build_trajectory([(pose_to_matrix(mean), cov)] * 2)
        np.testing.assert_allclose(via_dist.transforms, via_pair.transforms, rtol=1e-12)
        np.testing.assert_allclose(via_dist.covariances, via_pair.covariances, rtol=1e-12)


class TestConfidenceEllipse:
    def test_isotropic_radius_and_default_level(self):
        r = 0.3
        axes, angle = confidence_ellipse(np.eye(2) * r * r, level=0.95)
        q = -2.0 * np.log(0.05)
        assert axes[0] == pytest.approx(r * np.sqrt(q), rel=1e-6)
        assert axes[1] == pytest.approx(axes[0], rel=1e-9)
        # the classic table value for 95% on 2 dof
        assert q == pytest.approx(5.991, abs=1e-3)

    def test_axis_aligned_hand_values(self):
        axes, angle = confidence_ellipse(np.diag([4.0, 1.0]), level=0.5)
        q = -2.0 * np.log(0.5)
        assert axes[0] == pytest.approx(2.0 * np.sqrt(q), rel=1e-9)
        assert axes[1] == pytest.approx(1.0 * np.sqrt(q), rel=1e-9)
        assert angle % np.pi == pytest.approx(0.0, abs=1e-9)

    def test_rotated_covariance_orientation(self):
        phi = np.pi / 6
        R = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
        cov = R @ np.diag([4.0, 1.0]) @ R.T
        axes, angle = confidence_ellipse(cov)
        assert axes[0] > axes[1]
        assert min(abs(angle - phi), abs(abs(angle - phi) - np.pi)) < 1e-9

    def test_validation(self):
        with pytest.raises(InputError):
            confidence_ellipse(np.eye(3))
        with pytest.raises(InputError):
            confidence_ellipse(np.eye(2), level=1.0)
        with pytest.raises(InputError):
            confidence_ellipse(np.array([[1.0, 0.0], [0.0, -1.0]]))


class TestExportRows:
    def _traj(self, rng, L=4):
        steps = [(pose_to_matrix(rng.uniform(-0.2, 0.2, 6)), _random_step_cov(rng))
                 for _ in range(L)]
        return build_trajectory(steps)

    def test_trajectory_rows_roundtrip(self, rng):
        traj = self._traj(rng)
        rows = list(trajectory_rows(traj))
        assert len(rows) == len(traj)
        iu = np.triu_indices(6)
        for i, pose, tri in rows:
            np.testing.assert_allclose(
                pose, matrix_to_pose(traj.transforms[i]).to_array(), rtol=1e-12)
            assert tri.shape == (21,)
            full = np.zeros((6, 6))
            full[iu] = tri
            full = full + full.T - np.diag(np.diag(full))
            np.testing.assert_allclose(full, traj.covariances[i], rtol=1e-12, atol=1e-15)

    def test_ellipse_rows_match_direct_computation(self, rng):
        traj = self._traj(rng)
        rows = list(ellipse_rows(traj, level=0.9))
        assert len(rows) == len(traj)
        for i, center, axes, angle, level in rows:
            assert level == 0.9
            np.testing.assert_allclose(center, traj.transforms[i][:2, 3], rtol=1e-12)
            want_axes, want_angle = confidence_ellipse(
                traj.covariances[i][np.ix_([0, 1], [0, 1])], 0.9)
            np.testing.assert_allclose(axes, want_axes, rtol=1e-12)
            assert angle == want_angle
