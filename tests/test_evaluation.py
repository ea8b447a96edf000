"""Gaussian fits, KL and overlap metrics (against textbook, quadrature and mpmath
oracles), KDE, relative pose error, and the Monte-Carlo reference."""

import math
from dataclasses import replace

import numpy as np
import pytest

from stein_icp import (
    DIMENSION_NAMES,
    InputError,
    NumericalError,
    PointCloud,
    Pose6D,
    PoseDistribution,
    SteinConfig,
    fit_gaussian,
    kde_1d,
    kl_gaussian,
    kl_rotation,
    kl_translation,
    mc_ground_truth,
    metrics_report,
    ovl_coefficient,
    pose_summary,
    pose_to_matrix,
    relative_pose_error,
    transform_cloud,
    wrap_angle,
)
from stein_icp import evaluation, stein

from oracles import (
    kde_modes,
    kl_gaussian_1d,
    ovl_trapezoid,
    two_point_samples,
)


def _diag_dist(mean, var):
    mean = np.asarray(mean, dtype=float)
    return mean, np.diag(np.asarray(var, dtype=float))


class TestFitGaussian:
    def test_two_point_construction_has_exact_moments(self, rng):
        """Alternating mean +- c samples with c = sqrt((n-1)/n) fit to
        exactly the requested mean and unit variance."""
        target = np.array([0.4, -1.2, 0.0, 0.3, -0.2, 1.1])
        samples = two_point_samples(target, n=400)
        mean, cov = fit_gaussian(samples)
        np.testing.assert_allclose(mean, target, atol=1e-12)
        np.testing.assert_allclose(np.diag(cov), np.ones(6), rtol=1e-9)
        off = cov - np.diag(np.diag(cov))
        # every dimension flips sign together, so off-diagonals are +-1
        assert np.abs(np.abs(off[0, 1]) - 1.0) < 1e-9

    def test_circular_mean_across_seam(self):
        samples = np.zeros((4, 6))
        samples[:, 5] = [np.pi - 0.1, np.pi - 0.1, -np.pi + 0.1, -np.pi + 0.1]
        mean, cov = fit_gaussian(samples)
        assert abs(abs(mean[5]) - np.pi) < 1e-12
        # wrapped residuals are +-0.1, so the variance is 4 * 0.01 / 3
        assert cov[5, 5] == pytest.approx(0.04 / 3, rel=1e-9)

    def test_arithmetic_mean_would_be_wrong_at_seam(self):
        samples = np.zeros((2, 6))
        samples[:, 3] = [np.pi - 0.2, -np.pi + 0.2]
        mean, _ = fit_gaussian(samples)
        assert abs(mean[3]) > 3.0  # near the seam, not near the naive 0.0

    def test_single_sample(self):
        s = np.array([[0.1, 0.2, 0.3, 0.0, 0.1, -0.1]])
        mean, cov = fit_gaussian(s)
        np.testing.assert_array_equal(mean[:3], s[0, :3])
        np.testing.assert_allclose(mean[3:], s[0, 3:], atol=1e-15)
        np.testing.assert_array_equal(cov, 1e-12 * np.eye(6))

    def test_distribution_passthrough(self, rng):
        dist = PoseDistribution.from_samples(rng.normal(0, 0.1, (50, 6)))
        mean, cov = fit_gaussian(dist)
        np.testing.assert_array_equal(mean, dist.mean)
        np.testing.assert_array_equal(cov, dist.covariance)

    def test_validation(self, rng):
        with pytest.raises(InputError):
            fit_gaussian(rng.normal(size=(5, 4)))


class TestPoseDistribution:
    def test_wraps_angles(self):
        samples = np.zeros((3, 6))
        samples[:, 4] = 1.5 * np.pi
        dist = PoseDistribution.from_samples(samples)
        np.testing.assert_allclose(dist.samples[:, 4], -0.5 * np.pi, rtol=1e-12)

    def test_len(self, rng):
        assert len(PoseDistribution.from_samples(rng.normal(size=(17, 6)))) == 17

    @pytest.mark.parametrize("bad", [
        np.zeros((3, 5)),
        np.zeros((0, 6)),
        np.full((2, 6), np.nan),
    ])
    def test_validation(self, bad):
        with pytest.raises(InputError):
            PoseDistribution.from_samples(bad)


class TestKlGaussian:
    def test_self_divergence_is_zero(self, rng):
        dist = PoseDistribution.from_samples(rng.normal(0, 0.2, (80, 6)))
        assert abs(kl_gaussian(dist, dist)) < 1e-10

    def test_diagonal_case_matches_textbook_sum(self, rng):
        for _ in range(10):
            m1 = rng.uniform(-1, 1, 6)
            m2 = rng.uniform(-1, 1, 6)
            v1 = rng.uniform(0.05, 2.0, 6)
            v2 = rng.uniform(0.05, 2.0, 6)
            got = kl_gaussian(_diag_dist(m1, v1), _diag_dist(m2, v2), angular_dims=())
            want = sum(kl_gaussian_1d(m1[d], v1[d], m2[d], v2[d]) for d in range(6))
            np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_asymmetric(self):
        p = _diag_dist(np.zeros(6), np.full(6, 0.5))
        q = _diag_dist(np.zeros(6), np.full(6, 2.0))
        assert kl_gaussian(p, q) != pytest.approx(kl_gaussian(q, p))

    def test_wraps_angular_mean_difference(self):
        m1 = np.zeros(6)
        m2 = np.zeros(6)
        m1[5] = np.pi - 0.05
        m2[5] = -np.pi + 0.05
        p = _diag_dist(m1, np.ones(6))
        q = _diag_dist(m2, np.ones(6))
        # wrapped difference is 0.1, so the quadratic term is 0.5 * 0.01
        assert kl_gaussian(p, q) == pytest.approx(0.5 * 0.01, rel=1e-9)
        unwrapped = kl_gaussian(p, q, angular_dims=())
        assert unwrapped > 10.0

    def test_block_additivity_for_block_diagonal(self, rng):
        m1, m2 = rng.uniform(-1, 1, (2, 6))
        v1, v2 = rng.uniform(0.1, 1.0, (2, 6))
        p = _diag_dist(m1, v1)
        q = _diag_dist(m2, v2)
        total = kl_gaussian(p, q, angular_dims=())
        parts = kl_translation(p, q) + kl_rotation(p, q)
        np.testing.assert_allclose(total, parts, rtol=1e-10)

    def test_block_extraction(self):
        m1 = np.zeros(6)
        m2 = np.zeros(6)
        m2[1] = 0.3  # translation only
        p = _diag_dist(m1, np.ones(6))
        q = _diag_dist(m2, np.ones(6))
        assert kl_translation(p, q) == pytest.approx(0.5 * 0.09, rel=1e-9)
        assert abs(kl_rotation(p, q)) < 1e-12
        m3 = np.zeros(6)
        m3[4] = 0.2  # rotation only
        r = _diag_dist(m3, np.ones(6))
        assert abs(kl_translation(p, r)) < 1e-12
        assert kl_rotation(p, r) == pytest.approx(0.5 * 0.04, rel=1e-9)

    def test_rotation_block_wraps(self):
        m1 = np.zeros(6)
        m2 = np.zeros(6)
        m1[3] = np.pi - 0.01
        m2[3] = -np.pi + 0.01
        p = _diag_dist(m1, np.ones(6))
        q = _diag_dist(m2, np.ones(6))
        assert kl_rotation(p, q) == pytest.approx(0.5 * 0.02 ** 2, rel=1e-9)

    def test_rejects_non_positive_definite(self):
        bad_cov = np.eye(6)
        bad_cov[2, 2] = -1.0
        with pytest.raises(NumericalError):
            kl_gaussian((np.zeros(6), bad_cov), _diag_dist(np.zeros(6), np.ones(6)))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(InputError):
            kl_gaussian((np.zeros(5), np.eye(5)), (np.zeros(6), np.eye(6)))


class TestOvlCoefficient:
    def test_self_overlap_is_one(self, rng):
        dist = PoseDistribution.from_samples(rng.normal(0, 0.3, (60, 6)))
        assert ovl_coefficient(dist, dist) == pytest.approx(1.0, abs=1e-4)

    def test_two_sigma_separation_analytic_value(self):
        """Unit-variance Gaussians two apart overlap by 2 Phi(-1)."""
        p = _diag_dist(np.zeros(6), np.ones(6))
        q = _diag_dist(np.full(6, 2.0), np.ones(6))
        expected = math.erfc(1.0 / math.sqrt(2.0))
        assert ovl_coefficient(p, q) == pytest.approx(expected, abs=1e-6)

    def test_single_dimension_dilution(self):
        m2 = np.zeros(6)
        m2[0] = 2.0
        p = _diag_dist(np.zeros(6), np.ones(6))
        q = _diag_dist(m2, np.ones(6))
        expected = (5.0 + math.erfc(1.0 / math.sqrt(2.0))) / 6.0
        assert ovl_coefficient(p, q) == pytest.approx(expected, abs=1e-6)

    def test_symmetry(self, rng):
        m1, m2 = rng.uniform(-0.5, 0.5, (2, 6))
        v1, v2 = rng.uniform(0.05, 0.5, (2, 6))
        p = _diag_dist(m1, v1)
        q = _diag_dist(m2, v2)
        assert ovl_coefficient(p, q) == pytest.approx(ovl_coefficient(q, p), abs=1e-9)

    def test_matches_trapezoid_oracle(self, rng):
        for _ in range(5):
            m1, m2 = rng.uniform(-1, 1, (2, 6))
            v1, v2 = rng.uniform(0.02, 1.5, (2, 6))
            got = ovl_coefficient(_diag_dist(m1, v1), _diag_dist(m2, v2),
                                  angular_dims=())
            want = np.mean([ovl_trapezoid(m1[d], v1[d], m2[d], v2[d])
                            for d in range(6)])
            np.testing.assert_allclose(got, want, atol=1e-6)

    def test_angular_dimension_wraps(self):
        m1 = np.zeros(6)
        m2 = np.zeros(6)
        m1[3] = 3.0
        m2[3] = -3.0
        v = np.full(6, 0.04)
        got = ovl_coefficient(_diag_dist(m1, v), _diag_dist(m2, v))
        gap = float(wrap_angle(-3.0 - 3.0))  # 0.283 apart around the circle
        want = (5.0 + ovl_trapezoid(0.0, 0.04, gap, 0.04)) / 6.0
        np.testing.assert_allclose(got, want, atol=1e-6)
        naive = ovl_coefficient(_diag_dist(m1, v), _diag_dist(m2, v),
                                angular_dims=())
        assert naive < 0.85  # the un-wrapped dimension contributes ~0

    # (m1, v1, m2, v2) and their overlap from mpmath at 40 digits: a
    # marginal 1e-4 to 4e-3 as wide as the other, which adaptive quadrature
    # over the wide one's +-12 sigma read 5-8% low.
    @pytest.mark.parametrize("m1, v1, m2, v2, want", [
        (0.0, 1e-12, 0.003, 1e-4, 3.450723714224235e-4),
        (0.25, 1e-10, 0.249, 1e-5, 8.833727651285549e-3),
        (0.0, 2e-12, 0.0, 1e-4, 5.005846305813974e-4),
        (1.1905807723691118, 0.4968142573623698, -0.20898290023823288,
         6.537854530816687e-06, 1.6684078064376247e-3),
    ], ids=["offset", "near-means", "same-mean", "far-means"])
    def test_collapsed_marginal_matches_mpmath(self, m1, v1, m2, v2, want):
        for a, b in (((m1, v1), (m2, v2)), ((m2, v2), (m1, v1))):
            assert abs(ovl_coefficient(_diag_dist([a[0]], [a[1]]),
                                       _diag_dist([b[0]], [b[1]])) - want) < 1e-12
        assert abs(ovl_trapezoid(m1, v1, m2, v2) - want) < 1e-12

    def test_equal_variances_cross_once(self):
        """One crossing, midway: the overlap is 2 Phi(-|d| / (2 s))."""
        (cut,) = evaluation._gaussian_crossings(0.4, 0.3, 0.1, 0.3)
        assert cut == pytest.approx(0.25, abs=1e-15)
        got = ovl_coefficient(_diag_dist([0.1], [0.3]), _diag_dist([0.4], [0.3]))
        assert got == pytest.approx(math.erfc(0.15 / math.sqrt(0.6)), abs=1e-15)

    def test_identical_marginals_overlap_exactly_one(self):
        dist = _diag_dist([0.3, -2.0, 0.0], [1e-12, 0.5, 1e12])
        assert ovl_coefficient(dist, dist, angular_dims=()) == 1.0

    def test_near_equal_variances(self):
        """v2 = v1 (1 + 1e-12): the second crossing lies about 1e12 away and
        the overlap is the equal-variance one up to its own 5e-14 change
        (mpmath at 40 digits)."""
        v = 0.3
        far, _ = evaluation._gaussian_crossings(0.1, v, 0.4, v * (1 + 1e-12))
        assert -1e13 < far < -1e11
        got = ovl_coefficient(_diag_dist([0.1], [v]), _diag_dist([0.4], [v * (1 + 1e-12)]))
        assert abs(got - 0.7841912294016717) < 1e-12

    def test_wide_variance_ratios_match_trapezoid(self, rng):
        """Variance ratios from 1e-12 to 1e12, means apart by up to a few of
        the narrower widths or far apart. The trapezoid oracle's own error
        reaches about 3e-10 on such pairs."""
        for _ in range(40):
            m1, m2 = rng.uniform(-1, 1, 2)
            v1 = 10.0 ** rng.uniform(-6, 0)
            v2 = v1 * 10.0 ** rng.uniform(-12, 12)
            if rng.random() < 0.5:
                m2 = m1 + rng.normal() * math.sqrt(min(v1, v2))
            got = ovl_coefficient(_diag_dist([m1], [v1]), _diag_dist([m2], [v2]))
            assert got == pytest.approx(ovl_trapezoid(m1, v1, m2, v2), abs=1e-9)

    def test_rejects_zero_variance(self):
        cov = np.eye(6)
        cov[1, 1] = 0.0
        with pytest.raises(NumericalError):
            ovl_coefficient((np.zeros(6), cov), _diag_dist(np.zeros(6), np.ones(6)))


class TestKde1d:
    def test_density_integrates_to_one(self, rng):
        grid, dens = kde_1d(rng.normal(0.3, 0.5, 800))
        assert grid.shape == dens.shape == (512,)
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=5e-3)

    def test_angular_density_integrates_to_one_on_circle(self, rng):
        grid, dens = kde_1d(rng.vonmises(0.5, 4.0, 600), angular=True)
        spacing = 2.0 * np.pi / grid.size
        assert dens.sum() * spacing == pytest.approx(1.0, abs=1e-6)

    def test_angular_density_is_smooth_across_seam(self, rng):
        samples = wrap_angle(np.pi + rng.normal(0, 0.05, 500))
        grid, dens = kde_1d(samples, angular=True)
        # mass concentrates at both ends of the wrapped interval
        assert dens[0] > dens.max() * 0.3
        assert dens[-1] > dens.max() * 0.3
        # periodic continuation: first and last grid cells nearly agree
        assert abs(dens[0] - dens[-1]) < 0.05 * dens.max()

    def test_angular_spread_is_measured_about_the_circular_mean(self, rng):
        """The same draws, N(0, 0.01), centred 0.001 below the grid point 0
        and 0.001 below +-pi, where they straddle the seam: the same
        bandwidth, so the same peak density within 5%."""
        draws = rng.normal(0, 0.01, 200)
        away = kde_1d(draws - 0.001, angular=True)[1].max()
        seam = kde_1d(wrap_angle(np.pi - 0.001 + draws), angular=True)[1].max()
        assert seam == pytest.approx(away, rel=0.05)

    def test_bimodal_detection(self, rng):
        samples = np.concatenate([
            rng.normal(-0.25, 0.03, 400),
            rng.normal(0.25, 0.03, 400),
        ])
        modes = kde_modes(samples)
        assert len(modes) == 2
        assert abs(modes[0] + 0.25) < 0.02
        assert abs(modes[1] - 0.25) < 0.02

    def test_validation(self):
        with pytest.raises(InputError):
            kde_1d(np.array([1.0]))
        with pytest.raises(InputError):
            kde_1d(np.array([1.0, np.nan]))


def _random_trajectory(rng, L):
    mats = [np.eye(4)]
    for _ in range(L - 1):
        step = rng.uniform(-0.2, 0.2, 6)
        mats.append(mats[-1] @ pose_to_matrix(step))
    return np.array(mats)


class TestRelativePoseError:
    def test_identical_trajectories_are_exactly_zero(self, rng):
        traj = _random_trajectory(rng, 8)
        trans, rot = relative_pose_error(traj, traj.copy())
        assert trans.shape == (7,) and rot.shape == (7,)
        assert (trans == 0.0).all() and (rot == 0.0).all()

    def test_translation_offset_hand_value(self):
        est = np.array([np.eye(4), np.eye(4)])
        gt = np.array([np.eye(4), pose_to_matrix([0.1, 0.0, 0.0, 0, 0, 0])])
        trans, rot = relative_pose_error(est, gt)
        assert trans[0] == pytest.approx(0.1, rel=1e-12)
        assert rot[0] == pytest.approx(0.0, abs=1e-9)

    def test_rotation_offset_hand_value(self):
        est = np.array([np.eye(4), np.eye(4)])
        gt = np.array([np.eye(4), pose_to_matrix([0, 0, 0, 0, 0, 0.3])])
        trans, rot = relative_pose_error(est, gt)
        assert rot[0] == pytest.approx(0.3, rel=1e-9)
        assert trans[0] == pytest.approx(0.0, abs=1e-12)

    def test_invariant_under_global_transform(self, rng):
        est = _random_trajectory(rng, 6)
        gt = _random_trajectory(rng, 6)
        g = pose_to_matrix([0.5, -0.3, 0.2, 0.4, -0.2, 0.9])
        t1, r1 = relative_pose_error(est, gt)
        t2, r2 = relative_pose_error(np.array([g @ m for m in est]), gt)
        np.testing.assert_allclose(t1, t2, atol=1e-10)
        np.testing.assert_allclose(r1, r2, atol=1e-10)

    def test_delta_handling(self, rng):
        traj = _random_trajectory(rng, 5)
        other = _random_trajectory(rng, 5)
        trans, _ = relative_pose_error(traj, other, delta=2)
        assert trans.shape == (3,)
        with pytest.raises(InputError):
            relative_pose_error(traj, other, delta=0)
        with pytest.raises(InputError):
            relative_pose_error(traj, other, delta=5)
        with pytest.raises(InputError):
            relative_pose_error(traj[:4], other)


class TestMcGroundTruth:
    def _scene(self, rng):
        pts = rng.uniform(-1, 1, (500, 3))
        pts[:, 2] = 0.25 * np.sin(3.0 * pts[:, 0]) + 0.15 * np.cos(2.0 * pts[:, 1])
        ref = PointCloud(pts)
        src = transform_cloud(ref, Pose6D(0.04, -0.03, 0.02, 0.01, -0.01, 0.03))
        return src, ref

    def test_zero_ranges_give_nearly_identical_restarts(self, rng):
        """With no init dispersion the only difference between restarts is
        the mini-batch stream, which must not move the optimum by much."""
        src, ref = self._scene(rng)
        cfg = SteinConfig(particles=2, batch_size=100, step_size=0.02, iterations=120, seed=3,
                          trans_range=0.0, rot_range=0.0)
        dist = mc_ground_truth(src, ref, cfg)
        assert len(dist) == 2
        gap = dist.samples[0] - dist.samples[1]
        gap[3:] = wrap_angle(gap[3:])
        assert np.abs(gap).max() < 1e-3

    def test_deterministic(self, rng):
        src, ref = self._scene(rng)
        cfg = SteinConfig(particles=5, batch_size=80, step_size=0.02, iterations=40, seed=8,
                          trans_range=0.05, rot_range=0.02)
        a = mc_ground_truth(src, ref, cfg)
        b = mc_ground_truth(src, ref, cfg)
        np.testing.assert_array_equal(a.samples, b.samples)

    @pytest.mark.filterwarnings("error")
    def test_non_finite_moved_points_freeze_restarts(self, rng):
        """Restarts whose moved points overflow to inf or nan are frozen
        and dropped, not passed to the kd-tree: with every one failing, the
        error counts them, and the overflow warns nothing."""
        _, ref = self._scene(rng)
        src = PointCloud([[1.5e308, 1.5e308, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        cfg = SteinConfig(particles=4, batch_size=3, iterations=2, seed=1,
                          init_center=(0, 0, 0, 0, 0, np.pi / 4), trans_range=0.01,
                          rot_range=0.01)
        with pytest.raises(NumericalError, match=r"^4 of 4 restarts failed$"):
            mc_ground_truth(src, ref, cfg)

    def test_all_failures_raise(self, rng):
        src, ref = self._scene(rng)
        far = PointCloud(src.points + [50.0, 0.0, 0.0])
        cfg = SteinConfig(particles=4, batch_size=40, iterations=5, max_dist=0.01, seed=1)
        with pytest.raises(NumericalError):
            mc_ground_truth(far, ref, cfg)

    @pytest.mark.parametrize("n, failed, survivors", [
        (3, 2, None),
        (5, 3, None),
        (4, 3, None),
        (1, 1, None),
        (4, 2, 2),
    ])
    def test_more_than_half_failing_raises(self, rng, monkeypatch, n, failed, survivors):
        """The engine is stubbed to fail a chosen number of restarts: more
        than half failing raises, exactly half keeps the survivors."""
        mask = np.arange(n) < failed
        particles = rng.normal(0, 0.01, (n, 6))
        monkeypatch.setattr(stein, "run_particle_engine", lambda *a, **k: stein.EngineResult(
            particles=particles, cost_trace=np.zeros(1), failed=mask))
        src, ref = self._scene(rng)
        cfg = SteinConfig(particles=n, batch_size=40, iterations=5)
        if survivors is None:
            with pytest.raises(NumericalError, match=f"{failed} of {n} restarts failed"):
                mc_ground_truth(src, ref, cfg)
        else:
            dist = mc_ground_truth(src, ref, cfg)
            assert len(dist) == survivors
            np.testing.assert_array_equal(dist.samples[:, :3], particles[~mask, :3])

    def test_validation(self, rng):
        """The restart count and the init box are SteinConfig fields, checked
        when the config is built."""
        cfg = SteinConfig(particles=2, batch_size=40, iterations=5)
        for n in (0, 2.5, True):
            with pytest.raises(InputError, match="particles must be"):
                replace(cfg, particles=n)
        with pytest.raises(InputError, match="init_center"):
            replace(cfg, init_center=(float("nan"), 0, 0, 0, 0, 0))

    def test_the_config_sets_the_restart_count_and_the_box(self, rng, monkeypatch):
        """Every restart starts at init_center when both ranges are 0, and
        there are config.particles of them; a wider box spreads them."""
        starts = []
        engine = stein.run_particle_engine

        def spy(source, reference, particles, config, **kwargs):
            starts.append(particles.copy())
            return engine(source, reference, particles, config, **kwargs)

        monkeypatch.setattr(stein, "run_particle_engine", spy)
        src, ref = self._scene(rng)
        center = (0.01, -0.02, 0.03, 0.04, -0.05, 0.06)
        cfg = SteinConfig(particles=3, batch_size=50, iterations=1, seed=3,
                          init_center=center, trans_range=0.0, rot_range=0.0)
        assert len(mc_ground_truth(src, ref, cfg)) == 3
        np.testing.assert_array_equal(starts[0], np.tile(center, (3, 1)))
        mc_ground_truth(src, ref, replace(cfg, particles=4, trans_range=0.5))
        assert starts[1].shape == (4, 6)
        assert np.abs(starts[1][:, :3] - center[:3]).max() > 0.05
        np.testing.assert_array_equal(starts[1][:, 3:], np.tile(center[3:], (4, 1)))


class TestSummaries:
    def test_pose_summary_hand_values(self):
        samples = np.zeros((2, 6))
        samples[:, 0] = [1.0, 3.0]
        samples[:, 5] = [0.1, -0.1]
        dist = PoseDistribution.from_samples(samples)
        summary = pose_summary(dist)
        assert summary["x"]["mean"] == pytest.approx(2.0)
        assert summary["x"]["std"] == pytest.approx(np.sqrt(2.0), rel=1e-6)
        assert "resultant_length" not in summary["x"]
        r = summary["yaw"]["resultant_length"]
        assert r == pytest.approx(np.cos(0.1), rel=1e-12)
        assert summary["yaw"]["circular_std"] == pytest.approx(
            np.sqrt(-2.0 * np.log(np.cos(0.1))), rel=1e-9)

    def test_metrics_report_structure(self, rng):
        a = PoseDistribution.from_samples(rng.normal(0, 0.1, (100, 6)))
        b = PoseDistribution.from_samples(rng.normal(0, 0.1, (100, 6)))
        report = metrics_report(a, b)
        assert set(report) == {"kl_6d", "kl_translation", "kl_rotation", "ovl",
                               "ovl_per_dimension", "candidate", "reference"}
        assert len(report["ovl_per_dimension"]) == 6
        assert all(0.0 <= v <= 1.0 for v in report["ovl_per_dimension"])
        assert set(report["candidate"]) == set(DIMENSION_NAMES)

    def test_metrics_report_self_comparison(self, rng):
        a = PoseDistribution.from_samples(rng.normal(0, 0.1, (100, 6)))
        report = metrics_report(a, a)
        assert report["kl_6d"] < 1e-10
        assert report["ovl"] > 0.999
