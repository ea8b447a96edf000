"""Kernels, bandwidth heuristic, the particle update direction (against a
double-loop oracle), initialization, and the particle engine."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from stein_icp import (
    DivergedError,
    EngineResult,
    IcpConfig,
    InputError,
    MatchRejectionError,
    PointCloud,
    Pose6D,
    PriorConfig,
    SteinConfig,
    UNIFORM_PRIOR,
    estimate_normals,
    mc_ground_truth,
    median_bandwidth,
    prior_gradient,
    rotation_from_euler,
    run_particle_engine,
    run_sgd_icp,
    run_stein_icp,
    sample_initial_particles,
    stacked_cost_gradients,
    stein_direction,
    transform_cloud,
    wrap_angle,
)
from stein_icp import stein
from stein_icp.correspondence import NeighborIndex, ReshuffledBatches

from oracles import (
    naive_median_bandwidth,
    naive_stein_direction,
    rotation_kernel,
    translation_kernel,
)


def _wavy_cloud(rng, n=400):
    pts = rng.uniform(-1, 1, (n, 3))
    pts[:, 2] = 0.25 * np.sin(3.0 * pts[:, 0]) + 0.15 * np.cos(2.0 * pts[:, 1])
    return PointCloud(pts)


class TestKernels:
    """The oracle's pairwise kernels, which naive_stein_direction sums."""

    def test_identity_arguments(self):
        k, grad = translation_kernel([0.1, 0.2, 0.3], [0.1, 0.2, 0.3], 0.5)
        assert k == 1.0
        np.testing.assert_array_equal(grad, np.zeros(3))

    def test_translation_hand_value(self):
        k, grad = translation_kernel([1.0, 0.0, 0.0], [0.0, 0.0, 0.0], 2.0)
        assert k == pytest.approx(np.exp(-0.5))
        np.testing.assert_allclose(grad, [-np.exp(-0.5), 0.0, 0.0], rtol=1e-12)

    def test_translation_gradient_finite_difference(self, rng):
        h = 0.7
        for _ in range(10):
            a = rng.uniform(-1, 1, 3)
            b = rng.uniform(-1, 1, 3)
            _, grad = translation_kernel(a, b, h)
            fd = np.empty(3)
            for d in range(3):
                step = np.zeros(3)
                step[d] = 1e-6
                fd[d] = (translation_kernel(a + step, b, h)[0]
                         - translation_kernel(a - step, b, h)[0]) / 2e-6
            np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-9)

    def test_rotation_wraps_across_seam(self):
        h = 0.3
        near_pi = np.array([np.pi - 0.1, 0.0, 0.0])
        past_pi = np.array([-np.pi + 0.1, 0.0, 0.0])
        k_seam, g_seam = rotation_kernel(near_pi, past_pi, h)
        k_plain, g_plain = rotation_kernel([-0.1, 0.0, 0.0], [0.1, 0.0, 0.0], h)
        assert k_seam == pytest.approx(k_plain, rel=1e-12)
        np.testing.assert_allclose(g_seam, g_plain, rtol=1e-12)

    def test_rotation_matches_translation_away_from_seam(self, rng):
        a = rng.uniform(-1, 1, 3)
        b = rng.uniform(-1, 1, 3)
        kt, gt = translation_kernel(a, b, 0.9)
        kr, gr = rotation_kernel(a, b, 0.9)
        assert kr == pytest.approx(kt, rel=1e-12)
        np.testing.assert_allclose(gr, gt, rtol=1e-12)

    def test_symmetry(self, rng):
        a = rng.uniform(-1, 1, 3)
        b = rng.uniform(-1, 1, 3)
        ka, ga = translation_kernel(a, b, 0.4)
        kb, gb = translation_kernel(b, a, 0.4)
        assert ka == kb
        np.testing.assert_allclose(ga, -gb, rtol=1e-12)


class TestMedianBandwidth:
    def test_single_particle(self):
        assert median_bandwidth(np.array([[1.0, 2.0, 3.0]])) == 1.0

    def test_two_particles_hand_value(self):
        block = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        assert median_bandwidth(block) == pytest.approx(1.0 / np.log(2))

    def test_three_particles_hand_value(self):
        block = np.array([[0.0], [1.0], [3.0]])
        # squared pairwise distances 1, 9, 4; median 4
        assert median_bandwidth(block) == pytest.approx(4.0 / np.log(3))

    def test_coincident_particles_hit_floor(self):
        block = np.zeros((5, 3))
        assert median_bandwidth(block) == 1e-8

    def test_angular_wrap(self):
        block = np.array([[np.pi - 0.05, 0.0, 0.0], [-np.pi + 0.05, 0.0, 0.0]])
        assert median_bandwidth(block, angular=True) == pytest.approx(0.01 / np.log(2))
        # without the wrap the same block looks far apart
        assert median_bandwidth(block, angular=False) > 10.0

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.floats(allow_nan=False),
                              st.sampled_from([0.0, 1.0, 2.5, np.inf, -np.inf])),
                    min_size=1, max_size=40))
    def test_one_kth_median_equals_numpy(self, values):
        """Bit for bit, odd and even counts, with ties and infinities.
        -0.0 becomes 0.0: which of two tied zeros a partition returns is
        unspecified, and squared distances are never -0.0."""
        arr = np.array(values, dtype=float) + 0.0
        # np.median's mean of two values warns: invalid for -inf and inf, and
        # overflow when their sum leaves the float range (_median returns
        # that inf silently, as it adds Python floats).
        with np.errstate(invalid="ignore", over="ignore"):
            expected = np.median(arr)
        got = stein._median(arr)
        assert np.array_equal(got, expected, equal_nan=True), (got, expected)

    @pytest.mark.parametrize("angular", [False, True])
    def test_matches_pair_loop_oracle_on_full_circle(self, full_circle_swarm, angular):
        """Yaw spread over the whole circle, as on the ring scene: many
        pairwise differences cross the seam and take the wrap."""
        block = full_circle_swarm[:, 3:] if angular else full_circle_swarm[:, :3]
        assert median_bandwidth(block, angular=angular) == pytest.approx(
            naive_median_bandwidth(block, angular=angular), rel=1e-12)


class TestPriorGradient:
    def test_uniform_is_zero(self, rng):
        theta = rng.uniform(-1, 1, (7, 6))
        np.testing.assert_array_equal(prior_gradient(UNIFORM_PRIOR, theta), np.zeros((7, 6)))
        np.testing.assert_array_equal(prior_gradient(UNIFORM_PRIOR, theta[0]), np.zeros(6))

    def test_informed_hand_values(self):
        prior = PriorConfig(kind="informed", mean=(1.0, 0.0, 0.0, 0.5, 0.0, 0.0),
                            trans_variance=(0.25, 1.0, 4.0), kappa=(2.0, 1.0, 0.0))
        theta = np.array([0.5, 1.0, -2.0, 0.5 + np.pi / 6, 0.3, 0.7])
        g = prior_gradient(prior, theta)
        np.testing.assert_allclose(g[:3], [-(0.5 - 1.0) / 0.25, -1.0, 0.5], rtol=1e-12)
        np.testing.assert_allclose(
            g[3:], [-2.0 * np.sin(np.pi / 6), -np.sin(0.3), 0.0], rtol=1e-12)

    def test_informed_pulls_toward_mean(self, rng):
        prior = PriorConfig(kind="informed", mean=(0.0,) * 6)
        theta = rng.uniform(-1, 1, 6)
        g = prior_gradient(prior, theta)
        assert np.dot(g, -theta) > 0  # points back to the mean

    def test_antipode_is_stationary(self):
        prior = PriorConfig(kind="informed", mean=(0.0,) * 6)
        theta = np.array([0.0, 0.0, 0.0, np.pi, np.pi, np.pi])
        np.testing.assert_allclose(prior_gradient(prior, theta)[3:], np.zeros(3), atol=1e-12)

    def test_validation(self):
        with pytest.raises(InputError):
            PriorConfig(kind="gauss")
        with pytest.raises(InputError):
            PriorConfig(mean=(0.0,) * 5)
        with pytest.raises(InputError):
            PriorConfig(trans_variance=(1.0, 0.0, 1.0))
        with pytest.raises(InputError):
            PriorConfig(kappa=(1.0, -0.5, 1.0))
        with pytest.raises(InputError):
            PriorConfig(mean=(0.0, 0.0, float("nan"), 0.0, 0.0, 0.0))
        with pytest.raises(InputError):
            PriorConfig(trans_variance=(1.0, float("inf"), 1.0))


@pytest.fixture()
def full_circle_swarm(rng):
    """K=64 particles whose yaw covers the whole circle."""
    theta = rng.uniform(-0.3, 0.3, (64, 6))
    theta[:, 5] = rng.uniform(-np.pi, np.pi, 64)
    return theta


class TestSteinDirection:
    @pytest.mark.parametrize("K", [1, 2, 5, 20])
    @pytest.mark.parametrize("repulsion", [True, False])
    @pytest.mark.parametrize("informed", [True, False])
    def test_matches_double_loop_oracle(self, rng, K, repulsion, informed):
        theta = rng.uniform(-2, 2, (K, 6))
        grads = rng.normal(size=(K, 6))
        prior = PriorConfig(kind="informed", kappa=(1.0, 2.0, 0.5)) if informed else UNIFORM_PRIOR
        phi = stein_direction(theta, grads, prior, repulsion=repulsion)
        oracle = naive_stein_direction(theta, grads, prior, repulsion=repulsion)
        np.testing.assert_allclose(phi, oracle, rtol=1e-11, atol=1e-13)

    @pytest.mark.parametrize("repulsion", [True, False])
    def test_permutation_equivariant(self, rng, repulsion):
        """Relabelling the particles relabels their directions, particle 0
        included, whose pose the repulsion's product is taken relative to."""
        theta = rng.uniform(-2, 2, (7, 6))
        grads = rng.normal(size=(7, 6))
        perm = np.array([3, 0, 4, 6, 1, 2, 5])
        phi = stein_direction(theta, grads, UNIFORM_PRIOR, repulsion=repulsion)
        phi_perm = stein_direction(theta[perm], grads[perm], UNIFORM_PRIOR,
                                   repulsion=repulsion)
        np.testing.assert_allclose(phi_perm, phi[perm], rtol=1e-11, atol=1e-13)

    def test_matches_oracle_with_informed_prior(self, rng):
        prior = PriorConfig(kind="informed", mean=(0.1, 0, 0, 0, 0, 0.2),
                            trans_variance=(0.5, 0.5, 0.5), kappa=(1.0, 2.0, 0.5))
        theta = rng.uniform(-1, 1, (6, 6))
        grads = rng.normal(size=(6, 6))
        phi = stein_direction(theta, grads, prior)
        oracle = naive_stein_direction(theta, grads, prior)
        np.testing.assert_allclose(phi, oracle, rtol=1e-11, atol=1e-13)

    @pytest.mark.parametrize("repulsion", [True, False])
    def test_median_bandwidth_matches_oracle_on_full_circle(self, rng, full_circle_swarm,
                                                            repulsion):
        grads = rng.normal(size=(64, 6))
        phi = stein_direction(full_circle_swarm, grads, UNIFORM_PRIOR, repulsion=repulsion)
        oracle = naive_stein_direction(full_circle_swarm, grads, UNIFORM_PRIOR,
                                       repulsion=repulsion)
        np.testing.assert_allclose(phi, oracle, rtol=1e-10, atol=1e-12)

    def test_matches_oracle_at_ring_size(self, rng):
        """K=256 as on the ring scene: yaw over the whole circle takes the
        wrap, roll and pitch stay narrow and do not."""
        theta = rng.uniform(-0.2, 0.2, (256, 6))
        theta[:, 5] = rng.uniform(-np.pi, np.pi, 256)
        grads = rng.normal(size=(256, 6))
        phi = stein_direction(theta, grads, UNIFORM_PRIOR)
        oracle = naive_stein_direction(theta, grads, UNIFORM_PRIOR)
        np.testing.assert_allclose(phi, oracle, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("repulsion", [True, False])
    def test_matches_oracle_when_every_angle_wraps(self, rng, repulsion):
        theta = rng.uniform(-0.5, 0.5, (40, 6))
        theta[:, 3:] = rng.uniform(-np.pi, np.pi, (40, 3))
        grads = rng.normal(size=(40, 6))
        phi = stein_direction(theta, grads, UNIFORM_PRIOR, repulsion=repulsion)
        oracle = naive_stein_direction(theta, grads, UNIFORM_PRIOR, repulsion=repulsion)
        np.testing.assert_allclose(phi, oracle, rtol=1e-10, atol=1e-12)

    def test_matches_oracle_across_the_seam(self, rng):
        """Two particles 0.2 rad apart across +-pi in every angle: each is
        repelled away from the seam, not across the circle."""
        theta = np.zeros((2, 6))
        theta[:, :3] = rng.uniform(-0.1, 0.1, (2, 3))
        theta[0, 3:] = np.pi - 0.1
        theta[1, 3:] = -np.pi + 0.1
        grads = rng.normal(size=(2, 6))
        phi = stein_direction(theta, grads, UNIFORM_PRIOR)
        oracle = naive_stein_direction(theta, grads, UNIFORM_PRIOR)
        np.testing.assert_allclose(phi, oracle, rtol=1e-11, atol=1e-13)
        repel = stein_direction(theta, np.zeros((2, 6)), UNIFORM_PRIOR)
        assert (repel[0, 3:] < 0).all() and (repel[1, 3:] > 0).all()

    def test_matches_oracle_on_unwrapped_angles(self, rng):
        """Angles given as their wrapped values plus whole turns, up to
        +-3 turns, give the oracle's direction and the wrapped input's."""
        theta = rng.uniform(-0.3, 0.3, (30, 6))
        theta[:, 3:] = rng.uniform(-np.pi, np.pi, (30, 3))
        grads = rng.normal(size=(30, 6))
        unwrapped = theta.copy()
        unwrapped[:, 3:] += 2.0 * np.pi * rng.integers(-3, 4, (30, 3))
        prior = PriorConfig(kind="informed", kappa=(1.0, 2.0, 0.5))
        phi = stein_direction(unwrapped, grads, prior)
        np.testing.assert_allclose(
            phi, naive_stein_direction(unwrapped, grads, prior),
            rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(
            phi, stein_direction(theta, grads, prior),
            rtol=1e-10, atol=1e-12)

    def test_matches_oracle_far_from_the_origin(self, rng):
        """A tight swarm 1000 m out: the repulsion's two product terms are
        large next to their difference, and still meet the oracle."""
        theta = rng.normal(0.0, 1e-3, (20, 6))
        theta[:, :3] += 1000.0
        grads = rng.normal(size=(20, 6))
        phi = stein_direction(theta, grads, UNIFORM_PRIOR)
        oracle = naive_stein_direction(theta, grads, UNIFORM_PRIOR)
        np.testing.assert_allclose(phi, oracle, rtol=1e-10, atol=1e-12)

    def test_peak_memory_stays_below_six_kernel_matrices(self, rng):
        """tracemalloc's peak over one K=512 call, every angle wrapping, is
        at most 6 (K, K) float64 arrays: no (3, K, K) difference planes."""
        K = 512
        theta = rng.uniform(-0.3, 0.3, (K, 6))
        theta[:, 3:] = rng.uniform(-np.pi, np.pi, (K, 3))
        grads = rng.normal(size=(K, 6))
        tracemalloc.start()
        try:
            stein_direction(theta, grads, UNIFORM_PRIOR)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 8 * K * K

    def test_median_equals_explicit_bandwidths(self, rng, full_circle_swarm):
        """The direction is the oracle's at the bandwidths median_bandwidth
        gives, so the one-block view names the kernel that runs."""
        grads = rng.normal(size=(64, 6))
        h_t = median_bandwidth(full_circle_swarm[:, :3])
        h_r = median_bandwidth(full_circle_swarm[:, 3:], angular=True)
        np.testing.assert_allclose(
            stein_direction(full_circle_swarm, grads, UNIFORM_PRIOR),
            naive_stein_direction(full_circle_swarm, grads, UNIFORM_PRIOR, h_t, h_r),
            rtol=1e-10, atol=1e-12)

    def test_single_particle_reduces_to_descent(self, rng):
        g = rng.normal(size=(1, 6))
        phi = stein_direction(g * 0 + rng.uniform(-1, 1, (1, 6)), g, UNIFORM_PRIOR)
        np.testing.assert_allclose(phi, -g, rtol=1e-12)

    def test_zero_gradients_repel(self):
        theta = np.zeros((2, 6))
        theta[1, 0] = 0.3
        phi = stein_direction(theta, np.zeros((2, 6)), UNIFORM_PRIOR)
        assert phi[0, 0] < 0  # pushed away from the particle at +0.3
        assert phi[1, 0] > 0
        # one explicit Euler step must increase the separation
        stepped = theta + 0.05 * phi
        assert np.linalg.norm(stepped[0] - stepped[1]) > np.linalg.norm(theta[0] - theta[1])

    def test_no_repulsion_keeps_colocated_particles_together(self, rng):
        theta = np.tile(rng.uniform(-1, 1, 6), (4, 1))
        grads = np.tile(rng.normal(size=6), (4, 1))
        phi = stein_direction(theta, grads, UNIFORM_PRIOR, repulsion=False)
        for k in range(1, 4):
            np.testing.assert_allclose(phi[k], phi[0], rtol=1e-12)

    def test_shape_validation(self, rng):
        with pytest.raises(InputError):
            stein_direction(rng.uniform(size=(3, 6)), rng.uniform(size=(2, 6)), UNIFORM_PRIOR)
        with pytest.raises(InputError):
            stein_direction(rng.uniform(size=(3, 5)), rng.uniform(size=(3, 5)), UNIFORM_PRIOR)


class TestSampleInitialParticles:
    def test_uniform_within_bounds(self, rng):
        cfg = SteinConfig(particles=64, init_center=(0.5, 0, 0, 0, 0, 0.2),
                          trans_range=(0.2, 0.1, 0.05), rot_range=0.3)
        bounds = cfg.init_bounds()
        draws = sample_initial_particles(64, bounds, rng)
        assert draws.shape == (64, 6)
        for d in range(6):
            assert draws[:, d].min() >= bounds[d, 0] - 1e-12
            assert draws[:, d].max() <= bounds[d, 1] + 1e-12

    def test_angles_wrapped(self):
        bounds = np.array([[0, 0], [0, 0], [0, 0],
                           [2.9, 3.4], [0, 0], [0, 0]], dtype=float)
        rng = np.random.default_rng(3)
        draws = sample_initial_particles(200, bounds, rng)
        assert (draws[:, 3] >= -np.pi).all() and (draws[:, 3] < np.pi).all()
        # values past pi re-enter near -pi
        assert (draws[:, 3] < 0).any() and (draws[:, 3] > 0).any()

    def test_informed_prior_draws(self):
        prior = PriorConfig(kind="informed", mean=(1.0, -1.0, 0.0, 0.5, 0.0, -0.5),
                            trans_variance=(0.01, 0.04, 0.09), kappa=(50.0, 50.0, 0.0))
        rng = np.random.default_rng(12)
        draws = sample_initial_particles(4000, None, rng, prior)
        np.testing.assert_allclose(draws[:, :3].mean(axis=0), [1.0, -1.0, 0.0], atol=0.02)
        np.testing.assert_allclose(draws[:, :3].std(axis=0), [0.1, 0.2, 0.3], rtol=0.1)
        # concentrated angles sit near the mean, kappa = 0 spreads uniformly
        assert np.abs(wrap_angle(draws[:, 3] - 0.5)).max() < 1.0
        assert np.abs(draws[:, 5]).max() > 2.5

    def test_deterministic_under_seeded_rng(self):
        bounds = SteinConfig(particles=8).init_bounds()
        a = sample_initial_particles(8, bounds, np.random.default_rng(7))
        b = sample_initial_particles(8, bounds, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("K", [2.5, True, 2.0])
    def test_count_must_be_an_integer(self, rng, K):
        with pytest.raises(InputError, match=f"^K must be an integer, got {K}"):
            sample_initial_particles(K, SteinConfig().init_bounds(), rng)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 10**400],
                             ids=["nan", "inf", "int_beyond_float"])
    def test_bounds_must_be_finite(self, rng, value):
        bounds = SteinConfig().init_bounds().astype(object)
        bounds[2, 1] = value
        with pytest.raises(InputError, match="bound"):
            sample_initial_particles(3, bounds, rng)

    def test_validation(self, rng):
        with pytest.raises(InputError):
            sample_initial_particles(0, SteinConfig().init_bounds(), rng)
        with pytest.raises(InputError):
            sample_initial_particles(2, np.zeros((5, 2)), rng)
        bad = np.zeros((6, 2))
        bad[0] = [1.0, -1.0]
        with pytest.raises(InputError):
            sample_initial_particles(2, bad, rng)


class TestSteinConfig:
    def test_init_bounds_hand_value(self):
        cfg = SteinConfig(init_center=(1, 2, 3, 0.1, 0.2, 0.3),
                          trans_range=(0.5, 0.25, 0.0), rot_range=0.1)
        expected = np.array([
            [0.5, 1.5], [1.75, 2.25], [3.0, 3.0],
            [0.0, 0.2], [0.1, 0.3], [0.2, 0.4],
        ])
        np.testing.assert_allclose(cfg.init_bounds(), expected, rtol=1e-12)

    @pytest.mark.parametrize("kwargs", [
        {"particles": 0},
        {"particles": -3},
        {"batch_size": 0},
        {"max_dist": -0.5},
        {"init_center": (0.0,) * 5},
        {"trans_range": -0.1},
        {"rot_range": (0.1, 0.2)},
        {"step_size": float("nan")},
        {"init_center": (0.0, float("nan"), 0.0, 0.0, 0.0, 0.0)},
        {"trans_range": float("inf")},
        {"rot_range": float("nan")},
        {"likelihood_scale": -1.0},
        {"likelihood_scale": float("inf")},
        {"particles": True},
        {"particles": 2.0},
        {"iterations": 2.5},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(InputError):
            SteinConfig(**kwargs)

    @pytest.mark.parametrize("field, make", [
        ("prior mean", lambda big: PriorConfig(mean=(0, 0, big, 0, 0, 0))),
        ("trans_variance", lambda big: PriorConfig(trans_variance=(1, big, 1))),
        ("kappa", lambda big: PriorConfig(kappa=big)),
        ("init_center", lambda big: SteinConfig(init_center=(big, 0, 0, 0, 0, 0))),
        ("trans_range", lambda big: SteinConfig(trans_range=big)),
        ("rot_range", lambda big: SteinConfig(rot_range=(0, 0, big))),
        ("init_center", lambda big: mc_ground_truth(
            PointCloud(np.zeros((4, 3))), PointCloud(np.zeros((4, 3))),
            SteinConfig(particles=4, init_center=(0, 0, 0, big, 0, 0)))),
    ], ids=["prior_mean", "trans_variance", "kappa", "init_center", "trans_range",
            "rot_range", "mc_ground_truth_center"])
    def test_vector_fields_reject_an_int_beyond_the_float_range(self, field, make):
        """numpy's float conversion of 10**400 raises OverflowError; the
        configs name the field instead."""
        with pytest.raises(InputError,
                           match=f"^{field} must hold real numbers within the float range"):
            make(10**400)

    def test_inherits_base_validation(self):
        with pytest.raises(InputError):
            SteinConfig(metric="bogus")


class TestParticleEngine:
    def test_single_particle_run_matches_sgd_icp_exactly(self, rng):
        ref = _wavy_cloud(rng, 500)
        src = transform_cloud(ref, Pose6D(0.05, -0.03, 0.02, 0.02, -0.01, 0.04))
        init = Pose6D(0.01, 0.0, 0.0, 0.0, 0.0, -0.02)
        knobs = {"batch_size": 100, "step_size": 0.02, "iterations": 30, "seed": 21}
        pose, sgd = run_sgd_icp(src, ref, init, IcpConfig(**knobs))
        one = SteinConfig(**knobs, particles=1, init_center=tuple(init.to_array()),
                          trans_range=0.0, rot_range=0.0)
        dist, result = run_stein_icp(src, ref, one, full_output=True)
        np.testing.assert_array_equal(result.particle_trace, sgd.particle_trace)
        np.testing.assert_array_equal(result.cost_trace, sgd.cost_trace)
        np.testing.assert_array_equal(dist.samples[0], pose.to_array())

    @settings(max_examples=30, deadline=None)
    @given(metric=st.sampled_from(["point", "plane"]),
           max_dist=st.one_of(st.none(), st.floats(min_value=0.0, max_value=0.5)),
           batch_size=st.integers(min_value=1, max_value=120),
           seed=st.integers(min_value=0, max_value=2**63))
    def test_one_particle_run_is_sgd_icp(self, metric, max_dist, batch_size, seed):
        """The engine invariant: a one-particle Stein run from init with
        both init ranges 0 reproduces run_sgd_icp bit for bit, or fails with
        the same error."""
        ref = estimate_normals(_wavy_cloud(np.random.default_rng(8), 120))
        src = transform_cloud(ref, Pose6D(0.04, -0.03, 0.02, 0.03, -0.02, 0.05))
        init = Pose6D(0.01, 0.0, -0.01, 0.0, 0.01, -0.02)
        knobs = {"metric": metric, "batch_size": batch_size, "step_size": 0.01,
                 "iterations": 10, "max_dist": max_dist, "likelihood_scale": 1.0,
                 "seed": seed}
        one = SteinConfig(**knobs, particles=1, init_center=tuple(init.to_array()),
                          trans_range=0.0, rot_range=0.0)
        try:
            pose, sgd = run_sgd_icp(src, ref, init, IcpConfig(**knobs))
        except (DivergedError, MatchRejectionError) as e:
            with pytest.raises(type(e), match=re.escape(str(e))):
                run_stein_icp(src, ref, one)
            return
        dist, result = run_stein_icp(src, ref, one, full_output=True)
        np.testing.assert_array_equal(result.particle_trace, sgd.particle_trace)
        np.testing.assert_array_equal(result.cost_trace, sgd.cost_trace)
        np.testing.assert_array_equal(dist.samples[0], pose.to_array())

    def test_bitwise_deterministic(self, rng):
        ref = _wavy_cloud(rng, 300)
        src = transform_cloud(ref, Pose6D(0.03, 0.02, 0.0))
        cfg = SteinConfig(particles=6, batch_size=60, step_size=0.02,
                          iterations=12, seed=5, trans_range=0.1, rot_range=0.05)
        a = run_stein_icp(src, ref, cfg)
        b = run_stein_icp(src, ref, cfg)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_full_output_shapes(self, rng):
        ref = _wavy_cloud(rng, 300)
        cfg = SteinConfig(particles=4, batch_size=50, step_size=0.01,
                          iterations=9, seed=2)
        dist, result = run_stein_icp(ref, ref, cfg, full_output=True)
        assert isinstance(result, EngineResult)
        assert result.particle_trace.shape == (10, 4, 6)
        assert result.cost_trace.shape == (9,)
        assert np.isfinite(result.cost_trace).all()
        assert not result.failed.any()
        assert set(result.timings) == {"sampling", "transform", "matching",
                                       "gradients", "update"}
        # the phases are disjoint slices of the loop, timed on its clock
        assert 0 < sum(result.timings.values()) <= result.loop_seconds
        assert dist.samples.shape == (4, 6)

    def test_explicit_initial_particles(self, rng):
        """The engine starts from the given rows, angles wrapped, and takes
        only a (K, 6) array."""
        ref = _wavy_cloud(rng, 300)
        cfg = SteinConfig(particles=3, batch_size=50, iterations=4, seed=1)
        init = rng.uniform(-0.05, 0.05, (3, 6))
        init[0, 5] = 4.0
        result = run_particle_engine(ref, ref, init, cfg, record_trace=True)
        np.testing.assert_array_equal(result.particle_trace[0, :, :3], init[:, :3])
        np.testing.assert_array_equal(result.particle_trace[0, :, 3:],
                                      wrap_angle(init[:, 3:]))
        assert result.particle_trace[0, 0, 5] < np.pi
        with pytest.raises(InputError, match=r"particles must be \(K, 6\), got \(3, 5\)"):
            run_particle_engine(ref, ref, np.zeros((3, 5)), cfg)

    def test_colocated_restarts_separate_under_particle_batches(self, rng):
        """With independent (non-interacting) updates, co-located restarts
        separate: each particle draws its minibatches from its own stream."""
        ref = _wavy_cloud(rng, 300)
        src = transform_cloud(ref, Pose6D(0.03, 0.0, 0.0))
        init = np.tile(rng.uniform(-0.02, 0.02, 6), (4, 1))
        cfg = SteinConfig(particles=4, batch_size=60, iterations=8, seed=3)
        res = run_particle_engine(src, ref, init, cfg, interacting=False)
        for k in range(1, 4):
            assert not np.array_equal(res.particles[k], res.particles[0])

    def test_colocated_particles_move_in_lockstep_when_coupled(self, rng):
        """The kernel average hands co-located particles one common direction
        even when their mini-batches differ, so they never separate. This is
        the mechanism that makes the no-repulsion baseline collapse."""
        ref = _wavy_cloud(rng, 300)
        src = transform_cloud(ref, Pose6D(0.03, 0.0, 0.0))
        init = np.tile(rng.uniform(-0.02, 0.02, 6), (4, 1))
        cfg = SteinConfig(particles=4, batch_size=60, iterations=8, seed=3,
                          repulsion=False)
        res = run_particle_engine(src, ref, init, cfg, repulsion=cfg.repulsion)
        for k in range(1, 4):
            np.testing.assert_array_equal(res.particles[k], res.particles[0])

    def test_repulsion_only_spreads_particles(self, rng):
        """likelihood_scale = 0 silences the data term; the kernel gradient
        alone must push particles apart."""
        ref = _wavy_cloud(rng, 300)
        cfg = SteinConfig(particles=2, batch_size=50, step_size=0.005, iterations=50, seed=6,
                          likelihood_scale=0.0, trans_range=0.05, rot_range=0.02)
        _, res = run_stein_icp(ref, ref, cfg, full_output=True)
        first = res.particle_trace[0]
        last = res.particle_trace[-1]

        def pairwise(block):
            d = block[0] - block[1]
            d[3:] = wrap_angle(d[3:])
            return np.linalg.norm(d)

        assert pairwise(last.copy()) > pairwise(first.copy())

    def test_batch_size_exceeding_cloud_raises(self, rng, monkeypatch):
        """The batch size is checked before the index is built."""
        ref = _wavy_cloud(rng, 40)
        cfg = SteinConfig(particles=2, batch_size=50, iterations=2)

        def unreachable(reference):
            raise AssertionError("build_index reached")

        monkeypatch.setattr(stein, "build_index", unreachable)
        with pytest.raises(InputError, match=r"batch size must satisfy 1 <= m <= 40, got 50"):
            run_stein_icp(ref, ref, cfg)

    def test_particle_batches_do_not_depend_on_swarm_size(self, rng, monkeypatch):
        """Particle j's minibatches come from its own stream: the first three
        rows of every batch are equal at K = 3 and K = 7."""
        ref = _wavy_cloud(rng, 200)
        src = transform_cloud(ref, Pose6D(0.03, -0.02, 0.01))
        cfg = SteinConfig(particles=7, batch_size=30, step_size=0.01, iterations=15,
                          seed=9, trans_range=0.05, rot_range=0.02)
        drawn = []
        original = ReshuffledBatches.batches

        def spy(self, it, rows):
            batch = original(self, it, rows)
            drawn[-1].append(batch.copy())
            return batch

        monkeypatch.setattr(ReshuffledBatches, "batches", spy)
        init = rng.uniform(-0.05, 0.05, (7, 6))
        for k in (3, 7):
            drawn.append([])
            run_particle_engine(src, ref, init[:k], cfg)
        small, large = drawn
        assert len(small) == len(large) == 15
        for a, b in zip(small, large):
            assert a.shape == (3, 30) and b.shape == (7, 30)
            np.testing.assert_array_equal(a, b[:3])

    @settings(max_examples=6, deadline=None)
    @given(st.integers(min_value=2, max_value=6), st.data())
    def test_uncoupled_restarts_do_not_depend_on_the_stack(self, n, data):
        """An uncoupled run on inits[:k] equals the first k rows of the run
        on inits[:n], bit for bit, with one restart frozen on overflow."""
        k = data.draw(st.integers(min_value=1, max_value=n), label="k")
        frozen = data.draw(st.integers(min_value=0, max_value=n - 1), label="frozen")
        rng = np.random.default_rng(n * 10 + k)
        ref = _wavy_cloud(rng, 150)
        src = transform_cloud(ref, Pose6D(0.03, -0.02, 0.01, 0.01, 0.0, -0.02))
        cfg = IcpConfig(batch_size=40, step_size=0.02, iterations=12, seed=4)
        inits = rng.uniform(-0.05, 0.05, (n, 6))
        inits[frozen, 0] = 1e300
        whole = run_particle_engine(src, ref, inits, cfg, interacting=False)
        part = run_particle_engine(src, ref, inits[:k], cfg, interacting=False)
        np.testing.assert_array_equal(part.particles, whole.particles[:k])
        np.testing.assert_array_equal(part.failed, whole.failed[:k])
        assert whole.failed[frozen]

    def test_all_matches_rejected_raises(self, rng):
        ref = _wavy_cloud(rng, 100)
        src = PointCloud(ref.points + [100.0, 0.0, 0.0])
        cfg = SteinConfig(particles=2, batch_size=20, iterations=3, max_dist=0.01)
        with pytest.raises(MatchRejectionError):
            run_stein_icp(src, ref, cfg)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergence_raises(self, rng):
        """A 1e300-scaled gradient 1e10 from the reference overflows, and
        Adam's inf / inf step is NaN."""
        ref = _wavy_cloud(rng, 100)
        src = PointCloud(ref.points + [1e10, 0.0, 0.0])
        cfg = SteinConfig(particles=2, batch_size=20, iterations=10, likelihood_scale=1e300)
        with pytest.raises(DivergedError):
            run_stein_icp(src, ref, cfg)

    def test_overflowing_pose_diverges(self, rng):
        """A pose far enough out that every squared distance overflows: the
        matcher finds no finite neighbor and the run names the particle."""
        ref = _wavy_cloud(rng, 100)
        cfg = SteinConfig(particles=3, batch_size=20, iterations=3, seed=2)
        init = np.zeros((3, 6))
        init[1, 0] = 1e300
        result = run_particle_engine(ref, ref, init, cfg)
        assert result.failures == [(0, 1, "no finite match")]
        with pytest.raises(DivergedError, match=r"iteration 0: particle\(s\) \[1\] left the "
                                                r"floating-point range"):
            stein._raise_first_failure(result, cfg.max_dist)

    def test_noninteracting_freezes_overflowing_restarts(self, rng):
        ref = _wavy_cloud(rng, 100)
        cfg = IcpConfig(batch_size=20, iterations=3, step_size=0.01)
        start = np.zeros((3, 6))
        start[2, 1] = -1e300
        result = run_particle_engine(ref, ref, start, cfg, interacting=False)
        np.testing.assert_array_equal(result.failed, [False, False, True])
        np.testing.assert_array_equal(result.particles[2], start[2])
        assert np.isfinite(result.particles).all()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_initial_particles_are_bad_input(self, rng, value):
        ref = _wavy_cloud(rng, 100)
        cfg = SteinConfig(particles=2, batch_size=20, iterations=2)
        init = np.zeros((2, 6))
        init[1, 4] = value
        with pytest.raises(InputError, match=r"row\(s\) \[1\]"):
            run_particle_engine(ref, ref, init, cfg)

    def test_match_counts(self, rng):
        """Every matched point is counted once, on the level that matched
        it; the grid certifies most exact queries on a registration that
        converges, and each grid cell is filled at most once."""
        ref = _wavy_cloud(rng, 400)
        src = transform_cloud(ref, Pose6D(0.03, -0.02, 0.01))
        cfg = SteinConfig(particles=5, batch_size=60, step_size=0.01, iterations=30,
                          seed=4, trans_range=0.05, rot_range=0.02)
        _, result = run_stein_icp(src, ref, cfg, full_output=True)
        counts = result.match_counts
        assert set(counts) == {"queried", "certified", "filled", "coarse_queried"}
        assert counts["queried"] + counts["coarse_queried"] == 5 * 60 * 30
        assert 0.5 * counts["queried"] < counts["certified"] <= counts["queried"]
        assert 0 < counts["filled"] < counts["queried"]
        assert "certified" not in result.timings and "filled" not in result.timings

    def test_every_particle_matches_exactly_from_a_third_of_the_run(self, rng, monkeypatch):
        """Iterations before iterations // 3 match the coarse table and leave
        the exact index untouched; from then on the exact index answers the
        K * m queries of every iteration. The table is built from the exact
        index: no second index is built."""
        ref = _wavy_cloud(rng, 400)
        src = transform_cloud(ref, Pose6D(0.03, -0.02, 0.01))
        cfg = SteinConfig(particles=5, batch_size=60, step_size=0.01, iterations=30,
                          seed=4, trans_range=0.05, rot_range=0.02)
        built = []
        build = stein.build_index

        def record(cloud):
            built.append(build(cloud))
            return built[-1]

        monkeypatch.setattr(stein, "build_index", record)
        exact_queried = []
        batches = ReshuffledBatches.batches

        def spy(self, it, rows):
            exact_queried.append(built[0].queried)
            return batches(self, it, rows)

        monkeypatch.setattr(ReshuffledBatches, "batches", spy)
        _, result = run_stein_icp(src, ref, cfg, full_output=True)
        assert len(built) == 1 and built[0].reference is ref
        assert result.match_counts["coarse_queried"] == 5 * 60 * 10
        per_iteration = np.diff(exact_queried + [result.match_counts["queried"]])
        np.testing.assert_array_equal(per_iteration[:10], 0)
        np.testing.assert_array_equal(per_iteration[10:], 5 * 60)
        assert 0.0 < result.build_seconds

    @pytest.mark.parametrize("batch_size", [1, 60])
    def test_a_gated_run_matches_exactly_throughout(self, rng, monkeypatch, batch_size):
        """With max_dist set no coarse table is built. source == reference from
        the identity with max_dist=0: every pair is at distance 0 and kept,
        so the particle never moves."""
        ref = _wavy_cloud(rng, 400)
        built = []
        build = stein.build_index

        def record(cloud):
            built.append(cloud)
            return build(cloud)

        monkeypatch.setattr(stein, "build_index", record)
        monkeypatch.setattr(stein, "NearestTable", lambda *args: pytest.fail("built a table"))
        cfg = IcpConfig(batch_size=batch_size, step_size=0.01, iterations=9, max_dist=0.0)
        result = run_particle_engine(ref, ref, np.zeros((1, 6)), cfg)
        assert len(built) == 1 and built[0] is ref
        np.testing.assert_array_equal(result.particles, np.zeros((1, 6)))
        np.testing.assert_array_equal(result.cost_trace, np.zeros(9))
        assert result.match_counts["queried"] == 9 * batch_size
        assert result.match_counts["coarse_queried"] == 0

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize("points", [
        [[0.0, 0.0, 0.0]],                                          # no spacing (inf)
        [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.1, 0.0, 0.0]],  # spacing 0
        [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [1e308, 0.0, 0.0], [-1e308, 0.0, 0.0]],
    ], ids=["one-point", "duplicates", "overflowing-extent"])
    def test_degenerate_reference_matches_on_the_exact_index_alone(self, points):
        """A reference without a finite positive spacing has no coarse level:
        every query goes to the exact index from the first iteration."""
        cfg = IcpConfig(batch_size=1, iterations=6, step_size=0.01)
        result = run_particle_engine(PointCloud([[0.03, 0.0, 0.0]]), PointCloud(points),
                                     np.zeros((1, 6)), cfg)
        assert result.match_counts["coarse_queried"] == 0
        assert result.match_counts["queried"] == 6

    def test_noninteracting_freezes_failed_restarts(self, rng):
        ref = _wavy_cloud(rng, 100)
        src = PointCloud(ref.points + [100.0, 0.0, 0.0])
        cfg = IcpConfig(batch_size=20, iterations=3, max_dist=0.01)
        start = np.zeros((3, 6))
        result = run_particle_engine(src, ref, start, cfg, interacting=False)
        assert result.failed.all()
        np.testing.assert_array_equal(result.particles, start)

    def test_plane_metric_requires_reference_normals(self, rng):
        ref = _wavy_cloud(rng, 100)
        cfg = SteinConfig(particles=2, batch_size=20, iterations=2, metric="plane")
        with pytest.raises(InputError):
            run_stein_icp(ref, ref, cfg)


# One scene per failure cause: (reference shift, IcpConfig knobs, the row and
# x of the restart that differs from the other two, the start of the coupled
# runs).
# "no finite match": a pose at 1e300 moves every point past the float range.
# "all pairs rejected": a reference 100 away under max_dist=0.5; the restart
# started at x = 100 lies on it and survives.
# "non-finite pose": a 1e300-scaled gradient 1e10 from the reference
# overflows, and Adam's inf / inf step is NaN; a restart that starts on the
# reference has zero residuals and stays.
# "non-finite step": a 1e300-scaled gradient 0.5 from the reference is
# finite, but its square overflows Adam's second moment, whose step is then
# 0 for good; the restart would stay where it started without a record.
_FAILURES = {
    "no finite match": ((0.0, 0.0, 0.0), {"iterations": 3, "step_size": 0.01},
                        (1, 1e300), (1e300, 0, 0, 0, 0, 0)),
    "all pairs rejected": ((100.0, 0.0, 0.0), {"iterations": 3, "max_dist": 0.5},
                           (1, 100.0), (0, 0, 0, 0, 0, 0)),
    "non-finite pose": ((0.0, 0.0, 0.0), {"iterations": 2, "likelihood_scale": 1e300},
                        (1, 1e10), (1e10, 0, 0, 0, 0, 0)),
    "non-finite step": ((0.0, 0.0, 0.0), {"iterations": 2, "likelihood_scale": 1e300},
                        (1, 0.5), (0.5, 0, 0, 0, 0, 0)),
}
_COUPLED_ERRORS = {
    "no finite match": (DivergedError, "iteration 0: particle(s) {} left the floating-point "
                                       "range (no finite nearest-neighbor distance)"),
    "all pairs rejected": (MatchRejectionError,
                           "iteration 0: all pairs rejected for particle(s) {} (max_dist=0.5)"),
    "non-finite pose": (DivergedError, "iteration 0: non-finite pose for particle(s) {}"),
    "non-finite step": (DivergedError, "iteration 0: non-finite step for particle(s) {} (the "
                                       "squared gradient overflowed Adam's second moment)"),
}
_CAUSES = [pytest.param(c, marks=pytest.mark.filterwarnings("ignore:overflow",
                                                             "ignore:invalid value"))
           if c == "non-finite pose" else c for c in _FAILURES]


class TestFailureRecord:
    def _scene(self, cause):
        shift, knobs, _, _ = _FAILURES[cause]
        src = _wavy_cloud(np.random.default_rng(12), 100)
        return src, PointCloud(src.points + shift), {"batch_size": 20, "seed": 2, **knobs}

    @pytest.mark.parametrize("cause", _CAUSES)
    def test_uncoupled_restarts_record_iteration_and_cause(self, cause):
        """Each failing restart is frozen where it started and recorded; the
        others run every iteration. Where the cause is the reference's
        shift, the two restarts started off it fail."""
        src, ref, knobs = self._scene(cause)
        row, value = _FAILURES[cause][2]
        start = np.zeros((3, 6))
        start[row, 0] = value
        result = run_particle_engine(src, ref, start, IcpConfig(**knobs), interacting=False)
        frozen = [0, 2] if cause == "all pairs rejected" else [1]
        assert result.failures == [(0, j, cause) for j in frozen]
        np.testing.assert_array_equal(np.flatnonzero(result.failed), frozen)
        np.testing.assert_array_equal(result.particles[frozen], start[frozen])
        assert np.isfinite(result.cost_trace).all()

    @pytest.mark.parametrize("cause", _CAUSES)
    def test_coupled_runs_raise_the_first_failure(self, cause):
        """A swarm and a one-pose run raise the cause's error, naming the
        iteration and every particle that failed with it."""
        src, ref, knobs = self._scene(cause)
        center = _FAILURES[cause][3]
        error, message = _COUPLED_ERRORS[cause]
        swarm = SteinConfig(**knobs, particles=2, init_center=center, trans_range=0.0,
                            rot_range=0.0)
        with pytest.raises(error, match=f"^{re.escape(message.format([0, 1]))}$"):
            run_stein_icp(src, ref, swarm)
        with pytest.raises(error, match=f"^{re.escape(message.format([0]))}$"):
            run_sgd_icp(src, ref, center, IcpConfig(**knobs))

    def test_coupled_swarm_stops_after_its_first_failure(self):
        """Particle 1 leaves the float range at iteration 0: the others finish
        that iteration and the loop ends there."""
        ref = _wavy_cloud(np.random.default_rng(12), 100)
        cfg = IcpConfig(batch_size=20, iterations=5, step_size=0.01, seed=2)
        start = np.zeros((3, 6))
        start[1, 0] = 1e300
        result = run_particle_engine(ref, ref, start, cfg, record_trace=True)
        assert result.failures == [(0, 1, "no finite match")]
        np.testing.assert_array_equal(result.failed, [False, True, False])
        assert np.isfinite(result.cost_trace[0]) and np.isnan(result.cost_trace[1:]).all()
        np.testing.assert_array_equal(result.particles, result.particle_trace[1])

    def test_the_lost_cause_is_reported_before_a_rejection(self):
        """Two causes in one iteration: the front ends report the lost
        particles, as the loop once raised for them first."""
        result = EngineResult(particles=np.zeros((3, 6)), cost_trace=np.zeros(1),
                              failed=np.ones(3, dtype=bool),
                              failures=[(4, 0, "all pairs rejected"), (4, 2, "no finite match"),
                                        (4, 1, "non-finite pose")])
        with pytest.raises(DivergedError, match=r"^iteration 4: particle\(s\) \[2\] left"):
            stein._raise_first_failure(result, 0.5)
        result.failures = [(4, 1, "non-finite pose"), (4, 0, "all pairs rejected")]
        with pytest.raises(MatchRejectionError,
                           match=r"^iteration 4: all pairs rejected for particle\(s\) \[0\] "
                                 r"\(max_dist=0.5\)$"):
            stein._raise_first_failure(result, 0.5)
        result.failures = []
        stein._raise_first_failure(result, 0.5)


class TestIterationZero:
    """The engine carries each minibatch as (3, K, m) coordinate rows.
    Iteration 0 must equal a point-major (K, m, 3) computation bit for bit:
    moved points, match ids, distances, per-pair squared residuals and the
    cost. The gradient sums the translation pairwise over rows, so it is
    held within 1e-12 of a sequential sum instead."""

    @staticmethod
    def _first_call(monkeypatch, owner, name, calls):
        """Record the arguments and result of the first call of owner.name,
        the arrays copied as they are at that call."""
        original = getattr(owner, name)

        def copied(value):
            if isinstance(value, tuple):
                return tuple(copied(v) for v in value)
            return np.array(value) if isinstance(value, np.ndarray) else value

        def spy(*args, **kwargs):
            copy = copied(args)
            result = original(*args, **kwargs)
            calls.setdefault(name, (copy, copied(result)))
            return result

        monkeypatch.setattr(owner, name, spy)

    @pytest.mark.parametrize("metric", ["point", "plane"])
    @pytest.mark.parametrize("max_dist", [None, 0.05])
    def test_matches_a_point_major_reference(self, rng, monkeypatch, metric, max_dist):
        reference = estimate_normals(_wavy_cloud(rng, 400))
        source = transform_cloud(reference, Pose6D(0.03, -0.02, 0.01, 0.02, 0.0, -0.03))
        K, m = 5, 40
        inits = np.concatenate([rng.uniform(-0.05, 0.05, (K, 3)),
                                rng.uniform(-0.1, 0.1, (K, 3))], axis=1)
        # Two iterations: no coarse level, iteration 0 matches exactly.
        cfg = IcpConfig(metric=metric, batch_size=m, iterations=2, max_dist=max_dist, seed=3)
        calls = {}
        self._first_call(monkeypatch, ReshuffledBatches, "batches", calls)
        self._first_call(monkeypatch, NeighborIndex, "query", calls)
        self._first_call(monkeypatch, stein, "match_stacked", calls)
        self._first_call(monkeypatch, stein, "stacked_cost_gradients", calls)
        result = run_particle_engine(source, reference, inits, cfg, interacting=False)

        # The point-major reference.
        src = source.points[calls["batches"][1]]                           # (K, m, 3)
        R = rotation_from_euler(inits[:, 3], inits[:, 4], inits[:, 5])
        moved = np.matmul(src, np.swapaxes(R, -1, -2)) + inits[:, None, :3]
        kd_dist, kd_ids = cKDTree(reference.points).query(moved.reshape(-1, 3))
        matched = reference.points[kd_ids].reshape(K, m, 3)
        e = moved - matched
        keep = np.ones((K, m), dtype=bool)
        if max_dist is not None:
            keep &= kd_dist.reshape(K, m) <= max_dist
        normals = reference.normals[kd_ids].reshape(K, m, 3)
        if metric == "plane":
            keep &= np.einsum("kmi,kmi->km", normals, normals) > 0.5
            per_pair = np.einsum("kmi,kmi->km", normals, e) ** 2
        else:
            per_pair = np.einsum("kmi,kmi->km", e, e)
        assert 0 < keep.sum() and (max_dist is None or not keep.all())
        w = keep.astype(float)
        count = w.sum(axis=1)
        cost = (per_pair * w).sum(axis=1) / count

        (rows, *_), _ = calls["match_stacked"]
        np.testing.assert_array_equal(rows, moved.transpose(2, 0, 1))
        _, (dist, ids) = calls["query"]
        np.testing.assert_array_equal(ids, kd_ids)
        np.testing.assert_array_equal(dist, kd_dist)
        args, (costs, grads) = calls["stacked_cost_gradients"]
        residuals, mask, src_rows, partials, normal_rows = args
        np.testing.assert_array_equal(mask, keep)
        np.testing.assert_array_equal(residuals, e.transpose(2, 0, 1))
        np.testing.assert_array_equal(src_rows, src.transpose(2, 0, 1))
        # Each pair as its own one-pair batch gives its squared residual.
        single = [a.reshape(3, K * m, 1) for a in (residuals, src_rows)]
        pair_cost, _ = stacked_cost_gradients(
            single[0], np.ones((K * m, 1), dtype=bool), single[1],
            np.repeat(partials, m, axis=0),
            None if normal_rows is None else normal_rows.reshape(3, K * m, 1))
        np.testing.assert_array_equal(pair_cost.reshape(K, m), per_pair)
        np.testing.assert_array_equal(costs, cost)
        assert result.cost_trace[0] == float(cost.mean())

        # The gradient against a sequential sum over the pairs.
        if metric == "point":
            p = e * w[..., None]
        else:
            p = normals * (np.einsum("kmi,kmi->km", normals, e) * w)[..., None]
        g = np.empty((K, 6))
        g[:, :3] = np.cumsum(p, axis=1)[:, -1]
        moment = np.matmul(np.swapaxes(p, 1, 2), src)
        g[:, 3:] = np.matmul(partials.reshape(K, 3, 9), moment.reshape(K, 9, 1))[:, :, 0]
        g /= count[:, None]
        err = np.linalg.norm(grads - g, axis=1) / np.linalg.norm(g, axis=1)
        assert (err <= 1e-12).all(), err
