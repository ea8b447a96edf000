"""Cost, analytic gradients (against finite differences), Adam, and the
single-estimate optimizer loop."""

import numpy as np
import pytest

from stein_icp import (
    DivergedError,
    EngineResult,
    IcpConfig,
    InputError,
    PointCloud,
    Pose6D,
    adam_step,
    rotation_from_euler,
    rotation_partials,
    run_sgd_icp,
    stacked_cost_gradients,
    transform_cloud,
    transform_stacked,
)

from oracles import Pairs, fd_pose_gradient, pair_loop_cost, random_pairs


def _rows(batches):
    """(3, K, m) coordinate rows of K batches of (m, 3) points."""
    return np.ascontiguousarray(np.stack(batches).transpose(2, 0, 1))


def _stacked_inputs(rows, poses, metric):
    """The stacked kernel's inputs for one batch of pairs per pose, built
    with the geometry calls the engine makes: residual rows, source rows,
    rotation partials and (point-to-plane) normal rows, each for K poses."""
    poses = np.atleast_2d(np.asarray(poses, dtype=float))
    src = _rows([r.source_points for r in rows])
    R = rotation_from_euler(poses[:, 3], poses[:, 4], poses[:, 5])
    e = transform_stacked(R, poses[:, :3], src) - _rows([r.reference_points for r in rows])
    partials = rotation_partials(poses[:, 3], poses[:, 4], poses[:, 5])
    normals = _rows([r.reference_normals for r in rows]) if metric == "plane" else None
    return e, src, partials, normals


def _single(pairs, pose, metric="point"):
    """Cost and gradient of one pose's batch: the K=1 stack, every pair kept."""
    e, src, partials, normals = _stacked_inputs([pairs], pose, metric)
    cost, g = stacked_cost_gradients(e, np.ones(e.shape[1:], dtype=bool), src, partials,
                                     normals)
    return float(cost[0]), g[0]


class TestResidualCost:
    """The cost of stacked_cost_gradients on K=1 stacks."""

    def test_point_metric_hand_value(self, rng):
        pairs = random_pairs(rng, 1)
        pose = np.zeros(6)
        e = pairs.source_points[0] - pairs.reference_points[0]
        assert _single(pairs, pose, "point")[0] == pytest.approx(np.sum(e * e))

    def test_zero_at_perfect_alignment(self, rng):
        pts = rng.uniform(-1, 1, (30, 3))
        assert _single(Pairs(pts, pts), np.zeros(6), "point")[0] == 0.0

    def test_plane_metric_projects_onto_normal(self):
        pairs = random_pairs(np.random.default_rng(0), 1, with_normals=True)
        n = pairs.reference_normals[0]
        e = pairs.source_points[0] - pairs.reference_points[0]
        expected = float(np.dot(n, e)) ** 2
        assert _single(pairs, np.zeros(6), "plane")[0] == pytest.approx(expected)

    def test_plane_leq_point(self, rng):
        """Projecting onto a unit normal can only shrink the residual."""
        pairs = random_pairs(rng, 50, with_normals=True)
        pose = rng.uniform(-0.2, 0.2, 6)
        assert _single(pairs, pose, "plane")[0] <= _single(pairs, pose, "point")[0] + 1e-12


class TestBatchGradients:
    """The gradient of stacked_cost_gradients on K=1 stacks."""

    def test_pure_translation_hand_value(self, rng):
        """Identical pairs shifted by t: the residual is t for every pair, so
        the translation gradient is exactly t and the rotation gradient is
        t . (axis x mean source point)."""
        pts = rng.uniform(-1, 1, (40, 3))
        t = np.array([0.3, -0.1, 0.2])
        pose = np.concatenate([t, np.zeros(3)])
        g = _single(Pairs(pts, pts), pose, "point")[1]
        np.testing.assert_allclose(g[:3], t, rtol=1e-12)
        centroid = pts.mean(axis=0)
        expected_rot = [np.dot(t, np.cross(axis, centroid))
                        for axis in np.eye(3)]
        np.testing.assert_allclose(g[3:], expected_rot, rtol=1e-9, atol=1e-12)

    def test_zero_gradient_at_optimum(self, rng):
        pts = rng.uniform(-1, 1, (25, 3))
        np.testing.assert_allclose(_single(Pairs(pts, pts), np.zeros(6))[1], np.zeros(6),
                                   atol=1e-15)

    @pytest.mark.parametrize("metric", ["point", "plane"])
    def test_matches_finite_differences(self, rng, metric):
        """Dual route: the analytic gradient must equal the central
        finite-difference derivative of half the cost."""
        for _ in range(20):
            m = int(rng.integers(5, 60))
            pairs = random_pairs(rng, m, with_normals=(metric == "plane"))
            pose = rng.uniform(-0.4, 0.4, 6)
            g = _single(pairs, pose, metric)[1]
            g_fd = fd_pose_gradient(pairs, pose, metric)
            denom = max(np.linalg.norm(g_fd), 1e-12)
            assert np.linalg.norm(g - g_fd) / denom < 1e-6


def _kept(pairs, keep):
    """The pairs of a batch that a mask keeps."""
    return Pairs(pairs.source_points[keep], pairs.reference_points[keep],
                 None if pairs.reference_normals is None else pairs.reference_normals[keep])


class TestStackedCostGradients:
    @staticmethod
    def _stack(rng, K, m, metric):
        """K random batches and poses, and the stacked kernel's inputs."""
        rows = [random_pairs(rng, m, with_normals=(metric == "plane")) for _ in range(K)]
        poses = np.concatenate([rng.uniform(-0.5, 0.5, (K, 3)),
                                rng.uniform(-0.3, 0.3, (K, 3))], axis=1)
        return rows, poses, _stacked_inputs(rows, poses, metric)

    @pytest.mark.parametrize("metric", ["point", "plane"])
    def test_masked_rows_match_finite_differences(self, rng, metric):
        """K=4 with some pairs masked out: each row's cost is the oracle cost
        of its kept pairs and its gradient their finite-difference one."""
        rows, poses, (e, src, partials, normals) = self._stack(rng, 4, 30, metric)
        mask = rng.random((4, 30)) < 0.7
        mask[:, 0] = True
        assert not mask.all()
        cost, g = stacked_cost_gradients(e, mask, src, partials, normals)
        for k, pairs in enumerate(rows):
            kept = _kept(pairs, mask[k])
            assert cost[k] == pytest.approx(pair_loop_cost(kept, poses[k], metric), rel=1e-12)
            g_fd = fd_pose_gradient(kept, poses[k], metric)
            assert np.linalg.norm(g[k] - g_fd) / max(np.linalg.norm(g_fd), 1e-12) < 1e-6

    @pytest.mark.parametrize("metric", ["point", "plane"])
    def test_rows_equal_single_pose_views_bitwise(self, rng, metric):
        """Each particle of a K=2 and a K=7 stack equals its own K=1 stack
        bit for bit: a particle does not depend on the particles stacked
        with it, whatever the stride between its rows."""
        for K in (2, 7):
            rows, poses, (e, src, partials, normals) = self._stack(rng, K, 40, metric)
            cost, g = stacked_cost_gradients(e, np.ones((K, 40), dtype=bool), src, partials,
                                             normals)
            for k, pairs in enumerate(rows):
                single_cost, single_g = _single(pairs, poses[k], metric)
                assert cost[k] == single_cost
                np.testing.assert_array_equal(g[k], single_g)


class TestAdam:
    def test_first_step_hand_value(self):
        g = np.array([1.0, -2.0, 0.5, 0.0, 3.0, -0.25])
        lr, eps = 0.05, 1e-8
        delta, m, v = adam_step(np.zeros(6), np.zeros(6), 0, g, lr)
        expected = -lr * g / (np.abs(g) + eps)
        np.testing.assert_allclose(delta, expected, rtol=1e-12)
        np.testing.assert_allclose(m, 0.1 * g, rtol=1e-12)
        np.testing.assert_allclose(v, 0.001 * g * g, rtol=1e-12)

    def test_second_step_hand_value(self):
        g1 = np.full(6, 2.0)
        g2 = np.full(6, -1.0)
        lr = 0.01
        _, m1, v1 = adam_step(np.zeros(6), np.zeros(6), 0, g1, lr)
        delta, _, _ = adam_step(m1, v1, 1, g2, lr)
        m = 0.9 * (0.1 * g1) + 0.1 * g2
        v = 0.999 * (0.001 * g1 * g1) + 0.001 * g2 * g2
        mhat = m / (1 - 0.9 ** 2)
        vhat = v / (1 - 0.999 ** 2)
        np.testing.assert_allclose(delta, -lr * mhat / (np.sqrt(vhat) + 1e-8), rtol=1e-12)

    def test_constant_gradient_converges_to_signed_step(self):
        g = np.array([4.0, -0.01, 1e3, -7.0, 0.2, 0.002])
        lr = 0.1
        m, v = np.zeros(6), np.zeros(6)
        for t in range(500):
            delta, m, v = adam_step(m, v, t, g, lr)
        np.testing.assert_allclose(delta, -lr * np.sign(g), rtol=1e-5)

    def test_stacked_particles_match_individual(self, rng):
        """Elementwise, so a (K, 6) block must reproduce K separate runs."""
        grads = rng.normal(size=(3, 5, 6))
        m, v = np.zeros((5, 6)), np.zeros((5, 6))
        ms, vs = np.zeros((5, 6)), np.zeros((5, 6))
        for t, g in enumerate(grads):
            d_stack, m, v = adam_step(m, v, t, g, 0.02)
            for k in range(5):
                d_k, ms[k], vs[k] = adam_step(ms[k], vs[k], t, g[k], 0.02)
                np.testing.assert_array_equal(d_stack[k], d_k)


class TestIcpConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"metric": "euclid"},
        {"batch_size": 0},
        {"step_size": 0.0},
        {"step_size": -1.0},
        {"iterations": 0},
        {"optimizer": "lbfgs"},
        {"max_dist": -0.5},
        {"likelihood_scale": -1.0},
        {"step_size": float("nan")},
        {"step_size": float("inf")},
        {"likelihood_scale": float("inf")},
        {"max_dist": float("nan")},
        {"seed": -1},
        {"max_dist": float("inf")},
        {"batch_size": 2.5},
        {"batch_size": True},
        {"iterations": 2.5},
        {"iterations": 3.0},
        {"seed": True},
        {"seed": 1.0},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(InputError):
            IcpConfig(**kwargs)

    @pytest.mark.parametrize("field", ["step_size", "max_dist", "likelihood_scale"])
    def test_rejects_an_int_beyond_the_float_range(self, field):
        """10**400 compares below inf as a Python int, but float() of it
        overflows, as the engine's arithmetic would."""
        with pytest.raises(InputError, match=rf"^{field} must be .* beyond the float range"):
            IcpConfig(**{field: 10**400})

    def test_accepts_numpy_integers(self):
        cfg = IcpConfig(batch_size=np.int64(5), iterations=np.int32(3), seed=np.uint8(7))
        assert (cfg.batch_size, cfg.iterations, cfg.seed) == (5, 3, 7)

    def test_defaults_valid(self):
        cfg = IcpConfig()
        assert cfg.metric == "point"
        assert cfg.likelihood_scale is None


class TestRunSgdIcp:
    def _clouds(self, rng, n=600):
        pts = rng.uniform(-1, 1, (n, 3))
        pts[:, 2] = 0.2 * np.sin(3 * pts[:, 0]) + 0.1 * pts[:, 1]
        return PointCloud(pts)

    def test_recovers_translation(self, rng):
        ref = self._clouds(rng)
        true = Pose6D(0.08, -0.05, 0.03)
        src = transform_cloud(ref, true)
        cfg = IcpConfig(batch_size=150, step_size=0.02, iterations=120, seed=4)
        pose, result = run_sgd_icp(src, ref, Pose6D(), cfg)
        est = pose.to_array()
        target = -true.to_array()
        np.testing.assert_allclose(est[:3], target[:3], atol=0.02)
        assert result.cost_trace[-1] < result.cost_trace[0]

    def test_diagnostics_shapes(self, rng):
        """The engine's one result record at K=1: one cost per iteration, a
        pose trace from the initial pose to the returned one, no failure."""
        ref = self._clouds(rng, 200)
        cfg = IcpConfig(batch_size=50, step_size=0.01, iterations=7, seed=1)
        pose, result = run_sgd_icp(ref, ref, Pose6D(0.02, 0, 0), cfg)
        assert isinstance(result, EngineResult)
        assert result.cost_trace.shape == (7,)
        assert np.isfinite(result.cost_trace).all()
        assert result.particle_trace.shape == (8, 1, 6)
        np.testing.assert_array_equal(result.particle_trace[0, 0], [0.02, 0, 0, 0, 0, 0])
        np.testing.assert_array_equal(pose.to_array(), result.particle_trace[-1, 0])
        assert result.failures == [] and not result.failed.any()

    def test_seeded_determinism(self, rng):
        ref = self._clouds(rng, 300)
        src = PointCloud(ref.points + [0.05, 0.0, 0.0])
        cfg = IcpConfig(batch_size=80, step_size=0.02, iterations=25, seed=9)
        p1, r1 = run_sgd_icp(src, ref, Pose6D(), cfg)
        p2, r2 = run_sgd_icp(src, ref, Pose6D(), cfg)
        np.testing.assert_array_equal(r1.particle_trace, r2.particle_trace)
        np.testing.assert_array_equal(r1.cost_trace, r2.cost_trace)
        cfg2 = IcpConfig(batch_size=80, step_size=0.02, iterations=25, seed=10)
        _, r3 = run_sgd_icp(src, ref, Pose6D(), cfg2)
        assert not np.array_equal(r1.particle_trace, r3.particle_trace)

    def test_plane_metric_without_normals_raises(self, rng):
        ref = self._clouds(rng, 100)
        cfg = IcpConfig(metric="plane", batch_size=30, iterations=3)
        with pytest.raises(InputError):
            run_sgd_icp(ref, ref, Pose6D(), cfg)

    @pytest.mark.filterwarnings("error")
    def test_non_finite_moved_point_diverges(self, rng):
        """Under a 45-degree yaw, R p of a point near the float limit
        overflows to inf or nan: the matcher gives it no neighbor (it never
        reaches the kd-tree), the run raises DivergedError naming the
        iteration and the particle, and the overflow warns nothing."""
        ref = self._clouds(rng, 100)
        src = PointCloud([[1.5e308, 1.5e308, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        init = np.array([0.0, 0.0, 0.0, 0.0, 0.0, np.pi / 4])
        moved = transform_stacked(rotation_from_euler(init[3:4], init[4:5], init[5:6]),
                                  init[None, :3], src.points.T[:, None])
        assert not np.isfinite(moved[:, 0, 0]).all()
        cfg = IcpConfig(batch_size=3, iterations=2)
        with pytest.raises(DivergedError, match=r"^iteration 0: particle\(s\) \[0\] left the "
                                                r"floating-point range"):
            run_sgd_icp(src, ref, init, cfg)
