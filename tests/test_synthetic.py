"""Benchmark scene generators: sizes, determinism, exact surface membership
at zero noise, and the symmetry properties the posteriors rely on."""

import numpy as np
import pytest

from stein_icp import (
    BLOCK_GAP,
    InputError,
    Pose6D,
    block_scene,
    blob_scene,
    invert,
    make_scene,
    matrix_to_pose,
    pose_to_matrix,
    ring_scene,
    transform_cloud,
    transform_points,
)


def _on_ring_surface(pts, tol=1e-9):
    r = np.hypot(pts[:, 0], pts[:, 1])
    on_wall = (np.abs(r - 1.0) < tol) & (np.abs(pts[:, 2]) <= 0.15 + tol)
    on_base = (np.abs(pts[:, 2] + 0.15) < tol) & (r <= 1.0 + tol)
    return on_wall | on_base


def _on_blob_surface(pts, tol=1e-9):
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    floor = (np.abs(z) < tol) & (x >= -tol) & (x <= 1.2 + tol) & (y >= -tol) & (y <= 0.9 + tol)
    wall = (np.abs(y) < tol) & (x >= -tol) & (x <= 1.2 + tol) & (z >= -tol) & (z <= 0.6 + tol)
    side = (np.abs(x) < tol) & (y >= -tol) & (y <= 0.9 + tol) & (z >= -tol) & (z <= 0.6 + tol)
    knob = np.abs(np.linalg.norm(pts - [0.9, 0.55, 0.25], axis=1) - 0.15) < tol
    small = np.abs(np.linalg.norm(pts - [0.25, 0.75, 0.4], axis=1) - 0.08) < tol
    return floor | wall | side | knob | small


class TestSizesAndDeterminism:
    @pytest.mark.parametrize("name,n", [("ring", 700), ("block", 500), ("blob", 900)])
    def test_sizes(self, name, n):
        source, reference, _ = make_scene(name, n=n, seed=2)
        assert len(source) == n
        assert len(reference) == n

    @pytest.mark.parametrize("name", ["ring", "block", "blob"])
    def test_seeded_reproducibility(self, name):
        a_src, a_ref, _ = make_scene(name, n=300, seed=11)
        b_src, b_ref, _ = make_scene(name, n=300, seed=11)
        np.testing.assert_array_equal(a_src.points, b_src.points)
        np.testing.assert_array_equal(a_ref.points, b_ref.points)
        c_src, _, _ = make_scene(name, n=300, seed=12)
        assert not np.array_equal(a_src.points, c_src.points)

    @pytest.mark.parametrize("name", ["ring", "block", "blob"])
    def test_source_and_reference_are_independent_samplings(self, name):
        source, reference, _ = make_scene(name, n=300, noise=0.0, seed=4)
        assert not np.array_equal(source.points, reference.points)

    def test_noise_perturbs_at_the_requested_scale(self):
        clean_src, clean_ref, _ = ring_scene(n=2000, noise=0.0, seed=6)
        noisy_src, noisy_ref, _ = ring_scene(n=2000, noise=0.01, seed=6)
        for clean, noisy in ((clean_src, noisy_src), (clean_ref, noisy_ref)):
            diff = noisy.points - clean.points
            assert 0.005 < diff.std() < 0.02
            assert np.abs(diff).max() < 0.08

    @pytest.mark.parametrize("name", ["ring", "block", "blob"])
    def test_bad_noise_is_rejected(self, name):
        for noise in (-1.0, float("nan"), float("inf")):
            with pytest.raises(InputError, match="noise must be non-negative"):
                make_scene(name, n=50, noise=noise)


class TestRingScene:
    def test_zero_noise_source_lies_on_surface(self):
        source, _, _ = ring_scene(n=1000, noise=0.0, seed=1)
        assert _on_ring_surface(source.points).all()

    def test_zero_noise_reference_is_posed_surface(self):
        pose = Pose6D(0.2, -0.1, 0.05, 0.03, -0.02, 0.6)
        _, reference, true_pose = ring_scene(n=1000, noise=0.0, seed=1, true_pose=pose)
        assert true_pose is pose
        unposed = transform_points(reference.points, matrix_to_pose(invert(pose_to_matrix(pose))))
        assert _on_ring_surface(unposed, tol=1e-9).all()

    def test_yaw_invariance(self):
        """The defining symmetry: any yaw rotation maps the surface to
        itself, which is why the posterior cannot pin yaw."""
        source, _, _ = ring_scene(n=1000, noise=0.0, seed=3)
        for yaw in (0.7, -2.1, 3.0):
            spun = transform_points(source.points, Pose6D(yaw=yaw))
            assert _on_ring_surface(spun, tol=1e-9).all()

    def test_wall_and_base_both_present(self):
        source, _, _ = ring_scene(n=1000, noise=0.0, seed=5)
        r = np.hypot(source.points[:, 0], source.points[:, 1])
        on_wall = np.abs(r - 1.0) < 1e-9
        assert on_wall.sum() == 600
        assert (~on_wall).sum() == 400


class TestBlockScene:
    def test_reference_plates_at_half_gap(self):
        _, reference, true_pose = block_scene(n=600, noise=0.0, seed=2)
        x = reference.points[:, 0]
        assert set(np.round(np.unique(x), 12)) == {-0.25, 0.25}
        assert (x[:300] == -0.25).all()
        assert (x[300:] == 0.25).all()
        np.testing.assert_array_equal(true_pose.to_array(), np.zeros(6))

    def test_source_is_single_centered_plate(self):
        source, _, _ = block_scene(n=600, noise=0.0, seed=2)
        assert (source.points[:, 0] == 0.0).all()
        assert np.abs(source.points[:, 1]).max() <= 0.6
        assert np.abs(source.points[:, 2]).max() <= 0.4

    def test_default_gap_constant(self):
        assert BLOCK_GAP == 0.5


class TestBlobScene:
    def test_zero_noise_source_lies_on_surface(self):
        source, _, _ = blob_scene(n=1200, noise=0.0, seed=7)
        assert _on_blob_surface(source.points).all()

    def test_zero_noise_reference_is_posed_surface(self):
        pose = Pose6D(0.3, -0.2, 0.1, 0.05, -0.03, 0.4)
        _, reference, _ = blob_scene(n=1200, noise=0.0, seed=7, true_pose=pose)
        unposed = transform_points(reference.points, matrix_to_pose(invert(pose_to_matrix(pose))))
        assert _on_blob_surface(unposed, tol=1e-9).all()

    def test_no_yaw_symmetry(self):
        """Unlike the ring, a rotated blob leaves its own surface."""
        source, _, _ = blob_scene(n=1200, noise=0.0, seed=7)
        spun = transform_points(source.points, Pose6D(yaw=0.5))
        assert not _on_blob_surface(spun).all()

    def test_component_proportions(self):
        source, _, _ = blob_scene(n=1000, noise=0.0, seed=9)
        pts = source.points
        floor = (np.abs(pts[:, 2]) < 1e-9).sum()
        wall = (np.abs(pts[:, 1]) < 1e-9).sum()
        side = (np.abs(pts[:, 0]) < 1e-9).sum()
        assert floor == 300
        assert wall == 250
        assert side == 200


class TestPoseConsistency:
    @pytest.mark.parametrize("name", ["ring", "blob"])
    def test_reference_pose_matches_explicit_transform(self, name):
        pose = Pose6D(0.15, 0.1, -0.05, 0.02, 0.04, 0.3)
        _, ref_posed, _ = make_scene(name, n=400, noise=0.0, seed=8, true_pose=pose)
        _, ref_plain, _ = make_scene(name, n=400, noise=0.0, seed=8)
        np.testing.assert_allclose(
            ref_posed.points, transform_cloud(ref_plain, pose).points,
            rtol=1e-12, atol=1e-12)


class TestMakeScene:
    def test_dispatch_matches_direct_calls(self):
        via_factory = make_scene("block", n=300, seed=4)
        direct = block_scene(n=300, seed=4)
        np.testing.assert_array_equal(via_factory[0].points, direct[0].points)
        np.testing.assert_array_equal(via_factory[1].points, direct[1].points)

    def test_unknown_scene(self):
        with pytest.raises(InputError):
            make_scene("torus")
