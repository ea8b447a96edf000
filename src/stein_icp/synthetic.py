"""Synthetic benchmark scenes with known ground truth.

Each builder returns (source, reference, true_pose): source and reference
are independent samplings of one surface, the reference posed by true_pose,
both carrying independent sensor noise. An estimator aligning source onto
reference should recover true_pose.

Three shapes cover the qualitatively different posteriors:

* ring: a cylindrical rim, rotationally symmetric about its axis, so yaw
  is unconstrained and the posterior is a band around the yaw circle.
* block: two identical parallel plates; a single-plate source matches
  either one, so the x posterior is bimodal with modes a plate gap apart.
* blob: an asymmetric corner (three unequal orthogonal plates plus an
  off-center knob), fully constraining all six dimensions.
"""

from __future__ import annotations

import numpy as np

from .cloud import PointCloud, transform_cloud
from .errors import InputError
from .geometry import Pose6D

__all__ = ["ring_scene", "block_scene", "blob_scene", "make_scene", "SCENES", "BLOCK_GAP"]

# Plate separation of the block scene; the two x modes sit at +-BLOCK_GAP/2.
BLOCK_GAP = 0.5


def _finish(src_pts: np.ndarray, ref_pts: np.ndarray, true_pose: Pose6D,
            noise: float, rng: np.random.Generator):
    """Pose the reference sample and add independent sensor noise to both.

    Source and reference are separate samplings of the same surface, the
    way two scans of one object are, so the cost landscape carries no
    point-identity structure beyond the shape itself. noise is the
    per-axis standard deviation, non-negative and finite.
    """
    if not 0 <= noise < np.inf:
        raise InputError(f"noise must be non-negative and finite, got {noise}")
    source = PointCloud(src_pts)
    reference = transform_cloud(PointCloud(ref_pts), true_pose)
    if noise > 0:
        source = PointCloud(source.points + rng.normal(0.0, noise, source.points.shape))
        reference = PointCloud(reference.points + rng.normal(0.0, noise, reference.points.shape))
    return source, reference, true_pose


def ring_scene(n: int = 4000, noise: float = 0.005, seed: int = 0,
               true_pose: Pose6D = Pose6D()) -> tuple[PointCloud, PointCloud, Pose6D]:
    """Open cup: cylindrical wall (radius 1, height 0.3) on a base disk at
    z = -0.15, axis +z. Rotationally invariant about yaw; the wall pins x
    and y, the base disk pins z and the two tilt angles.
    """
    rng = np.random.default_rng(seed)
    n_wall = int(n * 0.6)
    n_base = n - n_wall

    def sample():
        phi = rng.uniform(-np.pi, np.pi, n_wall)
        h = rng.uniform(-0.15, 0.15, n_wall)
        wall = np.column_stack([np.cos(phi), np.sin(phi), h])
        psi = rng.uniform(-np.pi, np.pi, n_base)
        r = np.sqrt(rng.uniform(0.0, 1.0, n_base))
        base = np.column_stack([r * np.cos(psi), r * np.sin(psi),
                                np.full(n_base, -0.15)])
        return np.vstack([wall, base])

    return _finish(sample(), sample(), true_pose, noise, rng)


def block_scene(n: int = 4000, noise: float = 0.005,
                seed: int = 0) -> tuple[PointCloud, PointCloud, Pose6D]:
    """Two-sided block: the reference is two identical plates (normal +-x)
    at x = -BLOCK_GAP/2 and x = +BLOCK_GAP/2; the source is a single
    centered plate at x = 0. Matching the source to either face is an
    equally good optimum, so the x posterior has modes at -BLOCK_GAP/2 and
    +BLOCK_GAP/2.

    Plates span 1.2 m in y and 0.8 m in z; their edges pin y, z, and the
    rotations. The returned true_pose is the identity by convention: both
    face alignments are "correct" and tests use the known mode locations
    instead. No extra rigid offset is applied so the mode geometry stays
    exact.
    """
    rng = np.random.default_rng(seed)
    half = n // 2
    y = rng.uniform(-0.6, 0.6, n)
    z = rng.uniform(-0.4, 0.4, n)
    ref_pts = np.column_stack([np.where(np.arange(n) < half, -BLOCK_GAP / 2, BLOCK_GAP / 2),
                               y, z])
    src_y = rng.uniform(-0.6, 0.6, n)
    src_z = rng.uniform(-0.4, 0.4, n)
    src_pts = np.column_stack([np.zeros(n), src_y, src_z])
    return _finish(src_pts, ref_pts, Pose6D(), noise, rng)


def blob_scene(n: int = 5000, noise: float = 0.005, seed: int = 0,
               true_pose: Pose6D = Pose6D()) -> tuple[PointCloud, PointCloud, Pose6D]:
    """Asymmetric corner: three mutually orthogonal plates of unequal size
    plus a knob (small dense sphere) off center. No rotational or mirror
    symmetry; all six pose dimensions are fully constrained.
    """
    rng = np.random.default_rng(seed)
    n_a = int(n * 0.30)
    n_b = int(n * 0.25)
    n_c = int(n * 0.20)
    n_k = int(n * 0.15)
    n_j = n - n_a - n_b - n_c - n_k

    def sphere(center, radius, count):
        u = rng.normal(size=(count, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        return np.asarray(center) + radius * u

    def sample():
        # Floor plate (z = 0), 1.2 x 0.9.
        a = np.column_stack([rng.uniform(0.0, 1.2, n_a), rng.uniform(0.0, 0.9, n_a),
                             np.zeros(n_a)])
        # Wall plate (y = 0), 1.2 x 0.6.
        b = np.column_stack([rng.uniform(0.0, 1.2, n_b), np.zeros(n_b),
                             rng.uniform(0.0, 0.6, n_b)])
        # Side plate (x = 0), 0.9 x 0.6.
        c = np.column_stack([np.zeros(n_c), rng.uniform(0.0, 0.9, n_c),
                             rng.uniform(0.0, 0.6, n_c)])
        # Two unequal knobs at long lever arms pin yaw and the x/y pair.
        k = sphere([0.9, 0.55, 0.25], 0.15, n_k)
        j = sphere([0.25, 0.75, 0.4], 0.08, n_j)
        return np.vstack([a, b, c, k, j])

    return _finish(sample(), sample(), true_pose, noise, rng)


SCENES = {"ring": ring_scene, "block": block_scene, "blob": blob_scene}


def make_scene(name: str, **kwargs):
    """Scene factory by name: 'ring', 'block', or 'blob'."""
    try:
        builder = SCENES[name]
    except KeyError:
        raise InputError(f"unknown scene {name!r}, expected one of {sorted(SCENES)}") from None
    return builder(**kwargs)
