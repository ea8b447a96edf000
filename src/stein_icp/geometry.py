"""SE(3) primitives on 6-vector poses.

A pose is (x, y, z, roll, pitch, yaw): a translation followed by a rotation
built from extrinsic Euler angles in ZYX order,

    R = Rz(yaw) @ Ry(pitch) @ Rx(roll).

Angles live in [-pi, pi). All arrays are float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

__all__ = [
    "Pose6D",
    "pose_array",
    "wrap_angle",
    "rotation_from_euler",
    "rotation_partials",
    "pose_to_matrix",
    "matrix_to_pose",
    "invert",
    "transform_points",
    "transform_stacked",
    "se3_adjoint",
    "skew",
]

def wrap_angle(a):
    """Wrap angle(s) to [-pi, pi). Accepts scalars or arrays.

    Values inside the interval pass through unchanged, so wrapping twice is
    bitwise identical to wrapping once. Others are shifted by 2pi, exactly
    (Sterbenz's lemma) for |a| < 3pi; arctan2(sin, cos) takes what is left."""
    arr = np.asarray(a, dtype=float)
    out = arr.copy()
    high = arr >= np.pi
    low = arr < -np.pi
    if high.any() or low.any():
        np.subtract(out, 2.0 * np.pi, out=out, where=high)
        np.add(out, 2.0 * np.pi, out=out, where=low)
        far = (out < -np.pi) | (out >= np.pi)
        if far.any():
            out[far] = np.arctan2(np.sin(arr[far]), np.cos(arr[far]))
            # arctan2 can land on +pi exactly; the contract is a half-open interval.
            out[out == np.pi] = -np.pi
    return float(out) if np.ndim(a) == 0 else out


@dataclass(frozen=True)
class Pose6D:
    """Rigid transform parameters: translation (m) and ZYX Euler angles (rad)."""

    x: float = 0.0
    y: float = 0.0
    z: float = 0.0
    roll: float = 0.0
    pitch: float = 0.0
    yaw: float = 0.0

    @classmethod
    def from_array(cls, a) -> "Pose6D":
        """The Pose6D of any pose pose_array accepts."""
        return cls(*[float(v) for v in pose_array(a)])

    def to_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z, self.roll, self.pitch, self.yaw])


def pose_array(pose) -> np.ndarray:
    """The (6,) float64 array of a pose: a Pose6D, or 6 numbers in any
    array-like whose size is 6. Anything else raises InputError."""
    if isinstance(pose, Pose6D):
        return pose.to_array()
    try:
        arr = np.asarray(pose, dtype=float)
    except (TypeError, ValueError):
        raise InputError(f"a pose is a Pose6D or 6 numbers, got {pose!r}") from None
    if arr.size != 6:
        raise InputError(f"a pose is a Pose6D or 6 numbers, got shape {arr.shape}")
    return arr.reshape(6)


def rotation_from_euler(roll, pitch, yaw) -> np.ndarray:
    """3x3 rotation matrix for ZYX extrinsic Euler angles.

    Supports broadcasting: scalar inputs give (3, 3); array inputs of shape
    (...,) give (..., 3, 3).
    """
    roll = np.asarray(roll, dtype=float)
    pitch = np.asarray(pitch, dtype=float)
    yaw = np.asarray(yaw, dtype=float)
    cr, sr = np.cos(roll), np.sin(roll)
    cp, sp = np.cos(pitch), np.sin(pitch)
    cy, sy = np.cos(yaw), np.sin(yaw)

    out = np.empty(np.broadcast(cr, cp, cy).shape + (3, 3))
    out[..., 0, 0] = cy * cp
    out[..., 0, 1] = cy * sp * sr - sy * cr
    out[..., 0, 2] = cy * sp * cr + sy * sr
    out[..., 1, 0] = sy * cp
    out[..., 1, 1] = sy * sp * sr + cy * cr
    out[..., 1, 2] = sy * sp * cr - cy * sr
    out[..., 2, 0] = -sp
    out[..., 2, 1] = cp * sr
    out[..., 2, 2] = cp * cr
    return out


def rotation_partials(roll, pitch, yaw) -> np.ndarray:
    """Analytic partial derivatives of the rotation matrix.

    Returns an array of shape (..., 3, 3, 3) where index k along the first
    matrix axis selects dR/d(roll), dR/d(pitch), dR/d(yaw) in that order.
    Factored forms: with R = Rz Ry Rx,

        dR/droll  = Rz Ry Rx',  dR/dpitch = Rz Ry' Rx,  dR/dyaw = Rz' Ry Rx.
    """
    roll = np.asarray(roll, dtype=float)
    pitch = np.asarray(pitch, dtype=float)
    yaw = np.asarray(yaw, dtype=float)
    cr, sr = np.cos(roll), np.sin(roll)
    cp, sp = np.cos(pitch), np.sin(pitch)
    cy, sy = np.cos(yaw), np.sin(yaw)

    shape = np.broadcast(cr, cp, cy).shape
    out = np.zeros(shape + (3, 3, 3))

    # dR/droll: only columns touching Rx' survive.
    out[..., 0, 0, 1] = cy * sp * cr + sy * sr
    out[..., 0, 0, 2] = -cy * sp * sr + sy * cr
    out[..., 0, 1, 1] = sy * sp * cr - cy * sr
    out[..., 0, 1, 2] = -sy * sp * sr - cy * cr
    out[..., 0, 2, 1] = cp * cr
    out[..., 0, 2, 2] = -cp * sr

    # dR/dpitch.
    out[..., 1, 0, 0] = -cy * sp
    out[..., 1, 0, 1] = cy * cp * sr
    out[..., 1, 0, 2] = cy * cp * cr
    out[..., 1, 1, 0] = -sy * sp
    out[..., 1, 1, 1] = sy * cp * sr
    out[..., 1, 1, 2] = sy * cp * cr
    out[..., 1, 2, 0] = -cp
    out[..., 1, 2, 1] = -sp * sr
    out[..., 1, 2, 2] = -sp * cr

    # dR/dyaw.
    out[..., 2, 0, 0] = -sy * cp
    out[..., 2, 0, 1] = -sy * sp * sr - cy * cr
    out[..., 2, 0, 2] = -sy * sp * cr + cy * sr
    out[..., 2, 1, 0] = cy * cp
    out[..., 2, 1, 1] = cy * sp * sr - sy * cr
    out[..., 2, 1, 2] = cy * sp * cr + sy * sr
    return out


def pose_to_matrix(pose) -> np.ndarray:
    """Homogeneous 4x4 transform for a pose: a Pose6D or 6 numbers
    (pose_array); anything else raises InputError."""
    p = pose_array(pose)
    T = np.eye(4)
    T[:3, :3] = rotation_from_euler(p[3], p[4], p[5])
    T[:3, 3] = p[:3]
    return T


_ORTHO_TOL = 1e-8


def _reorthonormalize(R: np.ndarray) -> np.ndarray:
    # Polar decomposition: nearest rotation in Frobenius norm.
    u, _, vt = np.linalg.svd(R)
    Q = u @ vt
    if np.linalg.det(Q) < 0:
        u[:, -1] = -u[:, -1]
        Q = u @ vt
    return Q


def matrix_to_pose(T: np.ndarray) -> Pose6D:
    """Invert pose_to_matrix. Angles come back wrapped to [-pi, pi).

    At the pitch = +-pi/2 singularity only yaw+-roll is observable; the
    convention here is roll = 0, yaw = atan2(-R01, R11).
    """
    T = np.asarray(T, dtype=float)
    if T.shape != (4, 4):
        raise InputError(f"expected 4x4 matrix, got {T.shape}")
    R = T[:3, :3]
    if np.max(np.abs(R.T @ R - np.eye(3))) > _ORTHO_TOL:
        R = _reorthonormalize(R)
    sp = -R[2, 0]
    sp = min(1.0, max(-1.0, float(sp)))
    if abs(sp) < 1.0 - 1e-12:
        pitch = np.arcsin(sp)
        roll = np.arctan2(R[2, 1], R[2, 2])
        yaw = np.arctan2(R[1, 0], R[0, 0])
    else:
        pitch = np.pi / 2 if sp > 0 else -np.pi / 2
        roll = 0.0
        yaw = np.arctan2(-R[0, 1], R[1, 1])
    x, y, z = T[:3, 3]
    return Pose6D(float(x), float(y), float(z), wrap_angle(roll), wrap_angle(pitch), wrap_angle(yaw))


def invert(T: np.ndarray) -> np.ndarray:
    """Inverse of a homogeneous transform without a general solve."""
    T = np.asarray(T, dtype=float)
    R = T[:3, :3]
    out = np.eye(4)
    out[:3, :3] = R.T
    out[:3, 3] = -R.T @ T[:3, 3]
    return out


def transform_points(points: np.ndarray, pose) -> np.ndarray:
    """Apply R p + t to an (N, 3) array of points. pose is a Pose6D or 6
    numbers (pose_array); anything else raises InputError."""
    p = pose_array(pose)
    R = rotation_from_euler(p[3], p[4], p[5])
    return np.asarray(points, dtype=float) @ R.T + p[:3]


def transform_stacked(R: np.ndarray, t: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Apply R_k p + t_k to a (K, m, 3) stack of points, one pose per row.

    One matrix product per row, so each row's result does not depend on
    how many rows are stacked with it. A point that leaves the float range
    comes back as inf or nan, without a warning: the matcher gives it no
    neighbor.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return np.matmul(points, np.swapaxes(R, -1, -2)) + t[:, None, :]


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix of a 3-vector."""
    x, y, z = np.asarray(v, dtype=float).reshape(3)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def se3_adjoint(T: np.ndarray) -> np.ndarray:
    """6x6 adjoint of a homogeneous transform, twist ordering (trans, rot)."""
    T = np.asarray(T, dtype=float)
    R = T[:3, :3]
    t = T[:3, 3]
    ad = np.zeros((6, 6))
    ad[:3, :3] = R
    ad[:3, 3:] = skew(t) @ R
    ad[3:, 3:] = R
    return ad
