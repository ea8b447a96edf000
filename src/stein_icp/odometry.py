"""Uncertainty-propagating odometry from per-step pose posteriors.

Each registration step yields a pose distribution; composing the mean
transforms gives the trajectory, and composing covariances through the
SE(3) adjoint propagates the uncertainty. Perturbations are modeled on
the left (world frame):

    T_noisy = Exp(xi) T,   xi ~ N(0, Sigma),

so accumulating a step with covariance S through an accumulated transform
T_acc adds Ad(T_acc) S Ad(T_acc)^T. A fourth-order correction (curly-wedge
terms weighted 1/12 and 1/4) is available for larger covariances; the
second-order form is the default.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .evaluation import PoseDistribution
from .geometry import matrix_to_pose, pose_to_matrix, se3_adjoint

__all__ = [
    "TrajectoryEstimate",
    "compound_covariance",
    "build_trajectory",
    "confidence_ellipse",
    "trajectory_rows",
    "ellipse_rows",
]


@dataclass(frozen=True)
class TrajectoryEstimate:
    """World-frame trajectory: transforms (L+1, 4, 4) starting at the
    identity, and their covariances (L+1, 6, 6) starting at zero."""

    transforms: np.ndarray
    covariances: np.ndarray

    def __len__(self) -> int:
        return self.transforms.shape[0]


def check_order(order) -> None:
    """Raise InputError unless order is 2 or 4 (compound_covariance)."""
    if order not in (2, 4):
        raise InputError(f"order must be 2 or 4, got {order}")


def check_level(level) -> None:
    """Raise InputError unless level is in (0, 1) (confidence_ellipse)."""
    if not (0.0 < level < 1.0):
        raise InputError(f"level must be in (0, 1), got {level}")


def _op(a: np.ndarray) -> np.ndarray:
    return -np.trace(a) * np.eye(3) + a


def _opp(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _op(a) @ _op(b) + _op(b @ a)


def _a_matrix(sigma: np.ndarray) -> np.ndarray:
    srp = sigma[:3, 3:]
    spp = sigma[3:, 3:]
    a = np.zeros((6, 6))
    a[:3, :3] = _op(spp)
    a[:3, 3:] = _op(srp + srp.T)
    a[3:, 3:] = _op(spp)
    return a


def compound_covariance(sigma_acc: np.ndarray, sigma_step: np.ndarray,
                        accumulated: np.ndarray, order: int = 2) -> np.ndarray:
    """Covariance of the composition of two independently perturbed
    transforms, with the step covariance carried through the adjoint of
    the accumulated transform. order=4 adds the higher-order curly-wedge
    correction terms; both variants return a symmetrized matrix.
    """
    sigma_acc = np.asarray(sigma_acc, dtype=float)
    sigma_step = np.asarray(sigma_step, dtype=float)
    if sigma_acc.shape != (6, 6) or sigma_step.shape != (6, 6):
        raise InputError("covariances must be 6x6")
    check_order(order)
    ad = se3_adjoint(accumulated)
    carried = ad @ sigma_step @ ad.T
    out = sigma_acc + carried
    if order == 4:
        a1 = _a_matrix(sigma_acc)
        a2 = _a_matrix(carried)
        out = out + (a1 @ carried + carried @ a1.T + a2 @ sigma_acc + sigma_acc @ a2.T) / 12.0
        s1rr, s1rp, s1pp = sigma_acc[:3, :3], sigma_acc[:3, 3:], sigma_acc[3:, 3:]
        s2rr, s2rp, s2pp = carried[:3, :3], carried[:3, 3:], carried[3:, 3:]
        brr = (_opp(s1pp, s2rr) + _opp(s1rp.T, s2rp) + _opp(s1rp, s2rp.T)
               + _opp(s1rr, s2pp))
        brp = _opp(s1pp, s2rp.T) + _opp(s1rp.T, s2pp)
        bpp = _opp(s1pp, s2pp)
        b = np.zeros((6, 6))
        b[:3, :3] = brr
        b[:3, 3:] = brp
        b[3:, :3] = brp.T
        b[3:, 3:] = bpp
        out = out + b / 4.0
    return 0.5 * (out + out.T)


def build_trajectory(steps, order: int = 2) -> TrajectoryEstimate:
    """Compose mean transforms and propagate covariances along the chain.

    Each step is a PoseDistribution (its mean pose and covariance) or a
    (4x4 transform, 6x6 covariance) pair; anything else raises InputError.
    The start pose is the identity with zero covariance.
    """
    check_order(order)
    mats = [np.eye(4)]
    covs = [np.zeros((6, 6))]
    for step in steps:
        if isinstance(step, PoseDistribution):
            mat, cov = pose_to_matrix(step.mean), step.covariance
        elif isinstance(step, (tuple, list)) and len(step) == 2 and np.shape(step[0]) == (4, 4):
            mat, cov = np.asarray(step[0], dtype=float), step[1]
        else:
            raise InputError("a step is a PoseDistribution or a (4x4 transform, 6x6 covariance) "
                             f"pair, got {type(step).__name__}")
        covs.append(compound_covariance(covs[-1], cov, mats[-1], order=order))
        mats.append(mats[-1] @ mat)
    return TrajectoryEstimate(transforms=np.stack(mats), covariances=np.stack(covs))


def confidence_ellipse(cov2d: np.ndarray, level: float = 0.95):
    """Axis lengths and orientation of a planar confidence ellipse.

    Returns (semi_axes, angle): semi_axes = (major, minor) are sqrt of the
    eigenvalues scaled by the chi-squared(2) quantile of the level,
    -2 log(1 - level); angle orients the major axis, in radians from the +x
    axis.
    """
    cov2d = np.asarray(cov2d, dtype=float)
    if cov2d.shape != (2, 2):
        raise InputError(f"expected a 2x2 covariance, got {cov2d.shape}")
    check_level(level)
    w, v = np.linalg.eigh(cov2d)
    if w[0] < -1e-12:
        raise InputError("covariance must be positive semi-definite")
    w = np.clip(w, 0.0, None)
    q = -2.0 * np.log1p(-level)
    major = float(np.sqrt(w[1] * q))
    minor = float(np.sqrt(w[0] * q))
    angle = float(np.arctan2(v[1, 1], v[0, 1]))
    return np.array([major, minor]), angle


_UT = np.triu_indices(6)


def trajectory_rows(traj: TrajectoryEstimate):
    """Rows for the trajectory CSV: index, pose 6-vector, and the 21 upper
    triangle covariance entries (row-major)."""
    for i in range(len(traj)):
        yield i, matrix_to_pose(traj.transforms[i]).to_array(), traj.covariances[i][_UT]


def ellipse_rows(traj: TrajectoryEstimate, level: float = 0.95):
    """Rows for the ellipse CSV: index, (x, y) center, axes, orientation and
    level of the confidence ellipse of each pose's x-y marginal covariance.
    A level outside (0, 1) raises InputError."""
    for i in range(len(traj)):
        x, y = traj.transforms[i][:2, 3]
        axes, angle = confidence_ellipse(traj.covariances[i][:2, :2], level)
        yield i, (float(x), float(y)), axes, angle, level
