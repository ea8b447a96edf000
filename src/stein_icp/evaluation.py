"""Posterior quality evaluation and trajectory error metrics.

The reference distribution for judging a registration posterior is a
Monte-Carlo one: many independent SGD-ICP restarts from dispersed
initializations, which stein.mc_ground_truth draws; this module imports
nothing from the engine. Fitted Gaussians (circular-aware for the angle
block) feed a closed-form KL divergence; a per-dimension overlapping
coefficient, also in closed form, gives a bounded [0, 1] agreement score;
1D kernel density estimates (Silverman's-rule bandwidth, on a fixed
512-point grid) expose multi-modal structure that moments hide.

Angle dimensions (indices 3, 4, 5) are treated circularly throughout:
circular means, wrapped residuals, wrapped mean differences, periodic
KDE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .geometry import invert, wrap_angle

__all__ = [
    "PoseDistribution",
    "fit_gaussian",
    "kl_gaussian",
    "kl_translation",
    "kl_rotation",
    "ovl_coefficient",
    "kde_1d",
    "relative_pose_error",
    "pose_summary",
    "metrics_report",
    "DIMENSION_NAMES",
]

DIMENSION_NAMES = ("x", "y", "z", "roll", "pitch", "yaw")
ANGULAR_DIMS = (3, 4, 5)
_COV_REG = 1e-12
# Points of the uniform grid kde_1d evaluates its density on.
KDE_GRID = 512


@dataclass(frozen=True)
class PoseDistribution:
    """Samples from a pose posterior plus fitted Gaussian summaries.

    samples is (n, 6) with wrapped angles; mean uses circular means on the
    angle block; covariance is the sample covariance of (wrapped) residuals
    with a 1e-12 diagonal regularizer.
    """

    samples: np.ndarray
    mean: np.ndarray
    covariance: np.ndarray

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "PoseDistribution":
        samples = np.array(samples, dtype=float)
        if samples.ndim != 2 or samples.shape[1] != 6:
            raise InputError(f"samples must be (n, 6), got {samples.shape}")
        if samples.shape[0] < 1:
            raise InputError("need at least one sample")
        if not np.isfinite(samples).all():
            raise InputError("samples contain non-finite values")
        samples[:, 3:] = wrap_angle(samples[:, 3:])
        mean, cov = fit_gaussian(samples)
        return cls(samples=samples, mean=mean, covariance=cov)

    def __len__(self) -> int:
        return self.samples.shape[0]


def fit_gaussian(samples) -> tuple[np.ndarray, np.ndarray]:
    """Circular-aware Gaussian fit of (n, 6) pose samples.

    Translation means are arithmetic; angle means are circular
    (atan2 of averaged sines and cosines). Residuals on angle dimensions
    are wrapped before forming the (n - 1)-normalized covariance, and
    1e-12 I keeps the result invertible even for degenerate sample sets.
    """
    if isinstance(samples, PoseDistribution):
        return samples.mean.copy(), samples.covariance.copy()
    x = np.asarray(samples, dtype=float)
    if x.ndim != 2 or x.shape[1] != 6:
        raise InputError(f"samples must be (n, 6), got {x.shape}")
    n = x.shape[0]
    mean = np.empty(6)
    mean[:3] = x[:, :3].mean(axis=0)
    mean[3:], angle_resid = _circular_residuals(x[:, 3:])
    resid = x - mean
    resid[:, 3:] = angle_resid
    if n > 1:
        cov = (resid.T @ resid) / (n - 1)
    else:
        cov = np.zeros((6, 6))
    cov = cov + _COV_REG * np.eye(6)
    return mean, cov


def _circular_residuals(angles: np.ndarray):
    """The circular mean of angles along axis 0 (atan2 of the averaged
    sines and cosines) and the residuals wrapped about it."""
    mean = np.arctan2(np.sin(angles).mean(axis=0), np.cos(angles).mean(axis=0))
    return mean, wrap_angle(angles - mean)


def _mean_cov(d):
    if isinstance(d, PoseDistribution):
        return d.mean, d.covariance
    mean, cov = d
    return np.asarray(mean, dtype=float), np.asarray(cov, dtype=float)


def kl_gaussian(p, q, angular_dims=ANGULAR_DIMS) -> float:
    """KL(p || q) between two Gaussians in closed form.

    p and q are PoseDistributions or (mean, covariance) pairs of matching
    dimension. Mean differences on angular_dims are wrapped so that fits
    straddling the +-pi seam do not explode the quadratic term.
    """
    mean_p, cov_p = _mean_cov(p)
    mean_q, cov_q = _mean_cov(q)
    k = mean_p.shape[0]
    if mean_q.shape != (k,) or cov_p.shape != (k, k) or cov_q.shape != (k, k):
        raise InputError("mean/covariance shapes disagree")
    diff = mean_q - mean_p
    for d in angular_dims:
        if d < k:
            diff[d] = wrap_angle(diff[d])
    sign_q, logdet_q = np.linalg.slogdet(cov_q)
    sign_p, logdet_p = np.linalg.slogdet(cov_p)
    if sign_q <= 0 or sign_p <= 0:
        raise NumericalError("covariances must be positive definite")
    try:
        solved = np.linalg.solve(cov_q, cov_p)
        maha = diff @ np.linalg.solve(cov_q, diff)
    except np.linalg.LinAlgError as e:
        raise NumericalError(f"singular covariance in KL: {e}") from e
    return float(0.5 * (np.trace(solved) + maha - k + logdet_q - logdet_p))


def kl_translation(p, q) -> float:
    """KL between the translation marginals (first three dimensions)."""
    mp, cp = _mean_cov(p)
    mq, cq = _mean_cov(q)
    return kl_gaussian((mp[:3], cp[:3, :3]), (mq[:3], cq[:3, :3]), angular_dims=())


def kl_rotation(p, q) -> float:
    """KL between the rotation marginals (last three dimensions)."""
    mp, cp = _mean_cov(p)
    mq, cq = _mean_cov(q)
    return kl_gaussian((mp[3:], cp[3:, 3:]), (mq[3:], cq[3:, 3:]), angular_dims=(0, 1, 2))


def _gaussian_crossings(m1, v1, m2, v2) -> list:
    """Sorted solutions of pdf1(x) == pdf2(x) for v1 <= v2: two, one for
    equal variances, none for identical marginals. In y = x - m1 and with
    d = m2 - m1 they solve (v2 - v1) y^2 + 2 d v1 y - v1 (d^2 + v2 L) = 0,
    L = log(v2 / v1), whose discriminant v1 v2 (d^2 + (v2 - v1) L) sums
    non-negative terms; each root takes the form that does not cancel."""
    d = m2 - m1
    a = v2 - v1
    log_ratio = math.log1p(a / v1)
    q = -(d * v1 + math.copysign(
        math.sqrt(v1) * math.sqrt(v2) * math.sqrt(d * d + a * log_ratio), d))
    if q == 0.0:
        return []
    near = m1 - v1 * (d * d + v2 * log_ratio) / q
    if a == 0.0:
        return [near]
    return sorted([m1 + q / a, near])


def _normal_mass(lo, hi, m, v) -> float:
    """Mass of N(m, v) on [lo, hi], taken from the nearer tail so that a
    small mass keeps its digits."""
    w = math.sqrt(2.0 * v)
    a, b = (lo - m) / w, (hi - m) / w
    if a >= 0.0:
        return 0.5 * (math.erfc(a) - math.erfc(b))
    if b <= 0.0:
        return 0.5 * (math.erfc(-b) - math.erfc(-a))
    return 1.0 - 0.5 * (math.erfc(-a) + math.erfc(b))


def ovl_coefficient(p, q, angular_dims=ANGULAR_DIMS) -> float:
    """Average per-dimension overlapping coefficient, in [0, 1].

    For each dimension the marginals N(mean_i, var_i) are compared by the
    mass of min(pdf_p, pdf_q), in closed form: a sum of normal-CDF
    differences between the density crossings (Inman & Bradley, Comm.
    Statist. 1989); the six values are averaged. Angular dimensions compare
    mean differences on the wrapped line, which is accurate while the
    marginals stay concentrated (circular spread well below the full
    circle).
    """
    return float(_ovl_per_dimension(p, q, angular_dims).mean())


def _ovl_per_dimension(p, q, angular_dims) -> np.ndarray:
    """Overlapping coefficient of each marginal pair, shape (k,)."""
    mean_p, cov_p = _mean_cov(p)
    mean_q, cov_q = _mean_cov(q)
    k = mean_p.shape[0]
    vals = np.empty(k)
    for d in range(k):
        m1, v1 = float(mean_p[d]), float(cov_p[d, d])
        m2, v2 = float(mean_q[d]), float(cov_q[d, d])
        if v1 <= 0 or v2 <= 0:
            raise NumericalError("marginal variances must be positive")
        if d in angular_dims:
            # Shift q's mean to the wrapped difference around p's mean.
            m2 = m1 + float(wrap_angle(m2 - m1))
        # The narrower marginal first, on a tie the one with the larger mean:
        # then the smaller density is first, second, first on the intervals
        # between the crossings, as the narrower one has the lower tails.
        pair = sorted([(m1, v1), (m2, v2)], key=lambda mv: (mv[1], -mv[0]))
        edges = [-math.inf, *_gaussian_crossings(*pair[0], *pair[1]), math.inf]
        val = sum(_normal_mass(lo, hi, *pair[i % 2])
                  for i, (lo, hi) in enumerate(zip(edges, edges[1:])))
        vals[d] = min(1.0, max(0.0, val))
    return vals


def kde_1d(samples, angular: bool = False):
    """Gaussian kernel density estimate on a uniform grid of KDE_GRID points.

    Returns (grid, density). The bandwidth is Silverman's rule,
    h = 0.9 min(std, IQR/1.34) n^(-1/5). Linear grids span the samples
    plus three bandwidths; angular estimates live on [-pi, pi) with the
    kernel wrapped around the circle, so the density is periodic and
    integrates to one over the circle. Their std and IQR are those of the
    residuals wrapped about the circular mean, so that a posterior that
    straddles +-pi keeps its spread.
    """
    x = np.asarray(samples, dtype=float).reshape(-1)
    n = x.size
    if n < 2:
        raise InputError(f"kde needs at least 2 samples, got {n}")
    if not np.isfinite(x).all():
        raise InputError("kde samples contain non-finite values")
    resid = x
    if angular:
        x = wrap_angle(x)
        resid = _circular_residuals(x)[1]
    std = float(np.std(resid, ddof=1))
    q75, q25 = np.percentile(resid, [75, 25])
    iqr = float(q75 - q25)
    spread = min(std, iqr / 1.34) if iqr > 0 else std
    h = 0.9 * spread * n ** (-0.2)
    if h <= 0:
        h = 1e-9
    norm = 1.0 / (n * h * np.sqrt(2.0 * np.pi))
    if angular:
        grid = np.linspace(-np.pi, np.pi, KDE_GRID, endpoint=False)
        diff = grid[:, None] - x[None, :]
        dens = np.zeros(KDE_GRID)
        for k in range(-3, 4):
            dens += np.exp(-0.5 * ((diff + 2.0 * np.pi * k) / h) ** 2).sum(axis=1)
        return grid, norm * dens
    lo = x.min() - 3.0 * h
    hi = x.max() + 3.0 * h
    grid = np.linspace(lo, hi, KDE_GRID)
    diff = grid[:, None] - x[None, :]
    dens = np.exp(-0.5 * (diff / h) ** 2).sum(axis=1)
    return grid, norm * dens


def relative_pose_error(estimated, ground_truth, delta: int = 1):
    """Per-step relative pose errors between two aligned trajectories.

    Both inputs are sequences of homogeneous 4x4 transforms of equal
    length L. For each i the error transform is

        E_i = (Qhat_i)^-1 Q_i,   Qhat_i = Te_i^-1 Te_{i+delta},
                                 Q_i    = Tg_i^-1 Tg_{i+delta}

    and the returned arrays (length L - delta) hold the translation norm
    and the absolute rotation angle of E_i. Identical trajectories give
    exact zeros.
    """
    est = np.asarray(estimated, dtype=float)
    gt = np.asarray(ground_truth, dtype=float)
    if est.shape != gt.shape or est.ndim != 3 or est.shape[1:] != (4, 4):
        raise InputError(f"trajectories must both be (L, 4, 4), got {est.shape} vs {gt.shape}")
    L = est.shape[0]
    if not (1 <= delta < L):
        raise InputError(f"delta must satisfy 1 <= delta < {L}, got {delta}")
    n = L - delta
    trans = np.empty(n)
    rot = np.empty(n)
    for i in range(n):
        rel_est = invert(est[i]) @ est[i + delta]
        rel_gt = invert(gt[i]) @ gt[i + delta]
        if np.array_equal(rel_est, rel_gt):
            trans[i] = 0.0
            rot[i] = 0.0
            continue
        err = invert(rel_est) @ rel_gt
        trans[i] = np.linalg.norm(err[:3, 3])
        cos_angle = (np.trace(err[:3, :3]) - 1.0) / 2.0
        rot[i] = np.arccos(min(1.0, max(-1.0, cos_angle)))
    return trans, rot


# --------------------------------------------------------------------------
# Summaries


def pose_summary(dist: PoseDistribution) -> dict:
    """Per-dimension statistics for reports: linear std for translations,
    circular std and resultant length for angles."""
    out = {}
    std = np.sqrt(np.diag(dist.covariance))
    for d, name in enumerate(DIMENSION_NAMES):
        entry = {"mean": float(dist.mean[d]), "std": float(std[d])}
        if d in ANGULAR_DIMS:
            r = float(np.hypot(np.sin(dist.samples[:, d]).mean(),
                               np.cos(dist.samples[:, d]).mean()))
            entry["resultant_length"] = r
            entry["circular_std"] = float(np.sqrt(-2.0 * np.log(r))) if r > 0 else float("inf")
        out[name] = entry
    return out


def metrics_report(candidate: PoseDistribution, reference: PoseDistribution) -> dict:
    """Bundle of the posterior-quality metrics against a reference."""
    per_dim_ovl = _ovl_per_dimension(candidate, reference, ANGULAR_DIMS)
    return {
        "kl_6d": kl_gaussian(candidate, reference),
        "kl_translation": kl_translation(candidate, reference),
        "kl_rotation": kl_rotation(candidate, reference),
        "ovl": float(per_dim_ovl.mean()),
        "ovl_per_dimension": [float(v) for v in per_dim_ovl],
        "candidate": pose_summary(candidate),
        "reference": pose_summary(reference),
    }
