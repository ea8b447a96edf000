"""Independent reference implementations for the test suite.

Everything here is deliberately naive: per-dimension finite differences,
double loops over particle pairs, brute-force nearest neighbors, and
plain Monte-Carlo sampling. The package must agree with these within the
tolerances stated in the tests; nothing in this module is imported by the
package itself.
"""

from dataclasses import dataclass

import numpy as np

from stein_icp import invert, prior_gradient


@dataclass(frozen=True)
class Pairs:
    """Matched pairs: source points s_i, reference points r_i and, for the
    point-to-plane metric, unit normals n_i at r_i, each (m, 3)."""

    source_points: np.ndarray
    reference_points: np.ndarray
    reference_normals: np.ndarray | None = None

    def __len__(self):
        return len(self.source_points)


def random_pairs(rng, m=40, with_normals=False, scale=1.0):
    """A matched batch with no correspondence structure: cost and gradient
    functions treat the pairing as given, so random pairs exercise them on
    a generic quadratic landscape."""
    src = rng.uniform(-scale, scale, (m, 3))
    ref = rng.uniform(-scale, scale, (m, 3))
    normals = None
    if with_normals:
        normals = rng.normal(size=(m, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return Pairs(src, ref, normals)


def euler_matrix(roll, pitch, yaw):
    """R = Rz(yaw) Ry(pitch) Rx(roll), multiplied out from the three
    elementary rotations."""
    cr, sr = np.cos(roll), np.sin(roll)
    cp, sp = np.cos(pitch), np.sin(pitch)
    cy, sy = np.cos(yaw), np.sin(yaw)
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]])
    ry = np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
    rz = np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
    return rz @ ry @ rx


def pair_loop_cost(pairs, pose, metric="point"):
    """Mean squared (point) or normal-projected (plane) residual, one pair
    at a time."""
    p = np.asarray(pose, dtype=float)
    R = euler_matrix(p[3], p[4], p[5])
    total = 0.0
    for i in range(len(pairs)):
        e = R @ pairs.source_points[i] + p[:3] - pairs.reference_points[i]
        if metric == "plane":
            total += float(np.dot(pairs.reference_normals[i], e)) ** 2
        else:
            total += float(np.dot(e, e))
    return total / len(pairs)


def fd_pose_gradient(pairs, pose, metric="point", h=1e-6):
    """Central finite differences of half the batch cost.

    The analytic gradient follows the half-quadratic convention, so the
    matching numeric route differentiates cost/2:

        g[d] = (cost(pose + h e_d) - cost(pose - h e_d)) / (4 h)
    """
    base = np.asarray(pose, dtype=float)
    g = np.empty(6)
    for d in range(6):
        hi = base.copy()
        lo = base.copy()
        hi[d] += h
        lo[d] -= h
        g[d] = (pair_loop_cost(pairs, hi, metric) - pair_loop_cost(pairs, lo, metric)) / (4.0 * h)
    return g


def linear_scan_nn(queries, ref_points):
    """Brute-force exact nearest neighbor, ties to the lowest index."""
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    ref_points = np.asarray(ref_points, dtype=float)
    dists = np.empty(len(queries))
    idx = np.empty(len(queries), dtype=np.int64)
    for i, q in enumerate(queries):
        d = np.linalg.norm(ref_points - q, axis=1)
        best = int(np.flatnonzero(d == d.min())[0])
        idx[i] = best
        dists[i] = d[best]
    return dists, idx


def oracle_wrap(a):
    """Angle wrap to [-pi, pi) through arctan2(sin, cos), independent of the
    package's shift-based wrap_angle."""
    w = np.arctan2(np.sin(a), np.cos(a))
    return np.where(w >= np.pi, w - 2.0 * np.pi, w)


def translation_kernel(a, b, h):
    """Squared-exponential kernel on R^3: k = exp(-||a - b||^2 / h).

    Returns (k, grad) with grad the derivative in the first argument,
    grad = -(2/h) (a - b) k.
    """
    diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    k = float(np.exp(-np.dot(diff, diff) / h))
    return k, -(2.0 / h) * diff * k


def rotation_kernel(a, b, h):
    """Same form on wrapped angle differences, so angles just across the
    seam count as close. The wrap is locally an identity, so the gradient
    in the first argument has the translation kernel's form."""
    diff = oracle_wrap(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
    k = float(np.exp(-np.dot(diff, diff) / h))
    return k, -(2.0 / h) * diff * k


def naive_median_bandwidth(block, angular=False):
    """Median over distinct pairs of the squared (wrapped, when angular)
    difference norm, over log K, one pair at a time; 1 for a single
    particle and at least 1e-8."""
    block = np.atleast_2d(np.asarray(block, dtype=float))
    K = block.shape[0]
    if K < 2:
        return 1.0
    sq = []
    for i in range(K):
        for j in range(i + 1, K):
            d = block[j] - block[i]
            if angular:
                d = oracle_wrap(d)
            sq.append(float(np.dot(d, d)))
    return max(float(np.median(sq)) / np.log(K), 1e-8)


def naive_stein_direction(particles, grads, prior, h_trans="median", h_rot="median",
                          repulsion=True):
    """Double loop over (target, source) particle pairs built from the
    kernel functions above, averaged over the sources; the vectorized
    version must match this. h_trans / h_rot are "median", which takes
    naive_median_bandwidth, or a given bandwidth."""
    theta = np.atleast_2d(np.asarray(particles, dtype=float))
    g = np.atleast_2d(np.asarray(grads, dtype=float))
    K = theta.shape[0]
    if h_trans == "median":
        h_trans = naive_median_bandwidth(theta[:, :3])
    if h_rot == "median":
        h_rot = naive_median_bandwidth(theta[:, 3:], angular=True)
    driving = -g + prior_gradient(prior, theta)
    out = np.zeros_like(theta)
    for i in range(K):
        for j in range(K):
            kt, grad_t = translation_kernel(theta[j, :3], theta[i, :3], h_trans)
            kr, grad_r = rotation_kernel(theta[j, 3:], theta[i, 3:], h_rot)
            out[i, :3] += driving[j, :3] * kt
            out[i, 3:] += driving[j, 3:] * kr
            if repulsion:
                out[i, :3] += grad_t
                out[i, 3:] += grad_r
    return out / K


def two_point_samples(mean, n=400):
    """Samples whose fitted per-dimension mean and (n-1)-normalized variance
    are exactly `mean` and 1: alternating mean + c and mean - c with
    c = sqrt((n - 1)/n). Values stay within mean +- 1, so angle dimensions
    with |mean| <= 2 never cross the wrap seam."""
    if n % 2:
        raise ValueError("n must be even for exact moments")
    c = np.sqrt((n - 1) / n)
    out = np.tile(np.asarray(mean, dtype=float), (n, 1))
    out[0::2] += c
    out[1::2] -= c
    return out


def _hat(phi):
    """Cross-product matrices of an (n, 3) array of rotation vectors."""
    x, y, z = phi[:, 0], phi[:, 1], phi[:, 2]
    zero = np.zeros_like(x)
    return np.stack([np.stack([zero, -z, y], -1),
                     np.stack([z, zero, -x], -1),
                     np.stack([-y, x, zero], -1)], -2)


def _rodrigues(phi):
    """Exp(phi) and the left Jacobian J(phi) of SO(3) for (n, 3) rotation
    vectors, both (n, 3, 3), from the closed-form series

        R = I + a Phi + b Phi^2,   J = I + b Phi + c Phi^2,
        a = sin t / t,  b = (1 - cos t) / t^2,  c = (t - sin t) / t^3,

    t = |phi|, each coefficient by its Taylor series below t = 1e-4."""
    t = np.linalg.norm(phi, axis=1)
    small = t < 1e-4
    ts = np.where(small, 1.0, t)
    t2 = t * t
    a = np.where(small, 1.0 - t2 / 6.0, np.sin(ts) / ts)
    b = np.where(small, 0.5 - t2 / 24.0, (1.0 - np.cos(ts)) / ts ** 2)
    c = np.where(small, 1.0 / 6.0 - t2 / 120.0, (ts - np.sin(ts)) / ts ** 3)
    Phi = _hat(phi)
    Phi2 = Phi @ Phi
    eye = np.eye(3)
    R = eye + a[:, None, None] * Phi + b[:, None, None] * Phi2
    J = eye + b[:, None, None] * Phi + c[:, None, None] * Phi2
    return R, J


def se3_exp(xi):
    """SE(3) exponential of (n, 6) twists ordered (rho, phi), translation
    first as in geometry.se3_adjoint: the (n, 4, 4) transforms with
    rotation Exp(phi) and translation J(phi) rho (Barfoot & Furgale, T-RO
    2014)."""
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    R, J = _rodrigues(xi[:, 3:])
    out = np.zeros((len(xi), 4, 4))
    out[:, :3, :3] = R
    out[:, :3, 3] = (J @ xi[:, :3, None])[:, :, 0]
    out[:, 3, 3] = 1.0
    return out


def se3_log(T):
    """Inverse of se3_exp on (n, 4, 4) transforms whose rotation angle is
    below pi: phi = t u with cos t = (tr R - 1)/2 and u the unit axis of
    R - R^T, and rho = J(phi)^-1 p by a linear solve."""
    T = np.asarray(T, dtype=float).reshape(-1, 4, 4)
    R = T[:, :3, :3]
    v = 0.5 * np.stack([R[:, 2, 1] - R[:, 1, 2], R[:, 0, 2] - R[:, 2, 0],
                        R[:, 1, 0] - R[:, 0, 1]], -1)
    s = np.linalg.norm(v, axis=1)
    t = np.arctan2(s, 0.5 * (np.trace(R, axis1=1, axis2=2) - 1.0))
    phi = (t / np.where(s > 0.0, s, 1.0))[:, None] * v
    _, J = _rodrigues(phi)
    rho = np.linalg.solve(J, T[:, :3, 3:])[:, :, 0]
    return np.column_stack([rho, phi])


def mc_compose_chain(step_means, step_covs, n_samples, rng):
    """Monte-Carlo composition oracle.

    Every step transform is perturbed on the left by the SE(3) exponential
    of a Gaussian twist drawn from its covariance; the perturbed chain is
    composed per sample and the logarithm of the total's left error
    extracted. Returns the sample covariance of those twists.
    """
    total = np.eye(4)
    for T in step_means:
        total = total @ T
    acc = np.broadcast_to(np.eye(4), (n_samples, 4, 4)).copy()
    for T, cov in zip(step_means, step_covs):
        eps = rng.multivariate_normal(np.zeros(6), cov, size=n_samples,
                                      method="cholesky")
        acc = acc @ se3_exp(eps) @ T
    return np.cov(se3_log(acc @ invert(total)), rowvar=False)


def kl_gaussian_1d(m1, v1, m2, v2):
    """Textbook KL divergence between two univariate Gaussians."""
    return 0.5 * (np.log(v2 / v1) + v1 / v2 + (m1 - m2) ** 2 / v2 - 1.0)


def ovl_trapezoid(m1, v1, m2, v2, n_grid=200001):
    """Overlap of two 1D Gaussians by dense trapezoidal integration of
    min(pdf1, pdf2); an independent route to the closed-form implementation.

    The nodes are the sorted union of one uniform grid over both marginals'
    +-12 sigma and one over each marginal's own +-12 sigma, so a marginal
    far narrower than the other is still resolved. The kinks of min() at
    the density crossings cost O(h^2): against mpmath it is within 1e-12 on
    the collapsed-marginal pairs of the tests and within about 3e-10 on
    random pairs.
    """
    s1, s2 = np.sqrt(v1), np.sqrt(v2)
    lo = min(m1 - 12 * s1, m2 - 12 * s2)
    hi = max(m1 + 12 * s1, m2 + 12 * s2)
    x = np.unique(np.concatenate([np.linspace(lo, hi, n_grid),
                                  np.linspace(m1 - 12 * s1, m1 + 12 * s1, n_grid),
                                  np.linspace(m2 - 12 * s2, m2 + 12 * s2, n_grid)]))
    p1 = np.exp(-0.5 * (x - m1) ** 2 / v1) / (s1 * np.sqrt(2 * np.pi))
    p2 = np.exp(-0.5 * (x - m2) ** 2 / v2) / (s2 * np.sqrt(2 * np.pi))
    return float(np.trapezoid(np.minimum(p1, p2), x))


def kde_modes(samples, rel_height=0.5, angular=False):
    """Locations of KDE local maxima above rel_height of the peak."""
    from stein_icp import kde_1d

    grid, dens = kde_1d(samples, angular=angular)
    peak = dens.max()
    modes = []
    for i in range(1, len(grid) - 1):
        if dens[i] >= dens[i - 1] and dens[i] > dens[i + 1] and dens[i] > rel_height * peak:
            modes.append(float(grid[i]))
    return modes
