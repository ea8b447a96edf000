"""Independent reference implementations for the test suite.

Everything here is deliberately naive: per-dimension finite differences,
double loops over particle pairs, brute-force nearest neighbors, and
plain Monte-Carlo sampling. The package must agree with these within the
tolerances stated in the tests; nothing in this module is imported by the
package itself.
"""

from dataclasses import dataclass

import numpy as np

from stein_icp import prior_gradient


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


def _series(t):
    """The SO(3) series coefficients a = sin t / t, b = (1 - cos t) / t^2
    and c = (t - sin t) / t^3 at angles t >= 0, each by its Taylor series
    below t = 1e-4."""
    small = t < 1e-4
    ts = np.where(small, 1.0, t)
    sin = np.sin(ts)
    a = sin / ts
    b = (1.0 - np.cos(ts)) / (ts * ts)
    c = (ts - sin) / (ts * ts * ts)
    if small.any():
        t2 = t[small] ** 2
        a[small] = 1.0 - t2 / 6.0
        b[small] = 0.5 - t2 / 24.0
        c[small] = 1.0 / 6.0 - t2 / 120.0
    return a, b, c


def _cross(u, v):
    """Cross products of (3, n) rows of vectors."""
    out = np.empty_like(u)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(u[j], v[k], out=out[i])
        out[i] -= u[k] * v[j]
    return out


def _exp_rows(xi):
    """SE(3) exponential of (n, 6) twists ordered (rho, phi) in row form:
    the rotations Exp(phi) as (3, 3, n) entry rows and the translations
    J(phi) rho as (3, n) rows, from the closed-form series

        R = I + a Phi + b Phi^2,   J = I + b Phi + c Phi^2,

    with t = |phi|, the coefficients of _series and Phi^2 = phi phi^T -
    t^2 I multiplied out:

        R = (1 - b t^2) I + a Phi + b phi phi^T,
        J rho = rho + b phi x rho + c phi x (phi x rho)."""
    rho, phi = np.ascontiguousarray(xi.T).reshape(2, 3, -1)
    t2 = (phi * phi).sum(axis=0)
    a, b, c = _series(np.sqrt(t2))
    R = (b * phi)[:, None] * phi
    ap = a * phi
    diagonal = 1.0 - b * t2
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        R[i, j] -= ap[k]
        R[j, i] += ap[k]
        R[i, i] += diagonal
    u = _cross(phi, rho)
    w = _cross(phi, u)
    w *= c
    u *= b
    u += w
    u += rho
    return R, u


def _log_rows(R, p):
    """Inverse of _exp_rows on (3, 3, n) rotation rows whose angle is below
    pi and (3, n) translation rows, as (6, n) twist rows: phi = t u with
    cos t = (tr R - 1)/2 and u the unit axis of R - R^T, and rho =
    J(phi)^-1 p = p - phi x p / 2 + d phi x (phi x p), with d = (1 - a /
    (2 b)) / t^2, by its Taylor series 1/12 + t^2/720 below t = 1e-4."""
    v = 0.5 * np.stack([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    s = np.sqrt((v * v).sum(axis=0))
    t = np.arctan2(s, 0.5 * (R[0, 0] + R[1, 1] + R[2, 2] - 1.0))
    phi = v * (t / np.where(s > 0.0, s, 1.0))
    a, b, _ = _series(t)
    small = t < 1e-4
    ts = np.where(small, 1.0, t)
    d = np.where(small, 1.0 / 12.0 + t * t / 720.0, (1.0 - a / (2.0 * b)) / (ts * ts))
    u = _cross(phi, p)
    return np.concatenate([p - 0.5 * u + d * _cross(phi, u), phi])


def se3_exp(xi):
    """SE(3) exponential of (n, 6) twists ordered (rho, phi), translation
    first as in geometry.se3_adjoint: the (n, 4, 4) transforms with
    rotation Exp(phi) and translation J(phi) rho (Barfoot & Furgale, T-RO
    2014), from _exp_rows."""
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    R, p = _exp_rows(xi)
    out = np.zeros((len(xi), 4, 4))
    out[:, :3, :3] = R.transpose(2, 0, 1)
    out[:, :3, 3] = p.T
    out[:, 3, 3] = 1.0
    return out


def se3_log(T):
    """Inverse of se3_exp on (n, 4, 4) transforms whose rotation angle is
    below pi, from _log_rows: (n, 6) twists."""
    T = np.asarray(T, dtype=float).reshape(-1, 4, 4)
    return _log_rows(T[:, :3, :3].transpose(1, 2, 0), T[:, :3, 3].T).T


def mc_compose_chain(step_means, step_covs, n_samples, rng):
    """Monte-Carlo composition oracle.

    Every step transform is perturbed on the left by the SE(3) exponential
    of a Gaussian twist drawn from its covariance; the perturbed chain is
    composed per sample and the logarithm of the total's left error
    extracted. Returns the sample covariance of those twists.

    Rotations and translations compose apart, as (3, 3, n) and (3, n) rows:
    a sample's (R, p) times a step's exponential (E, e) and mean (Rt, pt)
    is (R E Rt, R (E pt + e) + p), so each sample costs 3x3 products and
    3-vectors in place of 4x4 products.
    """
    R = np.broadcast_to(np.eye(3)[:, :, None], (3, 3, n_samples))
    p = np.zeros((3, n_samples))
    total = np.eye(4)
    for T, cov in zip(step_means, step_covs):
        # The draws and the values of rng.multivariate_normal(0, cov,
        # method="cholesky"), without its mean and checks.
        eps = rng.standard_normal((n_samples, 6)) @ np.linalg.cholesky(cov).T
        E, e = _exp_rows(eps)
        # A constant factor multiplies each row i of a (3, 3, n) stack as
        # one matrix product: (E Rt)[i] = Rt^T E[i] and (E pt)[i] = pt^T E[i].
        e += T[:3, 3] @ E
        p += np.einsum("ikn,kn->in", R, e)
        R = np.einsum("ikn,kjn->ijn", R, T[:3, :3].T @ E)
        total = total @ T
    # The left error (R, p) total^-1 = (R Rt^T, p - R Rt^T pt) of the
    # composed mean (Rt, pt).
    err = total[:3, :3] @ R
    return np.cov(_log_rows(err, p - total[:3, 3] @ err))


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


def gaussian_kde(samples):
    """Gaussian kernel density of 1-D samples on a uniform grid of 2001
    points spanning the samples plus three bandwidths, summed one sample at
    a time. The bandwidth is Silverman's rule of thumb, h = 0.9 min(std,
    IQR / 1.34) n^(-1/5) (Silverman, Density Estimation, 1986, eq. 3.31).
    Returns (grid, density)."""
    x = np.asarray(samples, dtype=float).ravel()
    n = x.size
    q25, q75 = np.quantile(x, [0.25, 0.75])
    h = 0.9 * min(np.std(x, ddof=1), (q75 - q25) / 1.34) * n ** -0.2
    grid = np.linspace(x.min() - 3.0 * h, x.max() + 3.0 * h, 2001)
    density = np.zeros_like(grid)
    for xi in x:
        density += np.exp(-0.5 * ((grid - xi) / h) ** 2)
    return grid, density / (n * h * np.sqrt(2.0 * np.pi))


def kde_modes(samples, rel_height=0.5):
    """Locations of gaussian_kde's local maxima above rel_height of the
    peak."""
    grid, dens = gaussian_kde(samples)
    peak = dens.max()
    modes = []
    for i in range(1, len(grid) - 1):
        if dens[i] >= dens[i - 1] and dens[i] > dens[i + 1] and dens[i] > rel_height * peak:
            modes.append(float(grid[i]))
    return modes
