"""Stein variational registration.

A population of K pose particles descends the mini-batch ICP cost while a
kernel couples them: each particle is attracted along the consensus of the
scaled cost gradients (plus an optional prior) and repelled from its
neighbors by the kernel gradient. The stationary population approximates
the pose posterior; K = 1 with no prior degenerates to plain SGD-ICP.

Blocks are treated separately: translations use a squared-exponential
kernel on Euclidean distance, rotations use the same form on wrapped
angle differences so that nearly-equal angles across the +-pi seam count
as close. Each block gets its own median-heuristic bandwidth, recomputed
every iteration.

The kernel layer visits each particle pair once. Per block it computes
the K(K-1)/2 squared distances in condensed (pdist) form, takes the median
from one single-kth partition, applies exp to the condensed vector and
expands it to the symmetric K x K kernel matrix. The repulsion needs no
(3, K, K) difference planes: sum_j (x_j - x_i) k_ij = (k x)_i - x_i
sum_j k_ij comes from one matrix product, and an angle column whose
spread reaches pi corrects the pairs whose difference wraps.

Matching is coarse to fine (Jost & Hugli, "A multi-resolution ICP with
heuristic closest point search", 3DIM 2003): the first third of the
iterations match a nearest-point table over the exact index's cell grid,
built once by a distance transform, whose queries cost one cell lookup,
and the rest match the exact index (see run_particle_engine).

Particles are plain (K, 6) float64 arrays ordered (x, y, z, roll, pitch,
yaw), one pose per row. A minibatch has one layout from the source gather
to the gradient: (3, K, m) coordinate rows, axis c of particle k's batch
being the contiguous row [c, k]. The source is stored once per solve as
(3, N) rows and gathered per axis; transform_stacked writes one matrix
product per particle into the row buffer; both matchers take the rows;
and stacked_cost_gradients sums each particle's pairs over a contiguous
row and forms the moments in one stacked matrix product.

run_particle_engine is the one optimization loop, and its three front ends
live here with the seed-stream labels they draw from: run_stein_icp (the
coupled swarm), run_sgd_icp (one pose, no prior) and mc_ground_truth
(uncoupled restarts, the Monte-Carlo reference). All three return or read
one EngineResult. The loop raises no numerical failure: it freezes a
particle that fails and records its iteration and cause in
EngineResult.failures. run_stein_icp and run_sgd_icp raise the first
recorded failure through one helper; mc_ground_truth drops its failed
restarts and, on request, returns the EngineResult that lists them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .cloud import PointCloud
from .correspondence import NearestTable, ReshuffledBatches, build_index, match_stacked
from .errors import (DivergedError, InputError, MatchRejectionError, NumericalError, check_count,
                     real_array)
from .evaluation import PoseDistribution
from .geometry import (Pose6D, pose_array, rotation_from_euler, rotation_partials,
                       transform_stacked, wrap_angle)
from .sgd import IcpConfig, stacked_cost_gradients

__all__ = [
    "SteinConfig",
    "PriorConfig",
    "UNIFORM_PRIOR",
    "median_bandwidth",
    "prior_gradient",
    "stein_direction",
    "sample_initial_particles",
    "run_stein_icp",
    "run_sgd_icp",
    "mc_ground_truth",
    "run_particle_engine",
    "EngineResult",
]

# Sub-stream labels under the run seed; keeps every random draw addressable.
_STREAM_INIT = 0
_STREAM_PARTICLE = 1
_STREAM_MC_INIT = 2      # mc_ground_truth's restart draws

_BANDWIDTH_FLOOR = 1e-8
_TWO_PI = 2.0 * np.pi

_COARSE_SHARE = 3         # the coarse table answers iterations [0, iterations // 3)

# Adam's published constants (Kingma & Ba, ICLR 2015): the moment decays and
# the denominator floor.
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8

# The causes an EngineResult records, in the order a front end reports them
# when several fail in one iteration.
_LOST = "no finite match"
_REJECTED = "all pairs rejected"
_NON_FINITE = "non-finite pose"
_STALLED = "non-finite step"


@dataclass(frozen=True)
class SteinConfig(IcpConfig):
    """Stein run parameters on top of the base ICP knobs.

    particles is the integer swarm size K. init_center / trans_range /
    rot_range define per-dimension uniform init intervals center +- range
    (ranges may be scalars or 3-sequences). The update direction is always
    the kernel mean over the K particles (stein_direction), each block's
    bandwidth the median heuristic; repulsion=False drops the
    kernel-gradient term (the deliberately collapsed baseline used in
    evaluations). Minibatches come from random reshuffling, one
    permutation per particle per epoch, each particle from its own seed
    stream. One particle with both ranges 0 and no prior is the one-pose
    SGD-ICP run from init_center: it reproduces run_sgd_icp bit for bit.
    """

    particles: int = 100
    repulsion: bool = True
    init_center: tuple = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    trans_range: object = 1.0
    rot_range: object = 0.1745

    def __post_init__(self):
        super().__post_init__()
        check_count("particles", self.particles, 1)
        self.init_bounds()

    def init_bounds(self) -> np.ndarray:
        """Per-dimension [lo, hi] bounds center +- range of the uniform init
        box, shape (6, 2). init_center has 6 finite entries; each range is a
        scalar or 3 values, non-negative and finite, for the translation and
        the angle block."""
        center = real_array("init_center", self.init_center)
        if center.shape != (6,) or not np.isfinite(center).all():
            raise InputError("init_center must have 6 finite entries")
        half = np.concatenate([_as_range("trans_range", self.trans_range),
                               _as_range("rot_range", self.rot_range)])
        return np.stack([center - half, center + half], axis=1)


def _as_range(name: str, r) -> np.ndarray:
    arr = np.atleast_1d(real_array(name, r))
    if arr.shape == (1,):
        arr = np.repeat(arr, 3)
    if arr.shape != (3,):
        raise InputError(f"{name} must be a scalar or 3 values, got shape {arr.shape}")
    if not ((arr >= 0) & (arr < np.inf)).all():
        raise InputError(f"{name} must be non-negative and finite")
    return arr


# --------------------------------------------------------------------------
# Priors


@dataclass(frozen=True)
class PriorConfig:
    """Pose prior: uninformative by default.

    The informed prior is Gaussian over translations (trans_variance holds
    per-axis variances) and von Mises over each angle (kappa = 0 turns a
    dimension uniform). mean is the prior center pose.
    """

    kind: str = "uniform"
    mean: tuple = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    trans_variance: tuple = (1.0, 1.0, 1.0)
    kappa: tuple = (1.0, 1.0, 1.0)

    def __post_init__(self):
        if self.kind not in ("uniform", "informed"):
            raise InputError(f"prior kind must be 'uniform' or 'informed', got {self.kind!r}")
        mean = real_array("prior mean", self.mean)
        tv = real_array("trans_variance", self.trans_variance)
        kp = real_array("kappa", self.kappa)
        if mean.shape != (6,) or not np.isfinite(mean).all():
            raise InputError("prior mean must have 6 finite entries")
        if tv.shape != (3,) or not ((tv > 0) & (tv < np.inf)).all():
            raise InputError("trans_variance must be 3 positive finite values")
        if kp.shape != (3,) or not ((kp >= 0) & (kp < np.inf)).all():
            raise InputError("kappa must be 3 non-negative finite values")


UNIFORM_PRIOR = PriorConfig()


def prior_gradient(prior: PriorConfig, particles: np.ndarray) -> np.ndarray:
    """Gradient of the log prior density at each particle.

    Shape follows the input: (6,) -> (6,), (K, 6) -> (K, 6). The uniform
    prior contributes exactly zero.
    """
    particles = np.asarray(particles, dtype=float)
    if prior.kind == "uniform":
        return np.zeros_like(particles)
    single = particles.ndim == 1
    theta = np.atleast_2d(particles)
    mean = np.asarray(prior.mean, dtype=float)
    out = np.empty_like(theta)
    out[:, :3] = -(theta[:, :3] - mean[:3]) / np.asarray(prior.trans_variance, dtype=float)
    out[:, 3:] = -np.asarray(prior.kappa, dtype=float) * np.sin(theta[:, 3:] - mean[3:])
    return out[0] if single else out


# --------------------------------------------------------------------------
# Condensed pair distances and the median bandwidth


def _wrapping_columns(x: np.ndarray, angular: bool) -> np.ndarray:
    """Which columns of x, (K, c), take the angle wrap: the angular ones
    (already in [-pi, pi)) whose spread reaches pi, since only there can a
    pairwise difference leave [-pi, pi). Shape (c,), bool."""
    if not angular:
        return np.zeros(x.shape[1], dtype=bool)
    return x.max(axis=0) - x.min(axis=0) >= np.pi


def _condensed_sq(x: np.ndarray, wraps: np.ndarray) -> np.ndarray:
    """Squared distances between the rows of x, (K, c), over the pairs
    i < j in pdist order, shape (K(K-1)/2,). A column flagged in wraps
    measures the shorter way round the circle, min(|d|, 2 pi - |d|), which
    equals |wrap_angle(d)| for |d| < 2 pi. The columns add up in order, as
    a column-by-column sum would round them."""
    lead = int(np.argmax(wraps)) if wraps.any() else x.shape[1]
    K = x.shape[0]
    sq = pdist(x[:, :lead], "sqeuclidean") if lead else np.zeros(K * (K - 1) // 2)
    for c in range(lead, x.shape[1]):
        d = pdist(x[:, c:c + 1], "cityblock")
        if wraps[c]:
            np.minimum(d, _TWO_PI - d, out=d)
        d *= d
        sq += d
    return sq


def _median(values: np.ndarray) -> float:
    """np.median of a 1-D array that holds no NaN, bit for bit, from one
    single-kth partition: for an even count the lower middle value is the
    largest entry below the partition point. (np.median partitions at two
    kths and the last entry, which costs several times more.)"""
    half = values.size // 2
    part = np.partition(values, half)
    if values.size % 2:
        return float(part[half])
    return (float(part[:half].max()) + float(part[half])) / 2.0


def _median_heuristic(sq: np.ndarray, K: int) -> float:
    """Median of the condensed squared distances over log K, floored at
    1e-8; 1 for a single particle."""
    if K < 2:
        return 1.0
    return max(_median(sq) / np.log(K), _BANDWIDTH_FLOOR)


def median_bandwidth(block: np.ndarray, angular: bool = False) -> float:
    """Median heuristic: median squared pairwise distance over log K, angle
    differences wrapped when angular; the one-block view of the bandwidth
    stein_direction computes. One particle gives h = 1;
    coincident particles hit the 1e-8 floor."""
    block = np.atleast_2d(np.asarray(block, dtype=float))
    if angular:
        block = wrap_angle(block)
    sq = _condensed_sq(block, _wrapping_columns(block, angular))
    return _median_heuristic(sq, block.shape[0])


# --------------------------------------------------------------------------
# Stein direction


def _wrap_turns(col: np.ndarray, kmat: np.ndarray) -> np.ndarray:
    """sum_j n_ij k_ij for one wrapping angle column, shape (K,), where
    n_ij = +1 if col_j > col_i + pi and -1 if col_j < col_i - pi: the turn
    the wrap takes off pair (i, j)'s difference col_j - col_i."""
    n = ((col > col[:, None] + np.pi).view(np.int8)
         - (col < col[:, None] - np.pi).view(np.int8))     # (K, K)
    return np.einsum("ij,ij->i", kmat, n)


def stein_direction(particles: np.ndarray, likelihood_grads: np.ndarray,
                    prior: PriorConfig, *, repulsion: bool = True) -> np.ndarray:
    """Update direction for every particle, shape (K, 6).

    For target particle i and source particles j, with driving term
    d_j = -likelihood_grads[j] + grad log prior(theta_j):

        phi[i] = (1/K) sum_j ( d_j * k(theta_j, theta_i) + grad_j k(theta_j, theta_i) )

    computed blockwise: a squared-exponential kernel exp(-||delta||^2 / h)
    on translation differences [:3] and on wrapped angle differences [3:].
    Each block's h is its median heuristic (median_bandwidth), taken from
    the same pair distances the kernel uses. The direction is always the
    mean over the K source particles, the SVGD update of Liu & Wang (2016).
    repulsion=False drops the grad_j k term, which makes co-located
    particles move in lockstep and collapse.

    Each pairwise quantity is computed once per pair i < j: the squared
    distances in condensed (pdist) form, the median from one partition,
    and exp of the condensed vector, expanded to the symmetric kernel
    matrix with a unit diagonal. The attraction is kmat @ d. The repulsion
    sum_j grad_j k = -(2/h) sum_j (x_j - x_i) k_ij comes from the one
    product kmat @ [x | 1], since sum_j (x_j - x_i) k_ij = (k x)_i - x_i
    sum_j k_ij; an angle column whose spread reaches pi also subtracts
    2 pi sum_j n_ij k_ij, with n_ij = +-1 on the pairs whose difference
    wraps. Angles are wrapped to [-pi, pi) on entry, so unwrapped input
    gives the same direction. A single particle gets its driving term.
    """
    theta = np.atleast_2d(np.asarray(particles, dtype=float))
    g = np.atleast_2d(np.asarray(likelihood_grads, dtype=float))
    if theta.shape != g.shape or theta.shape[1] != 6:
        raise InputError(f"particles {theta.shape} and gradients {g.shape} must both be (K, 6)")
    K = theta.shape[0]
    driving = -g + prior_gradient(prior, theta)
    if K == 1:
        # k(theta, theta) = 1 and the repulsion vanishes. Adding 0.0 turns
        # -0.0 into 0.0, as the product 1 * d does on the general path.
        return driving + 0.0

    out = np.empty_like(theta)
    blocks = ((slice(0, 3), theta[:, :3], False),
              (slice(3, 6), wrap_angle(theta[:, 3:]), True))
    for sl, x, angular in blocks:
        wraps = _wrapping_columns(x, angular)
        sq = _condensed_sq(x, wraps)
        h = _median_heuristic(sq, K)
        sq /= -h
        kmat = squareform(np.exp(sq, out=sq), checks=False)    # (K, K), symmetric
        np.fill_diagonal(kmat, 1.0)
        # A product of its own: OpenBLAS rounds these columns differently
        # inside a wider right-hand side, and the attraction keeps its bits.
        att = kmat @ driving[:, sl]
        if repulsion:
            # Columns taken relative to particle 0 keep (k x)_i and
            # x_i sum_j k_ij small, so their difference cancels no digits
            # when the swarm is far from the origin.
            rhs = np.ones((K, 4))
            xc = np.subtract(x, x[0], out=rhs[:, :3])
            kx = kmat @ rhs
            rep = kx[:, :3] - xc * kx[:, 3:]
            for c in np.flatnonzero(wraps):
                rep[:, c] -= _TWO_PI * _wrap_turns(x[:, c], kmat)
            att -= (2.0 / h) * rep
        out[:, sl] = att
        # Free this block's arrays before the next block allocates its own:
        # the lower peak lets the allocator reuse its pages rather than
        # fault in fresh ones.
        del sq, kmat
    out /= K
    return out


# --------------------------------------------------------------------------
# Initialization


def sample_initial_particles(K: int, bounds: np.ndarray, rng: np.random.Generator,
                             prior: PriorConfig | None = None) -> np.ndarray:
    """Draw the starting population.

    Uniform per dimension inside bounds (shape (6, 2)) unless an informed
    prior is given, in which case translations are Gaussian and angles von
    Mises draws from that prior. Angles are wrapped either way.
    """
    check_count("K", K, 1)
    if prior is not None and prior.kind == "informed":
        mean = np.asarray(prior.mean, dtype=float)
        std = np.sqrt(np.asarray(prior.trans_variance, dtype=float))
        out = np.empty((K, 6))
        for d in range(3):
            out[:, d] = rng.normal(mean[d], std[d], size=K)
        for d in range(3):
            kappa = float(np.asarray(prior.kappa, dtype=float)[d])
            out[:, 3 + d] = rng.vonmises(mean[3 + d], kappa, size=K)
    else:
        bounds = real_array("bounds", bounds)
        if bounds.shape != (6, 2):
            raise InputError(f"bounds must be (6, 2), got {bounds.shape}")
        if not (np.isfinite(bounds).all() and (bounds[:, 0] <= bounds[:, 1]).all()):
            raise InputError("each init bound must be finite with lo <= hi")
        out = np.empty((K, 6))
        for d in range(6):
            out[:, d] = rng.uniform(bounds[d, 0], bounds[d, 1], size=K)
    out[:, 3:] = wrap_angle(out[:, 3:])
    return out


# --------------------------------------------------------------------------
# Shared particle engine


def _update(theta: np.ndarray, dirs: np.ndarray, m: np.ndarray, v: np.ndarray, t: int,
            step_size: float):
    """The engine's update rule: one Adam step (Kingma & Ba, ICLR 2015, at
    the constants _BETA1, _BETA2 and _EPS) of the (K, 6) poses theta along
    their update directions dirs, after t steps taken, with the (K, 6)
    moments m and v. Adam descends the gradient -dirs: the step is
    -step_size * mhat / (sqrt(vhat) + _EPS), mhat and vhat being the
    bias-corrected moments.

    Returns (theta, m, v, bad, stalled): the new poses with angles wrapped,
    the new moments, the (K,) rows whose new pose is not finite, and the
    (K,) rows whose pose is finite but whose second moment is not. A
    squared gradient beyond the float range makes the second moment
    infinite for good, and the step of that coordinate 0 from then on, so
    such a row is stalled. Both kinds of row keep their old pose. The step
    and the wrap run under np.errstate, so an overflow warns nothing."""
    grad = -dirs
    t = t + 1
    with np.errstate(over="ignore", invalid="ignore"):
        m = _BETA1 * m + (1.0 - _BETA1) * grad
        v = _BETA2 * v + (1.0 - _BETA2) * grad * grad
        mhat = m / (1.0 - _BETA1 ** t)
        vhat = v / (1.0 - _BETA2 ** t)
        new = theta + -step_size * mhat / (np.sqrt(vhat) + _EPS)
        new[:, 3:] = wrap_angle(new[:, 3:])
    bad = ~np.isfinite(new).all(axis=1)
    stalled = ~bad & ~np.isfinite(v).all(axis=1)
    frozen = bad | stalled
    new[frozen] = theta[frozen]
    return new, m, v, bad, stalled


@dataclass
class EngineResult:
    particles: np.ndarray             # (K, 6) final (or last finite) poses
    cost_trace: np.ndarray            # (T,) mean batch cost over live particles
    failed: np.ndarray                # (K,) bool
    # (iteration, particle, cause) of each frozen particle, in the order it
    # failed; the cause is "no finite match", "all pairs rejected",
    # "non-finite pose" or "non-finite step".
    failures: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    # Wall time of the iteration loop, on the clock the phase timings use.
    loop_seconds: float = 0.0
    # Wall time of building the exact index and the coarse table, on that clock.
    build_seconds: float = 0.0
    particle_trace: np.ndarray | None = None   # (T + 1, K, 6) when recorded
    # The exact index: points it queried, those its cell grid certified and
    # the cells the grid filled; and the points the coarse table queried.
    match_counts: dict = field(default_factory=dict)


def run_particle_engine(source: PointCloud, reference: PointCloud,
                        particles: np.ndarray, config: IcpConfig,
                        prior: PriorConfig = UNIFORM_PRIOR, *,
                        interacting: bool = True, repulsion: bool = True,
                        record_trace: bool = False) -> EngineResult:
    """Iterate the particle population. All three front ends reduce to
    this loop, which is what makes the K=1 equivalence exact.

    Bad input raises InputError (particles not (K, 6) or not finite are
    checked before the loop); a numerical failure raises nothing. A
    particle that fails is frozen at its last finite pose, marked in failed and appended to
    failures as (iteration, particle, cause): "no finite match" when its
    moved points leave the floating-point range (no finite nearest-neighbor
    distance), "all pairs rejected" when max_dist rejects every pair of its
    batch, "non-finite pose" when its update is not finite, "non-finite
    step" when its Adam second moment overflows (its pose would stall).
    interacting=True applies the kernel coupling (Stein mode), with the
    kernel-gradient term unless repulsion=False; since every particle's
    update then reads every other's, the loop ends with the iteration of
    the first failure. interacting=False treats particles as independent
    restarts (Monte-Carlo mode), which run on past a failure, each along
    its own scaled descent direction. That is all interacting selects:
    either way the direction goes through _update, the one update rule (an
    Adam step, the angle wrap and the non-finite check). Of config the
    engine reads only the IcpConfig fields.
    Every iteration runs all live particles through the stacked kernels
    in one array pass: the engine is single-threaded and data-parallel
    over particles. The minibatch is (3, K, m) coordinate rows throughout
    (source, moved points, matches, residuals), and every per-particle
    operation on it reads only that particle's rows, so a particle's
    result does not depend on the particles stacked with it.
    Minibatches come from random reshuffling, one permutation per particle
    per epoch of N // batch_size iterations (ReshuffledBatches), each
    particle from its own seed stream, so particle j's batches do not
    depend on K.

    Matching is coarse to fine (Jost & Hugli, 3DIM 2003): iterations
    before iterations // _COARSE_SHARE match a NearestTable over the exact
    index's cell grid, and the rest match the exact index, so every
    particle ends on the exact surface. The table is built only when it
    answers some iteration. The switch is the same for every particle and
    reads no state, so a particle's path does not depend on the particles
    stacked with it. Both levels answer with ids into the full reference,
    so the metric reads the reference's own normals at both. The table's
    point can be up to 2 sqrt(3) cell edges farther than the nearest
    reference point, which a distance gate cannot tell from an outlier, so
    a run with max_dist matches exactly throughout, as does a reference
    without a usable spacing (one point, duplicates, an overflowing
    extent). build_seconds times the index and the table.
    """
    theta = np.array(particles, dtype=float)
    if theta.ndim != 2 or theta.shape[1] != 6:
        raise InputError(f"particles must be (K, 6), got {theta.shape}")
    bad = np.flatnonzero(~np.isfinite(theta).all(axis=1))
    if bad.size:
        raise InputError(f"particles must be finite; row(s) {bad.tolist()} are not")
    theta[:, 3:] = wrap_angle(theta[:, 3:])
    K = theta.shape[0]
    N = len(source)
    scale = float(N) if config.likelihood_scale is None else float(config.likelihood_scale)
    use_plane = config.metric == "plane"
    rngs = [np.random.default_rng(np.random.SeedSequence([config.seed, _STREAM_PARTICLE, j]))
            for j in range(K)]
    sampler = ReshuffledBatches(N, config.batch_size, rngs)
    source_rows = np.ascontiguousarray(source.points.T)               # (3, N)
    build_start = time.perf_counter()
    index = build_index(reference)
    coarse_until = config.iterations // _COARSE_SHARE
    if config.max_dist is not None or not 0.0 < index.grid.spacing < np.inf:
        coarse_until = 0
    coarse = NearestTable(reference, index.grid) if coarse_until else None
    build_seconds = time.perf_counter() - build_start

    active = np.ones(K, dtype=bool)
    adam_m = np.zeros((K, 6))
    adam_v = np.zeros((K, 6))
    cost_trace = np.full(config.iterations, np.nan)
    trace = np.empty((config.iterations + 1, K, 6)) if record_trace else None
    if trace is not None:
        trace[0] = theta
    timings = {k: 0.0 for k in ("sampling", "transform", "matching", "gradients", "update")}
    failures = []

    loop_start = time.perf_counter()
    for it in range(config.iterations):
        live = np.flatnonzero(active)
        # A coupled particle's update reads every other's through the kernel,
        # so a coupled swarm stops after the iteration of its first failure.
        if live.size == 0 or (interacting and failures):
            break

        t0 = time.perf_counter()
        idx = sampler.batches(it, live)
        timings["sampling"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        th = theta[live]
        R = rotation_from_euler(th[:, 3], th[:, 4], th[:, 5])       # (Ka, 3, 3)
        batches = np.take(source_rows, idx, axis=1)                  # (3, Ka, m)
        moved = transform_stacked(R, th[:, :3], batches)
        timings["transform"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        matched, normals, dist, mask = match_stacked(
            moved, coarse if it < coarse_until else index, config.max_dist,
            with_normals=use_plane)
        lost = ~np.isfinite(dist).all(axis=1)
        dead = lost | ~mask.any(axis=1)
        timings["matching"] += time.perf_counter() - t0

        if dead.any():
            # Freeze the failed particles; the rest finish the iteration.
            failures += [(it, j, _LOST if gone else _REJECTED)
                         for j, gone in zip(live[dead].tolist(), lost[dead])]
            active[live[dead]] = False
            keep = ~dead
            live = live[keep]
            if live.size == 0:
                break
            th, mask = th[keep], mask[keep]
            batches, moved, matched = batches[:, keep], moved[:, keep], matched[:, keep]
            if normals is not None:
                normals = normals[:, keep]

        t0 = time.perf_counter()
        partials = rotation_partials(th[:, 3], th[:, 4], th[:, 5])   # (Ka, 3, 3, 3)
        residuals = np.subtract(moved, matched, out=moved)
        costs, grads = stacked_cost_gradients(residuals, mask, batches, partials, normals)
        cost_trace[it] = float(costs.mean())

        if interacting:
            dirs = stein_direction(th, scale * grads, prior, repulsion=repulsion)
        else:
            dirs = -scale * grads
        timings["gradients"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        # Freezing is permanent, so every live particle has taken exactly
        # `it` steps before this one.
        theta[live], adam_m[live], adam_v[live], bad, stalled = _update(
            th, dirs, adam_m[live], adam_v[live], it, config.step_size)
        for cause, rows in ((_NON_FINITE, bad), (_STALLED, stalled)):
            if rows.any():
                failures += [(it, j, cause) for j in live[rows].tolist()]
                active[live[rows]] = False
        timings["update"] += time.perf_counter() - t0

        if trace is not None:
            trace[it + 1] = theta
    loop_seconds = time.perf_counter() - loop_start

    return EngineResult(particles=theta, cost_trace=cost_trace, failed=~active,
                        failures=failures, timings=timings, loop_seconds=loop_seconds,
                        build_seconds=build_seconds, particle_trace=trace,
                        match_counts={"queried": index.queried,
                                      "certified": index.certified,
                                      "filled": index.filled,
                                      "coarse_queried": 0 if coarse is None else coarse.queried})


# --------------------------------------------------------------------------
# Front ends: the coupled swarm, one pose, independent restarts


def _raise_first_failure(result: EngineResult, max_dist) -> None:
    """Raise the error of the first iteration in which a particle of result
    failed, if any: DivergedError when one left the floating-point range,
    else MatchRejectionError when every pair of one was rejected, else
    DivergedError for a non-finite pose, else DivergedError for a
    non-finite step. The message names the iteration and the particles that
    failed with that cause."""
    if not result.failures:
        return
    first = result.failures[0][0]
    causes = {cause for it, _, cause in result.failures if it == first}
    cause = next(c for c in (_LOST, _REJECTED, _NON_FINITE, _STALLED) if c in causes)
    rows = [j for it, j, c in result.failures if it == first and c == cause]
    if cause == _LOST:
        raise DivergedError(f"iteration {first}: particle(s) {rows} left the floating-point "
                            "range (no finite nearest-neighbor distance)")
    if cause == _REJECTED:
        raise MatchRejectionError(f"iteration {first}: all pairs rejected for particle(s) "
                                  f"{rows} (max_dist={max_dist})")
    if cause == _NON_FINITE:
        raise DivergedError(f"iteration {first}: non-finite pose for particle(s) {rows}")
    raise DivergedError(f"iteration {first}: non-finite step for particle(s) {rows} "
                        "(the squared gradient overflowed Adam's second moment)")


def run_stein_icp(source: PointCloud, reference: PointCloud, config: SteinConfig,
                  prior: PriorConfig = UNIFORM_PRIOR, *, full_output: bool = False):
    """Run the full K-particle inference and return the pose posterior.

    Initial particles are uniform draws inside config.init_bounds(), or
    prior draws when an informed prior is supplied. A particle that fails
    numerically stops the coupled swarm, and the first failure raises
    DivergedError or MatchRejectionError naming its iteration and
    particles. With full_output=True the EngineResult (timings, loop time,
    cost trace, trace) rides along as a second return value.
    """
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, _STREAM_INIT]))
    init_prior = prior if prior.kind == "informed" else None
    particles = sample_initial_particles(config.particles, config.init_bounds(), rng, init_prior)
    result = run_particle_engine(source, reference, particles, config, prior,
                                 interacting=True, repulsion=config.repulsion,
                                 record_trace=full_output)
    _raise_first_failure(result, config.max_dist)
    dist = PoseDistribution.from_samples(result.particles)
    if full_output:
        return dist, result
    return dist


def run_sgd_icp(source: PointCloud, reference: PointCloud, init: Pose6D,
                config: IcpConfig):
    """Register source onto reference starting from a single pose estimate,
    init: a Pose6D or 6 numbers (pose_array); anything else raises InputError.

    Runs the shared particle engine with one particle and no prior, so a
    one-particle Stein run under the same seed reproduces this trajectory
    exactly, and a failure raises the same error. Returns (pose, result):
    the EngineResult carries the per-iteration cost and the pose trace,
    particle_trace[:, 0] of shape (T + 1, 6) from init.
    """
    result = run_particle_engine(source, reference, pose_array(init).reshape(1, 6), config,
                                 interacting=True, record_trace=True)
    _raise_first_failure(result, config.max_dist)
    return Pose6D.from_array(result.particles[0]), result


def mc_ground_truth(source: PointCloud, reference: PointCloud,
                    config: SteinConfig, *, full_output: bool = False):
    """Reference posterior from config.particles independent SGD-ICP restarts.

    Initializations are uniform per dimension in config.init_bounds(),
    init_center +- range. Each restart has its own seed stream and its own
    optimizer state and shares nothing with the others; they are evaluated
    as one uncoupled particle batch so the nearest-neighbor queries
    vectorize. A restart that fails numerically is frozen and dropped (the
    engine records its iteration and cause in EngineResult.failures, its
    particle number being the restart's index); more than half failing is
    an error. With full_output=True the EngineResult (timings, loop time,
    failures) rides along as a second return value.
    """
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, _STREAM_MC_INIT]))
    inits = sample_initial_particles(config.particles, config.init_bounds(), rng)
    result = run_particle_engine(source, reference, inits, config,
                                 interacting=False, record_trace=False)
    ok = ~result.failed
    if 2 * ok.sum() < config.particles:
        raise NumericalError(f"{int(result.failed.sum())} of {config.particles} restarts failed")
    dist = PoseDistribution.from_samples(result.particles[ok])
    if full_output:
        return dist, result
    return dist
