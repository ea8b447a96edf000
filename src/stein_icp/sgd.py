"""Stochastic mini-batch ICP: the configuration, the cost and its analytic
gradients. The update rule that steps along them, Adam at its published
constants, is the engine's (stein._update).

Cost over a set of matched pairs (s_i source, r_i reference, optional unit
normal n_i at r_i), with residual e_i = R s_i + u - r_i:

    point-to-point:  (1/N) sum ||e_i||^2
    point-to-plane:  (1/N) sum (n_i . e_i)^2

The update-rule gradients follow the half-quadratic convention, dropping
the factor 2 that the chain rule would add (it is absorbed into the step
size): per batch of m pairs,

    g[0:3] = (1/m) sum p_i
    g[3:6][k] = (1/m) sum p_i . (dR/dtheta_k s_i) = (1/m) <dR/dtheta_k, M>

with p_i = e_i for point-to-point and p_i = n_i (n_i . e_i) for
point-to-plane, and M = sum_i p_i s_i^T the 3x3 moment of the batch.
Equivalently, g is the exact gradient of half the batch cost.

`stacked_cost_gradients` is the one implementation of this arithmetic: it
evaluates K particles' batches at once, with a mask of the pairs that
survived matching, and the particle engine runs it on all live particles
at once. Its inputs are (3, K, m) coordinate rows, the engine's one layout
of a minibatch, so the sum over a particle's m pairs runs over contiguous
memory: numpy sums such a row pairwise, which rounds no worse than a
sequential sum (Higham, "The accuracy of floating point summation", SIAM
J. Sci. Comput. 1993). A single pose is the K=1 stack: the one-pose
optimizer, stein.run_sgd_icp, is the engine at K=1. This module imports
nothing from the engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, check_count, check_real

__all__ = [
    "IcpConfig",
    "stacked_cost_gradients",
]

METRICS = ("point", "plane")


@dataclass(frozen=True)
class IcpConfig:
    """Knobs for one SGD-ICP run (also the base of the Stein config).

    likelihood_scale multiplies the batch gradient before the update;
    None means "use the source cloud size", which puts the gradient on the
    scale of a data log-likelihood. The update is Adam at its published
    constants (moment decays 0.9 and 0.999, denominator floor 1e-8), which
    divides each coordinate's running mean gradient by its running RMS. So
    for K=1 and for uncoupled restarts the scale makes almost no
    difference: it moves only the weight of the 1e-8 floor, until a scaled
    gradient's square overflows, which fails the particle with a non-finite
    step. In a coupled swarm it sets the balance between the data term and
    the kernel's repulsion, which it does not scale. batch_size, iterations
    and seed are integers; a bool or a float is rejected.
    """

    metric: str = "point"
    batch_size: int = 300
    step_size: float = 0.01
    iterations: int = 100
    max_dist: float | None = None
    likelihood_scale: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.metric not in METRICS:
            raise InputError(f"metric must be one of {METRICS}, got {self.metric!r}")
        check_count("batch_size", self.batch_size, 1)
        check_real("step_size", self.step_size)
        check_count("iterations", self.iterations, 1)
        if self.max_dist is not None:
            check_real("max_dist", self.max_dist, zero_ok=True)
        if self.likelihood_scale is not None:
            check_real("likelihood_scale", self.likelihood_scale, zero_ok=True)
        check_count("seed", self.seed, 0)


# --------------------------------------------------------------------------
# Cost and gradients


def stacked_cost_gradients(residuals: np.ndarray, mask: np.ndarray,
                           source_points: np.ndarray, partials: np.ndarray,
                           normals: np.ndarray | None = None):
    """Batch cost and half-quadratic gradient of K particles at once.

    residuals, source_points and normals (point-to-plane only) are (3, K, m)
    coordinate rows; mask is the (K, m) bool of pairs that count, with at
    least one per particle; partials is rotation_partials of the K poses,
    (K, 3, 3, 3). Returns (cost (K,), grads (K, 6)), averaged over each
    particle's kept pairs.

    A pair's squared residual (or normal projection) adds its three axis
    terms as (x + z) + y, the order in which numpy's einsum sums the three
    coordinates of an (m, 3) point, so the costs keep the bits of the
    point-major computation. The translation gradient sums each contiguous
    row of m pairs (numpy's pairwise sum); the 3x3 moment is one stacked
    matrix product. Every contraction is a per-particle reduction or matrix
    product, so a particle's result is the same whatever particles are
    stacked with it.
    """
    K = residuals.shape[1]
    w = mask.astype(float)
    count = w.sum(axis=1)
    if normals is None:
        sq = _axis_dot(residuals, residuals) * w
        p = residuals * w
    else:
        proj = _axis_dot(normals, residuals) * w
        sq = proj * proj
        p = normals * proj
    moment = np.matmul(p.transpose(1, 0, 2), source_points.transpose(1, 2, 0))    # (K, 3, 3)
    g = np.empty((K, 6))
    g[:, :3] = p.sum(axis=2).T
    g[:, 3:] = np.matmul(partials.reshape(K, 3, 9), moment.reshape(K, 9, 1))[:, :, 0]
    return sq.sum(axis=1) / count, g / count[:, None]


def _axis_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-pair dot product of two (3, K, m) row stacks, shape (K, m),
    summed (x + z) + y."""
    out = a[0] * b[0]
    out += a[2] * b[2]
    out += a[1] * b[1]
    return out
