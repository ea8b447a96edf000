"""The engine's update rule on an analytic target.

The swarm's question, whether it follows its target, mostly concerns the
update rule: kernel, bandwidth, optimizer and step. With an exact score it
takes well under a second, with no scene, matcher or Monte Carlo
reference. These tests drive the code the engine runs, stein_direction and
stein._update, with the exact score of an isotropic 6-D Gaussian at blob's
true pose, sigma = 0.005 per axis, from a uniform start within +-0.05 of
the mean.

The graded number is the swarm's per-dimension std over sigma, averaged
over the last third of the iterations. SVGD with a finite swarm reads below
1 in 6-D (variance collapse; Ba et al., ICLR 2022), more so at small K.
The bands were written from these runs on the Adam update with its
published constants: 0.923-0.933 at K=100 and 0.830-0.857 at K=25, over
steps 0.005 and 0.02 and seeds 0-2. A constant-step update measured 3-24
times too wide on such targets.
"""

import numpy as np
import pytest

from stein_icp import UNIFORM_PRIOR, stein, stein_direction, wrap_angle

MEAN = np.array([0.3, -0.2, 0.1, 0.05, -0.03, 0.4])
SIGMA = 0.005
START = 0.05
ITERATIONS = 150
SEEDS = (0, 1, 2)

# Band of every dimension's late std ratio, by swarm size.
BANDS = {25: (0.80, 0.89), 100: (0.90, 0.96)}


def _offsets(theta):
    off = theta - MEAN
    off[:, 3:] = wrap_angle(off[:, 3:])
    return off


def late_std_ratio(K, step_size, seed):
    """Run the update rule on the Gaussian target; return each dimension's
    std over SIGMA, averaged over the last third of the iterations, (6,)."""
    rng = np.random.default_rng(seed)
    theta = MEAN + rng.uniform(-START, START, (K, 6))
    m, v = np.zeros((K, 6)), np.zeros((K, 6))
    ratios = []
    for it in range(ITERATIONS):
        # The negative log density's gradient, as the engine passes the
        # scaled cost gradient.
        dirs = stein_direction(theta, _offsets(theta) / SIGMA ** 2, UNIFORM_PRIOR)
        theta, m, v, bad = stein._update(theta, dirs, m, v, it, step_size)
        assert not bad.any()
        if it >= ITERATIONS - ITERATIONS // 3:
            ratios.append(_offsets(theta).std(axis=0, ddof=1) / SIGMA)
    return np.mean(ratios, axis=0)


@pytest.mark.parametrize("step_size", [0.005, 0.02])
@pytest.mark.parametrize("K", [25, 100])
def test_swarm_spread_follows_a_gaussian_target(K, step_size):
    lo, hi = BANDS[K]
    for seed in SEEDS:
        ratio = late_std_ratio(K, step_size, seed)
        assert ((lo <= ratio) & (ratio <= hi)).all(), (seed, ratio.round(3))


def test_update_wraps_angles_and_keeps_a_non_finite_row():
    """One step: angles come back in [-pi, pi), and a row whose new pose is
    not finite keeps its old pose and is flagged."""
    theta = np.array([[0.0, 0.0, 0.0, 0.0, 0.0, np.pi - 1e-3],
                      [1.0, 2.0, 3.0, 0.1, 0.2, 0.3]])
    dirs = np.array([[0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
                     [np.nan, 0.0, 0.0, 0.0, 0.0, 0.0]])
    new, m, v, bad = stein._update(theta, dirs, np.zeros((2, 6)), np.zeros((2, 6)), 0, 0.01)
    np.testing.assert_array_equal(bad, [False, True])
    np.testing.assert_array_equal(new[1], theta[1])
    assert new[0, 5] == pytest.approx(np.pi - 1e-3 + 0.01 - 2 * np.pi, abs=1e-9)
    assert np.isnan(m[1, 0]) and np.isfinite(m[0]).all()
