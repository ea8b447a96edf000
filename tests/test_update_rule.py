"""The engine's update rule on analytic targets.

The swarm's question, whether it follows its target, mostly concerns the
update rule: kernel, bandwidth, optimizer and step. With an exact score it
takes well under a second, with no scene, matcher or Monte Carlo
reference. These tests drive the code the engine runs, stein_direction and
stein._update, with exact scores around blob's true pose, sigma = 0.005
per axis, from a uniform start within +-0.05 of the mean, K = 100 unless
said otherwise.

The graded number is the swarm's per-dimension std over sigma, averaged
over the last third of the iterations. SVGD with a finite swarm reads below
1 in 6-D (variance collapse; Ba et al., ICLR 2022), more so at small K.
Every band was written from runs on the Adam update with its published
constants, over steps 0.005 and 0.02 and seeds 0-2:

* An isotropic 6-D Gaussian: 0.923-0.933 at K=100 and 0.830-0.857 at K=25
  after 150 iterations. A constant-step update measured 3-24 times too
  wide on such targets.
* A ring (yaw free, the other five Gaussian; yaw starts uniform on the
  circle): the yaw resultant read at most 0.0005, and x, y, z 0.923-0.932,
  after 150 iterations. Roll and pitch read 1.9-2.6, and are not graded:
  the yaw-set rotation bandwidth (0.54-0.56 at K=100) is about 100 sigma,
  so those two contract slowly (1.1-1.5 after 600 iterations).
* Two Gaussian modes 0.5 apart in x (x starts uniform within +-0.3 of the
  midpoint) after 300 iterations, seeds 0-5: each mode's share moved at
  most 0.06 from the start's, since at this separation an exact score
  carries no mode weight. Within a mode, y and z read 0.97-1.01 and the
  angles 0.80-1.09. x read 0.96-0.99 where fewer than half the pairs cross
  the gap; where half or more do (a split near 50/50), the median
  bandwidth is the gap's scale, and x read 1.07-1.13 at step 0.02 and
  1.86-2.34 at step 0.005 (ROADMAP item 17).
"""

import numpy as np
import pytest

from stein_icp import UNIFORM_PRIOR, stein, stein_direction, wrap_angle

MEAN = np.array([0.3, -0.2, 0.1, 0.05, -0.03, 0.4])
SIGMA = 0.005
START = 0.05
ITERATIONS = 150
SEEDS = (0, 1, 2)
STEPS = (0.005, 0.02)

# Band of every dimension's late std ratio, by swarm size.
BANDS = {25: (0.80, 0.89), 100: (0.90, 0.96)}

# The two-mode target: modes at MEAN -+ GAP / 2 in x.
GAP = 0.5
TWO_MODE_ITERATIONS = 300


def _offsets(theta, mean=MEAN):
    off = theta - mean
    off[:, 3:] = wrap_angle(off[:, 3:])
    return off


def late_window(theta, score, step_size, iterations=ITERATIONS):
    """Run the update rule from the (K, 6) poses theta along the Stein
    direction of score(theta), the negative log density's gradient, as the
    engine passes the scaled cost gradient. Returns the poses of the last
    third of the iterations, (iterations // 3, K, 6)."""
    K = theta.shape[0]
    m, v = np.zeros((K, 6)), np.zeros((K, 6))
    late = []
    for it in range(iterations):
        dirs = stein_direction(theta, score(theta), UNIFORM_PRIOR)
        theta, m, v, bad, stalled = stein._update(theta, dirs, m, v, it, step_size)
        assert not (bad.any() or stalled.any())
        if it >= iterations - iterations // 3:
            late.append(theta)
    return np.array(late)


def _start(K, seed):
    return MEAN + np.random.default_rng(seed).uniform(-START, START, (K, 6))


def _std_ratio(late):
    """Each dimension's std over SIGMA, averaged over the window, (6,)."""
    return np.mean([_offsets(theta).std(axis=0, ddof=1) / SIGMA for theta in late], axis=0)


def late_std_ratio(K, step_size, seed):
    """The late std ratio of the isotropic Gaussian target, (6,)."""
    return _std_ratio(late_window(_start(K, seed), lambda theta: _offsets(theta) / SIGMA ** 2,
                                  step_size))


def _ring_score(theta):
    score = _offsets(theta) / SIGMA ** 2
    score[:, 5] = 0.0
    return score


def _two_mode_score(theta):
    """The exact score of the equal-weight two-mode mixture: each mode's
    score weighted by its responsibility."""
    offsets = np.stack([_offsets(theta, MEAN + [c, 0, 0, 0, 0, 0])
                        for c in (-GAP / 2, GAP / 2)])                       # (2, K, 6)
    log_r = -(offsets ** 2).sum(axis=2) / (2 * SIGMA ** 2)
    r = np.exp(log_r - log_r.max(axis=0))
    return (r[:, :, None] * offsets).sum(axis=0) / (r.sum(axis=0)[:, None] * SIGMA ** 2)


def _two_modes(seed, step_size):
    """(the start's share of the upper mode, the late window) of a run on
    the two-mode target."""
    theta = _start(100, seed)
    theta[:, 0] = MEAN[0] + np.random.default_rng([seed, 1]).uniform(-0.3, 0.3, len(theta))
    return ((theta[:, 0] > MEAN[0]).mean(),
            late_window(theta, _two_mode_score, step_size, TWO_MODE_ITERATIONS))


def _per_mode_ratios(late):
    """The late std ratio within the lower and the upper mode, (2, 6)."""
    return np.array([np.mean([_offsets(theta[(theta[:, 0] > MEAN[0]) == upper],
                                       MEAN + [c, 0, 0, 0, 0, 0]).std(axis=0, ddof=1) / SIGMA
                              for theta in late], axis=0)
                     for upper, c in ((False, -GAP / 2), (True, GAP / 2))])


@pytest.mark.parametrize("step_size", STEPS)
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
    new, m, v, bad, stalled = stein._update(theta, dirs, np.zeros((2, 6)), np.zeros((2, 6)), 0,
                                            0.01)
    np.testing.assert_array_equal(bad, [False, True])
    np.testing.assert_array_equal(stalled, [False, False])
    np.testing.assert_array_equal(new[1], theta[1])
    assert new[0, 5] == pytest.approx(np.pi - 1e-3 + 0.01 - 2 * np.pi, abs=1e-9)
    assert np.isnan(m[1, 0]) and np.isfinite(m[0]).all()


@pytest.mark.parametrize("step_size", STEPS)
def test_ring_spreads_yaw_over_the_circle(step_size):
    """Yaw is free: the swarm evens out over the circle, and x, y, z keep
    the Gaussian target's band."""
    lo, hi = BANDS[100]
    for seed in SEEDS:
        theta = _start(100, seed)
        theta[:, 5] = np.random.default_rng([seed, 1]).uniform(-np.pi, np.pi, len(theta))
        late = late_window(theta, _ring_score, step_size)
        resultant = np.mean([abs(np.exp(1j * t[:, 5]).mean()) for t in late])
        ratio = _std_ratio(late)[:3]
        assert resultant <= 0.005, (seed, resultant)
        assert ((lo <= ratio) & (ratio <= hi)).all(), (seed, ratio.round(3))


@pytest.mark.parametrize("step_size", STEPS)
@pytest.mark.parametrize("seed", SEEDS)
def test_two_modes_keep_their_start_shares_and_widths(seed, step_size):
    """Each mode keeps about the share of the particles that started on its
    side, and its y, z and angle widths. Its x width is in band while fewer
    than half the pairs cross the gap. Where half or more do, the median
    bandwidth is the gap's scale and x reads wider: item 17's defect, which
    its fix turns into the band."""
    share, late = _two_modes(seed, step_size)
    upper = (late[-1][:, 0] > MEAN[0]).mean()
    assert all(abs((theta[:, 0] > MEAN[0]).mean() - share) <= 0.1 for theta in late)
    ratios = _per_mode_ratios(late)
    assert ((0.94 <= ratios[:, 1:3]) & (ratios[:, 1:3] <= 1.04)).all(), ratios.round(3)
    assert ((0.65 <= ratios[:, 3:]) & (ratios[:, 3:] <= 1.15)).all(), ratios.round(3)
    K = late.shape[1]
    if 2 * upper * (1 - upper) * K / (K - 1) < 0.5:
        assert ((0.93 <= ratios[:, 0]) & (ratios[:, 0] <= 1.04)).all(), ratios[:, 0].round(3)
    else:
        assert (ratios[:, 0] > 1.04).all(), ratios[:, 0].round(3)
