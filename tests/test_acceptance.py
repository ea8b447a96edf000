"""Acceptance gate: one test per shipping criterion, each printing a single
pass/fail line with the measured values. Heavy posteriors (three scenes,
their Monte Carlo references, and no-repulsion baselines) are computed once
per module and shared. Run with -s to see the measurement lines.

Criterion 10 (thread-count invariance and an eight-worker speedup) is
retired: the solver is single-threaded and data-parallel over particles."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from stein_icp import (
    IcpConfig,
    Pose6D,
    SteinConfig,
    build_trajectory,
    kde_1d,
    kl_gaussian,
    kl_rotation,
    kl_translation,
    make_scene,
    mc_ground_truth,
    ovl_coefficient,
    pose_summary,
    pose_to_matrix,
    relative_pose_error,
    rotation_from_euler,
    rotation_partials,
    run_sgd_icp,
    run_stein_icp,
    stacked_cost_gradients,
    transform_stacked,
    wrap_angle,
)

import oracles

RING_STEIN = SteinConfig(particles=100, batch_size=150, step_size=0.05,
                         iterations=400, seed=11, likelihood_scale=2.5e4)
RING_MC = SteinConfig(particles=1000, batch_size=100, step_size=0.1, iterations=1000, seed=7)

BLOB_TRUE = Pose6D(0.3, -0.2, 0.1, 0.05, -0.03, 0.4)
BLOB_STEIN = SteinConfig(particles=100, batch_size=300, step_size=0.02,
                         iterations=100, seed=11, trans_range=0.1,
                         rot_range=0.1745, likelihood_scale=5e5)
BLOB_MC = SteinConfig(particles=1000, batch_size=150, step_size=0.07, iterations=300, seed=7,
                      trans_range=0.3)

BLOCK_STEIN = SteinConfig(particles=100, batch_size=300, step_size=0.02,
                          iterations=150, seed=11, likelihood_scale=5e5,
                          trans_range=(0.6, 0.1, 0.1), rot_range=0.1745)
BLOCK_MC = SteinConfig(particles=1000, batch_size=150, step_size=0.07, iterations=300,
                       seed=7, trans_range=(0.6, 0.1, 0.1))

DIMS = ("x", "y", "z", "roll", "pitch", "yaw")


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:>2}: {status} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def _collapsed(config):
    """Same run with interaction disabled: all particles start at the same
    point and the repulsive term is off, so the swarm degenerates to a
    single mode. Serves as the spread baseline."""
    return replace(config, repulsion=False, trans_range=0.0, rot_range=0.0)


def _min_pairwise_distance(block):
    best = np.inf
    for i in range(block.shape[0]):
        for j in range(i + 1, block.shape[0]):
            d = block[i] - block[j]
            d[3:] = wrap_angle(d[3:])
            best = min(best, float(np.linalg.norm(d)))
    return best


def _modes_above_half_peak(samples):
    grid, density = kde_1d(samples)
    half = 0.5 * density.max()
    modes = []
    for i in range(1, len(grid) - 1):
        if density[i] >= density[i - 1] and density[i] > density[i + 1] \
                and density[i] >= half:
            modes.append(float(grid[i]))
    return modes


@pytest.fixture(scope="module")
def ring():
    source, reference, _ = make_scene("ring", n=8000, seed=5)
    stein = run_stein_icp(source, reference, RING_STEIN)
    mc = mc_ground_truth(source, reference, RING_MC)
    collapsed = run_stein_icp(source, reference, _collapsed(RING_STEIN))
    return {"stein": stein, "mc": mc, "collapsed": collapsed}


@pytest.fixture(scope="module")
def blob():
    source, reference, _ = make_scene("blob", n=5000, seed=1, true_pose=BLOB_TRUE)
    t0 = time.perf_counter()
    stein = run_stein_icp(source, reference, BLOB_STEIN)
    elapsed = time.perf_counter() - t0
    mc = mc_ground_truth(source, reference, BLOB_MC)
    collapsed = run_stein_icp(source, reference, _collapsed(BLOB_STEIN))
    return {"stein": stein, "mc": mc, "collapsed": collapsed, "elapsed": elapsed}


@pytest.fixture(scope="module")
def block():
    source, reference, _ = make_scene("block", n=4000, seed=3)
    stein = run_stein_icp(source, reference, BLOCK_STEIN)
    mc = mc_ground_truth(source, reference, BLOCK_MC)
    collapsed = run_stein_icp(source, reference, _collapsed(BLOCK_STEIN))
    return {"stein": stein, "mc": mc, "collapsed": collapsed}


def test_criterion_01_analytic_gradients_match_finite_differences(rng):
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(100):
        metric = "plane" if k % 2 else "point"
        pairs = oracles.random_pairs(rng, m=30, with_normals=(metric == "plane"))
        pose = np.concatenate([rng.uniform(-0.5, 0.5, 3), rng.uniform(-0.3, 0.3, 3)])
        # The engine's kernel on the K=1 stack of this pose, as (3, 1, m)
        # coordinate rows, every pair kept.
        src = pairs.source_points.T[:, None]
        moved = transform_stacked(rotation_from_euler(*pose[3:])[None], pose[None, :3], src)
        normals = pairs.reference_normals.T[:, None] if metric == "plane" else None
        _, grads = stacked_cost_gradients(moved - pairs.reference_points.T[:, None],
                                          np.ones((1, 30), dtype=bool), src,
                                          rotation_partials(*pose[3:])[None], normals)
        analytic = grads[0]
        numeric = oracles.fd_pose_gradient(pairs, pose, metric)
        scale = max(float(np.linalg.norm(numeric)), 1e-12)
        worst = max(worst, float(np.linalg.norm(analytic - numeric)) / scale)
    elapsed = time.perf_counter() - t0
    _report(1, worst <= 1e-5 and elapsed < 10.0,
            f"max relative error {worst:.3g} over 100 instances in {elapsed:.2f}s")


def test_criterion_02_single_particle_reproduces_plain_sgd_icp():
    source, reference, _ = make_scene("blob", n=2000, seed=2)
    init = Pose6D(0.05, -0.02, 0.01, 0.02, -0.01, 0.1)
    config = IcpConfig(batch_size=100, step_size=0.02, iterations=100, seed=3)
    one = SteinConfig(batch_size=100, step_size=0.02, iterations=100, seed=3, particles=1,
                      init_center=tuple(init.to_array()), trans_range=0.0, rot_range=0.0)
    _, sgd = run_sgd_icp(source, reference, init, config)
    _, engine = run_stein_icp(source, reference, one, full_output=True)
    same_path = np.array_equal(engine.particle_trace, sgd.particle_trace)
    same_cost = np.array_equal(engine.cost_trace, sgd.cost_trace)
    _report(2, same_path and same_cost,
            f"pose trace identical={same_path}, cost trace identical={same_cost} "
            f"over {config.iterations} iterations")


def test_criterion_03_blob_posterior_mean_and_spread(blob):
    dist = blob["stein"]
    target = np.array([0.3, -0.2, 0.1, 0.05, -0.03, 0.4])
    err = dist.mean - target
    err[3:] = wrap_angle(err[3:])
    err = np.abs(err)
    stds = np.sqrt(np.diag(dist.covariance)[:3])
    ok = (err[:3].max() <= 0.02 and err[3:].max() <= 0.02
          and stds.max() < 0.01 and blob["elapsed"] < 60.0)
    _report(3, ok,
            f"mean error {err.max():.4f} (trans {err[:3].max():.4f}, "
            f"rot {err[3:].max():.4f}), translation stds max {stds.max():.4f}, "
            f"run time {blob['elapsed']:.1f}s")


def test_criterion_04_ring_yaw_stays_dispersed(ring):
    stein = pose_summary(ring["stein"])
    mc = pose_summary(ring["mc"])
    stein_r = stein["yaw"]["resultant_length"]
    mc_r = mc["yaw"]["resultant_length"]
    stein_stds = max(stein[d]["std"] for d in DIMS[:5])
    mc_stds = max(mc[d]["std"] for d in DIMS[:5])
    ok = (stein_r < 0.5 and stein_stds < 0.05
          and mc_r < 0.5 and mc_r < 0.3 and mc_stds < 0.05)
    _report(4, ok,
            f"yaw resultant stein {stein_r:.3f} / mc {mc_r:.3f}, "
            f"other-dim std max stein {stein_stds:.4f} / mc {mc_stds:.4f}")


def test_criterion_05_block_x_marginal_is_bimodal(block):
    stein_modes = sorted(_modes_above_half_peak(block["stein"].samples[:, 0]))
    mc_modes = sorted(_modes_above_half_peak(block["mc"].samples[:, 0]))
    oracle_modes = sorted(oracles.kde_modes(block["stein"].samples[:, 0]))
    ok = len(stein_modes) == 2 and len(mc_modes) == 2
    if ok:
        gaps = [abs(s - m) for s, m in zip(stein_modes, mc_modes)]
        cross = [abs(s - o) for s, o in zip(stein_modes, oracle_modes)]
        ok = max(gaps) <= 0.05 and len(oracle_modes) == 2 and max(cross) <= 0.02
        detail = (f"stein modes {stein_modes[0]:.3f}/{stein_modes[1]:.3f}, "
                  f"mc modes {mc_modes[0]:.3f}/{mc_modes[1]:.3f}, "
                  f"max gap {max(gaps):.4f}")
    else:
        detail = f"mode counts stein {len(stein_modes)}, mc {len(mc_modes)}"
    _report(5, ok, detail)


def test_criterion_06_posterior_beats_collapsed_baseline(ring, blob, block):
    parts = []
    ok = True
    for name, art in (("ring", ring), ("blob", blob), ("block", block)):
        kt = kl_translation(art["stein"], art["mc"])
        kr = kl_rotation(art["stein"], art["mc"])
        ct = kl_translation(art["collapsed"], art["mc"])
        cr = kl_rotation(art["collapsed"], art["mc"])
        ok = ok and ct >= 2.0 * kt and cr >= 2.0 * kr
        parts.append(f"{name} kl_t {kt:.2f} vs {ct:.2f}, kl_r {kr:.2f} vs {cr:.2f}")
    ovl = ovl_coefficient(blob["stein"], blob["mc"])
    ok = ok and ovl >= 0.6
    mc_stds = np.sqrt(np.diag(blob["mc"].covariance)[:3])
    ok = ok and mc_stds.max() < 0.02
    _report(6, ok, "; ".join(parts) + f"; blob ovl {ovl:.3f}, "
            f"blob mc trans std max {mc_stds.max():.4f}")


def test_criterion_07_repulsion_alone_spreads_particles():
    source, reference, _ = make_scene("blob", n=200, seed=4)
    grew = 0
    total = 0
    for particles in (2, 10):
        for seed in range(20):
            config = SteinConfig(particles=particles, batch_size=20,
                                 step_size=0.01, iterations=100,
                                 optimizer="sgd", likelihood_scale=0.0,
                                 seed=seed, trans_range=0.1, rot_range=0.05)
            _, engine = run_stein_icp(source, reference, config, full_output=True)
            before = _min_pairwise_distance(engine.particle_trace[0].copy())
            after = _min_pairwise_distance(engine.particle_trace[-1].copy())
            total += 1
            grew += after > before
    _report(7, grew == total,
            f"min pairwise distance grew in {grew}/{total} runs "
            "(K in {2, 10}, 20 seeds each, 100 iterations)")


def test_criterion_08_metric_identities(rng):
    a = rng.normal(size=(6, 6))
    cov = a @ a.T + 0.1 * np.eye(6)
    mean = np.concatenate([rng.uniform(-1, 1, 3), rng.uniform(-0.5, 0.5, 3)])
    kl_self = kl_gaussian((mean, cov), (mean, cov))
    ovl_self = ovl_coefficient((mean, cov), (mean, cov))
    shifted = ovl_coefficient((np.zeros(6), np.eye(6)), (2.0 * np.ones(6), np.eye(6)))
    analytic = math.erfc(1.0 / math.sqrt(2.0))
    poses = [np.concatenate([rng.uniform(-1, 1, 3), rng.uniform(-0.5, 0.5, 3)])
             for _ in range(5)]
    traj = [np.eye(4)]
    for p in poses:
        traj.append(traj[-1] @ pose_to_matrix(p))
    t_err, r_err = relative_pose_error(traj, [t.copy() for t in traj])
    rpe_zero = bool(np.all(t_err == 0.0) and np.all(r_err == 0.0))
    ok = (abs(kl_self) <= 1e-10 and abs(ovl_self - 1.0) <= 1e-4
          and abs(shifted - 0.3173) <= 1e-3 and rpe_zero)
    _report(8, ok,
            f"kl self {kl_self:.2e}, ovl self {ovl_self:.6f}, "
            f"ovl shifted {shifted:.5f} (analytic {analytic:.5f}), "
            f"rpe on identical trajectories exactly zero={rpe_zero}")


def test_criterion_09_covariance_compounding_matches_monte_carlo():
    rng = np.random.default_rng(90)
    worst = 0.0
    for _ in range(10):
        steps = []
        mats = []
        covs = []
        for _ in range(10):
            pose = np.concatenate([rng.uniform(-0.3, 0.3, 3),
                                   rng.uniform(-0.15, 0.15, 3)])
            a = rng.normal(size=(6, 6))
            cov = a @ a.T
            cov *= rng.uniform(1e-4, 1e-2) / np.trace(cov)
            mat = pose_to_matrix(pose)
            steps.append((mat, cov))
            mats.append(mat)
            covs.append(cov)
        traj = build_trajectory(steps)
        estimate = traj.covariances[-1]
        reference = oracles.mc_compose_chain(mats, covs, 100000, rng)
        rel = (np.linalg.norm(estimate - reference, "fro")
               / np.linalg.norm(reference, "fro"))
        worst = max(worst, float(rel))
    _report(9, worst <= 0.10,
            f"worst relative Frobenius error {worst:.4f} over 10 chains of 10 steps")
