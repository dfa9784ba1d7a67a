"""Acceptance gates for the package, one test per gate.

Each test asserts a headline property of the shipped system end to end,
at full scale, using the scenario files under scenarios/. They are slower
than the unit tests; the zero-violation sweep alone takes several minutes.
Run them with `pytest tests/test_acceptance.py -v` for one line per gate.
"""

import dataclasses
import filecmp
import os

import numpy as np

from chunkshield.cli import bench_scenario
from chunkshield.model import capsule_points_batch
from chunkshield.occupancy import (
    ObstacleState,
    TimeInterval,
    robot_occupancy,
    segment_closest,
)
from chunkshield.profiles import time_optimal_profile
from chunkshield.scenario import load_robot, load_scenario, resolve_robot_path
from chunkshield.sim import (
    compute_metrics,
    ground_truth_check,
    path_deviation,
    run_rollout,
    save_rollout_trace,
)
from chunkshield.trajectory import plan_intended

from oracles import oracle_min_duration
from test_model import planar_two_link
from test_profiles import dense_check_limits, random_instance

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


def load_case(name):
    path = os.path.join(SCENARIO_DIR, name)
    cfg = load_scenario(path)
    model = load_robot(resolve_robot_path(path, cfg))
    return cfg, model


def as_ssm(cfg):
    return dataclasses.replace(cfg, mode="ssm", t_safe=0.0)


def test_unshielded_rollouts_make_contact():
    # An interception setup must actually be dangerous: with the filter
    # off, at least 95 of 100 seeds touch the obstacle.
    cfg, model = load_case("interception.yaml")
    hit_seeds = 0
    for seed in range(100):
        trace = run_rollout(cfg, model, "off", seed)
        if len(ground_truth_check(trace, model, cfg)) > 0:
            hit_seeds += 1
    assert hit_seeds >= 95, f"only {hit_seeds}/100 unshielded seeds made contact"


def test_shield_transparent_without_obstacles():
    # With nothing to avoid, the shield must not alter the commanded
    # motion: per-joint, per-tick agreement with the unfiltered rollout
    # to 1e-12.
    cfg, model = load_case("multigoal_free.yaml")
    for seed in (0, 1):
        shielded = run_rollout(cfg, model, "pacs", seed)
        plain = run_rollout(cfg, model, "off", seed)
        diff = np.abs(shielded.q_cmd - plain.q_cmd).max()
        assert diff <= 1e-12, f"seed {seed}: max command difference {diff}"


def test_deterministic_traces():
    # Same scenario, same seed: the written trace files are byte-identical.
    import tempfile

    cases = (("interception.yaml", "pacs", 1), ("adversarial_chase.yaml",
                                                "pacs", 0))
    with tempfile.TemporaryDirectory() as tmp:
        for name, filt, seed in cases:
            cfg, model = load_case(name)
            paths = []
            for rep in range(2):
                trace = run_rollout(cfg, model, filt, seed)
                p = os.path.join(tmp, f"{cfg.name}_{seed}_{rep}.csv")
                save_rollout_trace(p, trace)
                paths.append(p)
            assert filecmp.cmp(*paths, shallow=False), (name, seed)


def test_path_consistency_vs_reactive_baseline():
    # A crossing obstacle forces interventions. The shield must keep the
    # commanded motion on the planned path (<= 1e-6 rad deviation, zero
    # true collisions); the reactive barrier baseline leaves the path by
    # more than 0.01 rad.
    cfg, model = load_case("cluttered.yaml")
    cbf_collisions = 0
    for seed in (0, 1, 2):
        shielded = run_rollout(cfg, model, "pacs", seed)
        dev = np.nanmax(path_deviation(shielded))
        assert dev <= 1e-6, f"seed {seed}: shield path deviation {dev}"
        assert len(ground_truth_check(shielded, model, cfg)) == 0

        reactive = run_rollout(cfg, model, "cbf", seed)
        dev_cbf = np.nanmax(path_deviation(reactive))
        assert dev_cbf > 0.01, f"seed {seed}: baseline deviation {dev_cbf}"
        cbf_collisions += len(ground_truth_check(reactive, model, cfg))
    # Reported for context; the baseline is not required to be safe.
    print(f"\nreactive baseline violating ticks over 3 seeds: {cbf_collisions}")


def test_occupancy_contains_admissible_motions():
    # Monte-Carlo soundness, 1e4 samples per case, zero escapes allowed.
    rng = np.random.default_rng(20250825)
    n = 10_000

    # Case 1: obstacle occupancy. True motion: start anywhere in the
    # measurement-error ball, move with any speed <= v_max_obj.
    obs = ObstacleState(measured_center=[0.4, -0.2, 0.5], shape_radius=0.07,
                        v_max_obj=0.6, meas_error=0.004, meas_time=0.25)
    window = TimeInterval(0.25, 0.8)
    radius = obs.occupancy_radius(window.t_b)
    ts = rng.uniform(window.t_a, window.t_b, n)
    dir_meas = rng.normal(size=(n, 3))
    dir_meas /= np.linalg.norm(dir_meas, axis=1, keepdims=True)
    start = obs.measured_center + dir_meas * rng.uniform(
        0.0, obs.meas_error, n)[:, None]
    dir_move = rng.normal(size=(n, 3))
    dir_move /= np.linalg.norm(dir_move, axis=1, keepdims=True)
    travel = rng.uniform(0.0, obs.v_max_obj) * (ts - obs.meas_time)
    pos = start + dir_move * travel[:, None]
    farthest = np.linalg.norm(pos - obs.measured_center, axis=1) \
        + obs.shape_radius
    escapes = int(np.sum(farthest > radius + 1e-12))
    assert escapes == 0, f"{escapes} obstacle samples escaped"

    # Cases 2 and 3: robot occupancy. True motion: the planned trajectory
    # plus any workspace offset within the tracking error, all links.
    for model, waypoints in (
        (planar_two_link(tracking_error=0.004),
         np.array([[0.0, 0.0], [0.7, -0.5], [1.2, 0.4]])),
        (load_robot(os.path.join(SCENARIO_DIR, "robots", "arm7.yaml")),
         np.array([(0.0, -0.4, 0.0, -1.9, 0.0, 1.6, 0.8),
                   (0.3, -0.3, 0.1, -1.75, -0.1, 1.7, 0.65),
                   (0.6, -0.1, 0.2, -1.55, -0.3, 1.85, 0.5)])),
    ):
        traj = plan_intended(waypoints, np.zeros(model.n_joints), model.limits)
        window = TimeInterval(traj.t0, traj.end_time)
        occ = robot_occupancy(model, traj, window, n_sub=16)
        ts = rng.uniform(window.t_a, window.t_b, n)
        idx = np.clip(np.searchsorted(occ.t_edges, ts, side="right") - 1,
                      0, occ.n_intervals - 1)
        q, _, _, _ = traj.sample(ts)
        pts = capsule_points_batch(model, q)
        offs = rng.normal(size=(n, 3))
        offs /= np.linalg.norm(offs, axis=1, keepdims=True)
        offs *= rng.uniform(0.0, model.tracking_error, n)[:, None]
        link_r = np.array([c[3] for c in model.capsules])
        # (n, caps, ends): distance of every true capsule endpoint to the
        # matching hull capsule axis.
        p = pts + offs[:, None, None, :]
        d, _ = segment_closest(occ.p0[idx][:, :, None, :],
                               occ.p1[idx][:, :, None, :], p)
        slack = occ.radii[idx][:, :, None] - (d + link_r[None, :, None])
        escapes = int(np.sum(slack < -1e-9))
        assert escapes == 0, \
            f"{escapes} robot samples escaped ({model.n_joints} joints)"


def test_timing_budget():
    # Median shield step at or under 1 ms and median trajectory build at
    # or under 25 ms, on the seven-joint arm with four obstacles.
    cfg, model = load_case("bench.yaml")
    r = bench_scenario(cfg, model, iters=10_000, builds=200, seed=0)
    print(f"\nstep median {r['step_ms_median']:.3f} ms, "
          f"build median {r['build_ms_median']:.3f} ms")
    assert r["n_steps"] == 10_000
    assert r["build_failures"] == 0
    assert r["step_ms_median"] <= 1.0, r
    assert r["build_ms_median"] <= 25.0, r


def test_profile_matches_brute_force_oracle():
    # 200 random instances: duration within 1% of an exhaustive grid
    # search, every dense sample within limits (1e-9 slack).
    rng = np.random.default_rng(915)
    for i in range(200):
        target, v0, a0, limits = random_instance(rng)
        prof = time_optimal_profile(target, (0.0, v0, a0), limits)
        assert not prof.brake_fallback, f"instance {i} fell back to braking"
        s_end, v_end, a_end = prof.end_state
        assert abs(s_end - target) <= 1e-9
        assert abs(v_end) <= 1e-9 and abs(a_end) <= 1e-9
        dense_check_limits(prof, limits, tol=1e-9)

        best, _ = oracle_min_duration(target, v0, a0, limits.v_max,
                                      limits.a_max, limits.j_max)
        assert np.isfinite(best), f"instance {i}: oracle found no profile"
        assert prof.duration <= best + 1e-6, \
            f"instance {i}: {prof.duration} vs oracle {best}"
        assert prof.duration >= 0.99 * best, \
            f"instance {i}: {prof.duration} suspiciously beats oracle {best}"


def test_chunked_outperforms_single_action():
    # Executing verified chunks preserves velocity across plan boundaries;
    # planning one action at a time must cost at least 5% more time on
    # the obstacle-free multi-goal course, averaged over 30 seeds.
    cfg, model = load_case("multigoal_free.yaml")
    chunked, single = [], []
    for seed in range(30):
        mc = compute_metrics(run_rollout(cfg, model, "pacs", seed), model, cfg)
        ms = compute_metrics(run_rollout(cfg, model, "pacs-single", seed),
                             model, cfg)
        chunked.append(mc.time_to_goal)
        single.append(ms.time_to_goal)
    mean_c = float(np.mean(chunked))
    mean_s = float(np.mean(single))
    print(f"\nmean duration chunked {mean_c:.2f} s vs single {mean_s:.2f} s")
    assert mean_c <= mean_s, (mean_c, mean_s)
    assert (mean_s - mean_c) / mean_s >= 0.05, (mean_c, mean_s)


def test_shield_zero_violations_all_scenarios_and_modes():
    # The headline safety property: 100 seeds per scenario, both
    # constraint modes, not one true violation anywhere. The energy
    # thresholds are the ones shipped in the scenario files.
    total = 0
    for name in ("linear_patrol.yaml", "circle.yaml",
                 "adversarial_chase.yaml"):
        cfg_pfl, model = load_case(name)
        for cfg in (as_ssm(cfg_pfl), cfg_pfl):
            for seed in range(100):
                trace = run_rollout(cfg, model, "pacs", seed)
                viol = ground_truth_check(trace, model, cfg)
                assert len(viol) == 0, \
                    (f"{cfg.name} mode={cfg.mode} t_safe={cfg.t_safe} "
                     f"seed={seed}: {len(viol)} violating ticks")
                total += 1
    assert total == 600
