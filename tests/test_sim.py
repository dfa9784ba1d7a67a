"""Rollout simulator tests on a planar two-link arm."""

import numpy as np
import pytest

from test_model import planar_two_link, tip_velocity

from chunkshield.model import capsule_points_batch
from chunkshield.occupancy import segment_closest
from chunkshield.scenario import (ObstacleSpec, PlannerSpec, ScenarioConfig,
                                  read_trace)
from chunkshield.sim import (
    ObstacleScript,
    RolloutTrace,
    compute_metrics,
    ground_truth_check,
    path_deviation,
    run_rollout,
    save_rollout_trace,
    true_clearances,
)

# Ball parked on the tip arc of the sweep scenario below.
BLOCK = ObstacleSpec(pattern="static", shape_radius=0.08, v_max_obj=0.0,
                     meas_error=0.002, p0=(0.7, 0.0, 0.0))


def sweep_config(name, obstacles=(), duration=1.5, noise=0.0,
                 disturbance=False, mode="ssm", t_safe=0.0,
                 q_start=(-0.6, 0.0), goal=(0.6, 0.0), step_cap=0.04):
    """Two-link sweep from q_start to goal, 50 ms actions, 1 ms ticks."""
    return ScenarioConfig(
        name=name, robot="unused.yaml", mode=mode, t_safe=t_safe,
        horizon=8, exec_steps=2, dt_action=0.05, alpha_s=0.001,
        duration=duration, q_start=q_start,
        planner=PlannerSpec(goals=(goal,), step_cap=step_cap, noise=noise),
        obstacles=obstacles, disturbance=disturbance)


def arm_capsules(model, q):
    pts = capsule_points_batch(model, np.asarray(q, dtype=float)[None])[0]
    return pts[:, 0], pts[:, 1], np.array([c[3] for c in model.capsules])


def surface_clearance(p0, p1, r, pos, shape_radius):
    d = segment_closest(p0, p1, pos)[0] - r
    return float(d.min()) - shape_radius


FAR = (np.array([[50.0, 50.0, 50.0]]), np.array([[50.0, 50.0, 50.1]]),
       np.array([0.01]))


class TestObstacleScript:
    def test_patrol_tracks_nominal_within_speed_cap(self):
        spec = ObstacleSpec(pattern="linear_patrol", shape_radius=0.05,
                            v_max_obj=0.5, p0=(1.0, 0.0, 0.0),
                            p1=(1.0, 1.0, 0.0), speed=0.5)
        sc = ObstacleScript(spec, standoff=0.002)
        assert np.allclose(sc.pos, [1.0, 0.0, 0.0])
        dt = 0.001
        prev = sc.pos.copy()
        for k in range(3000):
            sc.advance((k + 1) * dt, dt, *FAR)
            step = np.linalg.norm(sc.pos - prev)
            assert step <= spec.v_max_obj * dt + 1e-12
            prev = sc.pos.copy()
        # After 3 s at 0.5 m/s the ping-pong pattern is at 2L - 1.5 = 0.5.
        assert np.allclose(sc.pos, [1.0, 0.5, 0.0], atol=1e-6)

    def test_circle_follows_its_orbit(self):
        spec = ObstacleSpec(pattern="circle", shape_radius=0.05, v_max_obj=0.5,
                            center=(0.2, 0.1, 0.4), radius_path=0.3,
                            omega=1.0, phase=0.5)
        sc = ObstacleScript(spec, standoff=0.002)
        dt = 0.001
        for k in range(2000):
            sc.advance((k + 1) * dt, dt, *FAR)
        ang = 1.0 * 2.0 + 0.5
        want = np.array([0.2 + 0.3 * np.cos(ang), 0.1 + 0.3 * np.sin(ang), 0.4])
        assert np.allclose(sc.pos, want, atol=1e-6)

    def test_overlapping_obstacle_yields_to_standoff(self):
        model = planar_two_link()
        p0, p1, r = arm_capsules(model, [0.0, 0.0])
        spec = ObstacleSpec(pattern="static", shape_radius=0.05, v_max_obj=0.4,
                            p0=(0.4, 0.03, 0.0))
        sc = ObstacleScript(spec, standoff=0.002)
        assert surface_clearance(p0, p1, r, sc.pos, 0.05) < 0.0
        dt = 0.001
        prev = sc.pos.copy()
        for k in range(2000):
            sc.advance((k + 1) * dt, dt, p0, p1, r)
            assert np.linalg.norm(sc.pos - prev) <= spec.v_max_obj * dt + 1e-12
            prev = sc.pos.copy()
        clear = surface_clearance(p0, p1, r, sc.pos, 0.05)
        assert abs(clear - 0.002) <= 1e-6

        # Robot leaves; the ball returns to its nominal point.
        far_p0, far_p1, far_r = FAR
        for k in range(2000, 4000):
            sc.advance((k + 1) * dt, dt, far_p0, far_p1, far_r)
        assert np.allclose(sc.pos, [0.4, 0.03, 0.0], atol=1e-9)

    def test_fast_obstacle_snaps_to_standoff_in_one_tick(self):
        model = planar_two_link()
        p0, p1, r = arm_capsules(model, [0.0, 0.0])
        spec = ObstacleSpec(pattern="static", shape_radius=0.05,
                            v_max_obj=1000.0, p0=(0.4, 0.03, 0.0))
        sc = ObstacleScript(spec, standoff=0.002)
        sc.advance(0.001, 0.001, p0, p1, r)
        clear = surface_clearance(p0, p1, r, sc.pos, 0.05)
        assert abs(clear - 0.002) <= 1e-9

    def test_chase_closes_in_and_hovers_at_standoff(self):
        model = planar_two_link()
        p0, p1, r = arm_capsules(model, [0.0, 0.0])
        spec = ObstacleSpec(pattern="chase", shape_radius=0.05, v_max_obj=0.5,
                            p0=(1.2, 0.5, 0.0), speed=0.5)
        sc = ObstacleScript(spec, standoff=0.002)
        dt = 0.001
        start_clear = surface_clearance(p0, p1, r, sc.pos, 0.05)
        for k in range(4000):
            sc.advance((k + 1) * dt, dt, p0, p1, r)
        clear = surface_clearance(p0, p1, r, sc.pos, 0.05)
        assert clear < start_clear
        assert 0.0 < clear <= 0.002 + 1e-9


class TestRollout:
    def test_same_seed_reproduces_bytes(self, tmp_path):
        cfg = sweep_config("det", obstacles=(BLOCK,), duration=0.8, noise=0.3)
        model = planar_two_link()
        a = run_rollout(cfg, model, "pacs", 7)
        b = run_rollout(cfg, model, "pacs", 7)
        assert np.array_equal(a.q_cmd, b.q_cmd)
        assert np.array_equal(a.q_true, b.q_true)
        assert np.array_equal(a.obs_true, b.obs_true)
        assert np.array_equal(a.min_margin, b.min_margin,  equal_nan=True)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        save_rollout_trace(str(pa), a)
        save_rollout_trace(str(pb), b)
        assert pa.read_bytes() == pb.read_bytes()

        c = run_rollout(cfg, model, "pacs", 8)
        assert not np.array_equal(a.q_cmd, c.q_cmd)

    def test_shield_blocks_contact_off_collides(self):
        cfg = sweep_config("block", obstacles=(BLOCK,), duration=1.5)
        model = planar_two_link()

        shielded = run_rollout(cfg, model, "pacs", 1)
        assert ground_truth_check(shielded, model, cfg) == []
        m = compute_metrics(shielded, model, cfg, path_dev=True)
        assert m.min_clearance > 0.0
        assert m.interventions > 0
        assert m.stopped_ticks > 0
        assert not m.success
        # Braking never leaves the intended geometric path.
        assert m.max_path_dev <= 1e-7

        bare = run_rollout(cfg, model, "off", 1)
        ticks = ground_truth_check(bare, model, cfg)
        assert len(ticks) > 0
        assert compute_metrics(bare, model, cfg).min_clearance < 0.0

    def test_filter_transparent_in_free_space(self):
        cfg = sweep_config("free", duration=2.6, noise=0.2)
        model = planar_two_link()
        guarded = run_rollout(cfg, model, "pacs", 3)
        bare = run_rollout(cfg, model, "off", 3)
        assert np.abs(guarded.q_cmd - bare.q_cmd).max() <= 1e-12
        assert np.all(guarded.phase == 0)
        mg = compute_metrics(guarded, model, cfg)
        mb = compute_metrics(bare, model, cfg)
        assert mg.success and mb.success
        assert abs(mg.time_to_goal - mb.time_to_goal) <= 1e-9

    def test_chunks_beat_single_actions_on_duration(self):
        cfg = sweep_config("speed", duration=3.5,
                           q_start=(-0.3, 0.0), goal=(0.3, 0.0))
        model = planar_two_link()
        chunked = compute_metrics(run_rollout(cfg, model, "pacs", 2), model, cfg)
        single = compute_metrics(run_rollout(cfg, model, "pacs-single", 2),
                                 model, cfg)
        assert chunked.success and single.success
        assert single.time_to_goal > 1.05 * chunked.time_to_goal

    def test_cbf_dodges_but_leaves_the_path(self):
        cfg = sweep_config("dodge", obstacles=(BLOCK,), duration=2.0)
        model = planar_two_link()
        trace = run_rollout(cfg, model, "cbf", 4)
        assert np.all(trace.q_cmd >= model.limits.q_min - 1e-12)
        assert np.all(trace.q_cmd <= model.limits.q_max + 1e-12)
        m = compute_metrics(trace, model, cfg, path_dev=True)
        # Orders of magnitude above the shield's 1e-7 on the same block.
        assert m.max_path_dev > 5e-3
        assert ground_truth_check(trace, model, cfg) == []

    def test_disturbance_is_constant_and_bounded(self):
        model = planar_two_link(tracking_error=0.002)
        cfg = sweep_config("dist", duration=0.5, disturbance=True)
        trace = run_rollout(cfg, model, "pacs", 11)
        bias = trace.q_true - trace.q_cmd
        # Recovered as (q + b) - q, so constant only to roundoff.
        assert np.abs(bias - bias[0]).max() <= 1e-12
        assert np.abs(bias).max() <= 0.002 / model.motion_bound + 1e-12
        assert np.abs(bias[0]).max() > 0.0

    def test_trace_file_layout(self, tmp_path):
        cfg = sweep_config("layout", obstacles=(BLOCK,), duration=0.3)
        model = planar_two_link()
        trace = run_rollout(cfg, model, "pacs", 5)
        path = tmp_path / "layout.csv"
        save_rollout_trace(str(path), trace, extra_header={"note": "x"})
        header, columns, rows = read_trace(str(path))
        n = model.n_joints
        assert header["scenario"] == "layout"
        assert header["seed"] == "5"
        assert header["note"] == "x"
        assert len(columns) == 2 + 3 * n + 8 + 3
        assert len(rows) == trace.n_ticks
        phase_col = columns.index("phase")
        assert rows[0][phase_col] in ("INTENDED", "FAILSAFE")
        assert float(rows[0][columns.index("t")]) == trace.t[0]
        assert float(rows[-1][columns.index("obs0_x")]) == trace.obs_true[-1, 0, 0]


def synth_trace(cfg, q_true, dq_cmd=None, obs=None):
    q_true = np.asarray(q_true, dtype=float)
    n_ticks, n = q_true.shape
    n_obs = len(cfg.obstacles)
    if dq_cmd is None:
        dq_cmd = np.zeros((n_ticks, n))
    if obs is None:
        obs = np.zeros((n_ticks, n_obs, 3))
    z = np.zeros(n_ticks)
    return RolloutTrace(
        scenario=cfg.name, filter_name="off", seed=0, alpha_s=cfg.alpha_s,
        mode=cfg.mode, t_safe=cfg.t_safe,
        t=(np.arange(n_ticks) + 1) * cfg.alpha_s,
        q_cmd=q_true.copy(), dq_cmd=np.asarray(dq_cmd, dtype=float),
        q_true=q_true, phase=z.astype(np.int64), source=z.astype(np.int64),
        adopted=np.ones(n_ticks, dtype=bool),
        stopped_unsafe=np.zeros(n_ticks, dtype=bool),
        min_margin=np.full(n_ticks, np.nan),
        max_energy=np.full(n_ticks, np.nan),
        plan_idx=np.full(n_ticks, -1, dtype=np.int64),
        obs_true=np.asarray(obs, dtype=float), plans=[], chunks=[],
        rejected_handoffs=0, planning_failures=0, clamped_chunks=0,
        wall_times=z)


class TestGroundTruth:
    def test_energy_gate_in_pfl_mode(self):
        model = planar_two_link()
        spec = ObstacleSpec(pattern="static", shape_radius=0.05, v_max_obj=0.0,
                            p0=(0.7, 0.0, 0.0))
        cfg = sweep_config("gate", obstacles=(spec,), mode="pfl", t_safe=0.02)
        obs = np.array([[[0.7, 0.0, 0.0]]])
        q = np.array([[0.0, 0.0]])

        # Tip touches the ball. Slow contact stays under the energy cap.
        slow = synth_trace(cfg, q, dq_cmd=[[0.05, 0.0]], obs=obs)
        ke_slow = 0.5 * 1.5 * np.sum(tip_velocity(q[0], [0.05, 0.0]) ** 2)
        assert ke_slow < 0.02
        assert true_clearances(slow, model, cfg)[0] < 0.0
        assert ground_truth_check(slow, model, cfg) == []

        fast = synth_trace(cfg, q, dq_cmd=[[1.0, 0.0]], obs=obs)
        assert ground_truth_check(fast, model, cfg) == [0]

    def test_ssm_mode_counts_any_contact(self):
        model = planar_two_link()
        cfg = sweep_config("ssm", obstacles=(BLOCK,))
        obs = np.array([[[0.7, 0.0, 0.0]], [[5.0, 5.0, 5.0]]])
        trace = synth_trace(cfg, np.zeros((2, 2)), obs=obs)
        assert ground_truth_check(trace, model, cfg) == [0]

    def test_no_obstacles_means_no_violations(self):
        model = planar_two_link()
        cfg = sweep_config("empty")
        trace = synth_trace(cfg, np.zeros((3, 2)),
                            obs=np.zeros((3, 0, 3)))
        assert ground_truth_check(trace, model, cfg) == []
        assert true_clearances(trace, model, cfg)[0] == np.inf


class TestMetrics:
    def test_sequential_goal_visits(self):
        model = planar_two_link()
        cfg = ScenarioConfig(
            name="goals", robot="r.yaml", mode="ssm", t_safe=0.0,
            horizon=8, exec_steps=2, dt_action=0.05, alpha_s=0.001,
            duration=0.003, q_start=(0.0, 0.0),
            planner=PlannerSpec(goals=((0.2, 0.0), (0.5, 0.0)), step_cap=0.04))
        ordered = synth_trace(cfg, [[0.0, 0.0], [0.2, 0.0], [0.5, 0.0]],
                              obs=np.zeros((3, 0, 3)))
        m = compute_metrics(ordered, model, cfg)
        assert m.success
        assert m.time_to_goal == ordered.t[2]

        # Reaching the goals out of order does not count.
        swapped = synth_trace(cfg, [[0.5, 0.0], [0.2, 0.0], [0.2, 0.0]],
                              obs=np.zeros((3, 0, 3)))
        m = compute_metrics(swapped, model, cfg)
        assert not m.success
        assert m.time_to_goal == cfg.duration

    def test_path_deviation_nan_without_plans(self):
        model = planar_two_link()
        cfg = sweep_config("nodev")
        trace = synth_trace(cfg, np.zeros((3, 2)), obs=np.zeros((3, 0, 3)))
        assert np.all(np.isnan(path_deviation(trace)))
        m = compute_metrics(trace, model, cfg, path_dev=True)
        assert np.isnan(m.max_path_dev)
