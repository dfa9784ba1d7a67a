"""Occupancy soundness tests: closed forms, sampling oracles, containment."""

import numpy as np
import pytest

from chunkshield.model import KinematicLimits, RobotModel, capsule_points_batch
from chunkshield.occupancy import (
    ObstacleState,
    TimeInterval,
    capsule_clearance,
    robot_occupancy,
    segment_closest,
)
from chunkshield.trajectory import Trajectory, plan_intended
from oracles import capsule_ball_distance_sampled, segment_point_distance

from test_model import planar_two_link, spatial_three_link


def one_joint_arm():
    limits = KinematicLimits(q_min=[-3.0], q_max=[3.0], v_max=[2.0],
                             a_max=[10.0], j_max=[400.0])
    return RobotModel(
        joint_offsets=[[0.0, 0.0, 0.0]],
        joint_axes=[[0.0, 0.0, 1.0]],
        capsules=((0, [0.1, 0.0, 0.0], [0.5, 0.0, 0.0], 0.06),),
        masses=((0, [0.5, 0.0, 0.0], 1.0),),
        limits=limits,
        tracking_error=0.002,
    )


class TestObstacleOccupancy:
    def test_static_obstacle_radius(self):
        obs = ObstacleState([1.0, 0.0, 0.0], shape_radius=0.07,
                            v_max_obj=0.0, meas_error=0.0, meas_time=0.0)
        assert obs.occupancy_radius(5.0) == pytest.approx(0.07)

    def test_linear_growth(self):
        obs = ObstacleState([0.0, 0.0, 0.0], shape_radius=0.05,
                            v_max_obj=1.0, meas_error=0.01, meas_time=0.0)
        assert obs.occupancy_radius(0.2) == pytest.approx(0.26)

    def test_radius_monotone_in_horizon(self):
        obs = ObstacleState([0.0, 0.0, 0.0], shape_radius=0.05,
                            v_max_obj=0.8, meas_error=0.01, meas_time=1.0)
        radii = [obs.occupancy_radius(1.0 + tb)
                 for tb in np.linspace(0.0, 1.0, 17)]
        assert np.all(np.diff(radii) >= 0.0)

    def test_interval_before_measurement_rejected(self):
        obs = ObstacleState([0.0, 0.0, 0.0], shape_radius=0.05,
                            v_max_obj=0.8, meas_error=0.01, meas_time=1.0)
        with pytest.raises(ValueError):
            obs.occupancy_radius(0.5)

    def test_monte_carlo_positions_inside_ball(self):
        rng = np.random.default_rng(21)
        obs = ObstacleState([0.3, -0.2, 0.5], shape_radius=0.04,
                            v_max_obj=0.9, meas_error=0.008, meas_time=2.0)
        radius = obs.occupancy_radius(2.4)
        for _ in range(300):
            offset = rng.normal(size=3)
            offset *= rng.uniform(0.0, obs.meas_error) / np.linalg.norm(offset)
            pos = obs.measured_center + offset
            t = 2.0
            while t < 2.4:
                dt = rng.uniform(0.0, 0.05)
                dt = min(dt, 2.4 - t)
                step = rng.normal(size=3)
                step *= rng.uniform(0.0, obs.v_max_obj) * dt / np.linalg.norm(step)
                pos = pos + step
                t += dt
                # Center must stay within radius minus the shape.
                assert np.linalg.norm(pos - obs.measured_center) <= radius \
                    - obs.shape_radius + 1e-12

    def test_non_finite_fields_rejected(self):
        good = dict(measured_center=[0.0, 0.0, 0.0], shape_radius=0.05,
                    v_max_obj=0.8, meas_error=0.01, meas_time=1.0)
        ObstacleState(**good)
        for name, bad in [("measured_center", [0.0, np.nan, 0.0]),
                          ("measured_center", [np.inf, 0.0, 0.0]),
                          ("shape_radius", np.nan), ("v_max_obj", np.inf),
                          ("meas_error", np.nan), ("meas_time", np.nan),
                          ("meas_time", -np.inf), ("v_max_obj", -0.1)]:
            with pytest.raises(ValueError):
                ObstacleState(**dict(good, **{name: bad}))


def one_capsule_clearance(p0, p1, rc, center, rb):
    return float(capsule_clearance(np.array([p0], dtype=float),
                                   np.array([p1], dtype=float),
                                   np.array([rc]), center, rb))


class TestDistance:
    def test_tangency_and_penetration(self):
        cap = ([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], 0.1)
        assert one_capsule_clearance(*cap, [0.5, 0.2, 0.0], 0.1) \
            == pytest.approx(0.0, abs=1e-12)
        assert one_capsule_clearance(*cap, [0.5, 0.0, 0.0], 0.05) \
            == pytest.approx(-0.15, abs=1e-12)
        assert one_capsule_clearance(*cap, [2.0, 0.0, 0.0], 0.1) \
            == pytest.approx(0.8, abs=1e-12)

    def test_matches_sampling_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            p0 = rng.uniform(-1.0, 1.0, 3)
            p1 = rng.uniform(-1.0, 1.0, 3)
            rc = rng.uniform(0.01, 0.2)
            center = rng.uniform(-1.5, 1.5, 3)
            rb = rng.uniform(0.0, 0.3)
            ref = capsule_ball_distance_sampled(p0, p1, rc, center, rb)
            assert one_capsule_clearance(p0, p1, rc, center, rb) \
                == pytest.approx(ref, abs=1e-6)

    def test_segment_point_distance_broadcasts(self):
        p0 = np.zeros((4, 2, 3))
        p1 = np.zeros((4, 2, 3))
        p1[..., 0] = 1.0
        point = np.array([0.5, 1.0, 0.0])
        d, foot = segment_closest(p0, p1, point)
        assert d.shape == (4, 2) and foot.shape == (4, 2, 3)
        assert np.allclose(d, 1.0)
        assert np.allclose(foot, [0.5, 0.0, 0.0])


class TestRobotOccupancy:
    def test_stationary_occupancy_is_inflated_fk(self):
        model = one_joint_arm()
        traj = Trajectory.hold([0.7], 1.0)
        occ = robot_occupancy(model, traj, TimeInterval(0.0, 1.0), n_sub=3)
        caps = capsule_points_batch(model, [[0.7]])[0]
        assert occ.n_intervals == 3
        for i in range(3):
            for c, (_, _, _, radius) in enumerate(model.capsules):
                assert np.allclose(occ.p0[i, c], caps[c, 0], atol=1e-12)
                assert np.allclose(occ.p1[i, c], caps[c, 1], atol=1e-12)
                assert occ.radii[i, c] == pytest.approx(
                    radius + model.tracking_error, abs=1e-12)

    def test_sweep_contains_interior_configurations(self):
        model = one_joint_arm()
        traj = plan_intended(np.array([[0.0], [np.pi / 2]]), np.zeros(1),
                             model.limits)
        window = TimeInterval(traj.t0, traj.end_time)
        occ = robot_occupancy(model, traj, window, n_sub=1)
        ts = np.linspace(window.t_a, window.t_b, 1000)
        q, _, _, _ = traj.sample(ts)
        pts = capsule_points_batch(model, q)
        link_r = model.capsules[0][3]
        for k in range(pts.shape[0]):
            for end in range(2):
                d, _ = segment_closest(occ.p0[0, 0], occ.p1[0, 0],
                                       pts[k, 0, end])
                assert d + link_r <= occ.radii[0, 0] + 1e-9

    def test_refinement_shrinks_inflation(self):
        model = one_joint_arm()
        traj = plan_intended(np.array([[0.0], [1.2]]), np.zeros(1), model.limits)
        window = TimeInterval(traj.t0, traj.end_time)
        occ_coarse = robot_occupancy(model, traj, window, n_sub=4)
        occ_fine = robot_occupancy(model, traj, window, n_sub=8)
        assert occ_fine.radii.max() <= occ_coarse.radii.max() + 1e-12

    def test_margins_match_scalar_distance(self):
        model = spatial_three_link()
        traj = plan_intended(
            np.array([[0.0, 0.0, 0.0], [0.5, -0.4, 0.3], [0.9, 0.2, -0.2]]),
            np.zeros(3), model.limits)
        window = TimeInterval(traj.t0, traj.end_time)
        occ = robot_occupancy(model, traj, window, n_sub=6)
        obs = ObstacleState([0.4, 0.1, 0.5], shape_radius=0.05,
                            v_max_obj=0.5, meas_error=0.01, meas_time=0.0)
        margins = occ.margins_batch([obs])[0]
        for i in range(occ.n_intervals):
            ball_r = obs.occupancy_radius(occ.t_edges[i + 1])
            ref = min(segment_point_distance(obs.measured_center, occ.p0[i, c],
                                             occ.p1[i, c]) - occ.radii[i, c]
                      - ball_r for c in range(occ.radii.shape[1]))
            assert margins[i] == pytest.approx(ref, abs=1e-12)

    def test_intersects_flags(self):
        model = one_joint_arm()
        traj = Trajectory.hold([0.0], 0.5)
        occ = robot_occupancy(model, traj, TimeInterval(0.0, 0.5), n_sub=2)
        far = ObstacleState([1000.0, 0.0, 0.0], 0.05, 0.1, 0.0, 0.0)
        near = ObstacleState([0.3, 0.0, 0.0], 0.05, 0.1, 0.0, 0.0)
        margins = occ.margins_batch([far, near])
        assert margins.shape == (2, 2)
        assert not (margins[0] <= 0.0).any()
        assert (margins[1] <= 0.0).all()

    def test_monte_carlo_containment_with_tracking_error(self):
        # Admissible tracked motion (workspace deviation <= tracking_error)
        # stays inside the occupancy, every link and sample.
        model = planar_two_link(tracking_error=0.004)
        rng = np.random.default_rng(41)
        traj = plan_intended(
            np.array([[0.0, 0.0], [0.7, -0.5], [1.2, 0.4]]),
            np.zeros(2), model.limits)
        window = TimeInterval(traj.t0, traj.end_time)
        occ = robot_occupancy(model, traj, window, n_sub=16)
        link_r = np.array([c[3] for c in model.capsules])
        ts = rng.uniform(window.t_a, window.t_b, 400)
        idx = np.clip(np.searchsorted(occ.t_edges, ts, side="right") - 1,
                      0, occ.n_intervals - 1)
        q, _, _, _ = traj.sample(ts)
        pts = capsule_points_batch(model, q)
        for k in range(ts.shape[0]):
            offset = rng.normal(size=3)
            offset *= rng.uniform(0.0, model.tracking_error) / np.linalg.norm(offset)
            i = idx[k]
            for c in range(len(model.capsules)):
                for end in range(2):
                    p = pts[k, c, end] + offset
                    d, _ = segment_closest(occ.p0[i, c], occ.p1[i, c], p)
                    assert d + link_r[c] <= occ.radii[i, c] + 1e-9

    def test_bad_n_sub_rejected(self):
        model = one_joint_arm()
        traj = Trajectory.hold([0.0], 1.0)
        with pytest.raises(ValueError):
            robot_occupancy(model, traj, TimeInterval(0.0, 1.0), n_sub=0)


class TestTimeInterval:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            TimeInterval(1.0, 0.5)
        TimeInterval(1.0, 1.0)
