"""Shield loop tests: transparency, braking, recovery, and PFL energy gating."""

import numpy as np
import pytest

from chunkshield.model import capsule_points_batch
from chunkshield.occupancy import ObstacleState, TimeInterval, segment_closest
from chunkshield.profiles import ScalarLimits, ScalarProfile
from chunkshield.shield import (
    HANDOFF_TOL,
    SafetySpec,
    Shield,
    Verdict,
    steps_per_chunk,
    verify,
)
from chunkshield.trajectory import GeometricPath, Trajectory, plan_intended

from oracles import segment_point_distance
from test_model import planar_two_link, tip_position, tip_velocity

ALPHA = 0.001


def ssm_spec():
    return SafetySpec(mode="ssm")


def static_obstacle(center, radius, t, v_max_obj=0.0):
    return ObstacleState(measured_center=center, shape_radius=radius,
                         v_max_obj=v_max_obj, meas_error=0.0, meas_time=t)


def segment_distance_nd(p0, p1, q):
    """Point-to-segment distance in joint space (any dimension)."""
    d = p1 - p0
    denom = float(d @ d)
    u = 0.0 if denom == 0.0 else float(np.clip((q - p0) @ d / denom, 0.0, 1.0))
    return float(np.linalg.norm(q - (p0 + u * d)))


class TestTransparency:
    def test_commands_match_intended_bitwise_without_obstacles(self):
        model = planar_two_link()
        q0 = np.zeros(2)
        intended = plan_intended([[0.0, 0.0], [0.9, 0.4], [1.3, -0.2]],
                                 np.zeros(2), model.limits)
        shield = Shield(model, ssm_spec(), ALPHA, q0)
        assert shield.set_trajectory(intended)
        n = int(np.ceil(intended.duration / ALPHA)) + 5
        cmd = None
        for _ in range(n):
            cmd, info = shield.step([])
            assert info.adopted and info.phase == "INTENDED"
            ref = intended.state(shield.t).q
            # Roundoff only: the candidate re-samples the same polynomial
            # segments, so any difference is a few ulps.
            assert np.abs(cmd.q - ref).max() <= 1e-14
        assert np.abs(cmd.q - intended.path.waypoints[-1]).max() <= 1e-9
        assert np.abs(cmd.dq).max() <= 1e-12

    def test_initial_hold_is_safe_and_stationary(self):
        model = planar_two_link()
        q0 = np.array([0.2, -0.4])
        shield = Shield(model, ssm_spec(), ALPHA, q0)
        far = static_obstacle([3.0, 0.0, 0.0], 0.1, 0.0)
        cmd, info = shield.step([far])
        assert info.adopted and info.source == "hold"
        assert np.all(cmd.q == q0) and np.all(cmd.dq == 0.0)
        assert info.verdict.min_margin > 0.0


class TestBrakeAndRecover:
    def test_blocking_obstacle_brakes_on_path_then_resumes(self):
        model = planar_two_link()
        q0 = np.zeros(2)
        goal = np.array([1.1, 0.3])
        intended = plan_intended([q0, goal], np.zeros(2), model.limits)
        shield = Shield(model, ssm_spec(), ALPHA, q0)
        assert shield.set_trajectory(intended)

        tip_goal = tip_position(goal)
        obs_r = 0.10
        min_true = np.inf
        saw_failsafe = False
        for _ in range(4000):
            obs = static_obstacle(tip_goal, obs_r, shield.t)
            cmd, info = shield.step([obs])
            caps = capsule_points_batch(model, cmd.q[None, :])[0]
            d = min(segment_point_distance(tip_goal, caps[c, 0], caps[c, 1])
                    - model.capsules[c][3] - obs_r for c in range(len(caps)))
            min_true = min(min_true, d)
            # Interventions only retime: commands stay on the straight path.
            assert segment_distance_nd(q0, goal, cmd.q) <= 1e-9
            saw_failsafe = saw_failsafe or info.phase == "FAILSAFE"
            if info.stopped_unsafe and np.abs(cmd.dq).max() == 0.0:
                break
        else:
            pytest.fail("shield never braked to rest")
        assert saw_failsafe
        assert min_true > 0.0

        # Obstacle leaves; the shield re-times the remaining path and
        # finishes at the original goal.
        sources = set()
        for _ in range(6000):
            cmd, info = shield.step([])
            sources.add(info.source)
            assert segment_distance_nd(q0, goal, cmd.q) <= 1e-9
            if np.abs(cmd.q - goal).max() <= 1e-9 \
                    and np.abs(cmd.dq).max() == 0.0:
                break
        else:
            pytest.fail("shield did not resume to the goal")
        assert "recover" in sources

    def test_stationary_overlap_reports_stopped_unsafe(self):
        model = planar_two_link()
        q0 = np.zeros(2)
        shield = Shield(model, ssm_spec(), ALPHA, q0)
        tip0 = tip_position(q0)
        for _ in range(3):
            obs = static_obstacle(tip0, 0.05, shield.t)
            cmd, info = shield.step([obs])
            assert not info.adopted and info.phase == "FAILSAFE"
            assert info.stopped_unsafe
            assert np.all(cmd.q == q0) and np.all(cmd.dq == 0.0)
            assert info.verdict.min_margin <= 0.0
            assert info.verdict.first_violation is not None

    def test_unsafe_staged_chunk_discarded_without_motion(self):
        model = planar_two_link()
        q0 = np.zeros(2)
        intended = plan_intended([q0, [1.1, 0.3]], np.zeros(2), model.limits)
        shield = Shield(model, ssm_spec(), ALPHA, q0)
        assert shield.set_trajectory(intended)
        blocking = static_obstacle(tip_position(q0), 0.05, 0.0)
        cmd, info = shield.step([blocking])
        assert info.source == "staged" and not info.adopted
        assert np.all(cmd.q == q0) and np.all(cmd.dq == 0.0)
        # The staged trajectory was dropped, not retried.
        cmd, info = shield.step([blocking])
        assert info.source == "hold"

    def test_handoff_gap_rejected(self):
        model = planar_two_link()
        q0 = np.zeros(2)
        shield = Shield(model, ssm_spec(), ALPHA, q0)
        far_start = plan_intended([[1e-3, 0.0], [0.5, 0.2]],
                                  np.zeros(2), model.limits)
        assert not shield.set_trajectory(far_start)
        assert shield.rejected_handoffs == 1
        cmd, info = shield.step([])
        assert info.source == "hold"
        assert np.all(cmd.q == q0)
        near_start = plan_intended([[5e-7, 0.0], [0.5, 0.2]],
                                   np.zeros(2), model.limits)
        assert shield.set_trajectory(near_start)


class TestVerify:
    def test_pfl_energy_bound_and_threshold(self):
        model = planar_two_link()
        q0, q1 = np.array([0.0, 0.0]), np.array([1.0, 0.5])
        path = GeometricPath(np.stack([q0, q1]))
        lims = ScalarLimits(v_max=2.0, a_max=10.0, j_max=400.0)
        v_slow = 0.4
        T = path.s_total / v_slow
        prof = ScalarProfile(s0=0.0, v0=v_slow, a0=0.0,
                             durations=np.array([T]), jerks=np.array([0.0]))
        traj = Trajectory(path=path, profile=prof, scalar_limits=lims, t0=0.0)
        # A ball that swallows the whole workspace forces every interval
        # into the energy branch.
        huge = static_obstacle([0.0, 0.0, 0.0], 5.0, 0.0)
        window = TimeInterval(0.0, traj.duration)
        verdict = verify(model, traj, window, [huge],
                         SafetySpec(mode="pfl", t_safe=100.0), ALPHA)
        assert verdict.safe
        assert verdict.min_margin <= 0.0
        assert verdict.n_intervals == 64

        # Independent endpoint-energy bound via the analytic Jacobian.
        edges = np.linspace(0.0, traj.duration, 65)
        tangent = (q1 - q0) / path.s_total
        energies = []
        for t in edges:
            s = v_slow * t
            q = q0 + tangent * s
            dq = tangent * v_slow
            v = tip_velocity(q, dq)
            energies.append(0.5 * 1.5 * float(v @ v))
        energies = np.array(energies)
        bound = 1.05 * np.maximum(energies[:-1], energies[1:]).max()
        assert verdict.max_energy == pytest.approx(bound, rel=1e-8)

        at = verify(model, traj, window, [huge],
                    SafetySpec(mode="pfl", t_safe=verdict.max_energy), ALPHA)
        assert at.safe
        below = verify(model, traj, window, [huge],
                       SafetySpec(mode="pfl",
                                  t_safe=verdict.max_energy * (1.0 - 1e-9)),
                       ALPHA)
        assert not below.safe
        assert below.first_violation is not None

    def test_pfl_energy_scales_with_squared_speed(self):
        model = planar_two_link()
        q0, q1 = np.array([0.0, 0.0]), np.array([1.0, 0.5])
        path = GeometricPath(np.stack([q0, q1]))
        lims = ScalarLimits(v_max=2.0, a_max=10.0, j_max=400.0)
        huge = static_obstacle([0.0, 0.0, 0.0], 5.0, 0.0)
        spec = SafetySpec(mode="pfl", t_safe=100.0)

        def max_energy(v):
            T = path.s_total / v
            prof = ScalarProfile(s0=0.0, v0=v, a0=0.0,
                                 durations=np.array([T]),
                                 jerks=np.array([0.0]))
            traj = Trajectory(path=path, profile=prof,
                              scalar_limits=lims, t0=0.0)
            out = verify(model, traj, TimeInterval(0.0, T), [huge],
                         spec, ALPHA)
            # Both windows exceed the subinterval cap, so the arc samples
            # align and the ratio is exact up to roundoff.
            assert out.n_intervals == 64
            return out.max_energy

        e1 = max_energy(0.4)
        e2 = max_energy(0.8)
        assert e2 == pytest.approx(4.0 * e1, rel=1e-10)

    def test_min_margin_is_lower_bound_on_dense_truth(self):
        model = planar_two_link()
        rng = np.random.default_rng(17)
        link_r = np.array([0.05, 0.04])
        checked_safe = 0
        for _ in range(12):
            q0 = rng.uniform(-1.0, 1.0, 2)
            q1 = np.clip(q0 + rng.uniform(-0.8, 0.8, 2), -np.pi, np.pi)
            if np.linalg.norm(q1 - q0) < 1e-3:
                continue
            traj = plan_intended([q0, q1], np.zeros(2), model.limits)
            center = rng.uniform(-1.0, 1.0, 3) * np.array([1.0, 1.0, 0.2])
            obs = ObstacleState(measured_center=center,
                                shape_radius=rng.uniform(0.02, 0.3),
                                v_max_obj=rng.uniform(0.0, 0.5),
                                meas_error=rng.uniform(0.0, 0.01),
                                meas_time=0.0)
            window = TimeInterval(0.0, traj.duration)
            verdict = verify(model, traj, window, [obs], ssm_spec(), ALPHA)

            ts = np.linspace(0.0, traj.duration, 1500)
            q, _, _, _ = traj.sample(ts)
            pts = capsule_points_batch(model, q)
            d, _ = segment_closest(pts[:, :, 0, :], pts[:, :, 1, :], center)
            obs_r = obs.shape_radius + obs.meas_error + obs.v_max_obj * ts
            truth = float((d - link_r[None, :] - obs_r[:, None]).min())
            assert verdict.min_margin <= truth + 1e-12
            if verdict.safe:
                assert truth > 0.0
                checked_safe += 1
        assert checked_safe >= 1

    def test_subinterval_count_follows_window(self):
        model = planar_two_link()
        traj = Trajectory.hold(np.zeros(2), 1.0)
        far = static_obstacle([3.0, 0.0, 0.0], 0.1, 0.0)
        short = verify(model, traj, TimeInterval(0.0, 0.01), [far],
                       ssm_spec(), ALPHA)
        assert short.n_intervals == 10
        long = verify(model, traj, TimeInterval(0.0, 2.0), [far],
                      ssm_spec(), ALPHA)
        assert long.n_intervals == 64


class TestConfig:
    def test_steps_per_chunk_values(self):
        assert steps_per_chunk(6, 0.033, 0.001) == 198
        assert steps_per_chunk(2, 0.1, 0.001) == 200
        with pytest.raises(ValueError):
            steps_per_chunk(3, 0.0105, 0.001)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SafetySpec(mode="nope")
        with pytest.raises(ValueError):
            SafetySpec(mode="ssm", t_safe=0.1)
        with pytest.raises(ValueError):
            SafetySpec(mode="pfl", t_safe=-1.0)

    def test_spec_rejects_non_finite_thresholds(self):
        for field in ("t_safe", "energy_margin", "delta_e"):
            for bad in (np.nan, np.inf):
                with pytest.raises(ValueError):
                    SafetySpec(mode="pfl", **{field: bad})


class TestFailClosed:
    def test_measurement_after_step_start_is_not_adopted(self):
        # Stamped half a second late, the obstacle's occupancy radius would
        # shrink over the window and its margin would read positive.
        model = planar_two_link()
        shield = Shield(model, ssm_spec(), ALPHA, np.zeros(2))
        obs = static_obstacle([0.9, 0.0, 0.0], 0.05, shield.t + 0.5,
                              v_max_obj=1.0)
        cmd, info = shield.step([obs])
        assert not info.adopted and info.phase == "FAILSAFE"
        assert info.verdict.min_margin == -np.inf
        assert info.verdict.first_violation[0] == 0
        assert np.all(cmd.q == 0.0)

    def test_non_finite_margin_is_not_adopted(self):
        # ObstacleState rejects a NaN center; one that got past construction
        # must still read as possibly intersecting, not as clear.
        model = planar_two_link()
        shield = Shield(model, ssm_spec(), ALPHA, np.zeros(2))
        far = static_obstacle([3.0, 0.0, 0.0], 0.1, shield.t)
        bad = static_obstacle([3.0, 0.0, 0.0], 0.1, shield.t)
        object.__setattr__(bad, "measured_center", np.array([np.nan, 0.0, 0.0]))
        cmd, info = shield.step([far, bad])
        assert not info.adopted
        assert info.verdict.first_violation[0] == 1
        assert np.all(cmd.q == 0.0)

    def test_non_finite_energy_is_not_adopted(self):
        # A NaN jerk gives NaN motion: every margin and energy bound is NaN.
        # ssm already rejects it; pfl must too, and name where.
        model = planar_two_link()
        path = GeometricPath(np.array([[0.0, 0.0], [0.5, 0.2]]))
        prof = ScalarProfile(0.0, 0.0, 0.0, np.array([0.05]),
                             np.array([np.nan]))
        traj = Trajectory(path=path, profile=prof,
                          scalar_limits=ScalarLimits(1.0, 1.0, 1.0), t0=0.0)
        ball = static_obstacle([0.7, 0.0, 0.0], 0.05, 0.0)
        window = TimeInterval(0.0, 0.05)
        assert not verify(model, traj, window, [ball], ssm_spec(), ALPHA).safe
        verdict = verify(model, traj, window, [ball],
                         SafetySpec(mode="pfl", t_safe=1.0), ALPHA)
        assert not verdict.safe
        assert verdict.first_violation == (0, 0, 0.0, ALPHA)
