"""Path geometry and trajectory timing tests with dense-sampling oracles."""

import numpy as np
import pytest

from chunkshield.model import KinematicLimits
from chunkshield.profiles import ScalarLimits
from chunkshield.trajectory import (
    GeometricPath,
    PlanningError,
    Trajectory,
    derive_scalar_limits,
    initial_path_speed,
    merge_waypoints,
    plan_intended,
    scalar_limits_from_bounds,
)


def default_limits(n):
    return KinematicLimits(
        q_min=[-3.0] * n, q_max=[3.0] * n,
        v_max=[2.0] * n, a_max=[10.0] * n, j_max=[400.0] * n,
    )


def random_waypoints(rng, k, n, scale=1.0):
    steps = rng.uniform(-0.4, 0.4, (k - 1, n)) * scale
    return np.vstack([rng.uniform(-0.5, 0.5, n), ]) + np.vstack(
        [np.zeros(n), np.cumsum(steps, axis=0)])


class TestGeometricPath:
    def test_interpolates_waypoints(self):
        rng = np.random.default_rng(1)
        pts = random_waypoints(rng, 6, 4)
        path = GeometricPath(pts)
        knots = np.concatenate(
            [[0.0], np.cumsum(np.linalg.norm(np.diff(pts, axis=0), axis=1))])
        assert np.allclose(path.point(knots), pts, atol=1e-10)
        assert path.s_total == pytest.approx(knots[-1])

    def test_natural_boundary_conditions(self):
        rng = np.random.default_rng(2)
        path = GeometricPath(random_waypoints(rng, 5, 3))
        assert np.allclose(path.derivative(0.0, 2), 0.0, atol=1e-9)
        assert np.allclose(path.derivative(path.s_total, 2), 0.0, atol=1e-9)

    def test_two_waypoints_is_straight_line(self):
        path = GeometricPath(np.array([[0.0, 0.0], [1.0, 1.0]]))
        ss = np.linspace(0.0, path.s_total, 33)
        pts = path.point(ss)
        fracs = ss / path.s_total
        assert np.allclose(pts, fracs[:, None] * np.array([1.0, 1.0]), atol=1e-12)
        g1, g2, g3 = path.derivative_bounds()
        assert np.allclose(g1, 1.0 / np.sqrt(2.0), atol=1e-12)
        assert np.allclose(g2, 0.0, atol=1e-9)
        assert np.allclose(g3, 0.0, atol=1e-9)

    def test_merge_waypoints_drops_duplicates(self):
        pts = np.array([[0.0], [0.0], [1.0], [1.0 + 1e-12], [2.0]])
        merged = merge_waypoints(pts)
        assert merged.shape == (3, 1)
        assert np.allclose(merged.ravel(), [0.0, 1.0, 2.0])

    def test_single_waypoint_degenerate(self):
        path = GeometricPath(np.array([[0.3, -0.2]]))
        assert path.degenerate
        assert path.s_total == 0.0
        assert np.allclose(path.point(np.array([0.0, 1.0])), [0.3, -0.2])
        assert np.allclose(path.derivative(np.array([0.0]), 1), 0.0)

    def test_derivative_bounds_dominate_dense_sampling(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            path = GeometricPath(random_waypoints(rng, rng.integers(3, 9), 3))
            g1, g2, g3 = path.derivative_bounds()
            ss = np.linspace(0.0, path.s_total, 20001)
            d1 = np.abs(path.derivative(ss, 1)).max(axis=0)
            d2 = np.abs(path.derivative(ss, 2)).max(axis=0)
            d3 = np.abs(path.derivative(ss, 3)).max(axis=0)
            assert np.all(d1 <= g1 + 1e-9)
            assert np.all(d2 <= g2 + 1e-9)
            assert np.all(d3 <= g3 + 1e-9)
            # The bounds are exact, so dense sampling should come close;
            # gamma'' peaks exactly at knots, which the uniform grid can
            # miss by up to one spacing, hence the looser band there.
            assert np.all(g1 <= d1 * (1.0 + 1e-4) + 1e-9)
            assert np.all(g2 <= d2 * (1.0 + 1e-3) + 1e-9)
            assert np.all(g3 <= d3 * (1.0 + 1e-4) + 1e-9)

    def test_position_extrema_dominate_dense_sampling(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            path = GeometricPath(random_waypoints(rng, rng.integers(3, 9), 2))
            lo, hi = path.position_extrema()
            ss = np.linspace(0.0, path.s_total, 20001)
            pts = path.point(ss)
            assert np.all(pts.min(axis=0) >= lo - 1e-9)
            assert np.all(pts.max(axis=0) <= hi + 1e-9)
            assert np.all(lo <= pts.min(axis=0) + 1e-6)
            assert np.all(hi >= pts.max(axis=0) - 1e-6)

    def test_distance_to_on_and_off_path(self):
        path = GeometricPath(np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert path.distance_to(np.array([0.4, 0.0])) == pytest.approx(0.0, abs=1e-9)
        assert path.distance_to(np.array([0.5, 0.3])) == pytest.approx(0.3, abs=1e-9)
        assert path.distance_to(np.array([2.0, 0.0])) == pytest.approx(1.0, abs=1e-9)


class TestScalarLimitDerivation:
    def test_velocity_bound_halves_when_tangent_doubles(self):
        limits = default_limits(2)
        g1 = np.array([1.0, 0.0])
        z = np.zeros(2)
        base = scalar_limits_from_bounds(g1, z, z, limits)
        doubled = scalar_limits_from_bounds(2.0 * g1, z, z, limits)
        assert base.v_max == pytest.approx(2.0)
        assert doubled.v_max == pytest.approx(base.v_max / 2.0)
        assert doubled.a_max == pytest.approx(base.a_max / 2.0)
        assert doubled.j_max == pytest.approx(base.j_max / 2.0)

    def test_diagonal_motion_allows_faster_parameter(self):
        limits = default_limits(2)
        straight = GeometricPath(np.array([[0.0, 0.0], [1.0, 0.0]]))
        diagonal = GeometricPath(np.array([[0.0, 0.0], [1.0, 1.0]]))
        lim_s = derive_scalar_limits(straight, limits)
        lim_d = derive_scalar_limits(diagonal, limits)
        assert lim_s.v_max == pytest.approx(2.0)
        assert lim_d.v_max == pytest.approx(2.0 * np.sqrt(2.0))

    def test_chain_rule_respects_joint_limits_densely(self):
        rng = np.random.default_rng(5)
        limits = default_limits(3)
        for _ in range(10):
            pts = random_waypoints(rng, rng.integers(3, 8), 3)
            traj = plan_intended(pts, np.zeros(3), limits)
            ts = traj.t0 + np.linspace(0.0, traj.duration, 3000)
            q, dq, ddq, dddq = traj.sample(ts)
            assert np.all(q >= limits.q_min - 1e-9)
            assert np.all(q <= limits.q_max + 1e-9)
            assert np.all(np.abs(dq) <= limits.v_max + 1e-9)
            assert np.all(np.abs(ddq) <= limits.a_max + 1e-9)
            assert np.all(np.abs(dddq) <= limits.j_max + 1e-9)

    def test_degenerate_path_rejected(self):
        with pytest.raises(ValueError):
            derive_scalar_limits(GeometricPath(np.zeros((1, 2))), default_limits(2))


class TestInitialPathSpeed:
    def test_projection_forward_backward_capped(self):
        path = GeometricPath(np.array([[0.0, 0.0], [1.0, 0.0]]))
        lim = ScalarLimits(v_max=1.0, a_max=5.0, j_max=100.0)
        assert initial_path_speed(path, [0.5, 0.7], lim) == pytest.approx(0.5)
        assert initial_path_speed(path, [-0.5, 0.0], lim) == 0.0
        assert initial_path_speed(path, [3.0, 0.0], lim) == pytest.approx(1.0)


class TestTrajectory:
    def test_starts_and_ends_at_waypoints_at_rest(self):
        rng = np.random.default_rng(6)
        limits = default_limits(4)
        pts = random_waypoints(rng, 5, 4)
        traj = plan_intended(pts, np.zeros(4), limits, t0=2.0)
        start = traj.state(traj.t0)
        end = traj.state(traj.end_time)
        assert np.allclose(start.q, pts[0], atol=1e-9)
        assert np.allclose(end.q, pts[-1], atol=1e-9)
        assert np.allclose(end.dq, 0.0, atol=1e-9)
        assert np.allclose(end.ddq, 0.0, atol=1e-9)

    def test_nonzero_start_velocity_continuity(self):
        limits = default_limits(2)
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        dq0 = np.array([0.6, 0.0])
        traj = plan_intended(pts, dq0, limits)
        state = traj.state(traj.t0)
        assert np.allclose(state.dq, dq0, atol=1e-9)

    def test_start_velocity_projects_onto_tangent(self):
        # On a bent path the start velocity is the least-squares match of
        # the commanded joint velocity along the path tangent.
        limits = default_limits(2)
        pts = np.array([[0.0, 0.0], [0.8, 0.0], [1.2, 0.4]])
        dq0 = np.array([0.6, 0.0])
        traj = plan_intended(pts, dq0, limits)
        state = traj.state(traj.t0)
        tangent = traj.path.derivative(0.0, 1)
        assert abs(float((state.dq - dq0) @ tangent)) < 1e-9

    def test_all_duplicates_give_hold(self):
        limits = default_limits(2)
        pts = np.array([[0.3, -0.1], [0.3, -0.1], [0.3, -0.1]])
        traj = plan_intended(pts, np.zeros(2), limits)
        st = traj.state(traj.t0 + 0.7)
        assert np.allclose(st.q, [0.3, -0.1])
        assert np.allclose(st.dq, 0.0)

    def test_hold_constructor(self):
        traj = Trajectory.hold([0.1, 0.2], 0.5, t0=1.0)
        q, dq, _, _ = traj.sample(np.array([1.0, 1.25, 1.5]))
        assert np.allclose(q, [0.1, 0.2])
        assert np.allclose(dq, 0.0)

    def test_sample_is_c2_continuous(self):
        rng = np.random.default_rng(7)
        limits = default_limits(3)
        traj = plan_intended(random_waypoints(rng, 6, 3), np.zeros(3), limits)
        ts = traj.t0 + np.linspace(0.0, traj.duration, 6000)
        q, dq, ddq, _ = traj.sample(ts)
        dt = ts[1] - ts[0]
        # Finite differences of q match dq, of dq match ddq.
        fd_dq = np.gradient(q, dt, axis=0)
        fd_ddq = np.gradient(dq, dt, axis=0)
        assert np.abs(fd_dq[2:-2] - dq[2:-2]).max() < 5e-3
        assert np.abs(fd_ddq[2:-2] - ddq[2:-2]).max() < 5e-2

    def test_subdivision_repairs_interior_overshoot(self):
        limits = KinematicLimits(q_min=[-0.2], q_max=[1.0], v_max=[2.0],
                                 a_max=[10.0], j_max=[400.0])
        pts = np.array([[0.0], [0.873], [0.97], [0.1], [0.0]])
        raw = GeometricPath(pts)
        assert raw.position_extrema()[1][0] > 1.0
        traj = plan_intended(pts, np.zeros(1), limits)
        lo, hi = traj.path.position_extrema()
        assert hi[0] <= 1.0 + 1e-9
        # Original waypoints survive subdivision.
        for p in pts:
            assert np.min(np.abs(traj.path.waypoints - p)) < 1e-12

    def test_boundary_peak_raises(self):
        limits = KinematicLimits(q_min=[-0.2], q_max=[1.0], v_max=[2.0],
                                 a_max=[10.0], j_max=[400.0])
        pts = np.array([[0.0], [0.9], [1.0], [0.1], [0.0]])
        with pytest.raises(PlanningError):
            plan_intended(pts, np.zeros(1), limits)

    def test_out_of_box_waypoints_raise(self):
        limits = default_limits(1)
        with pytest.raises(PlanningError):
            plan_intended(np.array([[0.0], [3.5]]), np.zeros(1), limits)
