"""Barrier filter tests against an independent clearance implementation."""

import math

import numpy as np
import pytest

from chunkshield.cbf import (
    CbfController,
    CbfParams,
    barrier_gradient,
    barrier_value,
    clearance,
    filter_velocity,
)
from chunkshield.occupancy import ObstacleState

from test_model import L1, L2, planar_two_link


def obstacle(center, radius, meas_error=0.0):
    return ObstacleState(measured_center=center, shape_radius=radius,
                         v_max_obj=0.0, meas_error=meas_error, meas_time=0.0)


def planar_link_gaps(q, center, radius, meas_error=0.0):
    """Per-link clearances for the two-link arm, written independently with scalar math."""

    def seg_dist(ax, ay, bx, by, px, py):
        dx, dy = bx - ax, by - ay
        denom = dx * dx + dy * dy
        t = 0.0 if denom == 0.0 else max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / denom))
        cx, cy = ax + t * dx, ay + t * dy
        return math.hypot(px - cx, py - cy)

    c1, s1 = math.cos(q[0]), math.sin(q[0])
    c12, s12 = math.cos(q[0] + q[1]), math.sin(q[0] + q[1])
    elbow = (L1 * c1, L1 * s1)
    tip = (L1 * c1 + L2 * c12, L1 * s1 + L2 * s12)
    px, py = center[0], center[1]
    d1 = seg_dist(0.0, 0.0, elbow[0], elbow[1], px, py) - 0.05
    d2 = seg_dist(elbow[0], elbow[1], tip[0], tip[1], px, py) - 0.04
    return d1 - radius - meas_error, d2 - radius - meas_error


def planar_clearance_ref(q, center, radius, meas_error=0.0):
    return min(planar_link_gaps(q, center, radius, meas_error))


class TestBarrier:
    def test_clearance_matches_independent_formula(self):
        model = planar_two_link()
        rng = np.random.default_rng(23)
        for _ in range(30):
            q = rng.uniform(-np.pi, np.pi, 2)
            center = np.array([rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8), 0.0])
            r = rng.uniform(0.01, 0.2)
            e = rng.uniform(0.0, 0.01)
            got = clearance(model, q, [obstacle(center, r, e)])
            ref = planar_clearance_ref(q, center, r, e)
            assert got == pytest.approx(ref, abs=1e-12)

    def test_gradient_matches_fd_of_independent_formula(self):
        model = planar_two_link()
        params = CbfParams()
        rng = np.random.default_rng(29)
        checked = 0
        for _ in range(40):
            q = rng.uniform(-2.0, 2.0, 2)
            center = np.array([rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7), 0.0])
            obs = [obstacle(center, 0.05)]
            if clearance(model, q, obs) < 0.02:
                continue
            grad = barrier_gradient(model, params, q, obs)
            eps = 1e-6
            for j in range(2):
                step = np.zeros(2)
                step[j] = eps
                ref = (planar_clearance_ref(q + step, center, 0.05)
                       - planar_clearance_ref(q - step, center, 0.05)) / (2 * eps)
                assert grad[j] == pytest.approx(ref, abs=5e-4)
            checked += 1
        assert checked >= 20

    def test_gradient_matches_fd_of_clearance_with_two_obstacles(self):
        model = planar_two_link()
        params = CbfParams()
        rng = np.random.default_rng(37)
        eps = 1e-6
        checked = 0
        for _ in range(60):
            q = rng.uniform(-2.0, 2.0, 2)
            centers = [np.array([*rng.uniform(-0.7, 0.7, 2), 0.0])
                       for _ in range(2)]
            obs = [obstacle(c, 0.05) for c in centers]
            gaps = np.sort([g for c in centers
                            for g in planar_link_gaps(q, c, 0.05)])
            if gaps[1] - gaps[0] < 1e-3:
                # The closest pair may switch within the difference step.
                continue
            grad = barrier_gradient(model, params, q, obs)
            ref = [(clearance(model, q + step, obs)
                    - clearance(model, q - step, obs)) / (2 * eps)
                   for step in eps * np.eye(2)]
            assert np.allclose(grad, ref, atol=1e-6)
            checked += 1
        assert checked >= 40

    def test_gradient_zero_when_center_on_link_axis(self):
        model = planar_two_link()
        params = CbfParams()
        q = np.zeros(2)
        obs = [obstacle([0.5 * L1, 0.0, 0.0], 0.05)]
        assert np.array_equal(barrier_gradient(model, params, q, obs),
                              np.zeros(2))
        dq_des = np.array([0.4, -0.1])
        assert np.array_equal(filter_velocity(model, params, q, dq_des, obs),
                              dq_des)

    def test_barrier_subtracts_standoff(self):
        model = planar_two_link()
        params = CbfParams(d_min=0.08)
        q = np.array([0.0, 0.0])
        obs = [obstacle([0.7 + 0.3, 0.0, 0.0], 0.1)]
        h = barrier_value(model, params, q, obs)
        # Tip at x=0.7 with link radius 0.04: gap 0.3 - 0.04 - 0.1 = 0.16.
        assert h == pytest.approx(0.16 - 0.08, abs=1e-9)


class TestFilter:
    def test_passthrough_when_constraint_inactive(self):
        model = planar_two_link()
        params = CbfParams()
        q = np.array([0.0, 0.0])
        obs = [obstacle([0.0, 0.9, 0.0], 0.05)]
        dq_des = np.array([-0.5, 0.2])
        out = filter_velocity(model, params, q, dq_des, obs)
        assert np.array_equal(out, dq_des)

    def test_passthrough_without_obstacles(self):
        model = planar_two_link()
        out = filter_velocity(model, CbfParams(), np.zeros(2),
                              np.array([0.3, -0.3]), [])
        assert np.array_equal(out, np.array([0.3, -0.3]))

    def test_constraint_enforced_when_heading_in(self):
        model = planar_two_link()
        params = CbfParams()
        rng = np.random.default_rng(31)
        activated = 0
        for _ in range(40):
            q = rng.uniform(-1.5, 1.5, 2)
            center = np.array([rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7), 0.0])
            obs = [obstacle(center, 0.05)]
            h = barrier_value(model, params, q, obs)
            if not (0.0 < h < 0.25):
                continue
            grad = barrier_gradient(model, params, q, obs)
            if float(grad @ grad) < 1e-6:
                continue
            dq_des = -2.0 * grad / np.linalg.norm(grad)
            out = filter_velocity(model, params, q, dq_des, obs)
            assert float(grad @ out) >= -params.gamma * h - 1e-9
            # The correction is along +grad only.
            corr = out - dq_des
            lam = float(corr @ grad) / float(grad @ grad)
            assert lam >= 0.0
            assert np.allclose(corr, lam * grad, atol=1e-12)
            activated += 1
        assert activated >= 10

    def test_controller_deviates_around_blocking_obstacle(self):
        model = planar_two_link()
        params = CbfParams(gamma=5.0, d_min=0.05)
        alpha = 0.001
        q0 = np.array([0.0, 0.0])
        goal = np.array([1.2, 0.0])
        # Obstacle parked on the swept arc between start and goal.
        mid_tip_angle = 0.6
        center = np.array([0.74 * math.cos(mid_tip_angle),
                           0.74 * math.sin(mid_tip_angle), 0.0])
        obs = [obstacle(center, 0.06)]
        ctl = CbfController(model, params, alpha, q0)
        max_dev = 0.0
        min_h = np.inf
        for k in range(3000):
            t = (k + 1) * alpha
            frac = min(1.0, t / 2.0)
            q_ref = q0 + frac * (goal - q0)
            q = ctl.step(q_ref, obs)
            # Deviation from the straight joint-space reference path.
            d = q - q0
            g = goal - q0
            u = float(np.clip((d @ g) / float(g @ g), 0.0, 1.0))
            max_dev = max(max_dev, float(np.linalg.norm(d - u * g)))
            min_h = min(min_h, barrier_value(model, params, ctl.q, obs))
        assert max_dev > 0.01
        assert min_h > -params.d_min
        assert np.all(np.isfinite(ctl.q))
