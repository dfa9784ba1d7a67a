"""Property tests of the independent reference in reference.py.

Run with `python3 -m pytest shieldbench` from the repository root; the
benchmark also runs them before each measurement, so a broken reference
cannot pass its checks.
"""

from __future__ import annotations

import os

import numpy as np

from reference import Robot

ARM7 = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    "scenarios", "robots", "arm7.yaml")


def _random_states(robot: Robot, m: int, seed: int):
    rng = np.random.default_rng(seed)
    qs = rng.uniform(robot.q_min, robot.q_max, (m, robot.n_joints))
    dqs = rng.uniform(-robot.v_max, robot.v_max, (m, robot.n_joints))
    return qs, dqs


def test_zero_configuration_sums_offsets():
    robot = Robot(ARM7)
    pts = robot.capsule_points(np.zeros(robot.n_joints))[0]
    summed = np.cumsum(robot.offsets, axis=0)[robot.cap_joint]
    assert np.allclose(pts, summed[:, None, :] + robot.cap_local, atol=1e-15)


def test_energy_scales_with_speed_squared():
    robot = Robot(ARM7)
    qs, dqs = _random_states(robot, 64, 1)
    ke = robot.kinetic_energy(qs, dqs)
    assert np.all(ke >= 0.0)
    for c in (0.0, 0.5, 3.0, -2.0):
        assert np.allclose(robot.kinetic_energy(qs, c * dqs), c * c * ke,
                           rtol=1e-12, atol=0.0)


def test_analytic_speed_matches_finite_difference():
    robot = Robot(ARM7)
    qs, dqs = _random_states(robot, 64, 2)
    h = 1e-6
    fd = (robot.mass_points(qs + h * dqs) - robot.mass_points(qs - h * dqs)) \
        / (2.0 * h)
    analytic = robot.mass_velocities(qs, dqs)
    assert np.allclose(analytic, fd, rtol=0.0, atol=1e-7)


def test_frames_are_rotations():
    robot = Robot(ARM7)
    qs, _ = _random_states(robot, 16, 3)
    rots, _ = robot.frames(qs)
    eye = np.einsum("mnij,mnkj->mnik", rots, rots)
    assert np.allclose(eye, np.eye(3), atol=1e-12)
    assert np.allclose(np.linalg.det(rots), 1.0, atol=1e-12)
