"""Kinematics tests against analytic two-link results and batch consistency."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chunkshield.model import (
    JointState,
    KinematicLimits,
    RobotModel,
    as_joint_vector,
    capsule_points_batch,
    kinetic_energy_batch,
    point_jacobians_batch,
    point_velocities_batch,
)

L1, L2 = 0.4, 0.3


def planar_two_link(tracking_error=0.0):
    """Two revolute z-joints in the xy plane, mass at the tip."""
    limits = KinematicLimits(
        q_min=[-np.pi, -np.pi],
        q_max=[np.pi, np.pi],
        v_max=[2.0, 2.0],
        a_max=[10.0, 10.0],
        j_max=[400.0, 400.0],
    )
    return RobotModel(
        joint_offsets=[[0.0, 0.0, 0.0], [L1, 0.0, 0.0]],
        joint_axes=[[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]],
        capsules=(
            (0, [0.0, 0.0, 0.0], [L1, 0.0, 0.0], 0.05),
            (1, [0.0, 0.0, 0.0], [L2, 0.0, 0.0], 0.04),
        ),
        masses=((1, [L2, 0.0, 0.0], 1.5),),
        limits=limits,
        tracking_error=tracking_error,
    )


def spatial_three_link():
    limits = KinematicLimits(
        q_min=[-2.9] * 3, q_max=[2.9] * 3,
        v_max=[2.0] * 3, a_max=[10.0] * 3, j_max=[400.0] * 3,
    )
    return RobotModel(
        joint_offsets=[[0.0, 0.0, 0.3], [0.0, 0.0, 0.3], [0.0, 0.2, 0.1]],
        joint_axes=[[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]],
        capsules=(
            (0, [0.0, 0.0, -0.3], [0.0, 0.0, 0.0], 0.07),
            (1, [0.0, 0.0, 0.0], [0.0, 0.2, 0.1], 0.06),
            (2, [0.0, 0.0, 0.0], [0.0, 0.0, 0.25], 0.05),
        ),
        masses=((1, [0.0, 0.1, 0.0], 2.0), (2, [0.0, 0.0, 0.25], 1.0)),
        limits=limits,
    )


def tip_position(q):
    c1, s1 = np.cos(q[0]), np.sin(q[0])
    c12, s12 = np.cos(q[0] + q[1]), np.sin(q[0] + q[1])
    return np.array([L1 * c1 + L2 * c12, L1 * s1 + L2 * s12, 0.0])


def tip_velocity(q, dq):
    s1, s12 = np.sin(q[0]), np.sin(q[0] + q[1])
    c1, c12 = np.cos(q[0]), np.cos(q[0] + q[1])
    jac = np.array([
        [-L1 * s1 - L2 * s12, -L2 * s12],
        [L1 * c1 + L2 * c12, L2 * c12],
        [0.0, 0.0],
    ])
    return jac @ np.asarray(dq)


class TestForwardKinematics:
    def test_tip_matches_analytic(self):
        model = planar_two_link()
        rng = np.random.default_rng(3)
        for _ in range(25):
            q = rng.uniform(-np.pi, np.pi, 2)
            caps = capsule_points_batch(model, q[None, :])[0]
            assert np.allclose(caps[1, 1], tip_position(q), atol=1e-12)
            # Link 1 ends where link 2 begins.
            assert np.allclose(caps[0, 1], caps[1, 0], atol=1e-12)
            assert model.capsules[0][3] == 0.05 and model.capsules[1][3] == 0.04

    def test_batch_matches_loop(self):
        model = spatial_three_link()
        rng = np.random.default_rng(11)
        qs = rng.uniform(-2.0, 2.0, (40, 3))
        batch = capsule_points_batch(model, qs)
        for i in range(qs.shape[0]):
            single = capsule_points_batch(model, qs[i][None, :])[0]
            assert np.allclose(batch[i], single, atol=0.0)

    def test_wrong_joint_count_raises(self):
        model = planar_two_link()
        with pytest.raises(ValueError):
            capsule_points_batch(model, [[0.0, 0.0, 0.0]])


def energy(model, q, dq):
    """Kinetic energy of one state through the batch function."""
    return float(kinetic_energy_batch(model, np.atleast_2d(q), np.atleast_2d(dq))[0])


class TestVelocitiesAndEnergy:
    def test_tip_velocity_matches_jacobian(self):
        model = planar_two_link()
        rng = np.random.default_rng(5)
        for _ in range(25):
            q = rng.uniform(-np.pi, np.pi, 2)
            dq = rng.uniform(-2.0, 2.0, 2)
            v = point_velocities_batch(model, q[None, :], dq[None, :])[0, 0]
            assert np.allclose(v, tip_velocity(q, dq), atol=1e-12)

    def test_energy_matches_analytic(self):
        model = planar_two_link()
        rng = np.random.default_rng(6)
        for _ in range(25):
            q = rng.uniform(-np.pi, np.pi, 2)
            dq = rng.uniform(-2.0, 2.0, 2)
            expected = 0.5 * 1.5 * float(tip_velocity(q, dq) @ tip_velocity(q, dq))
            assert energy(model, q, dq) == pytest.approx(expected, abs=1e-12)

    def test_jacobian_matches_fd_of_capsule_endpoints(self):
        model = spatial_three_link()
        joints = [c[0] for c in model.capsules for _ in range(2)]
        local = np.array([p for c in model.capsules for p in (c[1], c[2])])
        rng = np.random.default_rng(4)
        eps = 1e-6
        for _ in range(20):
            q = rng.uniform(-2.0, 2.0, 3)
            points, jac = point_jacobians_batch(model, q[None, :], joints, local)
            ends = capsule_points_batch(model, q[None, :])[0].reshape(-1, 3)
            assert np.allclose(points[0], ends, atol=1e-12)
            for j in range(3):
                step = np.zeros(3)
                step[j] = eps
                hi = capsule_points_batch(model, (q + step)[None, :])[0]
                lo = capsule_points_batch(model, (q - step)[None, :])[0]
                ref = ((hi - lo) / (2.0 * eps)).reshape(-1, 3)
                assert np.allclose(jac[0, :, :, j], ref, atol=1e-7)

    def test_energy_zero_at_rest(self):
        model = spatial_three_link()
        assert energy(model, [0.3, -0.2, 1.1], [0.0, 0.0, 0.0]) == 0.0

    def test_energy_batch_matches_scalar(self):
        model = spatial_three_link()
        rng = np.random.default_rng(7)
        qs = rng.uniform(-2.0, 2.0, (15, 3))
        dqs = rng.uniform(-2.0, 2.0, (15, 3))
        batch = kinetic_energy_batch(model, qs, dqs)
        for i in range(15):
            assert batch[i] == pytest.approx(energy(model, qs[i], dqs[i]), abs=1e-12)

    def test_energy_scales_with_squared_speed(self):
        model = spatial_three_link()
        q = np.array([0.4, -0.8, 0.2])
        dq = np.array([1.0, -0.5, 0.7])
        e1 = energy(model, q, dq)
        e2 = energy(model, q, 2.0 * dq)
        assert e2 == pytest.approx(4.0 * e1, rel=1e-6)


class TestConservativeBounds:
    def test_motion_bound_dominates_displacement(self):
        model = spatial_three_link()
        rng = np.random.default_rng(9)
        for _ in range(50):
            q = rng.uniform(-2.0, 2.0, 3)
            delta = rng.uniform(-0.3, 0.3, 3)
            before = capsule_points_batch(model, q[None, :])[0]
            after = capsule_points_batch(model, (q + delta)[None, :])[0]
            moved = np.linalg.norm(after - before, axis=-1).max()
            assert moved <= model.motion_bound * np.abs(delta).max() + 1e-12


class TestValidation:
    def test_as_joint_vector_rejects_bad_input(self):
        with pytest.raises(ValueError):
            as_joint_vector([[1.0, 2.0]])
        with pytest.raises(ValueError):
            as_joint_vector([1.0, np.nan])
        with pytest.raises(ValueError):
            as_joint_vector([1.0, 2.0], n=3)
        out = as_joint_vector([1.0, 2.0])
        assert not out.flags.writeable

    def test_capsule_requires_positive_radius(self):
        limits = KinematicLimits(q_min=[-1.0], q_max=[1.0], v_max=[1.0],
                                 a_max=[1.0], j_max=[1.0])
        for radius in (0.0, -0.1, np.nan):
            with pytest.raises(ValueError):
                RobotModel(
                    joint_offsets=[[0.0, 0.0, 0.0]],
                    joint_axes=[[0.0, 0.0, 1.0]],
                    capsules=((0, [0, 0, 0], [1, 0, 0], radius),),
                    masses=((0, [0, 0, 0], 1.0),),
                    limits=limits,
                )

    def test_limits_validation(self):
        with pytest.raises(ValueError):
            KinematicLimits(q_min=[0.0], q_max=[0.0], v_max=[1.0],
                            a_max=[1.0], j_max=[1.0])
        with pytest.raises(ValueError):
            KinematicLimits(q_min=[0.0], q_max=[1.0], v_max=[0.0],
                            a_max=[1.0], j_max=[1.0])

    def test_joint_state_rest(self):
        st8 = JointState.rest([0.1, 0.2])
        assert np.all(st8.dq == 0.0) and np.all(st8.dddq == 0.0)
        with pytest.raises(ValueError):
            JointState(q=[0.1, 0.2], dq=[0.0], ddq=[0.0, 0.0], dddq=[0.0, 0.0])

    def test_model_rejects_bad_capsule_joint(self):
        limits = KinematicLimits(q_min=[-1.0], q_max=[1.0], v_max=[1.0],
                                 a_max=[1.0], j_max=[1.0])
        with pytest.raises(ValueError):
            RobotModel(
                joint_offsets=[[0.0, 0.0, 0.0]],
                joint_axes=[[0.0, 0.0, 1.0]],
                capsules=((3, [0, 0, 0], [1, 0, 0], 0.1),),
                masses=((0, [0, 0, 0], 1.0),),
                limits=limits,
            )


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_property_motion_bound_random_directions(seed):
    model = spatial_three_link()
    rng = np.random.default_rng(seed)
    q = rng.uniform(-2.0, 2.0, 3)
    delta = rng.normal(0.0, 0.5, 3)
    before = capsule_points_batch(model, q[None, :])[0]
    after = capsule_points_batch(model, (q + delta)[None, :])[0]
    moved = np.linalg.norm(after - before, axis=-1).max()
    assert moved <= model.motion_bound * np.abs(delta).max() + 1e-12
